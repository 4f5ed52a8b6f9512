//! The query commands, answered once for every service.
//!
//! `chi2`, `chi2_batch`, `interest`, `topk`, `border` and `support_vec`
//! read nothing but itemset supports, so they are answered here from any
//! [`SupportSource`] through the shared evaluation of
//! [`bmb_core::source`]: a standalone server passes its engine's
//! snapshot, a cluster coordinator its scatter-gather over the shards.
//! The wire encoding, argument checks and error precedence therefore
//! cannot drift between the two.

use bmb_basket::Itemset;
use bmb_core::{source, EngineError, MinerConfig, SupportSource, SupportSpec};

use crate::json::Value;
use crate::protocol::{border_value, chi2_value, interest_value, pair_value, Request};
use crate::server::{ServiceCtx, ServiceFailure};

impl From<EngineError> for ServiceFailure {
    fn from(error: EngineError) -> ServiceFailure {
        match error {
            EngineError::DeadlineExceeded { budget } => ServiceFailure::deadline(budget),
            other => ServiceFailure::other(other.to_string()),
        }
    }
}

/// Answers one query command from `source`, recording the served epoch.
///
/// # Errors
///
/// A request the source cannot answer, with the wire message; a command
/// that is not a query is refused.
pub fn dispatch_query<S>(
    source: &S,
    request: Request,
    ctx: &ServiceCtx<'_>,
) -> Result<Value, ServiceFailure>
where
    S: SupportSource,
    ServiceFailure: From<S::Error>,
{
    let (payload, epoch) = match request {
        Request::Chi2 { items } => {
            let answer = source::chi2(source, &Itemset::from_ids(items))?;
            (chi2_value(&answer), answer.epoch)
        }
        Request::Chi2Batch { itemsets } => {
            let sets: Vec<Itemset> = itemsets.into_iter().map(Itemset::from_ids).collect();
            let (answers, cut) = source::chi2_batch(source, &sets)?;
            let results = answers
                .iter()
                .map(|answer| match answer {
                    Ok(answer) => chi2_value(answer),
                    Err(e) => Value::object().with("error", Value::Str(e.to_string())),
                })
                .collect();
            let payload = Value::object()
                .with("epoch", Value::Int(cut.epoch as i64))
                .with("results", Value::Array(results));
            (payload, cut.epoch)
        }
        Request::Interest { items, cell } => {
            let answer = source::interest(source, &Itemset::from_ids(items), cell)?;
            (interest_value(&answer), answer.epoch)
        }
        Request::TopK { k } => {
            let (pairs, cut) = source::topk_pairs(source, k)?;
            let payload = Value::object()
                .with("epoch", Value::Int(cut.epoch as i64))
                .with(
                    "pairs",
                    Value::Array(pairs.iter().map(pair_value).collect()),
                );
            (payload, cut.epoch)
        }
        Request::Border {
            support,
            support_fraction,
            max_level,
        } => {
            let support = support.unwrap_or(0.01);
            if !(0.0..=1.0).contains(&support) {
                return Err(ServiceFailure::other(format!(
                    "'support' must be in [0,1], got {support}"
                )));
            }
            let fraction = support_fraction.unwrap_or(0.3);
            if !(fraction > 0.25 && fraction <= 1.0) {
                return Err(ServiceFailure::other(format!(
                    "'support_fraction' must be in (0.25,1], got {fraction}"
                )));
            }
            // The border is judged by the same test as every other answer.
            let test = source.test();
            let config = MinerConfig {
                alpha: test.level.alpha(),
                df: test.df,
                low_expectation_cutoff: test.low_expectation_cutoff,
                support: SupportSpec::Fraction(support),
                support_fraction: fraction,
                max_level: max_level.unwrap_or(usize::MAX),
                ..MinerConfig::default()
            };
            let (result, cut) = source::border(source, &config)?;
            (border_value(&result, cut.epoch), cut.epoch)
        }
        Request::SupportVec { itemsets } => {
            let n_items = source.n_items();
            let mut subsets = Vec::with_capacity(itemsets.len());
            for items in itemsets {
                if let Some(&bad) = items.iter().find(|&&id| id as usize >= n_items) {
                    return Err(ServiceFailure::other(format!(
                        "item id {bad} out of range (store has {n_items} items)"
                    )));
                }
                subsets.push(Itemset::from_ids(items));
            }
            let (supports, cut) = source.read_supports(&subsets)?;
            let payload = Value::object()
                .with("epoch", Value::Int(cut.epoch as i64))
                .with("n", Value::Int(cut.n as i64))
                .with(
                    "supports",
                    Value::Array(supports.iter().map(|&s| Value::Int(s as i64)).collect()),
                );
            (payload, cut.epoch)
        }
        other => {
            return Err(ServiceFailure::other(format!(
                "'{}' is not a query command",
                other.name()
            )))
        }
    };
    ctx.metrics.record_served_epoch(epoch);
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bmb_basket::{IncrementalStore, StoreConfig};
    use bmb_core::{mine, EngineConfig, QueryEngine};
    use bmb_stats::DfConvention;

    use crate::json::parse;
    use crate::{Client, Server, ServerConfig};

    use super::*;

    #[test]
    fn border_is_judged_by_the_engines_test() {
        let db = bmb_datasets::generate_census();
        let store = Arc::new(IncrementalStore::from_database(&db, StoreConfig::default()));
        let engine_config = EngineConfig {
            alpha: 0.99,
            df: DfConvention::Saturated,
            ..EngineConfig::default()
        };
        let engine = Arc::new(QueryEngine::new(store, engine_config));
        let running = Server::bind(engine, ServerConfig::default())
            .expect("bind")
            .spawn();
        let mut client = Client::connect(running.addr).expect("connect");
        let request = r#"{"cmd":"border","support":0.01,"support_fraction":0.26}"#;
        let response = parse(&client.request_line(request).expect("border")).expect("JSON");
        running.stop().expect("stop");

        let expected = mine(
            &db,
            &MinerConfig {
                alpha: 0.99,
                df: DfConvention::Saturated,
                support: SupportSpec::Fraction(0.01),
                support_fraction: 0.26,
                ..MinerConfig::default()
            },
        );
        let got = response.get("result").expect("result").to_string();
        assert_eq!(got, border_value(&expected, db.len() as u64).to_string());
    }
}
