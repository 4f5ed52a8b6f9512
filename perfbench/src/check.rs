//! Answer checks against an in-process oracle.

use bmb_core::Chi2Answer;
use bmb_serve::json::{parse, Value};

/// The `"result"` payload of a successful reply line.
///
/// # Errors
///
/// Describes a reply that is not valid JSON or not `"ok":true`.
pub fn result_of(line: &str) -> Result<Value, String> {
    let value = parse(line).map_err(|e| format!("unparseable reply {line:?}: {e}"))?;
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("error reply: {line}"));
    }
    value
        .get("result")
        .cloned()
        .ok_or_else(|| format!("reply without result: {line}"))
}

/// The item ids of an answer's `"itemset"`.
pub fn itemset_ids(entry: &Value) -> Option<Vec<u32>> {
    entry
        .get("itemset")?
        .as_array()?
        .iter()
        .map(|v| v.as_u64().map(|id| id as u32))
        .collect()
}

/// Checks one served χ² answer against the oracle's answer for the same
/// itemset and epoch: support, verdict and the f64 bits of the
/// statistic, cutoff and log p-value must all be identical.
///
/// # Errors
///
/// Names the first field that differs.
pub fn same_chi2(entry: &Value, oracle: &Chi2Answer) -> Result<(), String> {
    let ids: Vec<u32> = oracle.itemset.items().iter().map(|i| i.0).collect();
    if itemset_ids(entry).as_deref() != Some(&ids[..]) {
        return Err(format!("itemset differs: served {entry}, oracle {ids:?}"));
    }
    let bits = |key: &str| entry.get(key).and_then(Value::as_f64).map(f64::to_bits);
    let fields = [
        (
            "support",
            entry.get("support").and_then(Value::as_u64) == Some(oracle.support),
        ),
        (
            "statistic",
            bits("statistic") == Some(oracle.outcome.statistic.to_bits()),
        ),
        (
            "cutoff",
            bits("cutoff") == Some(oracle.outcome.cutoff.to_bits()),
        ),
        (
            "ln_p_value",
            bits("ln_p_value") == Some(oracle.outcome.ln_p_value.to_bits()),
        ),
        (
            "significant",
            entry.get("significant").and_then(Value::as_bool) == Some(oracle.outcome.significant),
        ),
    ];
    match fields.iter().find(|(_, same)| !same) {
        None => Ok(()),
        Some((field, _)) => Err(format!(
            "{field} differs for {ids:?} at epoch {}: served {entry}, oracle statistic {:?}",
            oracle.epoch, oracle.outcome.statistic
        )),
    }
}

/// The χ² answer entries of a `chi2` or `chi2_batch` result, with the
/// epoch they are pinned to.
pub fn chi2_entries(result: &Value) -> Vec<(u64, Value)> {
    let epoch = result.get("epoch").and_then(Value::as_u64).unwrap_or(0);
    match result.get("results").and_then(Value::as_array) {
        Some(entries) => entries.iter().map(|e| (epoch, e.clone())).collect(),
        None => vec![(epoch, result.clone())],
    }
}
