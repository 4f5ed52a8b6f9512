//! Seeded request sequences.
//!
//! Every client replays a fixed-length sequence drawn from the workload
//! seed and its client index, so the same seed always sends the same
//! bytes, whatever the machine's speed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Itemsets per `chi2_batch` request.
pub const BATCH_LEN: usize = 8;
/// Baskets per `ingest` request.
pub const INGEST_LEN: usize = 20;

/// One request of a sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `chi2` over one itemset.
    Chi2(Vec<u32>),
    /// `chi2_batch` over [`BATCH_LEN`] itemsets.
    Batch(Vec<Vec<u32>>),
    /// `ingest` of [`INGEST_LEN`] baskets.
    Ingest(Vec<Vec<u32>>),
}

/// The request classes latencies are reported by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// `chi2`.
    Chi2,
    /// `chi2_batch`.
    Batch,
    /// `ingest`.
    Ingest,
}

impl Op {
    /// The request's class.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Chi2(_) => OpClass::Chi2,
            Op::Batch(_) => OpClass::Batch,
            Op::Ingest(_) => OpClass::Ingest,
        }
    }

    /// The wire request line (no trailing newline), with correlation `id`.
    pub fn request_line(&self, id: u64) -> String {
        match self {
            Op::Chi2(items) => format!(r#"{{"id":{id},"cmd":"chi2","items":{}}}"#, ids(items)),
            Op::Batch(sets) => format!(
                r#"{{"id":{id},"cmd":"chi2_batch","itemsets":{}}}"#,
                id_lists(sets)
            ),
            Op::Ingest(baskets) => format!(
                r#"{{"id":{id},"cmd":"ingest","baskets":{}}}"#,
                id_lists(baskets)
            ),
        }
    }
}

fn ids(items: &[u32]) -> String {
    let inner: Vec<String> = items.iter().map(u32::to_string).collect();
    format!("[{}]", inner.join(","))
}

fn id_lists(lists: &[Vec<u32>]) -> String {
    let inner: Vec<String> = lists.iter().map(|l| ids(l)).collect();
    format!("[{}]", inner.join(","))
}

/// Request-mix weights (percent) and itemset shape.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Share of `chi2` requests.
    pub chi2_pct: u32,
    /// Share of `chi2_batch` requests.
    pub batch_pct: u32,
    /// Share of `ingest` requests (the rest of 100).
    pub ingest_pct: u32,
    /// Share of queried itemsets that are triples (the rest are pairs).
    pub triple_pct: u32,
}

impl Mix {
    /// The same mix without ingests, their share going to `chi2`: the
    /// warm-up requests, which must leave the data as it was.
    pub fn read_only(&self) -> Mix {
        Mix {
            chi2_pct: self.chi2_pct + self.ingest_pct,
            ingest_pct: 0,
            ..*self
        }
    }
}

/// `serve_durable`: reads beside durable writes, pairs and triples.
pub const SERVE_MIX: Mix = Mix {
    chi2_pct: 60,
    batch_pct: 30,
    ingest_pct: 10,
    triple_pct: 50,
};

/// `cluster_scatter`: read-only, pairs over the hot items.
pub const CLUSTER_MIX: Mix = Mix {
    chi2_pct: 67,
    batch_pct: 33,
    ingest_pct: 0,
    triple_pct: 0,
};

/// The sequence client `client` replays: `n_ops` requests drawn from
/// `mix`, itemsets over `items` (distinct ids, uniform), ingest baskets
/// drawn uniformly from `pool`.
///
/// # Panics
///
/// Panics if `items` has fewer than three ids, or `mix` asks for
/// ingests with an empty `pool`.
pub fn sequence(
    seed: u64,
    client: usize,
    n_ops: usize,
    mix: &Mix,
    items: &[u32],
    pool: &[Vec<u32>],
) -> Vec<Op> {
    assert!(items.len() >= 3, "need at least three items to query");
    assert!(
        mix.ingest_pct == 0 || !pool.is_empty(),
        "ingest needs a basket pool"
    );
    let mut rng =
        StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let itemset = |rng: &mut StdRng| {
        let size = if rng.gen_range(0..100u32) < mix.triple_pct {
            3
        } else {
            2
        };
        let mut set: Vec<u32> = Vec::with_capacity(size);
        while set.len() < size {
            let item = items[rng.gen_range(0..items.len())];
            if !set.contains(&item) {
                set.push(item);
            }
        }
        set.sort_unstable();
        set
    };
    (0..n_ops)
        .map(|_| {
            let roll = rng.gen_range(0..100u32);
            if roll < mix.chi2_pct {
                Op::Chi2(itemset(&mut rng))
            } else if roll < mix.chi2_pct + mix.batch_pct {
                Op::Batch((0..BATCH_LEN).map(|_| itemset(&mut rng)).collect())
            } else {
                Op::Ingest(
                    (0..INGEST_LEN)
                        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                        .collect(),
                )
            }
        })
        .collect()
}

/// Every request line of `ops`, ids numbered from 0, newline-terminated
/// — the exact bytes a client sends.
pub fn render(ops: &[Op]) -> String {
    let mut out = String::new();
    for (id, op) in ops.iter().enumerate() {
        out.push_str(&op.request_line(id as u64));
        out.push('\n');
    }
    out
}
