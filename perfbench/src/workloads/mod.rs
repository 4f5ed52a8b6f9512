//! The three workloads and what they share.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bmb_basket::{BasketDatabase, IncrementalStore, ItemId, StoreConfig};
use bmb_core::{EngineConfig, QueryEngine};
use bmb_quest::{generate, QuestParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::replay::Replay;
use crate::report::Report;
use crate::seq::Op;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;

pub mod cluster;
pub mod mine;
pub mod serve;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["mine_quest", "serve_durable", "cluster_scatter"];

/// Load-generating clients. One: on a shared 2-vCPU host, load that
/// keeps both vCPUs busy runs at the speed of the more contended one,
/// while a single request chain can run on whichever is free.
pub const CLIENTS: usize = 1;

/// Baskets in the serving workloads' base data.
pub const BASE_BASKETS: usize = 200_000;

/// Item space of the serving workloads.
pub const BASE_ITEMS: usize = 200;

/// The traced run's in-process layer replay covers the first
/// `1 / LAYER_REPLAY_SHARE` of each client's ops (it is one thread).
pub const LAYER_REPLAY_SHARE: usize = 4;

/// The untimed warm-up before a TCP replay is this share of its ops.
pub const WARM_UP_SHARE: usize = 20;

/// Runs the workload `args` names.
///
/// # Errors
///
/// An unknown workload, or a failure to set the workload up.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "mine_quest" => mine::run(args),
        "serve_durable" => serve::run(args),
        "cluster_scatter" => cluster::run(args),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// The serving workloads' base data: [`BASE_BASKETS`] Quest baskets
/// over [`BASE_ITEMS`] items from the generator's fixed default seed, in
/// a `seed`-drawn order. Every seed serves the same supports, so the work
/// per query does not vary with it; the seed moves baskets between
/// segments and shards, and draws the requests.
pub fn base_baskets(seed: u64) -> Vec<Vec<u32>> {
    let db = generate(&QuestParams {
        n_transactions: BASE_BASKETS,
        n_items: BASE_ITEMS,
        ..QuestParams::default()
    });
    shuffled_baskets(&db, seed)
}

/// A database's baskets as raw id lists, in a `seed`-drawn order.
pub fn shuffled_baskets(db: &BasketDatabase, seed: u64) -> Vec<Vec<u32>> {
    let mut baskets: Vec<Vec<u32>> = db
        .baskets()
        .map(|b| b.iter().map(|item| item.0).collect())
        .collect();
    baskets.shuffle(&mut StdRng::seed_from_u64(seed));
    baskets
}

/// Op count of a run: `seconds` at the workload's nominal rate, so a
/// run's length is fixed by its arguments, not by how fast it went.
pub fn fixed_ops(seconds: u64, nominal_ops_per_s: f64, min: usize) -> usize {
    ((seconds as f64 * nominal_ops_per_s).round() as usize).max(min)
}

/// Set-up wall times of one run; `setup_s` is their median.
///
/// A set-up is the system under test taking in the run's inputs —
/// building the database, loading and recovering the store, starting
/// the servers. Making those inputs (Quest generation, the seeded
/// order) happens once per run, untimed, so that work a change moves
/// into set-up stands out against a small base instead of disappearing
/// into generation time. One set-up takes 20–300 ms, so a run times
/// many, before and after its measured window, and reports their median.
#[derive(Debug, Default)]
pub struct SetupClock(Vec<f64>);

impl SetupClock {
    /// Times the set-ups before the measured window — `reps`, or one
    /// when tracing — and returns the last one's state, which the window
    /// measures.
    ///
    /// # Errors
    ///
    /// The first set-up failure.
    pub fn before<T>(
        &mut self,
        args: &Args,
        reps: usize,
        setup: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<T, String> {
        self.repeat(if args.trace { 1 } else { reps.max(1) }, setup)?
            .ok_or_else(|| "no set-up ran".to_string())
    }

    /// Times `reps` set-ups after the measured window (none when
    /// tracing), so that `setup_s` samples the host at both ends of the
    /// run.
    ///
    /// # Errors
    ///
    /// The first set-up failure.
    pub fn after<T>(
        &mut self,
        args: &Args,
        reps: usize,
        setup: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<(), String> {
        self.repeat(if args.trace { 0 } else { reps }, setup)
            .map(drop)
    }

    /// Records `setup_s`, the median of the set-ups timed so far.
    pub fn finish(self, report: &mut Report) {
        report.set("setup_s", median(&self.0));
        let (lo, hi) = self
            .0
            .iter()
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        report.notes.push(format!(
            "setup_s is the median of {} set-ups ({lo:.3}..{hi:.3} s)",
            self.0.len()
        ));
    }

    /// Runs `setup` `reps` times, tearing each state down before the
    /// next set-up is timed, and returns the last state. `setup` gets a
    /// set-up index unique within the run.
    fn repeat<T>(
        &mut self,
        reps: usize,
        mut setup: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut state = None;
        for _ in 0..reps {
            drop(state.take());
            let rep = self.0.len();
            let start = Instant::now();
            state = Some(setup(rep)?);
            self.0.push(start.elapsed().as_secs_f64());
        }
        Ok(state)
    }
}

/// A single-store engine over `baskets`, built untimed: the oracle the
/// serving workloads check their answers against.
///
/// # Errors
///
/// A failure to load the baskets.
pub fn oracle_engine(baskets: &[Vec<u32>]) -> Result<QueryEngine, String> {
    let store = Arc::new(IncrementalStore::new(BASE_ITEMS, StoreConfig::default()));
    store
        .append_batch(baskets.iter().map(|b| b.iter().copied().map(ItemId)))
        .map_err(|e| format!("oracle load: {e}"))?;
    Ok(QueryEngine::new(store, EngineConfig::default()))
}

/// A working directory for one run's files, under the current directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench_tmp/<name>-<pid>` (emptied first).
    ///
    /// # Errors
    ///
    /// Propagates directory creation failures.
    pub fn new(name: &str) -> Result<WorkDir, String> {
        let path = PathBuf::from(".perfbench_tmp").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `(client, op index, op)` for the layer replay, client-interleaved
/// (`c0[0], c1[0], c0[1], …`) as the clients' requests roughly were.
pub fn layer_replay_order(seqs: &[Vec<Op>]) -> Vec<(usize, usize, &Op)> {
    let longest = seqs.iter().map(Vec::len).max().unwrap_or(0) / LAYER_REPLAY_SHARE;
    (0..longest)
        .flat_map(|i| {
            seqs.iter()
                .enumerate()
                .filter_map(move |(c, ops)| ops.get(i).map(|op| (c, i, op)))
        })
        .collect()
}

/// Median of `ns` values, in µs (0 when empty).
pub fn median_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let us: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e3).collect();
    median(&us)
}

/// Adds the clients' spans of `run` to `tracer` and writes every span
/// to `.perfbench_out/spans_<workload>.tsv` (the latest traced run of
/// each workload is kept). The file is a by-product: failing to write
/// it does not fail the run.
pub fn write_spans(tracer: &mut Tracer, run: Option<&Replay>, workload: &str) {
    for span in run.iter().flat_map(|r| &r.clients).flat_map(|c| &c.spans) {
        tracer.push(span.clone());
    }
    let dir = PathBuf::from(".perfbench_out");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = tracer.write_tsv(&dir.join(format!("spans_{workload}.tsv")));
    }
}
