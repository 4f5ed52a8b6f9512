//! The metric sets and the result line.
//!
//! Every workload reports every end-to-end metric (untraced run) or
//! every per-layer metric (traced run), so a metric name means the
//! same thing on every row. The README in this directory says what
//! each one measures on each workload.

use std::collections::BTreeMap;

use crate::stats::{resolved_tail_quantile, windowed_p99, Summary, TAIL_MIN_BEYOND};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("op_p99_us", "us"),
    ("chi2_p50_us", "us"),
    ("batch_p50_us", "us"),
    ("ingest_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Miner levels with per-stage metrics: the levels the fixed Table 5
/// database mines (at any thread count).
pub const MINER_LEVELS: std::ops::RangeInclusive<usize> = 2..=4;

/// Miner stages reported per level.
pub const MINER_STAGES: [&str; 4] = ["count", "evaluate", "emit", "candgen"];

/// Per-layer metrics: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("miner.index_build_us", "us");
    for level in MINER_LEVELS {
        for stage in MINER_STAGES {
            add(&format!("miner.L{level}.{stage}_us"), "us");
        }
    }
    add("miner.candidates", "count");
    add("miner.discards", "count");
    add("miner.significant", "count");
    add("miner.significant_per_candidate", "ratio");
    add("quest.generate_us", "us");
    add("engine.snapshot_us", "us");
    add("engine.table_us", "us");
    add("stats.chi2_test_us", "us");
    add("engine.table_hit_rate", "ratio");
    add("engine.segment_hit_rate", "ratio");
    add("engine.segment_evictions", "count");
    add("store.sealed_segments", "count");
    add("serve.decode_us", "us");
    add("serve.encode_us", "us");
    add("serve.transport_us", "us");
    add("serve.failed", "count");
    add("serve.overloaded", "count");
    add("wal.append_us", "us");
    add("wal.write_bytes_per_basket", "B/basket");
    add("durable.checkpoint_us", "us");
    add("durable.recover_us", "us");
    add("durable.replayed_baskets", "count");
    add("cluster.shard_rtt_us", "us");
    add("cluster.scatter_us", "us");
    add("cluster.shard_skew", "ratio");
    add("cluster.merge_us", "us");
    add("cluster.evaluate_us", "us");
    add("cluster.coord_overhead_us", "us");
    add("cluster.scatters_per_request", "ratio");
    add("noise.steal_pct", "%");
    add("trace.overhead_pct", "%");
    out
}

/// A run's outcome: metric values, answer checks and op counts.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Ops attempted in the measured part of the run.
    pub attempted: u64,
    /// Ops that failed (error reply or transport failure).
    pub failed: u64,
    /// Answer-check mismatches; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Human-readable context printed beside the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Sets `op_p50_us`, `op_p90_us` and `op_p99_us` from op latencies
    /// in completion order, noting the sample count behind the tail.
    pub fn set_op_latency(&mut self, in_order: &[f64]) {
        let Some(all) = Summary::of(in_order) else {
            return;
        };
        self.set("op_p50_us", all.p50);
        // Below 100 samples the p90 is the third-slowest of a few dozen
        // and moves with any one slow op: report the resolved tail.
        let p90 = all.p90.unwrap_or(all.tail);
        self.set("op_p90_us", p90);
        if all.p90.is_none() {
            self.notes.push(format!(
                "p90 withheld (<100 samples), op_p90_us reports p{:.1}",
                100.0 * resolved_tail_quantile(all.n)
            ));
        }
        let (p99, how) = match windowed_p99(in_order) {
            Some((p99, windows)) => (
                p99,
                format!(
                    "op_p99_us is the median p99 of {windows} windows of {} ops",
                    all.n / windows
                ),
            ),
            None => (
                all.tail,
                format!(
                    "p99 withheld (<1000 samples), op_p99_us reports p{:.1}, the highest \
                     percentile with {TAIL_MIN_BEYOND} samples beyond it",
                    100.0 * resolved_tail_quantile(all.n)
                ),
            ),
        };
        self.set("op_p99_us", p99);
        self.notes
            .push(format!("op latency over n={} samples; {how}", all.n));
    }

    /// Sets a per-class median. A workload without the class reports
    /// `op_p50_us` (set first), so every metric is defined on every row.
    pub fn set_class_p50(&mut self, name: &str, p50: Option<f64>) {
        let value = match p50 {
            Some(value) => value,
            None => {
                self.notes
                    .push(format!("{name}: no such ops; reports op_p50_us"));
                self.get("op_p50_us").unwrap_or(0.0)
            }
        };
        self.set(name, value);
    }

    /// Records an answer-check mismatch (the first few are kept verbatim).
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        } else if self.mismatches.len() == 20 {
            self.mismatches
                .push("(further mismatches omitted)".to_string());
        }
    }

    /// Whether every answer checked out and every op succeeded.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// The result line over `metrics` (`(name, unit)` pairs). Unset
    /// metrics read 0 (a layer the workload does not use did no work).
    pub fn json_line<S: AsRef<str>>(&self, metrics: &[(S, &str)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name.as_ref()).unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    name.as_ref(),
                    json_number(value),
                    unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }

    /// A fixed-width table of `metrics`, one per line.
    pub fn table<S: AsRef<str>>(&self, metrics: &[(S, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in metrics {
            let value = self.get(name.as_ref()).unwrap_or(0.0);
            out.push_str(&format!(
                "  {:<34} {:>16.3} {}\n",
                name.as_ref(),
                value,
                unit
            ));
        }
        out
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') {
        text
    } else {
        format!("{text}.0")
    }
}
