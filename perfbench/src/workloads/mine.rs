//! `mine_quest`: the paper's level-wise χ²-support miner, in process,
//! over the Table 5 Quest database. One op is one full mining run.

use std::time::Instant;

use bmb_basket::{BasketDatabase, ItemId};
use bmb_bench::quest::quest_config;
use bmb_core::{mine, LevelProfile, LevelStats, MinerProfile, MiningResult};
use bmb_quest::{generate, QuestParams};

use crate::replay::overhead_pct;
use crate::report::{Report, MINER_LEVELS, MINER_STAGES};
use crate::stats::median;
use crate::sys;
use crate::trace::{Tracer, SETUP_TRACE};
use crate::workloads::{fixed_ops, shuffled_baskets, SetupClock};
use crate::Args;

/// Mining threads. One: with two, every level waits for the slower
/// thread, so a run is as slow as the more contended vCPU of the host.
const THREADS: usize = 1;

/// Nominal mining runs per second; with `--seconds` it fixes the op count.
const NOMINAL_OPS_PER_S: f64 = 1.5;

/// Set-ups timed before the measured window.
const SETUPS_BEFORE: usize = 10;

/// Set-ups timed after the measured window.
const SETUPS_AFTER: usize = 10;

/// The Table 5 database's baskets in a seed-drawn order, and its item
/// count.
///
/// The database itself is the paper's (`QuestParams::paper_table5()`,
/// one fixed seed), so every run mines the same itemsets and the
/// candidate counts are comparable across seeds; the workload seed
/// permutes basket order, which moves every bitmap bit but no count.
fn input(seed: u64, tracer: &mut Tracer) -> (usize, Vec<Vec<u32>>) {
    let db = tracer.time("quest.generate", SETUP_TRACE, None, || {
        generate(&QuestParams::paper_table5())
    });
    (db.n_items(), shuffled_baskets(&db, seed))
}

/// One set-up: the miner's database built from the run's baskets.
fn setup(n_items: usize, baskets: &[Vec<u32>]) -> BasketDatabase {
    let mut db = BasketDatabase::new(n_items);
    for basket in baskets {
        db.push_basket(basket.iter().copied().map(ItemId));
    }
    db
}

/// The per-level counts every run must reproduce.
fn fingerprint(result: &MiningResult) -> (Vec<LevelStats>, usize) {
    (result.levels.clone(), result.significant.len())
}

/// Runs the workload.
///
/// # Errors
///
/// Never fails after set-up; answer mismatches land in the report.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let (n_items, baskets) = input(args.seed, &mut tracer);
    let mut clock = SetupClock::default();
    let db = clock.before(args, SETUPS_BEFORE, |_| Ok(setup(n_items, &baskets)))?;
    let config = quest_config(THREADS);
    let n_ops = fixed_ops(args.seconds, NOMINAL_OPS_PER_S, 2);

    // One untimed run first: page-faults in the index and the worker
    // stacks, and fixes the counts every timed run must reproduce.
    let warm = mine(&db, &config);
    let expected = fingerprint(&warm);
    check_levels(&mut report, &warm);

    let mut op_us = Vec::with_capacity(n_ops);
    let mut profiles = Vec::with_capacity(n_ops);
    let cpu0 = sys::process_cpu_s();
    let jiffies0 = sys::cpu_jiffies();
    let wall = Instant::now();
    for i in 0..n_ops {
        // Traced runs wrap every odd op in a span, the only tracing the
        // benchmark adds here (the stage times come from the miner's own
        // profile in both arms): identical runs with and without it give
        // the overhead estimate.
        let start = Instant::now();
        let result = if args.trace && i % 2 == 1 {
            tracer.time("miner.mine", i as u64 + 1, None, || mine(&db, &config))
        } else {
            mine(&db, &config)
        };
        op_us.push(start.elapsed().as_secs_f64() * 1e6);
        check_levels(&mut report, &result);
        if fingerprint(&result) != expected {
            report.mismatch(format!(
                "mining run {i} disagrees with the first: {:?} vs {:?}",
                fingerprint(&result),
                expected
            ));
        }
        profiles.push(result.profile);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let (cpu_s, cpu_note) = sys::cpu_since(cpu0);
    let steal = sys::steal_pct(jiffies0, sys::cpu_jiffies());

    report.attempted = n_ops as u64;
    let (levels, significant) = &expected;
    report.notes.push(format!(
        "{} candidates, {significant} significant over levels {:?}",
        levels.iter().map(|l| l.candidates).sum::<usize>(),
        levels.iter().map(|l| l.level).collect::<Vec<_>>()
    ));

    if args.trace {
        layer_metrics(&mut report, &profiles, &expected.0, &tracer, &op_us);
        report.set("noise.steal_pct", steal);
        crate::workloads::write_spans(&mut tracer, None, &args.workload);
    } else {
        report.set("ops_per_s", n_ops as f64 / wall_s);
        report.set_op_latency(&op_us);
        for name in ["chi2_p50_us", "batch_p50_us", "ingest_p50_us"] {
            report.set_class_p50(name, None);
        }
        report.set("cpu_us_per_op", cpu_s * 1e6 / n_ops as f64);
        report.notes.push(cpu_note);
        report.set("peak_rss_mb", sys::peak_rss_mb());
        report.notes.push(format!("host steal {steal:.2}%"));
    }
    drop(db);
    clock.after(args, SETUPS_AFTER, |_| Ok(setup(n_items, &baskets)))?;
    clock.finish(&mut report);
    Ok(report)
}

fn check_levels(report: &mut Report, result: &MiningResult) {
    for level in &result.levels {
        if !level.is_consistent() {
            report.mismatch(format!("inconsistent level stats {level:?}"));
        }
    }
}

/// A stage's time in one level's profile; `stage` is one of
/// [`MINER_STAGES`].
fn stage_us(level: &LevelProfile, stage: &str) -> u64 {
    match stage {
        "count" => level.count_us,
        "evaluate" => level.evaluate_us,
        "emit" => level.emit_us,
        "candgen" => level.candgen_us,
        _ => 0,
    }
}

/// Per-stage medians across the timed runs, from `MiningResult.profile`,
/// and the counts of `levels`.
fn layer_metrics(
    report: &mut Report,
    profiles: &[MinerProfile],
    levels: &[LevelStats],
    tracer: &Tracer,
    op_us: &[f64],
) {
    let med = |f: &dyn Fn(&MinerProfile) -> u64| -> f64 {
        median(&profiles.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    report.set("miner.index_build_us", med(&|p| p.index_build_us));
    for level in MINER_LEVELS {
        for stage in MINER_STAGES {
            report.set(
                &format!("miner.L{level}.{stage}_us"),
                med(&|p| {
                    p.levels
                        .iter()
                        .find(|l| l.level == level)
                        .map_or(0, |l| stage_us(l, stage))
                }),
            );
        }
    }
    let unreported: Vec<usize> = levels
        .iter()
        .map(|l| l.level)
        .filter(|level| !MINER_LEVELS.contains(level))
        .collect();
    if !unreported.is_empty() {
        report.notes.push(format!(
            "levels {unreported:?} were mined but have no per-stage metrics"
        ));
    }
    // The reported stages' share of each run, so a stage the metrics
    // miss shows as a falling share.
    let shares: Vec<f64> = profiles
        .iter()
        .zip(op_us)
        .map(|(p, &us)| {
            let reported = p.index_build_us
                + p.levels
                    .iter()
                    .filter(|l| MINER_LEVELS.contains(&l.level))
                    .map(LevelProfile::total_us)
                    .sum::<u64>();
            100.0 * reported as f64 / us
        })
        .collect();
    report.notes.push(format!(
        "reported miner stages cover {:.1}% of a mining run (median over runs); the rest is \
         initial pair generation ({:.0} us) and result assembly",
        median(&shares),
        med(&|p| p.initial_pairs_us)
    ));
    let sum = |f: fn(&LevelStats) -> usize| levels.iter().map(f).sum::<usize>() as f64;
    let candidates = sum(|l| l.candidates);
    report.set("miner.candidates", candidates);
    report.set("miner.discards", sum(|l| l.discards));
    report.set("miner.significant", sum(|l| l.significant));
    report.set(
        "miner.significant_per_candidate",
        sum(|l| l.significant) / candidates.max(1.0),
    );
    report.set(
        "quest.generate_us",
        tracer.median_duration_us("quest.generate"),
    );
    // Each traced (odd) run against the untraced run before it.
    let ratios: Vec<f64> = op_us
        .chunks_exact(2)
        .map(|pair| overhead_pct(pair[1], pair[0]))
        .collect();
    report.set("trace.overhead_pct", median(&ratios));
}
