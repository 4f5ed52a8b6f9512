//! The committed perf trajectory: one fixed, bounded suite whose
//! timings land in `BENCH_<rev>.json` at the repo root, so every
//! revision's numbers are diffable in-repo.
//!
//! Five runs cover the stack end to end: Quest mining (the paper's
//! Table 5 workload at reduced scale), text-corpus mining to level 3,
//! the standalone server under a census query mix with a concurrent
//! writer, a 2-shard scatter-gather cluster under the same kind of mix,
//! and WAL+checkpoint crash recovery. All workloads are seeded, so
//! run-to-run variance is scheduling noise, not workload noise.
//!
//! With `--compare-dir DIR` the suite scans DIR for previously
//! committed `BENCH_*.json` files (other revisions only) and fails —
//! exit 1 — if any run regressed past the noise gate: slower than
//! `NOISE_FACTOR ×` the best committed time for that run *and* slower
//! by at least `MIN_DELTA_US` absolute. The gate is deliberately loose
//! (shared CI runners breathe); its job is catching order-of-magnitude
//! cliffs, not 10% drifts.
//!
//! Usage: `bench_suite [--out PATH] [--compare-dir DIR] [--seed N]`

use std::sync::Arc;
use std::time::Instant;

use bmb_core::{mine, EngineConfig, MinerConfig, QueryEngine, SupportSpec};
use bmb_serve::json::{parse, Value};
use bmb_serve::server::RunningServer;
use bmb_serve::{Client, Server, ServerConfig, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A run is a regression when it is slower than this factor times the
/// best committed baseline. CI machines are noisy; only cliffs fail.
const NOISE_FACTOR: u64 = 3;

/// ...and the absolute slowdown must also clear this floor: the suite's
/// runs are tens of milliseconds, where a scheduling hiccup can triple
/// a number without any code being slower. Both conditions must hold.
const MIN_DELTA_US: u64 = 250_000;

/// Fixed thread count for the mining runs, so the suite measures the
/// same parallelism on every machine.
const MINE_THREADS: usize = 2;

fn run_quest_mine(seed: u64) -> Value {
    // A scaled-down cousin of the Table 5 workload: the same shape
    // (Zipf item skew, planted patterns), sized so the run finishes in
    // about a second — a perf canary, not a fidelity experiment.
    let params = bmb_quest::QuestParams {
        n_transactions: 10_000,
        n_items: 300,
        avg_transaction_len: 10.0,
        avg_pattern_len: 4.0,
        n_patterns: 60,
        item_zipf_exponent: 1.1,
        seed,
        ..bmb_quest::QuestParams::default()
    };
    let config = MinerConfig {
        support: SupportSpec::Fraction(0.02),
        support_fraction: 0.4,
        low_expectation_cutoff: Some(1.0),
        max_level: 4,
        threads: MINE_THREADS,
        ..MinerConfig::default()
    };
    let db = bmb_quest::generate(&params);
    let start = Instant::now();
    let result = mine(&db, &config);
    let elapsed = start.elapsed();
    let candidates: u64 = result.levels.iter().map(|l| l.candidates as u64).sum();
    Value::object()
        .with("name", Value::Str("quest_mine".to_string()))
        .with("elapsed_us", Value::Int(elapsed.as_micros() as i64))
        .with("baskets", Value::Int(db.len() as i64))
        .with("candidates", Value::Int(candidates as i64))
        .with("significant", Value::Int(result.significant.len() as i64))
}

fn run_corpus_level3() -> Value {
    // A reduced corpus (fewer, shorter documents over a smaller
    // vocabulary) mined to level 3 with a harder support floor: the
    // full Table 4 corpus explodes into millions of level-3 candidates
    // and belongs in `repro_all`, not a per-revision canary.
    let db = bmb_datasets::text::generate(&bmb_datasets::text::TextParams {
        n_documents: 60,
        min_tokens: 80,
        max_tokens: 200,
        vocabulary: 1_500,
        ..bmb_datasets::text::TextParams::default()
    });
    let config = MinerConfig {
        support: SupportSpec::Count(12),
        support_fraction: 0.5,
        low_expectation_cutoff: Some(1.0),
        max_level: 3,
        threads: MINE_THREADS,
        ..MinerConfig::default()
    };
    let start = Instant::now();
    let result = mine(&db, &config);
    let elapsed = start.elapsed();
    Value::object()
        .with("name", Value::Str("corpus_level3".to_string()))
        .with("elapsed_us", Value::Int(elapsed.as_micros() as i64))
        .with("words", Value::Int(db.n_items() as i64))
        .with("significant", Value::Int(result.significant.len() as i64))
}

/// The standalone-server mix: point chi2 lookups (hot and uniform),
/// batches, and top-k, shared by the serve and cluster runs.
fn request_line(rng: &mut StdRng, n_items: usize, id: i64) -> String {
    match rng.gen_range(0..10u32) {
        0..=4 => {
            let a = rng.gen_range(0..n_items as u32);
            let b = rng.gen_range(0..n_items as u32);
            if a == b {
                format!(r#"{{"id":{id},"cmd":"chi2","items":[{a}]}}"#)
            } else {
                format!(r#"{{"id":{id},"cmd":"chi2","items":[{a},{b}]}}"#)
            }
        }
        5..=7 => {
            let sets: Vec<String> = (0..4)
                .map(|_| format!("[{}]", rng.gen_range(0..n_items as u32)))
                .collect();
            format!(
                r#"{{"id":{id},"cmd":"chi2_batch","itemsets":[{}]}}"#,
                sets.join(",")
            )
        }
        _ => format!(r#"{{"id":{id},"cmd":"topk","k":5}}"#),
    }
}

/// Replays the mix from `clients` connections, returning (requests, secs).
fn drive_mix(addr: &str, n_items: usize, clients: usize, requests: usize, seed: u64) -> (u64, f64) {
    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.to_string();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((c as u64) << 32));
                    let mut client = Client::connect(addr).expect("client connect");
                    for r in 0..requests {
                        let line = request_line(&mut rng, n_items, r as i64);
                        client.request_line(&line).expect("request");
                    }
                    requests as u64
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).sum()
    });
    (total, start.elapsed().as_secs_f64())
}

fn run_serve_loadgen(seed: u64) -> Value {
    let db = bmb_datasets::generate_census();
    let n_items = db.n_items();
    let store = Arc::new(bmb_basket::IncrementalStore::from_database(
        &db,
        bmb_basket::StoreConfig::default(),
    ));
    let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
    let server = Server::bind(engine, ServerConfig::default()).expect("bind server");
    let addr = server.local_addr().to_string();
    let running = server.spawn();
    let (total, secs) = drive_mix(&addr, n_items, 2, 200, seed);
    running.stop().expect("stop server");
    Value::object()
        .with("name", Value::Str("serve_loadgen".to_string()))
        .with("elapsed_us", Value::Int((secs * 1e6) as i64))
        .with("requests", Value::Int(total as i64))
        .with("req_per_sec", Value::float(total as f64 / secs))
}

fn run_cluster_bench(seed: u64) -> Value {
    const N_ITEMS: usize = 32;
    let mut shards: Vec<RunningServer> = Vec::new();
    let mut shard_addrs = Vec::new();
    for _ in 0..2 {
        let store = Arc::new(bmb_basket::IncrementalStore::new(
            N_ITEMS,
            bmb_basket::StoreConfig::default(),
        ));
        let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
        let server = Server::bind(engine, ServerConfig::default()).expect("bind shard");
        shard_addrs.push(server.local_addr().to_string());
        shards.push(server.spawn());
    }
    let coordinator = Arc::new(bmb_cluster::CoordinatorService::new(
        bmb_cluster::CoordinatorConfig::new(N_ITEMS, shard_addrs),
    )) as Arc<dyn Service>;
    let server =
        Server::bind_service(coordinator, ServerConfig::default()).expect("bind coordinator");
    let addr = server.local_addr().to_string();
    let running = server.spawn();

    // Seed through the coordinator so the partitioner routes baskets.
    let quest = bmb_quest::generate(&bmb_quest::QuestParams {
        n_transactions: 1_000,
        n_items: N_ITEMS,
        avg_transaction_len: 4.0,
        n_patterns: 30,
        seed,
        ..bmb_quest::QuestParams::default()
    });
    let mut client = Client::connect(&addr).expect("ingest connect");
    for chunk in quest.baskets().collect::<Vec<_>>().chunks(100) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|b| {
                let ids: Vec<String> = b.iter().map(|i| i.0.to_string()).collect();
                format!("[{}]", ids.join(","))
            })
            .collect();
        client
            .request_line(&format!(
                r#"{{"cmd":"ingest","baskets":[{}]}}"#,
                rows.join(",")
            ))
            .expect("ingest");
    }

    let (total, secs) = drive_mix(&addr, N_ITEMS, 2, 150, seed);
    running.stop().expect("stop coordinator");
    for shard in shards {
        shard.stop().expect("stop shard");
    }
    Value::object()
        .with("name", Value::Str("cluster_bench".to_string()))
        .with("elapsed_us", Value::Int((secs * 1e6) as i64))
        .with("requests", Value::Int(total as i64))
        .with("req_per_sec", Value::float(total as f64 / secs))
}

fn run_recovery_bench(seed: u64) -> Value {
    const N_ITEMS: usize = 32;
    let mut dir = std::env::temp_dir();
    dir.push(format!("bmb_bench_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create recovery dir");

    let quest = bmb_quest::generate(&bmb_quest::QuestParams {
        n_transactions: 4_000,
        n_items: N_ITEMS,
        avg_transaction_len: 5.0,
        n_patterns: 30,
        seed,
        ..bmb_quest::QuestParams::default()
    });
    let baskets: Vec<Vec<bmb_basket::ItemId>> = quest.baskets().map(|b| b.to_vec()).collect();

    let open = || {
        bmb_basket::DurableStore::open_dir(
            Box::new(bmb_basket::FsDir::open(&dir).expect("open dir")),
            N_ITEMS,
            bmb_basket::StoreConfig::default(),
            bmb_basket::DurabilityConfig::default(),
        )
        .expect("open durable store")
    };
    let (store, _) = open();
    for chunk in baskets.chunks(200) {
        store.append_batch(chunk.to_vec()).expect("append");
    }
    // Checkpoint halfway through history is the interesting recovery
    // shape: a snapshot load plus a WAL tail replay.
    store.checkpoint().expect("checkpoint");
    for chunk in baskets.chunks(200) {
        store.append_batch(chunk.to_vec()).expect("append tail");
    }
    drop(store);

    let start = Instant::now();
    let (recovered, report) = open();
    let elapsed = start.elapsed();
    let epoch = recovered.epoch();
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    Value::object()
        .with("name", Value::Str("recovery_bench".to_string()))
        .with("elapsed_us", Value::Int(elapsed.as_micros() as i64))
        .with("epoch", Value::Int(epoch as i64))
        .with(
            "replayed_baskets",
            Value::Int(report.baskets_recovered as i64),
        )
}

/// The short git revision, or `dev` when git is unavailable.
fn short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "dev".to_string())
}

/// Best (smallest) committed `elapsed_us` per run name across every
/// `BENCH_*.json` suite report in `dir` from other revisions.
fn committed_baselines(
    dir: &std::path::Path,
    current_rev: &str,
) -> std::collections::BTreeMap<String, (String, u64)> {
    let mut best: std::collections::BTreeMap<String, (String, u64)> =
        std::collections::BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return best;
    };
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        let Ok(report) = parse(&text) else {
            continue;
        };
        if report.get("bench").and_then(Value::as_str) != Some("suite") {
            continue;
        }
        let rev = report
            .get("rev")
            .and_then(Value::as_str)
            .unwrap_or("dev")
            .to_string();
        if rev == current_rev {
            continue;
        }
        let Some(runs) = report.get("runs").and_then(Value::as_array) else {
            continue;
        };
        for run in runs {
            let (Some(run_name), Some(elapsed)) = (
                run.get("name").and_then(Value::as_str),
                run.get("elapsed_us").and_then(Value::as_u64),
            ) else {
                continue;
            };
            let slot = best
                .entry(run_name.to_string())
                .or_insert_with(|| (rev.clone(), elapsed));
            if elapsed < slot.1 {
                *slot = (rev.clone(), elapsed);
            }
        }
    }
    best
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut compare_dir: Option<String> = None;
    let mut seed = 0xBE7Cu64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match flag.as_str() {
            "--out" => out_path = Some(take("--out")),
            "--compare-dir" => compare_dir = Some(take("--compare-dir")),
            "--seed" => seed = take("--seed").parse().expect("--seed"),
            other => panic!("unknown flag {other}"),
        }
    }

    let runs = vec![
        run_quest_mine(seed),
        run_corpus_level3(),
        run_serve_loadgen(seed),
        run_cluster_bench(seed),
        run_recovery_bench(seed),
    ];
    for run in &runs {
        let name = run.get("name").and_then(Value::as_str).unwrap_or("?");
        let elapsed = run.get("elapsed_us").and_then(Value::as_u64).unwrap_or(0);
        println!("{name}: {elapsed}us");
    }

    let rev = short_rev();
    let report = Value::object()
        .with("bench", Value::Str("suite".to_string()))
        .with("rev", Value::Str(rev.clone()))
        .with("seed", Value::Int(seed as i64))
        .with("noise_factor", Value::Int(NOISE_FACTOR as i64))
        .with("runs", Value::Array(runs.clone()));
    let path = out_path.unwrap_or_else(|| format!("BENCH_{rev}.json"));
    std::fs::write(&path, format!("{report}\n")).expect("write report");
    println!("wrote {path}");

    let Some(compare_dir) = compare_dir else {
        return;
    };
    let baselines = committed_baselines(std::path::Path::new(&compare_dir), &rev);
    if baselines.is_empty() {
        println!("no committed baseline in {compare_dir}; nothing to gate");
        return;
    }
    let mut regressions = Vec::new();
    for run in &runs {
        let name = run.get("name").and_then(Value::as_str).unwrap_or("?");
        let elapsed = run.get("elapsed_us").and_then(Value::as_u64).unwrap_or(0);
        let Some((base_rev, base)) = baselines.get(name) else {
            println!("{name}: no baseline (new run)");
            continue;
        };
        let gate = base
            .saturating_mul(NOISE_FACTOR)
            .max(base.saturating_add(MIN_DELTA_US));
        let verdict = if elapsed > gate { "REGRESSED" } else { "ok" };
        println!(
            "{name}: {elapsed}us vs best {base}us ({base_rev}), \
             gate {gate}us -> {verdict}"
        );
        if elapsed > gate {
            regressions.push(name.to_string());
        }
    }
    if !regressions.is_empty() {
        eprintln!(
            "perf regression past the {NOISE_FACTOR}x noise gate: {}",
            regressions.join(", ")
        );
        std::process::exit(1);
    }
}
