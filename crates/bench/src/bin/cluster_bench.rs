//! Cluster loadgen: the same read mix against a 1-shard and a 4-shard
//! in-process cluster, with a machine-readable report.
//!
//! Each configuration spins N shard servers plus a coordinator, ingests
//! a seeded Quest workload through the coordinator (so the partitioner
//! routes it), then replays a chi2 / batched-chi2 / topk mix from
//! several client connections. Per-configuration throughput and the
//! coordinator's latency percentiles land in `BENCH_<rev>.json`
//! (`<rev>` is the short git revision, `dev` outside a checkout) — a
//! comparison artifact, not a CI gate.
//!
//! Usage: `cluster_bench [--clients N] [--requests N] [--seed N]
//! [--out PATH]`

use std::sync::Arc;
use std::time::Instant;

use bmb_cluster::{CoordinatorConfig, CoordinatorService};
use bmb_core::{EngineConfig, QueryEngine};
use bmb_serve::json::{parse, Value};
use bmb_serve::server::RunningServer;
use bmb_serve::{Client, Server, ServerConfig, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_ITEMS: usize = 32;

/// One client's request: mostly point chi2 lookups, some batches and
/// top-k sweeps — the coordinator scatters every one of them.
fn request_line(rng: &mut StdRng, id: i64) -> String {
    match rng.gen_range(0..10u32) {
        0..=5 => {
            let a = rng.gen_range(0..N_ITEMS as u32);
            let b = (a + 1 + rng.gen_range(0..(N_ITEMS as u32 - 1))) % N_ITEMS as u32;
            format!(r#"{{"id":{id},"cmd":"chi2","items":[{a},{b}]}}"#)
        }
        6..=8 => {
            let sets: Vec<String> = (0..4)
                .map(|_| format!("[{}]", rng.gen_range(0..N_ITEMS as u32)))
                .collect();
            format!(
                r#"{{"id":{id},"cmd":"chi2_batch","itemsets":[{}]}}"#,
                sets.join(",")
            )
        }
        _ => format!(r#"{{"id":{id},"cmd":"topk","k":5}}"#),
    }
}

/// Boots `n_shards` plain in-memory shard servers plus a coordinator.
fn boot_cluster(n_shards: usize) -> (Vec<RunningServer>, RunningServer, String) {
    let mut shards = Vec::with_capacity(n_shards);
    let mut addrs = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let store = Arc::new(bmb_basket::IncrementalStore::new(
            N_ITEMS,
            bmb_basket::StoreConfig::default(),
        ));
        let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
        let server = Server::bind(engine, ServerConfig::default()).expect("bind shard");
        addrs.push(server.local_addr().to_string());
        shards.push(server.spawn());
    }
    let config = CoordinatorConfig::new(N_ITEMS, addrs);
    let service = Arc::new(CoordinatorService::new(config)) as Arc<dyn Service>;
    let server = Server::bind_service(service, ServerConfig::default()).expect("bind coordinator");
    let addr = server.local_addr().to_string();
    (shards, server.spawn(), addr)
}

/// Runs the read mix against one cluster size; returns the report row.
fn run_once(n_shards: usize, clients: usize, requests: usize, seed: u64) -> Value {
    let (shards, coordinator, addr) = boot_cluster(n_shards);

    // Seeded ingest through the coordinator, 100 baskets per line.
    let quest = bmb_quest::generate(&bmb_quest::QuestParams {
        n_transactions: 2000,
        n_items: N_ITEMS,
        avg_transaction_len: 5.0,
        n_patterns: 50,
        seed,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("ingest connect");
    for chunk in quest.baskets().collect::<Vec<_>>().chunks(100) {
        let baskets: Vec<String> = chunk
            .iter()
            .map(|b| {
                let ids: Vec<String> = b.iter().map(|i| i.0.to_string()).collect();
                format!("[{}]", ids.join(","))
            })
            .collect();
        client
            .request_line(&format!(
                r#"{{"cmd":"ingest","baskets":[{}]}}"#,
                baskets.join(",")
            ))
            .expect("ingest");
    }

    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((c as u64) << 32));
                    let mut client = Client::connect(addr).expect("client connect");
                    let mut ok = 0u64;
                    for r in 0..requests {
                        let line = request_line(&mut rng, r as i64);
                        let response = client.request_line(&line).expect("request");
                        let value = parse(&response).expect("response JSON");
                        assert_eq!(
                            value.get("ok").and_then(Value::as_bool),
                            Some(true),
                            "request failed: {response}"
                        );
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).sum()
    });
    let elapsed = start.elapsed();

    let mut client = Client::connect(&addr).expect("stats connect");
    let stats = client
        .request(&parse(r#"{"cmd":"stats"}"#).expect("literal"))
        .expect("stats");
    let p50 = stats.get("p50_us").and_then(Value::as_i64).unwrap_or(0);
    let p99 = stats.get("p99_us").and_then(Value::as_i64).unwrap_or(0);

    coordinator.stop().expect("stop coordinator");
    for shard in shards {
        shard.stop().expect("stop shard");
    }

    let rps = total as f64 / elapsed.as_secs_f64();
    println!(
        "{n_shards} shard(s): {total} requests over {elapsed:?} \
         ({rps:.0} req/s, p50 {p50}us, p99 {p99}us)"
    );
    Value::object()
        .with("shards", Value::Int(n_shards as i64))
        .with("clients", Value::Int(clients as i64))
        .with("requests", Value::Int(total as i64))
        .with("elapsed_us", Value::Int(elapsed.as_micros() as i64))
        .with("req_per_sec", Value::float(rps))
        .with("p50_us", Value::Int(p50))
        .with("p99_us", Value::Int(p99))
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

fn main() {
    let mut clients = 4usize;
    let mut requests = 250usize;
    let mut seed = 0xC1u64;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match flag.as_str() {
            "--clients" => clients = take("--clients").parse().expect("--clients"),
            "--requests" => requests = take("--requests").parse().expect("--requests"),
            "--seed" => seed = take("--seed").parse().expect("--seed"),
            "--out" => out_path = Some(take("--out")),
            other => panic!("unknown flag {other}"),
        }
    }

    let runs: Vec<Value> = [1usize, 4]
        .iter()
        .map(|&n| run_once(n, clients, requests, seed))
        .collect();
    let rev = short_rev();
    let report = Value::object()
        .with("bench", Value::Str("cluster_serve".to_string()))
        .with("rev", Value::Str(rev.clone()))
        .with("seed", Value::Int(seed as i64))
        .with("runs", Value::Array(runs));
    let path = out_path.unwrap_or_else(|| format!("BENCH_{rev}.json"));
    std::fs::write(&path, format!("{report}\n")).expect("write report");
    println!("wrote {path}");
}
