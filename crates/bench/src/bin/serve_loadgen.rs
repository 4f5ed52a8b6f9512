//! Load generator for the correlation-query server.
//!
//! Spins an in-process server seeded with the census database (or targets
//! a running one via `--addr HOST:PORT`), then replays a census point-query
//! mix (chi2 / interest / batched chi2 / topk) from several client
//! connections while one writer ingests Quest baskets concurrently — the
//! serving-layer workload DESIGN.md describes. Prints client-side
//! throughput and the server's own `/stats` counters at the end.
//!
//! Usage: `serve_loadgen [--addr HOST:PORT] [--clients N] [--requests N]
//! [--seed N]`

use std::sync::Arc;
use std::time::Instant;

use bmb_core::{EngineConfig, QueryEngine};
use bmb_serve::json::{parse, Value};
use bmb_serve::{Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One client's share of the mix: census item pairs the paper highlights
/// plus uniformly drawn pairs/triples.
fn request_line(rng: &mut StdRng, n_items: usize, id: i64) -> String {
    match rng.gen_range(0..10u32) {
        // Hot set: repeated point lookups that should hit the table cache.
        0..=3 => format!(r#"{{"id":{id},"cmd":"chi2","items":[2,7]}}"#),
        4..=5 => {
            let a = rng.gen_range(0..n_items as u32);
            let b = rng.gen_range(0..n_items as u32);
            if a == b {
                format!(r#"{{"id":{id},"cmd":"chi2","items":[{a}]}}"#)
            } else {
                format!(r#"{{"id":{id},"cmd":"chi2","items":[{a},{b}]}}"#)
            }
        }
        6 => {
            let a = rng.gen_range(0..n_items as u32);
            format!(r#"{{"id":{id},"cmd":"interest","items":[{a}],"cell":1}}"#)
        }
        7..=8 => {
            // Batched lookups: several itemsets against one snapshot.
            let sets: Vec<String> = (0..4)
                .map(|_| {
                    let a = rng.gen_range(0..n_items as u32);
                    format!("[{a}]")
                })
                .collect();
            format!(
                r#"{{"id":{id},"cmd":"chi2_batch","itemsets":[{}]}}"#,
                sets.join(",")
            )
        }
        _ => format!(r#"{{"id":{id},"cmd":"topk","k":5}}"#),
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut clients = 4usize;
    let mut requests = 250usize;
    let mut seed = 0x10adu64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = Some(take("--addr")),
            "--clients" => clients = take("--clients").parse().expect("--clients"),
            "--requests" => requests = take("--requests").parse().expect("--requests"),
            "--seed" => seed = take("--seed").parse().expect("--seed"),
            other => panic!("unknown flag {other}"),
        }
    }

    // In-process server over the census data unless an address was given.
    let running = if addr.is_none() {
        let db = bmb_datasets::generate_census();
        println!(
            "seeding in-process server: census, {} baskets x {} items",
            db.len(),
            db.n_items()
        );
        let store = Arc::new(bmb_basket::IncrementalStore::from_database(
            &db,
            bmb_basket::StoreConfig::default(),
        ));
        let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
        let server = Server::bind(engine, ServerConfig::default()).expect("bind");
        let running = server.spawn();
        addr = Some(running.addr.to_string());
        Some(running)
    } else {
        None
    };
    let addr = addr.expect("resolved above");
    let n_items = 10usize; // census item space

    // One writer ingests Quest baskets (trimmed to the item space) while
    // the query mix runs: the ingest-vs-query scenario.
    let quest = bmb_quest::generate(&bmb_quest::QuestParams {
        n_transactions: 2000,
        n_items,
        avg_transaction_len: 4.0,
        n_patterns: 50,
        seed,
        ..Default::default()
    });
    let ingest_lines: Vec<String> = quest
        .baskets()
        .collect::<Vec<_>>()
        .chunks(100)
        .map(|chunk| {
            let baskets: Vec<String> = chunk
                .iter()
                .map(|b| {
                    let ids: Vec<String> = b.iter().map(|i| i.0.to_string()).collect();
                    format!("[{}]", ids.join(","))
                })
                .collect();
            format!(r#"{{"cmd":"ingest","baskets":[{}]}}"#, baskets.join(","))
        })
        .collect();

    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let writer = {
            let addr = addr.clone();
            let lines = &ingest_lines;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("writer connect");
                for line in lines {
                    client.request_line(line).expect("ingest");
                }
                lines.len() as u64
            })
        };
        let readers: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (c as u64) << 32);
                    let mut client = Client::connect(addr).expect("client connect");
                    let mut ok = 0u64;
                    for r in 0..requests {
                        let line = request_line(&mut rng, n_items, r as i64);
                        let response = client.request_line(&line).expect("request");
                        let value = parse(&response).expect("response JSON");
                        if value.get("ok").and_then(Value::as_bool) == Some(true) {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        let mut total = writer.join().expect("writer");
        for reader in readers {
            total += reader.join().expect("reader");
        }
        total
    });
    let elapsed = start.elapsed();

    let mut client = Client::connect(&addr).expect("stats connect");
    let stats = client
        .request(&parse(r#"{"cmd":"stats"}"#).expect("literal"))
        .expect("stats");
    println!(
        "{total} requests over {elapsed:?} ({:.0} req/s client-side)",
        total as f64 / elapsed.as_secs_f64()
    );
    for key in [
        "requests",
        "errors",
        "ingested_baskets",
        "epoch",
        "ingest_lag",
        "table_hit_rate",
        "p50_us",
        "p99_us",
    ] {
        if let Some(v) = stats.get(key) {
            println!("  {key}: {v}");
        }
    }
    if let Some(running) = running {
        running.stop().expect("shutdown");
    }
}
