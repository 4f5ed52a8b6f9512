//! `cluster_scatter`: a `CoordinatorService` behind a `Server`, over two
//! in-memory shard servers, read by one client over the hot items.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bmb_basket::{IncrementalStore, ItemId, Itemset, StoreConfig};
use bmb_cluster::{CoordinatorConfig, CoordinatorService};
use bmb_core::{
    merge_support_vectors, subset_itemsets, table_from_subset_supports, Chi2Answer, EngineConfig,
    QueryEngine,
};
use bmb_serve::json::Value;
use bmb_serve::server::RunningServer;
use bmb_serve::{Client, Server, ServerConfig, Service};
use bmb_stats::{Chi2Outcome, Chi2Test};

use crate::check::{chi2_entries, itemset_ids, result_of, same_chi2};
use crate::replay::{overhead_pct, replay, report_replay, trace_id, warm_up, Replay};
use crate::report::Report;
use crate::seq::{sequence, Op, CLUSTER_MIX};
use crate::stats::{median, residual};
use crate::sys;
use crate::trace::{self_time_per_trace, Span, Tracer, SETUP_TRACE};
use crate::workloads::{
    base_baskets, fixed_ops, layer_replay_order, median_us, oracle_engine, SetupClock,
    BASE_BASKETS, BASE_ITEMS, CLIENTS, WARM_UP_SHARE,
};
use crate::Args;

/// Shard servers.
const SHARDS: usize = 2;

/// Queries draw from this many most frequent items.
const HOT_ITEMS: usize = 32;

/// Nominal requests per second across both clients.
const NOMINAL_OPS_PER_S: f64 = 2000.0;

/// Baskets per in-process load batch.
const LOAD_BATCH: usize = 4096;

/// Set-ups timed before the measured window.
const SETUPS_BEFORE: usize = 16;

/// Set-ups timed after the measured window.
const SETUPS_AFTER: usize = 16;

/// The coordinator, its shards, and the servers in front of them.
struct Cluster {
    coordinator: Arc<CoordinatorService>,
    addr: String,
    shard_addrs: Vec<String>,
    /// Coordinator first, so it stops before the shards it talks to.
    servers: Vec<RunningServer>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for server in self.servers.drain(..) {
            let _ = server.stop();
        }
    }
}

/// Starts the shards, routes `base` to them in process with the
/// coordinator's own partitioner (what its `ingest` would do, without
/// TCP), then starts the coordinator's server.
fn setup(base: &[Vec<u32>]) -> Result<Cluster, String> {
    let mut stores = Vec::with_capacity(SHARDS);
    let mut shard_servers = Vec::with_capacity(SHARDS);
    let mut shard_addrs = Vec::with_capacity(SHARDS);
    for _ in 0..SHARDS {
        let store = Arc::new(IncrementalStore::new(BASE_ITEMS, StoreConfig::default()));
        let engine = Arc::new(QueryEngine::new(
            Arc::clone(&store),
            EngineConfig::default(),
        ));
        let server = Server::bind(engine, ServerConfig::default())
            .map_err(|e| format!("bind shard: {e}"))?;
        shard_addrs.push(server.local_addr().to_string());
        shard_servers.push(server);
        stores.push(store);
    }
    let coordinator = Arc::new(CoordinatorService::new(CoordinatorConfig::new(
        BASE_ITEMS,
        shard_addrs.clone(),
    )));
    let mut routed: Vec<Vec<&Vec<u32>>> = vec![Vec::new(); SHARDS];
    for (id, basket) in base.iter().enumerate() {
        routed[coordinator.partitioner().shard_of(id as u64)].push(basket);
    }
    for (store, baskets) in stores.iter().zip(&routed) {
        for chunk in baskets.chunks(LOAD_BATCH) {
            store
                .append_batch(chunk.iter().map(|b| b.iter().copied().map(ItemId)))
                .map_err(|e| format!("load shard: {e}"))?;
        }
    }
    let front = Server::bind_service(
        Arc::clone(&coordinator) as Arc<dyn Service>,
        ServerConfig::default(),
    )
    .map_err(|e| format!("bind coordinator: {e}"))?;
    let addr = front.local_addr().to_string();
    let mut servers = vec![front.spawn()];
    servers.extend(shard_servers.into_iter().map(Server::spawn));
    Ok(Cluster {
        coordinator,
        addr,
        shard_addrs,
        servers,
    })
}

/// The `HOT_ITEMS` most frequent items (ties to the lower id).
fn hot_items(base: &[Vec<u32>]) -> Vec<u32> {
    let mut counts = vec![0u64; BASE_ITEMS];
    for basket in base {
        for &item in basket {
            counts[item as usize] += 1;
        }
    }
    let mut items: Vec<u32> = (0..BASE_ITEMS as u32).collect();
    items.sort_by_key(|&i| (std::cmp::Reverse(counts[i as usize]), i));
    items.truncate(HOT_ITEMS);
    items.sort_unstable();
    items
}

/// A single-store engine over every base basket: the bit-exact oracle.
struct Oracle {
    engine: QueryEngine,
    answers: HashMap<Vec<u32>, Chi2Answer>,
}

impl Oracle {
    fn new(base: &[Vec<u32>]) -> Result<Oracle, String> {
        Ok(Oracle {
            engine: oracle_engine(base)?,
            answers: HashMap::new(),
        })
    }

    fn answer(&mut self, ids: &[u32]) -> Result<&Chi2Answer, String> {
        if !self.answers.contains_key(ids) {
            let snap = self.engine.snapshot();
            let answer = self
                .engine
                .chi2(&snap, &Itemset::from_ids(ids.iter().copied()))
                .map_err(|e| format!("oracle refused {ids:?}: {e}"))?;
            self.answers.insert(ids.to_vec(), answer);
        }
        self.answers
            .get(ids)
            .ok_or_else(|| "oracle answer vanished".to_string())
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up or connection failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let base = tracer.time("quest.generate", SETUP_TRACE, None, || {
        base_baskets(args.seed)
    });
    let mut clock = SetupClock::default();
    let cluster = clock.before(args, SETUPS_BEFORE, |_| setup(&base))?;
    let mut oracle = Oracle::new(&base)?;
    let hot = hot_items(&base);
    let per_client = fixed_ops(args.seconds, NOMINAL_OPS_PER_S, 200) / CLIENTS;
    let seqs: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| sequence(args.seed, c, per_client, &CLUSTER_MIX, &hot, &[]))
        .collect();
    // The warm-up draws from the stream of the next client index.
    let warm = sequence(
        args.seed,
        CLIENTS,
        per_client / WARM_UP_SHARE,
        &CLUSTER_MIX,
        &hot,
        &[],
    );
    warm_up(&cluster.addr, &warm)?;

    let scatters0 = cluster.coordinator.metrics().scatters.get();
    let run = replay(&cluster.addr, &seqs, args.trace.then(|| tracer.origin()))?;
    let scatters = cluster.coordinator.metrics().scatters.get() - scatters0;
    report_replay(&mut report, &run, &seqs);
    check_answers(&mut report, &run, &mut oracle);

    if args.trace {
        report.set(
            "cluster.scatters_per_request",
            scatters as f64 / run.attempted().max(1) as f64,
        );
        report.set("noise.steal_pct", run.steal_pct);
        own_scatter_layers(&mut report, &mut tracer, &cluster, &seqs, &run, &mut oracle)?;
        report.set(
            "quest.generate_us",
            tracer.median_duration_us("quest.generate"),
        );
        crate::workloads::write_spans(&mut tracer, Some(&run), &args.workload);
    } else {
        report.set("peak_rss_mb", sys::peak_rss_mb());
        report
            .notes
            .push(format!("host steal {:.2}%", run.steal_pct));
    }
    drop(cluster);
    clock.after(args, SETUPS_AFTER, |_| setup(&base))?;
    clock.finish(&mut report);
    Ok(report)
}

/// Every reply must be ok and every χ² answer bit-identical to the
/// single-store oracle over the same baskets.
fn check_answers(report: &mut Report, run: &Replay, oracle: &mut Oracle) {
    let mut checked = 0usize;
    for reply in run.clients.iter().flat_map(|c| &c.replies).flatten() {
        let Ok(result) = result_of(reply) else {
            continue; // counted as failed
        };
        for (epoch, entry) in chi2_entries(&result) {
            if epoch != BASE_BASKETS as u64 {
                report.mismatch(format!("answer at epoch {epoch}, not {BASE_BASKETS}"));
            }
            let ids = itemset_ids(&entry).unwrap_or_default();
            match oracle
                .answer(&ids)
                .and_then(|answer| same_chi2(&entry, answer))
            {
                Ok(()) => checked += 1,
                Err(e) => report.mismatch(e),
            }
        }
    }
    report.notes.push(format!(
        "checked {checked} chi2 answers bit-for-bit against the oracle"
    ));
}

/// One op's scatter as the benchmark performs it: per shard, the
/// round trip's (start, end) in ns since the tracer's origin; per
/// itemset, the merged support and the χ² outcome.
struct Scatter {
    rtts: Vec<(u64, u64)>,
    outcomes: Vec<(u64, Chi2Outcome)>,
}

/// Scatters one op's itemsets: `subset_itemsets`, then one
/// `support_vec` per shard over its own connection (in parallel), then
/// `merge_support_vectors`, then `table_from_subset_supports` + χ²,
/// each inside a span under an `op` root span.
fn scatter_op(
    tracer: &mut Tracer,
    shards: &mut [Client],
    sets: &[Itemset],
    test: &Chi2Test,
    trace: u64,
) -> Result<Scatter, String> {
    let origin = tracer.origin();
    let root = tracer.begin("op", trace, None);
    let subsets: Vec<Vec<ItemId>> = sets.iter().flat_map(subset_itemsets).collect();
    let line = support_vec_line(&subsets);
    let scatter = tracer.begin("cluster.scatter", trace, Some(root));
    let answers: Vec<(u64, u64, Result<Vec<u64>, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .map(|client| {
                let line = &line;
                scope.spawn(move || {
                    let start = Instant::now();
                    let reply = client.request_line(line);
                    let end = Instant::now();
                    let supports = reply
                        .map_err(|e| e.to_string())
                        .and_then(|r| supports_of(&r));
                    (
                        (start - origin).as_nanos() as u64,
                        (end - origin).as_nanos() as u64,
                        supports,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or((0, 0, Err("shard thread panicked".into())))
            })
            .collect()
    });
    tracer.end(scatter);
    let mut vectors = Vec::with_capacity(answers.len());
    let mut rtts = Vec::with_capacity(answers.len());
    for (shard, (start_ns, end_ns, supports)) in answers.into_iter().enumerate() {
        tracer.push(Span {
            name: "cluster.shard_rtt",
            trace,
            parent: Some(scatter),
            start_ns,
            end_ns,
        });
        rtts.push((start_ns, end_ns));
        vectors.push(supports.map_err(|e| format!("shard {shard}: {e}"))?);
    }
    let merged = tracer.time("cluster.merge", trace, Some(root), || {
        let mut acc = vec![0u64; subsets.len()];
        for vector in &vectors {
            merge_support_vectors(&mut acc, vector);
        }
        acc
    });
    let outcomes = tracer.time("cluster.evaluate", trace, Some(root), || {
        let mut offset = 0;
        sets.iter()
            .map(|set| {
                let width = 1usize << set.len();
                let table = table_from_subset_supports(set, &merged[offset..offset + width]);
                offset += width;
                (table.observed(width as u32 - 1), test.test_dense(&table))
            })
            .collect()
    });
    tracer.end(root);
    Ok(Scatter { rtts, outcomes })
}

/// The benchmark's own scatter of a quarter of the ops (see
/// [`scatter_op`]), each checked against the oracle, and the layer
/// metrics it yields.
///
/// Every op is scattered twice, traced and with the tracer off,
/// alternating which goes first; the ratio of the two medians is the
/// tracing overhead.
fn own_scatter_layers(
    report: &mut Report,
    tracer: &mut Tracer,
    cluster: &Cluster,
    seqs: &[Vec<Op>],
    run: &Replay,
    oracle: &mut Oracle,
) -> Result<(), String> {
    let mut shards: Vec<Client> = Vec::with_capacity(SHARDS);
    for addr in &cluster.shard_addrs {
        shards.push(Client::connect(addr).map_err(|e| format!("connect shard {addr}: {e}"))?);
    }
    let test = *oracle.engine.test();
    let mut off = Tracer::off();
    let mut rtts: Vec<u64> = Vec::new();
    let mut critical: HashMap<u64, u64> = HashMap::new();
    let mut skew = Vec::new();
    let (mut traced_ns, mut plain_ns) = (Vec::new(), Vec::new());
    for (k, (c, i, op)) in layer_replay_order(seqs).into_iter().enumerate() {
        let trace = trace_id(c, i);
        let sets: Vec<Itemset> = match op {
            Op::Chi2(items) => vec![Itemset::from_ids(items.iter().copied())],
            Op::Batch(sets) => sets
                .iter()
                .map(|items| Itemset::from_ids(items.iter().copied()))
                .collect(),
            Op::Ingest(_) => return Err("cluster_scatter is read-only".to_string()),
        };
        for traced in [k % 2 == 0, k % 2 == 1] {
            let start = Instant::now();
            let scatter = if traced {
                scatter_op(tracer, &mut shards, &sets, &test, trace)?
            } else {
                scatter_op(&mut off, &mut shards, &sets, &test, trace)?
            };
            let ns = start.elapsed().as_nanos() as f64;
            if traced {
                traced_ns.push(ns);
                let shard_ns: Vec<f64> = scatter
                    .rtts
                    .iter()
                    .map(|&(start, end)| end.saturating_sub(start) as f64)
                    .collect();
                rtts.extend(shard_ns.iter().map(|&ns| ns as u64));
                let max = shard_ns.iter().copied().fold(0.0, f64::max);
                let mean = shard_ns.iter().sum::<f64>() / shard_ns.len().max(1) as f64;
                skew.push(if mean > 0.0 { max / mean } else { 1.0 });
                critical.insert(trace, max as u64);
            } else {
                plain_ns.push(ns);
            }
            for (set, (support, outcome)) in sets.iter().zip(scatter.outcomes) {
                let ids: Vec<u32> = set.items().iter().map(|i| i.0).collect();
                let expected = oracle.answer(&ids)?;
                if support != expected.support
                    || outcome.statistic.to_bits() != expected.outcome.statistic.to_bits()
                {
                    report.mismatch(format!("own scatter of {ids:?} disagrees with the oracle"));
                }
            }
        }
    }
    report.set(
        "trace.overhead_pct",
        overhead_pct(median(&traced_ns), median(&plain_ns)),
    );
    report.notes.push(format!(
        "trace.overhead_pct over {} ops scattered traced and untraced",
        traced_ns.len()
    ));

    let per_trace = self_time_per_trace(tracer.spans());
    report.set("cluster.shard_rtt_us", median_us(&rtts));
    let critical_ns: Vec<u64> = critical.values().copied().collect();
    report.set("cluster.scatter_us", median_us(&critical_ns));
    report.set("cluster.shard_skew", median(&skew));
    for (metric, span) in [
        ("cluster.merge_us", "cluster.merge"),
        ("cluster.evaluate_us", "cluster.evaluate"),
    ] {
        report.set(metric, per_trace.get(span).map_or(0.0, |ns| median_us(ns)));
    }
    // Coordinator round trip of each op minus the scatter + merge +
    // evaluate the benchmark measured for the same op.
    let durations: HashMap<(u64, &str), u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "cluster.merge" || s.name == "cluster.evaluate")
        .map(|s| ((s.trace, s.name), s.duration_ns()))
        .collect();
    let overhead: Vec<f64> = run
        .clients
        .iter()
        .enumerate()
        .flat_map(|(c, log)| {
            let (critical, durations) = (&critical, &durations);
            log.rtt_ns.iter().enumerate().filter_map(move |(i, &rtt)| {
                let trace = trace_id(c, i);
                let parts = critical.get(&trace)?
                    + durations.get(&(trace, "cluster.merge"))?
                    + durations.get(&(trace, "cluster.evaluate"))?;
                Some(residual(rtt as f64, parts as f64) / 1e3)
            })
        })
        .collect();
    report.set("cluster.coord_overhead_us", median(&overhead));
    Ok(())
}

/// A `support_vec` request line for `subsets`.
fn support_vec_line(subsets: &[Vec<ItemId>]) -> String {
    let lists: Vec<String> = subsets
        .iter()
        .map(|set| {
            let ids: Vec<String> = set.iter().map(|i| i.0.to_string()).collect();
            format!("[{}]", ids.join(","))
        })
        .collect();
    format!(
        r#"{{"cmd":"support_vec","itemsets":[{}]}}"#,
        lists.join(",")
    )
}

/// The supports of a `support_vec` reply.
fn supports_of(reply: &str) -> Result<Vec<u64>, String> {
    let result = result_of(reply)?;
    result
        .get("supports")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("support_vec reply without supports: {reply}"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("non-integer support in {reply}"))
        })
        .collect()
}
