//! `serve_durable`: one `Server` with an `EngineService` over a
//! directory-mode `DurableStore` (sync-before-ack), read by one client
//! while its own ingests advance the epoch.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bmb_basket::{DurabilityConfig, DurableStore, FsDir, ItemId, Itemset, StoreConfig};
use bmb_core::{Chi2Answer, EngineConfig, QueryEngine};
use bmb_serve::json::Value;
use bmb_serve::protocol::{chi2_value, ok_response};
use bmb_serve::server::RunningServer;
use bmb_serve::{parse_request, Client, Request, Server, ServerConfig, ServerMetrics};

use crate::check::{chi2_entries, result_of, same_chi2};
use crate::replay::{overhead_pct, replay, reply_ok, report_replay, trace_id, warm_up, Replay};
use crate::report::Report;
use crate::seq::{sequence, Op, SERVE_MIX};
use crate::stats::{median, residual};
use crate::sys;
use crate::trace::{self_time_per_trace, SpanId, Tracer, SETUP_TRACE};
use crate::workloads::{
    base_baskets, fixed_ops, layer_replay_order, median_us, oracle_engine, SetupClock, WorkDir,
    BASE_BASKETS, BASE_ITEMS, CLIENTS, WARM_UP_SHARE,
};
use crate::Args;

/// Nominal requests per second across both clients.
const NOMINAL_OPS_PER_S: f64 = 1100.0;

/// Baskets per bulk-load batch during set-up.
const LOAD_BATCH: usize = 4096;

/// The checkpoint is cut after this share of the base, so recovery
/// loads a snapshot *and* replays a WAL tail.
const CHECKPOINT_AT: usize = BASE_BASKETS * 3 / 4;

/// Every `CHECK_EVERY`-th query reply is checked against the oracle.
const CHECK_EVERY: usize = 4;

/// `ping` round trips behind `serve.transport_us`.
const PINGS: usize = 2_000;

/// Set-ups timed before the measured window.
const SETUPS_BEFORE: usize = 5;

/// Set-ups timed after the measured window.
const SETUPS_AFTER: usize = 5;

/// A running durable server and what its set-up measured.
struct Node {
    durable: Arc<DurableStore>,
    engine: Arc<QueryEngine>,
    metrics: Arc<ServerMetrics>,
    running: Option<RunningServer>,
    addr: String,
    /// Baskets recovery replayed from the WAL tail.
    replayed: u64,
    /// The store's directory, removed with the node.
    dir: PathBuf,
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(running) = self.running.take() {
            let _ = running.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn open(dir: &Path) -> Result<(DurableStore, bmb_basket::RecoveryReport), String> {
    let fs = FsDir::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    DurableStore::open_dir(
        Box::new(fs),
        BASE_ITEMS,
        StoreConfig::default(),
        DurabilityConfig::default(),
    )
    .map_err(|e| format!("open durable store: {e}"))
}

fn append(store: &DurableStore, baskets: &[Vec<u32>]) -> Result<u64, String> {
    store
        .append_batch(baskets.iter().map(|b| b.iter().copied().map(ItemId)))
        .map_err(|e| format!("append: {e}"))
}

/// Bulk-loads `base` through the WAL with a checkpoint at 3/4, reopens
/// (recovery), and starts the server.
fn setup(base: &[Vec<u32>], dir: PathBuf, tracer: &mut Tracer) -> Result<Node, String> {
    {
        let (store, _) = open(&dir)?;
        for chunk in base[..CHECKPOINT_AT].chunks(LOAD_BATCH) {
            append(&store, chunk)?;
        }
        tracer
            .time("durable.checkpoint", SETUP_TRACE, None, || {
                store.checkpoint()
            })
            .map_err(|e| format!("checkpoint: {e}"))?;
        for chunk in base[CHECKPOINT_AT..].chunks(LOAD_BATCH) {
            append(&store, chunk)?;
        }
    }
    let (durable, recovery) = tracer.time("durable.recover", SETUP_TRACE, None, || open(&dir))?;
    let durable = Arc::new(durable);
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(durable.store()),
        EngineConfig::default(),
    ));
    let server = Server::bind(Arc::clone(&engine), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?
        .with_durable_store(Arc::clone(&durable));
    let addr = server.local_addr().to_string();
    let metrics = server.metrics();
    Ok(Node {
        durable,
        engine,
        metrics,
        running: Some(server.spawn()),
        addr,
        replayed: recovery.baskets_recovered,
        dir,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up or connection failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let work = WorkDir::new("serve_durable")?;
    let store_dir = |rep: usize| work.path().join(format!("store{rep}"));
    let base = tracer.time("quest.generate", SETUP_TRACE, None, || {
        base_baskets(args.seed)
    });
    let mut clock = SetupClock::default();
    let node = clock.before(args, SETUPS_BEFORE, |rep| {
        setup(&base, store_dir(rep), &mut tracer)
    })?;
    let items: Vec<u32> = (0..BASE_ITEMS as u32).collect();
    let per_client = fixed_ops(args.seconds, NOMINAL_OPS_PER_S, 200) / CLIENTS;
    let seqs: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| sequence(args.seed, c, per_client, &SERVE_MIX, &items, &base))
        .collect();
    // The warm-up draws from the stream of the next client index.
    let warm = sequence(
        args.seed,
        CLIENTS,
        per_client / WARM_UP_SHARE,
        &SERVE_MIX.read_only(),
        &items,
        &[],
    );
    warm_up(&node.addr, &warm)?;

    let cache0 = node.engine.cache_stats();
    let run = replay(&node.addr, &seqs, args.trace.then(|| tracer.origin()))?;
    let cache1 = node.engine.cache_stats();
    report_replay(&mut report, &run, &seqs);
    check_answers(&mut report, &run, &seqs, &base)?;

    if args.trace {
        let hits = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let rate = |h: f64, m: f64| if h + m > 0.0 { h / (h + m) } else { 0.0 };
        report.set(
            "engine.table_hit_rate",
            rate(
                hits(cache1.table_hits, cache0.table_hits),
                hits(cache1.table_misses, cache0.table_misses),
            ),
        );
        report.set(
            "engine.segment_hit_rate",
            rate(
                hits(cache1.segment_hits, cache0.segment_hits),
                hits(cache1.segment_misses, cache0.segment_misses),
            ),
        );
        report.set(
            "engine.segment_evictions",
            hits(cache1.segment_evictions, cache0.segment_evictions),
        );
        report.set(
            "store.sealed_segments",
            node.engine.snapshot().sealed_segments().len() as f64,
        );
        let server = node.metrics.snapshot();
        report.set("serve.failed", server.errors as f64);
        report.set("serve.overloaded", server.overload_errors as f64);
        report.set("noise.steal_pct", run.steal_pct);
        in_process_layers(&mut report, &mut tracer, &node, &warm, &seqs);
        transport(&mut report, &node)?;
        setup_layers(&mut report, &tracer);
        report.set("durable.replayed_baskets", node.replayed as f64);
        crate::workloads::write_spans(&mut tracer, Some(&run), &args.workload);
    } else {
        report.set("peak_rss_mb", sys::peak_rss_mb());
        report
            .notes
            .push(format!("host steal {:.2}%", run.steal_pct));
    }
    drop(node);
    clock.after(args, SETUPS_AFTER, |rep| {
        setup(&base, store_dir(rep), &mut Tracer::off())
    })?;
    clock.finish(&mut report);
    Ok(report)
}

/// Every reply must be ok; ingest epochs must tile the history; a
/// sample of χ² answers must match an oracle engine at their epoch.
///
/// # Errors
///
/// A failure to build the oracle.
fn check_answers(
    report: &mut Report,
    run: &Replay,
    seqs: &[Vec<Op>],
    base: &[Vec<u32>],
) -> Result<(), String> {
    // (epoch after the batch, baskets) for every acknowledged ingest.
    let mut ingests: BTreeMap<u64, &Vec<Vec<u32>>> = BTreeMap::new();
    // epoch -> answers to check at it.
    let mut samples: BTreeMap<u64, Vec<Value>> = BTreeMap::new();
    for (log, ops) in run.clients.iter().zip(seqs) {
        for (i, (reply, op)) in log.replies.iter().zip(ops).enumerate() {
            let Some(Ok(result)) = reply.as_deref().map(result_of) else {
                continue; // counted as failed
            };
            match op {
                Op::Ingest(baskets) => match result.get("epoch").and_then(Value::as_u64) {
                    Some(epoch) => {
                        ingests.insert(epoch, baskets);
                    }
                    None => report.mismatch(format!("ingest reply without epoch: {result}")),
                },
                _ if i % CHECK_EVERY == 0 => {
                    for (epoch, entry) in chi2_entries(&result) {
                        samples.entry(epoch).or_default().push(entry);
                    }
                }
                _ => {}
            }
        }
    }
    let mut expect = BASE_BASKETS as u64;
    for (&epoch, baskets) in &ingests {
        expect += baskets.len() as u64;
        if epoch != expect {
            report.mismatch(format!(
                "ingest epochs do not tile: {epoch} where {expect} was due"
            ));
            return Ok(());
        }
    }

    let oracle = oracle_engine(base)?;
    let store = oracle.store();
    let mut pending = ingests.values();
    let mut checked = 0usize;
    for (&epoch, entries) in &samples {
        while store.epoch() < epoch {
            match pending.next() {
                Some(batch) => {
                    let appended =
                        store.append_batch(batch.iter().map(|b| b.iter().copied().map(ItemId)));
                    if let Err(e) = appended {
                        report.mismatch(format!("oracle ingest: {e}"));
                        return Ok(());
                    }
                }
                None => break,
            }
        }
        if store.epoch() != epoch {
            report.mismatch(format!(
                "answer pinned to epoch {epoch}, which no ingest produced"
            ));
            continue;
        }
        let snap = oracle.snapshot();
        for entry in entries {
            let ids = crate::check::itemset_ids(entry).unwrap_or_default();
            match oracle.chi2(&snap, &Itemset::from_ids(ids)) {
                Ok(answer) => {
                    if let Err(e) = same_chi2(entry, &answer) {
                        report.mismatch(e);
                    }
                }
                Err(e) => report.mismatch(format!("oracle refused {entry}: {e}")),
            }
            checked += 1;
        }
    }
    report.notes.push(format!(
        "checked {checked} chi2 answers against the oracle at {} epochs; {} ingests tiled",
        samples.len(),
        ingests.len()
    ));
    Ok(())
}

/// Replays the same ops in process, in client-interleaved order, with
/// a span around each call into a layer.
///
/// Every query runs twice, on two fresh engines over the same store,
/// each first given the `warm` reads untimed (so their caches start as
/// the server's engine's did when the TCP replay began): once traced
/// and once with the tracer off, alternating which goes
/// first. Both engines see the same ops in the same order, so their
/// caches agree, and the ratio of the two medians is the tracing
/// overhead. Ingests run once, traced: a second append would change
/// the data.
fn in_process_layers(
    report: &mut Report,
    tracer: &mut Tracer,
    node: &Node,
    warm: &[Op],
    seqs: &[Vec<Op>],
) {
    let fresh = || QueryEngine::new(Arc::clone(node.durable.store()), EngineConfig::default());
    let (traced_engine, plain_engine) = (fresh(), fresh());
    let mut off = Tracer::off();
    for (i, op) in warm.iter().enumerate() {
        let line = op.request_line(i as u64);
        for engine in [&traced_engine, &plain_engine] {
            if let (_, Err(e)) = run_op(&mut off, engine, &node.durable, &line, 0) {
                report.mismatch(format!("in-process warm-up {line}: {e}"));
            }
        }
    }
    let (mut traced_ns, mut plain_ns) = (Vec::new(), Vec::new());
    let mut ingested = 0u64;
    let mut write_bytes = 0u64;
    for (k, (c, i, op)) in layer_replay_order(seqs).into_iter().enumerate() {
        let trace = trace_id(c, i);
        let line = op.request_line(i as u64);
        let mut outcomes = Vec::with_capacity(2);
        if let Op::Ingest(baskets) = op {
            let before = sys::write_bytes();
            let (_, outcome) = run_op(tracer, &traced_engine, &node.durable, &line, trace);
            write_bytes += sys::write_bytes().saturating_sub(before);
            ingested += baskets.len() as u64;
            outcomes.push(outcome);
        } else {
            for traced in [k % 2 == 0, k % 2 == 1] {
                if traced {
                    let (ns, outcome) = run_op(tracer, &traced_engine, &node.durable, &line, trace);
                    traced_ns.push(ns as f64);
                    outcomes.push(outcome);
                } else {
                    let (ns, outcome) =
                        run_op(&mut off, &plain_engine, &node.durable, &line, trace);
                    plain_ns.push(ns as f64);
                    outcomes.push(outcome);
                }
            }
        }
        for outcome in outcomes {
            if let Err(e) = outcome {
                report.mismatch(format!("in-process replay of {line}: {e}"));
            }
        }
    }
    report.set(
        "trace.overhead_pct",
        overhead_pct(median(&traced_ns), median(&plain_ns)),
    );
    report.notes.push(format!(
        "trace.overhead_pct over {} queries run traced and untraced in process",
        traced_ns.len()
    ));
    let per_trace = self_time_per_trace(tracer.spans());
    for (metric, span) in [
        ("serve.decode_us", "serve.decode"),
        ("serve.encode_us", "serve.encode"),
        ("engine.snapshot_us", "engine.snapshot"),
        ("engine.table_us", "engine.table"),
        ("stats.chi2_test_us", "stats.chi2_test"),
        ("wal.append_us", "wal.append"),
    ] {
        report.set(metric, per_trace.get(span).map_or(0.0, |ns| median_us(ns)));
    }
    report.set(
        "wal.write_bytes_per_basket",
        write_bytes as f64 / ingested.max(1) as f64,
    );
}

/// `serve.transport_us`: [`PINGS`] `ping` round trips over a connection
/// of their own, against the same request decoded, executed and encoded
/// in process; the difference of the medians, never negative. A ping's
/// execution is trivial, so what is left is the transport — socket
/// writes and reads, wake-ups, framing. (Subtracting a χ² query's
/// in-process time from its round trip leaves a few µs inside the noise
/// of two 200 µs timings.)
///
/// # Errors
///
/// A connection failure.
fn transport(report: &mut Report, node: &Node) -> Result<(), String> {
    let mut conn = Client::connect(&node.addr).map_err(|e| format!("connect: {e}"))?;
    let mut off = Tracer::off();
    let (mut rtt_ns, mut local_ns) = (Vec::with_capacity(PINGS), Vec::with_capacity(PINGS));
    for i in 0..PINGS {
        let line = format!(r#"{{"id":{i},"cmd":"ping"}}"#);
        let start = Instant::now();
        let reply = conn.request_line(&line).map_err(|e| format!("ping: {e}"))?;
        rtt_ns.push(start.elapsed().as_nanos() as f64);
        if !reply_ok(&reply) {
            report.mismatch(format!("ping failed: {reply}"));
        }
        let (ns, outcome) = run_op(&mut off, &node.engine, &node.durable, &line, 0);
        local_ns.push(ns as f64);
        if let Err(e) = outcome {
            report.mismatch(format!("in-process ping: {e}"));
        }
    }
    report.set(
        "serve.transport_us",
        residual(median(&rtt_ns), median(&local_ns)) / 1e3,
    );
    report
        .notes
        .push(format!("serve.transport_us over {PINGS} ping round trips"));
    Ok(())
}

/// One request through [`execute`] inside an `op` span, and its wall
/// time in ns, span recording included.
fn run_op(
    tracer: &mut Tracer,
    engine: &QueryEngine,
    durable: &DurableStore,
    line: &str,
    trace: u64,
) -> (u64, Result<(), String>) {
    let start = Instant::now();
    let root = tracer.begin("op", trace, None);
    let outcome = execute(tracer, engine, durable, line, trace, root);
    tracer.end(root);
    (start.elapsed().as_nanos() as u64, outcome)
}

/// One request through the public layers the server's dispatch uses:
/// decode, snapshot, table, χ² test, encode — or the durable append.
fn execute(
    tracer: &mut Tracer,
    engine: &QueryEngine,
    durable: &DurableStore,
    line: &str,
    trace: u64,
    root: SpanId,
) -> Result<(), String> {
    let envelope = tracer.time("serve.decode", trace, Some(root), || parse_request(line))?;
    let payload = match envelope.request {
        Request::Chi2 { items } => {
            let snap = tracer.time("engine.snapshot", trace, Some(root), || engine.snapshot());
            let answer = chi2(tracer, engine, &snap, Itemset::from_ids(items), trace, root)?;
            tracer.time("serve.encode", trace, Some(root), || chi2_value(&answer))
        }
        Request::Chi2Batch { itemsets } => {
            let snap = tracer.time("engine.snapshot", trace, Some(root), || engine.snapshot());
            let mut answers = Vec::with_capacity(itemsets.len());
            for items in itemsets {
                answers.push(chi2(
                    tracer,
                    engine,
                    &snap,
                    Itemset::from_ids(items),
                    trace,
                    root,
                )?);
            }
            tracer.time("serve.encode", trace, Some(root), || {
                Value::object()
                    .with("epoch", Value::Int(snap.epoch() as i64))
                    .with(
                        "results",
                        Value::Array(answers.iter().map(chi2_value).collect()),
                    )
            })
        }
        Request::Ingest { baskets } => {
            let n = baskets.len() as i64;
            let epoch = tracer
                .time("wal.append", trace, Some(root), || {
                    durable.append_batch(
                        baskets
                            .into_iter()
                            .map(|b| b.into_iter().map(ItemId).collect::<Vec<_>>()),
                    )
                })
                .map_err(|e| e.to_string())?;
            Value::object()
                .with("ingested", Value::Int(n))
                .with("epoch", Value::Int(epoch as i64))
        }
        Request::Ping => Value::object().with("pong", Value::Bool(true)),
        other => return Err(format!("unexpected request {}", other.name())),
    };
    let text = tracer.time("serve.encode", trace, Some(root), || {
        ok_response(envelope.id).with("result", payload).to_string()
    });
    std::hint::black_box(text);
    Ok(())
}

fn chi2(
    tracer: &mut Tracer,
    engine: &QueryEngine,
    snap: &bmb_basket::Snapshot,
    set: Itemset,
    trace: u64,
    root: SpanId,
) -> Result<Chi2Answer, String> {
    let table = tracer
        .time("engine.table", trace, Some(root), || {
            engine.table(snap, &set)
        })
        .map_err(|e| e.to_string())?;
    let outcome = tracer.time("stats.chi2_test", trace, Some(root), || {
        engine.test().test_dense(&table)
    });
    let full_cell = (1u32 << set.len()) - 1;
    Ok(Chi2Answer {
        epoch: snap.epoch(),
        support: table.observed(full_cell),
        outcome,
        itemset: set,
    })
}

/// Durability layers timed during set-up.
fn setup_layers(report: &mut Report, tracer: &Tracer) {
    report.set(
        "quest.generate_us",
        tracer.median_duration_us("quest.generate"),
    );
    report.set(
        "durable.checkpoint_us",
        tracer.median_duration_us("durable.checkpoint"),
    );
    report.set(
        "durable.recover_us",
        tracer.median_duration_us("durable.recover"),
    );
}
