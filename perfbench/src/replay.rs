//! Closed-loop TCP replay: one connection per client, each sending its
//! next request only after the previous reply arrived.

use std::sync::Barrier;
use std::time::Instant;

use bmb_serve::Client;

use crate::seq::{Op, OpClass};
use crate::stats::Summary;
use crate::sys;
use crate::trace::Span;

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Round-trip time of each op, ns (index = op index).
    pub rtt_ns: Vec<u64>,
    /// Completion time of each op, ns since the replay began.
    pub done_ns: Vec<u64>,
    /// Raw reply line of each op; `None` on a transport failure.
    pub replies: Vec<Option<String>>,
    /// Client spans (traced runs only).
    pub spans: Vec<Span>,
}

/// The outcome of one replay.
#[derive(Debug)]
pub struct Replay {
    /// Per-client logs, in client order.
    pub clients: Vec<ClientLog>,
    /// Wall time from the common start to the last reply, s.
    pub wall_s: f64,
    /// Process CPU time over the same window, s.
    pub cpu_s: f64,
    /// How that CPU time split between user and system time.
    pub cpu_note: String,
    /// Host steal share over the same window, %.
    pub steal_pct: f64,
}

/// Trace id of op `index` of client `client`.
pub fn trace_id(client: usize, index: usize) -> u64 {
    ((client as u64) << 32) | index as u64
}

/// Replays `seqs[c]` from client `c`, all clients starting together.
/// With a trace origin, every op is recorded as a `client.request` span
/// timed from that origin (pushed after the reply, outside the timed
/// round trip).
///
/// # Errors
///
/// Fails when a client cannot connect.
pub fn replay(addr: &str, seqs: &[Vec<Op>], trace: Option<Instant>) -> Result<Replay, String> {
    let mut conns = Vec::with_capacity(seqs.len());
    for _ in seqs {
        conns.push(Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    let barrier = Barrier::new(seqs.len() + 1);
    let began = Instant::now();
    let (clients, (wall_s, (cpu_s, cpu_note), steal_pct)) = std::thread::scope(|scope| {
        let handles: Vec<_> = seqs
            .iter()
            .zip(conns)
            .enumerate()
            .map(|(c, (ops, mut conn))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let lines: Vec<String> = ops
                        .iter()
                        .enumerate()
                        .map(|(i, op)| op.request_line(i as u64))
                        .collect();
                    let mut log = ClientLog {
                        rtt_ns: Vec::with_capacity(ops.len()),
                        done_ns: Vec::with_capacity(ops.len()),
                        replies: Vec::with_capacity(ops.len()),
                        spans: Vec::new(),
                    };
                    barrier.wait();
                    for (i, line) in lines.iter().enumerate() {
                        let start = Instant::now();
                        let reply = conn.request_line(line).ok();
                        let end = Instant::now();
                        log.rtt_ns.push((end - start).as_nanos() as u64);
                        log.done_ns.push((end - began).as_nanos() as u64);
                        log.replies.push(reply);
                        if let Some(origin) = trace {
                            log.spans.push(Span {
                                name: "client.request",
                                trace: trace_id(c, i),
                                parent: None,
                                start_ns: (start - origin).as_nanos() as u64,
                                end_ns: (end - origin).as_nanos() as u64,
                            });
                        }
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let cpu0 = sys::process_cpu_s();
        let jiffies0 = sys::cpu_jiffies();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        let window = (
            start.elapsed().as_secs_f64(),
            sys::cpu_since(cpu0),
            sys::steal_pct(jiffies0, sys::cpu_jiffies()),
        );
        (logs, window)
    });
    Ok(Replay {
        clients,
        wall_s,
        cpu_s,
        cpu_note,
        steal_pct,
    })
}

/// Sends `ops` over one connection, untimed, before the measured
/// replay, so that timing starts on warm server threads, caches and
/// pages. The ops must be reads: the replay then sees the same data.
///
/// # Errors
///
/// A connection failure, an `ingest` op, or a reply that is not ok.
pub fn warm_up(addr: &str, ops: &[Op]) -> Result<(), String> {
    let mut conn = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for (i, op) in ops.iter().enumerate() {
        if op.class() == OpClass::Ingest {
            return Err(format!("warm-up op {i} is an ingest"));
        }
        let reply = conn
            .request_line(&op.request_line(i as u64))
            .map_err(|e| format!("warm-up op {i}: {e}"))?;
        if !reply_ok(&reply) {
            return Err(format!("warm-up op {i} failed: {reply}"));
        }
    }
    Ok(())
}

impl Replay {
    /// Ops sent.
    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.replies.len() as u64).sum()
    }

    /// Ops whose reply was missing or not `"ok":true`.
    pub fn failed(&self) -> u64 {
        self.clients
            .iter()
            .flat_map(|c| &c.replies)
            .filter(|r| !r.as_deref().is_some_and(reply_ok))
            .count() as u64
    }

    /// Round-trip times in µs of every op, or of one class only.
    pub fn rtts_us(&self, seqs: &[Vec<Op>], class: Option<OpClass>) -> Vec<f64> {
        self.clients
            .iter()
            .zip(seqs)
            .flat_map(|(log, ops)| log.rtt_ns.iter().zip(ops))
            .filter(|(_, op)| class.is_none_or(|c| op.class() == c))
            .map(|(&ns, _)| ns as f64 / 1e3)
            .collect()
    }
}

/// `traced / untraced - 1`, in percent; 0 when undefined.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 && traced.is_finite() {
        100.0 * (traced / untraced - 1.0)
    } else {
        0.0
    }
}

/// Whether a reply line reports success.
pub fn reply_ok(line: &str) -> bool {
    line.contains(r#""ok":true"#)
}

/// Fills the shared end-to-end metrics of a TCP replay.
pub fn report_replay(report: &mut crate::report::Report, replay: &Replay, seqs: &[Vec<Op>]) {
    let ops = replay.attempted() as f64;
    report.attempted = replay.attempted();
    report.failed = replay.failed();
    report.set("ops_per_s", ops / replay.wall_s.max(1e-9));
    report.set("cpu_us_per_op", replay.cpu_s * 1e6 / ops.max(1.0));
    report.notes.push(replay.cpu_note.clone());
    // In completion order, so each p99 window is a stretch of the run.
    let mut timeline: Vec<(u64, f64)> = replay
        .clients
        .iter()
        .flat_map(|c| {
            c.done_ns
                .iter()
                .copied()
                .zip(c.rtt_ns.iter().map(|&ns| ns as f64 / 1e3))
        })
        .collect();
    timeline.sort_by_key(|&(done, _)| done);
    let in_order: Vec<f64> = timeline.into_iter().map(|(_, rtt)| rtt).collect();
    report.set_op_latency(&in_order);
    for (name, class) in [
        ("chi2_p50_us", OpClass::Chi2),
        ("batch_p50_us", OpClass::Batch),
        ("ingest_p50_us", OpClass::Ingest),
    ] {
        let p50 = Summary::of(&replay.rtts_us(seqs, Some(class))).map(|s| s.p50);
        report.set_class_p50(name, p50);
    }
}
