//! In-memory spans recorded by the benchmark around calls into the
//! system's public functions.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), an optional parent span and the id of the request
//! (trace) it belongs to. Spans are only pushed to a `Vec` while the
//! workload runs; [`Tracer::write_tsv`] writes them out afterwards.
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover (children may overlap, e.g. parallel shard
//! round trips, so the covered part is the union of their intervals).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Trace id of the spans recorded while a workload is set up (request
/// trace ids count up from 0).
pub const SETUP_TRACE: u64 = u64::MAX;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `engine.table`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub trace: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log with a common time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Whether spans are recorded; a tracer that is off runs the same
    /// code paths without recording, for the untraced side of the
    /// tracing-overhead comparison.
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            on: true,
        }
    }

    /// A tracer that records nothing: [`Tracer::time`] only runs its
    /// closure, and [`Tracer::begin`], [`Tracer::end`] and
    /// [`Tracer::push`] do nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The tracer's time origin, for spans timed on other threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, trace: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId::MAX;
        }
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: 0,
        })
    }

    /// Closes `id` now.
    pub fn end(&mut self, id: SpanId) {
        if self.on {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Records `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let id = self.begin(name, trace, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Appends an already timed span (e.g. measured on another thread).
    pub fn push(&mut self, span: Span) -> SpanId {
        if !self.on {
            return SpanId::MAX;
        }
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration of the spans named `name`, µs (0 when none).
    pub fn median_duration_us(&self, name: &str) -> f64 {
        let us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        if us.is_empty() {
            0.0
        } else {
            crate::stats::median(&us)
        }
    }

    /// Writes the spans as tab-separated lines:
    /// `id trace parent name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\ttrace\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}\t{own}",
                span.trace, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let (lo, hi) = (span.start_ns, span.end_ns.max(span.start_ns));
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = lo;
            for &(start, end) in kids.iter() {
                let start = start.clamp(cursor, hi);
                let end = end.clamp(start, hi);
                covered += end - start;
                cursor = cursor.max(end);
            }
            (hi - lo) - covered
        })
        .collect()
}

/// Per span name, the self time each trace spent in that name (summed
/// over the trace's spans of that name), in ns. Traces without such a
/// span contribute nothing to its list.
pub fn self_time_per_trace(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let self_ns = self_times(spans);
    let mut per: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        *per.entry((span.name, span.trace)).or_default() += own;
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for ((name, _), total) in per {
        out.entry(name).or_default().push(total);
    }
    out
}
