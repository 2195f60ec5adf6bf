//! The traced run's span recorder.
//!
//! A span covers one call from the benchmark into a layer's public API: its name is
//! `<layer>.<call>`, it records start and end (ns since the run's origin), the span that
//! caused it, and the request (job) it belongs to.  Spans are kept in memory and written out
//! as JSON lines when the run ends.  Hot per-activation boundaries (one daemon choice and one
//! execute per activation) are not spans: the simulator layer aggregates them into counts and
//! summed durations inside one enclosing span, so tracing millions of activations allocates
//! nothing.  Each repetition of a workload's calls is a `bench.pass` span whose children are
//! the layer spans, so a pass's self time is the part no layer span explains.

use std::fmt::Write as _;
use std::time::Instant;

/// Name prefix of the benchmark's own spans (passes), which are not a layer of the program.
pub const BENCH_LAYER: &str = "bench.";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request (job) id the span belongs to (0 = none).
    pub request: u64,
    /// Which client thread recorded it (0 = the main thread).
    pub thread: usize,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: usize,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer::with_origin(Instant::now(), 0)
    }

    /// A tracer for client thread `thread` sharing `origin` with the main tracer, so the
    /// spans of every thread can be merged onto one time line.
    pub fn with_origin(origin: Instant, thread: usize) -> Tracer {
        Tracer {
            origin,
            thread,
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The shared time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Tags the spans recorded from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.timed(name, f).0
    }

    /// [`Tracer::span`], also returning the span's duration in seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
            thread: self.thread,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        (result, span.ns() as f64 / 1e9)
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the spans of another thread's tracer (same origin), re-basing parents.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The share of `[0, wall_ns]` covered by layer spans — every span outside the
    /// benchmark's own [`BENCH_LAYER`] — with overlapping spans (nested, or of concurrent
    /// threads) counted once.
    pub fn coverage(&self, wall_ns: u64) -> f64 {
        let mut layers: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| !s.name.starts_with(BENCH_LAYER))
            .map(|s| (s.start_ns, s.end_ns.min(wall_ns)))
            .collect();
        layers.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (start, end) in layers {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        if wall_ns == 0 {
            0.0
        } else {
            covered as f64 / wall_ns as f64
        }
    }

    /// The spans as JSON lines, each with its self time (its duration minus the part its
    /// children cover).
    pub fn to_jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"request\": {}, \"thread\": {}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.ns().saturating_sub(child_ns[index]),
                span.request,
                span.thread
            );
        }
        out
    }
}

/// The mean cost of one `Instant::now()` read, in ns — subtracted from the per-call timings
/// of the hot activation loop, whose every interval contains exactly one clock read.
pub fn clock_cost_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut last = start;
        for _ in 0..READS {
            last = std::hint::black_box(Instant::now());
        }
        best = best.min((last - start).as_nanos() as f64 / f64::from(READS));
    }
    best
}

/// The mean cost of recording one span around an empty call, in ns.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let mut tracer = Tracer::new();
    let start = Instant::now();
    for _ in 0..SPANS {
        tracer.span("trace.calibrate", |_| ());
    }
    start.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t.x",
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut tracer = Tracer::new();
        tracer.span("a.outer", |t| {
            t.span("b.inner", |_| ());
            t.span("b.inner", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(tracer.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn coverage_unions_layer_spans_and_skips_passes() {
        let mut tracer = Tracer::new();
        let pass = Span {
            name: "bench.pass",
            ..span(0, 100, None)
        };
        tracer.spans = vec![
            pass,
            span(0, 40, Some(0)),
            span(10, 20, Some(1)),
            span(30, 60, Some(0)),
            span(80, 90, None),
        ];
        assert!((tracer.coverage(100) - 0.7).abs() < 1e-12);
        assert_eq!(tracer.coverage(0), 0.0);
    }

    #[test]
    fn merge_rebases_parents() {
        let mut main = Tracer::new();
        main.span("a.x", |_| ());
        let mut other = Tracer::with_origin(main.origin(), 1);
        other.span("a.y", |t| t.span("a.z", |_| ()));
        main.merge(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].thread, 1);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        tracer.spans = vec![span(0, 100, None), span(10, 40, Some(0))];
        let first = tracer.to_jsonl().lines().next().unwrap().to_string();
        assert!(first.contains("\"self_ns\": 70"), "{first}");
    }
}
