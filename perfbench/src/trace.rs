//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start and an end, the span that caused it, and the
//! id of the request (or training run) it belongs to. Spans are kept in
//! memory while the benchmark runs and written out as JSON lines when it
//! ends. A span's self time is its duration minus the part of it that its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span, in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Id shared by every span of one request.
    pub request: u64,
    /// Layer boundary name, such as `core.hidden_linear`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

/// An open span; [`Tracer::end`] records it.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: Instant,
}

impl OpenSpan {
    /// This span's id, to pass as the parent of its children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Add `n` to the counter `name`, recorded at a layer boundary.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("a traced thread panicked")
            .entry(name)
            .or_default() += n;
    }

    /// The counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("a traced thread panicked")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// A fresh id for a request or run; spans of one request share it.
    pub fn request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span now.
    pub fn start(&self, name: &'static str, request: u64, parent: Option<&OpenSpan>) -> OpenSpan {
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(OpenSpan::id),
            request,
            name,
            start: Instant::now(),
        }
    }

    /// Close `span` now and keep it.
    pub fn end(&self, span: OpenSpan) {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let finished = Span {
            id: span.id,
            parent: span.parent,
            request: span.request,
            name: span.name,
            start_ns: ns(span.start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("a traced thread panicked")
            .push(finished);
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<&OpenSpan>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.start(name, request, parent);
        let out = f();
        self.end(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a traced thread panicked").clone()
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("a traced thread panicked")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span name: `(count, total duration, total self time)` in
    /// nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(parent) = s.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.duration_ns();
            entry.2 += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}
