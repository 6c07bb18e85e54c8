//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are recorded
//! from the benchmark's own files only, kept in memory, and written out
//! once when the run ends. A layer's time is its spans' **self time**:
//! the span's duration minus the part of it that child spans cover.
//!
//! With tracing off every recording call is a single branch, so the
//! untraced run (which produces the end-to-end metrics) pays nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside one [`Tracer`]; [`NO_SPAN`] means "no parent".
pub type SpanId = u32;

/// The parent of a root span, and what [`Tracer::begin`] returns when
/// tracing is off.
pub const NO_SPAN: SpanId = u32::MAX;

/// Request id of spans that belong to no single request.
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

/// Count, total and self time of every span sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations in seconds.
    pub total_s: f64,
    /// Sum of self times in seconds.
    pub self_s: f64,
}

/// A span recorder. One per thread; worker recorders are merged into the
/// main one with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`. With `on == false` it
    /// records nothing.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock and switch.
    pub fn worker(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    /// Turns recording on or off (the traced run measures its own
    /// overhead by running one phase both ways).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that lasts until the matching [`Tracer::end`]; spans
    /// opened in between become its children.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            request: NO_REQUEST,
        });
        self.open.push(id);
        id
    }

    /// Closes the span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close in LIFO order");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span from two instants the caller already took
    /// (the request loops time every call anyway, so tracing adds no
    /// clock reads). Its parent is the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            request,
        });
    }

    /// Times `f`, recording it as a span when tracing is on, and returns
    /// its result with the elapsed seconds (the metrics need the time
    /// whether or not the run is traced).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, NO_REQUEST, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Merges a worker thread's spans in; its root spans become children
    /// of `parent`.
    pub fn absorb(&mut self, worker: Tracer, parent: SpanId) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(worker.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_SPAN {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span in nanoseconds: duration minus the union
    /// of its children's intervals (children of one span may overlap when
    /// they ran on different threads, so their durations are not summed).
    fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals over every recorded span.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
            t.self_s += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON array (`id` is the array index;
    /// `parent`/`request` are `null` when absent; times are microseconds
    /// since the run's origin).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u64, none: u64| {
            if v == none {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                opt(u64::from(s.parent), u64::from(NO_SPAN)),
                opt(s.request, NO_REQUEST),
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer plus a helper that records spans at fixed offsets.
    fn at(
        tr: &mut Tracer,
        name: &'static str,
        parent: SpanId,
        start_us: u64,
        end_us: u64,
    ) -> SpanId {
        let id = tr.spans.len() as SpanId;
        tr.spans.push(Span {
            name,
            start_ns: start_us * 1000,
            end_ns: end_us * 1000,
            parent,
            request: NO_REQUEST,
        });
        id
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut tr = Tracer::new(true, Instant::now());
        let root = at(&mut tr, "root", NO_SPAN, 0, 100);
        let a = at(&mut tr, "kid", root, 10, 30);
        at(&mut tr, "grandkid", a, 15, 20);
        at(&mut tr, "kid", root, 50, 70);
        let totals = tr.totals();
        // root: 100 − (20 + 20); the grandchild is charged to its parent
        // only.
        assert!((totals["root"].self_s - 60e-6).abs() < 1e-12);
        assert!((totals["kid"].self_s - 35e-6).abs() < 1e-12);
        assert!((totals["kid"].total_s - 40e-6).abs() < 1e-12);
        assert_eq!(totals["kid"].count, 2);
        assert!((totals["grandkid"].self_s - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_cover_their_union() {
        // Two worker threads' spans overlap inside one phase span; a
        // third pokes out past the parent's end.
        let mut tr = Tracer::new(true, Instant::now());
        let root = at(&mut tr, "phase", NO_SPAN, 0, 100);
        at(&mut tr, "req", root, 10, 60);
        at(&mut tr, "req", root, 40, 80);
        at(&mut tr, "req", root, 90, 130);
        // Union inside the parent: [10,80) ∪ [90,100) = 80 µs.
        assert!((tr.totals()["phase"].self_s - 20e-6).abs() < 1e-12);
    }

    #[test]
    fn begin_end_nest_and_absorb_reparents_worker_roots() {
        let origin = Instant::now();
        let mut main = Tracer::new(true, origin);
        let phase = main.begin("phase");
        let mut worker = main.worker();
        let w = worker.begin("loop");
        let t = Instant::now();
        worker.record("req", 7, t, t + Duration::from_micros(5));
        worker.end(w);
        main.end(phase);
        main.absorb(worker, phase);
        assert_eq!(main.len(), 3);
        assert_eq!(main.spans[1].parent, phase);
        assert_eq!(main.spans[2].parent, 1);
        assert_eq!(main.spans[2].request, 7);
    }

    #[test]
    fn an_off_tracer_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false, Instant::now());
        let id = tr.begin("x");
        assert_eq!(id, NO_SPAN);
        tr.end(id);
        let (v, secs) = tr.time("y", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert_eq!(tr.len(), 0);
    }
}
