//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap calls into the library's public functions (the library is
//! not edited by the benchmark). Each span stores its name, start, end,
//! the span that caused it and the id of the rep / cycle / request it
//! belongs to; everything stays in memory until the run ends, then
//! [`Trace::to_json`] writes it out. A layer's *self time* is its span's
//! duration minus the part its child spans cover.
//!
//! The recorder is only ever touched by traced passes; end-to-end metrics
//! come from passes that never construct one.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Rep, cycle or request id shared by the spans of one operation.
    pub op: u32,
    /// Side probes re-execute a call on captured inputs, off the blocking
    /// path; they are kept out of coverage sums.
    pub probe: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate over a recorded trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
    /// Mean span duration (ms); zero when nothing was recorded.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms() / self.count as f64
        }
    }
}

/// Span recorder for one thread (the benchmark's driving thread).
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    probe: bool,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            probe: false,
        }
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            probe: self.probe,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Like [`Trace::span`], marking the span (and its children) as a probe.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let was = std::mem::replace(&mut self.probe, true);
        let out = self.span(name, f);
        self.probe = was;
        out
    }

    /// Records an already-measured interval (for events observed by
    /// polling, such as a request's submit → finished).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op: u32) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: NO_PARENT,
            op,
            probe: false,
        });
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Aggregates by span name (sorted, so output order is stable).
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let own = self.self_times_ns();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.dur_ns();
            a.self_ns += self_ns;
        }
        out
    }

    /// Aggregate of one name (zeros when it never occurred).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggregate().get(name).copied().unwrap_or_default()
    }

    /// Durations (ms) of every span with this name, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The whole trace: per-name aggregates, then every span.
    pub fn to_json(&self) -> Json {
        let aggregates: Vec<Json> = self
            .aggregate()
            .into_iter()
            .map(|(name, a)| {
                Json::obj()
                    .set("name", name)
                    .set("count", a.count)
                    .set("total_ms", a.total_ms())
                    .set("self_ms", a.self_ms())
            })
            .collect();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(f64::from(s.parent))
                };
                Json::Arr(vec![
                    s.name.into(),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    parent,
                    Json::Num(f64::from(s.op)),
                    s.probe.into(),
                ])
            })
            .collect();
        Json::obj()
            .set(
                "span_columns",
                vec![
                    "name".into(),
                    "start_ns".into(),
                    "end_ns".into(),
                    "parent".into(),
                    "op".into(),
                    "probe".into(),
                ],
            )
            .set("aggregates", aggregates)
            .set("spans", spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual(spans: Vec<Span>) -> Trace {
        Trace {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
            op: 0,
            probe: false,
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            probe: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // step [0, 100) ⊃ fire [10, 50) ⊃ rhs [20, 30); step ⊃ atmos [60, 90).
        let t = manual(vec![
            span("step", 0, 100, NO_PARENT),
            span("fire", 10, 50, 0),
            span("rhs", 20, 30, 1),
            span("atmos", 60, 90, 0),
        ]);
        assert_eq!(t.self_times_ns(), vec![30, 30, 10, 30]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
        let agg = t.aggregate();
        assert_eq!(agg["step"].total_ns, 100);
        assert_eq!(agg["step"].self_ns, 30);
        assert_eq!(agg["fire"].self_ns, 30);
    }

    #[test]
    fn nested_spans_record_parents_and_ops() {
        let mut t = Trace::new();
        t.set_op(7);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.probe("side", |t| t.span("side.child", |_| ()));
        });
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 0, 2));
        assert!(s.iter().all(|x| x.op == 7));
        assert_eq!(
            s.iter().map(|x| x.probe).collect::<Vec<_>>(),
            vec![false, false, true, true]
        );
        assert!(s[0].end_ns >= s[3].end_ns && s[0].start_ns <= s[1].start_ns);
        assert_eq!(t.agg("missing"), Agg::default());
    }
}
