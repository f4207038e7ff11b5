//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call into
//! the program — the program itself is not instrumented. They live in a
//! `Vec` until the run ends and are then written as Chrome Trace Event
//! JSON (open in Perfetto or `chrome://tracing`).
//!
//! Three kinds of span make up one traced op, all sharing its op id:
//!
//! * the [`Kind::Op`] span times the real operation, exactly as the
//!   untraced run performs it;
//! * [`Kind::Layer`] spans time the work of one layer that the op
//!   performs; the op's time that no layer span explains is reported as
//!   `pipeline.unaccounted_us`;
//! * [`Kind::Probe`] spans time one layer again in isolation, for work
//!   that already lies inside some layer span (they explain nothing new).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span measures; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The real operation.
    Op,
    /// One layer's share of the operation.
    Layer,
    /// A layer timed again on the side.
    Probe,
    /// Groups layer spans; its own time is harness glue.
    Group,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Layer => "layer",
            Kind::Probe => "probe",
            Kind::Group => "group",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`core.analyze`, `daemon.execute`, …).
    pub name: &'static str,
    /// What the span measures.
    pub kind: Kind,
    /// The operation this span belongs to.
    pub op: u64,
    /// Program class of that operation (`wide`, `check`, …).
    pub class: &'static str,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a new span nested under the innermost open one and
    /// returns the span's index with `f`'s result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        kind: Kind,
        op: u64,
        class: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (usize, R) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            kind,
            op,
            class,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        (idx, out)
    }

    /// A childless [`Kind::Layer`] span around `f`.
    pub fn layer<R>(
        &mut self,
        name: &'static str,
        op: u64,
        class: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span(name, Kind::Layer, op, class, |_| f()).1
    }

    /// A childless [`Kind::Probe`] span around `f`.
    pub fn probe<R>(
        &mut self,
        name: &'static str,
        op: u64,
        class: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span(name, Kind::Probe, op, class, |_| f()).1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Adds a [`Kind::Layer`] child measured by someone else's clock (the
/// daemon's request log) under span `parent`. The interval is moved and,
/// if need be, shortened to lie inside the parent and after `not_before`,
/// so clock-mapping error can never produce a negative self time.
/// Returns the child's end.
pub fn adopt(
    spans: &mut Vec<Span>,
    parent: usize,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    not_before: u64,
) -> u64 {
    let (p_start, p_end, op, class) = {
        let p = &spans[parent];
        (p.start_ns, p.end_ns, p.op, p.class)
    };
    let lo = p_start.max(not_before).min(p_end);
    let start = start_ns.clamp(lo, p_end.saturating_sub(dur_ns).max(lo));
    let end = (start + dur_ns).min(p_end);
    spans.push(Span {
        name,
        kind: Kind::Layer,
        op,
        class,
        parent: Some(parent),
        start_ns: start,
        end_ns: end,
    });
    end
}

/// Each span's self time: its duration minus the part its direct children
/// cover. Index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Checks the accounting invariants: every child lies within its parent,
/// siblings' durations sum to at most the parent's, and every span ends
/// no earlier than it starts.
///
/// # Errors
///
/// Names the first span that breaks an invariant.
pub fn verify(spans: &[Span]) -> Result<(), String> {
    let mut child_sum = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .ok_or_else(|| format!("span {i} `{}` has no parent {p}", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} `{}` [{}, {}] leaves its parent `{}` [{}, {}]",
                    s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                ));
            }
            if s.op != parent.op {
                return Err(format!(
                    "span {i} `{}` and its parent differ in op id",
                    s.name
                ));
            }
            child_sum[p] += s.dur_ns();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if child_sum[i] > s.dur_ns() {
            return Err(format!(
                "children of span {i} `{}` cover {} ns of its {} ns",
                s.name,
                child_sum[i],
                s.dur_ns()
            ));
        }
    }
    Ok(())
}

/// What one traced pass adds up to.
#[derive(Debug, Default)]
pub struct PassSummary {
    /// Per span name: (total self time in ns, number of spans).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Total duration of the [`Kind::Op`] spans.
    pub op_ns: u64,
    /// Number of [`Kind::Op`] spans.
    pub ops: u64,
    /// Total self time of the [`Kind::Layer`] spans.
    pub explained_ns: u64,
}

/// Sums a pass's spans by name.
pub fn summarize(spans: &[Span]) -> PassSummary {
    let mut out = PassSummary::default();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let slot = out.by_name.entry(s.name).or_insert((0, 0));
        slot.0 += self_ns;
        slot.1 += 1;
        match s.kind {
            Kind::Op => {
                out.op_ns += s.dur_ns();
                out.ops += 1;
            }
            Kind::Layer => out.explained_ns += self_ns,
            Kind::Probe | Kind::Group => {}
        }
    }
    out
}

/// Median self time per (class, span name), in microseconds, with the
/// number of spans behind each median.
pub fn class_medians(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), (f64, usize)> {
    let mut samples: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        samples
            .entry((s.class, s.name))
            .or_default()
            .push(self_ns as f64 / 1e3);
    }
    samples
        .into_iter()
        .map(|(k, v)| (k, (crate::stats::median(&v), v.len())))
        .collect()
}

/// Renders a pass's spans as a Chrome Trace Event document.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"class\":\"{}\",\"span\":{},\"parent\":{}}}}}",
            s.name,
            s.kind.label(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
            s.class,
            i,
            parent
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_nest_and_self_time_is_never_negative() {
        let mut t = Tracer::new(Instant::now());
        t.span("op", Kind::Op, 7, "c", |_| spin(20_000));
        let (group, ()) = t.span("op.layers", Kind::Group, 7, "c", |t| {
            t.layer("a", 7, "c", || spin(30_000));
            t.layer("b", 7, "c", || spin(10_000));
            spin(5_000);
        });
        verify(t.spans()).unwrap();
        let own = self_times(t.spans());
        let spans = t.spans();
        assert_eq!(spans[group].parent, None);
        assert_eq!(spans[group + 1].parent, Some(group));
        assert_eq!(spans[group + 2].parent, Some(group));
        // The group's self time is what its children do not cover.
        let children = spans[group + 1].dur_ns() + spans[group + 2].dur_ns();
        assert_eq!(own[group], spans[group].dur_ns() - children);
        assert!(own[group] >= 5_000);
        let sum = summarize(spans);
        assert_eq!(sum.ops, 1);
        assert_eq!(sum.op_ns, spans[0].dur_ns());
        assert_eq!(sum.explained_ns, children);
        assert_eq!(sum.by_name["a"].1, 1);
    }

    #[test]
    fn adopted_spans_are_clamped_into_the_parent() {
        let mut t = Tracer::new(Instant::now());
        let (op, ()) = t.span("op", Kind::Op, 1, "c", |_| spin(50_000));
        let mut spans = t.spans().to_vec();
        let (p_start, p_end) = (spans[op].start_ns, spans[op].end_ns);
        // Starts before the parent, by a foreign clock: moved inside.
        let early = p_start.saturating_sub(9_000);
        let end = adopt(&mut spans, op, "daemon.decode", early, 10_000, 0);
        assert_eq!(end, p_start + 10_000);
        // Would overlap its elder sibling: pushed after it.
        let end = adopt(&mut spans, op, "daemon.execute", p_start, 20_000, end);
        assert_eq!(end, p_start + 30_000);
        // Longer than what is left of the parent: shortened.
        let end = adopt(&mut spans, op, "daemon.encode", end, 1_000_000, end);
        assert_eq!(end, p_end);
        verify(&spans).unwrap();
        assert_eq!(self_times(&spans)[op], 0);
    }

    #[test]
    fn verify_rejects_a_child_outside_its_parent() {
        let mut t = Tracer::new(Instant::now());
        t.span("op", Kind::Op, 1, "c", |t| {
            t.layer("a", 1, "c", || spin(1_000))
        });
        let mut spans = t.spans().to_vec();
        spans[1].end_ns = spans[0].end_ns + 1;
        assert!(verify(&spans).unwrap_err().contains("leaves its parent"));
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let mut t = Tracer::new(Instant::now());
        t.span("op", Kind::Op, 3, "wide", |t| {
            t.layer("a", 3, "wide", || ())
        });
        let doc = chrome_trace(t.spans());
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"name\":\"a\",\"cat\":\"layer\""));
        assert!(doc.contains("\"op\":3"));
        // The repo's JSON reader takes integers only: drop the decimal
        // points to check the document is otherwise well formed.
        syncopt::core::diag::json::Value::parse(&doc.replace('.', "")).unwrap();
    }
}
