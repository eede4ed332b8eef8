//! Spans recorded from outside the program: the benchmark's own task
//! closures stamp the clock around each call into a layer. Spans stay in
//! memory and are written out when the run ends.
//!
//! With tracing off none of this touches the clock: [`OpTrace::submit_stamp`]
//! returns `None`, and a [`TaskTrace`] begun from `None` only calls through.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// A span as stamped, before it has an id or a parent.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// Stamps spans inside one task body.
pub struct TaskTrace {
    spans: Option<Vec<RawSpan>>,
}

impl TaskTrace {
    /// Call as the first instruction of the task body. `submitted` is the
    /// client's [`OpTrace::submit_stamp`]; the time since then is the
    /// task's `core.queue_wait`.
    pub fn begin(submitted: Option<Instant>) -> Self {
        let spans =
            submitted.map(|start| vec![RawSpan { name: "core.queue_wait", start, end: Instant::now() }]);
        TaskTrace { spans }
    }

    /// Run `f` as the span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(spans) = &mut self.spans else { return f() };
        let start = Instant::now();
        let out = f();
        spans.push(RawSpan { name, start, end: Instant::now() });
        out
    }

    /// Call as the last instruction of the task body.
    pub fn end(self) -> TaskSpans {
        TaskSpans {
            body_end: self.spans.as_ref().map(|_| Instant::now()),
            spans: self.spans.unwrap_or_default(),
        }
    }
}

/// What a task body hands back through its future, beside its result.
pub struct TaskSpans {
    spans: Vec<RawSpan>,
    body_end: Option<Instant>,
}

/// The client's side of one op: where joined tasks leave their spans.
pub struct OpTrace {
    enabled: bool,
    pub spans: Vec<RawSpan>,
}

impl OpTrace {
    pub fn new(enabled: bool) -> Self {
        OpTrace { enabled, spans: Vec::new() }
    }

    /// Take just before submitting a task and move into its body.
    pub fn submit_stamp(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Call right after `TaskFuture::get` returns: keeps the task's spans
    /// and adds `core.join`, from the end of the body to now.
    pub fn joined(&mut self, task: TaskSpans) {
        self.spans.extend(task.spans);
        if let Some(start) = task.body_end {
            self.spans.push(RawSpan { name: "core.join", start, end: Instant::now() });
        }
    }
}

/// A finished span. `parent` is the id of the span that caused it; spans
/// of one op share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// All spans of a run, in memory until [`SpanLog::write`].
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog { epoch, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Add one op: the root span `op` over `[start, end]` and its children.
    pub fn push_op(&mut self, op_id: u64, start: Instant, end: Instant, children: &[RawSpan]) {
        let root = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id: root, name: "op", start_ns, end_ns, parent: None, op_id });
        for c in children {
            let id = self.spans.len();
            let (start_ns, end_ns) = (self.ns(c.start), self.ns(c.end));
            self.spans.push(Span { id, name: c.name, start_ns, end_ns, parent: Some(root), op_id });
        }
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let span = Json::obj([
                ("id", Json::Int(s.id as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                ("parent", s.parent.map_or(Json::Raw("null".into()), |p| Json::Int(p as u64))),
                ("op_id", Json::Int(s.op_id)),
            ]);
            writeln!(out, "{span}{sep}")?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children may overlap each other (tasks of one op
/// run in parallel) and are clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Each span name's share of all self time in the log. Where the tasks of
/// an op do not overlap this is the layer's share of `op`; where they do,
/// it is the share of the task time spent under `op`. Shares sum to 1.
pub fn self_time_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_default() += ns;
    }
    let total: u64 = by_name.values().sum();
    by_name.into_iter().map(|(name, ns)| (name, ns as f64 / total.max(1) as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { id, name, start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(0, "op", 0, 100, None),
            span(1, "a", 10, 50, Some(0)),
            span(2, "b", 30, 70, Some(0)),  // overlaps a: union 10..70
            span(3, "c", 40, 45, Some(0)),  // inside the union
            span(4, "d", 90, 130, Some(0)), // clipped to 90..100
            span(5, "e", 35, 40, Some(2)),  // grandchild: only b's concern
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 35, 5, 40, 5]);
    }

    #[test]
    fn shares_of_sequential_children_are_shares_of_op() {
        let spans =
            [span(0, "op", 0, 100, None), span(1, "x", 0, 25, Some(0)), span(2, "y", 25, 75, Some(0))];
        let shares = self_time_shares(&spans);
        assert_eq!(shares["x"], 0.25);
        assert_eq!(shares["y"], 0.5);
        assert_eq!(shares["op"], 0.25);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn untraced_task_records_nothing() {
        let op = OpTrace::new(false);
        let mut t = TaskTrace::begin(op.submit_stamp());
        assert_eq!(t.span("x", || 7), 7);
        let mut op = op;
        op.joined(t.end());
        assert!(op.spans.is_empty());
    }

    #[test]
    fn traced_task_yields_wait_body_spans_and_join() {
        let mut op = OpTrace::new(true);
        let mut t = TaskTrace::begin(op.submit_stamp());
        t.span("x", || ());
        op.joined(t.end());
        let names: Vec<_> = op.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["core.queue_wait", "x", "core.join"]);
        assert!(op.spans.windows(2).all(|w| w[0].end <= w[1].start));
    }
}
