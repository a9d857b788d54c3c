//! Spans recorded from the benchmark's own files, around the calls into
//! each crate. No span lives inside the library yet: a later change adds
//! those, and this file's numbers are what it will be checked against.
//!
//! A span is `(name, start, end, parent, experiment)`. Spans stay in memory
//! until the run ends and are then written in Chrome trace format. With the
//! tracer off, `begin`/`end` read no clock and store nothing, so the
//! end-to-end run shares the set-up code with the traced run at no cost.

use crate::json::Value;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The experiment the call worked on; spans of one experiment share it.
    pub experiment: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, to be handed back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::new(false)
    }

    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run is shorter than 584 years")
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, experiment: Option<u32>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            experiment,
        });
        Open(Some(index))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Total duration of the spans called `name`, and how many there are.
    pub fn total_ns(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
    }

    /// Total self time of the spans called `name`.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, own)| own)
            .sum()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
    /// events (`ph: "X"`) with microsecond timestamps; the experiment index
    /// is the thread id, so each experiment reads as one row.
    pub fn to_chrome_trace(&self, workload: &str) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("cat", Value::str(s.name.split('.').next().unwrap_or(""))),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    (
                        "tid",
                        Value::Num(s.experiment.map_or(0.0, |e| f64::from(e) + 1.0)),
                    ),
                    (
                        "args",
                        Value::obj([(
                            "parent",
                            s.parent
                                .map_or(Value::Null, |p| Value::str(self.spans[p].name)),
                        )]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("displayTimeUnit", Value::str("ns")),
            (
                "otherData",
                Value::obj([("workload", Value::str(workload))]),
            ),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut busy = 0;
            let mut reach = span.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    busy += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - busy
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            experiment: None,
        }
    }

    #[test]
    fn nested_children() {
        // root 0..100 > a 10..60 > b 20..30
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn adjacent_children() {
        // Two children that touch at 50, then a gap, then a third.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 50, 70, Some(0)),
            span("c", 80, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 10, 100, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("late", 90, 120, Some(0)),
            span("early", 0, 15, Some(0)),
        ];
        // Covered: 10..15, 20..80, 90..100 = 75 of 90.
        assert_eq!(self_times_ns(&spans)[0], 15);
    }

    #[test]
    fn tracer_links_parents_and_is_free_when_off() {
        let mut t = Tracer::on();
        let outer = t.begin("outer", Some(3));
        let inner = t.begin("inner", Some(3));
        t.end(inner);
        t.end(outer);
        let sibling = t.begin("sibling", None);
        t.end(sibling);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.total_ns("inner").1, 1);
        assert!(t.total_self_ns("outer") <= t.total_ns("outer").0);

        let mut off = Tracer::off();
        let s = off.begin("x", None);
        off.end(s);
        assert!(off.spans.is_empty());
    }
}
