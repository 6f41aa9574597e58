//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The traced pass wraps every call across a crate boundary in a span
//! `{name, start, end, parent, id}`, keeps them in memory, and writes
//! them out as JSONL when the workload ends. A layer's *self* time is
//! its span minus the part of that interval its children cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A single-threaded span recorder; each thread that records owns one
/// and the owner [`Tracer::absorb`]s them at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Times `f` as a child of whatever span is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let (s, e) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id as usize];
        span.start_ns = s;
        span.end_ns = e;
        out
    }

    /// Records an interval measured elsewhere (a reply that arrived on
    /// another thread) as a child of the currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        });
    }

    /// Moves another thread's spans in, re-numbering them; its roots
    /// become children of the currently open span.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans)
    }

    /// One JSON object per line: `{id, parent, name, start_ns, end_ns}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Int(s.id as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent, merged where children
/// recorded on different threads overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(cursor, s.end_ns);
                covered += b - a;
                cursor = cursor.max(b);
            }
            s.dur_ns() - covered
        })
        .collect()
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, None, "query", 0, 100),
            span(1, Some(0), "gather", 10, 40),
            span(2, Some(1), "neighbors", 15, 25),
            span(3, Some(0), "sbnn", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let t = totals(&spans);
        assert_eq!(
            t["query"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(t["gather"].self_ns, 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span(0, None, "epoch", 100, 200),
            // Two workers overlapping on [120, 150].
            span(1, Some(0), "task", 110, 150),
            span(2, Some(0), "task", 120, 170),
            // A reply stamped on another thread, ending after the parent.
            span(3, Some(0), "reply", 190, 260),
        ];
        // Covered: [110,170] = 60 and [190,200] = 10.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let x = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(x, 7);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);

        let mut other = Tracer::new(origin);
        other.span("a", |t| t.span("b", |_| ()));
        t.span("outer2", |t| t.absorb(other));
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.spans()[4].parent, Some(3));
        assert_eq!(t.spans()[4].id, 4);

        let lines: Vec<_> = t
            .to_jsonl()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[4].get("name").and_then(Json::as_str), Some("b"));
    }
}
