//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own wrappers, around the
//! calls into each layer's public functions. Each span carries a name,
//! start and end (ns since the tracer was installed), its parent span,
//! and the id of the incident or bootstrap iteration it belongs to.
//! Spans stay in memory and are written out once the run ends; a
//! layer's self time is its duration minus the part of that interval
//! its child spans cover.
//!
//! The recorder is thread-local and off unless [`install`] was called,
//! so the untraced runs pay one `Cell` read per wrapper call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span was taken at (e.g. `"tree.expand"`).
    pub name: &'static str,
    /// Start, ns since the tracer was installed.
    pub start_ns: u64,
    /// End, ns since the tracer was installed.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
    /// Incident id or bootstrap iteration the span belongs to.
    pub id: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each child clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the part of `[start, end)` covered by the union of
/// `intervals`.
pub fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (a, b) in intervals {
        let a = a.max(cursor);
        let b = b.min(end);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Appends the spans of another recording session, re-basing their
/// parent indices onto `spans`.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let offset = spans.len();
    spans.extend(more.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + offset),
        ..s
    }));
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Totals per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

/// The recorder behind the thread-local tracer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    static ON: Cell<bool> = const { Cell::new(false) };
}

/// Starts recording on this thread (dropping anything recorded before).
pub fn install() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
    ON.with(|on| on.set(true));
}

/// Stops recording and returns every span recorded since [`install`].
pub fn take() -> Vec<Span> {
    ON.with(|on| on.set(false));
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Opens a span named `name` for incident/iteration `id`, nested under
/// the innermost open span; `None` when tracing is off. Close it with
/// [`close`], innermost first.
pub fn open(name: &'static str, id: u64) -> Option<usize> {
    if !enabled() {
        return None;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let start_ns = t.now_ns();
        let index = t.spans.len();
        let parent = t.stack.last().copied();
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        t.stack.push(index);
        Some(index)
    })
}

/// Closes a span returned by [`open`].
pub fn close(index: Option<usize>) {
    let Some(index) = index else {
        return;
    };
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let end = t.now_ns();
            if let Some(s) = t.spans.get_mut(index) {
                s.end_ns = end;
            }
            if t.stack.last() == Some(&index) {
                t.stack.pop();
            }
        }
    });
}

/// An open span that closes when dropped. Inert when tracing is off.
#[must_use = "a span closes when dropped"]
pub struct Guard(Option<usize>);

/// [`open`] as a scope guard.
pub fn span(name: &'static str, id: u64) -> Guard {
    Guard(open(name, id))
}

impl Drop for Guard {
    fn drop(&mut self) {
        close(self.0.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            s("root", 0, 100, None),
            s("a", 10, 30, Some(0)),
            s("b", 40, 70, Some(0)),
            s("leaf", 45, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            s("root", 0, 100, None),
            s("a", 10, 60, Some(0)),
            s("b", 50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            s("root", 10, 50, None),
            s("early", 0, 20, Some(0)),
            s("late", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn top_level_self_times_sum_to_wall_without_gaps() {
        let spans = vec![
            s("a", 0, 40, None),
            s("a.kid", 5, 35, Some(0)),
            s("b", 40, 100, None),
        ];
        let selfs = self_times(&spans);
        let totals = totals_by_name(&spans);
        assert_eq!(selfs[0] + selfs[1] + selfs[2], 100);
        assert_eq!(totals["a"].total_ns, 40);
        assert_eq!(totals["a"].self_ns, 10);
    }

    #[test]
    fn appended_sessions_keep_their_parents() {
        let mut spans = vec![s("a", 0, 10, None)];
        append(
            &mut spans,
            vec![s("b", 0, 10, None), s("b.kid", 2, 4, Some(0))],
        );
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(self_times(&spans), vec![10, 8, 2]);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        install();
        {
            let _outer = span("outer", 1);
            let _inner = span("inner", 1);
        }
        let _after = span("after", 2);
        drop(_after);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(!enabled());
        let _ignored = span("off", 0);
        assert!(take().is_empty());
    }
}
