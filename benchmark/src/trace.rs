//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into a
//! layer's public functions; nothing inside the repository's crates is
//! touched. A span carries a name, start and end (nanoseconds since the
//! tracer's epoch), the span that caused it, and the request or batch it
//! belongs to. Spans stay in a pre-allocated vector until the run ends and
//! are then written out as JSON lines.
//!
//! A disabled tracer records nothing and reads no clock, so the untraced
//! run drives the very same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent marker of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `layer.operation`, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (equal to start while open).
    pub end_ns: u64,
    /// Index of the causing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Request or batch id shared by the spans of one unit of work.
    pub id: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The handle a disabled tracer hands out.
    const DISABLED: SpanId = SpanId(NO_PARENT);
}

/// The span recorder of the thread that drives the workload.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer whose epoch is now. Disabled tracers allocate nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: if enabled {
                Vec::with_capacity(1 << 16)
            } else {
                Vec::new()
            },
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. `parent` is the span that caused it, if any.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, id: u64) -> SpanId {
        if !self.enabled {
            return SpanId::DISABLED;
        }
        let now = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            id,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Closes a span opened with [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, span: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(rec) = self.spans.get_mut(span.0 as usize) {
            rec.end_ns = now;
        }
    }

    /// Times `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, parent, id);
        let out = f();
        self.end(s);
        out
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (pipelined work)
/// are counted once, and a child is clipped to its parent's interval.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanSummary {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

/// Per-name totals, name-sorted — the "where did the time go" table.
pub fn summarize(spans: &[SpanRecord]) -> BTreeMap<&'static str, SpanSummary> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
        e.self_s += self_ns as f64 / 1e9;
    }
    out
}

/// Durations in nanoseconds of every span called `name`.
pub fn durations_ns(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: u32) -> SpanRecord {
        SpanRecord {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            rec("root", 0, 100, NO_PARENT),
            rec("child", 10, 60, 0),
            rec("grandchild", 20, 30, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two pipelined children covering 10..50 together.
        let spans = [
            rec("root", 0, 100, NO_PARENT),
            rec("a", 10, 40, 0),
            rec("b", 30, 50, 0),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_may_arrive_unordered() {
        let spans = [
            rec("root", 100, 200, NO_PARENT),
            rec("late", 180, 260, 0),
            rec("early", 50, 120, 0),
            rec("inside", 130, 150, 0),
            rec("contained", 135, 140, 0),
        ];
        // Covered: 100..120, 130..150, 180..200 = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        let spans = [rec("leaf", 5, 25, NO_PARENT)];
        assert_eq!(self_times(&spans), vec![20]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", None, 1);
        t.end(s);
        assert_eq!(t.span("y", Some(s), 2, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", None, 9);
        let child = t.begin("child", Some(root), 9);
        t.end(child);
        t.span("child", Some(root), 9, || ());
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!(spans[2].id, 9);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let summary = summarize(spans);
        assert_eq!(summary["root"].count, 1);
        assert!(summary["root"].self_s <= summary["root"].total_s);
        assert_eq!(durations_ns(spans, "child").len(), 2);
    }
}
