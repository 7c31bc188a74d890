//! In-memory spans recorded from the benchmark's own side of each layer
//! boundary, and the self-time arithmetic that turns them into a waterfall.
//!
//! A span is (name, start, end, parent). Spans stay in a `Vec` for the whole
//! traced pass and are only aggregated after the last timed call, so
//! recording costs two clock reads and a push.
//! A wrapper that sees many short calls (the `CbApi` decorator) keeps their
//! intervals locally and files them with [`SpanLog::record_under`] once per
//! step, so the log's mutex is taken once per LP step, not once per call.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `name` indexes [`SpanLog::names`]; `parent` indexes the
/// log itself, so every span of one frame reaches that frame's root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the span's name.
    pub name: u16,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

/// The span buffer of one traced pass. Single-threaded by use, shared behind
/// a mutex only because the wrappers that write to it must be `Send`.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// A [`SpanLog`] shared between the harness and its timing wrappers.
pub type SharedSpanLog = Arc<Mutex<SpanLog>>;

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), names: Vec::new(), spans: Vec::new(), open: Vec::new() }
    }

    /// An empty shared log.
    pub fn shared() -> SharedSpanLog {
        Arc::new(Mutex::new(SpanLog::new()))
    }

    /// Interns `name`, returning the id spans carry.
    pub fn name_id(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_owned());
        u16::try_from(self.names.len() - 1).expect("fewer than 65536 span names")
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: u16) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost-first");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Files an already-closed span under the innermost open span.
    pub fn record(&mut self, name: u16, start_ns: u64, end_ns: u64) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.record_under(parent, name, start_ns, end_ns)
    }

    /// Files an already-closed span under `parent`.
    pub fn record_under(&mut self, parent: u32, name: u16, start_ns: u64, end_ns: u64) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span { name, parent, start_ns, end_ns });
        index
    }

    /// The name of a span-name id.
    pub fn name(&self, id: u16) -> &str {
        &self.names[id as usize]
    }

    /// Per span name: (spans recorded, summed self time in ns).
    pub fn self_time_by_name(&self) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let entry = out.entry(self.name(span.name).to_owned()).or_default();
            entry.0 += 1;
            entry.1 += self_ns;
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(cursor, span.end_ns);
                let end = end.clamp(cursor, span.end_ns);
                covered += end - start;
                cursor = end;
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span(NO_PARENT, 0, 100), // frame
            span(0, 10, 30),         // lp a
            span(1, 12, 20),         // cb call inside a
            span(0, 40, 90),         // lp b
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 50, 20 - 8, 8, 50]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            span(NO_PARENT, 100, 200),
            span(0, 110, 150),
            span(0, 140, 170), // overlaps the previous child by 10
            span(0, 190, 260), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - (40 + 20 + 10));
    }

    #[test]
    fn log_nests_spans_under_the_innermost_open_one() {
        let mut log = SpanLog::new();
        let frame = log.name_id("frame");
        let step = log.name_id("step");
        assert_eq!(log.name_id("frame"), frame, "names are interned");
        let f = log.enter(frame);
        let s = log.enter(step);
        log.exit(s);
        log.exit(f);
        let g = log.enter(frame);
        log.exit(g);
        let parents: Vec<u32> = log.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, NO_PARENT]);
        let by_name = log.self_time_by_name();
        assert_eq!(by_name["frame"].0, 2);
        assert_eq!(by_name["step"].0, 1);
        let total: u64 = log.spans.iter().filter(|s| s.parent == NO_PARENT).map(dur).sum();
        let attributed: u64 = by_name.values().map(|(_, ns)| ns).sum();
        assert_eq!(total, attributed, "self times partition the root spans");
    }

    fn dur(s: &Span) -> u64 {
        s.end_ns - s.start_ns
    }
}
