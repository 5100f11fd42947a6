//! In-memory span recording for the traced run.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! are recorded by the benchmark around its calls into each crate's
//! public functions, kept in memory, and reduced when the run ends. The
//! layer of a span is the part of its name before the first `.`
//! (`core.run` belongs to `core`).

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation` name.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`start_ns` while still open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Layer name: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; a disabled tracer records nothing and
/// reads no clock, which is what the tracing-overhead figure compares
/// against.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    // Spans are whole-value pushes and single-field end stamps, so a
    // guard recovered from a poisoned lock still sees consistent data.
    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let Some(origin) = self.origin else {
            return 0;
        };
        let t = Self::now_ns(origin);
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if let Some(origin) = self.origin {
            let t = Self::now_ns(origin);
            if let Some(span) = self.spans().get_mut(id) {
                span.end_ns = t;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Takes every recorded span, in open order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            s.dur_ns()
                .saturating_sub(covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("point", 0, 100, None),
            span("core.build", 10, 20, Some(0)),
            span("core.run", 20, 80, Some(0)),
            span("codec.encode", 30, 40, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 50, 10]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["point"], 30);
        assert_eq!(by_layer["core"], 60);
        assert_eq!(by_layer["codec"], 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("serve.request", 0, 100, None),
            span("store.lookup", 10, 50, Some(0)),
            span("store.lookup", 30, 60, Some(0)),
            // Overhangs its parent's end; only [90, 100] is covered.
            span("serve.render", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let t = Tracer::on();
        let outer = t.open("point", None);
        t.span("core.build", Some(outer), || std::hint::black_box(1 + 1));
        t.close(outer);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::off();
        let id = off.open("point", None);
        off.close(id);
        assert!(off.take().is_empty());
    }
}
