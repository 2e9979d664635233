//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out when the traced pass ends.
//!
//! A span has a name (the layer call), start and end, the span that caused
//! it, and the simulation it belongs to. Spans of one simulation share that
//! simulation's id. The export is Chrome-trace JSON, which Perfetto opens;
//! [`self_times`] gives each name's self time: its spans' durations minus
//! the part of each interval their child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, in start order.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The layer call, e.g. `ddbm-cc.replay`.
    pub name: &'static str,
    /// Index of the simulation the call served, if any.
    pub sim: Option<u32>,
    /// Small integer naming the OS thread that made the call.
    pub thread: u32,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// End, in microseconds since the recorder was created.
    pub end_us: f64,
}

/// A thread-safe in-memory span recorder.
pub struct Spans {
    origin: Instant,
    next_id: AtomicU32,
    done: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` and return its result with the
    /// span's duration in seconds. `f` receives the new span's id, to parent
    /// the spans of the calls it makes.
    pub fn record<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        sim: Option<u32>,
        f: impl FnOnce(u32) -> R,
    ) -> (R, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = f(id);
        let end = Instant::now();
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            name,
            sim,
            thread: THREAD.with(|t| *t),
            start_us: us(start),
            end_us: us(end),
        };
        self.done
            .lock()
            .expect("no span recorder holder panics")
            .push(span);
        (result, end.duration_since(start).as_secs_f64())
    }

    /// Every recorded span, in id order.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .done
            .into_inner()
            .expect("no span recorder holder panics");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Chrome-trace JSON (complete `X` events, one thread track per OS thread).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"sim\":{}}}}}",
            s.name,
            s.thread,
            s.start_us,
            s.end_us - s.start_us,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.sim.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Per-name totals: calls, summed duration and summed self time (seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span duration.
    pub total_s: f64,
    /// Summed duration not covered by child spans.
    pub self_s: f64,
}

/// Self time per span name. Children of one span may overlap (the workers
/// of a parallel pass), so coverage is the union of their intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_us - s.start_us;
        let covered = children
            .get_mut(&s.id)
            .map_or(0.0, |c| union_within(c, s.start_us, s.end_us));
        let row = table.entry(s.name).or_default();
        row.calls += 1;
        row.total_s += dur / 1e6;
        row.self_s += (dur - covered).max(0.0) / 1e6;
    }
    table
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_none() { "root" } else { "child" },
            sim: None,
            thread: 0,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 40] of the root's [0, 100].
        let spans = [
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 30.0),
            span(2, Some(0), 20.0, 40.0),
        ];
        let t = self_times(&spans);
        assert!((t["root"].self_s - 70e-6).abs() < 1e-12);
        assert_eq!(t["child"].calls, 2);
        assert!((t["child"].self_s - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let spans = Spans::new();
        spans.record("outer", None, Some(3), |id| {
            spans.record("inner", Some(id), Some(3), |_| ());
        });
        let spans = spans.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let json = chrome_trace(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"sim\":3"));
    }
}
