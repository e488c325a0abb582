//! Span tracing: RAII guards, thread-local span stacks, and per-thread
//! event ring buffers with a deterministic global drain.
//!
//! Each thread owns one ring buffer (registered in a process-wide list on
//! first use) plus a depth counter modelling the open-span stack. Opening
//! a span reads the monotonic clock and bumps the depth; dropping the
//! guard pops the stack and pushes one completed [`SpanEvent`] onto the
//! thread's ring. Rings are bounded ([`RING_CAPACITY`] events): when full,
//! the oldest event is dropped and counted, so telemetry can never grow
//! without bound under load.
//!
//! [`drain`] collects and clears every thread's buffer. The result is
//! sorted by `(start_ns, tid, seq)` — a total order — so merging N worker
//! buffers is deterministic: two drains of the same events always produce
//! the same sequence, and a batch trace differs across thread counts only
//! in timestamps and thread ids, never in span content (the determinism
//! test in `tests/telemetry.rs` checks the multiset).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum buffered events per thread before the oldest are dropped.
pub const RING_CAPACITY: usize = 1 << 16;

/// A small span-argument value: numbers and strings only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An integer argument (request index, counts, ids).
    Int(i64),
    /// A string argument (schema-derived names, descriptions).
    Str(String),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::Int(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::Int(v as i64)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Category (the pipeline layer: `project`, `batch`, `lint`, `cache`).
    pub cat: &'static str,
    /// Span name. `Cow` because most names are static stage labels but
    /// some are schema-derived (type names, request descriptions).
    pub name: Cow<'static, str>,
    /// Start, in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at open time (0 = top of this thread's stack).
    pub depth: u32,
    /// Logical thread id (registration order, process-unique).
    pub tid: u64,
    /// Per-thread monotonic sequence number (merge tiebreaker).
    pub seq: u64,
    /// Key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

struct Ring {
    events: VecDeque<SpanEvent>,
    seq: u64,
    dropped: u64,
}

struct ThreadBuffer {
    tid: u64,
    ring: Mutex<Ring>,
}

/// Cumulative overflow drops since process start. [`drain`] zeroes the
/// per-ring counters behind [`dropped_events`], but a long-running server
/// needs a monotonic total it can export as a metric, so overflow bumps
/// both.
static DROPPED_TOTAL: AtomicU64 = AtomicU64::new(0);

impl ThreadBuffer {
    fn push(&self, mut event: SpanEvent) {
        // Stamp the thread's current trace id (if a request scope is
        // active) centrally, so every instrumentation site in the
        // pipeline participates in correlation without knowing about it.
        if let Some(trace) = crate::trace::current_trace() {
            event.args.push(("trace", ArgValue::Str(trace.to_string())));
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        event.tid = self.tid;
        event.seq = ring.seq;
        ring.seq += 1;
        if ring.events.len() >= RING_CAPACITY {
            ring.events.pop_front();
            ring.dropped += 1;
            DROPPED_TOTAL.fetch_add(1, Ordering::Relaxed);
        }
        ring.events.push_back(event);
    }
}

fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<ThreadBuffer> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let buffer = Arc::new(ThreadBuffer {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ring: Mutex::new(Ring { events: VecDeque::new(), seq: 0, dropped: 0 }),
        });
        buffers()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&buffer));
        buffer
    };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Records a pre-measured complete span. Instrumentation sites that
/// already time a phase for their own accounting (e.g. `StageTimings` in
/// `td_core::project`) call this with the very same measurement, so the
/// emitted span and the derived stat are provably identical.
pub fn emit_span(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    start_ns: u64,
    dur_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
) {
    if !crate::enabled() {
        return;
    }
    let event = SpanEvent {
        cat,
        name: name.into(),
        start_ns,
        dur_ns,
        depth: DEPTH.with(|d| d.get()),
        tid: 0,
        seq: 0,
        args,
    };
    LOCAL.with(|b| b.push(event));
}

/// An open span. Dropping it records the completed event (when telemetry
/// was enabled at open time).
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard(Option<OpenSpan>);

struct OpenSpan {
    cat: &'static str,
    name: Cow<'static, str>,
    start_ns: u64,
    depth: u32,
    args: Vec<(&'static str, ArgValue)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let end = crate::now_ns();
            LOCAL.with(|b| {
                b.push(SpanEvent {
                    cat: open.cat,
                    name: open.name,
                    start_ns: open.start_ns,
                    dur_ns: end.saturating_sub(open.start_ns),
                    depth: open.depth,
                    tid: 0,
                    seq: 0,
                    args: open.args,
                })
            });
        }
    }
}

/// Opens a span. When telemetry is disabled this is one atomic load and
/// a no-op guard.
#[inline]
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard(None);
    }
    span_slow(cat, name.into(), Vec::new())
}

/// Opens a span carrying key/value arguments.
#[inline]
pub fn span_with_args(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, ArgValue)>,
) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard(None);
    }
    span_slow(cat, name.into(), args)
}

fn span_slow(
    cat: &'static str,
    name: Cow<'static, str>,
    args: Vec<(&'static str, ArgValue)>,
) -> SpanGuard {
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    SpanGuard(Some(OpenSpan {
        cat,
        name,
        start_ns: crate::now_ns(),
        depth,
        args,
    }))
}

/// The calling thread's open-span depth: the depth a span opened here
/// now would record.
pub fn current_depth() -> u32 {
    DEPTH.with(|d| d.get())
}

/// A thread's span stack entered at a caller's depth. Dropping it
/// restores the thread's previous depth.
#[must_use = "the entered depth lasts only as long as the guard"]
pub struct DepthScope {
    previous: u32,
}

/// Enters `depth` (a [`current_depth`] captured on another thread) as
/// this thread's span depth until the returned guard drops. A worker
/// thread fanned out from inside an open span enters the spawner's
/// depth, so its spans record the depth they would have had on the
/// spawning thread, whichever thread the scheduler picked.
pub fn depth_scope(depth: u32) -> DepthScope {
    DepthScope {
        previous: DEPTH.with(|d| d.replace(depth)),
    }
}

impl Drop for DepthScope {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(self.previous));
    }
}

/// Collects and clears every thread's buffered events, sorted by
/// `(start_ns, tid, seq)` — a deterministic merge of the per-thread
/// rings. Also returns each dropped-event counter to zero.
pub fn drain() -> Vec<SpanEvent> {
    let buffers = buffers().lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    for buffer in buffers.iter() {
        let mut ring = buffer.ring.lock().unwrap_or_else(|e| e.into_inner());
        events.extend(ring.events.drain(..));
        ring.dropped = 0;
    }
    drop(buffers);
    events.sort_by(|a, b| {
        (a.start_ns, a.tid, a.seq)
            .cmp(&(b.start_ns, b.tid, b.seq))
            .then_with(|| a.name.cmp(&b.name))
    });
    events
}

/// Total events dropped to ring-buffer overflow since the last [`drain`].
pub fn dropped_events() -> u64 {
    let buffers = buffers().lock().unwrap_or_else(|e| e.into_inner());
    buffers
        .iter()
        .map(|b| b.ring.lock().unwrap_or_else(|e| e.into_inner()).dropped)
        .sum()
}

/// Total events dropped to ring-buffer overflow since process start.
/// Unlike [`dropped_events`], this never resets — it is the monotonic
/// counter the server exports so 2¹⁶-event overflow is detectable
/// instead of silent.
pub fn dropped_events_total() -> u64 {
    DROPPED_TOTAL.load(Ordering::Relaxed)
}

/// Collects — *without clearing* — every buffered event stamped with the
/// given 32-hex trace id or any id in its *family*: ids sharing the
/// 16-hex prefix that [`crate::trace::TraceId::child`] preserves, so a
/// batch request's fan-out spans travel with their parent whichever id
/// the query names. Sorted like [`drain`]. This powers slow-request
/// capture: the server snapshots one request's spans while leaving the
/// rings intact for a later full drain.
pub fn events_for_trace(trace: &str) -> Vec<SpanEvent> {
    let prefix = &trace[..trace.len().min(16)];
    let matches = |event: &SpanEvent| {
        event.args.iter().any(|(k, v)| {
            *k == "trace"
                && matches!(v, ArgValue::Str(s)
                    if s == trace || (trace.len() == 32 && s.len() == 32 && s.starts_with(prefix)))
        })
    };
    let buffers = buffers().lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    for buffer in buffers.iter() {
        let ring = buffer.ring.lock().unwrap_or_else(|e| e.into_inner());
        events.extend(ring.events.iter().filter(|e| matches(e)).cloned());
    }
    drop(buffers);
    events.sort_by(|a, b| {
        (a.start_ns, a.tid, a.seq)
            .cmp(&(b.start_ns, b.tid, b.seq))
            .then_with(|| a.name.cmp(&b.name))
    });
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::GLOBAL_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn nested_spans_record_depth_and_order() {
        let _guard = serial();
        crate::set_enabled(true);
        let _ = drain();
        {
            let _a = span("test", "outer");
            {
                let _b = span_with_args("test", "inner", vec![("k", ArgValue::Int(7))]);
            }
        }
        crate::set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 2);
        // The inner span completes (and starts) no earlier than the outer
        // opened; sorted output puts outer (earlier start) first.
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[0].depth, 0);
        assert_eq!(events[1].name, "inner");
        assert_eq!(events[1].depth, 1);
        assert_eq!(events[1].args, vec![("k", ArgValue::Int(7))]);
        assert!(events[1].start_ns >= events[0].start_ns);
        assert!(events[0].dur_ns >= events[1].dur_ns);
    }

    #[test]
    fn emit_span_records_the_given_window() {
        let _guard = serial();
        crate::set_enabled(true);
        let _ = drain();
        emit_span("test", "premeasured", 123, 456, vec![("i", 9usize.into())]);
        crate::set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].start_ns, 123);
        assert_eq!(events[0].dur_ns, 456);
        assert_eq!(events[0].args, vec![("i", ArgValue::Int(9))]);
    }

    #[test]
    fn threads_merge_deterministically() {
        let _guard = serial();
        crate::set_enabled(true);
        let _ = drain();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..8 {
                        let _s = span_with_args(
                            "test",
                            format!("worker-span-{i}"),
                            vec![("t", ArgValue::Int(t))],
                        );
                    }
                });
            }
        });
        crate::set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 32);
        // Deterministic total order: re-sorting never changes it.
        let mut resorted = events.clone();
        resorted.sort_by_key(|e| (e.start_ns, e.tid, e.seq));
        assert_eq!(events, resorted);
        // Distinct threads got distinct tids.
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
        assert_eq!(drain().len(), 0, "drain clears the buffers");
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _guard = serial();
        crate::set_enabled(true);
        let _ = drain();
        let total_before = dropped_events_total();
        for i in 0..(RING_CAPACITY + 10) {
            emit_span("test", "flood", i as u64, 1, Vec::new());
        }
        assert_eq!(dropped_events(), 10);
        crate::set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), RING_CAPACITY);
        // The oldest 10 went overboard.
        assert_eq!(events[0].start_ns, 10);
        assert_eq!(dropped_events(), 0, "drain resets the dropped counter");
        assert_eq!(
            dropped_events_total(),
            total_before + 10,
            "the cumulative counter survives the drain"
        );
    }

    #[test]
    fn trace_scopes_stamp_spans_and_events_for_trace_finds_them() {
        let _guard = serial();
        crate::set_enabled(true);
        let _ = drain();
        let traced = crate::trace::TraceId::generate();
        let other = crate::trace::TraceId::generate();
        {
            let _scope = crate::trace::trace_scope(traced);
            let _s = span("test", "inside-scope");
            emit_span("test", "premeasured-in-scope", 1, 2, Vec::new());
        }
        {
            let _scope = crate::trace::trace_scope(other);
            let _s = span("test", "other-request");
        }
        {
            let _s = span("test", "no-scope");
        }
        // Non-destructive: the targeted scan sees only the traced spans…
        let hex = traced.to_string();
        let hit = events_for_trace(&hex);
        assert_eq!(hit.len(), 2);
        assert!(hit.iter().all(|e| e
            .args
            .iter()
            .any(|(k, v)| *k == "trace" && *v == ArgValue::Str(hex.clone()))));
        // …child spans match by prefix…
        let child_hex = traced.child(3).to_string();
        {
            let _scope = crate::trace::trace_scope(traced.child(3));
            let _s = span("test", "child-span");
        }
        assert_eq!(events_for_trace(&hex).len(), 3);
        // Family matching is symmetric: querying by the child id also
        // recovers the parent's spans (they share the 16-hex prefix).
        assert_eq!(events_for_trace(&child_hex).len(), 3);
        // …and the rings still hold everything for the full drain.
        crate::set_enabled(false);
        let all = drain();
        assert_eq!(all.len(), 5);
        let unstamped = all
            .iter()
            .filter(|e| e.args.iter().all(|(k, _)| *k != "trace"))
            .count();
        assert_eq!(unstamped, 1, "only the scope-less span lacks a trace arg");
    }
}
