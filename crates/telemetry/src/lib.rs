//! # td-telemetry — unified tracing and metrics for the derivation pipeline
//!
//! The pipeline grew four disjoint, hand-plumbed stat structs
//! (`StageTimings`, `DispatchCacheStats`, `BatchStats`, lint counters)
//! and no way to see *where time goes inside one request*. This crate is
//! the shared observability substrate they all feed into:
//!
//! * **[`span()`]s** — RAII guards pushing completed events onto
//!   thread-local ring buffers, timestamped against one process-wide
//!   monotonic epoch. A span records its category, name, wall-clock
//!   window, nesting depth, logical thread id and a few key/value args.
//! * **[`metrics`]** — a global registry of named counters, gauges and
//!   log₂-bucketed histograms, snapshotted on demand; plus sliding
//!   60-second [`window`] histograms/counters for tail latency over the
//!   last minute, materialized as derived gauges by
//!   [`metrics::snapshot_at`].
//! * **[`trace`]** — request-scoped correlation: a [`TraceId`] installed
//!   with [`trace_scope`] stamps every span completed on that thread, so
//!   one request's spans group end-to-end across the pipeline and
//!   [`events_for_trace`] can lift them out non-destructively.
//! * **exporters** — a flat text summary ([`render_summary`]), metrics
//!   JSON ([`MetricsSnapshot::render_json`]), and the Chrome trace-event
//!   format ([`chrome_trace`]) loadable in Perfetto / `chrome://tracing`,
//!   with a parser ([`parse_chrome_trace`]) for round-trip tests.
//! * **[`json`]** — the workspace's one JSON value, parser and string
//!   quoting, shared by every crate that reads or writes JSON (this
//!   crate sits at the bottom of the dependency graph).
//!
//! Everything sits behind one runtime switch ([`set_enabled`]): when off
//! (the default), [`span()`] costs a single relaxed atomic load — no clock
//! read, no allocation, no lock — so instrumented hot paths stay within
//! noise of uninstrumented ones (the `telemetry/overhead` bench group and
//! the gated `ratio_telemetry_overhead` repro metric prove it).
//!
//! The crate has no external dependencies, consistent with the
//! repository's vendored-stub policy: the container resolves no crates
//! registry, so the tracing/metrics machinery is hand-rolled for exactly
//! the surface the pipeline needs.
//!
//! ```
//! td_telemetry::set_enabled(true);
//! {
//!     let _outer = td_telemetry::span("demo", "outer");
//!     let _inner = td_telemetry::span("demo", "inner");
//!     td_telemetry::metrics::counter("demo/work").add(3);
//! }
//! let events = td_telemetry::drain();
//! assert_eq!(events.len(), 2);
//! let trace = td_telemetry::chrome_trace(&events);
//! let parsed = td_telemetry::parse_chrome_trace(&trace).unwrap();
//! assert_eq!(parsed.len(), 2);
//! td_telemetry::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;
pub mod window;

pub use export::{chrome_trace, parse_chrome_trace, render_prometheus, render_summary, TraceSpan};
pub use metrics::{MetricsSnapshot, Reset};
pub use span::{
    current_depth, depth_scope, drain, dropped_events_total, emit_span, events_for_trace, span,
    span_with_args, ArgValue, DepthScope, SpanEvent, SpanGuard,
};
pub use trace::{current_trace, trace_scope, TraceId, TraceScope};
pub use window::{WindowSummary, WindowedCounter, WindowedHistogram, WINDOW_SECONDS};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when telemetry collection is on. One relaxed atomic load — this
/// is the whole disabled-mode cost of every instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off at runtime. Spans opened while
/// enabled still record on drop after a disable (their clock was already
/// read); spans opened while disabled never record.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide monotonic epoch every timestamp is relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch. Monotonic and shared across
/// threads, so per-thread buffers merge on one axis.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Telemetry state is process-global; tests that toggle it serialize
    /// here so `cargo test`'s parallel runner cannot interleave them.
    pub(crate) static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn switch_toggles_and_spans_respect_it() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let _ = drain();
        {
            let _s = span("test", "ignored-while-off");
        }
        assert!(drain().is_empty());

        set_enabled(true);
        assert!(enabled());
        {
            let _s = span("test", "recorded-while-on");
        }
        set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "recorded-while-on");
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
