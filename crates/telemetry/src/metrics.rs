//! The global metrics registry: named counters, gauges and log₂-bucketed
//! histograms.
//!
//! Metric handles are `Arc`s into a process-wide registry, so hot call
//! sites can resolve a name once and update lock-free afterwards; casual
//! sites just call [`counter`]/[`gauge`]/[`histogram`] per update (one
//! short map lock). Updates are plain relaxed atomics — cross-metric
//! consistency is not promised, totals are.
//!
//! [`snapshot`] freezes everything into a [`MetricsSnapshot`] with stable
//! (sorted) ordering for the text and JSON exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX` (`2^0 ..= 2^63`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram of `u64` samples (durations, sizes).
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds samples in
/// `[2^(i-1), 2^i)`. Coarse, allocation-free, and enough to answer "is
/// this microseconds or milliseconds" — the question the pipeline asks.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index a sample lands in: 0 for 0, else `floor(log₂ v) + 1`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, …).
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn freeze(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_lower_bound(i), n))
                })
                .collect(),
        }
    }
}

/// A frozen histogram: `(bucket lower bound, sample count)` pairs for the
/// non-empty buckets, in ascending bound order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    windowed_histograms: Mutex<BTreeMap<String, Arc<crate::window::WindowedHistogram>>>,
    windowed_counters: Mutex<BTreeMap<String, Arc<crate::window::WindowedCounter>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn get_or_insert<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(v) = map.get(name) {
        return Arc::clone(v);
    }
    let v = Arc::new(T::default());
    map.insert(name.to_string(), Arc::clone(&v));
    v
}

/// The counter named `name`, created on first use.
pub fn counter(name: &str) -> Arc<Counter> {
    get_or_insert(&registry().counters, name)
}

/// The gauge named `name`, created on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    get_or_insert(&registry().gauges, name)
}

/// The histogram named `name`, created on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    get_or_insert(&registry().histograms, name)
}

/// The sliding-window histogram named `name`, created on first use.
/// Windowed metrics materialize into [`snapshot_at`] as derived gauges
/// (`{name}/p50`, `/p95`, `/p99`, `/window_count`) so every exporter
/// renders them without knowing windows exist.
pub fn windowed_histogram(name: &str) -> Arc<crate::window::WindowedHistogram> {
    get_or_insert(&registry().windowed_histograms, name)
}

/// The sliding-window counter named `name`, created on first use.
/// Materializes into [`snapshot_at`] as the derived gauge `{name}/60s`.
pub fn windowed_counter(name: &str) -> Arc<crate::window::WindowedCounter> {
    get_or_insert(&registry().windowed_counters, name)
}

/// Marker trait re-exported at the crate root so callers can say
/// "anything in the registry"; today all three metric kinds implement it.
pub trait Reset {
    /// Returns the metric to its zero state.
    fn reset(&self);
}

impl Reset for Counter {
    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Reset for Gauge {
    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Reset for Histogram {
    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Removes every registered metric. Handles held by callers keep working
/// but are no longer visible to [`snapshot`]; a session boundary (a CLI
/// run, a test) starts from a clean registry.
pub fn reset() {
    let r = registry();
    r.counters.lock().unwrap_or_else(|e| e.into_inner()).clear();
    r.gauges.lock().unwrap_or_else(|e| e.into_inner()).clear();
    r.histograms
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    r.windowed_histograms
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    r.windowed_counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// A point-in-time copy of the whole registry, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Freezes the registry.
pub fn snapshot() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        counters: r
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect(),
        gauges: r
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect(),
        histograms: r
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, h)| (n.clone(), h.freeze()))
            .collect(),
    }
}

/// Freezes the registry *including* the sliding-window metrics,
/// evaluated at the given clock reading ([`crate::now_ns()`] for live
/// use, a synthetic clock under test). Each windowed histogram becomes
/// four derived gauges — `{name}/p50`, `{name}/p95`, `{name}/p99`,
/// `{name}/window_count` — and each windowed counter becomes
/// `{name}/60s`, so the text/JSON/Prometheus exporters render windowed
/// metrics with no special cases.
pub fn snapshot_at(now_ns: u64) -> MetricsSnapshot {
    let mut snap = snapshot();
    let r = registry();
    for (name, w) in r
        .windowed_histograms
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
    {
        let s = w.summary_at(now_ns);
        snap.gauges.insert(format!("{name}/p50"), s.p50 as i64);
        snap.gauges.insert(format!("{name}/p95"), s.p95 as i64);
        snap.gauges.insert(format!("{name}/p99"), s.p99 as i64);
        snap.gauges
            .insert(format!("{name}/window_count"), s.count as i64);
    }
    for (name, c) in r
        .windowed_counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
    {
        snap.gauges
            .insert(format!("{name}/60s"), c.total_at(now_ns) as i64);
    }
    snap
}

impl MetricsSnapshot {
    /// True when nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as aligned text, one metric per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter   {name} = {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge     {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name}: count {}, sum {}, mean {:.1}",
                h.count,
                h.sum,
                h.mean()
            );
            for &(bound, n) in &h.buckets {
                let _ = writeln!(out, "          ≥{bound}: {n}");
            }
        }
        out
    }

    /// Renders the snapshot as JSON (stable key order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(out, "{sep}\n    {}: {v}", crate::json::quote(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        let mut first = true;
        for (name, v) in &self.gauges {
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(out, "{sep}\n    {}: {v}", crate::json::quote(name));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            let sep = if first { "" } else { "," };
            first = false;
            let buckets = h
                .buckets
                .iter()
                .map(|&(bound, n)| format!("[{bound}, {n}]"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"count\": {}, \"sum\": {}, \"buckets\": [{buckets}]}}",
                crate::json::quote(name),
                h.count,
                h.sum
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
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
    fn counters_gauges_histograms_register_and_snapshot() {
        let _guard = serial();
        reset();
        counter("t/c").add(5);
        counter("t/c").inc();
        gauge("t/g").set(-3);
        gauge("t/g").add(1);
        let h = histogram("t/h");
        for v in [0u64, 1, 5, 5, 1000] {
            h.record(v);
        }
        let snap = snapshot();
        assert_eq!(snap.counters["t/c"], 6);
        assert_eq!(snap.gauges["t/g"], -2);
        let hs = &snap.histograms["t/h"];
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1011);
        assert_eq!(
            hs.buckets,
            vec![(0, 1), (1, 1), (4, 2), (512, 1)],
            "zeros, exact powers and in-betweens land in the right buckets"
        );
        let text = snap.render_text();
        assert!(text.contains("counter   t/c = 6"), "{text}");
        assert!(text.contains("histogram t/h: count 5"), "{text}");
        let json = snap.render_json();
        assert!(json.contains("\"t/c\": 6"), "{json}");
        assert!(
            json.contains("\"buckets\": [[0, 1], [1, 1], [4, 2], [512, 1]]"),
            "{json}"
        );
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(64), 1 << 63);
        // Every sample lands in the bucket whose range contains it.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v);
            if i < HISTOGRAM_BUCKETS - 1 {
                assert!(v < bucket_lower_bound(i + 1).max(1));
            }
        }
    }

    #[test]
    fn windowed_metrics_materialize_into_snapshot_gauges() {
        let _guard = serial();
        reset();
        let now = 5_000_000_000u64; // second 5
        let w = windowed_histogram("t/win_us");
        for v in [100u64, 100, 100, 5000] {
            w.record_at(v, now);
        }
        windowed_counter("t/win_reqs").add_at(4, now);
        let snap = snapshot_at(now);
        assert_eq!(snap.gauges["t/win_us/p50"], 127);
        assert_eq!(snap.gauges["t/win_us/p99"], 8191);
        assert_eq!(snap.gauges["t/win_us/window_count"], 4);
        assert_eq!(snap.gauges["t/win_reqs/60s"], 4);
        // The plain (instant-free) snapshot stays window-free.
        assert!(snapshot().gauges.is_empty());
        // The whole window ages out together.
        let later = snapshot_at(now + 61 * 1_000_000_000);
        assert_eq!(later.gauges["t/win_us/window_count"], 0);
        assert_eq!(later.gauges["t/win_reqs/60s"], 0);
        reset();
        assert!(snapshot_at(now).is_empty(), "reset clears windowed maps");
    }

    #[test]
    fn per_metric_reset_zeroes_in_place() {
        let _guard = serial();
        reset();
        let c = counter("t/reset");
        c.add(9);
        Reset::reset(c.as_ref());
        assert_eq!(c.get(), 0);
        let h = histogram("t/reset_h");
        h.record(42);
        Reset::reset(h.as_ref());
        assert_eq!(h.count(), 0);
        assert!(h.freeze().buckets.is_empty());
        reset();
    }
}
