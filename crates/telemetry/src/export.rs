//! Exporters: Chrome trace-event JSON (Perfetto-loadable), a round-trip
//! parser for it, and a flat text summary.
//!
//! The trace writer emits the "JSON Array Format" variant of the Chrome
//! trace-event spec — an object with a `traceEvents` array of complete
//! (`"ph": "X"`) events. Timestamps are microseconds with three decimal
//! places, which is nanosecond-exact, so [`parse_chrome_trace`] recovers
//! the original `u64` nanosecond values and round-trip tests can compare
//! spans field-for-field.

use crate::json::{quote, Json};
use crate::metrics::MetricsSnapshot;
use crate::span::{ArgValue, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maps a registry metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): path separators and anything else
/// illegal collapse to `_`, and a leading digit gets a `_` prefix.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => out.push(c),
            _ => out.push('_'),
        }
    }
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Renders a metrics snapshot in the Prometheus text exposition format
/// (version 0.0.4): one `# TYPE` header per metric, counters and gauges
/// as plain samples, histograms as cumulative `le`-bucketed series with
/// `_sum` and `_count`.
///
/// The registry's log₂ buckets translate exactly: samples are integral,
/// so the bucket covering `[2^(i-1), 2^i)` is the cumulative series point
/// `le="2^i - 1"`, the zero bucket is `le="0"`, and `le="+Inf"` closes
/// the series with the total count. Registry names like
/// `server/latency_us/project` become `server_latency_us_project`.
pub fn render_prometheus(metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &metrics.counters {
        let name = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in &metrics.gauges {
        let name = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, h) in &metrics.histograms {
        let name = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for &(lower, n) in &h.buckets {
            cumulative += n;
            let le = if lower == 0 {
                0
            } else {
                lower.saturating_mul(2).saturating_sub(1)
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

fn write_args(out: &mut String, event: &SpanEvent) {
    out.push_str("\"args\":{");
    let mut first = true;
    for (key, value) in &event.args {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:", quote(key));
        match value {
            ArgValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            ArgValue::Str(s) => out.push_str(&quote(s)),
        }
    }
    out.push('}');
}

/// Renders drained span events as Chrome trace-event JSON. Load the
/// result in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},",
            quote(&event.name),
            quote(event.cat),
            event.start_ns / 1_000,
            event.start_ns % 1_000,
            event.dur_ns / 1_000,
            event.dur_ns % 1_000,
            event.tid,
        );
        write_args(&mut out, event);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// One span read back from a Chrome trace file. Owned mirror of
/// [`SpanEvent`] minus the merge bookkeeping (`depth`, `seq`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceSpan {
    /// Span category.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Start in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Thread id.
    pub tid: u64,
    /// Arguments as sorted key → rendered-value pairs.
    pub args: BTreeMap<String, String>,
}

fn micros_to_ns(us: f64) -> u64 {
    (us * 1_000.0).round() as u64
}

/// Parses a Chrome trace-event JSON document (the object-with-
/// `traceEvents` form [`chrome_trace`] writes, or a bare event array)
/// back into spans. Non-complete events (`ph` ≠ `"X"`) are skipped.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceSpan>, String> {
    let doc = Json::parse(text)?;
    let events = match &doc {
        Json::Arr(items) => items,
        Json::Obj(_) => doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing traceEvents array")?,
        _ => return Err("trace is neither an object nor an array".to_string()),
    };
    let mut spans = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let ph = event.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "X" {
            continue;
        }
        let field = |name: &str| -> Result<&Json, String> {
            event
                .get(name)
                .ok_or_else(|| format!("event {i}: missing field '{name}'"))
        };
        let num = |name: &str| -> Result<f64, String> {
            field(name)?
                .as_f64()
                .ok_or_else(|| format!("event {i}: field '{name}' is not a number"))
        };
        let mut args = BTreeMap::new();
        if let Some(Json::Obj(fields)) = event.get("args") {
            for (key, value) in fields {
                let rendered = match value {
                    Json::Str(s) => s.clone(),
                    Json::Num(n) => {
                        if n.fract() == 0.0 {
                            format!("{}", *n as i64)
                        } else {
                            format!("{n}")
                        }
                    }
                    Json::Bool(b) => b.to_string(),
                    Json::Null => "null".to_string(),
                    _ => return Err(format!("event {i}: nested arg '{key}' unsupported")),
                };
                args.insert(key.clone(), rendered);
            }
        }
        spans.push(TraceSpan {
            cat: field("cat")?
                .as_str()
                .ok_or_else(|| format!("event {i}: 'cat' is not a string"))?
                .to_string(),
            name: field("name")?
                .as_str()
                .ok_or_else(|| format!("event {i}: 'name' is not a string"))?
                .to_string(),
            start_ns: micros_to_ns(num("ts")?),
            dur_ns: micros_to_ns(num("dur")?),
            tid: num("tid")? as u64,
            args,
        });
    }
    Ok(spans)
}

// --- text summary --------------------------------------------------------

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a flat text summary: spans aggregated by `(category, name)`
/// with count / total / mean / min / max, followed by the metrics
/// snapshot (when non-empty). This is what `tdv stats` and `--metrics`
/// print.
pub fn render_summary(events: &[SpanEvent], metrics: &MetricsSnapshot) -> String {
    #[derive(Default)]
    struct Agg {
        count: u64,
        total: u64,
        min: u64,
        max: u64,
    }
    let mut groups: BTreeMap<(&str, &str), Agg> = BTreeMap::new();
    for event in events {
        let agg = groups.entry((event.cat, &event.name)).or_default();
        if agg.count == 0 {
            agg.min = event.dur_ns;
        }
        agg.count += 1;
        agg.total += event.dur_ns;
        agg.min = agg.min.min(event.dur_ns);
        agg.max = agg.max.max(event.dur_ns);
    }
    let mut out = String::new();
    if groups.is_empty() {
        out.push_str("no spans recorded\n");
    } else {
        let name_width = groups
            .keys()
            .map(|(cat, name)| cat.len() + 1 + name.len())
            .max()
            .unwrap_or(0)
            .max("span".len());
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>6}  {:>9}  {:>9}  {:>9}  {:>9}",
            "span", "count", "total", "mean", "min", "max"
        );
        for ((cat, name), agg) in &groups {
            let _ = writeln!(
                out,
                "{:<name_width$}  {:>6}  {:>9}  {:>9}  {:>9}  {:>9}",
                format!("{cat}/{name}"),
                agg.count,
                format_ns(agg.total),
                format_ns(agg.total / agg.count),
                format_ns(agg.min),
                format_ns(agg.max),
            );
        }
    }
    if !metrics.is_empty() {
        out.push('\n');
        out.push_str(&metrics.render_text());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn event(name: &str, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            cat: "test",
            name: Cow::Owned(name.to_string()),
            start_ns,
            dur_ns,
            depth: 0,
            tid: 1,
            seq: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn chrome_trace_round_trips_ns_exact() {
        let mut e = event("stage", 1_234_567, 89_012);
        e.args = vec![
            ("idx", ArgValue::Int(4)),
            ("desc", ArgValue::Str("T attrs a,b".to_string())),
        ];
        let trace = chrome_trace(&[e]);
        let spans = parse_chrome_trace(&trace).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "stage");
        assert_eq!(spans[0].cat, "test");
        assert_eq!(spans[0].start_ns, 1_234_567);
        assert_eq!(spans[0].dur_ns, 89_012);
        assert_eq!(spans[0].tid, 1);
        assert_eq!(spans[0].args["idx"], "4");
        assert_eq!(spans[0].args["desc"], "T attrs a,b");
    }

    #[test]
    fn hostile_span_names_survive_the_round_trip() {
        for name in [
            "quote\"backslash\\newline\n",
            "tab\tret\r",
            "ctrl\u{1}\u{1f}",
            "unicode éπ→",
        ] {
            let trace = chrome_trace(&[event(name, 0, 1)]);
            let spans = parse_chrome_trace(&trace).unwrap();
            assert_eq!(spans[0].name, name, "trace: {trace}");
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"other\": 1}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\": []} junk").is_err());
    }

    #[test]
    fn parser_accepts_bare_arrays_and_skips_non_complete_events() {
        let text = r#"[
            {"name":"m","cat":"c","ph":"M","ts":0,"dur":0,"pid":1,"tid":1},
            {"name":"x","cat":"c","ph":"X","ts":1.5,"dur":2.25,"pid":1,"tid":7,"args":{}}
        ]"#;
        let spans = parse_chrome_trace(text).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_ns, 1_500);
        assert_eq!(spans[0].dur_ns, 2_250);
        assert_eq!(spans[0].tid, 7);
    }

    #[test]
    fn summary_aggregates_and_formats_units() {
        let events = vec![
            event("fast", 0, 500),
            event("fast", 10, 1_500),
            event("slow", 20, 2_000_000_000),
        ];
        let summary = render_summary(&events, &MetricsSnapshot::default());
        assert!(summary.contains("test/fast"), "{summary}");
        assert!(summary.contains("2.00s"), "{summary}");
        assert!(summary.contains("500ns"), "{summary}");
        assert!(
            summary.contains("1.5µs") || summary.contains("1.0µs"),
            "{summary}"
        );
        let empty = render_summary(&[], &MetricsSnapshot::default());
        assert_eq!(empty, "no spans recorded\n");
    }

    #[test]
    fn prometheus_exposition_renders_all_metric_kinds() {
        use crate::metrics::HistogramSnapshot;
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("server/requests/project".into(), 7);
        snap.gauges.insert("server/queue_depth".into(), -2);
        snap.histograms.insert(
            "server/latency_us/project".into(),
            HistogramSnapshot {
                count: 4,
                sum: 1041,
                buckets: vec![(0, 1), (4, 2), (1024, 1)],
            },
        );
        let text = render_prometheus(&snap);
        assert!(
            text.contains("# TYPE server_requests_project counter\nserver_requests_project 7\n"),
            "{text}"
        );
        assert!(text.contains("server_queue_depth -2"), "{text}");
        // Buckets are cumulative with exact integral upper bounds.
        assert!(
            text.contains("server_latency_us_project_bucket{le=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("server_latency_us_project_bucket{le=\"7\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("server_latency_us_project_bucket{le=\"2047\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("server_latency_us_project_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("server_latency_us_project_sum 1041"),
            "{text}"
        );
        assert!(text.contains("server_latency_us_project_count 4"), "{text}");
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("a/b-c.d"), "a_b_c_d");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name(""), "_");
        assert_eq!(prometheus_name("ok_name:unit"), "ok_name:unit");
    }
}
