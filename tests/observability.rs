//! End-to-end observability: one loopback request with a client-supplied
//! trace id is followed through every surface the id must appear on —
//! the `Traceparent` response header, the flight recorder
//! (`/v1/debug/requests`), the JSONL access log, and every span of the
//! slow-trace Chrome capture (queue-wait span included). Plus the
//! windowed-histogram boundary determinism the SLO metrics rely on.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use typederive::server::{http_request, Server, ServerConfig};
use typederive::telemetry::{self, parse_chrome_trace, WindowedHistogram, WINDOW_SECONDS};

const SCHEMA: &str = "
type Person { SSN: int  name: str  date_of_birth: int }
type Employee : Person { pay_rate: float  hrs_worked: float }
accessors SSN
accessors date_of_birth
accessors pay_rate
accessors hrs_worked
method age(Person) -> int { return 2026 - get_date_of_birth($0); }
method pay(Employee) -> float { return get_pay_rate($0) * get_hrs_worked($0); }
";

fn start(config: ServerConfig) -> (Arc<Server>, String, thread::JoinHandle<()>) {
    let server = Arc::new(Server::bind(config).expect("bind a loopback port"));
    let addr = server.local_addr().unwrap().to_string();
    let runner = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.run().expect("server run"))
    };
    (server, addr, runner)
}

fn stop(server: &Server, runner: thread::JoinHandle<()>) {
    server.stop();
    runner.join().expect("runner joins cleanly");
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("td_obs_test_{}_{name}", std::process::id()));
    p
}

/// The tentpole acceptance path: a client-supplied trace id appears on
/// the response header, in the flight recorder, in the access log, and
/// on every span of the slow-trace capture — including `queue_wait` and
/// the pipeline stages under it.
#[test]
fn client_trace_id_is_visible_on_every_observability_surface() {
    const TRACE: &str = "4bf92f3577b34da6a3ce929d0e0e4736";
    let access_log = temp_path("access.log");
    let slow_dir = temp_path("slow");
    let _ = std::fs::remove_file(&access_log);
    let _ = std::fs::remove_dir_all(&slow_dir);

    let config = ServerConfig {
        access_log: Some(access_log.to_str().unwrap().to_string()),
        slow_trace_dir: Some(slow_dir.to_str().unwrap().to_string()),
        // Threshold zero: every request is "slow", so the capture is
        // deterministic.
        slow_threshold_us: Some(0),
        ..ServerConfig::default()
    };
    let (server, addr, runner) = start(config);

    let put = http_request(
        &addr,
        "PUT",
        "/v1/tenants/acme/schemas/hr",
        &[],
        Some(SCHEMA.as_bytes()),
    )
    .unwrap();
    assert_eq!(put.status, 201, "{}", put.body);

    let traceparent = format!("00-{TRACE}-00f067aa0ba902b7-01");
    let body = "{\"tenant\": \"acme\", \"schema\": \"hr\", \"type\": \"Employee\", \
                \"attrs\": [\"SSN\", \"pay_rate\", \"hrs_worked\"]}";
    let reply = http_request(
        &addr,
        "POST",
        "/v1/project",
        &[("traceparent", &traceparent)],
        Some(body.as_bytes()),
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);

    // 1. The response echoes the trace id in its Traceparent header.
    let echoed = reply
        .header("traceparent")
        .expect("traced response carries a Traceparent header");
    assert!(
        echoed.contains(TRACE),
        "response Traceparent `{echoed}` does not carry {TRACE}"
    );

    // 2. The flight recorder holds the request under the same id.
    let debug = http_request(&addr, "GET", "/v1/debug/requests", &[], None).unwrap();
    assert_eq!(debug.status, 200, "{}", debug.body);
    assert!(
        debug.body.contains(TRACE),
        "flight recorder misses trace {TRACE}: {}",
        debug.body
    );
    assert!(
        debug.body.contains("\"endpoint\": \"project\""),
        "{}",
        debug.body
    );

    // Stop the server: the access log flushes on drain (each line was
    // also flushed as written) and no more requests can race the reads.
    stop(&server, runner);

    // 3. The access log has the request's line, with the same id and
    //    the endpoint bucket.
    let log = std::fs::read_to_string(&access_log).expect("access log exists");
    let line = log
        .lines()
        .find(|l| l.contains(TRACE))
        .unwrap_or_else(|| panic!("access log misses trace {TRACE}:\n{log}"));
    assert!(line.contains("\"endpoint\": \"project\""), "{line}");
    assert!(line.contains("\"tenant\": \"acme\""), "{line}");
    assert!(line.contains("\"status\": 200"), "{line}");

    // 4. The slow-trace capture exists, parses as a Chrome trace, and
    //    every span is stamped with the request's trace family —
    //    including the queue-wait span and the pipeline stages.
    let capture = slow_dir.join(format!("slow-{TRACE}.json"));
    let text = std::fs::read_to_string(&capture)
        .unwrap_or_else(|e| panic!("slow capture {capture:?} missing: {e}"));
    let spans = parse_chrome_trace(&text).expect("capture parses as a Chrome trace");
    assert!(!spans.is_empty());
    let family = &TRACE[..16];
    for span in &spans {
        let stamp = span
            .args
            .get("trace")
            .unwrap_or_else(|| panic!("span {}/{} is unstamped", span.cat, span.name));
        assert!(
            stamp.starts_with(family),
            "span {}/{} carries foreign trace {stamp}",
            span.cat,
            span.name
        );
    }
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(
        names.contains(&"queue_wait"),
        "no queue-wait span: {names:?}"
    );
    assert!(
        names.contains(&"project"),
        "no project umbrella span: {names:?}"
    );
    // The pipeline under project() was traced too, not just the server
    // envelope.
    assert!(
        spans.iter().any(|s| s.cat != "server"),
        "only server-level spans were captured: {names:?}"
    );

    let _ = std::fs::remove_file(&access_log);
    let _ = std::fs::remove_dir_all(&slow_dir);
    telemetry::set_enabled(false);
}

/// A flight-recorder record counts the I1–I5 violations of its own
/// derivation only. The registry's `core/invariant_violations` total is
/// shared by every request (and here by the test process), so a traced
/// `project` that is still running while the total moves by 7 must
/// still record 0: its derivation reported none.
#[test]
fn a_record_counts_only_its_own_invariant_violations() {
    const TRACE: &str = "0af7651916cd43dd8448eb211c80319c";
    let (server, addr, runner) = start(ServerConfig::default());
    let put = http_request(
        &addr,
        "PUT",
        "/v1/tenants/acme/schemas/hr",
        &[],
        Some(SCHEMA.as_bytes()),
    )
    .unwrap();
    assert_eq!(put.status, 201, "{}", put.body);

    let request = {
        let addr = addr.clone();
        thread::spawn(move || {
            let traceparent = format!("00-{TRACE}-00f067aa0ba902b7-01");
            let body = "{\"tenant\": \"acme\", \"schema\": \"hr\", \"type\": \"Employee\", \
                        \"attrs\": [\"SSN\", \"pay_rate\"], \"delay_ms\": 300}";
            http_request(
                &addr,
                "POST",
                "/v1/project",
                &[("traceparent", &traceparent)],
                Some(body.as_bytes()),
            )
            .unwrap()
        })
    };
    // Land inside the request's 300 ms delay.
    thread::sleep(std::time::Duration::from_millis(100));
    telemetry::metrics::counter("core/invariant_violations").add(7);
    let reply = request.join().unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);

    let debug = http_request(&addr, "GET", "/v1/debug/requests", &[], None).unwrap();
    stop(&server, runner);
    let at = debug
        .body
        .find(TRACE)
        .unwrap_or_else(|| panic!("flight recorder misses trace {TRACE}: {}", debug.body));
    let record = &debug.body[at..at + debug.body[at..].find('}').unwrap()];
    assert!(
        record.ends_with("\"invariant_violations\": 0"),
        "a concurrent violation was charged to this request: {record}"
    );
}

/// The SLO window math is deterministic at its boundaries: quantiles
/// report bucket upper bounds, samples expire exactly at 60s, and slot
/// reuse discards the stale second.
#[test]
fn windowed_histogram_boundaries_are_deterministic() {
    let h = WindowedHistogram::default();
    let second = |s: u64| s * 1_000_000_000;

    // 90 fast samples and 10 slow ones at t=10s: the quantile ranks are
    // exact, and values report as bucket inclusive upper bounds.
    for _ in 0..90 {
        h.record_at(100, second(10));
    }
    for _ in 0..10 {
        h.record_at(5_000, second(10));
    }
    let s = h.summary_at(second(10));
    assert_eq!(s.count, 100);
    assert_eq!(s.p50, 127);
    assert_eq!(s.p95, 8_191);
    assert_eq!(s.p99, 8_191);

    // Visible through second 10+59; gone at second 10+60 exactly.
    let s = h.summary_at(second(10 + WINDOW_SECONDS - 1));
    assert_eq!(s.count, 100, "samples expired a second early");
    let s = h.summary_at(second(10 + WINDOW_SECONDS));
    assert_eq!(s.count, 0, "samples outlived the 60s window");

    // Slot reuse: a sample 60s after another lands in the same slot and
    // must discard the stale second, not merge with it.
    h.record_at(100, second(70));
    let s = h.summary_at(second(70));
    assert_eq!(s.count, 1);

    // Sub-second boundaries share the slot.
    h.record_at(100, second(70) + 999_999_999);
    let s = h.summary_at(second(70));
    assert_eq!(s.count, 2);
}
