//! End-to-end loopback tests for the derivation server: real sockets,
//! real HTTP parsing, the full accept → io pool → admission queue →
//! exec worker pipeline. What the CI smoke job checks shallowly against
//! a running process, these tests check precisely in-process: tenant
//! isolation, version-bump invalidation, concurrency determinism,
//! admission control, and protocol-level rejection.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use typederive::model::schema_to_text;
use typederive::server::json::{quote, str_array};
use typederive::server::{http_call, Api, Server, ServerConfig};
use typederive::workload::{
    apply_random_mutations, batch_requests, fig3_with_z1, server_replay, wide_schema, ReplaySpec,
};

/// Binds a server on a free loopback port and serves it from a
/// background thread. Returns the server, its `host:port`, and the
/// runner handle (join it through [`stop`]).
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

const SCHEMA_A: &str = "
type Person { SSN: int  name: str  date_of_birth: int }
type Employee : Person { pay_rate: float  hrs_worked: float }
accessors SSN
accessors date_of_birth
accessors pay_rate
accessors hrs_worked
method age(Person) -> int { return 2026 - get_date_of_birth($0); }
method pay(Employee) -> float { return get_pay_rate($0) * get_hrs_worked($0); }
";

/// Same type names as SCHEMA_A, different shape — what tenant isolation
/// must keep apart.
const SCHEMA_B: &str = "
type Person { SSN: int  badge: int }
type Employee : Person { office: int }
accessors SSN
accessors badge
accessors office
";

fn put_schema(addr: &str, tenant: &str, name: &str, text: &str) -> (u16, String) {
    http_call(
        addr,
        "PUT",
        &format!("/v1/tenants/{tenant}/schemas/{name}"),
        Some(text.as_bytes()),
    )
    .expect("PUT schema")
}

fn project_body(tenant: &str, schema: &str, ty: &str, attrs: &[&str]) -> String {
    let attrs = attrs
        .iter()
        .map(|a| format!("\"{a}\""))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"tenant\": \"{tenant}\", \"schema\": \"{schema}\", \"type\": \"{ty}\", \"attrs\": [{attrs}]}}"
    )
}

#[test]
fn tenants_with_the_same_schema_name_stay_isolated() {
    let (server, addr, runner) = start(ServerConfig::default());

    let (status, _) = put_schema(&addr, "acme", "hr", SCHEMA_A);
    assert_eq!(status, 201);
    let (status, _) = put_schema(&addr, "globex", "hr", SCHEMA_B);
    assert_eq!(status, 201);

    // The same request body (modulo tenant) hits the same schema *name*
    // but must answer from each tenant's own registration.
    let (sa, ba) = http_call(
        &addr,
        "POST",
        "/v1/project",
        Some(project_body("acme", "hr", "Employee", &["SSN"]).as_bytes()),
    )
    .unwrap();
    let (sb, bb) = http_call(
        &addr,
        "POST",
        "/v1/project",
        Some(project_body("globex", "hr", "Employee", &["SSN"]).as_bytes()),
    )
    .unwrap();
    assert_eq!((sa, sb), (200, 200), "{ba}\n{bb}");
    assert_ne!(ba, bb, "tenant registrations leaked into each other");
    // acme's schema knows pay_rate; globex's does not.
    let (s, _) = http_call(
        &addr,
        "POST",
        "/v1/project",
        Some(project_body("acme", "hr", "Employee", &["pay_rate"]).as_bytes()),
    )
    .unwrap();
    assert_eq!(s, 200);
    let (s, body) = http_call(
        &addr,
        "POST",
        "/v1/project",
        Some(project_body("globex", "hr", "Employee", &["pay_rate"]).as_bytes()),
    )
    .unwrap();
    assert_eq!(s, 400, "{body}");

    stop(&server, runner);
}

#[test]
fn version_bump_replaces_the_registered_schema() {
    let (server, addr, runner) = start(ServerConfig::default());

    let (status, body) = put_schema(&addr, "t", "s", SCHEMA_A);
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"version\": 1"), "{body}");

    // Warm the snapshot, then swap the registration.
    let (s, first) = http_call(
        &addr,
        "POST",
        "/v1/project",
        Some(project_body("t", "s", "Employee", &["SSN"]).as_bytes()),
    )
    .unwrap();
    assert_eq!(s, 200, "{first}");

    let (status, body) = put_schema(&addr, "t", "s", SCHEMA_B);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"version\": 2"), "{body}");
    let (_, got) = http_call(&addr, "GET", "/v1/tenants/t/schemas/s", None).unwrap();
    assert!(got.contains("\"version\": 2"), "{got}");
    assert!(got.contains("badge"), "{got}");

    // The old schema's shape is gone: pay_rate now fails, badge works,
    // and the same SSN request answers from the new hierarchy.
    let (s, body) = http_call(
        &addr,
        "POST",
        "/v1/project",
        Some(project_body("t", "s", "Employee", &["pay_rate"]).as_bytes()),
    )
    .unwrap();
    assert_eq!(s, 400, "{body}");
    let (s, body) = http_call(
        &addr,
        "POST",
        "/v1/project",
        Some(project_body("t", "s", "Employee", &["badge"]).as_bytes()),
    )
    .unwrap();
    assert_eq!(s, 200, "{body}");
    let (s, second) = http_call(
        &addr,
        "POST",
        "/v1/project",
        Some(project_body("t", "s", "Employee", &["SSN"]).as_bytes()),
    )
    .unwrap();
    assert_eq!(s, 200);
    assert_ne!(first, second, "v2 must not answer from v1's snapshot");

    stop(&server, runner);
}

#[test]
fn concurrent_mixed_tenant_load_matches_sequential_dispatch() {
    // Sequential ground truth: the same replay, request by request,
    // against a socket-free Api.
    let schema = fig3_with_z1();
    let spec = ReplaySpec {
        tenants: 2,
        requests: 20,
        ..ReplaySpec::default()
    };
    let replay = server_replay(&schema, &spec);
    let api = Api::new();
    for tenant in &replay.tenants {
        let r = api.handle(
            "PUT",
            &format!("/v1/tenants/{tenant}/schemas/{}", replay.schema_name),
            "",
            replay.schema_text.as_bytes(),
        );
        assert_eq!(r.status, 201, "{}", r.body);
    }
    let expected: Vec<(u16, String)> = replay
        .requests
        .iter()
        .map(|r| {
            let resp = api.handle("POST", &r.path, "", r.body.as_bytes());
            (resp.status, resp.body)
        })
        .collect();

    // Live server, every request on its own thread.
    let (server, addr, runner) = start(ServerConfig {
        exec_threads: 4,
        queue_slots: 64,
        ..ServerConfig::default()
    });
    for tenant in &replay.tenants {
        let (status, body) = put_schema(&addr, tenant, &replay.schema_name, &replay.schema_text);
        assert_eq!(status, 201, "{body}");
    }
    let got: Vec<(u16, String)> = thread::scope(|scope| {
        let handles: Vec<_> = replay
            .requests
            .iter()
            .map(|r| {
                let addr = addr.clone();
                scope.spawn(move || {
                    http_call(&addr, "POST", &r.path, Some(r.body.as_bytes()))
                        .expect("replay request")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(got.len(), expected.len());
    for (i, (got, expected)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            got, expected,
            "request #{i} ({}) diverged under concurrency",
            replay.requests[i].path
        );
    }

    stop(&server, runner);
}

/// `analyze` reports whether its answer came from the cache; that is
/// cache state, not the answer, so comparisons mask it.
fn mask_cache_state(body: &str) -> String {
    body.replace("\"schema_cached\": true", "\"schema_cached\": _")
        .replace("\"schema_cached\": false", "\"schema_cached\": _")
        .replace("\"request_cached\": true", "\"request_cached\": _")
        .replace("\"request_cached\": false", "\"request_cached\": _")
}

#[test]
fn reads_racing_edits_answer_as_one_of_the_two_versions() {
    // Reads answer on the registered snapshot itself, so a PUT that
    // swaps it mid-read must leave every read consistent with exactly
    // one version: each read holds the entry it looked up to the end.
    let base = wide_schema(64, 7);
    let base_text = schema_to_text(&base);
    let mut edited = base.clone();
    apply_random_mutations(&mut edited, 3, 7);
    let edited_text = schema_to_text(&edited);
    assert_ne!(base_text, edited_text);
    let texts = [base_text.as_str(), edited_text.as_str()];

    let verbs = ["applicable", "lint", "explain", "analyze"];
    let reads: Vec<(String, String)> = batch_requests(&base, 24, 0.5, 7)
        .into_iter()
        .enumerate()
        .map(|(i, (source, projection))| {
            let verb = verbs[i % verbs.len()];
            let ty = base.type_name(source);
            let attrs: Vec<&str> = projection.iter().map(|&a| base.attr_name(a)).collect();
            // The method of the source's own 8-type cluster.
            let method = if verb == "explain" {
                let n: usize = ty[1..].parse().expect("wide type name");
                format!(", \"method\": {}", quote(&format!("wf{}_m", n / 8)))
            } else {
                String::new()
            };
            let body = format!(
                "{{\"tenant\": \"t\", \"schema\": \"wide\", \"type\": {}, \"attrs\": {}{method}}}",
                quote(ty),
                str_array(&attrs)
            );
            (format!("/v1/{verb}"), body)
        })
        .collect();

    // Sequential answers for each version.
    let api = Api::new();
    let expected: Vec<Vec<(u16, String)>> = texts
        .iter()
        .map(|text| {
            let put = api.handle("PUT", "/v1/tenants/t/schemas/wide", "", text.as_bytes());
            assert!(put.status < 300, "{}", put.body);
            reads
                .iter()
                .map(|(path, body)| {
                    let r = api.handle("POST", path, "", body.as_bytes());
                    assert_eq!(r.status, 200, "{path} {body}: {}", r.body);
                    (r.status, mask_cache_state(&r.body))
                })
                .collect()
        })
        .collect();
    // The edit must show in some answers, or any version would match.
    assert!((0..reads.len()).any(|i| expected[0][i] != expected[1][i]));

    let (server, addr, runner) = start(ServerConfig {
        exec_threads: 2,
        queue_slots: 64,
        ..ServerConfig::default()
    });
    let (status, body) = put_schema(&addr, "t", "wide", texts[0]);
    assert_eq!(status, 201, "{body}");
    let puts = AtomicUsize::new(0);
    let readers_done = AtomicUsize::new(0);
    thread::scope(|scope| {
        for reader in 0..3 {
            let (addr, reads, expected) = (&addr, &reads, &expected);
            let (puts, readers_done) = (&puts, &readers_done);
            scope.spawn(move || {
                // Keep reading until several edits have landed.
                let mut round = 0;
                while round < 2 || puts.load(Ordering::SeqCst) < 4 {
                    for k in 0..reads.len() {
                        let i = (k + reader * 7) % reads.len();
                        let (path, body) = &reads[i];
                        let (status, answer) =
                            http_call(addr, "POST", path, Some(body.as_bytes())).expect("read");
                        assert!(status < 500, "{path} {body}: {status} {answer}");
                        let got = (status, mask_cache_state(&answer));
                        assert!(
                            got == expected[0][i] || got == expected[1][i],
                            "{path} {body} matches neither version: {got:?}"
                        );
                    }
                    round += 1;
                }
                readers_done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let (addr, puts, readers_done) = (&addr, &puts, &readers_done);
        scope.spawn(move || {
            // Bounded, so a failed reader cannot leave this loop spinning.
            let mut version = 1;
            while readers_done.load(Ordering::SeqCst) < 3 && version < 500 {
                version += 1;
                let (status, body) = put_schema(addr, "t", "wide", texts[version % 2]);
                assert_eq!(status, 200, "{body}");
                assert!(body.contains(&format!("\"version\": {version}")), "{body}");
                puts.fetch_add(1, Ordering::SeqCst);
            }
        });
    });
    assert!(puts.load(Ordering::SeqCst) >= 4);

    stop(&server, runner);
}

#[test]
fn full_tenant_queue_answers_429_with_retry_after() {
    // One exec worker, one queue slot: a slow request occupies the
    // worker, the next occupies the slot, the third must bounce.
    let (server, addr, runner) = start(ServerConfig {
        exec_threads: 1,
        queue_slots: 1,
        ..ServerConfig::default()
    });
    put_schema(&addr, "t", "s", SCHEMA_A);
    let slow = concat!(
        "{\"tenant\": \"t\", \"schema\": \"s\", \"type\": \"Employee\", ",
        "\"attrs\": [\"SSN\"], \"delay_ms\": 600}"
    );

    let first = {
        let (addr, slow) = (addr.clone(), slow);
        thread::spawn(move || http_call(&addr, "POST", "/v1/project", Some(slow.as_bytes())))
    };
    // Let the slow request reach the exec worker before filling the slot.
    thread::sleep(Duration::from_millis(200));
    let second = {
        let (addr, slow) = (addr.clone(), slow);
        thread::spawn(move || http_call(&addr, "POST", "/v1/project", Some(slow.as_bytes())))
    };
    thread::sleep(Duration::from_millis(200));

    // Raw call so the Retry-After header is visible.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let head = format!(
        "POST /v1/project HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        slow.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(slow.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 429 "), "{raw}");
    assert!(raw.contains("Retry-After: 1"), "{raw}");
    assert!(raw.contains("no free queue slots"), "{raw}");

    // A different tenant is not starved by t's overflow.
    put_schema(&addr, "other", "s", SCHEMA_A);
    let (status, body) = http_call(
        &addr,
        "POST",
        "/v1/project",
        Some(project_body("other", "s", "Employee", &["SSN"]).as_bytes()),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");

    // The occupied worker and the queued request both finish with 200.
    let (s1, b1) = first.join().unwrap().unwrap();
    let (s2, b2) = second.join().unwrap().unwrap();
    assert_eq!((s1, s2), (200, 200), "{b1}\n{b2}");

    stop(&server, runner);
}

#[test]
fn malformed_http_and_oversized_bodies_are_rejected() {
    let (server, addr, runner) = start(ServerConfig {
        max_body: 2048,
        ..ServerConfig::default()
    });

    // Not HTTP at all.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"EHLO example.org\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");

    // A declared body over the limit answers 413 before reading it.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(
            format!("POST /v1/project HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 999999\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413 "), "{raw}");

    // An actual oversized body through the client helper.
    let big = "x".repeat(4096);
    let (status, _) = http_call(&addr, "POST", "/v1/project", Some(big.as_bytes())).unwrap();
    assert_eq!(status, 413);

    // Sanity: a well-formed request still answers on the same server.
    let (status, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    stop(&server, runner);
}

#[test]
fn hostile_json_bodies_get_400_and_the_server_keeps_serving() {
    // The default body cap, so both bodies are read in full and reach
    // the JSON parser.
    let (server, addr, runner) = start(ServerConfig::default());

    // 64 KiB of `[`: the parser's depth bound answers 400 instead of
    // recursing until the worker's stack overflows.
    let deep = "[".repeat(64 << 10);
    let (status, body) = http_call(&addr, "POST", "/v1/project", Some(deep.as_bytes())).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than 128"), "{body}");

    // One 1 MiB string field decodes in one pass, then fails on its
    // unknown field name.
    let long = format!("{{\"pad\": \"{}\"}}", "x".repeat(1 << 20));
    let (status, body) = http_call(&addr, "POST", "/v1/project", Some(long.as_bytes())).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown field `pad`"), "{body}");

    let (status, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    stop(&server, runner);
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (server, addr, runner) = start(ServerConfig::default());
    put_schema(&addr, "t", "s", SCHEMA_A);

    let slow = {
        let addr = addr.clone();
        thread::spawn(move || {
            let body = "{\"tenant\": \"t\", \"schema\": \"s\", \"type\": \"Employee\", \
                        \"attrs\": [\"SSN\"], \"delay_ms\": 400}";
            http_call(&addr, "POST", "/v1/project", Some(body.as_bytes()))
        })
    };
    // Trip shutdown while the slow request is in flight; the drain must
    // finish it rather than cut the socket.
    thread::sleep(Duration::from_millis(100));
    server.stop();
    runner.join().expect("drain completes");
    let (status, body) = slow.join().unwrap().expect("in-flight request answered");
    assert_eq!(status, 200, "{body}");

    // The listener closed when the drain began: new connects are refused
    // at once, not left unanswered in the backlog.
    let err = http_call(&addr, "GET", "/healthz", None).expect_err("listener is closed");
    assert_eq!(err.kind(), ErrorKind::ConnectionRefused, "{err}");
}

/// Runs `server`, then stops it once its acceptor is blocked in `accept`
/// (a stop that lands first must work too). The runner reports through a
/// channel, so a stop that never wakes the acceptor fails the 5 s
/// `recv_timeout` instead of hanging the suite.
fn stop_while_blocked(server: Server) {
    let server = Arc::new(server);
    let (done_tx, done) = mpsc::channel();
    let runner = {
        let server = Arc::clone(&server);
        thread::spawn(move || done_tx.send(server.run()).expect("the test waits"))
    };
    thread::sleep(Duration::from_millis(100));
    server.stop();
    done.recv_timeout(Duration::from_secs(5))
        .expect("stop wakes the blocked acceptor")
        .expect("run drains cleanly");
    runner.join().expect("runner exits");
}

#[test]
fn idle_server_stops_when_asked() {
    stop_while_blocked(Server::bind(ServerConfig::default()).expect("bind"));
}

#[test]
fn wildcard_bound_server_stops_when_asked() {
    stop_while_blocked(
        Server::bind(ServerConfig {
            addr: "0.0.0.0:0".to_string(),
            ..ServerConfig::default()
        })
        .expect("bind the wildcard address"),
    );
}
