//! The three `tdv serve` workloads: reference answers, set-up, the
//! open- and closed-loop load generators, and the end-to-end metrics.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use td_server::json::Json;
use td_server::Api;

use crate::inputs::{Load, Op, ServeInput};
use crate::util::{self, Guard, Metrics};
use crate::Outcome;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

// ------------------------------------------------------------- references

/// The expected answer to every request, computed in-process with
/// [`Api::handle`] on the same schema versions before any timing.
pub struct References {
    /// `base[i]`: pool request `i` against the base text.
    pub base: Vec<String>,
    /// `variant[i]`: pool request `i` against the edited text (only for
    /// tenant 0's requests in `serve-wide-edit`; empty otherwise).
    pub variant: Vec<Option<String>>,
    /// Warm-up answers against the base text.
    pub warmup: Vec<String>,
    /// The `diff` summary an edit to the variant / back to the base
    /// reports.
    pub edit_diff: [String; 2],
}

/// Masks what a correct answer may legitimately vary in between two
/// servers: whether `analyze` found its report cached.
pub fn normalize(body: &str) -> String {
    body.replace("\"schema_cached\": true", "\"schema_cached\": _")
        .replace("\"schema_cached\": false", "\"schema_cached\": _")
        .replace("\"request_cached\": true", "\"request_cached\": _")
        .replace("\"request_cached\": false", "\"request_cached\": _")
}

fn expect_ok(path: &str, body: &str, status: u16, answer: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!(
            "reference {path} {body} answered {status}: {answer}"
        ));
    }
    // Derivations must hold the paper's invariants I1–I5.
    if path == "/v1/project" && !answer.contains("\"invariants_ok\": true") {
        return Err(format!("reference {body}: invariants do not hold"));
    }
    if path == "/v1/batch"
        && !(answer.contains("\"invariant_violations\": 0") && answer.contains("\"errors\": 0"))
    {
        return Err(format!(
            "reference {body}: batch reports failures: {answer}"
        ));
    }
    Ok(())
}

/// Registers every tenant on a fresh in-process [`Api`].
pub fn register(api: &Api, input: &ServeInput) -> Result<(), String> {
    for t in 0..input.tenants.len() {
        let r = api.handle("PUT", &input.put_path(t), "", input.base_text.as_bytes());
        if r.status != 201 {
            return Err(format!(
                "in-process registration answered {}: {}",
                r.status, r.body
            ));
        }
    }
    Ok(())
}

/// Answers `requests` on two threads (the answers are independent of
/// order and of each other).
fn answer_all(api: &Api, requests: &[(&str, &str)]) -> Result<Vec<String>, String> {
    let half = requests.len().div_ceil(2);
    let answer = |chunk: &[(&str, &str)]| -> Result<Vec<String>, String> {
        chunk
            .iter()
            .map(|(path, body)| {
                let r = api.handle("POST", path, "", body.as_bytes());
                expect_ok(path, body, r.status, &r.body)?;
                Ok(normalize(&r.body))
            })
            .collect()
    };
    let (a, b) = std::thread::scope(|s| {
        let first = s.spawn(|| answer(&requests[..half]));
        let second = answer(&requests[half..]);
        (first.join().expect("reference thread"), second)
    });
    let mut out = a?;
    out.extend(b?);
    Ok(out)
}

pub fn references(input: &ServeInput) -> Result<References, String> {
    let api = Api::new();
    register(&api, input)?;
    let pool: Vec<(&str, &str)> = input
        .pool
        .iter()
        .map(|r| (r.path.as_str(), r.body.as_str()))
        .collect();
    let warm: Vec<(&str, &str)> = input
        .warmup
        .iter()
        .map(|r| (r.path.as_str(), r.body.as_str()))
        .collect();
    let warmup = answer_all(&api, &warm)?;
    let base = answer_all(&api, &pool)?;
    let mut variant = vec![None; input.pool.len()];
    let mut edit_diff = [String::new(), String::new()];
    if let Some(text) = &input.variant_text {
        let path = input.put_path(0);
        for (k, t) in [text, &input.base_text].into_iter().enumerate() {
            let r = api.handle("PUT", &path, "", t.as_bytes());
            if r.status != 200 {
                return Err(format!("in-process edit answered {}: {}", r.status, r.body));
            }
            edit_diff[k] = json_field(&r.body, "diff").unwrap_or_default();
            if k == 0 {
                // Tenant 0 now holds the variant: answer its reads there.
                let idx: Vec<usize> = (0..input.pool.len())
                    .filter(|&i| input.pool[i].tenant == 0)
                    .collect();
                let reqs: Vec<(&str, &str)> = idx.iter().map(|&i| pool[i]).collect();
                for (i, answer) in idx.into_iter().zip(answer_all(&api, &reqs)?) {
                    variant[i] = Some(answer);
                }
            }
        }
    }
    Ok(References {
        base,
        variant,
        warmup,
        edit_diff,
    })
}

fn json_field(body: &str, key: &str) -> Option<String> {
    let doc = Json::parse(body).ok()?;
    let v = doc.as_obj()?.get(key)?;
    v.as_str()
        .map(str::to_string)
        .or_else(|| v.as_f64().map(|n| n.to_string()))
}

// ---------------------------------------------------------------- client

/// One HTTP/1.1 exchange on a fresh connection (`Connection: close`, as
/// the server answers every request).
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    trace: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let _ = stream.set_nodelay(true);
    let traceparent = trace
        .map(|t| format!("traceparent: 00-{t}-{}-01\r\n", &t[16..]))
        .unwrap_or_default();
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n{traceparent}\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    let mut reply = Vec::with_capacity(4096);
    stream.read_to_end(&mut reply)?;
    let text = String::from_utf8_lossy(&reply);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no HTTP head in reply"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok((status, body.to_string()))
}

// ---------------------------------------------------------------- server

/// A running `tdv serve`.
pub struct Server {
    pub guard: Guard,
    pub pid: u32,
    pub addr: SocketAddr,
}

fn spawn_server(tdv: &Path, work: &Path, access_log: Option<&Path>) -> Result<Server, String> {
    let port_file = work.join("port");
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(tdv);
    cmd.arg("serve")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(log) = access_log {
        cmd.arg("--access-log").arg(log);
    }
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn tdv serve: {e}"))?;
    let pid = child.id();
    let mut guard = Guard(Some(child));
    // Readiness: poll the port file at sub-millisecond intervals.
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Some(addr) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|s| s.trim().parse::<SocketAddr>().ok())
        {
            break addr;
        }
        if let Ok(Some(status)) = guard.child().try_wait() {
            return Err(format!("tdv serve exited during start-up ({status})"));
        }
        if Instant::now() > deadline {
            return Err("tdv serve wrote no port file within 30 s".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    Ok(Server { guard, pid, addr })
}

/// Spawns the server, registers every tenant and sends the warm-up
/// pass, checking every answer. Returns the server and how long it took.
fn set_up(
    tdv: &Path,
    work: &Path,
    input: &ServeInput,
    refs: &References,
    access_log: Option<&Path>,
) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = spawn_server(tdv, work, access_log)?;
    for t in 0..input.tenants.len() {
        let (status, body) = call(
            server.addr,
            "PUT",
            &input.put_path(t),
            input.base_text.as_bytes(),
            None,
        )
        .map_err(|e| format!("registration failed: {e}"))?;
        if status != 201 {
            return Err(format!("registration answered {status}: {body}"));
        }
    }
    for (r, expected) in input.warmup.iter().zip(&refs.warmup) {
        let (status, body) = call(server.addr, "POST", &r.path, r.body.as_bytes(), None)
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        if status != 200 || normalize(&body) != *expected {
            return Err(format!(
                "warm-up {} {} answered {status} with a wrong answer",
                r.path, r.body
            ));
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

// ------------------------------------------------------------ load phase

/// One measured op as the client saw it.
pub struct Sample {
    pub index: usize,
    pub is_edit: bool,
    /// Start of the client's clock for this op (scheduled send time in
    /// the open loop, connect time in the closed loop), from phase start.
    pub start: Duration,
    pub latency: Duration,
    /// How late the open-loop generator sent it.
    pub late: Duration,
    pub ok: bool,
}

/// Per-tenant edit state of `serve-wide-edit`: edits are serialised so
/// the server's version sequence is known.
struct Edits {
    lock: Mutex<()>,
    started: AtomicUsize,
    done: AtomicUsize,
}

/// The trace id the benchmark stamps on op `i` of a seeded run.
pub fn trace_id(seed: u64, i: usize) -> String {
    format!(
        "{:016x}{:016x}",
        0x7db0_0000_0000_0000u64 ^ seed,
        i as u64 + 1
    )
}

fn do_op(
    addr: SocketAddr,
    input: &ServeInput,
    refs: &References,
    edits: &Edits,
    i: usize,
    trace: Option<&str>,
) -> (bool, bool) {
    match input.op(i) {
        Op::Read(idx, r) => {
            let done_before = edits.done.load(Ordering::SeqCst);
            let reply = call(addr, "POST", &r.path, r.body.as_bytes(), trace);
            let started_after = edits.started.load(Ordering::SeqCst);
            let ok = match reply {
                Ok((200, body)) => {
                    let body = normalize(&body);
                    // Tenant 0 holds the variant after an odd number of
                    // edits; a read that overlapped an edit may see either.
                    let parities: Vec<usize> = if r.tenant == 0 && input.edit_every.is_some() {
                        (done_before..=started_after.max(done_before))
                            .map(|k| k % 2)
                            .collect()
                    } else {
                        vec![0]
                    };
                    parities.iter().any(|&p| match p {
                        0 => body == refs.base[idx],
                        _ => refs.variant[idx].as_deref() == Some(body.as_str()),
                    })
                }
                _ => false,
            };
            (ok, false)
        }
        Op::Edit(_) => {
            let _serial = edits.lock.lock().unwrap_or_else(|e| e.into_inner());
            let n = edits.started.fetch_add(1, Ordering::SeqCst);
            let to_variant = n.is_multiple_of(2);
            let text = if to_variant {
                input
                    .variant_text
                    .as_deref()
                    .expect("edit workload has a variant")
            } else {
                &input.base_text
            };
            let reply = call(addr, "PUT", &input.put_path(0), text.as_bytes(), trace);
            edits.done.fetch_add(1, Ordering::SeqCst);
            let ok = match reply {
                Ok((200, body)) => {
                    let doc = Json::parse(&body).ok();
                    let obj = doc.as_ref().and_then(|d| d.as_obj());
                    obj.is_some_and(|o| {
                        o.get("version").and_then(Json::as_f64) == Some(n as f64 + 2.0)
                            && o.get("diff").and_then(Json::as_str)
                                == Some(refs.edit_diff[n % 2].as_str())
                            && o.get("tenant").and_then(Json::as_str) == Some("tenant-0")
                    })
                }
                _ => false,
            };
            (ok, true)
        }
    }
}

/// Runs the measured phase for `seconds` and returns the samples (in
/// completion order per client) and the phase's wall time.
fn load_phase(
    server: &Server,
    input: &ServeInput,
    refs: &References,
    seconds: f64,
    traced: bool,
) -> (Vec<Sample>, Duration) {
    let edits = Edits {
        lock: Mutex::new(()),
        started: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
    };
    let next = AtomicUsize::new(0);
    let window = Duration::from_secs_f64(seconds);
    let (threads, interval) = match input.load {
        Load::Open { rate, conns } => (conns, Some(Duration::from_secs_f64(1.0 / rate))),
        Load::Closed { clients } => (clients, None),
    };
    let t0 = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let (start, late) = match interval {
                            Some(step) => {
                                let due = step * i as u32;
                                if due >= window {
                                    break;
                                }
                                let now = t0.elapsed();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                (due, t0.elapsed().saturating_sub(due))
                            }
                            None => {
                                let now = t0.elapsed();
                                if now >= window {
                                    break;
                                }
                                (now, Duration::ZERO)
                            }
                        };
                        let trace = traced.then(|| trace_id(input.seed, i));
                        let (ok, is_edit) =
                            do_op(server.addr, input, refs, &edits, i, trace.as_deref());
                        out.push(Sample {
                            index: i,
                            is_edit,
                            start,
                            latency: t0.elapsed() - start,
                            late,
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed();
    samples.sort_by_key(|s| s.index);
    (samples, wall)
}

/// An op's latency in ms; a failed op's is +∞.
pub fn latency_ms(s: &Sample) -> f64 {
    if s.ok {
        util::ms(s.latency)
    } else {
        f64::INFINITY
    }
}

/// The tail every serve workload reports. p99 has enough samples beyond
/// it on the two fast workloads, but on a small VM it is set by a few
/// host stalls (the generator itself ran up to 18 ms late) and moved by
/// a third between runs of the same code; p90 keeps 10% of the ops
/// beyond it and moves by a few percent.
pub const TAIL: f64 = 0.90;

// ------------------------------------------------------------------- run

pub fn run(
    tdv: &Path,
    work: &Path,
    input: &ServeInput,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let refs = references(input)?;
    if traced {
        return crate::layers::serve_traced(tdv, work, input, &refs, seconds);
    }
    // Set up SETUPS times; the last server stays up for the load phase.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut drained_ok = true;
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(mut previous) = server.take() {
            drained_ok &= previous.guard.drain(Duration::from_secs(30));
        }
        let (s, secs) = set_up(tdv, work, input, &refs, None)?;
        setups.push(secs);
        server = Some(s);
    }
    let mut server = server.expect("SETUPS is at least 1");
    let cpu_before = util::proc_cpu(server.pid);
    let (samples, wall) = load_phase(&server, input, &refs, seconds, false);
    let cpu = util::proc_cpu(server.pid).saturating_sub(cpu_before);
    let peak_kib = util::proc_peak_rss_kib(server.pid);
    drained_ok &= server.guard.drain(Duration::from_secs(30));
    if !drained_ok {
        eprintln!("perfbench: tdv serve did not drain and exit 0 on SIGTERM");
    }

    let all: Vec<f64> = samples.iter().map(latency_ms).collect();
    let beyond = util::beyond(&all, TAIL);
    if beyond < 10 {
        eprintln!(
            "perfbench: only {beyond} samples beyond p{:.0}; the tail is not valid",
            TAIL * 100.0
        );
    }
    let failed = samples.iter().filter(|s| !s.ok).count();
    let n = samples.len();
    let mut m = Metrics::default();
    m.set("latency_p50_ms", util::median(&all), "ms");
    m.set("latency_tail_ms", util::quantile(&all, TAIL), "ms");
    m.set("throughput_rps", n as f64 / wall.as_secs_f64(), "1/s");
    m.set("cpu_ms_per_op", util::ms(cpu) / n.max(1) as f64, "ms");
    m.set("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB");
    m.set("setup_s", util::median(&setups), "s");
    eprintln!(
        "perfbench: {}: {n} ops in {:.2} s, {failed} failed; set-ups {:?} s",
        input.name,
        wall.as_secs_f64(),
        setups
    );
    Ok(Outcome {
        correct: failed == 0 && drained_ok,
        attempted: n,
        failed,
        metrics: m,
    })
}

/// The traced socket run: one set-up with `--access-log`, the load
/// phase with a `traceparent` per op, then SIGTERM. Returns the samples,
/// whether the drain was clean, and the log path.
pub fn traced_socket_run(
    tdv: &Path,
    work: &Path,
    input: &ServeInput,
    refs: &References,
    seconds: f64,
) -> Result<(Vec<Sample>, bool, std::path::PathBuf), String> {
    let log = work.join("access.log");
    let (mut server, _) = set_up(tdv, work, input, refs, Some(&log))?;
    let (samples, _) = load_phase(&server, input, refs, seconds, true);
    let drained = server.guard.drain(Duration::from_secs(30));
    Ok((samples, drained, log))
}
