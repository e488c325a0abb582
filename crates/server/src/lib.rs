//! # td-server — the multi-tenant derivation service
//!
//! Everything the workspace can do in-process — projection ([`td_core`]),
//! batch derivation ([`td_driver`]), TDL lint, explanations, telemetry —
//! behind a small HTTP/1.1 JSON API, so a schema-design tool or CI job
//! can ask "what survives this projection?" without linking Rust.
//!
//! ## Why hand-rolled
//!
//! The build environment resolves no crates registry (the repo's
//! vendored-stub policy), so hyper/axum/tokio are unavailable *by
//! constraint* — but the constraint matches the need. The API is
//! strictly request/response over small bodies: a blocking
//! thread-per-request design with `Connection: close` semantics is a few
//! hundred lines ([`http`]), fully testable over loopback, and its
//! failure modes (slowloris, oversized bodies) are handled with read
//! timeouts and explicit bounds rather than a framework's defaults.
//!
//! ## Architecture
//!
//! ```text
//!             ┌───────────┐   mpsc    ┌───────────┐  FairQueue  ┌─────────────┐
//!  accept ───►│ acceptor  │──────────►│ io pool   │────────────►│ exec workers│
//!  (blocking) │ one wake  │  streams  │ parse     │  compute    │ Api::handle │
//!             │ connect   │           │ HTTP/JSON │  jobs by    │ + respond   │
//!             │ at stop   │           │ answer    │  tenant     │             │
//!             └───────────┘           │ GET/PUT   │             └─────────────┘
//!                                     └───────────┘
//! ```
//!
//! * The **acceptor** owns the listener and blocks in `accept`. A stop
//!   ([`Server::stop`], or SIGTERM through [`signal`]) sets a flag and
//!   connects once to the listener's own address. The acceptor wakes,
//!   sees the flag and closes the listener, so new connects are refused.
//!   No thread sleeps or polls while the server is idle.
//! * The **io pool** reads and parses requests. Cheap endpoints (every
//!   GET, schema registration) are answered inline; derivation work is
//!   submitted to the tenant-fair admission queue ([`admission`]), and a
//!   full tenant queue answers `429` with `Retry-After` on the spot.
//! * The **exec workers** drain the queue in round-robin tenant order
//!   and run [`Api::handle`] — pure compute, no socket knowledge, which
//!   is what the bench and the unit tests drive directly.
//!
//! Graceful shutdown is a drain in that same order: close the listener,
//! let the io pool finish parsing what arrived, close the queue, let the
//! exec workers finish what was admitted, join everything, exit 0. No
//! admitted request is dropped.
//!
//! Per-tenant schema state lives in the [`registry`]: registered schemas
//! keep a warm copy-on-write [`td_model::SchemaSnapshot`] whose CPL,
//! dispatch and applicability-index caches persist across requests —
//! the measured warm-vs-cold gap is gated by the
//! `ratio_serve_warm_vs_cold` repro metric.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod admission;
pub mod api;
pub mod http;
pub mod registry;
pub mod signal;
pub mod watch;

pub use admission::{FairQueue, Rejected, SubmitError};
pub use api::{derivation_json, tenant_of, Api, RequestCtx};
pub use http::{http_call, http_request, HttpReply, Request, Response};
pub use registry::{PutOutcome, Registry, SchemaEntry};
pub use signal::{install_shutdown_handler, request_shutdown, shutdown_requested};
// `perfbench/` reaches the JSON module through the server crate.
pub use td_telemetry::json;
pub use watch::{WatchHub, WatchView};

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use signal::Stopper;
use td_telemetry::TraceId;

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks a free port).
    pub addr: String,
    /// Exec workers running derivations (default: the machine's cores).
    pub exec_threads: usize,
    /// IO workers parsing HTTP (default 2; they mostly wait on sockets).
    pub io_threads: usize,
    /// Pending compute jobs admitted per tenant before 429 (default 4).
    pub queue_slots: usize,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// When set, tenant schemas are persisted as binary snapshots in this
    /// directory (one `.tds` file per tenant schema, written on PUT) and
    /// restored from it at bind time — the registry survives restarts.
    pub snapshot_dir: Option<String>,
    /// When set, every completed request appends one JSON line to this
    /// file (trace id, tenant, endpoint, status, timings), flushed per
    /// line so a tail survives a crash and the SIGTERM drain loses
    /// nothing.
    pub access_log: Option<String>,
    /// When set, any request slower than the threshold dumps its full
    /// span trace (queue wait included) as a Chrome trace file
    /// `slow-{trace}.json` in this directory. Implies telemetry on.
    pub slow_trace_dir: Option<String>,
    /// Slow-capture threshold in µs; defaults to the SLO objective.
    pub slow_threshold_us: Option<u64>,
    /// Latency objective (µs) for the windowed SLO burn-rate gauge:
    /// 99% of requests must finish end-to-end within it.
    pub slo_objective_us: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            exec_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            io_threads: 2,
            queue_slots: 4,
            max_body: http::DEFAULT_MAX_BODY,
            snapshot_dir: None,
            access_log: None,
            slow_trace_dir: None,
            slow_threshold_us: None,
            slo_objective_us: api::DEFAULT_SLO_OBJECTIVE_US,
        }
    }
}

/// One compute job: the parsed request plus the socket to answer on and
/// the observability context assigned at admission.
struct Job {
    stream: TcpStream,
    request: Request,
    /// Trace id adopted from the client's `traceparent` or generated.
    trace: TraceId,
    /// Admission-control tenant the job was queued under.
    tenant: String,
    /// [`td_telemetry::now_ns`] at submit — the queue-wait span's start.
    submitted_ns: u64,
}

/// A bound derivation server. [`run`](Server::run) blocks until
/// [`stop`](Server::stop) (or a signal, see [`install_shutdown_handler`])
/// and the drain that follows complete.
pub struct Server {
    /// Taken by [`run`](Server::run), which drops it when the drain begins.
    listener: Mutex<Option<TcpListener>>,
    /// The bound address, kept for [`local_addr`](Server::local_addr)
    /// after the listener is gone.
    local_addr: SocketAddr,
    /// Shared with the signal handler once this server is registered.
    stopper: Arc<Stopper>,
    config: ServerConfig,
    api: Api,
    /// JSONL access log, when configured. One line per completed or
    /// rejected request, written *before* the response bytes so a client
    /// that saw an answer always finds its line.
    access_log: Mutex<Option<BufWriter<File>>>,
    /// Resolved slow-capture threshold (µs).
    slow_threshold_us: u64,
}

impl Server {
    /// Binds the listener (without accepting yet). When the config names
    /// a snapshot directory, persisted tenant schemas are restored into
    /// the registry before the first request is accepted.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let api = match &config.snapshot_dir {
            Some(dir) => {
                let (registry, loaded) = Registry::with_snapshot_dir(dir)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if loaded > 0 {
                    eprintln!("tdv serve: restored {loaded} tenant schema(s) from {dir}");
                }
                Api::with_registry(registry)
            }
            None => Api::new(),
        };
        api.set_slo_objective_us(config.slo_objective_us);
        let access_log = match &config.access_log {
            Some(path) => Some(BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        if let Some(dir) = &config.slow_trace_dir {
            std::fs::create_dir_all(dir)?;
            // Slow capture needs spans, and spans need the switch on.
            td_telemetry::set_enabled(true);
        }
        let slow_threshold_us = config.slow_threshold_us.unwrap_or(config.slo_objective_us);
        Ok(Server {
            listener: Mutex::new(Some(listener)),
            local_addr,
            stopper: Arc::new(Stopper::new(local_addr)),
            config,
            api,
            access_log: Mutex::new(access_log),
            slow_threshold_us,
        })
    }

    /// The bound address — the actual port when the config said `:0`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.local_addr)
    }

    /// The API the listener dispatches into (exposed for warm-up and
    /// direct-drive tests).
    pub fn api(&self) -> &Api {
        &self.api
    }

    /// Serves on the calling thread until [`stop`](Server::stop), then
    /// drains: the listener closes, so new connects are refused; in-flight
    /// and admitted requests finish; workers join. Returns once the drain
    /// is complete. A server runs once: a second call is an error.
    pub fn run(&self) -> io::Result<()> {
        let listener = self
            .listener
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .ok_or_else(|| io::Error::other("the server has already run"))?;
        let queue: FairQueue<Job> = FairQueue::new(self.config.queue_slots);
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        std::thread::scope(|scope| {
            let io_pool: Vec<_> = (0..self.config.io_threads.max(1))
                .map(|_| {
                    let conn_rx = Arc::clone(&conn_rx);
                    let queue = &queue;
                    scope.spawn(move || loop {
                        // Holding the lock only for the recv keeps the
                        // pool draining in parallel once streams arrive.
                        let next = conn_rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                        match next {
                            Ok(stream) => self.serve_connection(stream, queue),
                            // Acceptor hung up: drained, exit.
                            Err(_) => break,
                        }
                    })
                })
                .collect();

            let exec_pool: Vec<_> = (0..self.config.exec_threads.max(1))
                .map(|_| {
                    let queue = &queue;
                    scope.spawn(move || {
                        while let Some(job) = queue.next() {
                            Self::publish_queue_depths(queue);
                            let Job {
                                stream,
                                request,
                                trace,
                                tenant,
                                submitted_ns,
                            } = job;
                            let wait_ns = td_telemetry::now_ns().saturating_sub(submitted_ns);
                            let ctx = RequestCtx {
                                trace: Some(trace),
                                tenant: Some(tenant),
                                queue_us: wait_ns / 1_000,
                            };
                            self.dispatch(stream, &request, ctx, Some(submitted_ns));
                        }
                    })
                })
                .collect();

            // The accept loop runs on the calling thread and blocks in
            // `accept`; a stop wakes it with one connect, dropped here.
            loop {
                let accepted = listener.accept();
                if self.stopper.stop_requested() {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        if conn_tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // Transient accept failures (a reset in the backlog,
                    // EMFILE) must not kill the service, nor spin.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }

            // Drain, strictly in pipeline order: the listener closes, so
            // new connects are refused → io pool finishes parsing and
            // submitting → queue closes → exec workers finish admitted
            // jobs.
            drop(listener);
            drop(conn_tx);
            for h in io_pool {
                let _ = h.join();
            }
            queue.close();
            for h in exec_pool {
                let _ = h.join();
            }
        });
        // Every line was flushed as it was written; this catches the
        // buffer tail if a write raced the drain.
        if let Some(w) = self
            .access_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            let _ = w.flush();
        }
        Ok(())
    }

    /// Makes [`run`](Server::run) stop accepting and drain: sets the
    /// stop flag, then connects once to the listener to wake the blocked
    /// `accept`. SIGTERM does the same after [`install_shutdown_handler`].
    /// Called before `run`, it makes `run` drain as soon as it starts.
    pub fn stop(&self) {
        self.stopper.stop();
    }

    /// Publishes the total and per-tenant queue-depth gauges. Called at
    /// submit and dequeue so `tdv top` sees live backlog per tenant;
    /// drained tenants report zero rather than vanishing.
    fn publish_queue_depths(queue: &FairQueue<Job>) {
        td_telemetry::metrics::gauge("server/queue_depth").set(queue.depth() as i64);
        for (tenant, depth) in queue.tenant_depths() {
            td_telemetry::metrics::gauge(&format!("server/queue_depth/tenant/{tenant}"))
                .set(depth as i64);
        }
    }

    /// Runs one request through [`Api::handle_with`] and finishes it:
    /// queue-wait span, access-log line (written and flushed *before*
    /// the response bytes), slow-trace capture, response write.
    fn dispatch(
        &self,
        mut stream: TcpStream,
        request: &Request,
        ctx: RequestCtx,
        submitted_ns: Option<u64>,
    ) {
        let started = Instant::now();
        if let (Some(trace), Some(submitted_ns)) = (ctx.trace, submitted_ns) {
            // The wait span carries the trace stamp like every other
            // span of the request, so the Chrome trace shows the queue
            // time as its own block.
            let _scope = td_telemetry::trace_scope(trace);
            let wait_ns = td_telemetry::now_ns().saturating_sub(submitted_ns);
            td_telemetry::emit_span(
                "server",
                "queue_wait",
                submitted_ns,
                wait_ns,
                vec![(
                    "tenant",
                    td_telemetry::ArgValue::Str(
                        ctx.tenant.clone().unwrap_or_else(|| "default".to_string()),
                    ),
                )],
            );
        }
        let response = self.api.handle_with(
            &request.method,
            &request.path,
            &request.query,
            &request.body,
            &ctx,
        );
        let exec_us = started.elapsed().as_micros() as u64;
        let total_us = ctx.queue_us + exec_us;
        self.log_access(&ctx, request, response.status, exec_us, total_us);
        self.capture_slow(&ctx, total_us);
        let _ = response.write_to(&mut stream);
    }

    /// Appends one JSONL access-log line, flushed immediately.
    fn log_access(
        &self,
        ctx: &RequestCtx,
        request: &Request,
        status: u16,
        exec_us: u64,
        total_us: u64,
    ) {
        let mut guard = self.access_log.lock().unwrap_or_else(|e| e.into_inner());
        let Some(w) = guard.as_mut() else {
            return;
        };
        use td_telemetry::json::quote;
        let line = format!(
            "{{\"trace\": {}, \"tenant\": {}, \"endpoint\": {}, \"method\": {}, \
             \"path\": {}, \"status\": {status}, \"queue_us\": {}, \"exec_us\": {exec_us}, \
             \"total_us\": {total_us}}}\n",
            quote(&ctx.trace.map(|t| t.to_string()).unwrap_or_default()),
            quote(ctx.tenant.as_deref().unwrap_or("default")),
            quote(&api::endpoint_key(&request.method, &request.path)),
            quote(&request.method),
            quote(&request.path),
            ctx.queue_us,
        );
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }

    /// Dumps the request's full span trace as a Chrome trace file when
    /// it ran slower than the configured threshold.
    fn capture_slow(&self, ctx: &RequestCtx, total_us: u64) {
        let Some(dir) = &self.config.slow_trace_dir else {
            return;
        };
        if total_us < self.slow_threshold_us {
            return;
        }
        let Some(trace) = ctx.trace else {
            return;
        };
        let events = td_telemetry::events_for_trace(&trace.to_string());
        if events.is_empty() {
            return;
        }
        let path = format!("{dir}/slow-{trace}.json");
        let _ = std::fs::write(path, td_telemetry::chrome_trace(&events));
    }

    /// IO-pool duty: parse one connection, answer it inline or admit it
    /// to the compute queue.
    fn serve_connection(&self, mut stream: TcpStream, queue: &FairQueue<Job>) {
        let request = match http::read_request(&mut stream, self.config.max_body) {
            Ok(r) => r,
            Err(http::HttpError::BodyTooLarge(n)) => {
                td_telemetry::metrics::counter("server/errors/413").add(1);
                http::reject(
                    &mut stream,
                    &Response::error(413, &format!("request body of {n} bytes is too large")),
                );
                return;
            }
            Err(http::HttpError::Malformed(m)) => {
                td_telemetry::metrics::counter("server/errors/400").add(1);
                http::reject(&mut stream, &Response::error(400, &m));
                return;
            }
            // Timeout or reset mid-read: nobody left to answer.
            Err(http::HttpError::Io(_)) => return,
        };
        // A watch subscription is a long-lived stream: it must neither
        // block an io worker nor occupy a compute slot, so it gets a
        // dedicated thread that dies with its socket.
        if request.method == "GET" && request.path == "/v1/watch" {
            self.serve_watch(stream, &request);
            return;
        }
        // Every request gets a trace id: the client's `traceparent` when
        // it sent one (bare 32-hex also accepted), a fresh id otherwise.
        let trace = request
            .trace
            .as_deref()
            .and_then(TraceId::parse)
            .unwrap_or_else(TraceId::generate);
        // Derivation endpoints go through admission control; everything
        // else (health, metrics, stats, registration) is cheap enough to
        // answer from the io pool directly.
        let is_compute = request.method == "POST" && request.path.starts_with("/v1/");
        if !is_compute {
            let ctx = RequestCtx {
                trace: Some(trace),
                tenant: None,
                queue_us: 0,
            };
            self.dispatch(stream, &request, ctx, None);
            return;
        }
        let tenant = tenant_of(&request.body);
        let submitted_ns = td_telemetry::now_ns();
        let job = Job {
            stream,
            request,
            trace,
            tenant: tenant.clone(),
            submitted_ns,
        };
        match queue.submit(&tenant, job) {
            Ok(()) => Self::publish_queue_depths(queue),
            Err(rejected) => {
                let (status, retry_after) = match rejected.error {
                    SubmitError::Busy { .. } => (429, true),
                    SubmitError::Closed => (503, false),
                };
                td_telemetry::metrics::counter(&format!("server/errors/{status}")).add(1);
                let endpoint =
                    api::endpoint_key(&rejected.job.request.method, &rejected.job.request.path);
                self.api.record_rejection(&endpoint, &tenant, status);
                let ctx = RequestCtx {
                    trace: Some(trace),
                    tenant: Some(tenant),
                    queue_us: 0,
                };
                // Rejections are requests too: they get an access-log
                // line (zero exec time) before the response goes out.
                self.log_access(&ctx, &rejected.job.request, status, 0, 0);
                let mut response = Response::error(status, &rejected.error.to_string());
                if retry_after {
                    response
                        .extra_headers
                        .push(("Retry-After".to_string(), "1".to_string()));
                }
                let mut stream = rejected.job.stream;
                let _ = response.write_to(&mut stream);
            }
        }
    }

    /// Answers `GET /v1/watch?tenant=..&schema=..[&type=..&attrs=a,b]`:
    /// subscribes the connection to the change feed and hands the socket
    /// to a dedicated streaming thread. The thread writes one SSE frame
    /// per event (`hello` first, then `change` per matching PUT) and a
    /// comment ping during idle stretches so dead peers are detected;
    /// any write failure unsubscribes and ends the thread.
    fn serve_watch(&self, mut stream: TcpStream, request: &Request) {
        let mut tenant = None;
        let mut schema = None;
        let mut type_name = None;
        let mut attrs: Vec<String> = Vec::new();
        for pair in request.query.split('&') {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            match key {
                "tenant" => tenant = Some(value.to_string()),
                "schema" => schema = Some(value.to_string()),
                "type" => type_name = Some(value.to_string()),
                "attrs" => {
                    attrs.extend(value.split(',').filter(|a| !a.is_empty()).map(String::from))
                }
                _ => {}
            }
        }
        let (Some(tenant), Some(schema)) = (tenant, schema) else {
            td_telemetry::metrics::counter("server/errors/400").add(1);
            http::reject(
                &mut stream,
                &Response::error(400, "watch needs ?tenant=..&schema=.. query parameters"),
            );
            return;
        };
        let view = type_name.map(|type_name| WatchView { type_name, attrs });
        let hub = Arc::clone(&self.api.watch);
        let (id, events) = hub.subscribe(&tenant, &schema, view);
        let header = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                      Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
        std::thread::spawn(move || {
            use std::io::Write as _;
            // read_request set a read timeout; writes are unaffected,
            // but clear it so the socket carries no stale deadlines.
            let _ = stream.set_read_timeout(None);
            if stream
                .write_all(header.as_bytes())
                .and_then(|()| stream.flush())
                .is_err()
            {
                hub.unsubscribe(id);
                return;
            }
            loop {
                let frame = match events.recv_timeout(Duration::from_secs(10)) {
                    Ok(frame) => frame,
                    // Idle: an SSE comment doubles as a liveness probe.
                    Err(mpsc::RecvTimeoutError::Timeout) => ": ping\n\n".to_string(),
                    // Hub dropped (server shutting down): end the stream.
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                };
                if stream
                    .write_all(frame.as_bytes())
                    .and_then(|()| stream.flush())
                    .is_err()
                {
                    break;
                }
            }
            hub.unsubscribe(id);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.exec_threads >= 1);
        assert!(c.io_threads >= 1);
        assert!(c.queue_slots >= 1);
        assert_eq!(c.max_body, http::DEFAULT_MAX_BODY);
    }
}
