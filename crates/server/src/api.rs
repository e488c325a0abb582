//! Endpoint dispatch: pure compute from `(method, path, query, body)` to
//! a [`Response`].
//!
//! The listener in `lib.rs` deliberately does no thinking — it parses
//! HTTP and feeds this table. Keeping [`Api::handle`] socket-free means
//! the loopback tests, the CI smoke client and the `serve_warm_vs_cold`
//! repro experiment all exercise the exact handlers production traffic
//! hits, without flaky socket timing in the measurement loop.
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `GET /healthz` | — | `ok` |
//! | `GET /metrics` | — | Prometheus text (`?format=json` for JSON) |
//! | `GET /v1/stats` | — | request counts + schema inventory |
//! | `PUT /v1/tenants/{t}/schemas/{n}` | schema text | `{version}` |
//! | `GET /v1/tenants/{t}/schemas/{n}` | — | registered text + version |
//! | `POST /v1/project` | view request | canonical derivation JSON |
//! | `POST /v1/applicable` | view request | method partition |
//! | `POST /v1/lint` | view request (view optional) | TDL report JSON |
//! | `POST /v1/analyze` | view request (view optional) + `precision`, `format` | TDL2xx report + stats |
//! | `POST /v1/explain` | view request + `method` | proof tree |
//! | `POST /v1/batch` | request-file text + `threads` | batch report |
//! | `GET /v1/watch?tenant=&schema=` | — | SSE change feed (served in `lib.rs`) |
//!
//! A view request names its schema one of two ways: `"schema"` — a name
//! registered under `"tenant"`, served from the warm shared snapshot —
//! or `"schema_text"` — inline text, parsed fresh per request (the cold
//! path). The warm/cold split is the registry's reason to exist; the
//! gated `ratio_serve_warm_vs_cold` metric keeps it honest.
//!
//! The reads (`applicable`, `lint`, `analyze`, `explain`) never change
//! the schema, only its interior caches, so they answer on the registered
//! snapshot itself (`Api::read_schema`) and what they compute stays cached
//! there until a PUT replaces it. Only `project` forks: a derivation
//! mutates the schema it runs on. `batch` forks per request inside the
//! batch deriver.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use td_core::{explain, project, Derivation, ProjectionOptions};
use td_model::{
    parse_schema_lenient, AnalysisPrecision, AttrId, DispatchCacheStats, Schema, SchemaSnapshot,
    TypeId,
};
use td_telemetry::json::{quote, str_array, Json};
use td_telemetry::TraceId;

use crate::http::Response;
use crate::registry::{Registry, SchemaEntry};
use crate::watch::WatchHub;

/// Longest artificial delay honored from a request's `delay_ms` field —
/// a load-testing aid (it keeps a queue slot provably occupied for the
/// admission-control tests), not a production feature.
pub const MAX_DELAY_MS: u64 = 1_000;

/// Completed-request records the flight recorder retains (oldest evicted
/// first). Sized so `GET /v1/debug/requests` covers the last few minutes
/// of moderate traffic while the ring stays a few tens of KiB.
pub const FLIGHT_RECORDER_CAPACITY: usize = 256;

/// Default latency objective for the SLO burn-rate gauge: 99% of
/// requests complete within this many microseconds (500 ms).
pub const DEFAULT_SLO_OBJECTIVE_US: u64 = 500_000;

/// Request-scoped context the connection layer hands to
/// [`Api::handle_with`]: the trace id assigned at admission (or adopted
/// from the client's `traceparent`), the tenant charged, and the time
/// the job spent queued before an exec worker picked it up.
#[derive(Debug, Clone, Default)]
pub struct RequestCtx {
    /// The request's trace id. `None` on the bare [`Api::handle`] path
    /// (unit tests, the repro harness) — those requests skip the flight
    /// recorder and response-header correlation.
    pub trace: Option<TraceId>,
    /// The admission-control tenant, when the connection layer resolved
    /// one (queued compute jobs).
    pub tenant: Option<String>,
    /// Microseconds spent in the fair queue before execution.
    pub queue_us: u64,
}

/// One completed request, as retained by the flight recorder and served
/// from `GET /v1/debug/requests`.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// 32-hex trace id.
    pub trace: String,
    /// Admission-control tenant.
    pub tenant: String,
    /// Endpoint bucket (same key as the metrics).
    pub endpoint: String,
    /// HTTP method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Microseconds queued before execution.
    pub queue_us: u64,
    /// Microseconds executing the handler.
    pub exec_us: u64,
    /// End-to-end microseconds (queue + exec).
    pub total_us: u64,
    /// CPL, dispatch, index, lint and analysis cache hits on the schema
    /// the handler ran on: the fork for `project`, the registered
    /// snapshot for reads (whose counters concurrent reads of the same
    /// schema also move, so a record can include their lookups), the
    /// per-request forks summed for `batch`. Zero for endpoints that run
    /// on no schema.
    pub cache_hits: u64,
    /// Cache misses, charged like `cache_hits`.
    pub cache_misses: u64,
    /// I1–I5 violations the request's own derivation reported: its
    /// `InvariantReport`'s count for `project`, the derivations with any
    /// violation (`BatchStats::invariant_violations`) for `batch`, zero
    /// for reads.
    pub invariant_violations: u64,
}

impl RequestRecord {
    fn render_json(&self) -> String {
        format!(
            "{{\"trace\": {}, \"tenant\": {}, \"endpoint\": {}, \"method\": {}, \
             \"path\": {}, \"status\": {}, \"queue_us\": {}, \"exec_us\": {}, \
             \"total_us\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"invariant_violations\": {}}}",
            quote(&self.trace),
            quote(&self.tenant),
            quote(&self.endpoint),
            quote(&self.method),
            quote(&self.path),
            self.status,
            self.queue_us,
            self.exec_us,
            self.total_us,
            self.cache_hits,
            self.cache_misses,
            self.invariant_violations,
        )
    }
}

/// What a compute handler charges its request's record with, taken from
/// its own work rather than from process-wide counters that concurrent
/// requests also move.
#[derive(Default)]
struct Charge {
    /// Dispatch-cache movement on the schema the handler ran on.
    cache: DispatchCacheStats,
    /// I1–I5 violations its derivations reported.
    invariant_violations: u64,
}

/// The server's request-independent state: the tenant registry plus
/// request accounting for `/v1/stats`.
pub struct Api {
    /// The tenant-scoped schema registry.
    pub registry: Registry,
    /// Live change-feed subscriptions; every successful schema PUT fans
    /// its [`crate::registry::PutOutcome`] out through here. Shared so
    /// each streaming connection's dedicated thread can outlive the io
    /// pool's borrow of the [`Api`].
    pub watch: Arc<WatchHub>,
    counts: Mutex<BTreeMap<String, u64>>,
    /// Fixed-size ring of recently completed trace-correlated requests.
    recorder: Mutex<VecDeque<RequestRecord>>,
    /// Latency objective (µs) the SLO burn-rate gauge measures against.
    slo_objective_us: AtomicU64,
}

/// A request-level failure: HTTP status plus message.
struct ApiError {
    status: u16,
    message: String,
}

fn bad(message: impl Into<String>) -> ApiError {
    ApiError {
        status: 400,
        message: message.into(),
    }
}

impl Default for Api {
    fn default() -> Api {
        Api::new()
    }
}

impl Api {
    /// A fresh API over an empty registry.
    pub fn new() -> Api {
        Api::with_registry(Registry::new())
    }

    /// An API over a pre-built registry (e.g. one restored from a
    /// snapshot directory).
    pub fn with_registry(registry: Registry) -> Api {
        Api {
            registry,
            watch: Arc::new(WatchHub::default()),
            counts: Mutex::new(BTreeMap::new()),
            recorder: Mutex::new(VecDeque::with_capacity(FLIGHT_RECORDER_CAPACITY)),
            slo_objective_us: AtomicU64::new(DEFAULT_SLO_OBJECTIVE_US),
        }
    }

    /// Sets the latency objective (µs) the SLO burn-rate gauge measures
    /// against: 99% of windowed requests must finish within it.
    pub fn set_slo_objective_us(&self, us: u64) {
        self.slo_objective_us.store(us.max(1), Ordering::Relaxed);
    }

    /// Dispatches one request with no connection context — unit tests
    /// and the repro harness. Equivalent to [`Api::handle_with`] under a
    /// default [`RequestCtx`]: no trace correlation, no flight-recorder
    /// entry.
    pub fn handle(&self, method: &str, path: &str, query: &str, body: &[u8]) -> Response {
        self.handle_with(method, path, query, body, &RequestCtx::default())
    }

    /// Dispatches one request. Never panics on malformed input — every
    /// failure maps to a status code and a JSON error envelope.
    ///
    /// When `ctx` carries a trace id, the whole dispatch runs under a
    /// [`td_telemetry::trace_scope`] (every pipeline span is stamped
    /// with the id), an umbrella `server/{endpoint}` span covering the
    /// handler is emitted, the response echoes a `Traceparent` header,
    /// and the completed request lands in the flight recorder.
    pub fn handle_with(
        &self,
        method: &str,
        path: &str,
        query: &str,
        body: &[u8],
        ctx: &RequestCtx,
    ) -> Response {
        let started = Instant::now();
        let start_ns = td_telemetry::now_ns();
        let endpoint = endpoint_key(method, path);
        let scope = ctx.trace.map(td_telemetry::trace_scope);
        let mut charge = Charge::default();
        let result = self.route(method, path, query, body, &mut charge);
        let end_ns = td_telemetry::now_ns();
        let elapsed_us = started.elapsed().as_micros() as u64;
        let total_us = ctx.queue_us + elapsed_us;
        let status = match &result {
            Ok(r) => r.status,
            Err(e) => e.status,
        };
        // Per-endpoint traffic and latency; `/metrics` scrapes render
        // these as Prometheus histograms.
        td_telemetry::metrics::counter(&format!("server/requests/{endpoint}")).add(1);
        td_telemetry::metrics::histogram(&format!("server/latency_us/{endpoint}"))
            .record(elapsed_us);
        // Sliding-window tails and rates (queue wait included — the SLO
        // is end-to-end), per endpoint, per tenant, and overall.
        {
            use td_telemetry::metrics::{windowed_counter, windowed_histogram};
            windowed_histogram(&format!("server/window_us/{endpoint}")).record_at(total_us, end_ns);
            windowed_histogram("server/window_us/all").record_at(total_us, end_ns);
            windowed_counter(&format!("server/window_requests/{endpoint}")).add_at(1, end_ns);
            if status >= 400 {
                windowed_counter(&format!("server/window_errors/{endpoint}")).add_at(1, end_ns);
            }
            if let Some(tenant) = &ctx.tenant {
                windowed_histogram(&format!("server/window_us/tenant/{tenant}"))
                    .record_at(total_us, end_ns);
            }
        }
        {
            let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
            *counts.entry(endpoint.clone()).or_insert(0) += 1;
        }
        let mut response = match result {
            Ok(response) => response,
            Err(e) => {
                td_telemetry::metrics::counter(&format!("server/errors/{}", e.status)).add(1);
                Response::error(e.status, &e.message)
            }
        };
        if let Some(trace) = ctx.trace {
            // The umbrella span must be pushed while the scope is still
            // alive so it carries the trace stamp like its children.
            td_telemetry::emit_span(
                "server",
                endpoint.clone(),
                start_ns,
                end_ns.saturating_sub(start_ns),
                vec![("status", i64::from(status).into())],
            );
            let (cache_hits, cache_misses) = charge.cache.hits_and_misses();
            let record = RequestRecord {
                trace: trace.to_string(),
                tenant: ctx.tenant.clone().unwrap_or_else(|| "default".to_string()),
                endpoint: endpoint.clone(),
                method: method.to_string(),
                path: path.to_string(),
                status,
                queue_us: ctx.queue_us,
                exec_us: elapsed_us,
                total_us,
                cache_hits,
                cache_misses,
                invariant_violations: charge.invariant_violations,
            };
            let mut recorder = self.recorder.lock().unwrap_or_else(|e| e.into_inner());
            if recorder.len() >= FLIGHT_RECORDER_CAPACITY {
                recorder.pop_front();
            }
            recorder.push_back(record);
            drop(recorder);
            response
                .extra_headers
                .push(("Traceparent".to_string(), trace.traceparent()));
        }
        drop(scope);
        response
    }

    /// Accounts a request rejected before dispatch (429 admission
    /// backpressure, 503 shutdown): windowed request/error rates plus
    /// the per-tenant 429 rate the `tdv top` dashboard watches.
    pub fn record_rejection(&self, endpoint: &str, tenant: &str, status: u16) {
        use td_telemetry::metrics::windowed_counter;
        let now = td_telemetry::now_ns();
        windowed_counter(&format!("server/window_requests/{endpoint}")).add_at(1, now);
        windowed_counter(&format!("server/window_errors/{endpoint}")).add_at(1, now);
        if status == 429 {
            windowed_counter("server/window_429").add_at(1, now);
            windowed_counter(&format!("server/window_429/tenant/{tenant}")).add_at(1, now);
        }
    }

    /// Routes one request; a compute handler fills in `charge`.
    fn route(
        &self,
        method: &str,
        path: &str,
        query: &str,
        body: &[u8],
        charge: &mut Charge,
    ) -> Result<Response, ApiError> {
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match (method, segments.as_slice()) {
            ("GET", ["healthz"]) => Ok(Response::text(200, "ok\n")),
            ("GET", ["metrics"]) => Ok(self.metrics(query)),
            ("GET", ["v1", "stats"]) => Ok(self.stats()),
            ("GET", ["v1", "debug", "requests"]) => Ok(self.debug_requests()),
            (m, ["v1", "tenants", tenant, "schemas", name]) => self.schemas(m, tenant, name, body),
            ("POST", ["v1", verb]) => self.compute(verb, body, charge),
            (_, ["healthz" | "metrics"])
            | (_, ["v1", "stats"])
            | (_, ["v1", "debug", "requests"]) => Err(ApiError {
                status: 405,
                message: format!("{path} only answers GET"),
            }),
            ("GET" | "PUT" | "POST" | "DELETE", _) => Err(ApiError {
                status: 404,
                message: format!("no such endpoint: {method} {path}"),
            }),
            _ => Err(ApiError {
                status: 405,
                message: format!("method {method} is not supported"),
            }),
        }
    }

    /// Refreshes the gauges derived from non-registry sources so every
    /// scrape (`/metrics`, `/v1/stats`) sees current values: the
    /// cumulative dropped-span total, the SLO objective and its windowed
    /// burn rate. The burn rate is the share of windowed requests over
    /// the latency objective divided by the 1% error budget (99% of
    /// requests must meet the objective); 1000 ‰ means the budget is
    /// being consumed exactly as fast as it accrues.
    fn refresh_derived_gauges(&self, now_ns: u64) {
        use td_telemetry::metrics::{gauge, windowed_histogram};
        gauge("telemetry/spans_dropped_total").set(td_telemetry::dropped_events_total() as i64);
        let objective = self.slo_objective_us.load(Ordering::Relaxed);
        gauge("server/slo_objective_us").set(objective as i64);
        let over = windowed_histogram("server/window_us/all").share_over_at(objective, now_ns);
        gauge("server/slo_burn_rate_milli").set((over / 0.01 * 1000.0) as i64);
    }

    fn metrics(&self, query: &str) -> Response {
        let now_ns = td_telemetry::now_ns();
        self.refresh_derived_gauges(now_ns);
        let snapshot = td_telemetry::metrics::snapshot_at(now_ns);
        if query.split('&').any(|p| p == "format=json") {
            Response::json(200, snapshot.render_json())
        } else {
            Response::text(200, td_telemetry::render_prometheus(&snapshot))
        }
    }

    fn stats(&self) -> Response {
        use std::fmt::Write as _;
        let counts = self
            .counts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let total: u64 = counts.values().sum();
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"requests_total\": {total},");
        let _ = writeln!(out, "  \"requests\": {{");
        let n = counts.len();
        for (i, (endpoint, count)) in counts.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(out, "    {}: {count}{comma}", quote(endpoint));
        }
        let _ = writeln!(out, "  }},");
        let _ = write!(out, "{}", self.window_stats_json());
        let _ = writeln!(out, "  \"schemas\": [");
        let inventory = self.registry.inventory();
        let n = inventory.len();
        for (i, (tenant, name, version)) in inventory.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"tenant\": {}, \"name\": {}, \"version\": {version}}}{comma}",
                quote(tenant),
                quote(name)
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        Response::json(200, out)
    }

    /// The `"window"` section of `/v1/stats`: 60 s-windowed tails per
    /// endpoint and per tenant, windowed request/error/429 rates, the
    /// SLO burn gauge, queue depths and the dropped-span total —
    /// everything `tdv top` renders in one poll.
    fn window_stats_json(&self) -> String {
        use std::fmt::Write as _;
        let now_ns = td_telemetry::now_ns();
        self.refresh_derived_gauges(now_ns);
        let snap = td_telemetry::metrics::snapshot_at(now_ns);
        // Regroup the materialized `server/window_us/...` gauges into
        // per-endpoint / per-tenant objects.
        let mut endpoints: BTreeMap<&str, BTreeMap<&str, i64>> = BTreeMap::new();
        let mut tenants: BTreeMap<&str, BTreeMap<&str, i64>> = BTreeMap::new();
        let mut requests_60s = 0i64;
        let mut errors_60s = 0i64;
        for (name, &value) in &snap.gauges {
            if let Some(rest) = name.strip_prefix("server/window_us/") {
                let Some((key, stat)) = rest.rsplit_once('/') else {
                    continue;
                };
                match key.strip_prefix("tenant/") {
                    Some(tenant) => tenants.entry(tenant).or_default().insert(stat, value),
                    None => endpoints.entry(key).or_default().insert(stat, value),
                };
            } else if name.starts_with("server/window_requests/") && name.ends_with("/60s") {
                requests_60s += value;
            } else if name.starts_with("server/window_errors/") && name.ends_with("/60s") {
                errors_60s += value;
            }
        }
        let group = |m: &BTreeMap<&str, BTreeMap<&str, i64>>| -> String {
            m.iter()
                .map(|(key, stats)| {
                    let fields = stats
                        .iter()
                        .map(|(s, v)| format!("{}: {v}", quote(s)))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!("      {}: {{{fields}}}", quote(key))
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0);
        let mut queue_depths = String::new();
        for (name, &value) in &snap.gauges {
            if let Some(tenant) = name.strip_prefix("server/queue_depth/tenant/") {
                if !queue_depths.is_empty() {
                    queue_depths.push_str(", ");
                }
                let _ = write!(queue_depths, "{}: {value}", quote(tenant));
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "  \"window\": {{");
        let _ = writeln!(out, "    \"seconds\": {},", td_telemetry::WINDOW_SECONDS);
        let _ = writeln!(out, "    \"requests_60s\": {requests_60s},");
        let _ = writeln!(out, "    \"errors_60s\": {errors_60s},");
        let _ = writeln!(
            out,
            "    \"throttled_429_60s\": {},",
            gauge("server/window_429/60s")
        );
        let _ = writeln!(
            out,
            "    \"slo_objective_us\": {},",
            gauge("server/slo_objective_us")
        );
        let _ = writeln!(
            out,
            "    \"slo_burn_rate_milli\": {},",
            gauge("server/slo_burn_rate_milli")
        );
        let _ = writeln!(
            out,
            "    \"spans_dropped_total\": {},",
            gauge("telemetry/spans_dropped_total")
        );
        let _ = writeln!(out, "    \"queue_depth\": {},", gauge("server/queue_depth"));
        let _ = writeln!(out, "    \"queue_depth_by_tenant\": {{{queue_depths}}},");
        let _ = writeln!(out, "    \"endpoints\": {{");
        let _ = writeln!(out, "{}", group(&endpoints));
        let _ = writeln!(out, "    }},");
        let _ = writeln!(out, "    \"tenants\": {{");
        let _ = writeln!(out, "{}", group(&tenants));
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "  }},");
        out
    }

    /// `GET /v1/debug/requests`: the flight recorder, most recent first.
    fn debug_requests(&self) -> Response {
        let recorder = self.recorder.lock().unwrap_or_else(|e| e.into_inner());
        let rows = recorder
            .iter()
            .rev()
            .map(|r| format!("    {}", r.render_json()))
            .collect::<Vec<_>>()
            .join(",\n");
        drop(recorder);
        Response::json(
            200,
            format!(
                "{{\n  \"capacity\": {FLIGHT_RECORDER_CAPACITY},\n  \"requests\": [\n{rows}\n  ]\n}}\n"
            ),
        )
    }

    fn schemas(
        &self,
        method: &str,
        tenant: &str,
        name: &str,
        body: &[u8],
    ) -> Result<Response, ApiError> {
        if !Registry::valid_name(tenant) || !Registry::valid_name(name) {
            return Err(bad(
                "tenant and schema names are 1-64 chars of [A-Za-z0-9._-]",
            ));
        }
        match method {
            "PUT" => {
                let text =
                    std::str::from_utf8(body).map_err(|_| bad("schema text must be UTF-8"))?;
                if text.trim().is_empty() {
                    return Err(bad("refusing to register an empty schema"));
                }
                let outcome = self
                    .registry
                    .put(tenant, name, text)
                    .map_err(|e| bad(format!("schema does not parse: {e}")))?;
                self.watch.notify_put(tenant, name, &outcome);
                let version = outcome.version;
                let status = if version == 1 { 201 } else { 200 };
                let summary = outcome
                    .diff
                    .as_ref()
                    .map(|d| d.summary())
                    .unwrap_or_else(|| "first registration".to_string());
                Ok(Response::json(
                    status,
                    format!(
                        "{{\"tenant\": {}, \"name\": {}, \"version\": {version}, \
                         \"diff\": {}, \"carried\": {}}}\n",
                        quote(tenant),
                        quote(name),
                        quote(&summary),
                        outcome.carried.total()
                    ),
                ))
            }
            "GET" => {
                let entry = self.lookup(tenant, name)?;
                Ok(Response::json(
                    200,
                    format!(
                        "{{\"tenant\": {}, \"name\": {}, \"version\": {}, \"schema\": {}}}\n",
                        quote(tenant),
                        quote(name),
                        entry.version,
                        quote(&entry.text)
                    ),
                ))
            }
            other => Err(ApiError {
                status: 405,
                message: format!("schemas endpoint answers PUT and GET, not {other}"),
            }),
        }
    }

    fn lookup(&self, tenant: &str, name: &str) -> Result<std::sync::Arc<SchemaEntry>, ApiError> {
        self.registry.get(tenant, name).ok_or(ApiError {
            status: 404,
            message: format!("tenant `{tenant}` has no schema named `{name}`"),
        })
    }

    fn compute(&self, verb: &str, body: &[u8], charge: &mut Charge) -> Result<Response, ApiError> {
        let req = ComputeRequest::parse(verb, body)?;
        if req.delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                req.delay_ms.min(MAX_DELAY_MS),
            ));
        }
        match verb {
            "project" => self.project(&req, charge),
            "applicable" | "lint" | "analyze" | "explain" => {
                let schema = self.read_schema(&req)?;
                let before = schema.dispatch_cache_stats();
                let result = match verb {
                    "applicable" => self.applicable(&schema, &req),
                    "lint" => self.lint(&schema, &req),
                    "analyze" => self.analyze(&schema, &req),
                    _ => self.explain(&schema, &req),
                };
                charge.cache = schema.dispatch_cache_stats().delta(&before);
                result
            }
            "batch" => self.batch(&req, charge),
            other => Err(ApiError {
                status: 404,
                message: format!("no such endpoint: POST /v1/{other}"),
            }),
        }
    }

    /// The schema a request owns: a fork of the warm registered snapshot,
    /// or a freshly parsed inline text. Only `project` forks, because a
    /// derivation mutates its schema; `warm_for` charges the shared
    /// snapshot's caches for the request's `type` first, so the next
    /// derivation from that source starts warm. Reads borrow instead
    /// ([`Api::read_schema`]), and `batch` comes here for inline text only.
    fn resolve(&self, req: &ComputeRequest) -> Result<Schema, ApiError> {
        match (&req.schema, &req.schema_text) {
            (Some(name), None) => {
                let entry = self.lookup(&req.tenant, name)?;
                if let Some(ty) = req.ty.as_deref() {
                    if let Ok(source) = entry.snapshot.schema().type_id(ty) {
                        entry.warm_for(source);
                    }
                }
                Ok(entry.snapshot.fork())
            }
            (None, Some(text)) => if req.lenient {
                parse_schema_lenient(text)
            } else {
                td_model::parse_schema(text)
            }
            .map_err(|e| bad(format!("schema_text does not parse: {e}"))),
            (Some(_), Some(_)) => Err(bad("give `schema` or `schema_text`, not both")),
            (None, None) => Err(bad("missing schema: give `schema` or `schema_text`")),
        }
    }

    /// The schema a read answers on: the registered snapshot itself (a
    /// handle, with no fork and no `warm_for`), so its caches keep what
    /// the read computes until a PUT replaces it; or a freshly parsed
    /// inline text, dropped with the request.
    fn read_schema(&self, req: &ComputeRequest) -> Result<SchemaSnapshot, ApiError> {
        match (&req.schema, &req.schema_text) {
            (Some(name), None) => Ok(self.lookup(&req.tenant, name)?.snapshot.clone()),
            _ => self.resolve(req).map(Schema::into_snapshot),
        }
    }

    fn view(
        &self,
        schema: &Schema,
        req: &ComputeRequest,
    ) -> Result<(TypeId, BTreeSet<AttrId>), ApiError> {
        let ty = req.ty.as_deref().ok_or_else(|| bad("missing `type`"))?;
        let source = schema.type_id(ty).map_err(|e| bad(e.to_string()))?;
        let projection = req
            .attrs
            .iter()
            .map(|n| schema.attr_id(n).map_err(|e| bad(e.to_string())))
            .collect::<Result<BTreeSet<AttrId>, ApiError>>()?;
        Ok((source, projection))
    }

    fn project(&self, req: &ComputeRequest, charge: &mut Charge) -> Result<Response, ApiError> {
        let mut schema = self.resolve(req)?;
        let at_fork = schema.dispatch_cache_stats();
        let response = self.view(&schema, req).and_then(|(source, projection)| {
            let options = ProjectionOptions::default();
            let d = project(&mut schema, source, &projection, &options)
                .map_err(|e| bad(e.to_string()))?;
            charge.invariant_violations = d
                .invariants
                .as_ref()
                .map_or(0, |r| r.violations.len() as u64);
            Ok(Response::json(200, derivation_json(&schema, &d)))
        });
        charge.cache = schema.dispatch_cache_stats().delta(&at_fork);
        response
    }

    fn applicable(&self, schema: &Schema, req: &ComputeRequest) -> Result<Response, ApiError> {
        let (source, projection) = self.view(schema, req)?;
        let r = td_core::compute_applicability_indexed(schema, source, &projection, false)
            .map_err(|e| bad(e.to_string()))?;
        let labels = |ms: &[td_model::MethodId]| {
            str_array(ms.iter().map(|&m| schema.method_label(m).to_string()))
        };
        Ok(Response::json(
            200,
            format!(
                "{{\"applicable\": {}, \"not_applicable\": {}}}\n",
                labels(&r.applicable),
                labels(&r.not_applicable)
            ),
        ))
    }

    fn lint(&self, schema: &Schema, req: &ComputeRequest) -> Result<Response, ApiError> {
        let view = if req.ty.is_some() {
            Some(self.view(schema, req)?)
        } else {
            None
        };
        let report = td_core::lint(schema, view.as_ref().map(|(t, a)| (*t, a)));
        Ok(Response::json(200, report.render_json()))
    }

    fn analyze(&self, schema: &Schema, req: &ComputeRequest) -> Result<Response, ApiError> {
        let view = if req.ty.is_some() {
            Some(self.view(schema, req)?)
        } else {
            None
        };
        let outcome =
            td_analyze::analyze(schema, view.as_ref().map(|(t, a)| (*t, a)), req.precision);
        if req.format.as_deref() == Some("sarif") {
            return Ok(Response::json(
                200,
                outcome.report.render_sarif("td-analyze"),
            ));
        }
        // Registered schemas answer from the warm shared snapshot whose
        // dispatch cache holds the analysis reports, so repeat requests —
        // and requests after a delta re-registration — report
        // `schema_cached`/`request_cached` truthfully.
        let s = &outcome.stats;
        Ok(Response::json(
            200,
            format!(
                "{{\"precision\": {}, \"schema_cached\": {}, \"request_cached\": {}, \
                 \"fallback_syntactic\": {}, \"fallback_semantic\": {}, \"report\": {}}}\n",
                quote(s.precision.as_str()),
                s.schema_cached,
                s.request_cached,
                s.fallback_syntactic,
                s.fallback_semantic,
                outcome.report.render_json().trim_end(),
            ),
        ))
    }

    fn explain(&self, schema: &Schema, req: &ComputeRequest) -> Result<Response, ApiError> {
        let (source, projection) = self.view(schema, req)?;
        let label = req
            .method
            .as_deref()
            .ok_or_else(|| bad("missing `method` (a method label to explain)"))?;
        let method = schema
            .method_by_label(label)
            .map_err(|e| bad(e.to_string()))?;
        let e = explain(schema, source, &projection, method).map_err(|e| bad(e.to_string()))?;
        Ok(Response::json(
            200,
            format!(
                "{{\"method\": {}, \"applicable\": {}, \"explanation\": {}}}\n",
                quote(label),
                e.is_applicable(),
                quote(&e.render(schema))
            ),
        ))
    }

    fn batch(&self, req: &ComputeRequest, charge: &mut Charge) -> Result<Response, ApiError> {
        let requests_text = req.requests.as_deref().ok_or_else(|| {
            bad("missing `requests` (request-file text, one `Type: attrs` per line)")
        })?;
        // Registered schemas batch from the shared warm snapshot; inline
        // texts build a throwaway deriver.
        let deriver = match (&req.schema, &req.schema_text) {
            (Some(name), None) => {
                let entry = self.lookup(&req.tenant, name)?;
                td_driver::BatchDeriver::from_snapshot(entry.snapshot.clone())
            }
            _ => td_driver::BatchDeriver::new(&self.resolve(req)?),
        };
        let base = deriver.snapshot().clone();
        // The same located-error parser `tdv batch` uses: a bad line
        // comes back as `line N: message`.
        let requests = td_driver::parse_requests(base.schema(), requests_text)
            .map_err(|e| bad(format!("requests: {e}")))?;
        let mut deriver = deriver.lint(true);
        if let Some(threads) = req.threads {
            if threads == 0 || threads > 64 {
                return Err(bad("`threads` must be between 1 and 64"));
            }
            deriver = deriver.threads(threads);
        }
        deriver.warm();
        let outcome = deriver.run(&requests);
        let s = &outcome.stats;
        charge.cache = s.cache;
        charge.invariant_violations = s.invariant_violations as u64;
        Ok(Response::json(
            200,
            format!(
                "{{\"report\": {}, \"requests\": {}, \"ok\": {}, \"errors\": {}, \"invariant_violations\": {}}}\n",
                quote(&outcome.render(base.schema())),
                s.requests,
                s.succeeded,
                s.failed,
                s.invariant_violations
            ),
        ))
    }
}

/// The parsed body of a `POST /v1/{verb}` request.
struct ComputeRequest {
    tenant: String,
    schema: Option<String>,
    schema_text: Option<String>,
    ty: Option<String>,
    attrs: Vec<String>,
    method: Option<String>,
    requests: Option<String>,
    threads: Option<usize>,
    delay_ms: u64,
    /// Lint parses inline text leniently so structural problems become
    /// diagnostics instead of a 400.
    lenient: bool,
    /// Applicability-index precision for `analyze` (`syntactic` default).
    precision: AnalysisPrecision,
    /// Output shape for `analyze`: `"json"` (default) or `"sarif"`.
    format: Option<String>,
}

impl ComputeRequest {
    fn parse(verb: &str, body: &[u8]) -> Result<ComputeRequest, ApiError> {
        let text = std::str::from_utf8(body).map_err(|_| bad("body must be UTF-8 JSON"))?;
        let doc = Json::parse(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| bad("body must be a JSON object"))?;

        // Reject unknown fields by name: a typo like "atrs" fails loudly
        // instead of deriving the unprojected view.
        let allowed: &[&str] = match verb {
            "batch" => &[
                "tenant",
                "schema",
                "schema_text",
                "requests",
                "threads",
                "delay_ms",
            ],
            "explain" => &[
                "tenant",
                "schema",
                "schema_text",
                "type",
                "attrs",
                "method",
                "delay_ms",
            ],
            "analyze" => &[
                "tenant",
                "schema",
                "schema_text",
                "type",
                "attrs",
                "precision",
                "format",
                "delay_ms",
            ],
            _ => &[
                "tenant",
                "schema",
                "schema_text",
                "type",
                "attrs",
                "delay_ms",
            ],
        };
        if let Some(unknown) = obj.keys().find(|k| !allowed.contains(&k.as_str())) {
            return Err(bad(format!(
                "unknown field `{unknown}` (expected one of: {})",
                allowed.join(", ")
            )));
        }

        let get_str = |key: &str| -> Result<Option<String>, ApiError> {
            match obj.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| bad(format!("`{key}` must be a string"))),
            }
        };

        let tenant = get_str("tenant")?.unwrap_or_else(|| "default".to_string());
        if !Registry::valid_name(&tenant) {
            return Err(bad("`tenant` must be 1-64 chars of [A-Za-z0-9._-]"));
        }
        let attrs = match obj.get("attrs") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| bad("`attrs` must be an array of attribute names"))?
                .iter()
                .map(|a| {
                    a.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad("`attrs` entries must be strings"))
                })
                .collect::<Result<Vec<String>, ApiError>>()?,
        };
        let threads = match obj.get("threads") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_usize()
                    .ok_or_else(|| bad("`threads` must be a non-negative integer"))?,
            ),
        };
        let delay_ms = match obj.get("delay_ms") {
            None | Some(Json::Null) => 0,
            Some(v) => v
                .as_usize()
                .ok_or_else(|| bad("`delay_ms` must be a non-negative integer"))?
                as u64,
        };

        let precision = match get_str("precision")? {
            None => AnalysisPrecision::default(),
            Some(p) => p
                .parse()
                .map_err(|e: String| bad(format!("`precision`: {e}")))?,
        };
        let format = get_str("format")?;
        if let Some(f) = &format {
            if f != "json" && f != "sarif" {
                return Err(bad(format!(
                    "`format` must be `json` or `sarif`, not `{f}`"
                )));
            }
        }

        Ok(ComputeRequest {
            tenant,
            schema: get_str("schema")?,
            schema_text: get_str("schema_text")?,
            ty: get_str("type")?,
            attrs,
            method: get_str("method")?,
            requests: get_str("requests")?,
            threads,
            delay_ms,
            lenient: verb == "lint" || verb == "analyze",
            precision,
            format,
        })
    }
}

/// The admission-control tenant of a request body: its `tenant` field,
/// or `default`. Tolerant by design — a malformed body still needs a
/// queue slot so the worker can answer 400.
pub fn tenant_of(body: &[u8]) -> String {
    std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .and_then(|d| {
            d.as_obj()
                .and_then(|o| o.get("tenant").and_then(|v| v.as_str().map(str::to_string)))
        })
        .unwrap_or_else(|| "default".to_string())
}

/// The endpoint bucket a request charges in metrics and `/v1/stats`.
pub(crate) fn endpoint_key(method: &str, path: &str) -> String {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => "healthz".to_string(),
        ["metrics"] => "metrics".to_string(),
        ["v1", "stats"] => "stats".to_string(),
        ["v1", "debug", ..] => "debug".to_string(),
        ["v1", "tenants", ..] => format!("schemas_{}", method.to_ascii_lowercase()),
        ["v1", verb] => (*verb).to_string(),
        _ => "other".to_string(),
    }
}

/// The canonical derivation record as JSON. `tdv project --json` and
/// `POST /v1/project` both emit exactly this string for the same schema
/// and view, so the CI smoke test can compare them byte for byte.
///
/// `schema` is the post-projection schema (the fork the derivation
/// refactored) — it resolves both the original and the surrogate names.
pub fn derivation_json(schema: &Schema, d: &Derivation) -> String {
    use std::fmt::Write as _;
    let ty = |t: TypeId| quote(schema.type_name(t));
    let pairs = |ps: &[(TypeId, TypeId)]| {
        let inner = ps
            .iter()
            .map(|&(a, b)| format!("[{}, {}]", ty(a), ty(b)))
            .collect::<Vec<_>>()
            .join(", ");
        format!("[{inner}]")
    };
    let labels = |ms: &[td_model::MethodId]| {
        str_array(ms.iter().map(|&m| schema.method_label(m).to_string()))
    };
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"source\": {},", ty(d.source));
    let _ = writeln!(out, "  \"derived\": {},", ty(d.derived));
    let _ = writeln!(
        out,
        "  \"projection\": {},",
        str_array(
            d.projection
                .iter()
                .map(|&a| schema.attr_name(a).to_string())
        )
    );
    let _ = writeln!(out, "  \"applicable\": {},", labels(d.applicable()));
    let _ = writeln!(out, "  \"not_applicable\": {},", labels(d.not_applicable()));
    let _ = writeln!(
        out,
        "  \"factor_surrogates\": {},",
        pairs(&d.factor_surrogates)
    );
    let _ = writeln!(
        out,
        "  \"augment_surrogates\": {},",
        pairs(&d.augment_surrogates)
    );
    let moved = d
        .moved_attrs
        .iter()
        .map(|&(a, from, to)| format!("[{}, {}, {}]", quote(schema.attr_name(a)), ty(from), ty(to)))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "  \"moved_attrs\": [{moved}],");
    let _ = writeln!(
        out,
        "  \"z_types\": {},",
        str_array(d.z_types.iter().map(|&t| schema.type_name(t).to_string()))
    );
    let invariants = match &d.invariants {
        Some(r) if r.ok() => "true",
        Some(_) => "false",
        None => "null",
    };
    let _ = writeln!(out, "  \"invariants_ok\": {invariants}");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3, Example 1 of the paper — the schema the CI smoke test
    /// drives through every endpoint.
    const FIG: &str = r#"
        type Person { SSN: int  name: str  date_of_birth: int }
        type Employee : Person { pay_rate: float  hrs_worked: float }
        accessors SSN
        accessors date_of_birth
        accessors pay_rate
        accessors hrs_worked
        method age(Person) -> int { return 2026 - get_date_of_birth($0); }
        method pay(Employee) -> float { return get_pay_rate($0) * get_hrs_worked($0); }
    "#;

    fn project_body(schema_field: &str) -> String {
        format!(
            "{{{schema_field}, \"type\": \"Employee\", \"attrs\": [\"SSN\", \"pay_rate\", \"hrs_worked\"]}}"
        )
    }

    fn inline_schema_field() -> String {
        format!("\"schema_text\": {}", quote(FIG))
    }

    #[test]
    fn project_inline_and_registered_agree_byte_for_byte() {
        let api = Api::new();
        let cold = api.handle(
            "POST",
            "/v1/project",
            "",
            project_body(&inline_schema_field()).as_bytes(),
        );
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert!(cold.body.contains("\"derived\""));

        let put = api.handle("PUT", "/v1/tenants/acme/schemas/fig3", "", FIG.as_bytes());
        assert_eq!(put.status, 201, "{}", put.body);
        let warm_body = project_body("\"tenant\": \"acme\", \"schema\": \"fig3\"");
        let warm = api.handle("POST", "/v1/project", "", warm_body.as_bytes());
        assert_eq!(warm.status, 200, "{}", warm.body);
        assert_eq!(cold.body, warm.body);
        // Second warm request: same bytes again (the shared snapshot's
        // caches must not change answers).
        let again = api.handle("POST", "/v1/project", "", warm_body.as_bytes());
        assert_eq!(again.body, warm.body);
    }

    #[test]
    fn applicable_partitions_methods() {
        let api = Api::new();
        let body = format!(
            "{{{}, \"type\": \"Employee\", \"attrs\": [\"SSN\", \"pay_rate\", \"hrs_worked\"]}}",
            inline_schema_field()
        );
        let r = api.handle("POST", "/v1/applicable", "", body.as_bytes());
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = Json::parse(&r.body).unwrap();
        let applicable: Vec<&str> = doc.as_obj().unwrap()["applicable"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert!(applicable.iter().any(|l| l.contains("pay")));
        let not: Vec<&str> = doc.as_obj().unwrap()["not_applicable"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert!(not.iter().any(|l| l.contains("age")));
    }

    #[test]
    fn explain_lint_and_batch_answer() {
        let api = Api::new();
        api.handle("PUT", "/v1/tenants/t/schemas/s", "", FIG.as_bytes());
        let explain = api.handle(
            "POST",
            "/v1/explain",
            "",
            concat!(
                "{\"tenant\": \"t\", \"schema\": \"s\", \"type\": \"Employee\", ",
                "\"attrs\": [\"SSN\"], \"method\": \"age\"}"
            )
            .as_bytes(),
        );
        assert_eq!(explain.status, 200, "{}", explain.body);
        assert!(explain.body.contains("\"applicable\": false"));

        let lint = api.handle(
            "POST",
            "/v1/lint",
            "",
            "{\"tenant\": \"t\", \"schema\": \"s\"}".as_bytes(),
        );
        assert_eq!(lint.status, 200, "{}", lint.body);

        let batch = api.handle(
            "POST",
            "/v1/batch",
            "",
            format!(
                "{{\"tenant\": \"t\", \"schema\": \"s\", \"threads\": 2, \"requests\": {}}}",
                quote("Employee: SSN, pay_rate, hrs_worked\nPerson: SSN\n")
            )
            .as_bytes(),
        );
        assert_eq!(batch.status, 200, "{}", batch.body);
        let doc = Json::parse(&batch.body).unwrap();
        assert_eq!(doc.as_obj().unwrap()["ok"].as_usize(), Some(2));
    }

    #[test]
    fn reads_cache_on_the_registered_snapshot() {
        let api = Api::new();
        api.handle("PUT", "/v1/tenants/t/schemas/s", "", FIG.as_bytes());
        let entry = api.registry.get("t", "s").unwrap();
        let lint_hits = || entry.snapshot.schema().dispatch_cache_stats().lint_hits;
        let body = concat!(
            "{\"tenant\": \"t\", \"schema\": \"s\", \"type\": \"Employee\", ",
            "\"attrs\": [\"SSN\", \"pay_rate\"]}"
        );
        let first = api.handle("POST", "/v1/lint", "", body.as_bytes());
        assert_eq!(first.status, 200, "{}", first.body);
        let after_first = lint_hits();
        let second = api.handle("POST", "/v1/lint", "", body.as_bytes());
        assert_eq!(second.body, first.body);
        // The second lint answers from the reports the first one left on
        // the shared snapshot; a per-request copy would have dropped them.
        assert!(
            lint_hits() > after_first,
            "{after_first} -> {}",
            lint_hits()
        );
    }

    #[test]
    fn reads_by_name_match_reads_of_the_same_text() {
        let api = Api::new();
        api.handle("PUT", "/v1/tenants/t/schemas/s", "", FIG.as_bytes());
        let views = [
            ("applicable", "\"type\": \"Employee\", \"attrs\": [\"SSN\", \"pay_rate\"]"),
            ("applicable", "\"type\": \"Person\", \"attrs\": [\"date_of_birth\"]"),
            ("lint", "\"type\": \"Employee\", \"attrs\": [\"SSN\"]"),
            ("lint", "\"type\": \"Person\", \"attrs\": []"),
            (
                "explain",
                "\"type\": \"Employee\", \"attrs\": [\"SSN\"], \"method\": \"age\"",
            ),
            (
                "explain",
                "\"type\": \"Employee\", \"attrs\": [\"pay_rate\", \"hrs_worked\"], \"method\": \"pay\"",
            ),
        ];
        // Twice over: the second pass answers from warm caches.
        for _ in 0..2 {
            for (verb, view) in views {
                let path = format!("/v1/{verb}");
                let by_name = format!("{{\"tenant\": \"t\", \"schema\": \"s\", {view}}}");
                let by_text = format!("{{{}, {view}}}", inline_schema_field());
                let named = api.handle("POST", &path, "", by_name.as_bytes());
                let inline = api.handle("POST", &path, "", by_text.as_bytes());
                assert_eq!(named.status, 200, "{verb} {view}: {}", named.body);
                assert_eq!(named.body, inline.body, "{verb} {view}");
            }
        }
    }

    #[test]
    fn analyze_answers_with_stats_and_sarif() {
        let api = Api::new();
        api.handle("PUT", "/v1/tenants/t/schemas/s", "", FIG.as_bytes());
        let body = "{\"tenant\": \"t\", \"schema\": \"s\"}";
        let cold = api.handle("POST", "/v1/analyze", "", body.as_bytes());
        assert_eq!(cold.status, 200, "{}", cold.body);
        let doc = Json::parse(&cold.body).unwrap();
        assert_eq!(
            doc.as_obj().unwrap()["precision"].as_str(),
            Some("syntactic")
        );
        assert!(doc.as_obj().unwrap()["report"].as_obj().is_some());

        // Second request over the same registered schema answers from the
        // warm shared snapshot's analysis cache.
        let warm = api.handle("POST", "/v1/analyze", "", body.as_bytes());
        let doc = Json::parse(&warm.body).unwrap();
        assert_eq!(
            doc.as_obj().unwrap()["schema_cached"],
            Json::Bool(true),
            "{}",
            warm.body
        );

        // A projection-scoped request at semantic precision, as SARIF.
        let sarif = api.handle(
            "POST",
            "/v1/analyze",
            "",
            concat!(
                "{\"tenant\": \"t\", \"schema\": \"s\", \"type\": \"Employee\", ",
                "\"attrs\": [\"SSN\"], \"precision\": \"semantic\", \"format\": \"sarif\"}"
            )
            .as_bytes(),
        );
        assert_eq!(sarif.status, 200, "{}", sarif.body);
        assert!(sarif.body.contains("\"td-analyze\""), "{}", sarif.body);

        // Bad knobs are 400s, not silent defaults.
        let bad = api.handle(
            "POST",
            "/v1/analyze",
            "",
            "{\"tenant\": \"t\", \"schema\": \"s\", \"precision\": \"sharp\"}".as_bytes(),
        );
        assert_eq!(bad.status, 400, "{}", bad.body);
        let bad = api.handle(
            "POST",
            "/v1/analyze",
            "",
            "{\"tenant\": \"t\", \"schema\": \"s\", \"format\": \"xml\"}".as_bytes(),
        );
        assert_eq!(bad.status, 400, "{}", bad.body);
    }

    #[test]
    fn batch_reports_located_request_errors() {
        let api = Api::new();
        let r = api.handle(
            "POST",
            "/v1/batch",
            "",
            format!(
                "{{{}, \"requests\": {}}}",
                inline_schema_field(),
                quote("Employee: SSN\nno-colon-here\n")
            )
            .as_bytes(),
        );
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("line 2"), "{}", r.body);
    }

    #[test]
    fn error_paths_have_stable_statuses() {
        let api = Api::new();
        // Unknown endpoint and wrong method.
        assert_eq!(api.handle("GET", "/v1/nope", "", b"").status, 404);
        assert_eq!(api.handle("POST", "/metrics", "", b"").status, 405);
        // Bad JSON, unknown field, missing schema, unknown names.
        assert_eq!(api.handle("POST", "/v1/project", "", b"{oops").status, 400);
        let r = api.handle(
            "POST",
            "/v1/project",
            "",
            format!(
                "{{{}, \"type\": \"Employee\", \"atrs\": []}}",
                inline_schema_field()
            )
            .as_bytes(),
        );
        assert_eq!(r.status, 400);
        assert!(r.body.contains("atrs"), "{}", r.body);
        // `engine` is an unknown field like any other.
        for verb in ["project", "lint"] {
            let r = api.handle(
                "POST",
                &format!("/v1/{verb}"),
                "",
                format!(
                    "{{{}, \"type\": \"Employee\", \"attrs\": [\"SSN\"], \"engine\": \"stack\"}}",
                    inline_schema_field()
                )
                .as_bytes(),
            );
            assert_eq!(r.status, 400, "{verb}: {}", r.body);
            assert!(r.body.contains("unknown field `engine`"), "{}", r.body);
        }
        assert_eq!(
            api.handle("POST", "/v1/project", "", b"{\"type\": \"T\"}")
                .status,
            400
        );
        let r = api.handle(
            "POST",
            "/v1/project",
            "",
            format!(
                "{{{}, \"type\": \"Nope\", \"attrs\": []}}",
                inline_schema_field()
            )
            .as_bytes(),
        );
        assert_eq!(r.status, 400);
        // Unregistered schema name.
        assert_eq!(
            api.handle(
                "POST",
                "/v1/project",
                "",
                b"{\"schema\": \"ghost\", \"type\": \"T\", \"attrs\": []}"
            )
            .status,
            404
        );
        assert_eq!(
            api.handle("GET", "/v1/tenants/t/schemas/ghost", "", b"")
                .status,
            404
        );
        assert_eq!(
            api.handle("PUT", "/v1/tenants/bad name/schemas/s", "", FIG.as_bytes())
                .status,
            400
        );
    }

    #[test]
    fn stats_and_metrics_reflect_traffic() {
        let api = Api::new();
        api.handle("GET", "/healthz", "", b"");
        api.handle("GET", "/healthz", "", b"");
        api.handle("PUT", "/v1/tenants/t/schemas/s", "", FIG.as_bytes());
        let stats = api.handle("GET", "/v1/stats", "", b"");
        assert_eq!(stats.status, 200);
        let doc = Json::parse(&stats.body).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(
            obj["requests"].as_obj().unwrap()["healthz"].as_usize(),
            Some(2)
        );
        let schemas = obj["schemas"].as_arr().unwrap();
        assert_eq!(schemas[0].as_obj().unwrap()["name"].as_str(), Some("s"));
        // The Prometheus exposition answers regardless of format.
        let prom = api.handle("GET", "/metrics", "", b"");
        assert_eq!(prom.status, 200);
        let js = api.handle("GET", "/metrics", "format=json", b"");
        assert_eq!(js.status, 200);
        assert!(Json::parse(&js.body).is_ok(), "{}", js.body);
    }

    #[test]
    fn tenant_of_reads_the_field_tolerantly() {
        assert_eq!(tenant_of(b"{\"tenant\": \"acme\"}"), "acme");
        assert_eq!(tenant_of(b"{}"), "default");
        assert_eq!(tenant_of(b"not json"), "default");
    }

    #[test]
    fn traced_requests_echo_traceparent_and_land_in_the_flight_recorder() {
        let api = Api::new();
        let trace = TraceId::parse_hex("4bf92f3577b34da6a3ce929d0e0e4736").unwrap();
        let ctx = RequestCtx {
            trace: Some(trace),
            tenant: Some("acme".to_string()),
            queue_us: 7,
        };
        let r = api.handle_with("GET", "/healthz", "", b"", &ctx);
        assert_eq!(r.status, 200);
        let echoed = r
            .extra_headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("traceparent"))
            .map(|(_, v)| v.clone())
            .expect("traced response must echo a Traceparent header");
        assert_eq!(echoed, trace.traceparent());

        // A later traced request; the recorder serves most recent first.
        let trace2 = TraceId::generate();
        let ctx2 = RequestCtx {
            trace: Some(trace2),
            tenant: None,
            queue_us: 0,
        };
        api.handle_with("GET", "/v1/stats", "", b"", &ctx2);

        let dbg = api.handle("GET", "/v1/debug/requests", "", b"");
        assert_eq!(dbg.status, 200, "{}", dbg.body);
        let doc = Json::parse(&dbg.body).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["capacity"].as_usize(), Some(FLIGHT_RECORDER_CAPACITY));
        let rows = obj["requests"].as_arr().unwrap();
        assert!(rows.len() >= 2);
        let newest = rows[0].as_obj().unwrap();
        assert_eq!(
            newest["trace"].as_str(),
            Some(trace2.to_string()).as_deref()
        );
        let older = rows[1].as_obj().unwrap();
        assert_eq!(
            older["trace"].as_str(),
            Some("4bf92f3577b34da6a3ce929d0e0e4736")
        );
        assert_eq!(older["tenant"].as_str(), Some("acme"));
        assert_eq!(older["endpoint"].as_str(), Some("healthz"));
        assert_eq!(older["queue_us"].as_usize(), Some(7));
        let total = older["total_us"].as_usize().unwrap();
        let exec = older["exec_us"].as_usize().unwrap();
        assert_eq!(total, exec + 7);

        // Untraced dispatches never enter the recorder.
        let before = rows.len();
        api.handle("GET", "/healthz", "", b"");
        let dbg = api.handle("GET", "/v1/debug/requests", "", b"");
        let doc = Json::parse(&dbg.body).unwrap();
        let after = doc.as_obj().unwrap()["requests"].as_arr().unwrap().len();
        // The debug GET above was itself untraced too.
        assert_eq!(after, before);
    }

    #[test]
    fn invariant_violations_reach_the_flight_recorder_and_metrics() {
        let api = Api::new();
        let ctx = RequestCtx {
            trace: Some(TraceId::generate()),
            tenant: None,
            queue_us: 0,
        };
        let r = api.handle_with(
            "POST",
            "/v1/project",
            "",
            project_body(&inline_schema_field()).as_bytes(),
            &ctx,
        );
        assert_eq!(r.status, 200, "{}", r.body);

        let dbg = api.handle("GET", "/v1/debug/requests", "", b"");
        let doc = Json::parse(&dbg.body).unwrap();
        let rows = doc.as_obj().unwrap()["requests"].as_arr().unwrap();
        let row = rows[0].as_obj().unwrap();
        assert_eq!(row["endpoint"].as_str(), Some("project"));
        assert_eq!(row["invariant_violations"].as_usize(), Some(0));

        // Server tests derive cleanly only, so the process-wide total is 0.
        let prom = api.handle("GET", "/metrics", "", b"");
        assert!(
            prom.body.contains("\ncore_invariant_violations 0\n"),
            "{}",
            prom.body
        );
        let json = api.handle("GET", "/metrics", "format=json", b"");
        assert!(
            json.body.contains("\"core/invariant_violations\": 0"),
            "{}",
            json.body
        );
    }

    #[test]
    fn traced_requests_record_the_cache_movement_of_their_schema() {
        let api = Api::new();
        api.handle("PUT", "/v1/tenants/t/schemas/s", "", FIG.as_bytes());
        let record = |path: &str, body: &str| {
            let ctx = RequestCtx {
                trace: Some(TraceId::generate()),
                tenant: None,
                queue_us: 0,
            };
            let r = api.handle_with("POST", path, "", body.as_bytes(), &ctx);
            assert_eq!(r.status, 200, "{}", r.body);
            let dbg = api.handle("GET", "/v1/debug/requests", "", b"");
            let doc = Json::parse(&dbg.body).unwrap();
            let row = &doc.as_obj().unwrap()["requests"].as_arr().unwrap()[0];
            let count = |k: &str| row.as_obj().unwrap()[k].as_usize().unwrap();
            (count("cache_hits"), count("cache_misses"))
        };
        // The derivation runs on a fork of the warm registered snapshot,
        // so its dispatch and CPL lookups hit.
        let (hits, _) = record(
            "/v1/project",
            &project_body("\"tenant\": \"t\", \"schema\": \"s\""),
        );
        assert!(hits > 0, "project recorded no cache hits");
        // A read charges the registered snapshot: the first lint misses,
        // the same lint again hits what the first one stored.
        let lint =
            "{\"tenant\": \"t\", \"schema\": \"s\", \"type\": \"Person\", \"attrs\": [\"SSN\"]}";
        let (_, first_misses) = record("/v1/lint", lint);
        assert!(first_misses > 0);
        let (again_hits, again_misses) = record("/v1/lint", lint);
        assert!(
            again_hits > 0 && again_misses == 0,
            "{again_hits}/{again_misses}"
        );
    }

    /// `method f(A)` and `method f(C)` share the label `f`. Editing
    /// f(A)'s body must dirty A's carried index, or the edited schema
    /// keeps answering from the old one.
    #[test]
    fn an_edit_to_a_method_sharing_its_label_is_not_carried_stale() {
        let head = "type A { x: int  y: int }\ntype C { z: int }\naccessors x\n";
        let base = format!("{head}method f(A) {{}}\nmethod f(C) {{}}\n");
        let edited = format!("{head}method f(A) {{ get_x($0); }}\nmethod f(C) {{}}\n");
        let read = |api: &Api| {
            let body =
                "{\"tenant\": \"t\", \"schema\": \"s\", \"type\": \"A\", \"attrs\": [\"y\"]}";
            let r = api.handle("POST", "/v1/applicable", "", body.as_bytes());
            assert_eq!(r.status, 200, "{}", r.body);
            r.body
        };
        let api = Api::new();
        api.handle("PUT", "/v1/tenants/t/schemas/s", "", base.as_bytes());
        assert!(read(&api).contains("\"applicable\": [\"f\"]"));
        let put = api.handle("PUT", "/v1/tenants/t/schemas/s", "", edited.as_bytes());
        assert_eq!(put.status, 200, "{}", put.body);
        assert!(
            put.body.contains("\"diff\": \"methods ~1\""),
            "{}",
            put.body
        );
        let fresh = Api::new();
        fresh.handle("PUT", "/v1/tenants/t/schemas/s", "", edited.as_bytes());
        assert!(read(&fresh).contains("\"applicable\": []"));
        assert_eq!(read(&api), read(&fresh));
    }

    #[test]
    fn flight_recorder_evicts_oldest_beyond_capacity() {
        let api = Api::new();
        let first = TraceId::generate();
        let ctx = RequestCtx {
            trace: Some(first),
            tenant: None,
            queue_us: 0,
        };
        api.handle_with("GET", "/healthz", "", b"", &ctx);
        for _ in 0..FLIGHT_RECORDER_CAPACITY {
            let ctx = RequestCtx {
                trace: Some(TraceId::generate()),
                tenant: None,
                queue_us: 0,
            };
            api.handle_with("GET", "/healthz", "", b"", &ctx);
        }
        let recorder = api.recorder.lock().unwrap();
        assert_eq!(recorder.len(), FLIGHT_RECORDER_CAPACITY);
        assert!(recorder.iter().all(|r| r.trace != first.to_string()));
    }

    #[test]
    fn stats_window_section_tracks_endpoints_tenants_and_rejections() {
        let api = Api::new();
        api.set_slo_objective_us(250_000);
        let ctx = RequestCtx {
            trace: None,
            tenant: Some("acme".to_string()),
            queue_us: 3,
        };
        api.handle_with("GET", "/healthz", "", b"", &ctx);
        api.record_rejection("project", "acme", 429);

        let stats = api.handle("GET", "/v1/stats", "", b"");
        assert_eq!(stats.status, 200, "{}", stats.body);
        let doc = Json::parse(&stats.body).unwrap();
        let window = doc.as_obj().unwrap()["window"].as_obj().unwrap();
        assert_eq!(
            window["seconds"].as_usize(),
            Some(td_telemetry::WINDOW_SECONDS as usize)
        );
        assert_eq!(window["slo_objective_us"].as_usize(), Some(250_000));
        // The healthz dispatch plus the rejection (other tests in this
        // process may add more — the metrics registry is global).
        assert!(window["requests_60s"].as_usize().unwrap() >= 2);
        assert!(window["errors_60s"].as_usize().unwrap() >= 1);
        assert!(window["throttled_429_60s"].as_usize().unwrap() >= 1);
        let endpoints = window["endpoints"].as_obj().unwrap();
        let healthz = endpoints["healthz"].as_obj().unwrap();
        assert!(healthz["window_count"].as_usize().unwrap() >= 1);
        assert!(healthz.contains_key("p50"));
        assert!(healthz.contains_key("p95"));
        assert!(healthz.contains_key("p99"));
        let tenants = window["tenants"].as_obj().unwrap();
        assert!(
            tenants["acme"].as_obj().unwrap()["window_count"]
                .as_usize()
                .unwrap()
                >= 1
        );

        // The windowed tails also surface on the Prometheus exposition.
        let prom = api.handle("GET", "/metrics", "", b"");
        assert!(
            prom.body.contains("server_window_us_healthz_p95"),
            "{}",
            prom.body
        );
    }
}
