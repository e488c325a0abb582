//! # td-driver — the parallel batch derivation engine
//!
//! The paper's algorithms derive **one** view type at a time; a
//! production deployment derives *fleets* of them — rebuilding every
//! materialized view after a schema migration, serving per-tenant view
//! families, or sweeping a workload generator in the benchmarks. This
//! crate turns the single-shot `td_core::project` pipeline into a bulk
//! engine:
//!
//! * the base [`Schema`] is frozen once into a copy-on-write
//!   [`SchemaSnapshot`] — every worker shares the same read-only schema
//!   (and its warm dispatch cache) and takes a private fork only for the
//!   mutating derivation itself;
//! * requests fan out over `std::thread::scope` workers pulling indices
//!   from a shared atomic cursor (no per-request thread spawn, no
//!   channels, no external dependencies);
//! * every request runs the full pipeline in isolation — projection →
//!   applicability → factor-state → factor-methods → invariant check —
//!   so one request's failure or invariant violation cannot poison its
//!   siblings;
//! * results merge deterministically in request order: the output for N
//!   worker threads is byte-identical to the sequential run
//!   ([`BatchOutcome::render`] is the canonical comparison form).
//!
//! ```
//! use td_model::Schema;
//! use td_driver::{BatchDeriver, BatchRequest};
//!
//! let mut s = Schema::new();
//! let person = s.add_type("Person", &[]).unwrap();
//! for name in ["SSN", "name"] {
//!     let a = s.add_attr(name, td_model::ValueType::INT, person).unwrap();
//!     s.add_accessors(a).unwrap();
//! }
//! let requests = vec![
//!     BatchRequest::by_names(&s, "Person", &["SSN"]).unwrap(),
//!     BatchRequest::by_names(&s, "Person", &["name"]).unwrap(),
//! ];
//! let outcome = BatchDeriver::new(&s).threads(2).run(&requests);
//! assert!(outcome.all_ok());
//! assert_eq!(outcome.results.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use td_core::{project, CoreError, Derivation, ProjectionOptions, StageTimings};
use td_model::{
    AttrId, DispatchCacheStats, LintReport, ModelError, Schema, SchemaSnapshot, TypeId,
};

/// One projection request: derive `Π_projection(source)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// The projection's source type.
    pub source: TypeId,
    /// The attributes the view keeps.
    pub projection: BTreeSet<AttrId>,
}

impl BatchRequest {
    /// Builds a request from ids.
    pub fn new(source: TypeId, projection: BTreeSet<AttrId>) -> BatchRequest {
        BatchRequest { source, projection }
    }

    /// Resolves a request from a type name and attribute names.
    pub fn by_names(
        schema: &Schema,
        source: &str,
        attrs: &[&str],
    ) -> td_model::Result<BatchRequest> {
        let source = schema.type_id(source)?;
        let projection = attrs
            .iter()
            .map(|n| schema.attr_id(n))
            .collect::<td_model::Result<_>>()?;
        Ok(BatchRequest { source, projection })
    }

    /// `Π_{a, b}(T)` rendering against the base schema.
    pub fn describe(&self, schema: &Schema) -> String {
        let attrs = self
            .projection
            .iter()
            .map(|&a| {
                if a.index() < schema.n_attrs() {
                    schema.attr_name(a).to_string()
                } else {
                    a.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(", ");
        let source = if schema.is_live(self.source) {
            schema.type_name(self.source).to_string()
        } else {
            self.source.to_string()
        };
        format!("Π_{{{attrs}}}({source})")
    }
}

impl From<(TypeId, BTreeSet<AttrId>)> for BatchRequest {
    fn from((source, projection): (TypeId, BTreeSet<AttrId>)) -> Self {
        BatchRequest { source, projection }
    }
}

/// A located error from [`parse_requests`]: every failure names the
/// 1-based line of the request file (or request body) it came from, so
/// both the `tdv batch` CLI path and the server's `/v1/batch` endpoint
/// point at the offending request instead of surfacing a bare error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestParseError {
    /// 1-based line number of the malformed request.
    pub line: usize,
    /// What went wrong on that line.
    pub message: String,
}

impl std::fmt::Display for RequestParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RequestParseError {}

/// Parses a batch request listing: one `Type: attr,attr,…` projection per
/// line, blank lines and `#` comments ignored. Both syntax failures and
/// name-resolution failures report the 1-based line number.
pub fn parse_requests(schema: &Schema, src: &str) -> Result<Vec<BatchRequest>, RequestParseError> {
    let err = |line: usize, message: String| RequestParseError {
        line: line + 1,
        message,
    };
    let mut requests = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (ty, attrs) = line
            .split_once(':')
            .ok_or_else(|| err(lineno, "expected `Type: attr,…`".to_string()))?;
        let ty = ty.trim();
        if ty.is_empty() {
            return Err(err(lineno, "expected a type name before `:`".to_string()));
        }
        let attrs: Vec<&str> = attrs
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let request =
            BatchRequest::by_names(schema, ty, &attrs).map_err(|e| err(lineno, e.to_string()))?;
        requests.push(request);
    }
    Ok(requests)
}

/// The outcome of one request within a batch.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Position of the request in the submitted list.
    pub index: usize,
    /// The request itself.
    pub request: BatchRequest,
    /// The derivation record, or the pipeline error.
    pub result: Result<Derivation, CoreError>,
    /// The refactored fork of the schema (`Some` on success) — callers
    /// use it to resolve surrogate names or materialize the view.
    pub schema: Option<Schema>,
    /// Dispatch-cache activity attributable to this request alone (the
    /// fork's final counters minus the snapshot's counters at fork time).
    pub cache: DispatchCacheStats,
    /// The TDL lint report for this request (schema checks plus
    /// projection-safety checks), when [`BatchDeriver::lint`] was enabled.
    /// `None` when linting was off or the request failed id validation.
    pub lint: Option<LintReport>,
    /// Wall-clock time this request spent on its worker.
    pub duration: Duration,
}

impl RequestOutcome {
    /// True when the derivation succeeded.
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }

    /// True when invariants were checked and all hold (false on error or
    /// when checking was disabled).
    pub fn invariants_ok(&self) -> bool {
        self.result
            .as_ref()
            .map(|d| d.invariants_ok())
            .unwrap_or(false)
    }

    /// One deterministic report line (no timings), in terms of the base
    /// schema the batch ran against.
    fn render_line(&self, base: &Schema) -> String {
        let head = format!("#{} {}", self.index, self.request.describe(base));
        match &self.result {
            Ok(d) => {
                let invariants = match &d.invariants {
                    Some(r) if r.ok() => ", invariants hold",
                    Some(_) => ", INVARIANTS VIOLATED",
                    None => "",
                };
                let derived = self
                    .schema
                    .as_ref()
                    .map(|s| s.type_name(d.derived).to_string())
                    .unwrap_or_else(|| d.derived.to_string());
                format!(
                    "{head} → {derived}: {} applicable, {} not, {} surrogates{invariants}",
                    d.applicable().len(),
                    d.not_applicable().len(),
                    d.factor_surrogates.len() + d.augment_surrogates.len(),
                )
            }
            Err(e) => format!("{head} → error: {e}"),
        }
    }
}

/// Aggregate statistics for one batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Requests submitted.
    pub requests: usize,
    /// Requests that derived successfully.
    pub succeeded: usize,
    /// Requests that failed with a pipeline error.
    pub failed: usize,
    /// Successful requests whose invariant report found a violation.
    pub invariant_violations: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock time of [`BatchDeriver::run`].
    pub wall_clock: Duration,
    /// Sum of per-request worker time (≈ CPU time; exceeds `wall_clock`
    /// when threads run in parallel).
    pub cpu_time: Duration,
    /// Per-stage timings summed across all successful requests.
    pub stages: StageTimings,
    /// Dispatch-cache hit/miss rollup summed across requests.
    pub cache: DispatchCacheStats,
    /// True when the batch ran with linting enabled.
    pub linted: bool,
    /// Error-severity lint diagnostics summed across requests.
    pub lint_errors: usize,
    /// Warning-severity lint diagnostics summed across requests.
    pub lint_warnings: usize,
    /// Note-severity lint diagnostics summed across requests.
    pub lint_notes: usize,
}

impl std::fmt::Display for BatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        writeln!(
            f,
            "batch: {} requests over {} threads — {} ok, {} errors, {} invariant violations",
            self.requests, self.threads, self.succeeded, self.failed, self.invariant_violations
        )?;
        writeln!(
            f,
            "time:  wall {:.2}ms, cpu {:.2}ms ({:.2}× utilization)",
            ms(self.wall_clock),
            ms(self.cpu_time),
            self.cpu_time.as_secs_f64() / self.wall_clock.as_secs_f64().max(1e-9)
        )?;
        writeln!(f, "stages: {}", self.stages)?;
        if self.linted {
            writeln!(
                f,
                "lint:  {} errors, {} warnings, {} notes",
                self.lint_errors, self.lint_warnings, self.lint_notes
            )?;
        }
        write!(
            f,
            "cache: cpl {}/{} hits, dispatch {}/{} hits",
            self.cache.cpl_hits,
            self.cache.cpl_hits + self.cache.cpl_misses,
            self.cache.dispatch_hits,
            self.cache.dispatch_hits + self.cache.dispatch_misses
        )
    }
}

/// Everything a batch run produced: per-request outcomes in submission
/// order plus aggregate stats.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One outcome per request, ordered by request index.
    pub results: Vec<RequestOutcome>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

impl BatchOutcome {
    /// True when every request derived successfully.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.ok())
    }

    /// The canonical deterministic report: one line per request, in
    /// request order, with no timing data. Two runs of the same batch
    /// over the same base schema render identically regardless of thread
    /// count — this is the byte-comparison form the concurrency tests
    /// (and the determinism guarantee in DESIGN.md) rely on.
    pub fn render(&self, base: &Schema) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&r.render_line(base));
            out.push('\n');
        }
        out.push_str(&format!(
            "batch: {} requests, {} ok, {} errors, {} invariant violations\n",
            self.stats.requests,
            self.stats.succeeded,
            self.stats.failed,
            self.stats.invariant_violations
        ));
        out
    }
}

/// The parallel batch derivation engine.
///
/// Construction freezes a copy-on-write snapshot of the base schema;
/// [`run`](BatchDeriver::run) fans requests out over scoped worker
/// threads, each deriving on a private fork, and merges the outcomes in
/// request order. See the crate docs for the full contract.
#[derive(Debug, Clone)]
pub struct BatchDeriver {
    snapshot: SchemaSnapshot,
    threads: usize,
    options: ProjectionOptions,
    lint: bool,
}

impl BatchDeriver {
    /// Snapshots `schema` and configures default parallelism (the
    /// machine's available cores) and default [`ProjectionOptions`]
    /// (invariant checking on).
    pub fn new(schema: &Schema) -> BatchDeriver {
        BatchDeriver::from_snapshot(schema.snapshot())
    }

    /// Builds the engine around an existing snapshot (no extra clone).
    pub fn from_snapshot(snapshot: SchemaSnapshot) -> BatchDeriver {
        BatchDeriver {
            snapshot,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            options: ProjectionOptions::default(),
            lint: false,
        }
    }

    /// Sets the worker-thread count (clamped to ≥ 1). At run time the
    /// effective count is further clamped to the request count and to
    /// the machine's available parallelism — oversubscribing a small
    /// container buys context switches, not throughput (a 1-core box
    /// ran 4-thread batches ~1.8× *slower* than sequential before the
    /// clamp). `threads(1)` is the sequential reference run.
    pub fn threads(mut self, threads: usize) -> BatchDeriver {
        self.threads = threads.max(1);
        self
    }

    /// Sets the per-request projection options.
    pub fn options(mut self, options: ProjectionOptions) -> BatchDeriver {
        self.options = options;
        self
    }

    /// Enables (or disables) per-request TDL linting. Off by default:
    /// linting adds an applicability pass per request, and throughput
    /// benchmarks measure the bare pipeline. When enabled, the schema-wide
    /// report is computed once on the shared snapshot and every fork
    /// answers it from the inherited cache; only the per-request
    /// projection-safety part is computed per fork.
    pub fn lint(mut self, lint: bool) -> BatchDeriver {
        self.lint = lint;
        self
    }

    /// The shared snapshot the engine derives against.
    pub fn snapshot(&self) -> &SchemaSnapshot {
        &self.snapshot
    }

    /// Pre-warms the snapshot's shared CPL memo by linearizing every
    /// live type once. Every fork taken afterwards starts with the warm
    /// entries instead of recomputing them per request.
    pub fn warm(&self) {
        for t in self.snapshot.live_type_ids() {
            // Cycles in a malformed hierarchy surface as errors later,
            // during derivation; warming must not fail the batch.
            let _ = self.snapshot.cpl(t);
        }
    }

    /// Pre-warms the snapshot's shared applicability index for every
    /// distinct valid source among `requests`, so each fork starts with
    /// the condensation index already built instead of rebuilding it per
    /// request. No-op when the options record a trace, since the traced
    /// path never consults the index. [`run`](BatchDeriver::run) calls
    /// this automatically.
    pub fn warm_applicability_index(&self, requests: &[BatchRequest]) {
        if self.options.record_trace {
            return;
        }
        let mut seen = BTreeSet::new();
        for r in requests {
            if self.validate(r).is_ok() && seen.insert(r.source) {
                // A build failure (e.g. a dataflow error) surfaces as the
                // per-request pipeline error instead; warming never fails
                // the batch.
                let _ = self.snapshot.cached_applicability_index(r.source);
            }
        }
    }

    /// Runs the batch: every request is derived exactly once, in
    /// isolation, and the outcomes are returned in request order.
    pub fn run(&self, requests: &[BatchRequest]) -> BatchOutcome {
        let _span = td_telemetry::span_with_args(
            "batch",
            "run",
            vec![
                ("requests", requests.len().into()),
                ("threads", self.threads.into()),
            ],
        );
        let started = Instant::now();
        // Build the applicability index once per distinct source on the
        // shared snapshot; every fork below inherits the warm Arc instead
        // of condensing the call graph per request.
        {
            let _s = td_telemetry::span("batch", "warm");
            self.warm_applicability_index(requests);
            // Likewise the schema-wide lint report: computed once here,
            // every fork answers the schema part from the inherited cache.
            if self.lint {
                let _ = td_core::lint(self.snapshot.schema(), None);
            }
        }
        let n = requests.len();
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let threads = self.threads.min(n.max(1)).min(cores);
        // Trace scopes and span depth are thread-local; capture both here
        // so worker threads can re-establish them. Each item gets a child
        // id sharing the parent's 16-hex family prefix — one grep over a
        // drained trace finds the whole batch — and every item's spans
        // nest under `batch/run` at the same depth on any thread.
        let parent_trace = td_telemetry::current_trace();
        let parent_depth = td_telemetry::current_depth();

        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut mine = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                mine.push(self.run_one(i, &requests[i], parent_trace));
            }
            mine
        };
        let per_worker: Vec<Vec<RequestOutcome>> = std::thread::scope(|scope| {
            // The calling thread is one of the workers, so a one-thread
            // batch spawns nothing.
            let spawned: Vec<_> = (1..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let _depth = td_telemetry::depth_scope(parent_depth);
                        worker()
                    })
                })
                .collect();
            let mut outcomes = vec![worker()];
            outcomes.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("batch worker panicked")),
            );
            outcomes
        });

        // Deterministic merge: slot every outcome at its request index.
        let mut slots: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
        for outcome in per_worker.into_iter().flatten() {
            let i = outcome.index;
            debug_assert!(slots[i].is_none(), "request {i} processed twice");
            slots[i] = Some(outcome);
        }
        let results: Vec<RequestOutcome> = slots
            .into_iter()
            .map(|s| s.expect("work queue covered every request"))
            .collect();

        let mut stats = BatchStats {
            requests: n,
            threads,
            wall_clock: started.elapsed(),
            ..BatchStats::default()
        };
        stats.linted = self.lint;
        for r in &results {
            stats.cpu_time += r.duration;
            stats.cache = stats.cache.merge(&r.cache);
            if let Some(lint) = &r.lint {
                stats.lint_errors += lint.errors();
                stats.lint_warnings += lint.warnings();
                stats.lint_notes += lint.notes();
            }
            match &r.result {
                Ok(d) => {
                    stats.succeeded += 1;
                    stats.stages.accumulate(&d.stage_times);
                    if matches!(&d.invariants, Some(rep) if !rep.ok()) {
                        stats.invariant_violations += 1;
                    }
                }
                Err(_) => stats.failed += 1,
            }
        }
        // Bridge the rolled-up cache counters into the metrics registry
        // (a no-op while telemetry is off).
        stats.cache.publish();
        BatchOutcome { results, stats }
    }

    /// Validates a request's ids against the snapshot, so malformed
    /// requests become per-request errors instead of worker panics.
    fn validate(&self, request: &BatchRequest) -> Result<(), CoreError> {
        if !self.snapshot.is_live(request.source) {
            return Err(CoreError::Model(ModelError::BadTypeId(request.source)));
        }
        for &a in &request.projection {
            if a.index() >= self.snapshot.n_attrs() {
                return Err(CoreError::Model(ModelError::BadAttrId(a)));
            }
        }
        Ok(())
    }

    fn run_one(
        &self,
        index: usize,
        request: &BatchRequest,
        parent_trace: Option<td_telemetry::TraceId>,
    ) -> RequestOutcome {
        let started = Instant::now();
        if let Err(e) = self.validate(request) {
            return RequestOutcome {
                index,
                request: request.clone(),
                result: Err(e),
                schema: None,
                cache: DispatchCacheStats::default(),
                lint: None,
                duration: started.elapsed(),
            };
        }
        // Only under an ambient trace (a traced server request): the
        // untraced path must emit byte-identical spans regardless of
        // thread count, which per-item ids would break.
        let _trace = parent_trace.map(|p| td_telemetry::trace_scope(p.child(index)));
        let _span = td_telemetry::span_with_args(
            "batch",
            "request",
            vec![
                ("index", index.into()),
                ("source", self.snapshot.type_name(request.source).into()),
                ("attrs", request.projection.len().into()),
            ],
        );
        let mut fork = self.snapshot.fork();
        let at_fork = fork.dispatch_cache_stats();
        // Lint before projecting: the derivation mutates the fork, which
        // bumps its generation and would flush the inherited lint cache.
        let lint = self
            .lint
            .then(|| td_core::lint(&fork, Some((request.source, &request.projection))));
        let result = project(
            &mut fork,
            request.source,
            &request.projection,
            &self.options,
        );
        let cache = fork.dispatch_cache_stats().delta(&at_fork);
        let schema = result.is_ok().then_some(fork);
        RequestOutcome {
            index,
            request: request.clone(),
            result,
            schema,
            cache,
            lint,
            duration: started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::ValueType;

    /// Person <- Employee with accessors and one computed method, enough
    /// to exercise applicability and factoring.
    fn base_schema() -> Schema {
        use td_model::{BodyBuilder, Expr, MethodKind, Specializer};
        let mut s = Schema::new();
        let person = s.add_type("Person", &[]).unwrap();
        let employee = s.add_type("Employee", &[person]).unwrap();
        for (name, owner) in [
            ("SSN", person),
            ("date_of_birth", person),
            ("pay_rate", employee),
        ] {
            let a = s.add_attr(name, ValueType::INT, owner).unwrap();
            s.add_accessors(a).unwrap();
        }
        let get_dob = s.gf_id("get_date_of_birth").unwrap();
        let age = s.add_gf("age", 1, Some(ValueType::INT)).unwrap();
        let mut bb = BodyBuilder::new();
        bb.ret(Expr::call(get_dob, vec![Expr::Param(0)]));
        s.add_method(
            age,
            "age",
            vec![Specializer::Type(person)],
            MethodKind::General(bb.finish()),
            Some(ValueType::INT),
        )
        .unwrap();
        s
    }

    fn requests(s: &Schema) -> Vec<BatchRequest> {
        vec![
            BatchRequest::by_names(s, "Employee", &["SSN", "date_of_birth"]).unwrap(),
            BatchRequest::by_names(s, "Employee", &["pay_rate"]).unwrap(),
            BatchRequest::by_names(s, "Person", &["SSN"]).unwrap(),
        ]
    }

    #[test]
    fn batch_derives_every_request_in_order() {
        let s = base_schema();
        let outcome = BatchDeriver::new(&s).threads(3).run(&requests(&s));
        assert!(outcome.all_ok());
        assert_eq!(outcome.stats.succeeded, 3);
        assert_eq!(outcome.stats.failed, 0);
        assert_eq!(outcome.stats.invariant_violations, 0);
        for (i, r) in outcome.results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.invariants_ok());
            assert!(r.schema.is_some());
            assert!(r.duration > Duration::ZERO);
        }
        // Requests ran in isolation: the base schema is untouched.
        assert_eq!(s.n_types(), 2);
        // Each successful fork contains its own derived surrogate.
        let d0 = outcome.results[0].result.as_ref().unwrap();
        let fork0 = outcome.results[0].schema.as_ref().unwrap();
        assert_eq!(fork0.type_name(d0.derived), "^Employee");
    }

    #[test]
    fn bad_requests_become_per_request_errors() {
        let s = base_schema();
        let mut reqs = requests(&s);
        // Unavailable attribute (pay_rate is not available at Person).
        reqs.push(BatchRequest {
            source: s.type_id("Person").unwrap(),
            projection: [s.attr_id("pay_rate").unwrap()].into_iter().collect(),
        });
        // Out-of-range ids must not panic a worker.
        reqs.push(BatchRequest {
            source: TypeId::from_index(999),
            projection: BTreeSet::new(),
        });
        reqs.push(BatchRequest {
            source: s.type_id("Person").unwrap(),
            projection: [AttrId::from_index(999)].into_iter().collect(),
        });
        let outcome = BatchDeriver::new(&s).threads(2).run(&reqs);
        assert_eq!(outcome.stats.succeeded, 3);
        assert_eq!(outcome.stats.failed, 3);
        assert!(!outcome.all_ok());
        assert!(outcome.results[3].result.is_err());
        assert!(outcome.results[4].result.is_err());
        assert!(outcome.results[5].result.is_err());
        // The deterministic report names each failure.
        let report = outcome.render(&s);
        assert_eq!(report.matches("→ error:").count(), 3);
        assert!(report.contains("6 requests, 3 ok, 3 errors"));
    }

    #[test]
    fn thread_counts_do_not_change_the_report() {
        let s = base_schema();
        let reqs = requests(&s);
        let sequential = BatchDeriver::new(&s).threads(1).run(&reqs).render(&s);
        for threads in [2, 3, 8] {
            let parallel = BatchDeriver::new(&s).threads(threads).run(&reqs).render(&s);
            assert_eq!(sequential, parallel, "threads={threads} diverged");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let s = base_schema();
        let outcome = BatchDeriver::new(&s).run(&[]);
        assert!(outcome.all_ok());
        assert_eq!(outcome.stats.requests, 0);
        assert!(outcome.render(&s).contains("0 requests"));
    }

    #[test]
    fn warm_populates_the_shared_snapshot() {
        let s = base_schema();
        let deriver = BatchDeriver::new(&s);
        assert_eq!(deriver.snapshot().dispatch_cache_stats().cpl_entries, 0);
        deriver.warm();
        assert!(deriver.snapshot().dispatch_cache_stats().cpl_entries > 0);
        // Forks taken after warming carry the entries.
        assert!(deriver.snapshot().fork().dispatch_cache_stats().cpl_entries > 0);
    }

    #[test]
    fn run_warms_the_applicability_index_per_distinct_source() {
        let s = base_schema();
        let deriver = BatchDeriver::new(&s);
        assert_eq!(deriver.snapshot().dispatch_cache_stats().index_entries, 0);
        let outcome = deriver.threads(2).run(&requests(&s));
        assert!(outcome.all_ok());
        // Two distinct sources (Employee, Person) → two resident indexes
        // on the shared snapshot, built exactly once each.
        let stats = outcome
            .results
            .iter()
            .fold(DispatchCacheStats::default(), |acc, r| acc.merge(&r.cache));
        assert_eq!(stats.index_misses, 0, "forks must reuse the warm index");
        assert!(stats.index_hits >= 3, "each request hits the shared index");
    }

    #[test]
    fn lint_reports_surface_in_outcomes_and_stats() {
        let s = base_schema();
        let outcome = BatchDeriver::new(&s)
            .threads(2)
            .lint(true)
            .run(&requests(&s));
        assert!(outcome.all_ok());
        assert!(outcome.results.iter().all(|r| r.lint.is_some()));
        assert!(outcome.stats.linted);
        assert_eq!(outcome.stats.lint_errors, 0);
        // Π_{pay_rate}(Employee) and Π_{SSN}(Person) both strand `age`
        // (its body needs date_of_birth): behavior-free warnings (TDL004).
        assert_eq!(outcome.stats.lint_warnings, 2);
        assert!(
            outcome.stats.to_string().contains("lint:"),
            "{}",
            outcome.stats
        );

        // The schema-wide part was computed once on the shared snapshot;
        // every fork answers it from the inherited cache, paying only the
        // per-request projection-safety miss.
        let merged = outcome
            .results
            .iter()
            .fold(DispatchCacheStats::default(), |acc, r| acc.merge(&r.cache));
        assert_eq!(
            merged.lint_hits, 3,
            "each fork reuses the schema-part report"
        );
        assert_eq!(merged.lint_misses, 3, "one request-part computation each");
    }

    #[test]
    fn lint_is_off_by_default() {
        let s = base_schema();
        let outcome = BatchDeriver::new(&s).run(&requests(&s));
        assert!(outcome.results.iter().all(|r| r.lint.is_none()));
        assert!(!outcome.stats.linted);
        assert!(!outcome.stats.to_string().contains("lint:"));
    }

    #[test]
    fn parse_requests_resolves_and_locates_errors() {
        let s = base_schema();
        let reqs = parse_requests(
            &s,
            "# views\nEmployee: SSN, date_of_birth\n\nPerson: SSN # badge\n",
        )
        .unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(
            reqs[0],
            BatchRequest::by_names(&s, "Employee", &["SSN", "date_of_birth"]).unwrap()
        );
        assert_eq!(
            reqs[1],
            BatchRequest::by_names(&s, "Person", &["SSN"]).unwrap()
        );

        // Every failure mode carries its 1-based line number.
        let e = parse_requests(&s, "Employee: SSN\nEmployee SSN\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expected `Type:"), "{e}");
        let e = parse_requests(&s, "\n\nNope: SSN\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown type name"), "{e}");
        let e = parse_requests(&s, "Person: whoops\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown attribute"), "{e}");
        let e = parse_requests(&s, ": SSN\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("type name before"), "{e}");
        assert_eq!(e.to_string(), format!("line 1: {}", e.message));
    }

    #[test]
    fn stats_roll_up_stage_times_and_cache_counters() {
        let s = base_schema();
        let outcome = BatchDeriver::new(&s).threads(1).run(&requests(&s));
        assert!(outcome.stats.stages.total() > Duration::ZERO);
        assert!(outcome.stats.cpu_time >= outcome.stats.stages.total());
        assert!(outcome.stats.wall_clock > Duration::ZERO);
        // I5 validation and the I2 facts read the CPL memo of every
        // derived schema; the rollup must see it.
        assert!(outcome.stats.cache.cpl_hits + outcome.stats.cache.cpl_misses > 0);
        let text = outcome.stats.to_string();
        assert!(text.contains("3 requests"));
        assert!(text.contains("stages:"));
        assert!(text.contains("cache:"));
    }
}
