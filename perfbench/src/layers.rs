//! The traced run: per-layer self times, measured from outside.
//!
//! For a serve workload, the socket run is repeated with `--access-log`
//! and a `traceparent` per op, and then the same op stream is replayed
//! in-process on one thread against two identical [`Api`]s kept in
//! lockstep: `A` answers each op through [`Api::handle`] (the whole
//! handler), `B` runs the op's public layer calls one by one (decode,
//! `warm_for`, `fork`, the `td_core` stages, encode, `Registry::put`).
//! Both see the same cache states, so each op's layers can be set
//! against its handler time. Every op becomes a span tree:
//!
//! ```text
//! client.op                      client latency      self = http io
//!   server.admission.queue_wait  access-log queue_us
//!   server.api.exec              access-log exec_us  self = exec excess
//!     server.api.handle          A: Api::handle      self = other
//!       server.json.decode, server.registry.warm_for, model.schema.fork,
//!       core.project (stages as children), core.applicable, core.lint,
//!       core.explain, analyze.analyze, driver.batch, server.api.encode,
//!       server.registry.put (model.text.parse, model.delta.diff)
//! ```
//!
//! A layer's self time is its span minus its children; the table
//! reports each layer's mean self time per op, so the rows add up to
//! the client-observed mean latency.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use td_core::ProjectionOptions;
use td_model::{AnalysisPrecision, AttrId, DispatchCacheStats, Schema, TypeId};
use td_server::json::{quote, str_array, Json};
use td_server::Api;
use td_telemetry::{ArgValue, SpanEvent};

use crate::inputs::{Op, ServeInput};
use crate::serve::{self, References, Sample};
use crate::util::{self, Metrics};
use crate::Outcome;

/// Allowed gap between the layer sum and the client-observed mean, and
/// how far below zero a remainder row may read, both as a share of the
/// client-observed mean.
const TOLERANCE: f64 = 0.10;

/// Every per-layer metric, in print order, with its unit.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("server.http.io_us", "us"),
    ("server.admission.queue_wait_us", "us"),
    ("server.api.exec_us", "us"),
    ("server.api.exec_excess_us", "us"),
    ("server.api.other_us", "us"),
    ("server.json.decode_us", "us"),
    ("server.api.encode_us", "us"),
    ("server.registry.warm_for_us", "us"),
    ("model.schema.fork_us", "us"),
    ("model.cache.hit_ratio", "ratio"),
    ("server.registry.put_us", "us"),
    ("model.text.parse_us", "us"),
    ("model.delta.diff_us", "us"),
    ("model.delta.carried_entries", "count"),
    ("core.projection.other_us", "us"),
    ("core.applicability_us", "us"),
    ("core.factor_state_us", "us"),
    ("core.flow_us", "us"),
    ("core.augment_us", "us"),
    ("core.factor_methods_us", "us"),
    ("core.retype_us", "us"),
    ("core.invariants_us", "us"),
    ("core.invariants.tuples", "count"),
    ("core.applicable_us", "us"),
    ("core.lint_us", "us"),
    ("core.explain_us", "us"),
    ("analyze.analyze_us", "us"),
    ("driver.batch_us", "us"),
    ("model.cache.warm_caches_us", "us"),
    ("model.snapshot.encode_us", "us"),
    ("model.snapshot.write_us", "us"),
    ("model.snapshot.bytes", "bytes"),
    ("model.snapshot.decode_us", "us"),
    ("cli.process_us", "us"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.late_share", "ratio"),
    ("trace.client_mean_us", "us"),
    ("trace.layer_sum_error", "ratio"),
    ("trace.socket_p50_ms", "ms"),
    ("serve.edit_p50_ms", "ms"),
];

/// Each time row of the table and the span whose self time it reports
/// (the `cli-cold` rows are medians, set directly).
const SELF_TIME_ROWS: &[(&str, &str)] = &[
    ("client.op", "server.http.io_us"),
    (
        "server.admission.queue_wait",
        "server.admission.queue_wait_us",
    ),
    ("server.api.exec", "server.api.exec_excess_us"),
    ("server.api.handle", "server.api.other_us"),
    ("server.json.decode", "server.json.decode_us"),
    ("server.api.encode", "server.api.encode_us"),
    ("server.registry.warm_for", "server.registry.warm_for_us"),
    ("model.schema.fork", "model.schema.fork_us"),
    ("server.registry.put", "server.registry.put_us"),
    ("model.text.parse", "model.text.parse_us"),
    ("model.delta.diff", "model.delta.diff_us"),
    ("core.project", "core.projection.other_us"),
    ("core.applicability", "core.applicability_us"),
    ("core.factor_state", "core.factor_state_us"),
    ("core.flow", "core.flow_us"),
    ("core.augment", "core.augment_us"),
    ("core.factor_methods", "core.factor_methods_us"),
    ("core.retype", "core.retype_us"),
    ("core.invariants", "core.invariants_us"),
    ("core.applicable", "core.applicable_us"),
    ("core.lint", "core.lint_us"),
    ("core.explain", "core.explain_us"),
    ("analyze.analyze", "analyze.analyze_us"),
    ("driver.batch", "driver.batch_us"),
    ("model.cache.warm_caches", "model.cache.warm_caches_us"),
    ("model.snapshot.encode", "model.snapshot.encode_us"),
    ("model.snapshot.write", "model.snapshot.write_us"),
    ("cli.process", "cli.process_us"),
];

/// Rows that are remainders (a span minus its separately timed
/// children); they must not read far below zero.
const REMAINDER_ROWS: &[&str] = &[
    "server.http.io_us",
    "server.api.exec_excess_us",
    "server.api.other_us",
    "core.projection.other_us",
    "server.registry.put_us",
    "driver.batch_us",
    "cli.process_us",
];

// ------------------------------------------------------------------ spans

/// A span of the benchmark's own trace: a measured duration placed on
/// the op's timeline (children are laid out back to back from their
/// parent's start; only `client.op` starts carry real client times).
struct Span {
    name: &'static str,
    dur: Duration,
    children: Vec<Span>,
}

impl Span {
    fn leaf(name: &'static str, dur: Duration) -> Span {
        Span {
            name,
            dur,
            children: Vec::new(),
        }
    }

    fn with(name: &'static str, dur: Duration, children: Vec<Span>) -> Span {
        Span {
            name,
            dur,
            children,
        }
    }

    /// Adds each span's self time (ns, may be negative) to `acc`.
    fn self_times(&self, acc: &mut HashMap<&'static str, f64>) {
        let kids: f64 = self.children.iter().map(|c| c.dur.as_nanos() as f64).sum();
        *acc.entry(self.name).or_default() += self.dur.as_nanos() as f64 - kids;
        for c in &self.children {
            c.self_times(acc);
        }
    }

    /// Spans in this tree.
    fn count(&self) -> usize {
        1 + self.children.iter().map(Span::count).sum::<usize>()
    }

    /// Flattens into Chrome trace events starting at `start_ns`.
    fn emit(&self, start_ns: u64, depth: u32, trace: &str, parent: &str, out: &mut Vec<SpanEvent>) {
        let mut args = vec![("trace", ArgValue::Str(trace.to_string()))];
        if !parent.is_empty() {
            args.push(("parent", ArgValue::Str(parent.to_string())));
        }
        out.push(SpanEvent {
            cat: "perfbench",
            name: Cow::Borrowed(self.name),
            start_ns,
            dur_ns: self.dur.as_nanos() as u64,
            depth,
            tid: 1,
            seq: out.len() as u64,
            args,
        });
        let mut at = start_ns;
        for c in &self.children {
            c.emit(at, depth + 1, trace, self.name, out);
            at += c.dur.as_nanos() as u64;
        }
    }
}

/// Times `f`; `black_box` keeps a result the caller discards from
/// being optimised away.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = std::hint::black_box(f());
    (v, t.elapsed())
}

/// The per-op extras a traced replay counts beside its spans.
#[derive(Default)]
struct Counts {
    invariant_tuples: f64,
    carried: f64,
    edits: usize,
    hits: u64,
    misses: u64,
}

fn hits_misses(s: &DispatchCacheStats) -> (u64, u64) {
    (
        s.cpl_hits + s.dispatch_hits + s.index_hits + s.lint_hits + s.analysis_hits,
        s.cpl_misses + s.dispatch_misses + s.index_misses + s.lint_misses + s.analysis_misses,
    )
}

// ---------------------------------------------------- in-process layers (B)

struct View {
    source: TypeId,
    projection: BTreeSet<AttrId>,
}

fn view(schema: &Schema, ty: &str, attrs: &[String]) -> Result<View, String> {
    let source = schema.type_id(ty).map_err(|e| e.to_string())?;
    let projection = attrs
        .iter()
        .map(|a| schema.attr_id(a).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(View { source, projection })
}

fn stage_spans(t: &td_core::StageTimings, scale: f64) -> Vec<Span> {
    let s = |d: Duration| d.mul_f64(scale);
    vec![
        Span::leaf("core.applicability", s(t.applicability)),
        Span::leaf("core.factor_state", s(t.factor_state)),
        Span::leaf("core.flow", s(t.flow_analysis)),
        Span::leaf("core.augment", s(t.augment)),
        Span::leaf("core.factor_methods", s(t.factor_methods)),
        Span::leaf("core.retype", s(t.retype)),
        Span::leaf("core.invariants", s(t.invariants)),
    ]
}

/// Runs a compute request's public layer calls one by one on `api`
/// (`B`) and returns their spans.
fn read_layers(
    api: &Api,
    path: &str,
    body: &str,
    counts: &mut Counts,
) -> Result<Vec<Span>, String> {
    let (doc, t_decode) = timed(|| Json::parse(body));
    let doc = doc.map_err(|e| format!("bad request body: {e}"))?;
    let obj = doc.as_obj().ok_or("request body is not an object")?;
    let field = |k: &str| obj.get(k).and_then(Json::as_str).map(str::to_string);
    let attrs: Vec<String> = obj
        .get("attrs")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let tenant = field("tenant").ok_or("no tenant")?;
    let name = field("schema").ok_or("no schema")?;
    let entry = api
        .registry
        .get(&tenant, &name)
        .ok_or("schema not registered")?;
    let mut spans = vec![Span::leaf("server.json.decode", t_decode)];

    if path == "/v1/batch" {
        let text = field("requests").ok_or("no requests")?;
        let ((outcome, base), t_batch) = timed(|| {
            let deriver = td_driver::BatchDeriver::from_snapshot(entry.snapshot.clone());
            let base = deriver.snapshot().clone();
            let requests = td_driver::parse_requests(base.schema(), &text);
            let deriver = deriver.options(ProjectionOptions::default()).lint(true);
            deriver.warm();
            (requests.map(|r| deriver.run(&r)), base)
        });
        let outcome = outcome.map_err(|e| format!("batch requests: {e}"))?;
        // Items run on parallel workers, so their summed stage times can
        // exceed the batch's wall time; scale them to fit inside it.
        let stages = outcome.stats.stages.total().as_secs_f64();
        let scale = if stages > 0.0 {
            (t_batch.as_secs_f64() / stages).min(1.0)
        } else {
            1.0
        };
        counts.invariant_tuples += outcome
            .results
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .filter_map(|d| d.invariants.as_ref())
            .map(|i| i.dispatch_tuples_checked as f64)
            .sum::<f64>();
        spans.push(Span::with(
            "driver.batch",
            t_batch,
            stage_spans(&outcome.stats.stages, scale),
        ));
        let (_, t_enc) = timed(|| quote(&outcome.render(base.schema())));
        spans.push(Span::leaf("server.api.encode", t_enc));
        return Ok(spans);
    }

    let ty = field("type").ok_or("no type")?;
    if path == "/v1/analyze" {
        let schema = entry.snapshot.schema();
        let v = view(schema, &ty, &attrs)?;
        let (outcome, t) = timed(|| {
            td_analyze::analyze(
                schema,
                Some((v.source, &v.projection)),
                AnalysisPrecision::default(),
            )
        });
        spans.push(Span::leaf("analyze.analyze", t));
        let (_, t_enc) = timed(|| outcome.report.render_json());
        spans.push(Span::leaf("server.api.encode", t_enc));
        return Ok(spans);
    }

    let source = entry
        .snapshot
        .schema()
        .type_id(&ty)
        .map_err(|e| e.to_string())?;
    let ((), t_warm) = timed(|| entry.warm_for(source));
    spans.push(Span::leaf("server.registry.warm_for", t_warm));
    let (mut fork, t_fork) = timed(|| entry.snapshot.fork());
    spans.push(Span::leaf("model.schema.fork", t_fork));
    let v = view(&fork, &ty, &attrs)?;
    match path {
        "/v1/project" => {
            let (d, t) = timed(|| {
                td_core::project(
                    &mut fork,
                    v.source,
                    &v.projection,
                    &ProjectionOptions::default(),
                )
            });
            let d = d.map_err(|e| e.to_string())?;
            counts.invariant_tuples += d
                .invariants
                .as_ref()
                .map_or(0.0, |i| i.dispatch_tuples_checked as f64);
            spans.push(Span::with(
                "core.project",
                t,
                stage_spans(&d.stage_times, 1.0),
            ));
            let (_, t_enc) = timed(|| td_server::derivation_json(&fork, &d));
            spans.push(Span::leaf("server.api.encode", t_enc));
        }
        "/v1/applicable" => {
            let (r, t) = timed(|| {
                td_core::compute_applicability_indexed(&fork, v.source, &v.projection, false)
            });
            let r = r.map_err(|e| e.to_string())?;
            spans.push(Span::leaf("core.applicable", t));
            let (_, t_enc) = timed(|| {
                let labels = |ms: &[td_model::MethodId]| {
                    str_array(ms.iter().map(|&m| fork.method_label(m).to_string()))
                };
                (labels(&r.applicable), labels(&r.not_applicable))
            });
            spans.push(Span::leaf("server.api.encode", t_enc));
        }
        "/v1/lint" => {
            let (report, t) = timed(|| td_core::lint(&fork, Some((v.source, &v.projection))));
            spans.push(Span::leaf("core.lint", t));
            let (_, t_enc) = timed(|| report.render_json());
            spans.push(Span::leaf("server.api.encode", t_enc));
        }
        "/v1/explain" => {
            let label = field("method").ok_or("no method")?;
            let method = fork.method_by_label(&label).map_err(|e| e.to_string())?;
            let (e, t) = timed(|| td_core::explain(&fork, v.source, &v.projection, method));
            let e = e.map_err(|e| e.to_string())?;
            spans.push(Span::leaf("core.explain", t));
            let (_, t_enc) = timed(|| quote(&e.render(&fork)));
            spans.push(Span::leaf("server.api.encode", t_enc));
        }
        other => return Err(format!("no layer replay for {other}")),
    }
    Ok(spans)
}

/// `Registry::put` on `B`, with its parse and diff timed on the side.
fn edit_layers(
    api: &Api,
    input: &ServeInput,
    text: &str,
    counts: &mut Counts,
) -> Result<Span, String> {
    let tenant = &input.tenants[0];
    let prev = api
        .registry
        .get(tenant, &input.schema_name)
        .ok_or("schema not registered")?;
    let (parsed, t_parse) = timed(|| td_model::parse_schema(text));
    let parsed = parsed.map_err(|e| e.to_string())?;
    let (_, t_diff) = timed(|| td_model::diff_schemas(prev.snapshot.schema(), &parsed));
    drop(prev);
    let (outcome, t_put) = timed(|| api.registry.put(tenant, &input.schema_name, text));
    let outcome = outcome?;
    counts.carried += outcome.carried.total() as f64;
    counts.edits += 1;
    Ok(Span::with(
        "server.registry.put",
        t_put,
        vec![
            Span::leaf("model.text.parse", t_parse),
            Span::leaf("model.delta.diff", t_diff),
        ],
    ))
}

// ------------------------------------------------------------- serve run

/// One access-log line's timings.
struct Logged {
    queue_us: u64,
    exec_us: u64,
}

fn read_access_log(path: &Path) -> Result<HashMap<String, Logged>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read access log: {e}"))?;
    let mut out = HashMap::new();
    for line in text.lines() {
        let Ok(doc) = Json::parse(line) else { continue };
        let Some(obj) = doc.as_obj() else { continue };
        let num = |k: &str| obj.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if let Some(trace) = obj.get("trace").and_then(Json::as_str) {
            out.insert(
                trace.to_string(),
                Logged {
                    queue_us: num("queue_us"),
                    exec_us: num("exec_us"),
                },
            );
        }
    }
    Ok(out)
}

pub fn serve_traced(
    tdv: &Path,
    work: &Path,
    input: &ServeInput,
    refs: &References,
    seconds: f64,
) -> Result<Outcome, String> {
    let (samples, drained, log) = serve::traced_socket_run(tdv, work, input, refs, seconds)?;
    let logged = read_access_log(&log)?;
    // An op fails if its socket answer, its in-process answer or its
    // access-log line is wrong or missing.
    let mut failed: BTreeSet<usize> = samples.iter().filter(|s| !s.ok).map(|s| s.index).collect();

    // Two in-process APIs in the state the server had when timing began.
    let a = Api::new();
    let b = Api::new();
    for api in [&a, &b] {
        serve::register(api, input)?;
        for r in &input.warmup {
            api.handle("POST", &r.path, "", r.body.as_bytes());
        }
    }

    let cap = Duration::from_secs_f64(seconds * 2.0);
    let replay_start = Instant::now();
    let mut counts = Counts::default();
    let mut trees: Vec<(&Sample, String, Span)> = Vec::new();
    let mut edits_done = 0usize;
    for sample in &samples {
        if replay_start.elapsed() > cap {
            break;
        }
        let trace = serve::trace_id(input.seed, sample.index);
        let (handle, layers) = match input.op(sample.index) {
            Op::Read(idx, r) => {
                let entry = a.registry.get(&input.tenants[r.tenant], &input.schema_name);
                let before = entry
                    .as_ref()
                    .map(|e| hits_misses(&e.snapshot.dispatch_cache_stats()));
                let (resp, t) = timed(|| a.handle("POST", &r.path, "", r.body.as_bytes()));
                if let (Some(e), Some(before)) = (entry, before) {
                    let after = hits_misses(&e.snapshot.dispatch_cache_stats());
                    counts.hits += after.0 - before.0;
                    counts.misses += after.1 - before.1;
                }
                let expected = if edits_done % 2 == 1 && r.tenant == 0 {
                    refs.variant[idx].as_deref()
                } else {
                    Some(refs.base[idx].as_str())
                };
                if resp.status != 200 || expected != Some(serve::normalize(&resp.body).as_str()) {
                    failed.insert(sample.index);
                }
                (t, read_layers(&b, &r.path, &r.body, &mut counts)?)
            }
            Op::Edit(n) => {
                let text = if n % 2 == 0 {
                    input.variant_text.as_deref().expect("edit workload")
                } else {
                    &input.base_text
                };
                let (resp, t) = timed(|| a.handle("PUT", &input.put_path(0), "", text.as_bytes()));
                if resp.status != 200 {
                    failed.insert(sample.index);
                }
                edits_done += 1;
                (t, vec![edit_layers(&b, input, text, &mut counts)?])
            }
        };
        let Some(log) = logged.get(&trace) else {
            failed.insert(sample.index);
            continue;
        };
        let us = Duration::from_micros;
        let tree = Span::with(
            "client.op",
            sample.latency,
            vec![
                Span::leaf("server.admission.queue_wait", us(log.queue_us)),
                Span::with(
                    "server.api.exec",
                    us(log.exec_us),
                    vec![Span::with("server.api.handle", handle, layers)],
                ),
            ],
        );
        trees.push((sample, trace, tree));
    }

    // Mean self time per replayed op, by layer.
    let n = trees.len().max(1) as f64;
    let mut selfs: HashMap<&'static str, f64> = HashMap::new();
    for (_, _, tree) in &trees {
        tree.self_times(&mut selfs);
    }
    let exec_mean = trees
        .iter()
        .map(|(_, _, t)| t.children[1].dur.as_nanos() as f64)
        .sum::<f64>()
        / n;
    let client_all = util::mean(
        &samples
            .iter()
            .map(|s| s.latency.as_nanos() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, metric) in SELF_TIME_ROWS {
        values.insert(metric, selfs.get(span).copied().unwrap_or(0.0) / n / 1e3);
    }
    values.insert("server.api.exec_us", exec_mean / 1e3);
    values.insert("core.invariants.tuples", counts.invariant_tuples / n);
    values.insert(
        "model.delta.carried_entries",
        if counts.edits > 0 {
            counts.carried / counts.edits as f64
        } else {
            0.0
        },
    );
    let lookups = counts.hits + counts.misses;
    values.insert(
        "model.cache.hit_ratio",
        if lookups > 0 {
            counts.hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    let late: Vec<f64> = samples.iter().map(|s| util::ms(s.late)).collect();
    values.insert(
        "loadgen.late_ms_max",
        late.iter().copied().fold(0.0, f64::max),
    );
    values.insert(
        "loadgen.late_share",
        late.iter().filter(|&&l| l > 1.0).count() as f64 / samples.len().max(1) as f64,
    );
    let all: Vec<f64> = samples.iter().map(serve::latency_ms).collect();
    let edits: Vec<f64> = samples
        .iter()
        .filter(|s| s.is_edit)
        .map(serve::latency_ms)
        .collect();
    values.insert("trace.socket_p50_ms", util::median(&all));
    values.insert(
        "serve.edit_p50_ms",
        if edits.is_empty() {
            0.0
        } else {
            util::median(&edits)
        },
    );

    let artifact = write_trace(work, input.name, input.seed, tdv, &trees)?;
    let sum_error = print_table(
        input.name,
        &values,
        client_all,
        trees.len(),
        samples.len(),
        &artifact,
    );
    values.insert("trace.client_mean_us", client_all);
    values.insert("trace.layer_sum_error", sum_error);
    // The registered schema's cold build (what a snapshot save or a cold
    // CLI command pays), beside the table: the serve path never warms a
    // whole schema, so these rows are not part of an op's time.
    let base = work.join("base.td");
    std::fs::write(&base, &input.base_text).map_err(|e| e.to_string())?;
    let f = cold_replay_in_fresh_process(&base, &work.join("base.tds"))?;
    values.insert("model.cache.warm_caches_us", f[1] as f64 / 1e3);
    values.insert("model.snapshot.encode_us", f[2] as f64 / 1e3);
    values.insert("model.snapshot.decode_us", f[4] as f64 / 1e3);
    values.insert("model.snapshot.bytes", f[5] as f64);
    println!(
        "  cold build of the registered schema (not in the sum): warm_caches {:.1} us, \
         encode {:.1} us, decode {:.1} us, {} bytes",
        f[1] as f64 / 1e3,
        f[2] as f64 / 1e3,
        f[4] as f64 / 1e3,
        f[5]
    );
    Ok(Outcome {
        correct: failed.is_empty() && drained,
        attempted: samples.len(),
        failed: failed.len(),
        metrics: to_metrics(&values),
    })
}

fn to_metrics(values: &BTreeMap<&'static str, f64>) -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in LAYER_METRICS {
        m.set(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    m
}

/// Writes the spans as a Chrome trace next to the work directory and
/// checks it with `tdv trace-verify`. Returns the artifact path.
fn write_trace(
    work: &Path,
    workload: &str,
    seed: u64,
    tdv: &Path,
    trees: &[(&Sample, String, Span)],
) -> Result<String, String> {
    // `tdv trace-verify` takes time quadratic in the span count (25 s
    // for 8.5k spans on a 2-vCPU VM), so the artifact holds an even
    // sample of the ops; the table uses all of them.
    let per_op = trees.first().map_or(1, |(_, _, t)| t.count());
    let stride = (trees.len() * per_op).div_ceil(MAX_ARTIFACT_SPANS).max(1);
    let mut events = Vec::new();
    for (sample, trace, tree) in trees.iter().step_by(stride) {
        tree.emit(sample.start.as_nanos() as u64, 0, trace, "", &mut events);
    }
    write_events(work, workload, seed, tdv, &events)
}

/// Largest Chrome trace artifact, in spans.
const MAX_ARTIFACT_SPANS: usize = 2500;

fn write_events(
    work: &Path,
    workload: &str,
    seed: u64,
    tdv: &Path,
    events: &[SpanEvent],
) -> Result<String, String> {
    let dir = work.parent().unwrap_or(work);
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    std::fs::write(&path, td_telemetry::chrome_trace(events))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let verify = std::process::Command::new(tdv)
        .arg("trace-verify")
        .arg(&path)
        .output()
        .map_err(|e| format!("cannot run tdv trace-verify: {e}"))?;
    if !verify.status.success() {
        return Err(format!(
            "tdv trace-verify rejected {}: {}",
            path.display(),
            String::from_utf8_lossy(&verify.stderr).trim()
        ));
    }
    eprint!("perfbench: {}", String::from_utf8_lossy(&verify.stdout));
    Ok(path.display().to_string())
}

/// Prints the layer table (largest time rows first) and the additivity
/// check. Returns the relative gap between the row sum and `total_us`.
fn print_table(
    workload: &str,
    values: &BTreeMap<&'static str, f64>,
    total_us: f64,
    replayed: usize,
    ops: usize,
    artifact: &str,
) -> f64 {
    let mut rows: Vec<(&str, f64)> = SELF_TIME_ROWS
        .iter()
        .map(|(_, m)| (*m, values.get(m).copied().unwrap_or(0.0)))
        .filter(|(_, v)| *v != 0.0)
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let sum: f64 = rows.iter().map(|(_, v)| v).sum();
    println!("layer table: {workload} ({replayed} of {ops} ops replayed; self time per op)");
    for (name, v) in &rows {
        println!("  {name:<34} {v:>12.1} us  {:>5.1}%", v / total_us * 100.0);
    }
    for (name, unit) in LAYER_METRICS {
        if let Some(v) = values.get(name).filter(|_| !name.ends_with("_us")) {
            if *v != 0.0 {
                println!("  {name:<34} {v:>12.4} {unit}");
            }
        }
    }
    let error = (sum - total_us) / total_us;
    let negative: Vec<&str> = rows
        .iter()
        .filter(|(n, v)| REMAINDER_ROWS.contains(n) && *v < -TOLERANCE * total_us)
        .map(|(n, _)| *n)
        .collect();
    let verdict = if error.abs() <= TOLERANCE && negative.is_empty() {
        "OK".to_string()
    } else {
        format!("OUT OF TOLERANCE (negative remainders: {negative:?})")
    };
    println!(
        "  layers sum to {sum:.1} us vs client-observed {total_us:.1} us ({:+.1}%, tolerance ±{:.0}%): {verdict}",
        error * 100.0,
        TOLERANCE * 100.0
    );
    if let Some((name, v)) = rows.first() {
        println!(
            "  largest layer: {name} ({:.1}% of the total)",
            v / total_us * 100.0
        );
    }
    println!("  chrome trace: {artifact}");
    error
}

// --------------------------------------------------------------- cli-cold

/// One in-process pass of the `cli-cold` work, run as `perfbench
/// cold-replay <schema.td> <out.tds>` in a fresh process: a long-lived
/// process ran `warm_caches` about a fifth slower than a fresh one on
/// the 2-vCPU VM, which would charge that gap to the CLI. Prints
/// `parse warm encode write decode` in ns, the snapshot's length, and
/// its loaded type and method counts.
pub fn cold_replay(src: &str, out: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(src).map_err(|e| format!("cannot read {src}: {e}"))?;
    let (schema, t_parse) = timed(|| td_model::parse_schema(&text));
    let schema = schema.map_err(|e| e.to_string())?;
    let ((), t_warm) = timed(|| schema.warm_caches());
    let meta = [("source".to_string(), src.to_string())];
    let (bytes, t_enc) = timed(|| td_model::save_snapshot(&schema, &meta));
    let (written, t_write) = timed(|| std::fs::write(out, &bytes));
    written.map_err(|e| e.to_string())?;
    let (loaded, t_dec) = timed(|| td_model::load_snapshot(&bytes));
    let (loaded, _) = loaded.map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(out);
    let ns = |d: Duration| d.as_nanos().to_string();
    Ok(format!(
        "{} {} {} {} {} {} {} {}",
        ns(t_parse),
        ns(t_warm),
        ns(t_enc),
        ns(t_write),
        ns(t_dec),
        bytes.len(),
        loaded.n_types(),
        loaded.n_methods()
    ))
}

/// Runs [`cold_replay`] in a fresh process of this binary and returns
/// its eight fields.
fn cold_replay_in_fresh_process(src: &Path, out: &Path) -> Result<Vec<u64>, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let replay = std::process::Command::new(me)
        .arg("cold-replay")
        .arg(src)
        .arg(out)
        .output()
        .map_err(|e| format!("cannot run the cold replay: {e}"))?;
    let f: Vec<u64> = String::from_utf8_lossy(&replay.stdout)
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    if !replay.status.success() || f.len() != 8 {
        return Err(format!(
            "cold replay failed: {}",
            String::from_utf8_lossy(&replay.stderr).trim()
        ));
    }
    Ok(f)
}

pub fn cold_traced(
    tdv: &Path,
    work: &Path,
    seed: u64,
    src: &Path,
    out: &Path,
    expect: (usize, usize),
    seconds: f64,
) -> Result<Outcome, String> {
    // Cold `tdv` processes alternate with fresh-process replays of the
    // same work, so both medians sample the same stretch of CPU speed.
    let window = Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut reps: Vec<[Duration; 5]> = Vec::new();
    let mut replay_ok = true;
    let mut bytes_len = 0usize;
    let mut events = Vec::new();
    let epoch = Instant::now();
    while epoch.elapsed() < window {
        ops.push(crate::cold::save_op(tdv, src, out, expect)?);
        let start = epoch.elapsed();
        let f = cold_replay_in_fresh_process(src, out)?;
        replay_ok &= (f[6] as usize, f[7] as usize) == expect;
        bytes_len = f[5] as usize;
        let d: Vec<Duration> = f[..5].iter().map(|&n| Duration::from_nanos(n)).collect();
        let tree = Span::with(
            "cold.replay",
            d.iter().sum(),
            vec![
                Span::leaf("model.text.parse", d[0]),
                Span::leaf("model.cache.warm_caches", d[1]),
                Span::leaf("model.snapshot.encode", d[2]),
                Span::leaf("model.snapshot.write", d[3]),
                Span::leaf("model.snapshot.decode", d[4]),
            ],
        );
        tree.emit(
            start.as_nanos() as u64,
            0,
            &format!("{:032x}", reps.len() + 1),
            "",
            &mut events,
        );
        reps.push([d[0], d[1], d[2], d[3], d[4]]);
    }
    let failed = ops.iter().filter(|(_, ok)| !ok).count();
    let wall_us = util::median(
        &ops.iter()
            .map(|(op, _)| op.wall.as_nanos() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let med = |i: usize| {
        util::median(
            &reps
                .iter()
                .map(|r| r[i].as_nanos() as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("model.text.parse_us", med(0));
    values.insert("model.cache.warm_caches_us", med(1));
    values.insert("model.snapshot.encode_us", med(2));
    values.insert("model.snapshot.write_us", med(3));
    values.insert("model.snapshot.bytes", bytes_len as f64);
    let in_process = med(0) + med(1) + med(2) + med(3);
    values.insert("cli.process_us", wall_us - in_process);
    let artifact = write_events(work, "cli-cold", seed, tdv, &events)?;
    let sum_error = print_table(
        "cli-cold",
        &values,
        wall_us,
        reps.len(),
        ops.len(),
        &artifact,
    );
    // Decoding is not part of `snapshot save`; it is reported beside the
    // table, not in its sum.
    values.insert("model.snapshot.decode_us", med(4));
    values.insert("trace.client_mean_us", wall_us);
    values.insert("trace.layer_sum_error", sum_error);
    Ok(Outcome {
        correct: failed == 0 && replay_ok,
        attempted: ops.len(),
        failed,
        metrics: to_metrics(&values),
    })
}
