//! The reproduction harness: regenerates every figure and worked example
//! in the paper, checks each against the outcome the paper states, and
//! prints the result table `EXPERIMENTS.md` records — plus the synthetic
//! scaling/audit/ablation experiments (the paper has no performance
//! evaluation of its own; these characterize the implementation).
//!
//! ```sh
//! cargo run -p td-bench --release --bin repro
//! cargo run -p td-bench --release --bin repro -- --json BENCH_current.json
//! ```
//!
//! With `--json <path>` the run additionally writes a machine-readable
//! [`BenchReport`] that the `bench_diff` binary compares against the
//! committed `BENCH_baseline.json` in CI (see `crates/bench/src/report.rs`
//! for the gating rules).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use td_algebra::{count_empty_surrogates, minimize_pipeline_surrogates, Pipeline};
use td_baselines::{
    audit_all, DefinerChoice, DefinerSpecifiedStrategy, DerivationStrategy, LocalEdgeStrategy,
    PaperStrategy, RootPlacementStrategy, StandaloneStrategy,
};
use td_bench::report::BenchReport;
use td_bench::{
    call_chain_workload, call_heavy_workload, chain_workload, random_workload, Workload,
};
use td_core::{
    compute_applicability, compute_applicability_indexed, project_named, ProjectionOptions,
    TraceEvent,
};
use td_driver::{BatchDeriver, BatchRequest};
use td_model::{CallArg, Schema, TypeId};
use td_workload::figures;

struct Report {
    rows: Vec<(String, String, String, bool)>,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    fn new() -> Self {
        Report {
            rows: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    fn row(
        &mut self,
        id: &str,
        expected: impl Into<String>,
        measured: impl Into<String>,
        ok: bool,
    ) {
        self.rows
            .push((id.to_string(), expected.into(), measured.into(), ok));
    }

    /// Records a scalar for the JSON report. `ratio_*` names are gated in
    /// CI; anything else is informational (see `td_bench::report`).
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn to_bench_report(&self) -> BenchReport {
        BenchReport {
            experiments: self
                .rows
                .iter()
                .map(|(id, _, _, ok)| (id.clone(), *ok))
                .collect(),
            metrics: self.metrics.clone(),
        }
    }

    fn print(&self) {
        println!("| experiment | paper says | measured | status |");
        println!("|---|---|---|---|");
        for (id, expected, measured, ok) in &self.rows {
            println!(
                "| {id} | {expected} | {measured} | {} |",
                if *ok { "✅ match" } else { "❌ MISMATCH" }
            );
        }
        let failures = self.rows.iter().filter(|r| !r.3).count();
        println!(
            "\n{} experiments, {} match, {} mismatch",
            self.rows.len(),
            self.rows.len() - failures,
            failures
        );
    }
}

fn names(s: &Schema, ms: &[td_model::MethodId]) -> BTreeSet<String> {
    ms.iter().map(|&m| s.method_label(m).to_string()).collect()
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("usage: repro [--json <out.json>]");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`; usage: repro [--json <out.json>]");
                std::process::exit(2);
            }
        }
    }

    let started = Instant::now();
    let mut report = Report::new();

    fig1_and_fig3(&mut report);
    fig2(&mut report);
    ex1(&mut report);
    fig4(&mut report);
    ex3(&mut report);
    ex4_fig5(&mut report);
    scale_experiments(&mut report);
    snapshot_experiments(&mut report);
    index_experiment(&mut report);
    batch_experiment(&mut report);
    delta_experiment(&mut report);
    analyze_experiment(&mut report);
    serve_experiment(&mut report);
    telemetry_experiment(&mut report);
    observability_experiment(&mut report);
    baseline_audit(&mut report);
    compose_ablation(&mut report);
    deviation_ablation(&mut report);

    report.metric("time_repro_total_s", started.elapsed().as_secs_f64());

    println!();
    report.print();

    if let Some(path) = json_path {
        let json = report.to_bench_report().to_json();
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote machine-readable report to {path}");
    }
    if report.rows.iter().any(|r| !r.3) {
        std::process::exit(1);
    }
}

fn fig1_and_fig3(report: &mut Report) {
    let s = figures::fig1();
    let employee = s.type_id("Employee").expect("fig1");
    let ok = s.cumulative_attrs(employee).len() == 5 && s.n_methods() == 13;
    report.row(
        "FIG1 schema",
        "Employee inherits Person's 3 attrs + 2 local; age/income/promote defined",
        format!(
            "{} cumulative attrs, {} methods",
            s.cumulative_attrs(employee).len(),
            s.n_methods()
        ),
        ok,
    );

    let s = figures::fig3();
    let a = s.type_id("A").expect("fig3");
    let ok = s.ancestors(a).len() == 7
        && s.methods_applicable_to_type(a).len() == 13
        && s.render_hierarchy().contains("A {a1, a2} <- C(1) B(2)");
    report.row(
        "FIG3 schema",
        "8-type MI hierarchy; all 13 methods applicable to A",
        format!(
            "{} ancestors of A, {} methods applicable",
            s.ancestors(a).len(),
            s.methods_applicable_to_type(a).len()
        ),
        ok,
    );
}

fn fig2(report: &mut Report) {
    let mut s = figures::fig1();
    let d = project_named(
        &mut s,
        "Employee",
        &["SSN", "date_of_birth", "pay_rate"],
        &ProjectionOptions::default(),
    )
    .expect("fig2 projection");
    let app = names(&s, d.applicable());
    let ok = app.contains("age")
        && app.contains("promote")
        && !app.contains("income")
        && s.render_hierarchy()
            .contains("^Person [surrogate of Person] {SSN, date_of_birth}")
        && s.render_hierarchy()
            .contains("^Employee [surrogate of Employee] {pay_rate} <- ^Person(1)")
        && d.invariants_ok();
    report.row(
        "FIG2 refactor",
        "age+promote survive, income dies; ^Person{SSN,dob}, ^Employee{pay_rate}",
        format!(
            "applicable={:?}, surrogates={}, invariants={}",
            app.iter()
                .filter(|n| !n.starts_with("get_") && !n.starts_with("set_"))
                .collect::<Vec<_>>(),
            d.factor_surrogates.len(),
            d.invariants_ok()
        ),
        ok,
    );
}

fn ex1(report: &mut Report) {
    let mut s = figures::fig3();
    let d = project_named(
        &mut s,
        "A",
        figures::FIG4_PROJECTION,
        &ProjectionOptions {
            record_trace: true,
            ..Default::default()
        },
    )
    .expect("ex1 projection");
    let applicable = names(&s, d.applicable());
    let not_applicable = names(&s, d.not_applicable());
    let expected_app: BTreeSet<String> = figures::EX1_APPLICABLE
        .iter()
        .map(|n| n.to_string())
        .collect();
    let expected_not: BTreeSet<String> = figures::EX1_NOT_APPLICABLE
        .iter()
        .map(|n| n.to_string())
        .collect();

    let y1 = s.method_by_label("y1").expect("fig3");
    let x1 = s.method_by_label("x1").expect("fig3");
    let y1_retracted = d.applicability.trace.iter().any(|e| {
        matches!(e, TraceEvent::DependentsRetracted { failed, removed }
                 if *failed == x1 && removed.contains(&y1))
    });

    let ok = applicable == expected_app && not_applicable == expected_not && y1_retracted;
    report.row(
        "EX1 IsApplicable",
        format!(
            "applicable = {:?}; y1 optimistically assumed then retracted",
            figures::EX1_APPLICABLE
        ),
        format!(
            "applicable = {:?}; y1 retracted = {}",
            applicable.iter().collect::<Vec<_>>(),
            y1_retracted
        ),
        ok,
    );

    // Cross-check with the independent fixpoint oracle.
    let s2 = figures::fig3();
    let a = s2.type_id("A").expect("fig3");
    let proj = figures::FIG4_PROJECTION
        .iter()
        .map(|n| s2.attr_id(n).expect("fig3 attr"))
        .collect();
    let oracle = td_core::applicability_fixpoint(&s2, a, &proj).expect("oracle");
    let oracle_names: BTreeSet<String> = oracle
        .iter()
        .map(|&m| s2.method_label(m).to_string())
        .collect();
    report.row(
        "EX1 oracle cross-check",
        "greatest-fixpoint oracle agrees with the stack algorithm",
        format!("oracle = {:?}", oracle_names.iter().collect::<Vec<_>>()),
        oracle_names == expected_app,
    );
}

fn fig4(report: &mut Report) {
    let mut s = figures::fig3();
    let d = project_named(
        &mut s,
        "A",
        figures::FIG4_PROJECTION,
        &ProjectionOptions::default(),
    )
    .expect("fig4 projection");
    let sources: BTreeSet<String> = d
        .factor_surrogates
        .iter()
        .map(|&(src, _)| s.type_name(src).to_string())
        .collect();
    let expected: BTreeSet<String> = figures::FIG4_SURROGATE_SOURCES
        .iter()
        .map(|n| n.to_string())
        .collect();
    let moved: Vec<String> = d
        .moved_attrs
        .iter()
        .map(|&(a, from, to)| {
            format!(
                "{}:{}→{}",
                s.attr_name(a),
                s.type_name(from),
                s.type_name(to)
            )
        })
        .collect();
    let render = s.render_hierarchy();
    let wiring_ok = [
        "^A [surrogate of A] {a2} <- ^C(1) ^B(2)",
        "^C [surrogate of C] {} <- ^F(1) ^E(2)",
        "^B [surrogate of B] {} <- ^E(2)",
        "^E [surrogate of E] {e2} <- ^H(2)",
        "^F [surrogate of F] {} <- ^H(1)",
        "^H [surrogate of H] {h2}",
    ]
    .iter()
    .all(|line| render.lines().any(|l| l == *line));
    let ok = sources == expected && wiring_ok && d.invariants_ok();
    report.row(
        "FIG4 factored hierarchy",
        "surrogates for A,B,C,E,F,H (not D,G); a2→^A, e2→^E, h2→^H; paper's wiring",
        format!(
            "surrogates for {:?}; moves {:?}; wiring ok = {wiring_ok}",
            sources, moved
        ),
        ok,
    );
}

fn ex3(report: &mut Report) {
    let mut s = figures::fig3();
    let d = project_named(
        &mut s,
        "A",
        figures::FIG4_PROJECTION,
        &ProjectionOptions::default(),
    )
    .expect("ex3 projection");
    let sigs: BTreeSet<String> = d
        .applicable()
        .iter()
        .map(|&m| s.render_signature(m))
        .collect();
    let expected: BTreeSet<String> = figures::EX3_SIGNATURES
        .iter()
        .map(|x| x.to_string())
        .collect();
    report.row(
        "EX3 factored signatures",
        format!("{:?}", figures::EX3_SIGNATURES),
        format!("{:?}", sigs.iter().collect::<Vec<_>>()),
        sigs == expected,
    );
}

fn ex4_fig5(report: &mut Report) {
    let mut s = figures::fig3_with_z1();
    let d = project_named(
        &mut s,
        "A",
        figures::FIG4_PROJECTION,
        &ProjectionOptions::default(),
    )
    .expect("ex4 projection");
    let z: BTreeSet<String> = d
        .z_types
        .iter()
        .map(|&t| s.type_name(t).to_string())
        .collect();
    let aug: Vec<String> = d
        .augment_surrogates
        .iter()
        .map(|&(src, _)| s.type_name(src).to_string())
        .collect();
    let z1 = s.method_by_label("z1").expect("z1");
    let sig = s.render_signature(z1);
    let locals: Vec<String> = s
        .method(z1)
        .body()
        .expect("general")
        .locals
        .iter()
        .map(|l| {
            format!(
                "{}: {}",
                l.name,
                match l.ty {
                    td_model::ValueType::Object(t) => s.type_name(t).to_string(),
                    td_model::ValueType::Prim(p) => p.to_string(),
                }
            )
        })
        .collect();
    let ok = z
        == ["D", "G"]
            .iter()
            .map(|x| x.to_string())
            .collect::<BTreeSet<_>>()
        && aug == vec!["G".to_string(), "D".to_string()]
        && sig == "z1(^C, ^B)"
        && locals == vec!["g: ^G".to_string(), "d: ^D".to_string()]
        && d.invariants_ok();
    report.row(
        "EX4/FIG5 augmentation",
        "Z={D,G}; Augment adds ^G then ^D; z1(^C,^B) with g:^G, d:^D",
        format!("Z={:?}; augmented {:?}; {sig} with {:?}", z, aug, locals),
        ok,
    );
}

/// Minimum over `n` runs of `f`, in microseconds. The minimum, not the
/// median: scheduler noise on a shared box is strictly additive, so the
/// smallest sample is the most reproducible estimate of the true cost —
/// which is what lets the CI gate compare ratios of these across runs.
fn time_us<F: FnMut()>(n: usize, mut f: F) -> f64 {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// [`time_us`] of `f` on each of `inputs`, taken in `rounds` rounds that
/// time every input once, in turn: a slow host phase lands on all of
/// them instead of on one, so the ratios between their minima hold.
fn interleaved_us<I>(rounds: usize, inputs: &[I], mut f: impl FnMut(&I)) -> Vec<f64> {
    let mut mins = vec![f64::INFINITY; inputs.len()];
    for _ in 0..rounds {
        for (min, input) in mins.iter_mut().zip(inputs) {
            *min = min.min(time_us(1, || f(input)));
        }
    }
    mins
}

fn scale_experiments(report: &mut Report) {
    // SCALE-A: IsApplicable vs call-graph depth — expect ~linear growth.
    let depths = [10usize, 100, 1000];
    let workloads: Vec<_> = depths.iter().map(|&d| call_chain_workload(d)).collect();
    let mins = interleaved_us(50, &workloads, |w| {
        compute_applicability(&w.schema, w.source, &w.projection, false).unwrap();
    });
    let times: Vec<(usize, f64)> = depths.into_iter().zip(mins).collect();
    let ratio = times[2].1 / times[0].1;
    // Gate on the depth-1000/depth-100 step: the depth-10 denominator is
    // a ~5µs measurement and too noisy to anchor a ±30% threshold.
    report.metric("ratio_scale_a_time_10x_depth", times[2].1 / times[1].1);
    report.metric("time_scale_a_depth1000_us", times[2].1);
    report.row(
        "SCALE-A call-graph depth",
        "near-linear in call-graph size (100× depth ⇒ ≲ ~300× time)",
        format!(
            "{} (100× depth ⇒ {:.0}× time)",
            times
                .iter()
                .map(|(d, t)| format!("depth {d}: {t:.0}µs"))
                .collect::<Vec<_>>()
                .join(", "),
            ratio
        ),
        ratio < 300.0,
    );

    // SCALE-F: full projection vs hierarchy depth.
    let depths = [8usize, 64, 512];
    let workloads: Vec<_> = depths.iter().map(|&d| chain_workload(d)).collect();
    let mins = interleaved_us(30, &workloads, |w| {
        let mut schema = w.schema.clone();
        td_core::project(
            &mut schema,
            w.source,
            &w.projection,
            &ProjectionOptions::fast(),
        )
        .unwrap();
    });
    let times: Vec<(usize, f64)> = depths.into_iter().zip(mins).collect();
    let ratio = times[2].1 / times[0].1;
    // Same anchoring trick as SCALE-A: gate the depth-512/depth-64 step.
    report.metric("ratio_scale_f_time_8x_depth", times[2].1 / times[1].1);
    report.metric("time_scale_f_depth512_us", times[2].1);
    report.row(
        "SCALE-F factorization depth",
        "polynomial, dominated by hierarchy traversals (64× depth ⇒ ≲ ~4096× time)",
        format!(
            "{} (64× depth ⇒ {:.0}× time)",
            times
                .iter()
                .map(|(d, t)| format!("depth {d}: {t:.0}µs"))
                .collect::<Vec<_>>()
                .join(", "),
            ratio
        ),
        ratio < 4096.0,
    );

    // SCALE-D: dispatch before/after a derivation must not diverge.
    let before = figures::fig1();
    let mut after = figures::fig1();
    project_named(
        &mut after,
        "Employee",
        &["SSN", "date_of_birth", "pay_rate"],
        &ProjectionOptions::fast(),
    )
    .expect("derivation");
    let dispatch_time = |schema: &Schema| {
        let employee = schema.type_id("Employee").expect("fig1");
        let age = schema.gf_id("age").expect("fig1");
        time_us(300, || {
            schema
                .most_specific(age, &[CallArg::Object(employee)])
                .unwrap();
        })
    };
    let tb = dispatch_time(&before);
    let ta = dispatch_time(&after);
    report.metric("ratio_dispatch_after_over_before", ta / tb.max(0.001));
    report.metric("time_dispatch_before_us", tb);
    report.metric("time_dispatch_after_us", ta);
    report.row(
        "SCALE-D dispatch transparency",
        "original-type dispatch within ~3× after refactoring (1 extra CPL entry per factored type)",
        format!(
            "before {tb:.2}µs, after {ta:.2}µs ({:.2}×)",
            ta / tb.max(0.001)
        ),
        ta / tb.max(0.001) < 3.0,
    );
}

fn snapshot_experiments(report: &mut Report) {
    // SNAP-L: the binary-snapshot cold start. A process that boots from
    // a `.tds` snapshot must reach the same warm state (schema + CPLs +
    // ranks + dispatch tables + applicability indexes) ≥ 5× faster than
    // one that re-parses the TDL text and re-derives every cache — on a
    // 10k-type schema, where cold starts actually hurt. The gated metric
    // is target attainment, min(speedup, 5)/5, the INDEX-C clamp trick:
    // the raw speedup is two orders of magnitude and swings with parse
    // cost between machines, attainment does not.
    let schema = td_workload::wide_schema(10_000, 0x5EED);
    let text = td_model::schema_to_text(&schema);

    // The cold path, timed once: parse the text, then warm every cache
    // the snapshot would carry. (One run, not min-of-N: it is tens of
    // seconds and strictly additive-noise-dominated at that scale.)
    let t0 = Instant::now();
    let parsed = td_model::parse_schema(&text).expect("10k schema text parses");
    parsed.warm_caches();
    let t_parse = t0.elapsed().as_secs_f64() * 1e6;

    let bytes = td_model::save_snapshot(&parsed, &[]);
    let t_load = time_us(5, || {
        td_model::load_snapshot(&bytes).expect("snapshot loads");
    });
    let (loaded, _) = td_model::load_snapshot(&bytes).expect("snapshot loads");
    let identical = loaded.render_hierarchy() == parsed.render_hierarchy()
        && loaded.render_methods() == parsed.render_methods();
    let warm = loaded.dispatch_cache_stats().index_entries > 0;

    let speedup = t_parse / t_load.max(0.001);
    report.metric("ratio_snapshot_load_vs_parse", (speedup / 5.0).min(1.0));
    report.metric("speedup_snapshot_load_vs_parse", speedup);
    report.metric("time_snapshot_parse_warm_10k_us", t_parse);
    report.metric("time_snapshot_load_10k_us", t_load);
    report.metric("bytes_snapshot_10k", bytes.len() as f64);
    let fig3 = figures::fig3();
    fig3.warm_caches();
    report.metric(
        "bytes_snapshot_fig3",
        td_model::save_snapshot(&fig3, &[]).len() as f64,
    );
    report.row(
        "SNAP-L snapshot cold start",
        "10k-type snapshot load ≥ 5× faster than parse + cache warm; identical schema, warm caches",
        format!(
            "parse+warm {:.0}ms vs load {:.1}ms ({speedup:.0}×); identical = {identical}, \
             warm = {warm}; {} bytes on disk",
            t_parse / 1e3,
            t_load / 1e3,
            bytes.len()
        ),
        identical && warm && speedup >= 5.0,
    );

    // PROJ-I: the interning dividend on the request path. A derivation
    // request forks the shared schema; with interned names the fork
    // clones three flat arena buffers, where the pre-interning model
    // cloned one heap `String` per name. The shadow run measures exactly
    // that: the same fork + projection plus a clone of every name
    // materialized as owned Strings. The legacy run does strictly more
    // work, so attainment min(speedup, 1.1)/1.1 is ~monotone: it only
    // leaves the gate envelope if the interned path itself regresses.
    let shadow: Vec<String> = schema
        .live_type_ids()
        .map(|t| schema.type_name(t).to_string())
        .chain(schema.attr_ids().map(|a| schema.attr_name(a).to_string()))
        .chain(schema.gf_ids().map(|g| schema.gf_name(g).to_string()))
        .chain(
            schema
                .method_ids()
                .map(|m| schema.method_label(m).to_string()),
        )
        .collect();
    let opts = ProjectionOptions::fast();
    let run_interned = || {
        let mut fork = schema.clone();
        project_named(&mut fork, "W7", &["w0_a0"], &opts).expect("cluster projection");
    };
    let t_interned = time_us(8, run_interned);
    let t_legacy = time_us(8, || {
        let mut fork = schema.clone();
        let names = std::hint::black_box(shadow.clone());
        project_named(&mut fork, "W7", &["w0_a0"], &opts).expect("cluster projection");
        drop(names);
    });
    let speedup = t_legacy / t_interned.max(0.001);
    report.metric("ratio_project_interned", (speedup / 1.1).min(1.0));
    report.metric("speedup_project_interned_vs_shadow", speedup);
    report.metric("time_project_interned_fork_us", t_interned);
    report.metric("time_project_shadow_fork_us", t_legacy);
    report.row(
        "PROJ-I interned fork tax",
        format!(
            "arena-interned fork + projection beats a per-name-String fork ({} names) by ≥ 1.1×",
            shadow.len()
        ),
        format!(
            "interned {:.1}ms vs string-shadow {:.1}ms ({speedup:.2}×)",
            t_interned / 1e3,
            t_legacy / 1e3
        ),
        speedup >= 1.1,
    );
}

fn index_experiment(report: &mut Report) {
    // INDEX-C: the condensation index. Two claims, one row:
    //
    //  1. correctness — on call-graph-heavy workloads the indexed engine's
    //     applicable/not-applicable *sets* are identical to the stack
    //     algorithm's for every projection tried (the full differential
    //     sweep lives in tests/property_engines.rs; this is the smoke
    //     replica the report records);
    //  2. speed — with the index warm (the batch steady state), answering
    //     a projection must be ≥ 5× faster than the stack algorithm.
    //
    // The gated metric is target attainment, min(speedup, 5)/5, clamped so
    // the baseline is exactly 1.0 whenever the target holds: raw speedups
    // (recorded informationally below) swing far more than the ±30% gate
    // envelope between container runs, attainment does not.
    let workloads = [
        ("call_chain_500", call_chain_workload(500)),
        ("call_heavy", call_heavy_workload(16, 40, 0xC0DE)),
    ];
    let mut identical = true;
    let mut min_speedup = f64::INFINITY;
    let mut rendered = Vec::new();
    for (name, w) in workloads {
        // Differential spot check: the workload's own projection, the
        // empty projection, and every available attribute.
        let everything = w.schema.cumulative_attrs(w.source);
        for proj in [w.projection.clone(), BTreeSet::new(), everything] {
            let stack = compute_applicability(&w.schema, w.source, &proj, false).unwrap();
            let indexed = compute_applicability_indexed(&w.schema, w.source, &proj, false).unwrap();
            let as_set = |v: &[td_model::MethodId]| v.iter().copied().collect::<BTreeSet<_>>();
            identical &= as_set(&stack.applicable) == as_set(&indexed.applicable)
                && as_set(&stack.not_applicable) == as_set(&indexed.not_applicable);
        }
        // Timing, index warm.
        w.schema.cached_applicability_index(w.source).unwrap();
        let t_indexed = time_us(200, || {
            compute_applicability_indexed(&w.schema, w.source, &w.projection, false).unwrap();
        });
        let t_stack = time_us(50, || {
            compute_applicability(&w.schema, w.source, &w.projection, false).unwrap();
        });
        let speedup = t_stack / t_indexed.max(0.001);
        min_speedup = min_speedup.min(speedup);
        report.metric(&format!("speedup_indexed_{name}"), speedup);
        report.metric(&format!("time_indexed_{name}_us"), t_indexed);
        report.metric(&format!("time_stack_{name}_us"), t_stack);
        rendered.push(format!(
            "{name}: stack {t_stack:.0}µs vs indexed {t_indexed:.1}µs ({speedup:.0}×)"
        ));
    }
    report.metric(
        "ratio_applicability_indexed_vs_stack",
        (min_speedup / 5.0).min(1.0),
    );
    report.row(
        "INDEX-C condensation index",
        "identical classification sets; warm index ≥ 5× faster than the stack engine",
        format!("identical = {identical}; {}", rendered.join("; ")),
        identical && min_speedup >= 5.0,
    );
}

fn batch_experiment(report: &mut Report) {
    // BATCH-P: the parallel batch engine must produce a byte-identical
    // report at every thread count (the merge is index-slotted, so worker
    // scheduling cannot reorder or reword anything), and the 1-vs-4-thread
    // wall-clock ratio characterizes the scaling headroom on this machine.
    // The speedup is machine-dependent (a 1-CPU container shows ~1×), so it
    // is recorded as an informational `time_*` metric, not a gated ratio.
    let w = random_workload(48, 0xBA7C);
    let requests: Vec<BatchRequest> = td_workload::batch_requests(&w.schema, 64, 0.5, 0xBA7C)
        .into_iter()
        .map(BatchRequest::from)
        .collect();
    let deriver = BatchDeriver::new(&w.schema).options(ProjectionOptions::fast());
    deriver.warm();

    let run = |threads: usize| {
        let deriver = deriver.clone().threads(threads);
        let mut outcome = deriver.run(&requests);
        let wall = time_us(3, || {
            outcome = deriver.run(&requests);
        });
        (outcome, wall)
    };
    let (seq, wall_1t) = run(1);
    let (par, wall_4t) = run(4);

    let identical = seq.render(&w.schema) == par.render(&w.schema);
    let ok_fraction = seq.stats.succeeded as f64 / seq.stats.requests.max(1) as f64;
    report.metric("ratio_batch_ok_fraction", ok_fraction);
    report.metric("time_batch_64req_1t_us", wall_1t);
    report.metric("time_batch_64req_4t_us", wall_4t);
    report.metric("time_batch_speedup_4t", wall_1t / wall_4t.max(0.001));
    report.row(
        "BATCH-P parallel determinism",
        "4-thread report byte-identical to sequential; 64/64 requests accounted for",
        format!(
            "identical = {identical}; {} ok / {} requests; 1t {:.0}µs, 4t {:.0}µs ({:.2}× speedup)",
            seq.stats.succeeded,
            seq.stats.requests,
            wall_1t,
            wall_4t,
            wall_1t / wall_4t.max(0.001)
        ),
        identical && seq.stats.requests == 64 && seq.stats.succeeded + seq.stats.failed == 64,
    );
}

fn delta_experiment(report: &mut Report) {
    // DELTA: delta-aware invalidation. The dispatch cache closes each
    // mutation's `SchemaDelta` over hierarchy and call-graph dependence
    // and evicts only the reachable entries, so a single-method edit on
    // the 10k-type wide schema re-warms from its surviving entries —
    // gated at ≥ 10× faster than the old full generation-bump rebuild.
    // Attainment min(speedup, 10)/10, the usual clamp: raw speedups are
    // two orders of magnitude and machine-dependent, attainment is not.
    use td_model::{BodyBuilder, MethodKind, Specializer};
    let mut schema = td_workload::wide_schema(10_000, 0x5EED);
    schema.warm_caches();

    // The rebuild baseline, timed once (it is whole seconds at 10k
    // types and strictly additive-noise-dominated, like SNAP-L's parse).
    let t0 = Instant::now();
    schema.clear_dispatch_cache();
    schema.warm_caches();
    let t_full = t0.elapsed().as_secs_f64() * 1e6;

    // Three single-method edits (distinct specializers in cluster 0 so
    // none collides), min-of-3: each adds a method to `wf0` and re-warms
    // only what the delta closure evicted.
    let gf = schema.gf_id("wf0").expect("wide schema has cluster gf wf0");
    let stats_before = schema.dispatch_cache_stats();
    let mut t_delta = f64::INFINITY;
    for j in 1..=3 {
        let spec = schema
            .type_id(&format!("W{j}"))
            .expect("cluster 0 member exists");
        let t0 = Instant::now();
        schema
            .add_method(
                gf,
                format!("delta_edit_m{j}"),
                vec![Specializer::Type(spec)],
                MethodKind::General(BodyBuilder::new().finish()),
                None,
            )
            .expect("fresh method label");
        schema.warm_caches();
        t_delta = t_delta.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    let stats = schema.dispatch_cache_stats().delta(&stats_before);

    let speedup = t_full / t_delta.max(0.001);
    report.metric(
        "ratio_delta_invalidate_vs_rebuild",
        (speedup / 10.0).min(1.0),
    );
    report.metric("speedup_delta_invalidate_vs_rebuild", speedup);
    report.metric("time_delta_full_rewarm_10k_us", t_full);
    report.metric("time_delta_edit_rewarm_10k_us", t_delta);
    report.row(
        "DELTA incremental invalidation",
        "single-method edit on 10k types re-warms ≥ 10× faster than a full rebuild; \
         equivalence proven by the core delta_consistency suite",
        format!(
            "full rebuild {:.0}ms vs delta re-warm {:.1}ms ({speedup:.0}×); \
             {} entries kept / {} evicted across 3 edits",
            t_full / 1e3,
            t_delta / 1e3,
            stats.delta_survivals,
            stats.delta_evictions
        ),
        speedup >= 10.0 && stats.delta_survivals > 0,
    );
}

fn analyze_experiment(report: &mut Report) {
    // ANALYZE: the interprocedural analysis layer, three claims in one
    // row:
    //
    //  1. precision — on a call-heavy schema whose disjunctive dispatch
    //     sites mostly nest, the semantic footprints must demote ≥ 30%
    //     of the syntactic index's fallback methods to indexed verdicts.
    //     The gated metric is target attainment, min(ratio/0.30, 1.0),
    //     the INDEX-C clamp: the raw ratio is a schema-shape constant
    //     (recorded informationally), attainment pins the baseline at 1.0.
    //  2. caching — the second `analyze` answers both parts from the
    //     dispatch cache;
    //  3. delta carry — a single added method on an island hierarchy
    //     flushes the schema-wide report (its universe is every method)
    //     but the request-scoped report survives in place, accounted as a
    //     delta survival rather than a rebuild.
    use td_analyze::analyze;
    use td_model::{AnalysisPrecision, BodyBuilder, MethodKind, Specializer};

    // 12 of 16 disjunctive units nest (ratio 0.75), 6 callers deep:
    // 96 syntactic fallback methods, 24 semantic. The island hierarchy
    // (Z/Z2, disjoint from A/B) exists up front so the later delta is a
    // single method add, nothing structural.
    let mut schema = td_workload::disjunctive_schema(12, 4, 6);
    let z = schema.add_type("Z", &[]).expect("fresh island type");
    let z2 = schema.add_type("Z2", &[z]).expect("fresh island subtype");
    let zg = schema.add_gf("zg", 1, None).expect("fresh island gf");
    schema
        .add_method(
            zg,
            "zg_z",
            vec![Specializer::Type(z)],
            MethodKind::General(BodyBuilder::new().finish()),
            None,
        )
        .expect("fresh method label");
    let source = schema.type_id("B").expect("disjunctive schema has B");
    let projection: BTreeSet<_> = [schema.attr_id("d0_x").expect("unit 0 attr")]
        .into_iter()
        .collect();
    let request = Some((source, &projection));

    let cold_stats = {
        schema.clear_dispatch_cache();
        analyze(&schema, request, AnalysisPrecision::Semantic).stats
    };
    let t_cold = time_us(20, || {
        schema.clear_dispatch_cache();
        analyze(&schema, request, AnalysisPrecision::Semantic);
    });
    let t_warm = time_us(50, || {
        analyze(&schema, request, AnalysisPrecision::Semantic);
    });
    let warm_stats = analyze(&schema, request, AnalysisPrecision::Semantic).stats;
    let demotion = warm_stats.demotion_ratio().unwrap_or(0.0);

    // The delta: one more method on the island gf, unreachable from `B`.
    let stats_before = schema.dispatch_cache_stats();
    schema
        .add_method(
            zg,
            "zg_z2",
            vec![Specializer::Type(z2)],
            MethodKind::General(BodyBuilder::new().finish()),
            None,
        )
        .expect("fresh method label");
    let t0 = Instant::now();
    let after = analyze(&schema, request, AnalysisPrecision::Semantic).stats;
    let t_delta = t0.elapsed().as_secs_f64() * 1e6;
    let survivals = schema
        .dispatch_cache_stats()
        .delta(&stats_before)
        .delta_survivals;
    let carried = !after.schema_cached && after.request_cached && survivals > 0;

    report.metric(
        "ratio_semantic_footprint_fallbacks",
        (demotion / 0.30).min(1.0),
    );
    report.metric("share_semantic_fallbacks_demoted", demotion);
    report.metric("time_analyze_cold_us", t_cold);
    report.metric("time_analyze_warm_us", t_warm);
    report.metric(
        "time_analyze_schema_part_us",
        cold_stats.schema_micros as f64,
    );
    report.metric(
        "time_analyze_request_part_us",
        cold_stats.request_micros as f64,
    );
    report.metric("time_analyze_delta_rewarm_us", t_delta);
    report.row(
        "ANALYZE semantic footprints",
        "semantic precision demotes ≥ 30% of syntactic fallback methods; warm run fully \
         cached; request report survives an island delta",
        format!(
            "{} of {} fallbacks demoted ({:.0}%); cold {t_cold:.0}µs vs warm {t_warm:.1}µs; \
             cached = {}/{}; delta carry = {carried} ({survivals} survivals)",
            warm_stats.fallback_syntactic - warm_stats.fallback_semantic,
            warm_stats.fallback_syntactic,
            demotion * 100.0,
            warm_stats.schema_cached,
            warm_stats.request_cached,
        ),
        demotion >= 0.30 && warm_stats.schema_cached && warm_stats.request_cached && carried,
    );
}

fn serve_experiment(report: &mut Report) {
    // SERVE-W: the td-server tenant registry's warm path. A registered
    // schema is served from a shared copy-on-write snapshot whose CPL and
    // applicability-index caches persist across requests; the same request
    // carrying the schema inline (`schema_text`) re-parses and re-derives
    // everything from scratch. Both paths run the identical replay stream
    // straight through `Api::handle` — no sockets in the timed loop — so
    // the responses must be byte-identical and the warm path must be
    // ≥ 2× faster. The gated metric is target attainment,
    // min(speedup, 2)/2, the same clamp trick as INDEX-C: raw speedups
    // swing with parse cost between machines, attainment does not.
    use td_server::Api;
    use td_telemetry::json;
    let w = call_heavy_workload(16, 40, 0xC0DE);
    let replay = td_workload::server_replay(&w.schema, &td_workload::ReplaySpec::default());

    let api = Api::new();
    for tenant in &replay.tenants {
        let put = api.handle(
            "PUT",
            &format!("/v1/tenants/{tenant}/schemas/{}", replay.schema_name),
            "",
            replay.schema_text.as_bytes(),
        );
        assert!(
            (200..300).contains(&put.status),
            "schema registration failed: {}",
            put.body
        );
    }
    let warm_needle = format!("\"schema\": {}", json::quote(&replay.schema_name));
    let cold_patch = format!("\"schema_text\": {}", json::quote(&replay.schema_text));
    let cold: Vec<(String, String)> = replay
        .requests
        .iter()
        .map(|r| (r.path.clone(), r.body.replace(&warm_needle, &cold_patch)))
        .collect();
    let warm: Vec<(String, String)> = replay
        .requests
        .iter()
        .map(|r| (r.path.clone(), r.body.clone()))
        .collect();

    let run = |requests: &[(String, String)]| -> Vec<(u16, String)> {
        requests
            .iter()
            .map(|(path, body)| {
                let r = api.handle("POST", path, "", body.as_bytes());
                (r.status, r.body)
            })
            .collect()
    };
    // Correctness first (and a warm-up for both paths): the schema name
    // and the inline text must produce byte-identical answers.
    let warm_responses = run(&warm);
    let cold_responses = run(&cold);
    let identical = warm_responses == cold_responses;
    let all_ok = warm_responses.iter().all(|(status, _)| *status == 200);

    let t_warm = time_us(10, || {
        run(&warm);
    });
    let t_cold = time_us(10, || {
        run(&cold);
    });
    let speedup = t_cold / t_warm.max(0.001);
    report.metric("ratio_serve_warm_vs_cold", (speedup / 2.0).min(1.0));
    report.metric("speedup_serve_warm_vs_cold", speedup);
    report.metric("time_serve_warm_replay_us", t_warm);
    report.metric("time_serve_cold_replay_us", t_cold);
    report.row(
        "SERVE-W registry warm path",
        "warm and cold responses byte-identical; registered schemas ≥ 2× faster than inline",
        format!(
            "identical = {identical}, all 200 = {all_ok}; {} requests: cold {t_cold:.0}µs vs warm \
             {t_warm:.0}µs ({speedup:.1}×)",
            warm.len()
        ),
        identical && all_ok && speedup >= 2.0,
    );
}

fn telemetry_experiment(report: &mut Report) {
    // TELEM: the PR-5 instrumentation layer must be free when off. The
    // pre-instrumentation pipeline no longer exists to time against, so
    // the overhead is measured from its parts: the number of spans one
    // request emits when tracing is on, times the measured cost of one
    // disabled instrumentation site (a relaxed atomic load), against the
    // request's own wall time on the call_heavy workload. The gated
    // metric is attainment against the 5% budget — min-clamped so the
    // baseline is exactly 1.0 whenever the budget holds, same trick as
    // INDEX-C: the raw fraction is ~1e-4 and would swing through the ±30%
    // gate envelope on noise alone.
    let w = call_heavy_workload(16, 40, 0xC0DE);
    w.schema.cached_applicability_index(w.source).unwrap();
    let run_one = |schema: &Schema| {
        let mut schema = schema.clone();
        td_core::project(
            &mut schema,
            w.source,
            &w.projection,
            &ProjectionOptions::fast(),
        )
        .unwrap();
    };

    td_telemetry::set_enabled(false);
    let t_disabled = time_us(30, || run_one(&w.schema));

    // Count the spans one request emits, then time the traced run.
    td_telemetry::set_enabled(true);
    let _ = td_telemetry::drain();
    run_one(&w.schema);
    let spans_per_request = td_telemetry::drain().len();
    let t_enabled = time_us(30, || {
        run_one(&w.schema);
        let _ = td_telemetry::drain();
    });
    td_telemetry::set_enabled(false);

    // The disabled-site primitive, amortized over a tight loop.
    let reps = 100_000usize;
    let t_loop = time_us(20, || {
        for _ in 0..reps {
            let _g = std::hint::black_box(td_telemetry::span("repro", "noop"));
        }
    });
    let site_cost_ns = t_loop * 1e3 / reps as f64;
    let added_us = spans_per_request as f64 * site_cost_ns / 1e3;
    let overhead = added_us / t_disabled.max(0.001);

    report.metric("ratio_telemetry_overhead", overhead.max(0.05) / 0.05);
    report.metric("time_telemetry_project_disabled_us", t_disabled);
    report.metric("time_telemetry_project_enabled_us", t_enabled);
    report.metric("time_telemetry_site_cost_ns", site_cost_ns);
    report.row(
        "TELEM disabled-mode overhead",
        "instrumentation < 5% of request time when disabled (budget attainment = 1.0)",
        format!(
            "{spans_per_request} spans/request × {site_cost_ns:.2}ns/site = {added_us:.3}µs \
             vs {t_disabled:.0}µs/request ({:.4}% overhead; traced run {t_enabled:.0}µs)",
            overhead * 100.0
        ),
        overhead < 0.05,
    );
}

fn observability_experiment(report: &mut Report) {
    // OBS: the PR-10 request-observability layer — trace scope + span
    // stamping, the windowed SLO histograms, the flight-recorder push,
    // the Traceparent echo — measured end to end through
    // `Api::handle_with` on a warm registered-schema projection. The
    // baseline is the untraced dispatch with telemetry off (the
    // production default); the comparison is a fully traced request
    // with telemetry on — the most expensive configuration the server
    // ever runs (what `--slow-trace-dir` enables). The two alternate and
    // each reads its median of 40. The budget is 5% of request time; the
    // gated metric is budget attainment, max(overhead, 0.05)/0.05 — the
    // same clamp as TELEM, so the baseline sits at exactly 1.0 whenever
    // the budget holds.
    use td_server::{Api, RequestCtx};
    let w = call_heavy_workload(16, 40, 0xC0DE);
    let replay = td_workload::server_replay(&w.schema, &td_workload::ReplaySpec::default());
    let api = Api::new();
    for tenant in &replay.tenants {
        let put = api.handle(
            "PUT",
            &format!("/v1/tenants/{tenant}/schemas/{}", replay.schema_name),
            "",
            replay.schema_text.as_bytes(),
        );
        assert!(
            (200..300).contains(&put.status),
            "schema registration failed: {}",
            put.body
        );
    }
    let request = replay
        .requests
        .iter()
        .find(|r| r.path == "/v1/project")
        .expect("replay contains a /v1/project request");
    let (path, body) = (request.path.clone(), request.body.clone());

    td_telemetry::set_enabled(false);
    let check = api.handle("POST", &path, "", body.as_bytes());
    assert_eq!(check.status, 200, "{}", check.body);

    let ctx = RequestCtx {
        trace: Some(td_telemetry::TraceId::parse_hex("4bf92f3577b34da6a3ce929d0e0e4736").unwrap()),
        tenant: replay.tenants.first().cloned(),
        queue_us: 0,
    };
    td_telemetry::set_enabled(true);
    let _ = td_telemetry::drain();
    let traced = api.handle_with("POST", &path, "", body.as_bytes(), &ctx);
    assert_eq!(traced.status, 200, "{}", traced.body);
    assert!(
        traced
            .extra_headers
            .iter()
            .any(|(name, _)| name.eq_ignore_ascii_case("traceparent")),
        "traced response must echo a Traceparent header"
    );
    // 40 requests a side, alternating, each side read at its median: a
    // slow host phase lands on both sides instead of on one.
    let untraced = RequestCtx::default();
    let mut sides = [(false, &untraced, Vec::new()), (true, &ctx, Vec::new())];
    for _ in 0..40 {
        for (enabled, ctx, times) in &mut sides {
            td_telemetry::set_enabled(*enabled);
            times.push(time_us(1, || {
                api.handle_with("POST", &path, "", body.as_bytes(), ctx);
            }));
        }
    }
    td_telemetry::set_enabled(false);
    let _ = td_telemetry::drain();
    let [t_plain, t_traced] = sides.map(|(_, _, mut times)| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    });

    let overhead = ((t_traced - t_plain) / t_plain.max(0.001)).max(0.0);
    report.metric("ratio_observability_overhead", overhead.max(0.05) / 0.05);
    report.metric("time_obs_plain_request_us", t_plain);
    report.metric("time_obs_traced_request_us", t_traced);
    report.row(
        "OBS traced-request overhead",
        "full request observability < 5% of untraced dispatch time (budget attainment = 1.0)",
        format!(
            "untraced+telemetry-off {t_plain:.0}µs vs traced+telemetry-on {t_traced:.0}µs \
             ({:.2}% overhead)",
            overhead * 100.0
        ),
        overhead < 0.05,
    );
}

fn baseline_audit(report: &mut Report) {
    let strategies: Vec<&dyn DerivationStrategy> = vec![
        &PaperStrategy,
        &StandaloneStrategy,
        &RootPlacementStrategy,
        &LocalEdgeStrategy,
    ];
    let definer = DefinerSpecifiedStrategy {
        choice: DefinerChoice::SignatureOnly,
    };

    // Fig. 3 workload.
    let s = figures::fig3();
    let a = s.type_id("A").expect("fig3");
    let proj = figures::FIG4_PROJECTION
        .iter()
        .map(|n| s.attr_id(n).expect("fig3 attr"))
        .collect();
    println!("\n== BASE: baseline audit on the Figure 3 workload ==");
    let mut results = audit_all(&strategies, &s, a, &proj);
    results.push(td_baselines::audit_strategy(&definer, &s, a, &proj));
    for r in &results {
        println!("  {}", r.row());
    }
    let paper_clean = results[0].total_violations() == 0;
    let all_baselines_dirty = results[1..].iter().all(|r| r.total_violations() > 0);
    report.row(
        "BASE fig3 audit",
        "paper: 0 violations; every related-work strategy: >0",
        format!(
            "paper={} violations; baselines min={} violations",
            results[0].total_violations(),
            results[1..]
                .iter()
                .map(|r| r.total_violations())
                .min()
                .expect("non-empty")
        ),
        paper_clean && all_baselines_dirty,
    );

    // Randomized workloads.
    let mut clean = 0usize;
    let mut dirty = 0usize;
    let runs = 25usize;
    for seed in 0..runs as u64 {
        let Workload {
            schema,
            source,
            projection,
        } = random_workload(24, 0x9000 + seed);
        let results = audit_all(&strategies, &schema, source, &projection);
        if results[0].total_violations() == 0 {
            clean += 1;
        }
        dirty += usize::from(results[1..].iter().all(|r| r.total_violations() > 0));
    }
    report.row(
        "BASE randomized audit",
        format!("paper clean on {runs}/{runs} seeds; baselines violate on all"),
        format!("paper clean on {clean}/{runs}; baselines all-dirty on {dirty}/{runs}"),
        clean == runs && dirty == runs,
    );
}

fn deviation_ablation(report: &mut Report) {
    // DEV: the paper's literal §4.1 dependency-list retraction vs the
    // repaired suffix retraction, both judged by the greatest-fixpoint
    // oracle over random schemas (see DESIGN.md deviation 2).
    use td_core::ablation::{compare_on, AblationOutcome};
    let mut outcome = AblationOutcome::default();
    let runs = 2000usize;
    for seed in 0..runs as u64 {
        // Cycle-dense shape: few types, deep call graphs, scarce accessors
        // and narrow projections — the regime where optimistic assumptions
        // actually fail and retraction precision matters.
        let schema = td_workload::random_schema(&td_workload::GenParams {
            seed,
            n_types: 4,
            attrs_per_type: 1,
            reader_fraction: 0.3,
            n_gfs: 6,
            methods_per_gf: 3,
            max_arity: 2,
            calls_per_body: 4,
            ..td_workload::GenParams::default()
        });
        let source = td_workload::deepest_type(&schema);
        let projection = td_workload::random_projection(&schema, source, 0.1, seed ^ 0x77);
        compare_on(&schema, source, &projection, &mut outcome).expect("ablation run");
    }
    report.row(
        "DEV retraction ablation",
        "the paper's literal dependency-list retraction under-retracts on some schemas; the repaired suffix retraction never disagrees with the fixpoint",
        format!(
            "literal mismatches {}/{} runs; repaired mismatches {}/{}",
            outcome.literal_mismatches, outcome.runs, outcome.repaired_mismatches, outcome.runs
        ),
        outcome.repaired_mismatches == 0,
    );
}

fn compose_ablation(report: &mut Report) {
    let mut s = figures::fig3();
    let a = s.type_id("A").expect("fig3");
    let outcomes = Pipeline::new()
        .project(&["a2", "e2", "h2"])
        .project(&["e2", "h2"])
        .project(&["h2"])
        .apply(&mut s, a, &ProjectionOptions::default())
        .expect("stacked views");
    let empties = count_empty_surrogates(&s);
    let protected: BTreeSet<TypeId> = outcomes.iter().map(|o| o.result_type()).collect();
    let (before, after, removed) =
        minimize_pipeline_surrogates(&mut s, &protected).expect("minimize");
    s.validate().expect("well-formed after minimization");
    report.row(
        "COMP views-over-views",
        "stacked views proliferate empty surrogates (§7); minimization reclaims a strict subset, invariants intact",
        format!("3 layers ⇒ {empties} empty surrogates; minimization {before}→{after} (removed {removed})"),
        empties > 0 && removed > 0 && after < before,
    );
}
