//! `td-analyze`: interprocedural abstract interpretation for derived
//! types.
//!
//! The derivation engine (`td-core`) answers *what survives* a
//! projection; this crate answers *what the surviving code actually
//! does*. It contributes:
//!
//! * a generic **monotone framework** ([`framework`]) — configurable
//!   join-semilattice domains, forward ([`Direction::TopDown`]) or
//!   backward ([`Direction::BottomUp`]) flow, worklist iteration over the
//!   call graph's SCC condensation, and a widening hook for the paper's
//!   §4 optimistic-cycle rings;
//! * an **abstract value domain** ([`absval`]) tracking nullability and
//!   integer/boolean constness through method bodies and across call
//!   boundaries;
//! * four production analyses powering the deep **TDL2xx lints**
//!   (TDL201 null-dispatch, TDL202 constant branches, TDL203 unreachable
//!   methods, TDL204 dead attributes, TDL205 interprocedural Augment) —
//!   see [`td_model::LintCode`];
//! * **semantic attribute footprints** — the same framework instance the
//!   applicability index consumes when built at
//!   [`AnalysisPrecision::Semantic`], demoting fallback methods the
//!   syntactic footprints cannot decide.
//!
//! [`analyze`] is the entry point. Results are cached in the schema's
//! generational dispatch cache under an
//! [`td_model::AnalysisKey`] — the schema-wide part under
//! `(None, precision)`, each request part under
//! `(Some((source, projection)), precision)` — so snapshot forks and
//! batch workers share reports, and the PR-8 delta machinery invalidates
//! exactly the entries a schema mutation can stale.

#![warn(missing_docs)]

pub mod absval;
mod analyses;
pub mod framework;

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use td_model::{AnalysisKey, AnalysisPrecision, AttrId, LintReport, Schema, TypeId};

pub use absval::{AbsVal, Constness, Nullness};
pub use framework::{solve, Analysis, CallGraph, Direction, Solution};

/// Iteration and cache accounting for one [`analyze`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Precision the analyses ran at.
    pub precision: AnalysisPrecision,
    /// True when the schema-wide part came from the dispatch cache.
    pub schema_cached: bool,
    /// True when the request part came from the dispatch cache (always
    /// false when no request was given).
    pub request_cached: bool,
    /// Wall time of the schema-wide part, microseconds (0 on a hit).
    pub schema_micros: u64,
    /// Wall time of the request part, microseconds (0 on a hit or when
    /// no request was given).
    pub request_micros: u64,
    /// Fallback methods in the *syntactic* applicability index of the
    /// request's source (0 without a request).
    pub fallback_syntactic: usize,
    /// Fallback methods in the index at the requested precision (equals
    /// `fallback_syntactic` when running syntactically).
    pub fallback_semantic: usize,
}

impl AnalysisStats {
    /// Fraction of syntactic fallback methods the semantic footprints
    /// demoted to indexed verdicts, in `[0, 1]`. `None` when the
    /// syntactic index had no fallbacks to demote.
    pub fn demotion_ratio(&self) -> Option<f64> {
        if self.fallback_syntactic == 0 {
            return None;
        }
        let demoted = self
            .fallback_syntactic
            .saturating_sub(self.fallback_semantic);
        Some(demoted as f64 / self.fallback_syntactic as f64)
    }
}

/// What one [`analyze`] call produced.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// The combined report: schema-wide findings first, then the request
    /// part's, mirroring `td_core::lint`.
    pub report: LintReport,
    /// Cache/timing accounting.
    pub stats: AnalysisStats,
}

/// Runs the interprocedural analyses over `schema` — plus, when a
/// request is given, the projection-scoped analyses — at the requested
/// precision. Never fails: anything that would make the analysis itself
/// impossible is reported as an error-severity diagnostic.
///
/// Precision affects only the *sharpness* of TDL2xx findings (via the
/// call edges the framework iterates): it never changes an applicability
/// verdict, a lint report or an explain report (the precision suite in
/// `tests/property_analysis.rs` proves this byte-for-byte).
pub fn analyze(
    schema: &Schema,
    request: Option<(TypeId, &BTreeSet<AttrId>)>,
    precision: AnalysisPrecision,
) -> AnalysisOutcome {
    let _span = td_telemetry::span("analyze", "total");
    let mut stats = AnalysisStats {
        precision,
        ..AnalysisStats::default()
    };

    let schema_key: AnalysisKey = (None, precision);
    let (schema_part, schema_cached, schema_micros) = cached_or_compute(schema, schema_key, || {
        let _s = td_telemetry::span("analyze", "schema_part");
        LintReport::new(analyses::schema_checks(schema))
    });
    stats.schema_cached = schema_cached;
    stats.schema_micros = schema_micros;

    let mut report = (*schema_part).clone();
    if let Some((source, projection)) = request {
        let key: AnalysisKey = (
            Some((source, projection.iter().copied().collect())),
            precision,
        );
        let (request_part, request_cached, request_micros) = cached_or_compute(schema, key, || {
            let _s = td_telemetry::span("analyze", "request_part");
            LintReport::new(analyses::request_checks(
                schema, source, projection, precision,
            ))
        });
        stats.request_cached = request_cached;
        stats.request_micros = request_micros;
        report.extend(&request_part);

        if let Ok(syn) = schema.cached_applicability_index(source) {
            stats.fallback_syntactic = syn.fallback_methods();
            stats.fallback_semantic = stats.fallback_syntactic;
        }
        if precision == AnalysisPrecision::Semantic {
            if let Ok(sem) = schema.cached_applicability_index_at(source, precision) {
                stats.fallback_semantic = sem.fallback_methods();
            }
        }
    }

    AnalysisOutcome { report, stats }
}

/// Mirrors `td_core::lint`'s two-part caching against the analysis map:
/// returns the report, whether it was a hit, and the compute time.
fn cached_or_compute(
    schema: &Schema,
    key: AnalysisKey,
    compute: impl FnOnce() -> LintReport,
) -> (Arc<LintReport>, bool, u64) {
    if let Some(hit) = schema.cached_analysis_report(&key) {
        return (hit, true, 0);
    }
    let t0 = Instant::now();
    let computed = Arc::new(compute());
    let micros = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
    schema.store_analysis_report(key, Arc::clone(&computed));
    (computed, false, micros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{
        BodyBuilder, Expr, LintCode, Literal, MethodKind, PrimType, Specializer, Stmt, ValueType,
    };

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    fn deep_codes(report: &LintReport) -> Vec<&'static str> {
        codes(report)
            .into_iter()
            .filter(|c| c.starts_with("TDL2"))
            .collect()
    }

    #[test]
    fn figure3_findings_are_stable_across_precisions() {
        let schema = td_workload::figures::fig3();
        let source = schema.type_id("A").unwrap();
        let projection: BTreeSet<_> = td_workload::figures::FIG4_PROJECTION
            .iter()
            .map(|a| schema.attr_id(a).unwrap())
            .collect();
        let syn = analyze(
            &schema,
            Some((source, &projection)),
            AnalysisPrecision::Syntactic,
        );
        // The paper's running example has no null traps, constant
        // branches or shadowed survivors; `a2`/`e2` are projected but
        // have no reader anywhere, so liveness flags exactly them.
        let deep = deep_codes(&syn.report);
        assert!(
            !deep
                .iter()
                .any(|c| matches!(*c, "TDL201" | "TDL202" | "TDL203")),
            "unexpected deep warnings on fig3: {:?}",
            syn.report.diagnostics
        );
        let dead: Vec<&str> = syn
            .report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::DeadAttribute)
            .flat_map(|d| d.spans.iter().map(|s| s.name.as_str()))
            .collect();
        assert_eq!(dead, vec!["a2", "e2"], "{:?}", syn.report.diagnostics);
        // Precision sharpens edges but must not change fig3's findings.
        let sem = analyze(
            &schema,
            Some((source, &projection)),
            AnalysisPrecision::Semantic,
        );
        assert_eq!(syn.report, sem.report);
    }

    /// gf `danger(Int)` only has a primitive-specialized method; `trap`
    /// calls it with the result of a no-result gf — a provable null.
    #[test]
    fn null_arg_dispatch_is_reported() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let noop = s.add_gf("noop", 1, None).unwrap();
        let mut nb = BodyBuilder::new();
        nb.ret(Expr::Param(0));
        s.add_method(
            noop,
            "noop_a",
            vec![Specializer::Type(a)],
            MethodKind::General(nb.finish()),
            None,
        )
        .unwrap();
        let danger = s
            .add_gf("danger", 1, Some(ValueType::Prim(PrimType::Int)))
            .unwrap();
        let mut db = BodyBuilder::new();
        db.ret(Expr::int(1));
        s.add_method(
            danger,
            "danger_int",
            vec![Specializer::Prim(PrimType::Int)],
            MethodKind::General(db.finish()),
            Some(ValueType::Prim(PrimType::Int)),
        )
        .unwrap();
        let trap = s.add_gf("trap", 1, None).unwrap();
        let mut tb = BodyBuilder::new();
        tb.expr(Expr::call(
            danger,
            vec![Expr::call(noop, vec![Expr::Param(0)])],
        ));
        s.add_method(
            trap,
            "trap_a",
            vec![Specializer::Type(a)],
            MethodKind::General(tb.finish()),
            None,
        )
        .unwrap();

        let out = analyze(&s, None, AnalysisPrecision::Syntactic);
        assert_eq!(deep_codes(&out.report), vec!["TDL201"]);
        let d = &out.report.diagnostics[0];
        assert!(
            d.message.contains("danger"),
            "names the callee: {}",
            d.message
        );
        assert!(
            d.message.contains("trap_a"),
            "names the caller: {}",
            d.message
        );
    }

    /// Null flows *through* a call: `id` returns its (possibly-null)
    /// parameter, but `mk_null` always returns a null literal, and the
    /// interprocedural fixpoint must see through both.
    #[test]
    fn nullness_propagates_through_returns() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let mk_null = s.add_gf("mk_null", 0, Some(ValueType::Object(a))).unwrap();
        let mut mb = BodyBuilder::new();
        mb.ret(Expr::Lit(Literal::Null));
        s.add_method(
            mk_null,
            "mk_null0",
            vec![],
            MethodKind::General(mb.finish()),
            Some(ValueType::Object(a)),
        )
        .unwrap();
        let id = s.add_gf("id", 1, Some(ValueType::Object(a))).unwrap();
        let mut ib = BodyBuilder::new();
        ib.ret(Expr::Param(0));
        s.add_method(
            id,
            "id_a",
            vec![Specializer::Type(a)],
            MethodKind::General(ib.finish()),
            Some(ValueType::Object(a)),
        )
        .unwrap();
        let use_gf = s
            .add_gf("use", 1, Some(ValueType::Prim(PrimType::Int)))
            .unwrap();
        let mut ub = BodyBuilder::new();
        ub.ret(Expr::int(0));
        s.add_method(
            use_gf,
            "use_int",
            vec![Specializer::Prim(PrimType::Int)],
            MethodKind::General(ub.finish()),
            Some(ValueType::Prim(PrimType::Int)),
        )
        .unwrap();
        let driver = s.add_gf("driver", 1, None).unwrap();
        let mut db = BodyBuilder::new();
        // use(mk_null()) — definitely null through one call summary.
        db.expr(Expr::call(use_gf, vec![Expr::call(mk_null, vec![])]));
        // use(id(p0)) — id may return a non-null object; NOT flagged.
        db.expr(Expr::call(
            use_gf,
            vec![Expr::call(id, vec![Expr::Param(0)])],
        ));
        s.add_method(
            driver,
            "driver_a",
            vec![Specializer::Type(a)],
            MethodKind::General(db.finish()),
            None,
        )
        .unwrap();

        let out = analyze(&s, None, AnalysisPrecision::Syntactic);
        assert_eq!(deep_codes(&out.report), vec!["TDL201"]);
    }

    #[test]
    fn constant_branch_is_reported_with_dead_count() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        // if (1 < 2) { return p0 } else { return p0; return p0 }
        bb.if_(
            Expr::binop(td_model::BinOp::Lt, Expr::int(1), Expr::int(2)),
            vec![Stmt::Return(Expr::Param(0))],
            vec![Stmt::Return(Expr::Param(0)), Stmt::Return(Expr::Param(0))],
        );
        s.add_method(
            f,
            "f_a",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        let out = analyze(&s, None, AnalysisPrecision::Syntactic);
        assert_eq!(deep_codes(&out.report), vec!["TDL202"]);
        let d = &out.report.diagnostics[0];
        assert!(
            d.message.contains("always true") && d.message.contains("2 statement"),
            "message carries the fold and the dead count: {}",
            d.message
        );
    }

    /// Two methods of one gf, both surviving, the specific one shadowing
    /// the general one everywhere, nothing calling the loser → TDL203.
    #[test]
    fn shadowed_unreachable_method_is_reported() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (get_x, _) = s.add_reader(x, a).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut fa = BodyBuilder::new();
        fa.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f_a",
            vec![Specializer::Type(a)],
            MethodKind::General(fa.finish()),
            None,
        )
        .unwrap();
        let mut fb = BodyBuilder::new();
        fb.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f_b",
            vec![Specializer::Type(b)],
            MethodKind::General(fb.finish()),
            None,
        )
        .unwrap();
        let source = b;
        let projection: BTreeSet<_> = [x].into_iter().collect();
        let out = analyze(
            &s,
            Some((source, &projection)),
            AnalysisPrecision::Syntactic,
        );
        let deep = deep_codes(&out.report);
        assert!(
            deep.contains(&"TDL203"),
            "expected TDL203 in {deep:?}: {:?}",
            out.report.diagnostics
        );
        let d = out
            .report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::UnreachableMethod)
            .unwrap();
        assert!(d.message.contains("f_a") && d.message.contains("f_b"));
    }

    /// A projected attribute with no reader accessor and no surviving
    /// body reading it → TDL204.
    #[test]
    fn dead_attribute_is_reported() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let y = s.add_attr("y", ValueType::INT, a).unwrap();
        let (get_x, _) = s.add_reader(x, a).unwrap();
        // No accessors for `y` at all.
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f_a",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        let projection: BTreeSet<_> = [x, y].into_iter().collect();
        let out = analyze(&s, Some((a, &projection)), AnalysisPrecision::Syntactic);
        let dead: Vec<_> = out
            .report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::DeadAttribute)
            .collect();
        assert_eq!(dead.len(), 1, "{:?}", out.report.diagnostics);
        assert!(dead[0].message.contains("`y`"));
    }

    /// An applicable callee binds the caller's argument (static type C)
    /// to a formal specialized on G, where G is outside the projection
    /// closure X — an interprocedural Augment edge → TDL205.
    #[test]
    fn interprocedural_augment_is_reported() {
        let mut s = Schema::new();
        let g_ty = s.add_type("G", &[]).unwrap();
        let c_ty = s.add_type("C", &[g_ty]).unwrap();
        let x = s.add_attr("x", ValueType::INT, c_ty).unwrap();
        let (get_x, _) = s.add_reader(x, c_ty).unwrap();
        let callee = s.add_gf("sink", 1, None).unwrap();
        let mut kb = BodyBuilder::new();
        kb.ret(Expr::Param(0));
        s.add_method(
            callee,
            "sink_g",
            vec![Specializer::Type(g_ty)],
            MethodKind::General(kb.finish()),
            None,
        )
        .unwrap();
        let caller = s.add_gf("drive", 1, None).unwrap();
        let mut cb = BodyBuilder::new();
        cb.call(get_x, vec![Expr::Param(0)]);
        cb.call(callee, vec![Expr::Param(0)]);
        s.add_method(
            caller,
            "drive_c",
            vec![Specializer::Type(c_ty)],
            MethodKind::General(cb.finish()),
            None,
        )
        .unwrap();
        let projection: BTreeSet<_> = [x].into_iter().collect();
        let out = analyze(&s, Some((c_ty, &projection)), AnalysisPrecision::Syntactic);
        let found: Vec<_> = out
            .report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::InterprocAugment)
            .collect();
        assert_eq!(found.len(), 1, "{:?}", out.report.diagnostics);
        assert!(found[0].message.contains("`G`"), "{}", found[0].message);
    }

    #[test]
    fn reports_are_cached_per_key_and_precision() {
        let schema = td_workload::figures::fig3();
        let source = schema.type_id("A").unwrap();
        let projection: BTreeSet<_> = td_workload::figures::FIG4_PROJECTION
            .iter()
            .map(|a| schema.attr_id(a).unwrap())
            .collect();
        let first = analyze(
            &schema,
            Some((source, &projection)),
            AnalysisPrecision::Syntactic,
        );
        assert!(!first.stats.schema_cached && !first.stats.request_cached);
        let second = analyze(
            &schema,
            Some((source, &projection)),
            AnalysisPrecision::Syntactic,
        );
        assert!(second.stats.schema_cached && second.stats.request_cached);
        assert_eq!(first.report, second.report);
        // A different precision is a different key: schema part misses.
        let third = analyze(
            &schema,
            Some((source, &projection)),
            AnalysisPrecision::Semantic,
        );
        assert!(!third.stats.schema_cached && !third.stats.request_cached);
        // Precision never changes what is *found* on this clean schema.
        assert_eq!(first.report, third.report);
    }

    #[test]
    fn demotion_ratio_arithmetic() {
        let stats = AnalysisStats {
            fallback_syntactic: 10,
            fallback_semantic: 4,
            ..AnalysisStats::default()
        };
        assert_eq!(stats.demotion_ratio(), Some(0.6));
        let none = AnalysisStats::default();
        assert_eq!(none.demotion_ratio(), None);
    }
}
