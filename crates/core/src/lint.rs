//! The static schema & projection-safety analyzer (`td-lint`).
//!
//! The paper's machinery silently makes assumptions that bite at
//! derivation time: multi-method dispatch can be ambiguous (§3), §4's
//! cycle handling is *optimistic*, and §6.4's `Augment` can be forced by
//! assignments deep in method bodies. This pass checks all of that
//! statically — over a [`Schema`] plus an optional projection request —
//! and reports through the structured-diagnostics vocabulary of
//! [`td_model::diag`] (stable `TDL…` codes, severities, provenance
//! spans). The checks:
//!
//! * **TDL001 dispatch ambiguity** — for every generic function, find
//!   argument-type tuples with two maximal applicable methods and no
//!   most-specific winner. Dispatch itself always picks *something* (the
//!   lexicographic argument-order rule), so this is a warning about
//!   confusable schemas, not an error.
//! * **TDL002 precedence conflicts** — inconsistent class precedence
//!   lists (reported by validation) plus surrogate-precedence wiring: a
//!   surrogate that is not a supertype of its source would break the I2
//!   dispatch-preservation invariant.
//! * **TDL003 optimistic-cycle audit** — call rings (nontrivial SCCs of
//!   the PR-3 condensation index) whose applicability verdicts rest on
//!   the §4 optimistic assumption. A note: the fixpoint retracts wrong
//!   guesses, but reviewers deserve to know which verdicts were assumed
//!   before they were checked.
//! * **TDL004 behavior-free projection** — the request would derive a
//!   `T̂` on which no non-accessor method survives; the lint names the
//!   *load-bearing* attributes whose omission orphans the behavior.
//! * **TDL005 Augment hazards** — §6.4 def-use chains where an
//!   assignment in a surviving body forces surrogate creation for types
//!   outside the projection closure, reported before `FactorMethods`
//!   ever runs.
//!
//! Results are cached in the schema's generational `DispatchCache`
//! ([`Schema::cached_lint_report`]) under a [`LintKey`]: the schema-wide
//! part under `None`, each request part under `Some((source,
//! projection))`. Snapshot forks share the cache, so batch workers lint
//! a schema once.

use std::collections::BTreeSet;
use std::sync::Arc;

use td_model::{
    AttrId, CallArg, Diagnostic, GfId, LintCode, LintKey, LintReport, MethodId, Schema, Span,
    Specializer, SubtypeLists, TypeId,
};

use crate::applicability::compute_applicability_indexed;
use crate::body_rewrite::{collect_flow_edges, compute_x, compute_y_and_z};

/// Runs the full analyzer: the schema-wide checks (validation, TDL001,
/// TDL002), plus — when a request is given — the projection-safety checks
/// (TDL006 request validation, TDL003, TDL004, TDL005). Never fails:
/// anything that would make the analysis itself impossible is reported as
/// an error-severity diagnostic instead.
pub fn lint(schema: &Schema, request: Option<(TypeId, &BTreeSet<AttrId>)>) -> LintReport {
    let schema_part = cached_or_compute(schema, None, || lint_schema_part(schema));
    let mut report = (*schema_part).clone();
    if let Some((source, projection)) = request {
        let key: LintKey = Some((source, projection.iter().copied().collect()));
        let schema_broken = schema_part.errors() > 0;
        let request_part = cached_or_compute(schema, key, || {
            lint_request_part(schema, source, projection, schema_broken)
        });
        report.extend(&request_part);
    }
    report
}

/// The call ring `method` sits on in `source`'s applicability call graph,
/// if any — the group of methods whose verdicts §4's `IsApplicable`
/// assumes optimistically before checking. Consumed by `tdv explain` to
/// annotate verdicts.
pub fn optimistic_cycle_ring(
    schema: &Schema,
    source: TypeId,
    method: MethodId,
) -> Option<Vec<MethodId>> {
    let index = schema.cached_applicability_index(source).ok()?;
    index
        .cycle_groups()
        .iter()
        .find(|g| g.contains(&method))
        .cloned()
}

fn cached_or_compute(
    schema: &Schema,
    key: LintKey,
    compute: impl FnOnce() -> LintReport,
) -> Arc<LintReport> {
    if let Some(hit) = schema.cached_lint_report(&key) {
        return hit;
    }
    let computed = Arc::new(compute());
    schema.store_lint_report(key, Arc::clone(&computed));
    computed
}

// ---------------------------------------------------------------- schema part

fn lint_schema_part(schema: &Schema) -> LintReport {
    let _span = td_telemetry::span("lint", "schema_part");
    let mut diags = {
        let _s = td_telemetry::span("lint", "validate");
        schema.validate_diagnostics()
    };
    // The deep checks assume a well-formed schema (consistent CPLs, sane
    // bodies); on a broken one the validation errors are the story.
    if diags.is_empty() {
        {
            let _s = td_telemetry::span("lint", "surrogate_wiring");
            check_surrogate_wiring(schema, &mut diags);
        }
        {
            let _s = td_telemetry::span("lint", "dispatch_ambiguity");
            check_dispatch_ambiguity(schema, &mut diags);
        }
    }
    LintReport::new(diags)
}

/// TDL002 (wiring half): every live surrogate must sit above its source
/// in the hierarchy, or factored accessors stop being inherited and I2
/// fails: the source's dispatch facts change.
fn check_surrogate_wiring(schema: &Schema, diags: &mut Vec<Diagnostic>) {
    for t in schema.live_type_ids() {
        let node = schema.type_(t);
        if !node.is_surrogate() {
            continue;
        }
        let Some(source) = node.surrogate_source() else {
            continue;
        };
        if !schema.is_live(source) || schema.is_subtype(source, t) {
            continue;
        }
        let surrogate = schema.type_name(t).to_string();
        let src = schema.type_name(source).to_string();
        diags.push(Diagnostic::new(
            LintCode::PrecedenceConflict,
            format!(
                "surrogate `{surrogate}` is not a supertype of its source `{src}` — \
                 factored behavior would not be inherited (breaks I2)"
            ),
            vec![Span::ty(surrogate), Span::ty(src)],
        ));
    }
}

/// TDL001: for each generic function, look for argument tuples where the
/// applicable set has no pointwise most-specific member. Dispatch's
/// lexicographic rule still picks a winner there, but the pick depends on
/// argument order — the classic multi-method confusability of §3.
fn check_dispatch_ambiguity(schema: &Schema, diags: &mut Vec<Diagnostic>) {
    let below = schema.subtype_lists();
    let mut seen: BTreeSet<(GfId, Vec<MethodId>)> = BTreeSet::new();
    for g in schema.gf_ids() {
        let methods = schema.gf(g).methods.clone();
        for (i, &m1) in methods.iter().enumerate() {
            for &m2 in &methods[i + 1..] {
                let Some(witness) = unify_pair(schema, &below, m1, m2) else {
                    continue;
                };
                let applicable = schema.applicable_methods(g, &witness);
                if applicable.len() < 2 {
                    continue;
                }
                let mut vectors = Vec::with_capacity(applicable.len());
                let mut ok = true;
                for &m in &applicable {
                    match schema.specificity_vector(m, &witness) {
                        Ok(v) => vectors.push((m, v)),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let has_winner = vectors
                    .iter()
                    .any(|(_, v)| vectors.iter().all(|(_, w)| pointwise_le(v, w)));
                if has_winner {
                    continue;
                }
                // The maximal (undominated) set is what the user must
                // disambiguate between.
                let mut maximal: Vec<MethodId> = vectors
                    .iter()
                    .filter(|(m, v)| {
                        !vectors
                            .iter()
                            .any(|(o, w)| o != m && pointwise_le(w, v) && w != v)
                    })
                    .map(|&(m, _)| m)
                    .collect();
                maximal.sort();
                if !seen.insert((g, maximal.clone())) {
                    continue;
                }
                let gf_name = schema.gf_name(g).to_string();
                let tuple = witness
                    .iter()
                    .map(|a| match a {
                        CallArg::Object(t) => schema.type_name(*t).to_string(),
                        other => format!("{other:?}").to_lowercase(),
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                let labels = maximal
                    .iter()
                    .map(|&m| format!("`{}`", schema.method_label(m)))
                    .collect::<Vec<_>>()
                    .join(", ");
                let mut spans = vec![Span::gf(gf_name.clone())];
                spans.extend(
                    maximal
                        .iter()
                        .map(|&m| Span::method(schema.method_label(m).to_string())),
                );
                diags.push(Diagnostic::new(
                    LintCode::DispatchAmbiguity,
                    format!(
                        "a call `{gf_name}({tuple})` has no most-specific method: \
                         {labels} are mutually incomparable"
                    ),
                    spans,
                ));
            }
        }
    }
}

/// A witness call tuple on which both methods are applicable, if the two
/// signatures are unifiable at all: per position, the most generic common
/// subtype of the two specializers (lowest id breaks ties). `None` when
/// some position has no common instances.
fn unify_pair(
    schema: &Schema,
    below: &SubtypeLists<'_>,
    m1: MethodId,
    m2: MethodId,
) -> Option<Vec<CallArg>> {
    let s1 = &schema.method(m1).specializers;
    let s2 = &schema.method(m2).specializers;
    if s1.len() != s2.len() {
        return None;
    }
    let mut witness = Vec::with_capacity(s1.len());
    for (a, b) in s1.iter().zip(s2.iter()) {
        match (a, b) {
            (Specializer::Prim(p), Specializer::Prim(q)) if p == q => {
                witness.push(CallArg::Prim(*p));
            }
            (Specializer::Type(t1), Specializer::Type(t2)) => {
                let below_t2 = below.descendant_set([*t2]);
                let common: Vec<TypeId> = below
                    .descendant_set([*t1])
                    .iter()
                    .filter(|&t| below_t2.contains(t) && schema.is_live(t))
                    .collect();
                // In id order, so the first maximal one is the lowest id.
                let most_generic = common.iter().copied().find(|&t| {
                    let above = schema.ancestor_set(t);
                    !common.iter().any(|&u| u != t && above.contains(u))
                })?;
                witness.push(CallArg::Object(most_generic));
            }
            _ => return None,
        }
    }
    Some(witness)
}

fn pointwise_le(a: &[usize], b: &[usize]) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

// --------------------------------------------------------------- request part

fn lint_request_part(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    schema_broken: bool,
) -> LintReport {
    let _span = td_telemetry::span("lint", "request_part");
    let mut diags = Vec::new();
    {
        let _s = td_telemetry::span("lint", "request_validation");
        if !check_request(schema, source, projection, &mut diags) || schema_broken {
            return LintReport::new(diags);
        }
    }
    {
        let _s = td_telemetry::span("lint", "optimistic_cycles");
        check_optimistic_cycles(schema, source, &mut diags);
    }
    let app = match compute_applicability_indexed(schema, source, projection, false) {
        Ok(app) => app,
        Err(e) => {
            diags.push(Diagnostic::new(
                LintCode::InvalidRequest,
                format!("applicability analysis failed: {e}"),
                vec![Span::ty(schema.type_name(source))],
            ));
            return LintReport::new(diags);
        }
    };
    {
        let _s = td_telemetry::span("lint", "behavior_free");
        check_behavior_free(schema, source, projection, &app.applicable, &mut diags);
    }
    {
        let _s = td_telemetry::span("lint", "augment_hazards");
        check_augment_hazards(schema, source, projection, &app.applicable, &mut diags);
    }
    LintReport::new(diags)
}

/// TDL006: the request itself must name a live source and attributes
/// available there — exactly the conditions under which `project` would
/// fail up front. Returns false when the request is unusable.
fn check_request(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    if !schema.is_live(source) {
        diags.push(Diagnostic::new(
            LintCode::InvalidRequest,
            format!("projection source {source} is not a live type"),
            Vec::new(),
        ));
        return false;
    }
    let src = schema.type_name(source).to_string();
    let mut usable = true;
    if projection.is_empty() {
        diags.push(Diagnostic::new(
            LintCode::InvalidRequest,
            format!("empty projection over `{src}` derives no type"),
            vec![Span::ty(src.clone())],
        ));
        usable = false;
    }
    for &a in projection {
        if a.index() >= schema.n_attrs() {
            diags.push(Diagnostic::new(
                LintCode::InvalidRequest,
                format!("projection over `{src}` names unknown attribute {a}"),
                vec![Span::ty(src.clone())],
            ));
            usable = false;
        } else if !schema.attr_available_at(a, source) {
            let attr = schema.attr_name(a).to_string();
            diags.push(Diagnostic::new(
                LintCode::InvalidRequest,
                format!("attribute `{attr}` is not available at type `{src}`"),
                vec![Span::attr(attr), Span::ty(src.clone())],
            ));
            usable = false;
        }
    }
    usable
}

/// TDL003: name every call ring of the source's applicability universe.
fn check_optimistic_cycles(schema: &Schema, source: TypeId, diags: &mut Vec<Diagnostic>) {
    let Ok(index) = schema.cached_applicability_index(source) else {
        return;
    };
    for group in index.cycle_groups() {
        let labels = group
            .iter()
            .map(|&m| format!("`{}`", schema.method_label(m)))
            .collect::<Vec<_>>()
            .join(", ");
        let spans = group
            .iter()
            .map(|&m| Span::method(schema.method_label(m).to_string()))
            .collect();
        diags.push(Diagnostic::new(
            LintCode::OptimisticCycle,
            format!(
                "applicability verdicts for {labels} rest on the §4 optimistic \
                 cycle assumption (call ring)"
            ),
            spans,
        ));
    }
}

/// TDL004: the derived type would keep attributes but no behavior. When
/// that happens, name the load-bearing attributes — the dropped attributes
/// whose reinstatement would revive at least one non-accessor method.
fn check_behavior_free(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    applicable: &[MethodId],
    diags: &mut Vec<Diagnostic>,
) {
    let non_accessor = |ms: &[MethodId]| {
        ms.iter()
            .filter(|&&m| !schema.method(m).is_accessor())
            .count()
    };
    if non_accessor(applicable) > 0 {
        return;
    }
    let universe = schema.methods_applicable_to_type(source);
    if non_accessor(&universe) == 0 {
        // The source never had behavior; nothing was orphaned.
        return;
    }
    // Load-bearing analysis, run lazily only on the warning path: an
    // omitted attribute is load-bearing if adding it back revives some
    // non-accessor method.
    let full = schema.cumulative_attrs(source);
    let mut load_bearing = Vec::new();
    for &a in full.difference(projection) {
        let mut widened = projection.clone();
        widened.insert(a);
        if let Ok(app) = compute_applicability_indexed(schema, source, &widened, false) {
            if non_accessor(&app.applicable) > 0 {
                load_bearing.push(a);
            }
        }
    }
    let src = schema.type_name(source).to_string();
    let mut spans = vec![Span::ty(src.clone())];
    let detail = if load_bearing.is_empty() {
        String::from("no single omitted attribute accounts for it")
    } else {
        let names = load_bearing
            .iter()
            .map(|&a| format!("`{}`", schema.attr_name(a)))
            .collect::<Vec<_>>()
            .join(", ");
        spans.extend(
            load_bearing
                .iter()
                .map(|&a| Span::attr(schema.attr_name(a).to_string())),
        );
        format!("load-bearing attributes missing from the request: {names}")
    };
    diags.push(Diagnostic::new(
        LintCode::BehaviorFreeProjection,
        format!(
            "projection over `{src}` derives a behavior-free type \
             (no non-accessor method survives); {detail}"
        ),
        spans,
    ));
}

/// TDL005: assignments in surviving bodies that will force `Augment`
/// (§6.4) to create surrogates for types outside the projection closure.
///
/// `X` is approximated the way `project` seeds `FactorState`: the types
/// on a supertype path from the source to an owner of a projected
/// attribute. An edge `(target, value)` with `value ∈ X ∪ Y` drags
/// `target` into `Y`; `Z = Y − X` is exactly the §6.4 surrogate set.
fn check_augment_hazards(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    applicable: &[MethodId],
    diags: &mut Vec<Diagnostic>,
) {
    let x = compute_x(schema, source, projection);
    let edges = collect_flow_edges(schema, applicable);
    let (y, z) = compute_y_and_z(&edges, &x);
    if z.is_empty() {
        return;
    }
    for &m in applicable {
        if schema.method(m).is_accessor() {
            continue;
        }
        let forced: BTreeSet<TypeId> = schema
            .assignment_edges(m)
            .into_iter()
            .filter(|(target, value)| {
                z.contains(target) && (x.contains(value) || y.contains(value))
            })
            .map(|(target, _)| target)
            .collect();
        if forced.is_empty() {
            continue;
        }
        let label = schema.method_label(m).to_string();
        let names = forced
            .iter()
            .map(|&t| format!("`{}`", schema.type_name(t)))
            .collect::<Vec<_>>()
            .join(", ");
        let mut spans = vec![Span::method(label.clone())];
        spans.extend(forced.iter().map(|&t| Span::ty(schema.type_name(t))));
        diags.push(Diagnostic::new(
            LintCode::AugmentHazard,
            format!(
                "assignments in `{label}` force Augment (§6.4) surrogates \
                 for types outside the projection closure: {names}"
            ),
            spans,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{BodyBuilder, Expr, MethodKind, Severity, ValueType};
    use td_workload::figures;

    fn request(s: &Schema, ty: &str, attrs: &[&str]) -> (TypeId, BTreeSet<AttrId>) {
        let source = s.type_id(ty).unwrap();
        let projection = attrs.iter().map(|a| s.attr_id(a).unwrap()).collect();
        (source, projection)
    }

    #[test]
    fn every_pathological_corpus_case_fails_deny_warnings() {
        for case in td_workload::pathological_corpus(9, 0xBAD) {
            let report = lint(&case.schema, case.request.as_ref().map(|(t, a)| (*t, a)));
            assert!(
                report.fails(true),
                "{} case slipped past the lints:\n{}",
                case.name,
                report.render_text()
            );
            // Only the ill-formed diamonds are hard errors; the rest are
            // warnings a plain `lint` run tolerates.
            assert_eq!(report.fails(false), case.name == "diamond");
        }
    }

    #[test]
    fn fig3_schema_part_is_clean() {
        let s = figures::fig3_with_z1();
        let report = lint(&s, None);
        assert!(report.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn fig3_request_reports_ring_and_augment_notes_only() {
        let s = figures::fig3_with_z1();
        let (source, projection) = request(&s, "A", figures::FIG4_PROJECTION);
        let report = lint(&s, Some((source, &projection)));
        assert_eq!(report.errors(), 0, "{}", report.render_text());
        assert_eq!(report.warnings(), 0, "{}", report.render_text());
        assert!(report.notes() >= 2, "{}", report.render_text());
        // The x1 <-> y1 call ring is audited…
        let cycle = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::OptimisticCycle)
            .expect("cycle note");
        assert!(cycle.message.contains("x1") && cycle.message.contains("y1"));
        // …and z1's assignments force exactly the Figure 5 sources.
        let hazard = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::AugmentHazard)
            .expect("augment note");
        assert!(hazard.message.contains("z1"), "{}", hazard.message);
        for t in figures::FIG5_AUGMENT_SOURCES {
            assert!(hazard.message.contains(t), "{}: {t}", hazard.message);
        }
        // Severity policy: notes never fail --deny warnings.
        assert!(!report.fails(true));
    }

    #[test]
    fn fig3_without_z1_has_no_augment_note() {
        let s = figures::fig3();
        let (source, projection) = request(&s, "A", figures::FIG4_PROJECTION);
        let report = lint(&s, Some((source, &projection)));
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code != LintCode::AugmentHazard));
    }

    #[test]
    fn explain_helper_finds_the_ring() {
        let s = figures::fig3();
        let source = s.type_id("A").unwrap();
        let x1 = s.method_by_label("x1").unwrap();
        let y1 = s.method_by_label("y1").unwrap();
        let v1 = s.method_by_label("v1").unwrap();
        let ring = optimistic_cycle_ring(&s, source, x1).expect("x1 is on a ring");
        assert!(ring.contains(&x1) && ring.contains(&y1));
        assert!(optimistic_cycle_ring(&s, source, v1).is_none());
    }

    /// Regression for the per-diagnostic ring re-derivation: the rings
    /// are memoized on the cached index, so asking once per method (the
    /// explain loop's shape) costs one index build total, and repeated
    /// `cycle_groups` calls return the same allocation.
    #[test]
    fn cycle_rings_are_derived_once_per_source() {
        let s = figures::fig3();
        let source = s.type_id("A").unwrap();
        let index = s.cached_applicability_index(source).unwrap();
        let first = index.cycle_groups();
        let again = index.cycle_groups();
        assert!(std::ptr::eq(first, again), "rings must be memoized");
        let misses_before = s.dispatch_cache_stats().index_misses;
        let methods: Vec<_> = s.method_ids().collect();
        let findings = methods
            .iter()
            .filter(|&&m| optimistic_cycle_ring(&s, source, m).is_some())
            .count();
        assert!(findings >= 2, "fig3 has a ring with at least x1 and y1");
        let misses_after = s.dispatch_cache_stats().index_misses;
        assert_eq!(
            misses_before, misses_after,
            "ring lookups must not rebuild the applicability index"
        );
    }

    /// g(A, B) vs g(B, A) with C <= A, B: a call g(C, C) is applicable to
    /// both and neither specializer tuple dominates.
    #[test]
    fn ambiguous_multimethod_warns() {
        let mut s = Schema::new();
        let p = s.add_type("P", &[]).unwrap();
        let a = s.add_type("A", &[p]).unwrap();
        let b = s.add_type("B", &[p]).unwrap();
        let _c = s.add_type("C", &[a, b]).unwrap();
        let g = s.add_gf("g", 2, None).unwrap();
        for (label, s1, s2) in [("g1", a, b), ("g2", b, a)] {
            s.add_method(
                g,
                label,
                vec![Specializer::Type(s1), Specializer::Type(s2)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        }
        let report = lint(&s, None);
        assert_eq!(report.warnings(), 1, "{}", report.render_text());
        let d = &report.diagnostics[0];
        assert_eq!(d.code, LintCode::DispatchAmbiguity);
        assert!(d.message.contains("g1") && d.message.contains("g2"));
        assert!(d.message.contains("g(C, C)"), "{}", d.message);
        assert!(report.fails(true) && !report.fails(false));
    }

    /// v1(A, C) dominates v2(B, C) pointwise when A <= B — no ambiguity.
    #[test]
    fn dominated_pair_is_not_ambiguous() {
        let s = figures::fig3();
        let report = lint(&s, None);
        assert_eq!(report.warnings(), 0, "{}", report.render_text());
    }

    #[test]
    fn precedence_diamond_is_an_error() {
        let mut s = Schema::new();
        let p = s.add_type("P", &[]).unwrap();
        let q = s.add_type("Q", &[]).unwrap();
        let x = s.add_type("X", &[p, q]).unwrap();
        let y = s.add_type("Y", &[q, p]).unwrap();
        let _z = s.add_type("Z", &[x, y]).unwrap();
        let report = lint(&s, None);
        assert!(report.errors() > 0, "{}", report.render_text());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::PrecedenceConflict));
        assert!(report.fails(false));
    }

    #[test]
    fn broken_surrogate_wiring_is_an_error() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let _b = s.add_type("B", &[a]).unwrap();
        // A surrogate created but never wired above its source.
        let _hat = s.add_surrogate("^A", a).unwrap();
        let report = lint(&s, None);
        assert_eq!(report.errors(), 1, "{}", report.render_text());
        assert_eq!(report.diagnostics[0].code, LintCode::PrecedenceConflict);
        assert!(report.diagnostics[0].message.contains("^A"));
    }

    #[test]
    fn behavior_free_projection_names_load_bearing_attrs() {
        let mut s = Schema::new();
        let t = s.add_type("T", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, t).unwrap();
        let y = s.add_attr("y", ValueType::INT, t).unwrap();
        s.add_accessors(x).unwrap();
        s.add_accessors(y).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let get_x = s.gf_id("get_x").unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f1",
            vec![Specializer::Type(t)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        // Keeping only y orphans f1 (which needs x).
        let (source, projection) = request(&s, "T", &["y"]);
        let report = lint(&s, Some((source, &projection)));
        assert_eq!(report.warnings(), 1, "{}", report.render_text());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::BehaviorFreeProjection)
            .unwrap();
        assert!(d.message.contains("behavior-free"));
        assert!(d.message.contains("`x`"), "{}", d.message);
        assert_eq!(d.severity, Severity::Warning);
        // Keeping x instead preserves behavior: no warning.
        let (source, projection) = request(&s, "T", &["x"]);
        let report = lint(&s, Some((source, &projection)));
        assert_eq!(report.warnings(), 0, "{}", report.render_text());
    }

    #[test]
    fn malformed_requests_are_tdl006_errors() {
        let s = figures::fig3();
        let source = s.type_id("A").unwrap();
        // Empty projection.
        let empty = BTreeSet::new();
        let report = lint(&s, Some((source, &empty)));
        assert!(report.errors() > 0);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::InvalidRequest));
        // Attribute not available at the source: a1 is owned by A, and C
        // is not a subtype of A.
        let c = s.type_id("C").unwrap();
        let a1 = s.attr_id("a1").unwrap();
        let bad: BTreeSet<AttrId> = [a1].into_iter().collect();
        let report = lint(&s, Some((c, &bad)));
        assert!(report.errors() > 0, "{}", report.render_text());
        assert!(report.render_text().contains("not available"));
    }

    #[test]
    fn reports_are_cached_per_generation() {
        let s = figures::fig3_with_z1();
        let (source, projection) = request(&s, "A", figures::FIG4_PROJECTION);
        let first = lint(&s, Some((source, &projection)));
        let stats = s.dispatch_cache_stats();
        assert_eq!(stats.lint_misses, 2); // schema part + request part
        assert_eq!(stats.lint_entries, 2);
        let second = lint(&s, Some((source, &projection)));
        assert_eq!(first, second);
        let stats = s.dispatch_cache_stats();
        assert_eq!(stats.lint_misses, 2, "second run must be all hits");
        assert_eq!(stats.lint_hits, 2);
    }
}
