//! Properties of the `td-analyze` precision ladder.
//!
//! Three guarantees keep the semantic refinement of the applicability
//! index ([`AnalysisPrecision::Semantic`]) honest:
//!
//! 1. **Footprint nesting** — the semantic refinement only ever
//!    *removes* disjunctive over-approximation, so every method's
//!    semantic attribute footprint is a subset of its syntactic one and
//!    the fallback-method count never grows.
//! 2. **Verdict preservation** — every verdict the semantic index
//!    decides by itself is the syntactic classification's.
//! 3. **Report invisibility** — semantic warming must never change an
//!    observable answer. The suite runs the same request on two
//!    identically generated schemas, one kept fully syntactic and one
//!    warmed at semantic precision, and compares the *bytes* of all
//!    three derivation reports: the canonical `project` record, the
//!    `lint` report and the `explain` proofs.
//!
//! A deterministic pair of tests covers the delta seam: the analysis
//! corpus fails `analyze --deny warnings` while passing the ordinary
//! lints, and request-scoped analysis reports survive a single-method
//! delta that cannot reach their universe.

use proptest::prelude::*;
use std::collections::BTreeSet;
use typederive::analyze::analyze;
use typederive::derive::{
    compute_applicability_indexed, explain, lint, project, ProjectionOptions,
};
use typederive::model::{AnalysisPrecision, BodyBuilder, MethodKind, Specializer};
use typederive::server::derivation_json;
use typederive::workload::{
    analysis_corpus, deepest_type, disjunctive_schema, random_projection, random_schema, GenParams,
};

fn params_strategy() -> impl Strategy<Value = GenParams> {
    (
        2usize..24,   // n_types
        1usize..4,    // max_supers
        0.0f64..0.8,  // mi_fraction
        0usize..3,    // attrs_per_type
        0.3f64..1.0,  // reader_fraction
        1usize..9,    // n_gfs
        1usize..4,    // methods_per_gf
        1usize..3,    // max_arity
        0usize..5,    // calls_per_body
        0.0f64..0.6,  // assign_fraction
        any::<u64>(), // seed
    )
        .prop_map(
            |(
                n_types,
                max_supers,
                mi_fraction,
                attrs_per_type,
                reader_fraction,
                n_gfs,
                methods_per_gf,
                max_arity,
                calls_per_body,
                assign_fraction,
                seed,
            )| GenParams {
                n_types,
                max_supers,
                mi_fraction,
                attrs_per_type,
                reader_fraction,
                n_gfs,
                methods_per_gf,
                max_arity,
                calls_per_body,
                assign_fraction,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn semantic_precision_nests_footprints_and_never_changes_reports(
        params in params_strategy(),
        keep in 0.0f64..1.0,
        proj_seed in any::<u64>(),
    ) {
        // Two independent, identical schemas: one stays syntactic, the
        // other takes every semantic-precision code path first.
        let syn_schema = random_schema(&params);
        let sem_schema = random_schema(&params);
        let source = deepest_type(&syn_schema);
        let projection = random_projection(&syn_schema, source, keep, proj_seed);

        // --- 1. footprint nesting -----------------------------------
        let syn_idx = syn_schema
            .cached_applicability_index_at(source, AnalysisPrecision::Syntactic)
            .unwrap();
        let sem_idx = sem_schema
            .cached_applicability_index_at(source, AnalysisPrecision::Semantic)
            .unwrap();
        prop_assert!(
            sem_idx.fallback_methods() <= syn_idx.fallback_methods(),
            "refinement must not create fallbacks ({} > {})",
            sem_idx.fallback_methods(),
            syn_idx.fallback_methods()
        );
        prop_assert_eq!(syn_idx.universe(), sem_idx.universe());
        for &m in syn_idx.universe() {
            let syn_fp = syn_idx.footprint(m).unwrap();
            let sem_fp = sem_idx.footprint(m).unwrap();
            prop_assert!(
                sem_fp.is_subset(syn_fp),
                "semantic footprint of method {m:?} escapes the syntactic one"
            );
        }

        // --- 2. verdict preservation --------------------------------
        // Every verdict the semantic index decides on its own must be
        // the syntactic classification's.
        let syn_app =
            compute_applicability_indexed(&syn_schema, source, &projection, false).unwrap();
        let sem_bits = sem_idx.projection_bits(&projection);
        for &m in sem_idx.universe() {
            if let Some(v) = sem_idx.verdict(m, &sem_bits) {
                prop_assert_eq!(
                    v,
                    syn_app.is_applicable(m),
                    "semantic index verdict for method {:?} diverges",
                    m
                );
            }
        }

        // --- 3. report invisibility ---------------------------------
        // Warm every semantic artifact (analysis reports included)
        // before producing the reports on the semantic schema.
        let _ = analyze(&sem_schema, Some((source, &projection)), AnalysisPrecision::Semantic);

        let syn_lint = lint(&syn_schema, Some((source, &projection))).render_json();
        let sem_lint = lint(&sem_schema, Some((source, &projection))).render_json();
        prop_assert_eq!(syn_lint, sem_lint, "lint bytes changed under semantic precision");

        for &m in syn_app.universe.iter().take(3) {
            let syn_e = explain(&syn_schema, source, &projection, m).unwrap();
            let sem_e = explain(&sem_schema, source, &projection, m).unwrap();
            prop_assert_eq!(
                syn_e.render(&syn_schema),
                sem_e.render(&sem_schema),
                "explain bytes changed under semantic precision"
            );
        }

        if !projection.is_empty() {
            let mut syn_mut = syn_schema.clone();
            let mut sem_mut = sem_schema.clone();
            let syn_d = project(
                &mut syn_mut,
                source,
                &projection,
                &ProjectionOptions::default(),
            )
            .unwrap();
            let sem_d = project(
                &mut sem_mut,
                source,
                &projection,
                &ProjectionOptions::default(),
            )
            .unwrap();
            prop_assert_eq!(
                derivation_json(&syn_mut, &syn_d),
                derivation_json(&sem_mut, &sem_d),
                "project bytes changed under semantic precision"
            );
        }
    }
}

/// Every analysis-corpus case carries a finding only the interprocedural
/// analyses see: `analyze --deny warnings` fails, the ordinary TDL lints
/// stay clean. This is the separation that justifies two corpora (and
/// two CI gates).
#[test]
fn every_analysis_corpus_case_fails_deny_warnings_but_passes_lint() {
    for case in analysis_corpus(9, 0xA11) {
        let request = case.request.as_ref().map(|(t, a)| (*t, a));
        let out = analyze(&case.schema, request, AnalysisPrecision::Syntactic);
        assert!(
            out.report.fails(true),
            "{} case must fail `analyze --deny warnings`: {:?}",
            case.name,
            out.report.diagnostics
        );
        let ordinary = lint(&case.schema, request);
        assert!(
            !ordinary.fails(true),
            "{} case must pass the ordinary lints: {:?}",
            case.name,
            ordinary.diagnostics
        );
    }
}

/// Request-scoped analysis reports ride the PR-8 delta machinery: a
/// single added method that is not applicable to the request's source
/// evicts the schema-wide report (its universe is every method) but
/// leaves the per-source report — and its condensation index — warm.
#[test]
fn analysis_reports_survive_an_unrelated_method_delta() {
    let mut s = disjunctive_schema(2, 1, 2);
    // An island: a type hierarchy disjoint from the A/B units.
    let z = s.add_type("Z", &[]).unwrap();
    let z2 = s.add_type("Z2", &[z]).unwrap();
    let zg = s.add_gf("zg", 1, None).unwrap();
    s.add_method(
        zg,
        "zg_z",
        vec![Specializer::Type(z)],
        MethodKind::General(BodyBuilder::new().finish()),
        None,
    )
    .unwrap();

    let b = s.type_id("B").unwrap();
    let projection: BTreeSet<_> = [s.attr_id("d0_x").unwrap()].into_iter().collect();
    let cold = analyze(&s, Some((b, &projection)), AnalysisPrecision::Syntactic);
    assert!(!cold.stats.schema_cached && !cold.stats.request_cached);
    let warm = analyze(&s, Some((b, &projection)), AnalysisPrecision::Syntactic);
    assert!(warm.stats.schema_cached && warm.stats.request_cached);

    // The delta: one more method on the island gf, unreachable from `B`.
    s.add_method(
        zg,
        "zg_z2",
        vec![Specializer::Type(z2)],
        MethodKind::General(BodyBuilder::new().finish()),
        None,
    )
    .unwrap();
    let after = analyze(&s, Some((b, &projection)), AnalysisPrecision::Syntactic);
    assert!(
        !after.stats.schema_cached,
        "the schema-wide report depends on every method and must flush"
    );
    assert!(
        after.stats.request_cached,
        "the per-source report cannot reach the island and must survive"
    );
    assert!(
        s.dispatch_cache_stats().delta_survivals > 0,
        "the survival must be delta-accounted, not a rebuild"
    );
}
