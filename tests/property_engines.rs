//! Property: the `IsApplicable` implementations — the condensation-index
//! path every production caller uses, the paper's stack algorithm (the
//! index's fallback) and the greatest-fixpoint oracle — classify
//! identically on every randomly generated schema, down to the order of
//! the verdict lists.
//!
//! The indexed path answers single-candidate regions by bitset
//! footprint test and falls back to the stack algorithm for disjunctive
//! (§4.1 case-2 / multi-candidate) regions, so this suite is the direct
//! check on the fallback seam: any method the index wrongly claims, or
//! wrongly routes, shows up as a list difference. Each case exercises the
//! index cold (first build), warm (cached), and after a
//! cache-invalidating schema mutation (rebuild against the new
//! generation).

use proptest::prelude::*;
use std::collections::BTreeSet;
use typederive::derive::{
    applicability_fixpoint, compute_applicability, compute_applicability_indexed, project_named,
    ProjectionOptions,
};
use typederive::model::{MethodId, Schema, TypeId, ValueType};
use typederive::server::derivation_json;
use typederive::workload::{deepest_type, figures, random_projection, random_schema, GenParams};

fn params_strategy() -> impl Strategy<Value = GenParams> {
    (
        2usize..28,   // n_types
        1usize..4,    // max_supers
        0.0f64..0.8,  // mi_fraction
        0usize..3,    // attrs_per_type
        0.3f64..1.0,  // reader_fraction
        1usize..10,   // n_gfs
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

/// Runs the indexed path, the stack algorithm and the oracle, and asserts
/// equal universes and equal applicable / not-applicable *lists*: every
/// path reports its verdicts in universe order.
fn assert_engines_agree(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<typederive::model::AttrId>,
    label: &str,
) -> Result<(), TestCaseError> {
    let stack = compute_applicability(schema, source, projection, false).unwrap();
    let indexed = compute_applicability_indexed(schema, source, projection, false).unwrap();
    let alive = applicability_fixpoint(schema, source, projection).unwrap();
    let (oracle_app, oracle_not): (Vec<MethodId>, Vec<MethodId>) = stack
        .universe
        .iter()
        .copied()
        .partition(|m| alive.contains(m));

    prop_assert_eq!(
        &stack.universe,
        &indexed.universe,
        "{}: universes diverge",
        label
    );
    prop_assert_eq!(
        &stack.applicable,
        &indexed.applicable,
        "{}: indexed applicable list diverges",
        label
    );
    prop_assert_eq!(
        &stack.applicable,
        &oracle_app,
        "{}: fixpoint applicable list diverges",
        label
    );
    prop_assert_eq!(
        &stack.not_applicable,
        &indexed.not_applicable,
        "{}: indexed not-applicable list diverges",
        label
    );
    prop_assert_eq!(
        &stack.not_applicable,
        &oracle_not,
        "{}: fixpoint not-applicable list diverges",
        label
    );
    // is_applicable agrees with the lists on every path.
    for &m in &stack.universe {
        prop_assert_eq!(stack.is_applicable(m), indexed.is_applicable(m));
        prop_assert_eq!(stack.is_applicable(m), alive.contains(&m));
    }
    Ok(())
}

/// Recording the `IsApplicable` trace sends stage 1 down the stack
/// algorithm, which discovers fig. 3's verdicts in a different order than
/// the index lists them; the derivation bytes must not notice.
#[test]
fn record_trace_leaves_the_derivation_bytes_unchanged() {
    let derive = |record_trace: bool| {
        let mut s = figures::fig3();
        let opts = ProjectionOptions {
            record_trace,
            ..ProjectionOptions::default()
        };
        let d = project_named(&mut s, "A", figures::FIG4_PROJECTION, &opts).unwrap();
        assert_eq!(d.applicability.trace.is_empty(), !record_trace);
        derivation_json(&s, &d)
    };
    assert_eq!(derive(true), derive(false));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 220, ..ProptestConfig::default() })]

    #[test]
    fn engines_agree_cold_warm_and_after_mutation(
        params in params_strategy(),
        keep in 0.0f64..1.0,
        proj_seed in any::<u64>(),
    ) {
        let mut schema = random_schema(&params);
        let source = deepest_type(&schema);
        let projection = random_projection(&schema, source, keep, proj_seed);

        // Cold: the first indexed call builds the condensation index.
        let before = schema.dispatch_cache_stats();
        assert_engines_agree(&schema, source, &projection, "cold")?;
        let after_cold = schema.dispatch_cache_stats();
        prop_assert!(
            after_cold.index_misses > before.index_misses,
            "cold run must build the index"
        );

        // Warm: the index is resident; answers must not change.
        assert_engines_agree(&schema, source, &projection, "warm")?;
        let after_warm = schema.dispatch_cache_stats();
        prop_assert!(
            after_warm.index_hits > after_cold.index_hits,
            "warm run must reuse the resident index"
        );
        prop_assert_eq!(after_warm.index_misses, after_cold.index_misses);

        // Mutate: a new attribute + reader at the source changes the
        // universe, bumps the schema generation, and must force a
        // rebuild — against which all engines still agree.
        let fresh = schema
            .add_attr(format!("fresh_{}", params.seed), ValueType::INT, source)
            .unwrap();
        schema.add_reader(fresh, source).unwrap();
        let grown: BTreeSet<_> = projection.iter().copied().chain([fresh]).collect();
        assert_engines_agree(&schema, source, &grown, "mutated")?;
        let after_mut = schema.dispatch_cache_stats();
        prop_assert!(
            after_mut.index_misses > after_warm.index_misses,
            "mutation must invalidate the index"
        );
    }
}
