//! Property: on every randomly generated schema, the full projection
//! pipeline preserves the paper's invariants I1–I5 — and surrogate
//! minimization afterwards preserves them again.
//!
//! The invariant check itself is held to an exhaustive oracle: on schemas
//! small enough to enumerate every type pair and argument tuple, it
//! reports exactly the oracle's violations, in the same order, after
//! clean derivations and after five kinds of planted faults.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use typederive::derive::invariants::{check_invariants, Violation};
use typederive::derive::{minimize_surrogates, project, ProjectionOptions};
use typederive::model::{AttrId, CallArg, MethodId, Schema, Specializer, TypeId};
use typederive::workload::{
    deepest_type, random_projection, random_schema, wide_schema, GenParams,
};

fn params_strategy() -> impl Strategy<Value = GenParams> {
    (
        2usize..20,
        1usize..4,
        0.0f64..0.7,
        1usize..3,
        0.4f64..1.0,
        1usize..8,
        1usize..3,
        1usize..3,
        0usize..4,
        0.0f64..0.6,
        any::<u64>(),
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
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn projection_preserves_all_invariants(
        params in params_strategy(),
        keep in 0.1f64..1.0,
        proj_seed in any::<u64>(),
    ) {
        let mut schema = random_schema(&params);
        let source = deepest_type(&schema);
        let projection = random_projection(&schema, source, keep, proj_seed);
        prop_assume!(!projection.is_empty());

        let d = project(&mut schema, source, &projection, &ProjectionOptions {
            check_invariants: true,
            ..Default::default()
        }).unwrap();

        let report = d.invariants.as_ref().expect("requested");
        prop_assert!(report.ok(),
            "violations on seed {}: {:#?}", params.seed, report.violations);

        // Redundant spot checks straight off the mutated schema.
        schema.validate().unwrap();
        prop_assert_eq!(schema.cumulative_attrs(d.derived), projection);
        prop_assert!(schema.is_subtype(source, d.derived));
    }

    #[test]
    fn minimization_preserves_views_and_originals(
        params in params_strategy(),
        keep in 0.1f64..0.9,
        proj_seed in any::<u64>(),
    ) {
        let mut schema = random_schema(&params);
        let source = deepest_type(&schema);
        let projection = random_projection(&schema, source, keep, proj_seed);
        prop_assume!(!projection.is_empty());
        let d = project(&mut schema, source, &projection, &ProjectionOptions::fast()).unwrap();

        // Snapshot observable facts, then minimize.
        let before = schema.clone();
        let protected: BTreeSet<TypeId> = [d.derived].into_iter().collect();
        minimize_surrogates(&mut schema, &protected).unwrap();

        schema.validate().unwrap();
        // Derived view state unchanged.
        prop_assert_eq!(schema.cumulative_attrs(d.derived), projection);
        // Every surviving type keeps its cumulative state.
        for t in schema.live_type_ids() {
            prop_assert_eq!(schema.cumulative_attrs(t), before.cumulative_attrs(t));
        }
        // Subtype relation on surviving types unchanged.
        let live: Vec<TypeId> = schema.live_type_ids().collect();
        for &x in &live {
            for &y in &live {
                prop_assert_eq!(schema.is_subtype(x, y), before.is_subtype(x, y),
                    "subtype({},{}) changed", x, y);
            }
        }
        // Dispatch for the methods' own generic functions unchanged over
        // surviving unary calls.
        for gf in schema.gf_ids() {
            if schema.gf(gf).arity != 1 { continue; }
            for &t in &live {
                let args = [typederive::model::CallArg::Object(t)];
                prop_assert_eq!(
                    schema.most_specific(gf, &args).unwrap(),
                    before.most_specific(gf, &args).unwrap(),
                    "dispatch changed for {} on {}", schema.gf(gf).name, schema.type_name(t)
                );
            }
        }
    }

    #[test]
    fn stacked_projections_compose(
        params in params_strategy(),
        seed2 in any::<u64>(),
    ) {
        // Π over Π: deriving a view of a view still preserves everything,
        // and the final view exposes exactly the nested projection.
        let mut schema = random_schema(&params);
        let source = deepest_type(&schema);
        let first = random_projection(&schema, source, 0.7, params.seed);
        prop_assume!(first.len() >= 2);
        let d1 = project(&mut schema, source, &first, &ProjectionOptions::fast()).unwrap();
        let second = random_projection(&schema, d1.derived, 0.5, seed2);
        prop_assume!(!second.is_empty());
        let d2 = project(&mut schema, d1.derived, &second, &ProjectionOptions {
            check_invariants: true,
            ..Default::default()
        }).unwrap();
        prop_assert!(d2.invariants.as_ref().unwrap().ok(),
            "stacked projection violations: {:#?}", d2.invariants);
        prop_assert_eq!(schema.cumulative_attrs(d2.derived), second);
        prop_assert!(schema.is_subtype(d1.derived, d2.derived));
        prop_assert!(schema.is_subtype(source, d2.derived));
    }
}

/// The exhaustive reference for `check_invariants`: every original type,
/// every ordered pair of them and every argument tuple of them, compared
/// directly, in the order the exact check promises. Exponential in the
/// arity, so only usable on small schemas.
fn exhaustive_check(
    before: &Schema,
    after: &Schema,
    derived: TypeId,
    projection: &BTreeSet<AttrId>,
    applicable: &[MethodId],
) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Err(e) = after.validate() {
        out.push(Violation::SchemaInvalid(e.to_string()));
        return out;
    }
    let originals: Vec<TypeId> = before.live_type_ids().collect();
    for &t in &originals {
        let (b, a) = (before.cumulative_attrs(t), after.cumulative_attrs(t));
        if a != b {
            out.push(Violation::StateChanged {
                ty: t,
                missing: b.difference(&a).copied().collect(),
                extra: a.difference(&b).copied().collect(),
            });
        }
    }
    for &sub in &originals {
        for &sup in &originals {
            let (was, is) = (before.is_subtype(sub, sup), after.is_subtype(sub, sup));
            if was != is {
                out.push(Violation::SubtypeChanged {
                    sub,
                    sup,
                    before: was,
                    after: is,
                });
            }
        }
    }
    let n = originals.len();
    for gf in before.gf_ids() {
        let arity = before.gf(gf).arity;
        if arity == 0 || n == 0 {
            continue;
        }
        // Index order: the first argument varies fastest.
        for idx in 0..n.pow(arity as u32) {
            let tuple: Vec<TypeId> = (0..arity)
                .map(|j| originals[idx / n.pow(j as u32) % n])
                .collect();
            let args: Vec<CallArg> = tuple.iter().map(|&t| CallArg::Object(t)).collect();
            match (
                before.most_specific(gf, &args),
                after.most_specific(gf, &args),
            ) {
                (Ok(b), Ok(a)) if b != a => out.push(Violation::DispatchChanged {
                    gf,
                    args: tuple,
                    before: b,
                    after: a,
                }),
                (Ok(_), Ok(_)) => {}
                (Err(e), _) | (_, Err(e)) => {
                    out.push(Violation::SchemaInvalid(format!("dispatch failed: {e}")))
                }
            }
        }
    }
    let derived_attrs = after.cumulative_attrs(derived);
    if &derived_attrs != projection {
        out.push(Violation::DerivedStateWrong {
            derived,
            missing: projection.difference(&derived_attrs).copied().collect(),
            extra: derived_attrs.difference(projection).copied().collect(),
        });
    }
    let actual: BTreeSet<MethodId> = after
        .methods_applicable_to_type(derived)
        .into_iter()
        .collect();
    let inferred: BTreeSet<MethodId> = applicable.iter().copied().collect();
    if actual != inferred {
        out.push(Violation::DerivedBehaviorWrong {
            derived,
            missing: inferred.difference(&actual).copied().collect(),
            extra: actual.difference(&inferred).copied().collect(),
        });
    }
    out
}

/// Plants one fault of the given kind into a derived schema: 0 plants
/// none; 1 retargets a specializer; 2 re-adds a super edge at another
/// precedence; 3 moves an attribute; 4 adds a super edge; 5 removes one.
/// Up to eight draws are tried for one that keeps the schema valid, so
/// most faults reach the I1–I4 checks instead of stopping at I5.
fn plant_fault(after: &mut Schema, kind: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for attempt in 1..=8 {
        let mut faulty = after.clone();
        let live: Vec<TypeId> = faulty.live_type_ids().collect();
        let edges: Vec<(TypeId, TypeId, i32)> = live
            .iter()
            .flat_map(|&t| {
                faulty
                    .type_(t)
                    .supers()
                    .iter()
                    .map(move |l| (t, l.target, l.prec))
            })
            .collect();
        let any_type = |rng: &mut SmallRng| live[rng.gen_range(0..live.len())];
        match kind {
            1 => {
                let sites: Vec<(MethodId, usize)> = faulty
                    .method_ids()
                    .flat_map(|m| {
                        let specs = &faulty.method(m).specializers;
                        (0..specs.len())
                            .filter(|&i| specs[i].as_type().is_some())
                            .map(move |i| (m, i))
                    })
                    .collect();
                if sites.is_empty() {
                    return;
                }
                let (m, i) = sites[rng.gen_range(0..sites.len())];
                let to = any_type(&mut rng);
                faulty.method_mut(m).specializers[i] = Specializer::Type(to);
            }
            2 | 5 if edges.is_empty() => return,
            2 => {
                let (sub, sup, prec) = edges[rng.gen_range(0..edges.len())];
                faulty.remove_super_edge(sub, sup);
                let shift = [-2, -1, 1, 2][rng.gen_range(0..4)];
                faulty.add_super_with_prec(sub, sup, prec + shift).unwrap();
            }
            3 => {
                let attrs: Vec<AttrId> = faulty.attr_ids().collect();
                let to = any_type(&mut rng);
                let _ = faulty.move_attr(attrs[rng.gen_range(0..attrs.len())], to);
            }
            4 => {
                let (sub, sup) = (any_type(&mut rng), any_type(&mut rng));
                let _ = faulty.add_super_with_prec(sub, sup, rng.gen_range(-1..4));
            }
            5 => {
                let (sub, sup, _) = edges[rng.gen_range(0..edges.len())];
                faulty.remove_super_edge(sub, sup);
            }
            _ => return,
        }
        if faulty.validate().is_ok() || attempt == 8 {
            *after = faulty;
            return;
        }
    }
}

/// Schemas the oracle can enumerate: at most 13 types and arity 3.
fn small_params_strategy() -> impl Strategy<Value = GenParams> {
    (
        2usize..14,
        1usize..4,
        0.0f64..0.8,
        1usize..5,
        1usize..5,
        1usize..4,
        any::<u64>(),
    )
        .prop_map(
            |(n_types, max_supers, mi_fraction, n_gfs, methods_per_gf, max_arity, seed)| {
                GenParams {
                    n_types,
                    max_supers,
                    mi_fraction,
                    attrs_per_type: 1,
                    reader_fraction: 0.7,
                    n_gfs,
                    methods_per_gf,
                    max_arity,
                    calls_per_body: 2,
                    assign_fraction: 0.3,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn exact_check_matches_the_exhaustive_oracle(
        params in small_params_strategy(),
        keep in 0.1f64..1.0,
        proj_seed in any::<u64>(),
        fault in 0usize..6,
        fault_seed in any::<u64>(),
        stacked in any::<bool>(),
    ) {
        let mut before = random_schema(&params);
        let source = deepest_type(&before);
        if stacked {
            // Derive over a schema that already has surrogates.
            let first = random_projection(&before, source, 0.7, !proj_seed);
            project(&mut before, source, &first, &ProjectionOptions::fast()).unwrap();
        }
        let projection = random_projection(&before, source, keep, proj_seed);
        prop_assume!(!projection.is_empty());
        let mut after = before.clone();
        let d = project(&mut after, source, &projection, &ProjectionOptions::fast()).unwrap();
        plant_fault(&mut after, fault, fault_seed);

        let exact = check_invariants(&before, &after, d.derived, &projection, d.applicable());
        let oracle = exhaustive_check(&before, &after, d.derived, &projection, d.applicable());
        prop_assert_eq!(&exact.violations, &oracle, "seed {} fault {}", params.seed, fault);
        if fault == 0 {
            // A clean derivation differs in no dispatch fact.
            prop_assert_eq!(exact.dispatch_tuples_checked, 0);
        }
    }
}

/// A 500-type `wide_schema` after a clean derivation in its first
/// cluster. It has 919 generic functions; a check that samples argument
/// tuples or type pairs to a fixed budget skips most of them at this size.
fn wide_after_clean_derivation() -> (Schema, Schema, TypeId, BTreeSet<AttrId>, Vec<MethodId>) {
    let before = wide_schema(500, 7);
    let mut after = before.clone();
    let source = after.type_id("W7").unwrap();
    let projection: BTreeSet<AttrId> = [after.attr_id("w0_a0").unwrap()].into_iter().collect();
    let d = project(&mut after, source, &projection, &ProjectionOptions::fast()).unwrap();
    let applicable = d.applicable().to_vec();
    (before, after, d.derived, projection, applicable)
}

#[test]
fn wide_schema_subtype_fault_is_reported_exactly() {
    let (before, mut after, derived, projection, applicable) = wide_after_clean_derivation();
    // Split W294 by hand into a surrogate holding its state and readers,
    // then wire its only subtype, the cluster leaf W295, to the surrogate
    // instead. Every cumulative state and every dispatch winner survive;
    // only `W295 <= W294` is lost.
    let (x, y) = (
        after.type_id("W295").unwrap(),
        after.type_id("W294").unwrap(),
    );
    let hat = after.add_surrogate("W294_hat", y).unwrap();
    for link in before.type_(y).supers() {
        after
            .add_super_with_prec(hat, link.target, link.prec)
            .unwrap();
    }
    for a in before.type_(y).local_attrs.clone() {
        after.move_attr(a, hat).unwrap();
    }
    for m in before.method_ids() {
        if before.method(m).specializers == [Specializer::Type(y)] {
            after.method_mut(m).specializers = vec![Specializer::Type(hat)];
        }
    }
    after.add_super_highest(y, hat).unwrap();
    let prec = before
        .type_(x)
        .supers()
        .iter()
        .find(|l| l.target == y)
        .unwrap()
        .prec;
    after.remove_super_edge(x, y);
    after.add_super_with_prec(x, hat, prec).unwrap();

    let report = check_invariants(&before, &after, derived, &projection, &applicable);
    assert_eq!(
        report.violations,
        vec![Violation::SubtypeChanged {
            sub: x,
            sup: y,
            before: true,
            after: false,
        }]
    );
    assert_eq!(report.dispatch_tuples_checked, 0);
}

#[test]
fn wide_schema_retarget_fault_is_reported_exactly() {
    let (before, mut after, derived, projection, applicable) = wide_after_clean_derivation();
    // Retarget W202's reader of w202_a0 to W203, its only direct subtype:
    // W202 itself loses the method and every other type keeps its winner.
    let (t, below) = (
        after.type_id("W202").unwrap(),
        after.type_id("W203").unwrap(),
    );
    let gf = after.gf_id("get_w202_a0").unwrap();
    let m = after.gf(gf).methods[0];
    after.method_mut(m).specializers = vec![Specializer::Type(below)];

    let report = check_invariants(&before, &after, derived, &projection, &applicable);
    assert_eq!(
        report.violations,
        vec![Violation::DispatchChanged {
            gf,
            args: vec![t],
            before: Some(m),
            after: None,
        }]
    );
}
