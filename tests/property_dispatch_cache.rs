//! Property: the dispatch acceleration layer is invisible.
//!
//! Every cached entry point of `td_model` (`cpl`, `applicable_methods`,
//! `rank_applicable`, `most_specific`) must agree with its `_uncached`
//! ground-truth twin on randomized schemas — when the cache is cold, when
//! it is warm, and after mutations (a full projection derivation) that
//! invalidate it via the generation counter. The one-pass
//! `methods_applicable_to_type` scan, which every index build starts
//! from, is held to its per-method filter the same way, and the
//! hierarchy queries it and the cache's staleness closure read are held
//! to `is_subtype`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use typederive::derive::{minimize_surrogates, project, ProjectionOptions};
use typederive::driver::{BatchDeriver, BatchRequest};
use typederive::model::{CallArg, MethodId, Schema, TypeId};
use typederive::workload::{
    batch_requests, deepest_type, random_projection, random_schema, GenParams,
};

fn params_strategy() -> impl Strategy<Value = GenParams> {
    (
        2usize..16,
        1usize..4,
        0.0f64..0.7,
        1usize..3,
        0.4f64..1.0,
        1usize..6,
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

/// Sweeps every live type's CPL and a deterministic sample of call tuples
/// for every generic function, asserting the cached and uncached answers
/// coincide. Each sweep also warms the cache for the next one.
fn assert_cache_transparent(schema: &Schema) -> Result<(), TestCaseError> {
    let types: Vec<TypeId> = schema.live_type_ids().collect();
    for &t in &types {
        prop_assert_eq!(schema.cpl(t).ok(), schema.cpl_uncached(t).ok());
    }
    for gf in schema.gf_ids() {
        let arity = schema.gf(gf).arity;
        if arity == 0 || types.is_empty() {
            continue;
        }
        let total = types.len().checked_pow(arity as u32).unwrap_or(usize::MAX);
        let stride = total.div_ceil(64).max(1);
        let mut idx = 0usize;
        while idx < total {
            let mut rem = idx;
            let mut args = Vec::with_capacity(arity);
            for _ in 0..arity {
                args.push(CallArg::Object(types[rem % types.len()]));
                rem /= types.len();
            }
            prop_assert_eq!(
                schema.applicable_methods(gf, &args),
                schema.applicable_methods_uncached(gf, &args),
                "applicable diverged for {} {:?}",
                schema.gf(gf).name,
                args
            );
            prop_assert_eq!(
                schema.rank_applicable(gf, &args).ok(),
                schema.rank_applicable_uncached(gf, &args).ok(),
                "ranking diverged for {} {:?}",
                schema.gf(gf).name,
                args
            );
            prop_assert_eq!(
                schema.most_specific(gf, &args).ok(),
                schema.most_specific_uncached(gf, &args).ok(),
                "winner diverged for {} {:?}",
                schema.gf(gf).name,
                args
            );
            idx += stride;
        }
    }
    Ok(())
}

/// The one-pass scan against `method_applicable_to_type` per method, for
/// every type id (retired ones included), as lists in method-id order.
fn assert_scan_matches_filter(schema: &Schema) -> Result<(), TestCaseError> {
    for t in (0..schema.n_types()).map(TypeId::from_index) {
        let filtered: Vec<MethodId> = schema
            .method_ids()
            .filter(|&m| schema.method_applicable_to_type(m, t))
            .collect();
        prop_assert_eq!(
            schema.methods_applicable_to_type(t),
            filtered,
            "scan diverged for type {}",
            t
        );
    }
    Ok(())
}

/// The hierarchy queries against `is_subtype`, for every type id
/// (retired ones included): `ancestor_set(t)` is every `u` with
/// `t <= u`; `descendant_set({t})` is `t` plus every live `x <= t`; a
/// seed set picked by `pick` gives the union of its seeds' sets; and
/// `descendants(t)` ascends.
fn assert_queries_match_is_subtype(schema: &Schema, pick: u64) -> Result<(), TestCaseError> {
    let all: Vec<TypeId> = (0..schema.n_types()).map(TypeId::from_index).collect();
    let below = |t: TypeId| -> BTreeSet<TypeId> {
        let live = all.iter().copied().filter(|&x| schema.is_live(x));
        live.filter(|&x| schema.is_subtype(x, t))
            .chain([t])
            .collect()
    };
    let lists = schema.subtype_lists();
    for &t in &all {
        let above: BTreeSet<TypeId> = all
            .iter()
            .copied()
            .filter(|&u| schema.is_subtype(t, u))
            .collect();
        prop_assert_eq!(
            schema.ancestor_set(t).iter().collect::<BTreeSet<_>>(),
            above
        );
        let down: Vec<TypeId> = lists.descendant_set([t]).iter().collect();
        prop_assert_eq!(down.iter().copied().collect::<BTreeSet<_>>(), below(t));
        let descendants = schema.descendants(t);
        prop_assert!(
            descendants.windows(2).all(|w| w[0] < w[1]),
            "{:?}",
            descendants
        );
    }
    if !all.is_empty() {
        let seeds: Vec<TypeId> = (0..3)
            .map(|k| all[(pick >> (k * 16)) as usize % all.len()])
            .collect();
        let union: BTreeSet<TypeId> = seeds.iter().flat_map(|&s| below(s)).collect();
        let set = schema.descendant_set(seeds.iter().copied());
        prop_assert_eq!(set.iter().collect::<BTreeSet<_>>(), union);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn hierarchy_queries_match_is_subtype(
        params in params_strategy(),
        depth in 1usize..4,
        keep in 0.3f64..1.0,
        proj_seed in any::<u64>(),
    ) {
        let mut schema = random_schema(&params);
        assert_queries_match_is_subtype(&schema, proj_seed)?;

        // The schemas of the scan test below: stacked projections, then
        // minimization (retired slots), then a type with no CPL.
        let mut source = deepest_type(&schema);
        let mut views = BTreeSet::new();
        for k in 0..depth {
            let projection =
                random_projection(&schema, source, keep, proj_seed.wrapping_add(k as u64));
            if projection.is_empty() {
                break;
            }
            let d = project(&mut schema, source, &projection, &ProjectionOptions::fast())
                .unwrap();
            views.insert(d.derived);
            source = d.derived;
            assert_queries_match_is_subtype(&schema, proj_seed.rotate_left(k as u32 + 1))?;
        }
        minimize_surrogates(&mut schema, &views).unwrap();
        assert_queries_match_is_subtype(&schema, !proj_seed)?;

        let a = deepest_type(&schema);
        let x = schema.add_type("Inc_X", &[]).unwrap();
        let p = schema.add_type("Inc_P", &[a, x]).unwrap();
        let q = schema.add_type("Inc_Q", &[x, a]).unwrap();
        schema.add_type("Inc_R", &[p, q]).unwrap();
        assert_queries_match_is_subtype(&schema, proj_seed ^ 0x5EED)?;
    }

    #[test]
    fn one_pass_applicable_scan_matches_the_per_method_filter(
        params in params_strategy(),
        depth in 1usize..4,
        keep in 0.3f64..1.0,
        proj_seed in any::<u64>(),
    ) {
        let mut schema = random_schema(&params);
        assert_scan_matches_filter(&schema)?;

        // Stacked projections: each splits its source and puts
        // surrogates above it, and methods move onto the surrogates.
        let mut source = deepest_type(&schema);
        let mut views = BTreeSet::new();
        for k in 0..depth {
            let projection =
                random_projection(&schema, source, keep, proj_seed.wrapping_add(k as u64));
            if projection.is_empty() {
                break;
            }
            let d = project(&mut schema, source, &projection, &ProjectionOptions::fast())
                .unwrap();
            views.insert(d.derived);
            source = d.derived;
            assert_scan_matches_filter(&schema)?;
        }

        // Minimization retires surrogates; their ids stay allocated.
        minimize_surrogates(&mut schema, &views).unwrap();
        assert_scan_matches_filter(&schema)?;

        // `R` below `P: (a, X)` and `Q: (X, a)` has no consistent
        // precedence, hence no CPL; the scans still answer for it.
        let a = deepest_type(&schema);
        let x = schema.add_type("Inc_X", &[]).unwrap();
        let p = schema.add_type("Inc_P", &[a, x]).unwrap();
        let q = schema.add_type("Inc_Q", &[x, a]).unwrap();
        let r = schema.add_type("Inc_R", &[p, q]).unwrap();
        prop_assert!(schema.cpl(r).is_err());
        assert_scan_matches_filter(&schema)?;
    }

    #[test]
    fn cached_dispatch_equals_uncached_cold_and_warm(params in params_strategy()) {
        let schema = random_schema(&params);
        // First sweep runs cold and populates the cache; the second is
        // served warm and must still match the ground truth.
        assert_cache_transparent(&schema)?;
        let after_first = schema.dispatch_cache_stats();
        prop_assert!(after_first.dispatch_entries > 0);
        assert_cache_transparent(&schema)?;
        let after_second = schema.dispatch_cache_stats();
        prop_assert!(after_second.dispatch_hits > after_first.dispatch_hits,
            "second sweep should hit the warm cache: {} vs {}",
            after_second.dispatch_hits, after_first.dispatch_hits);
    }

    #[test]
    fn mutation_keeps_cache_transparent(
        params in params_strategy(),
        keep in 0.1f64..1.0,
        proj_seed in any::<u64>(),
    ) {
        let mut schema = random_schema(&params);
        // Warm the cache on the pre-derivation schema.
        assert_cache_transparent(&schema)?;
        let warm_gen = schema.generation();

        // A projection derivation is the heaviest mutation we have: it adds
        // surrogates, rewires supertype edges and rewrites methods.
        let source = deepest_type(&schema);
        let projection = random_projection(&schema, source, keep, proj_seed);
        prop_assume!(!projection.is_empty());
        project(&mut schema, source, &projection, &ProjectionOptions::fast()).unwrap();

        prop_assert!(schema.generation() > warm_gen,
            "derivation must bump the cache generation");
        // Stale entries must not leak into post-mutation answers.
        assert_cache_transparent(&schema)?;
    }

    #[test]
    fn shared_snapshot_never_serves_stale_entries_across_a_batch(
        params in params_strategy(),
        keep in 0.1f64..1.0,
        batch_seed in any::<u64>(),
    ) {
        // The batch engine's sharing model concentrates the staleness
        // hazard: N workers read one Mutex-backed cache through a shared
        // snapshot, every fork inherits those warm entries, and every
        // derivation then mutates its fork. Neither direction may leak —
        // forks must not serve pre-mutation answers, and the snapshot must
        // not absorb any fork's post-mutation state.
        let schema = random_schema(&params);
        let requests: Vec<BatchRequest> = batch_requests(&schema, 8, keep, batch_seed)
            .into_iter()
            .map(BatchRequest::from)
            .collect();
        prop_assume!(!requests.is_empty());

        let deriver = BatchDeriver::new(&schema)
            .options(ProjectionOptions::fast())
            .threads(4);
        deriver.warm();
        let warm_stats = deriver.snapshot().dispatch_cache_stats();
        prop_assert!(warm_stats.cpl_entries > 0, "warm() must populate the snapshot");
        let outcome = deriver.run(&requests);

        // Every successful fork mutated its own copy; its cached answers
        // must match ground truth despite the inherited warm entries.
        for r in &outcome.results {
            if let Some(fork) = &r.schema {
                prop_assert!(fork.generation() > deriver.snapshot().generation(),
                    "request #{} derived without bumping its fork's generation", r.index);
                assert_cache_transparent(fork)?;
            }
        }
        // The shared snapshot saw only reads: same generation, still
        // transparent, and a rerun reproduces the outcome exactly.
        prop_assert_eq!(deriver.snapshot().generation(),
            BatchDeriver::new(&schema).snapshot().generation());
        assert_cache_transparent(deriver.snapshot())?;
        prop_assert_eq!(outcome.render(&schema),
            deriver.run(&requests).render(&schema));
    }
}
