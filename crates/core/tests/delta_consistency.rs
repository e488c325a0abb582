//! Delta-invalidation equivalence suite.
//!
//! The dispatch cache no longer flushes wholesale on mutation: each edit
//! emits a `SchemaDelta` and only the dependency-closed dirty set is
//! evicted. That optimization is only sound if it is *invisible* — a
//! schema that kept its surviving warm entries across a mutation stream
//! must answer every derivation question byte-identically to one that
//! rebuilt from scratch.
//!
//! These tests replay seeded random mutation streams
//! ([`td_workload::apply_random_mutations`]) into two copies of a warm
//! random schema. The `delta` copy keeps whatever the closure let
//! survive; the `rebuilt` copy is forced through `clear_dispatch_cache`
//! (the old all-or-nothing path). Then every report — applicability
//! partitions from the indexed path, the stack algorithm and the
//! fixpoint oracle, full lint text, explain proofs, and projection
//! summaries — must match byte for byte, while the cache counters prove
//! the delta copy genuinely kept entries warm.
//!
//! The same closure decides what [`Schema::carry_warm_from`] keeps when a
//! registered text is re-parsed after an edit, so the last test carries a
//! warm parse into the parse of an appended-to text and compares it with
//! a cold parse of the same text.

use std::collections::BTreeSet;

use td_core::{
    applicability_fixpoint, compute_applicability, compute_applicability_indexed, explain, lint,
    project, ProjectionOptions,
};
use td_model::{
    diff_schemas, parse_schema, schema_to_text, AttrId, CallArg, MethodId, Schema, TypeId,
};
use td_workload::{
    apply_random_mutations, deepest_type, random_projection, random_schema, GenParams,
};

/// Sample views: the deepest type plus every fifth live type, each with
/// a seeded ~60% projection.
fn sample_views(s: &Schema, seed: u64) -> Vec<(TypeId, BTreeSet<AttrId>)> {
    let mut views = Vec::new();
    let deep = deepest_type(s);
    views.push((deep, random_projection(s, deep, 0.6, seed)));
    for (i, t) in s.live_type_ids().enumerate() {
        if i % 5 == 0 && t != deep {
            views.push((t, random_projection(s, t, 0.6, seed ^ (i as u64))));
        }
    }
    views.retain(|(_, proj)| !proj.is_empty());
    views
}

/// Everything derivable about one view, rendered to stable text. Lists
/// the indexed verdicts (exercises the condensation index cache) beside
/// the stack algorithm's and the fixpoint oracle's, then lint, an explain
/// proof per applicable method, and a projection (on a throwaway fork,
/// since `project` grows the schema).
fn view_report(s: &Schema, source: TypeId, projection: &BTreeSet<AttrId>) -> String {
    let mut out = String::new();
    let indexed =
        compute_applicability_indexed(s, source, projection, false).expect("indexed applicability");
    let stack = compute_applicability(s, source, projection, false).expect("stack applicability");
    let alive = applicability_fixpoint(s, source, projection).expect("fixpoint applicability");
    let labels = |ms: &[MethodId]| -> String {
        ms.iter()
            .map(|&m| format!(" {}", s.method_label(m)))
            .collect()
    };
    for (name, app) in [("indexed", &indexed), ("stack", &stack)] {
        out.push_str(&format!(
            "{name} applicable:{}\nnot:{}\n",
            labels(&app.applicable),
            labels(&app.not_applicable)
        ));
    }
    let oracle: Vec<MethodId> = alive.into_iter().collect();
    out.push_str(&format!("oracle applicable:{}\n", labels(&oracle)));
    out.push_str(&lint(s, Some((source, projection))).render_text());
    for &m in indexed.applicable.iter().take(3) {
        if let Ok(proof) = explain(s, source, projection, m) {
            out.push_str(&proof.render(s));
        }
    }
    let mut fork = s.clone();
    match project(&mut fork, source, projection, &ProjectionOptions::default()) {
        Ok(d) => {
            out.push_str(&d.summary(&fork));
            out.push('\n');
        }
        Err(e) => {
            out.push_str(&format!("project error: {e}\n"));
        }
    }
    out
}

fn full_report(s: &Schema, seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&lint(s, None).render_text());
    for (source, projection) in sample_views(s, seed) {
        out.push_str(&format!("== view {} ==\n", s.type_name(source)));
        out.push_str(&view_report(s, source, &projection));
    }
    out
}

/// Warm every cache the report path touches, so the mutation stream has
/// something real to invalidate (or keep).
fn warm(s: &Schema, seed: u64) {
    for (source, projection) in sample_views(s, seed) {
        let _ = compute_applicability_indexed(s, source, &projection, false);
        let _ = lint(s, Some((source, &projection)));
    }
    let _ = lint(s, None);
}

fn replay_and_compare(schema_seed: u64, stream_seed: u64, steps: usize) {
    let params = GenParams {
        seed: schema_seed,
        ..GenParams::default()
    };
    let mut delta = random_schema(&params);
    warm(&delta, stream_seed);

    let log = apply_random_mutations(&mut delta, steps, stream_seed);

    // The rebuilt twin: same post-mutation schema, but every cache
    // dropped — the pre-delta invalidation behavior.
    let rebuilt = delta.clone();
    rebuilt.clear_dispatch_cache();

    let delta_report = full_report(&delta, stream_seed);
    let rebuilt_report = full_report(&rebuilt, stream_seed);
    assert_eq!(
        delta_report,
        rebuilt_report,
        "delta-invalidated caches diverged from a from-scratch rebuild\n\
         schema seed {schema_seed}, stream seed {stream_seed}\nstream:\n{}",
        log.join("\n")
    );
}

#[test]
fn mutation_streams_cannot_distinguish_delta_caches_from_a_rebuild() {
    for (schema_seed, stream_seed) in [(1, 101), (2, 202), (3, 303), (0xD0_0D, 404)] {
        replay_and_compare(schema_seed, stream_seed, 16);
    }
}

#[test]
fn long_stream_on_one_schema() {
    replay_and_compare(42, 4242, 48);
}

#[test]
fn survivors_outnumber_evictions_for_leaf_heavy_streams() {
    // Counters must prove entries actually survive: a warm schema hit
    // by additive edits keeps most of its cache.
    let params = GenParams {
        seed: 9,
        ..GenParams::default()
    };
    let s = random_schema(&params);
    warm(&s, 9);
    let mut s = s;
    apply_random_mutations(&mut s, 16, 909);
    // Force the lazy closure to run so the counters are current.
    let _ = full_report(&s, 9);
    let stats = s.dispatch_cache_stats();
    assert_eq!(
        stats.full_flushes, 0,
        "additive mutation streams must never trigger a full flush: {stats}"
    );
    assert!(
        stats.delta_survivals > 0,
        "a warm schema under additive edits must keep some entries: {stats}"
    );
    assert!(
        stats.delta_survivals >= stats.delta_evictions,
        "leaf-heavy streams should keep more than they evict: {stats}"
    );
}

/// Declarations that keep every existing id in place when appended to a
/// schema's text: three new leaf types with an attribute each, and new
/// methods of existing result-less generic functions, specialized at a new
/// type or at existing ones, whose bodies call existing generic functions.
/// (An appended `accessors` or `reader` line would not keep ids: the
/// parser builds every accessor method before the first general method.)
fn id_stable_edit(s: &Schema, seed: u64) -> String {
    let mut state = seed;
    let mut pick = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let types: Vec<TypeId> = s.live_type_ids().collect();
    let mut out = String::new();
    for i in 0..3 {
        let sup = s.type_name(types[pick(types.len())]);
        out.push_str(&format!("type Edit{i} : {sup} {{ edit{i}_x: int }}\n"));
    }
    let gfs: Vec<_> = s.gf_ids().collect();
    let general: Vec<_> = gfs
        .iter()
        .copied()
        .filter(|&g| s.gf(g).result.is_none() && !s.gf_name(g).starts_with("get_"))
        .collect();
    let mut signatures = std::collections::HashSet::new();
    for j in 0..6 {
        let g = general[pick(general.len())];
        let arity = s.gf(g).arity;
        let specs: Vec<String> = (0..arity)
            .map(|_| match j % 2 {
                0 => format!("Edit{}", j / 2),
                _ => s.type_name(types[pick(types.len())]).to_string(),
            })
            .collect();
        let taken = s.gf(g).methods.iter().any(|&m| {
            let have = s.method(m).specializers.iter();
            have.map(|sp| sp.as_type().map(|t| s.type_name(t)))
                .eq(specs.iter().map(|n| Some(n.as_str())))
        });
        if taken || !signatures.insert((g, specs.clone())) {
            continue;
        }
        let callee = gfs[pick(gfs.len())];
        let args = vec!["$0"; s.gf(callee).arity].join(", ");
        out.push_str(&format!(
            "method edit_m{j} = {}({}) {{\n    {}({args});\n}}\n",
            s.gf_name(g),
            specs.join(", "),
            s.gf_name(callee)
        ));
    }
    out
}

/// Each generic function's most specific method for every live type in
/// every argument position, rendered by label: the ranked dispatch tables
/// a carry may keep.
fn dispatch_report(s: &Schema) -> String {
    let mut out = String::new();
    for g in s.gf_ids() {
        for t in s.live_type_ids() {
            let args = vec![CallArg::Object(t); s.gf(g).arity];
            let winner = s
                .most_specific(g, &args)
                .map(|m| m.map(|m| s.method_label(m)));
            out.push_str(&format!(
                "{} {}: {winner:?}\n",
                s.gf_name(g),
                s.type_name(t)
            ));
        }
    }
    out
}

#[test]
fn carried_caches_answer_like_a_cold_parse() {
    let seeds = [11, 12, 13, 14, 15, 16];
    let mut carried = 0;
    for seed in seeds {
        let params = GenParams {
            seed,
            ..GenParams::default()
        };
        let text = schema_to_text(&random_schema(&params));
        let old = parse_schema(&text).expect("printed schema re-parses");
        warm(&old, seed);
        old.warm_caches();
        dispatch_report(&old);
        let edited = format!("{text}{}", id_stable_edit(&old, seed));
        let new = parse_schema(&edited).expect("edited schema parses");
        let diff = diff_schemas(&old, &new);
        assert!(diff.ids_stable, "seed {seed}: {}", diff.summary());
        let report = new.carry_warm_from(&old, &diff);
        carried += usize::from(report.total() > 0);
        let cold = parse_schema(&edited).unwrap();
        let answers = |s: &Schema| full_report(s, seed) + &dispatch_report(s);
        assert_eq!(
            answers(&new),
            answers(&cold),
            "carried caches diverged from a cold parse\nseed {seed}, carried {report:?}\n\
             appended:\n{}",
            &edited[text.len()..]
        );
    }
    assert!(
        carried + 1 >= seeds.len(),
        "carry fired on {carried} of {} seeds",
        seeds.len()
    );
}

/// Two appended methods share the label `dup` (as every method of one
/// generic function does when written without a label), at the deepest
/// type and at a type not above it. The edit changes only the first
/// one's body, to a call no method answers, which kills it under every
/// projection: the carry must treat both methods of the label as changed,
/// or the deepest type's index is carried stale.
#[test]
fn carried_caches_see_every_method_of_a_shared_label() {
    for seed in [11, 12, 13, 14, 15, 16] {
        let params = GenParams {
            seed,
            ..GenParams::default()
        };
        let text = schema_to_text(&random_schema(&params));
        let printed = parse_schema(&text).expect("printed schema re-parses");
        let first = deepest_type(&printed);
        let above = printed.ancestor_set(first);
        let second = printed
            .live_type_ids()
            .find(|&t| !above.contains(t))
            .expect("a type beside the deepest one");
        let (a, b) = (printed.type_name(first), printed.type_name(second));
        let head = format!("{text}gf dup_gf(1)\ngf dup_dead(1)\n");
        let tail = format!("method dup = dup_gf({b}) {{\n}}\n");
        let old_text = format!("{head}method dup = dup_gf({a}) {{\n}}\n{tail}");
        let new_text = format!("{head}method dup = dup_gf({a}) {{\n    dup_dead($0);\n}}\n{tail}");
        let old = parse_schema(&old_text).expect("old text parses");
        warm(&old, seed);
        old.warm_caches();
        let new = parse_schema(&new_text).expect("new text parses");
        let diff = diff_schemas(&old, &new);
        assert!(diff.ids_stable, "seed {seed}: {}", diff.summary());
        assert_eq!(diff.changed_methods, ["dup"], "seed {seed}");
        let report = new.carry_warm_from(&old, &diff);
        assert!(report.indexes > 0, "seed {seed}: {report:?}");
        let cold = parse_schema(&new_text).unwrap();
        assert_eq!(
            full_report(&new, seed),
            full_report(&cold, seed),
            "seed {seed}: a carried index missed the edit to dup({a})"
        );
    }
}
