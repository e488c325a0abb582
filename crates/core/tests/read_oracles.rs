//! Differential oracles for the reads that walk only a source's
//! ancestors.
//!
//! Four reads once swept the whole schema: §6.4's `X` as the live members
//! of `ancestor_set(source)` inside `descendant_set(owners)` (subtype
//! lists of every type slot), `attr_available_at` and `cumulative_attrs`
//! through `ancestors_inclusive`, and `explain`'s verdicts through the
//! greatest-fixpoint oracle over every method of the schema. Those
//! definitions are kept here as oracles and compared with the library
//! for every live type as source, with a seeded projection, on
//! multiple-inheritance random schemas, after one to three stacked
//! projections (surrogates), after `minimize_surrogates` (retired slots)
//! and on the paper's Figures 1 and 3. `explain` must build the same
//! proof, render the same text and return the same error for every
//! method of the schema. No parser or snapshot loader admits a supertype
//! cycle, so the cycle case is a unit test of the walks in td-model's
//! `hierarchy.rs`.

use std::collections::{BTreeSet, HashSet};

use td_core::{
    applicability_fixpoint, body_rewrite::compute_x, explain, minimize_surrogates, project,
    Explanation, ProjectionOptions,
};
use td_model::{AttrId, MethodId, Schema, TypeId};
use td_workload::{figures, random_projection, random_schema, GenParams};

/// `X` as it was read before: the live ancestors of `source` that lie
/// below an owner of a projected attribute, through subtype lists built
/// over every type slot.
fn x_oracle(s: &Schema, source: TypeId, projection: &BTreeSet<AttrId>) -> BTreeSet<TypeId> {
    let below_owner = s.descendant_set(projection.iter().map(|&a| s.attr(a).owner));
    s.ancestor_set(source)
        .iter()
        .filter(|&u| s.is_live(u) && below_owner.contains(u))
        .collect()
}

fn cumulative_oracle(s: &Schema, t: TypeId) -> BTreeSet<AttrId> {
    let mut out = BTreeSet::new();
    for ty in s.ancestors_inclusive(t) {
        out.extend(s.type_(ty).local_attrs.iter().copied());
    }
    out
}

fn available_oracle(s: &Schema, attr: AttrId, t: TypeId) -> bool {
    s.ancestors_inclusive(t)
        .iter()
        .any(|&ty| s.type_(ty).local_attrs.contains(&attr))
}

/// `explain` as it was written over the fixpoint oracle.
fn explain_oracle(
    s: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    method: MethodId,
) -> td_core::Result<Explanation> {
    let alive = applicability_fixpoint(s, source, projection)?;
    explain_oracle_rec(s, source, method, &alive, &mut HashSet::new())
}

fn explain_oracle_rec(
    s: &Schema,
    source: TypeId,
    method: MethodId,
    alive: &BTreeSet<MethodId>,
    visiting: &mut HashSet<MethodId>,
) -> td_core::Result<Explanation> {
    if alive.contains(&method) {
        return Ok(Explanation::Applicable { method });
    }
    if !s.method_applicable_to_type(method, source) {
        return Ok(Explanation::NotInUniverse { method, source });
    }
    if let Some(attr) = s.method(method).kind.accessed_attr() {
        return Ok(Explanation::AccessorOutsideProjection { method, attr });
    }
    if !visiting.insert(method) {
        return Ok(Explanation::ExplainedAbove { method });
    }
    let mut failing = Vec::new();
    let mut scratch = Vec::new();
    for site in s.call_sites(method, source)? {
        if site.source_positions.is_empty() {
            continue;
        }
        let (candidates, _) = s.site_candidates(source, &site, &mut scratch);
        if !candidates.iter().any(|c| alive.contains(c)) {
            failing.push((site.gf, candidates));
        }
    }
    let chosen = failing
        .iter()
        .position(|(_, cands)| cands.iter().any(|c| !visiting.contains(c)))
        .unwrap_or(0);
    let (gf, candidates) = failing.swap_remove(chosen);
    let mut children = Vec::new();
    for c in candidates {
        children.push(explain_oracle_rec(s, source, c, alive, visiting)?);
    }
    visiting.remove(&method);
    Ok(Explanation::CallUnsatisfied {
        method,
        gf,
        candidates: children,
    })
}

/// Compares every rewritten read with its oracle, with every live type as
/// source. Returns how many explanations were compared.
fn check_reads(s: &Schema, seed: u64, case: &str) -> usize {
    let mut explained = 0;
    let methods: Vec<MethodId> = s.method_ids().collect();
    for t in s.live_type_ids() {
        let cumulative = s.cumulative_attrs(t);
        assert_eq!(
            cumulative,
            cumulative_oracle(s, t),
            "{case}: cumulative {t}"
        );
        for a in s.attr_ids() {
            assert_eq!(
                s.attr_available_at(a, t),
                available_oracle(s, a, t),
                "{case}: {a} available at {t}"
            );
            // `cumulative_attrs` is exactly the attributes available there.
            assert_eq!(s.attr_available_at(a, t), cumulative.contains(&a));
        }
        let projection = random_projection(s, t, 0.5, seed ^ (t.index() as u64) << 8);
        assert_eq!(
            compute_x(s, t, &projection),
            x_oracle(s, t, &projection),
            "{case}: X of {t} over {projection:?}"
        );
        for &m in &methods {
            let got = explain(s, t, &projection, m);
            let want = explain_oracle(s, t, &projection, m);
            assert_eq!(got, want, "{case}: explain {m} over {t}");
            if let (Ok(got), Ok(want)) = (got, want) {
                assert_eq!(got.render(s), want.render(s));
            }
            explained += 1;
        }
    }
    explained
}

fn mi_params(seed: u64) -> GenParams {
    GenParams {
        n_types: 12 + (seed as usize % 4) * 8,
        max_supers: 4,
        mi_fraction: 0.6,
        seed,
        ..GenParams::default()
    }
}

/// Up to `n` stacked projections: each derives from the previous view or
/// from a seeded live type. Returns the derived view types.
fn stack_projections(s: &mut Schema, n: usize, seed: u64) -> BTreeSet<TypeId> {
    let mut views = BTreeSet::new();
    let mut last = None;
    for i in 0..n as u64 {
        let live: Vec<TypeId> = s.live_type_ids().collect();
        let source = match last {
            Some(view) if i % 2 == 1 => view,
            _ => live[(seed.wrapping_mul(31).wrapping_add(i * 7) % live.len() as u64) as usize],
        };
        let projection = random_projection(s, source, 0.6, seed ^ i);
        if projection.is_empty() {
            continue;
        }
        if let Ok(d) = project(s, source, &projection, &ProjectionOptions::fast()) {
            views.insert(d.derived);
            last = Some(d.derived);
        }
    }
    views
}

#[test]
fn reads_match_their_oracles_on_multiple_inheritance_schemas() {
    let mut explained = 0;
    for seed in 1..=6 {
        let s = random_schema(&mi_params(seed));
        explained += check_reads(&s, seed, &format!("random seed {seed}"));
    }
    assert!(explained > 1000, "{explained} explanations compared");
}

#[test]
fn reads_match_their_oracles_after_stacked_projections_and_minimization() {
    let mut retired = 0;
    for seed in 1..=6u64 {
        let mut s = random_schema(&mi_params(seed));
        let views = stack_projections(&mut s, 1 + seed as usize % 3, seed);
        assert!(!views.is_empty(), "seed {seed} derived nothing");
        assert!(s.live_type_ids().any(|t| s.type_(t).is_surrogate()));
        check_reads(&s, seed, &format!("projected seed {seed}"));
        minimize_surrogates(&mut s, &views).unwrap();
        retired += s.n_types() - s.live_type_ids().count();
        check_reads(&s, seed, &format!("minimized seed {seed}"));
    }
    assert!(retired > 0, "no seed retired a surrogate");
}

#[test]
fn reads_match_their_oracles_on_the_paper_figures() {
    for (name, s) in [
        ("fig1", figures::fig1()),
        ("fig3", figures::fig3()),
        ("fig3_with_z1", figures::fig3_with_z1()),
    ] {
        check_reads(&s, 3, name);
    }
}
