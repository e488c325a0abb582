//! Machine-checked statements of the paper's correctness claims.
//!
//! §5: "the new type has the correct state and behavior, and the types …
//! have both the same cumulative state and behavior as before the creation
//! of the new type." We verify, given the schema before and after a
//! derivation:
//!
//! * **I1 state preservation** — every original type's cumulative
//!   attribute set is unchanged;
//! * **I2 behavior preservation** — for every generic function, dispatch
//!   over tuples of original types selects the same method (method ids are
//!   stable across factorization, so this is a direct comparison);
//! * **I3 derived state** — the derived type's cumulative attributes are
//!   exactly the projection list;
//! * **I4 derived behavior** — the methods applicable to the derived type
//!   are exactly those `IsApplicable` inferred;
//! * **I5 well-formedness** — the refactored schema still validates
//!   (acyclic, consistent precedence, type-correct bodies);
//! * **subtype preservation** — the subtype relation restricted to
//!   original types is unchanged.
//!
//! # Exact by construction
//!
//! The report lists exactly the violations that comparing every original
//! type, every pair of them and every tuple of them would list, in the
//! same order, but the work grows with what the derivation changed:
//!
//! 1. **I5 first.** A schema that fails validation makes the other checks
//!    meaningless. A valid `after` has a CPL for every live type.
//! 2. **Affected types.** A type slot of `before` is *touched* when its
//!    node differs in `after`: its supers with their precedences, its
//!    local attributes, its surrogate origin or its liveness. A live type
//!    is *affected* when its `before` ancestor closure contains a touched
//!    type: the affected types are one `descendant_set` of the touched
//!    ones over `before`'s subtype lists. By induction over supers, an
//!    unaffected type has the same ancestor closure in both schemas, so
//!    the same CPL (linearization reads only the closure's supers), the
//!    same collapsed ranks (they read only the CPL's surrogate origins)
//!    and the same cumulative attributes.
//! 3. **I1 and subtype preservation** thus hold for every unaffected
//!    type. For each affected type its two `ancestor_set`s are compared,
//!    restricted to original types: O(affected × types / 64).
//! 4. **I2 by dispatch facts.** For a method `m` of a generic function
//!    `g`, an argument position `i` and an original type `t`, the *fact*
//!    is `None` when `t` is not below `m`'s `i`-th specializer, else the
//!    specializer's rank in `t`'s collapsed rank table — the table
//!    dispatch ranks by (DESIGN §6 deviation 3). A method missing from
//!    `g`'s list on one side, or whose specializers are not one object
//!    type per argument, applies to no tuple of original types there: it
//!    has no fact (`None`) at any position. The winner of a tuple is a
//!    function of its positions' facts and of method ids (ties break by
//!    id), so a tuple whose facts are all equal dispatches the same.
//!    Where a specializer is kept, its facts can only differ for an
//!    affected type (step 2), and only if the specializer is in one of
//!    that type's two rank tables. Where it was retargeted (or exists on
//!    one side only), every original type below the old or the new
//!    specializer (a `descendant_set` on each side) is compared; every
//!    other type reads `None` twice.
//! 5. **Replay only where a fact differs.** For a difference at
//!    `(g, i, t)`, every tuple of `g` with `t` at `i` and original types
//!    elsewhere is dispatched on both schemas, in the exhaustive
//!    enumeration's order. A changed winner is a
//!    [`Violation::DispatchChanged`] witness and a failed lookup a
//!    [`Violation::SchemaInvalid`]. A rank change that flips no winner
//!    reports nothing, and a tuple whose winner changed has a differing
//!    fact at some position, so it is replayed: the verdict is exact in
//!    both directions. A clean derivation replays no tuple.
//!
//! I3 and I4 compare the derived type directly. Every check adds its
//! violation count to the `core/invariant_violations` counter of the
//! telemetry registry, which `tdv serve` exposes on `/metrics`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use td_model::{
    AttrId, CallArg, DispatchCacheStats, GfId, MethodId, Schema, Specializer, TypeId, TypeSet,
};

/// One observed divergence from the paper's guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An original type's cumulative attribute set changed (I1).
    StateChanged {
        /// The affected type.
        ty: TypeId,
        /// Attributes it lost.
        missing: Vec<AttrId>,
        /// Attributes it gained.
        extra: Vec<AttrId>,
    },
    /// Dispatch over original types changed (I2).
    DispatchChanged {
        /// The generic function.
        gf: GfId,
        /// The argument tuple (original types).
        args: Vec<TypeId>,
        /// Most specific applicable method before.
        before: Option<MethodId>,
        /// Most specific applicable method after.
        after: Option<MethodId>,
    },
    /// The derived type's cumulative state is not the projection (I3).
    DerivedStateWrong {
        /// The derived type.
        derived: TypeId,
        /// Projected attributes it lacks.
        missing: Vec<AttrId>,
        /// Unprojected attributes it has.
        extra: Vec<AttrId>,
    },
    /// The derived type does not inherit exactly the inferred methods (I4).
    DerivedBehaviorWrong {
        /// The derived type.
        derived: TypeId,
        /// Inferred-applicable methods that do not apply to it.
        missing: Vec<MethodId>,
        /// Methods that apply to it but were not inferred.
        extra: Vec<MethodId>,
    },
    /// The refactored schema fails validation (I5).
    SchemaInvalid(String),
    /// The subtype relation over original types changed.
    SubtypeChanged {
        /// Candidate subtype.
        sub: TypeId,
        /// Candidate supertype.
        sup: TypeId,
        /// Relation held before.
        before: bool,
        /// Relation holds after.
        after: bool,
    },
}

/// The outcome of checking all invariants for one derivation.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// All violations found (empty = every guarantee holds).
    pub violations: Vec<Violation>,
    /// Dispatch tuples replayed for I2: only tuples with a differing
    /// dispatch fact, so 0 on a clean derivation.
    pub dispatch_tuples_checked: usize,
    /// Dispatch facts compared for I2: one per (specializer, original
    /// type) pair looked up on both schemas.
    pub dispatch_facts_checked: usize,
    /// Dispatch-cache counters of the refactored (`after`) schema once the
    /// check finished.
    pub dispatch_cache: DispatchCacheStats,
}

impl InvariantReport {
    /// True when no violation was found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks all invariants. `before` is a clone of the schema taken before
/// the derivation; `derived`, `projection` and `applicable` come from the
/// derivation outcome.
pub fn check_invariants(
    before: &Schema,
    after: &Schema,
    derived: TypeId,
    projection: &BTreeSet<AttrId>,
    applicable: &[MethodId],
) -> InvariantReport {
    let mut report = InvariantReport::default();
    // I5 first: a malformed schema makes the other checks meaningless.
    if let Err(e) = after.validate() {
        report
            .violations
            .push(Violation::SchemaInvalid(e.to_string()));
    } else {
        check_preservation(before, after, &mut report);
        check_derived(after, derived, projection, applicable, &mut report);
    }
    report.dispatch_cache = after.dispatch_cache_stats();
    td_telemetry::metrics::counter("core/invariant_violations").add(report.violations.len() as u64);
    report
}

/// I1, subtype preservation and I2 (steps 2–5 of the module doc).
fn check_preservation(before: &Schema, after: &Schema, report: &mut InvariantReport) {
    // The live types of `before`, in id order (the exhaustive
    // enumeration's order), and an original's position there.
    let originals: Vec<TypeId> = before.live_type_ids().collect();
    let pos = |t: TypeId| originals.binary_search(&t).expect("an original type");
    let (below_b, below_a) = (before.subtype_lists(), after.subtype_lists());
    let affected = below_b.descendant_set(touched_types(before, after));
    let specs = Specializers::of(before, after);
    let mut dirty = Dirty::default();
    let mut subtype = Vec::new();

    for &t in originals.iter().filter(|&&t| affected.contains(t)) {
        let (row_b, row_a) = (before.ancestor_set(t), after.ancestor_set(t));

        // I1: cumulative state.
        let b = row_attrs(before, &row_b);
        let a = row_attrs(after, &row_a);
        if a != b {
            report.violations.push(Violation::StateChanged {
                ty: t,
                missing: b.difference(&a).copied().collect(),
                extra: a.difference(&b).copied().collect(),
            });
        }

        // Subtype preservation: the rows' differences among originals.
        let changed: BTreeSet<TypeId> = (row_b.iter().chain(row_a.iter()))
            .filter(|&y| before.is_live(y) && row_b.contains(y) != row_a.contains(y))
            .collect();
        for y in changed {
            subtype.push(Violation::SubtypeChanged {
                sub: t,
                sup: y,
                before: row_b.contains(y),
                after: row_a.contains(y),
            });
        }

        // I2: facts of kept specializers, which only `t`'s two rank
        // tables can tell apart.
        let p = pos(t);
        match (before.specificity_ranks(t), after.specificity_ranks(t)) {
            (Ok(rb), Ok(ra)) => {
                let mut facts: BTreeMap<TypeId, [Option<usize>; 2]> = BTreeMap::new();
                for (side, table) in [rb, ra].iter().enumerate() {
                    for &(s, rank) in table.iter() {
                        facts.entry(s).or_default()[side] = Some(rank);
                    }
                }
                for (s, [fb, fa]) in facts {
                    if let Some(sites) = specs.kept.get(&s) {
                        report.dispatch_facts_checked += 1;
                        if fb != fa {
                            dirty.mark(before, sites, p);
                        }
                    }
                }
            }
            // A failed lookup leaves `t`'s facts unknown: replay every
            // tuple with `t` and let dispatch report what it does.
            _ => {
                for sites in specs.kept.values() {
                    dirty.mark(before, sites, p);
                }
            }
        }
    }
    report.violations.append(&mut subtype);

    // I2: facts of retargeted specializers, over every original type
    // below the old or the new one.
    for (&(old, new), sites) in &specs.changed {
        let mut below = below_b.descendant_set(old);
        below.union_with(&below_a.descendant_set(new));
        for t in below.iter().filter(|&t| before.is_live(t)) {
            report.dispatch_facts_checked += 1;
            let differs = match (fact(before, t, old), fact(after, t, new)) {
                (Ok(fb), Ok(fa)) => fb != fa,
                _ => true,
            };
            if differs {
                dirty.mark(before, sites, pos(t));
            }
        }
    }

    dirty.replay(before, after, &originals, report);
}

/// I3 and I4: the derived type's state and behavior.
fn check_derived(
    after: &Schema,
    derived: TypeId,
    projection: &BTreeSet<AttrId>,
    applicable: &[MethodId],
    report: &mut InvariantReport,
) {
    // I3: derived state == projection.
    let derived_attrs = after.cumulative_attrs(derived);
    if &derived_attrs != projection {
        report.violations.push(Violation::DerivedStateWrong {
            derived,
            missing: projection.difference(&derived_attrs).copied().collect(),
            extra: derived_attrs.difference(projection).copied().collect(),
        });
    }

    // I4: methods applicable to the derived type == inferred set.
    let actual: BTreeSet<MethodId> = after
        .methods_applicable_to_type(derived)
        .into_iter()
        .collect();
    let inferred: BTreeSet<MethodId> = applicable.iter().copied().collect();
    if actual != inferred {
        report.violations.push(Violation::DerivedBehaviorWrong {
            derived,
            missing: inferred.difference(&actual).copied().collect(),
            extra: actual.difference(&inferred).copied().collect(),
        });
    }
}

/// Step 2: the type slots of `before` whose node differs in `after`
/// (retired ones included: they are not live in `after`).
fn touched_types<'a>(before: &'a Schema, after: &'a Schema) -> impl Iterator<Item = TypeId> + 'a {
    (0..before.n_types()).map(TypeId::from_index).filter(|&t| {
        let (b, a) = (before.type_(t), after.type_(t));
        !after.is_live(t)
            || (b.supers(), &b.local_attrs, b.origin) != (a.supers(), &a.local_attrs, a.origin)
    })
}

/// The cumulative state of the types in an ancestor set.
fn row_attrs(schema: &Schema, row: &TypeSet) -> BTreeSet<AttrId> {
    row.iter()
        .flat_map(|t| schema.type_(t).local_attrs.iter().copied())
        .collect()
}

/// The step-4 fact of specializer `spec` at an argument of type `t`.
fn fact(schema: &Schema, t: TypeId, spec: Option<TypeId>) -> td_model::Result<Option<usize>> {
    let Some(s) = spec else {
        return Ok(None);
    };
    let ranks = schema.specificity_ranks(t)?;
    Ok(ranks.iter().find(|&&(x, _)| x == s).map(|&(_, r)| r))
}

/// `(generic function, argument position)` pairs of method specializers.
type Sites = Vec<(GfId, usize)>;

/// Where the methods of `before`'s generic functions specialize, on both
/// sides of the derivation.
struct Specializers {
    /// Specializer → the sites where some method keeps it.
    kept: HashMap<TypeId, Sites>,
    /// `(old, new)` → the sites where some method went from `old` to
    /// `new`; `None` is a side where the method has no fact.
    changed: BTreeMap<(Option<TypeId>, Option<TypeId>), Sites>,
}

impl Specializers {
    fn of(before: &Schema, after: &Schema) -> Specializers {
        let mut out = Specializers {
            kept: HashMap::new(),
            changed: BTreeMap::new(),
        };
        for gf in before.gf_ids() {
            let arity = before.gf(gf).arity;
            let mut sides: BTreeMap<MethodId, [Option<&[Specializer]>; 2]> = BTreeMap::new();
            for (side, schema) in [before, after].into_iter().enumerate() {
                for &m in &schema.gf(gf).methods {
                    let specs = &schema.method(m).specializers;
                    let objects =
                        specs.len() == arity && specs.iter().all(|s| s.as_type().is_some());
                    sides.entry(m).or_default()[side] = objects.then_some(specs.as_slice());
                }
            }
            for specs in sides.values() {
                for i in 0..arity {
                    match specs.map(|s| s.and_then(|s| s[i].as_type())) {
                        [None, None] => {}
                        [Some(old), Some(new)] if old == new => {
                            out.kept.entry(old).or_default().push((gf, i));
                        }
                        [old, new] => out.changed.entry((old, new)).or_default().push((gf, i)),
                    }
                }
            }
        }
        for sites in out.kept.values_mut().chain(out.changed.values_mut()) {
            sites.sort_unstable();
            sites.dedup();
        }
        out
    }
}

/// Per generic function and argument position, the original types
/// (as positions) whose facts differ there.
#[derive(Default)]
struct Dirty(BTreeMap<GfId, Vec<BTreeSet<usize>>>);

impl Dirty {
    fn mark(&mut self, before: &Schema, sites: &[(GfId, usize)], p: usize) {
        for &(gf, i) in sites {
            let arity = before.gf(gf).arity;
            self.0
                .entry(gf)
                .or_insert_with(|| vec![BTreeSet::new(); arity])[i]
                .insert(p);
        }
    }

    /// Step 5: dispatches every tuple with a dirty type at its dirty
    /// position on both schemas, generic function by generic function.
    fn replay(
        self,
        before: &Schema,
        after: &Schema,
        originals: &[TypeId],
        report: &mut InvariantReport,
    ) {
        let n = originals.len();
        for (gf, positions) in self.0 {
            let arity = positions.len();
            // Keys hold the last argument first, so the set iterates in the
            // exhaustive enumeration's order (the first argument varies
            // fastest) and each tuple once.
            let mut keys: BTreeSet<Vec<usize>> = BTreeSet::new();
            for (i, dirty) in positions.iter().enumerate() {
                let fixed = arity - 1 - i;
                for &p in dirty {
                    let mut key = vec![0; arity];
                    key[fixed] = p;
                    loop {
                        keys.insert(key.clone());
                        if !advance(&mut key, fixed, n) {
                            break;
                        }
                    }
                }
            }
            for key in keys {
                let tuple: Vec<TypeId> = key.iter().rev().map(|&p| originals[p]).collect();
                report.dispatch_tuples_checked += 1;
                replay_tuple(before, after, gf, tuple, &mut report.violations);
            }
        }
    }
}

/// Steps `key` to the next tuple, holding position `fixed`; false once
/// every tuple was visited.
fn advance(key: &mut [usize], fixed: usize, n: usize) -> bool {
    for j in (0..key.len()).rev().filter(|&j| j != fixed) {
        key[j] += 1;
        if key[j] < n {
            return true;
        }
        key[j] = 0;
    }
    false
}

/// Dispatches one tuple of original types on both schemas and records a
/// changed winner or a failed lookup.
fn replay_tuple(
    before: &Schema,
    after: &Schema,
    gf: GfId,
    tuple: Vec<TypeId>,
    violations: &mut Vec<Violation>,
) {
    let args: Vec<CallArg> = tuple.iter().map(|&t| CallArg::Object(t)).collect();
    match (
        before.most_specific(gf, &args),
        after.most_specific(gf, &args),
    ) {
        (Ok(b), Ok(a)) => {
            if b != a {
                violations.push(Violation::DispatchChanged {
                    gf,
                    args: tuple,
                    before: b,
                    after: a,
                });
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            violations.push(Violation::SchemaInvalid(format!("dispatch failed: {e}")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};
    use td_model::{MethodKind, ValueType};

    /// Tests run in parallel and share the global violation counter, so
    /// every check in this module runs under one lock.
    fn counter_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn check(
        before: &Schema,
        after: &Schema,
        derived: TypeId,
        projection: &BTreeSet<AttrId>,
        applicable: &[MethodId],
    ) -> InvariantReport {
        let _guard = counter_lock();
        check_invariants(before, after, derived, projection, applicable)
    }

    #[test]
    fn identical_schemas_pass_trivially() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        s.add_accessors(x).unwrap();
        let before = s.clone();
        // Trivial "derivation": derived type = A itself, projection = {x},
        // applicable = both accessors.
        let methods: Vec<MethodId> = s.method_ids().collect();
        let proj: BTreeSet<AttrId> = [x].into_iter().collect();
        let report = check(&before, &s, a, &proj, &methods);
        assert!(report.ok(), "{:?}", report.violations);
        // Nothing was touched or retargeted: no fact can differ, so no
        // fact is compared and no tuple is replayed.
        assert_eq!(report.dispatch_facts_checked, 0);
        assert_eq!(report.dispatch_tuples_checked, 0);
    }

    #[test]
    fn i2_replay_reports_cache_counters() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let c = s.add_type("C", &[b]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        // Two methods in one generic function so the replay must consult
        // rank tables (single-method dispatch short-circuits without them).
        let (get_x, on_a) = s.add_reader(x, a).unwrap();
        let (_, on_b) = s.add_reader(x, b).unwrap();
        let before = s.clone();
        // Retarget the B method to C: B now dispatches to the A method.
        s.method_mut(on_b).specializers = vec![Specializer::Type(c)];
        let report = check(&before, &s, c, &[x].into_iter().collect(), &[on_a, on_b]);
        assert_eq!(
            report.violations,
            vec![Violation::DispatchChanged {
                gf: get_x,
                args: vec![b],
                before: Some(on_b),
                after: Some(on_a),
            }]
        );
        // B and C both have a differing fact (C now ranks the method's
        // specializer at 0 instead of 1), so both tuples are replayed
        // through the after schema's dispatch cache; C keeps its winner.
        assert_eq!(report.dispatch_tuples_checked, 2);
        assert!(report.dispatch_cache.dispatch_misses >= 2);
        assert!(report.dispatch_cache.cpl_hits > 0);
    }

    #[test]
    fn violations_move_the_registry_counter_by_the_report_count() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let before = s.clone();
        s.move_attr(x, b).unwrap();
        let counter = || td_telemetry::metrics::counter("core/invariant_violations").get();
        let _guard = counter_lock();
        let at_start = counter();
        let report = check_invariants(&before, &s, b, &BTreeSet::new(), &[]);
        assert!(!report.ok());
        assert_eq!(counter() - at_start, report.violations.len() as u64);
    }

    #[test]
    fn retired_original_type_is_replayed() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let on_a = s
            .add_method(
                f,
                "f_a",
                vec![Specializer::Type(a)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let before = s.clone();
        s.remove_super_edge(b, a);
        s.retire_type(b).unwrap();
        // B has no rank table after: its facts are unknown, so its tuple
        // is replayed and dispatch reports the change.
        let report = check(&before, &s, a, &BTreeSet::new(), &[on_a]);
        assert_eq!(
            report.violations,
            vec![
                Violation::SubtypeChanged {
                    sub: b,
                    sup: a,
                    before: true,
                    after: false,
                },
                Violation::DispatchChanged {
                    gf: f,
                    args: vec![b],
                    before: Some(on_a),
                    after: None,
                },
            ]
        );
    }

    #[test]
    fn state_change_detected() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let before = s.clone();
        // Maliciously move x down to B: A loses state.
        s.move_attr(x, b).unwrap();
        let report = check(&before, &s, b, &BTreeSet::new(), &[]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StateChanged { ty, .. } if *ty == a)));
    }

    #[test]
    fn subtype_change_detected() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let before = s.clone();
        s.remove_super_edge(b, a);
        let report = check(&before, &s, b, &BTreeSet::new(), &[]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SubtypeChanged { .. })));
    }

    #[test]
    fn derived_state_mismatch_detected() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let before = s.clone();
        // Claim projection {} but the "derived type" A still has x.
        let report = check(&before, &s, a, &BTreeSet::new(), &[]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DerivedStateWrong { extra, .. } if extra == &vec![x])));
    }

    #[test]
    fn derived_behavior_mismatch_detected() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (_, m) = s.add_reader(x, a).unwrap();
        let before = s.clone();
        // Claim nothing is applicable, but the reader applies to A.
        let proj: BTreeSet<AttrId> = [x].into_iter().collect();
        let report = check(&before, &s, a, &proj, &[]);
        assert!(report.violations.iter().any(
            |v| matches!(v, Violation::DerivedBehaviorWrong { extra, .. } if extra == &vec![m])
        ));
    }
}
