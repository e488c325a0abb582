//! `IsApplicable` — inferring the behavior of a derived type (§4).
//!
//! A method applicable to the source type `T` remains applicable to the
//! projection `T̂ = Π_{a…}(T)` **unless** it (transitively) accesses an
//! attribute outside the projection list, or it invokes a generic function
//! on a source-derived argument for which no method remains applicable.
//!
//! The algorithm analyzes each method's call graph, which bottoms out on
//! accessor methods. Three complications (§4.1) shape the implementation:
//!
//! * **cycles** in the call graph: when a method already under test is
//!   re-encountered it is *optimistically* assumed applicable, and every
//!   method above it on the test stack is recorded in its dependency list;
//!   if the assumption later proves wrong those dependents are retracted
//!   from the `Applicable` list (their status reverts to unknown and they
//!   are re-tested).
//! * **less-specific methods**: a call checks out if *any* applicable
//!   method of the callee survives, not just the most specific one.
//! * **multiple source-typed arguments**: if exactly one argument of a
//!   call corresponds to a source-derived parameter, the candidate set is
//!   the methods applicable to the call with `T` substituted at that
//!   position (case 1); if several do, the candidate set is the methods
//!   applicable to the call as written, which is what guarantees
//!   applicability for *all* combinations of substitutions (case 2).

use std::collections::{BTreeSet, HashMap, HashSet};
use td_model::dataflow::CallSite;
use td_model::{AttrId, CallArg, GfId, MethodId, Schema, TypeId};

use crate::error::{CoreError, Result};

/// One step of the applicability computation, for reproducing the paper's
/// Example 1 narrative and for debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `IsApplicable` was entered for a method not yet classified.
    Begin {
        /// Method under test.
        method: MethodId,
    },
    /// An accessor method was classified by projection-list membership.
    AccessorCheck {
        /// The accessor.
        method: MethodId,
        /// The attribute it accesses.
        attr: AttrId,
        /// Whether the attribute is in the projection list.
        in_projection: bool,
    },
    /// The method was found on the test stack: optimistically assumed
    /// applicable, with the listed methods recorded as its dependents.
    CycleAssumed {
        /// The method already under test.
        method: MethodId,
        /// Methods above it on the stack, now contingent on it.
        dependents: Vec<MethodId>,
    },
    /// A generic-function call inside a method body was examined.
    CallExamined {
        /// The enclosing method.
        method: MethodId,
        /// The called generic function.
        gf: GfId,
        /// Candidate methods for the call (per the case-1/case-2 rule).
        candidates: Vec<MethodId>,
        /// `Some(j)` when case 1 substituted the source type at position j.
        substituted_at: Option<usize>,
    },
    /// No candidate method of a call checked out; the enclosing method
    /// fails.
    CallFailed {
        /// The enclosing method.
        method: MethodId,
        /// The called generic function.
        gf: GfId,
    },
    /// A method reached a final classification (for this pass).
    Classified {
        /// The method.
        method: MethodId,
        /// `true` = added to `Applicable`, `false` = `NotApplicable`.
        applicable: bool,
    },
    /// A failed method's dependents were retracted from `Applicable`;
    /// their status reverts to unknown.
    DependentsRetracted {
        /// The method that failed.
        failed: MethodId,
        /// The retracted dependents.
        removed: Vec<MethodId>,
    },
    /// The driver re-tests a method whose status was retracted.
    Recheck {
        /// The method re-entering the test.
        method: MethodId,
    },
}

/// Result of the applicability computation for one projection.
#[derive(Debug, Clone)]
pub struct Applicability {
    /// The projection's source type.
    pub source: TypeId,
    /// The projection list.
    pub projection: BTreeSet<AttrId>,
    /// Every method applicable to the source type — the universe the
    /// computation classifies.
    pub universe: Vec<MethodId>,
    /// Methods that remain applicable to the derived type, in universe
    /// order.
    pub applicable: Vec<MethodId>,
    /// The same methods as `applicable`, as a set — this is what answers
    /// [`Applicability::is_applicable`] in O(1) instead of scanning the
    /// list.
    pub applicable_set: HashSet<MethodId>,
    /// Methods ruled out, in universe order.
    pub not_applicable: Vec<MethodId>,
    /// Trace of the computation (empty unless requested).
    pub trace: Vec<TraceEvent>,
}

impl Applicability {
    /// True iff `m` was classified applicable. O(1) — answered from
    /// `applicable_set`, not the list.
    pub fn is_applicable(&self, m: MethodId) -> bool {
        self.applicable_set.contains(&m)
    }
}

/// Computes which methods remain applicable to `Π_projection(source)`
/// with the paper's stack algorithm alone.
///
/// `record_trace` enables the event log (used by the reproduction harness;
/// adds allocation cost, so benches leave it off).
pub fn compute_applicability(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    record_trace: bool,
) -> Result<Applicability> {
    let universe = schema.methods_applicable_to_type(source);
    let mut ctx = Ctx::new(schema, source, projection, record_trace);
    drive(&mut ctx, &universe)?;
    Ok(ctx.finish(universe))
}

/// Computes which methods remain applicable to `Π_projection(source)`
/// using the condensation index (see `td_model::appindex`): methods in the
/// purely conjunctive region of the call graph are classified with one
/// `footprint ⊆ projection` bitset test against the cached index, and only
/// the residue whose reachable region is disjunctive or hits the §4.1
/// case-2 multi-source rule runs the pass-based engine — seeded with the
/// indexed verdicts, so both engines classify identically (the property
/// suite proves it on randomized schemas).
///
/// The index is cached per `(schema generation, source)`, so repeated
/// projections over the same source — the batch engine's common shape —
/// pay the call-graph walk once. `record_trace` delegates wholesale to
/// [`compute_applicability`]: the narrative trace *is* the stack
/// algorithm's execution, and the reproduction harness replays it
/// verbatim.
pub fn compute_applicability_indexed(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    record_trace: bool,
) -> Result<Applicability> {
    if record_trace {
        return compute_applicability(schema, source, projection, true);
    }
    let index = schema.cached_applicability_index(source)?;
    let proj_bits = index.projection_bits(projection);
    let universe = index.universe().to_vec();

    let mut ctx = Ctx::new(schema, source, projection, false);
    let mut pending: Vec<MethodId> = Vec::new();
    for &m in &universe {
        match index.verdict(m, &proj_bits) {
            Some(true) => ctx.mark_applicable(m),
            Some(false) => ctx.mark_not_applicable(m),
            None => pending.push(m),
        }
    }
    // Fallback: run the pass-based engine over the undecided residue,
    // with every indexed verdict pre-seeded. Seeding is sound because
    // indexed verdicts are exact (inside the greatest fixpoint), and safe
    // against retraction: seeded `applicable` entries sit below
    // `top_level_start` when the first fallback test begins, so a failed
    // optimistic assumption can never split them off.
    drive(&mut ctx, &pending)?;
    Ok(ctx.finish(universe))
}

/// The outer pass loop shared by [`compute_applicability`] (worklist =
/// whole universe) and the indexed engine's fallback (worklist = the
/// undecided residue): re-test unclassified worklist methods until all are
/// classified, with a non-convergence guard — retraction strictly shrinks
/// the optimistic set, so `worklist.len() + 2` passes always suffice.
fn drive(ctx: &mut Ctx<'_>, worklist: &[MethodId]) -> Result<()> {
    let mut passes = 0usize;
    loop {
        passes += 1;
        if passes > worklist.len() + 2 {
            return Err(CoreError::NonConvergence { iterations: passes });
        }
        let mut any_unknown = false;
        for &m in worklist {
            if ctx.is_classified(m) {
                continue;
            }
            any_unknown = true;
            if passes > 1 && ctx.record_trace {
                ctx.trace.push(TraceEvent::Recheck { method: m });
            }
            ctx.top_level_start = ctx.applicable.len();
            ctx.test(m)?;
            debug_assert!(
                ctx.stack.is_empty(),
                "MethodStack must drain per top-level call"
            );
        }
        let all_done = worklist.iter().all(|&m| ctx.is_classified(m));
        if all_done {
            return Ok(());
        }
        if !any_unknown {
            // Defensive: everything was classified at loop entry yet
            // `all_done` is false — cannot happen, but never spin.
            return Err(CoreError::NonConvergence { iterations: passes });
        }
    }
}

/// Computes the candidate methods for a call site, per the §4.1 case
/// analysis — a thin delegation to [`Schema::site_candidates`], which
/// every engine (stack, fixpoint oracle, condensation index, explain,
/// ablation) shares, so all of them agree on what a call requires.
///
/// `scratch` is a caller-owned buffer reused for the case-1 argument
/// substitution. `Schema::applicable_methods` is served by td-model's
/// dispatch cache, so the many call sites that re-examine the same
/// `(gf, args)` pair during a run resolve to a cached table after the
/// first lookup.
pub(crate) fn call_candidates(
    schema: &Schema,
    source: TypeId,
    site: &CallSite,
    scratch: &mut Vec<CallArg>,
) -> (Vec<MethodId>, Option<usize>) {
    schema.site_candidates(source, site, scratch)
}

struct Ctx<'a> {
    schema: &'a Schema,
    source: TypeId,
    projection: &'a BTreeSet<AttrId>,
    applicable: Vec<MethodId>,
    applicable_set: HashSet<MethodId>,
    not_applicable: Vec<MethodId>,
    not_applicable_set: HashSet<MethodId>,
    /// The paper's `MethodStack`: `(method, dependencyList)` pairs.
    stack: Vec<(MethodId, Vec<MethodId>)>,
    /// Relevant call sites per method, computed once.
    sites_cache: HashMap<MethodId, Vec<CallSite>>,
    /// Reused case-1 argument-substitution buffer (see `call_candidates`).
    scratch: Vec<CallArg>,
    /// `applicable.len()` at entry to the current top-level `test` call —
    /// the boundary below which classifications are already known sound.
    top_level_start: usize,
    trace: Vec<TraceEvent>,
    record_trace: bool,
}

impl<'a> Ctx<'a> {
    fn new(
        schema: &'a Schema,
        source: TypeId,
        projection: &'a BTreeSet<AttrId>,
        record_trace: bool,
    ) -> Self {
        Ctx {
            schema,
            source,
            projection,
            applicable: Vec::new(),
            applicable_set: HashSet::new(),
            not_applicable: Vec::new(),
            not_applicable_set: HashSet::new(),
            stack: Vec::new(),
            sites_cache: HashMap::new(),
            scratch: Vec::new(),
            top_level_start: 0,
            trace: Vec::new(),
            record_trace,
        }
    }

    /// Packages the classification with both verdict lists in universe
    /// order. The stack algorithm lists verdicts in discovery order and
    /// the indexed engine appends its fallback verdicts last; sorting here
    /// keeps every report's bytes independent of the path that ran.
    fn finish(mut self, universe: Vec<MethodId>) -> Applicability {
        // The universe is in method-id order, so universe order is id order.
        debug_assert!(universe.windows(2).all(|w| w[0] < w[1]));
        self.applicable.sort_unstable();
        self.not_applicable.sort_unstable();
        Applicability {
            source: self.source,
            projection: self.projection.clone(),
            universe,
            applicable: self.applicable,
            applicable_set: self.applicable_set,
            not_applicable: self.not_applicable,
            trace: self.trace,
        }
    }

    fn is_classified(&self, m: MethodId) -> bool {
        self.applicable_set.contains(&m) || self.not_applicable_set.contains(&m)
    }

    fn mark_applicable(&mut self, m: MethodId) {
        if self.applicable_set.insert(m) {
            self.applicable.push(m);
        }
        if self.record_trace {
            self.trace.push(TraceEvent::Classified {
                method: m,
                applicable: true,
            });
        }
    }

    fn mark_not_applicable(&mut self, m: MethodId) {
        if self.not_applicable_set.insert(m) {
            self.not_applicable.push(m);
        }
        if self.record_trace {
            self.trace.push(TraceEvent::Classified {
                method: m,
                applicable: false,
            });
        }
    }

    /// Retracts the dependents of a failed optimistic assumption.
    ///
    /// The paper removes exactly `dependencyList` from `Applicable`, but
    /// that under-retracts in two ways: (a) a method may be classified
    /// applicable after consulting a *provisional* `Applicable` entry
    /// without itself being on the stack, so it never appears in any
    /// dependency list; (b) a retracted method's own dependency list dies
    /// with its stack frame, so when it is later re-classified
    /// not-applicable its consumers are not revisited. Both are repaired
    /// by one observation: every classification made during a top-level
    /// `test` call in which some assumption failed is suspect, while a
    /// top-level call that completes without failures is a self-consistent
    /// set and therefore inside the greatest fixpoint. So on a failure
    /// with a non-empty dependency list we retract the whole `Applicable`
    /// suffix classified during the current top-level call. Retracted
    /// methods revert to unknown and are re-tested by the driver;
    /// over-retraction costs time, never correctness.
    fn retract(&mut self, failed: MethodId, deps: Vec<MethodId>) {
        if deps.is_empty() || self.applicable.len() <= self.top_level_start {
            return;
        }
        let removed: Vec<MethodId> = self.applicable.split_off(self.top_level_start);
        for d in &removed {
            self.applicable_set.remove(d);
        }
        if self.record_trace && !removed.is_empty() {
            self.trace
                .push(TraceEvent::DependentsRetracted { failed, removed });
        }
    }

    /// Relevant call sites of `m` (those with at least one source-derived
    /// argument position).
    fn relevant_sites(&mut self, m: MethodId) -> Result<&[CallSite]> {
        if !self.sites_cache.contains_key(&m) {
            let sites: Vec<CallSite> = self
                .schema
                .call_sites(m, self.source)?
                .into_iter()
                .filter(|s| !s.source_positions.is_empty())
                .collect();
            self.sites_cache.insert(m, sites);
        }
        Ok(&self.sites_cache[&m])
    }

    /// The paper's `IsApplicable(m, T, p)`.
    fn test(&mut self, m: MethodId) -> Result<bool> {
        // Already processed?
        if self.applicable_set.contains(&m) {
            return Ok(true);
        }
        if self.not_applicable_set.contains(&m) {
            return Ok(false);
        }

        let method = self.schema.method(m);

        // Accessor methods bottom out the call graph.
        if let Some(attr) = method.kind.accessed_attr() {
            let in_projection = self.projection.contains(&attr);
            if self.record_trace {
                self.trace.push(TraceEvent::AccessorCheck {
                    method: m,
                    attr,
                    in_projection,
                });
            }
            if in_projection {
                self.mark_applicable(m);
                return Ok(true);
            }
            self.mark_not_applicable(m);
            return Ok(false);
        }

        // General method: if already on the stack, optimistically assume
        // applicable and record every method above it as a dependent.
        if let Some(pos) = self.stack.iter().position(|(x, _)| *x == m) {
            let above: Vec<MethodId> = self.stack[pos + 1..].iter().map(|(x, _)| *x).collect();
            if self.record_trace {
                self.trace.push(TraceEvent::CycleAssumed {
                    method: m,
                    dependents: above.clone(),
                });
            }
            self.stack[pos].1.extend(above);
            return Ok(true);
        }

        if self.record_trace {
            self.trace.push(TraceEvent::Begin { method: m });
        }
        self.stack.push((m, Vec::new()));

        let sites = self.relevant_sites(m)?.to_vec();
        for site in &sites {
            let (candidates, substituted_at) =
                call_candidates(self.schema, self.source, site, &mut self.scratch);
            if self.record_trace {
                self.trace.push(TraceEvent::CallExamined {
                    method: m,
                    gf: site.gf,
                    candidates: candidates.clone(),
                    substituted_at,
                });
            }
            let mut satisfied = false;
            for nk in candidates {
                if self.test(nk)? {
                    satisfied = true;
                    break;
                }
            }
            if !satisfied {
                if self.record_trace {
                    self.trace.push(TraceEvent::CallFailed {
                        method: m,
                        gf: site.gf,
                    });
                }
                // Falling out: no applicable method for this call. Retract
                // everything contingent on m, classify m not applicable.
                let (_, deps) = self.stack.pop().expect("frame pushed above");
                self.retract(m, deps);
                self.mark_not_applicable(m);
                return Ok(false);
            }
        }

        // Every call in m checked out.
        self.mark_applicable(m);
        self.stack.pop();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{BodyBuilder, Expr, MethodKind, Specializer, ValueType};

    /// Schema:  B <= A, attrs x@A, y@A; readers; methods
    ///   f1(A) = { get_x(p0) }
    ///   f2(B) = { get_y(p0) }
    ///   h1(A) = { f(p0) }         -- survives iff f survives via any method
    /// The projection source is B, so both f methods are candidates for
    /// the call f(B) inside h1.
    fn small() -> (Schema, TypeId, Vec<MethodId>) {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let y = s.add_attr("y", ValueType::INT, a).unwrap();
        let (get_x, mx) = s.add_reader(x, a).unwrap();
        let (get_y, my) = s.add_reader(y, a).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        let f1 = s
            .add_method(
                f,
                "f1",
                vec![Specializer::Type(a)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_y, vec![Expr::Param(0)]);
        let f2 = s
            .add_method(
                f,
                "f2",
                vec![Specializer::Type(b)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let h = s.add_gf("h", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(f, vec![Expr::Param(0)]);
        let h1 = s
            .add_method(
                h,
                "h1",
                vec![Specializer::Type(a)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        (s, b, vec![mx, my, f1, f2, h1])
    }

    fn attrs(s: &Schema, names: &[&str]) -> BTreeSet<AttrId> {
        names.iter().map(|n| s.attr_id(n).unwrap()).collect()
    }

    #[test]
    fn accessor_filtered_by_projection() {
        let (s, a, m) = small();
        let [mx, my, ..] = m[..] else { unreachable!() };
        let r = compute_applicability(&s, a, &attrs(&s, &["x"]), false).unwrap();
        assert!(r.is_applicable(mx));
        assert!(!r.is_applicable(my));
        assert!(r.not_applicable.contains(&my));
    }

    #[test]
    fn general_method_follows_call_graph() {
        let (s, a, m) = small();
        let [_, _, f1, f2, h1] = m[..] else {
            unreachable!()
        };
        let r = compute_applicability(&s, a, &attrs(&s, &["x"]), false).unwrap();
        assert!(r.is_applicable(f1));
        assert!(!r.is_applicable(f2)); // needs y
                                       // h1 calls f; f1 still works, so h1 survives via the less-specific
                                       // route even though f2 died.
        assert!(r.is_applicable(h1));
    }

    #[test]
    fn method_dies_when_no_callee_survives() {
        let (s, a, m) = small();
        let [_, _, f1, f2, h1] = m[..] else {
            unreachable!()
        };
        // Project onto neither x nor y: nothing survives except nothing.
        let r = compute_applicability(&s, a, &BTreeSet::new(), false).unwrap();
        for mm in [f1, f2, h1] {
            assert!(!r.is_applicable(mm));
        }
        assert!(r.applicable.is_empty());
    }

    #[test]
    fn empty_body_method_is_applicable() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let m = s
            .add_method(
                f,
                "noop",
                vec![Specializer::Type(a)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let r = compute_applicability(&s, a, &BTreeSet::new(), false).unwrap();
        assert!(r.is_applicable(m));
    }

    #[test]
    fn direct_recursion_is_optimistic() {
        // rec1(A) = { get_x(p0); rec(p0) } — self-recursive; survives when
        // x is projected (the cycle is assumed applicable).
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (get_x, _) = s.add_reader(x, a).unwrap();
        let rec = s.add_gf("rec", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        bb.call(rec, vec![Expr::Param(0)]);
        let m = s
            .add_method(
                rec,
                "rec1",
                vec![Specializer::Type(a)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let r = compute_applicability(&s, a, &attrs(&s, &["x"]), true).unwrap();
        assert!(r.is_applicable(m));
        assert!(r
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::CycleAssumed { .. })));

        // ...and dies when x is not projected (the accessor fails first).
        let r = compute_applicability(&s, a, &BTreeSet::new(), false).unwrap();
        assert!(!r.is_applicable(m));
    }

    #[test]
    fn mutual_recursion_where_cycle_must_die() {
        // The paper's x1/y1 pattern: p1(A) = { q(p0); get_y(p0) },
        // q1(A) = { p(p0) }. Testing p1 recurses into q1, which hits the
        // cycle, is optimistically classified applicable, and is recorded
        // as a dependent of p1. p1 then fails on get_y, so q1 must be
        // retracted (status unknown) and re-tested to not-applicable.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let y = s.add_attr("y", ValueType::INT, a).unwrap();
        let (get_y, _) = s.add_reader(y, a).unwrap();
        let p = s.add_gf("p", 1, None).unwrap();
        let q = s.add_gf("q", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(q, vec![Expr::Param(0)]);
        bb.call(get_y, vec![Expr::Param(0)]);
        let p1 = s
            .add_method(
                p,
                "p1",
                vec![Specializer::Type(a)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(p, vec![Expr::Param(0)]);
        let q1 = s
            .add_method(
                q,
                "q1",
                vec![Specializer::Type(a)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let r = compute_applicability(&s, a, &BTreeSet::new(), true).unwrap();
        assert!(!r.is_applicable(p1));
        assert!(!r.is_applicable(q1));
        assert!(r
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::DependentsRetracted { .. })));
        // q1 was first classified applicable (optimistically), then
        // retracted and reclassified: two Classified events for it.
        let q1_events = r
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Classified { method, .. } if *method == q1))
            .count();
        assert_eq!(q1_events, 2);
    }

    #[test]
    fn mutual_recursion_where_cycle_survives() {
        // p1(A) = { q(p0) }, q1(A) = { p(p0) } — pure cycle, nothing
        // touches state: the greatest fixpoint keeps both.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let p = s.add_gf("p", 1, None).unwrap();
        let q = s.add_gf("q", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(q, vec![Expr::Param(0)]);
        let p1 = s
            .add_method(
                p,
                "p1",
                vec![Specializer::Type(a)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(p, vec![Expr::Param(0)]);
        let q1 = s
            .add_method(
                q,
                "q1",
                vec![Specializer::Type(a)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let r = compute_applicability(&s, a, &BTreeSet::new(), false).unwrap();
        assert!(r.is_applicable(p1));
        assert!(r.is_applicable(q1));
    }

    #[test]
    fn universe_limited_to_methods_applicable_to_source() {
        // A method on an unrelated type never appears in the result.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let u = s.add_type("Unrelated", &[]).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let m_u = s
            .add_method(
                f,
                "f_u",
                vec![Specializer::Type(u)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let r = compute_applicability(&s, a, &BTreeSet::new(), false).unwrap();
        assert!(r.universe.is_empty());
        assert!(!r.is_applicable(m_u));
        assert!(!r.not_applicable.contains(&m_u));
    }

    /// Asserts that the indexed engine and the stack engine classify the
    /// universe identically (as sets) for the given projection.
    fn assert_indexed_agrees(s: &Schema, source: TypeId, proj: &BTreeSet<AttrId>) {
        let stack = compute_applicability(s, source, proj, false).unwrap();
        let indexed = compute_applicability_indexed(s, source, proj, false).unwrap();
        let to_set = |v: &[MethodId]| v.iter().copied().collect::<BTreeSet<_>>();
        assert_eq!(to_set(&stack.applicable), to_set(&indexed.applicable));
        assert_eq!(
            to_set(&stack.not_applicable),
            to_set(&indexed.not_applicable)
        );
        assert_eq!(to_set(&stack.universe), to_set(&indexed.universe));
        for &m in &stack.universe {
            assert_eq!(stack.is_applicable(m), indexed.is_applicable(m));
        }
    }

    #[test]
    fn indexed_engine_matches_stack_on_small_fixture() {
        let (s, b, _) = small();
        for proj in [
            attrs(&s, &["x"]),
            attrs(&s, &["y"]),
            attrs(&s, &["x", "y"]),
            BTreeSet::new(),
        ] {
            assert_indexed_agrees(&s, b, &proj);
        }
    }

    #[test]
    fn indexed_engine_matches_stack_on_paper_example() {
        use td_workload::figures;
        let s = figures::fig3();
        let a = s.type_id("A").unwrap();
        let proj: BTreeSet<AttrId> = figures::FIG4_PROJECTION
            .iter()
            .map(|n| s.attr_id(n).unwrap())
            .collect();
        assert_indexed_agrees(&s, a, &proj);
        // And the result is the paper's own answer.
        let indexed = compute_applicability_indexed(&s, a, &proj, false).unwrap();
        let names: BTreeSet<&str> = indexed
            .applicable
            .iter()
            .map(|&m| s.method_label(m))
            .collect();
        let expected: BTreeSet<&str> = figures::EX1_APPLICABLE.iter().copied().collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn indexed_engine_falls_back_on_multi_candidate_calls() {
        // small()'s h1 calls f with two candidates (f1 on A, f2 on B): a
        // disjunction the pure-AND index must refuse to answer.
        let (s, b, m) = small();
        let [_, _, _, _, h1] = m[..] else {
            unreachable!()
        };
        let index = s.cached_applicability_index(b).unwrap();
        assert!(!index.is_fully_indexed());
        let proj_bits = index.projection_bits(&attrs(&s, &["x"]));
        assert_eq!(index.verdict(h1, &proj_bits), None, "h1 must fall back");
        // The fallback still yields the right overall answer.
        assert_indexed_agrees(&s, b, &attrs(&s, &["x"]));
    }

    #[test]
    fn index_footprints_on_paper_example() {
        // Example 1 (fig. 3) from source A: the accessor and `u`-suite
        // methods are single-candidate (indexable), while `v1`, `v2`,
        // `w2`, `x1` and `y1` sit behind disjunctive calls (the `u`, `v`
        // and `x` generic functions each have several candidates from A)
        // and must take the fallback seam.
        use td_workload::figures;
        let s = figures::fig3();
        let a = s.type_id("A").unwrap();
        let index = s.cached_applicability_index(a).unwrap();
        assert!(!index.is_fully_indexed());
        assert_eq!(index.fallback_methods(), 5);
        let fp_names = |label: &str| -> BTreeSet<String> {
            let m = s.method_by_label(label).unwrap();
            index
                .footprint(m)
                .expect("method in universe")
                .iter()
                .map(|i| s.attr_name(i).to_string())
                .collect()
        };
        let set =
            |names: &[&str]| -> BTreeSet<String> { names.iter().map(|n| n.to_string()).collect() };
        // An accessor's footprint is its own attribute…
        assert_eq!(fp_names("get_h2"), set(&["h2"]));
        // …and a single-candidate chain unions transitively:
        // u3(B) = { w(…) } → w2(C) = { get_h2(B) } needs exactly h2.
        assert_eq!(fp_names("u3"), set(&["h2"]));
        assert_eq!(fp_names("u1"), set(&["a1"]));

        // Verdicts under the fig. 4 projection: indexed methods answer by
        // bitset test and match the paper; fallback methods answer None.
        let proj: BTreeSet<AttrId> = figures::FIG4_PROJECTION
            .iter()
            .map(|n| s.attr_id(n).unwrap())
            .collect();
        let bits = index.projection_bits(&proj);
        let fallback = ["v1", "v2", "w2", "x1", "y1"];
        for &m in index.universe() {
            let label = s.method_label(m);
            if fallback.contains(&label) {
                assert_eq!(index.verdict(m, &bits), None, "{label} must fall back");
            } else {
                let expected = figures::EX1_APPLICABLE.contains(&label);
                assert_eq!(
                    index.verdict(m, &bits),
                    Some(expected),
                    "verdict for {label}"
                );
            }
        }
    }
}
