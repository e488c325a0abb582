//! An independent reference implementation of method applicability.
//!
//! The paper's stack-based `IsApplicable` computes, in effect, the
//! **greatest fixpoint** of "a method is applicable if its accessed
//! attribute is projected / every relevant call has some applicable
//! candidate": cycles are assumed applicable until contradicted. This
//! module computes that fixpoint directly — start from *every* method
//! applicable to the source type and iteratively delete methods whose
//! requirements fail until nothing changes.
//!
//! The two implementations share the call-site analysis and candidate
//! rule but nothing else; property tests assert they always agree, which
//! is the strongest check we have on the optimistic-cycle bookkeeping.
//!
//! It is a reference, not a serving path: every read (`applicable`,
//! `project`, `batch`, `lint`, `analyze`, `explain`) classifies with the
//! condensation index. The fixpoint's callers are the test suites, the
//! applicability benches and the reproduction harness: its Example 1
//! cross-check and the DEV ablation ([`crate::ablation`]), which judges
//! the paper's literal retraction against it.

use std::collections::BTreeSet;
use td_model::{AttrId, CallArg, MethodId, Schema, TypeId};

use crate::applicability::call_candidates;
use crate::error::Result;

/// Computes the applicable-method set for `Π_projection(source)` by
/// greatest-fixpoint iteration. Returns the surviving methods as a sorted
/// set.
pub fn applicability_fixpoint(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
) -> Result<BTreeSet<MethodId>> {
    let universe: Vec<MethodId> = schema.methods_applicable_to_type(source);
    let mut alive: BTreeSet<MethodId> = universe.iter().copied().collect();

    // Pre-compute relevant call sites and their candidate sets once.
    let mut requirements: Vec<(MethodId, Vec<Vec<MethodId>>)> = Vec::new();
    let mut scratch: Vec<CallArg> = Vec::new();
    for &m in &universe {
        let method = schema.method(m);
        if let Some(attr) = method.kind.accessed_attr() {
            if !projection.contains(&attr) {
                alive.remove(&m);
            }
            continue;
        }
        let mut candidate_sets = Vec::new();
        for site in schema.call_sites(m, source)? {
            if site.source_positions.is_empty() {
                continue;
            }
            let (candidates, _) = call_candidates(schema, source, &site, &mut scratch);
            candidate_sets.push(candidates);
        }
        requirements.push((m, candidate_sets));
    }

    // Delete until stable.
    loop {
        let mut changed = false;
        for (m, candidate_sets) in &requirements {
            if !alive.contains(m) {
                continue;
            }
            let ok = candidate_sets
                .iter()
                .all(|cands| cands.iter().any(|c| alive.contains(c)));
            if !ok {
                alive.remove(m);
                changed = true;
            }
        }
        if !changed {
            return Ok(alive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::applicability::compute_applicability;
    use td_model::{BodyBuilder, Expr, MethodKind, Specializer, ValueType};

    #[test]
    fn oracle_agrees_with_stack_algorithm_on_cycles() {
        // Mixed case: a surviving pure cycle plus a dying one.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let y = s.add_attr("y", ValueType::INT, a).unwrap();
        let (get_y, _) = s.add_reader(y, a).unwrap();
        let p = s.add_gf("p", 1, None).unwrap();
        let q = s.add_gf("q", 1, None).unwrap();
        let r_gf = s.add_gf("r", 1, None).unwrap();
        // p1 <-> q1 pure cycle (survives); r1 -> r and get_y (dies).
        let mut bb = BodyBuilder::new();
        bb.call(q, vec![Expr::Param(0)]);
        s.add_method(
            p,
            "p1",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(p, vec![Expr::Param(0)]);
        s.add_method(
            q,
            "q1",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(r_gf, vec![Expr::Param(0)]);
        bb.call(get_y, vec![Expr::Param(0)]);
        s.add_method(
            r_gf,
            "r1",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();

        let proj = BTreeSet::new();
        let stack = compute_applicability(&s, a, &proj, false).unwrap();
        let fix = applicability_fixpoint(&s, a, &proj).unwrap();
        let stack_set: BTreeSet<MethodId> = stack.applicable.iter().copied().collect();
        assert_eq!(stack_set, fix);
        assert_eq!(fix.len(), 2); // p1 and q1
    }

    #[test]
    fn oracle_handles_accessors() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (_, mx) = s.add_reader(x, a).unwrap();
        let proj: BTreeSet<AttrId> = [x].into_iter().collect();
        let fix = applicability_fixpoint(&s, a, &proj).unwrap();
        assert!(fix.contains(&mx));
        let fix = applicability_fixpoint(&s, a, &BTreeSet::new()).unwrap();
        assert!(!fix.contains(&mx));
    }
}
