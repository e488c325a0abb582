//! Explanations: *why* a method did or did not survive a projection.
//!
//! The paper argues that leaving method selection to the type definer is
//! error-prone (§1.1). The flip side is that an automatic inference must
//! be able to justify itself, or schema designers will not trust it. An
//! [`Explanation`] is a finite proof tree grounded in the fixpoint
//! semantics: a method fails either because it is an accessor for an
//! unprojected attribute, or because some relevant call has no surviving
//! candidate — and each candidate's failure is explained recursively.
//!
//! The verdicts come from [`compute_applicability_indexed`], the
//! classifier every other read uses, so an explanation reads the
//! source's cached condensation index and its universe instead of
//! rescanning every method of the schema. The greatest-fixpoint oracle
//! ([`crate::applicability_fixpoint`]) classifies identically (the
//! property suites check it), so the proofs are the same.

use std::collections::{BTreeSet, HashSet};
use td_model::{AttrId, GfId, MethodId, Schema, TypeId};

use crate::applicability::{call_candidates, compute_applicability_indexed, Applicability};
use crate::error::Result;

/// A proof tree for one method's applicability verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Explanation {
    /// The method survives the projection.
    Applicable {
        /// The method.
        method: MethodId,
    },
    /// The method is not applicable to the source type at all, so the
    /// question does not arise.
    NotInUniverse {
        /// The method.
        method: MethodId,
        /// The projection source.
        source: TypeId,
    },
    /// An accessor whose attribute is outside the projection list.
    AccessorOutsideProjection {
        /// The accessor method.
        method: MethodId,
        /// The attribute it reads or writes.
        attr: AttrId,
    },
    /// A general method with a relevant call none of whose candidates
    /// survives; each candidate failure is explained.
    CallUnsatisfied {
        /// The failing method.
        method: MethodId,
        /// The called generic function.
        gf: GfId,
        /// Why each candidate fails (empty = the call has no candidate
        /// methods at all).
        candidates: Vec<Explanation>,
    },
    /// The method was already explained higher up this proof tree
    /// (cycles are cut here).
    ExplainedAbove {
        /// The method.
        method: MethodId,
    },
}

impl Explanation {
    /// The method this node explains.
    pub fn method(&self) -> MethodId {
        match self {
            Explanation::Applicable { method }
            | Explanation::NotInUniverse { method, .. }
            | Explanation::AccessorOutsideProjection { method, .. }
            | Explanation::CallUnsatisfied { method, .. }
            | Explanation::ExplainedAbove { method } => *method,
        }
    }

    /// True when the verdict is "applicable".
    pub fn is_applicable(&self) -> bool {
        matches!(self, Explanation::Applicable { .. })
    }

    /// Renders the proof tree as indented text.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        self.render_into(schema, 0, &mut out);
        out
    }

    fn render_into(&self, schema: &Schema, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        match self {
            Explanation::Applicable { method } => {
                let _ = writeln!(
                    out,
                    "{pad}{} is applicable",
                    schema.render_signature(*method)
                );
            }
            Explanation::NotInUniverse { method, source } => {
                let _ = writeln!(
                    out,
                    "{pad}{} is not applicable to the source type {} in the first place",
                    schema.render_signature(*method),
                    schema.type_name(*source)
                );
            }
            Explanation::AccessorOutsideProjection { method, attr } => {
                let _ = writeln!(
                    out,
                    "{pad}{} accesses attribute `{}`, which is not in the projection list",
                    schema.render_signature(*method),
                    schema.attr_name(*attr)
                );
            }
            Explanation::CallUnsatisfied {
                method,
                gf,
                candidates,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}{} calls `{}`, and no candidate method survives:",
                    schema.render_signature(*method),
                    schema.gf_name(*gf)
                );
                if candidates.is_empty() {
                    let _ = writeln!(out, "{pad}  (the call has no candidate methods at all)");
                }
                for c in candidates {
                    c.render_into(schema, depth + 1, out);
                }
            }
            Explanation::ExplainedAbove { method } => {
                let _ = writeln!(
                    out,
                    "{pad}{} — see above (recursive)",
                    schema.render_signature(*method)
                );
            }
        }
    }
}

/// Explains the applicability verdict of `method` for
/// `Π_projection(source)`. Classifies with
/// [`compute_applicability_indexed`], so the verdict is the one every
/// other read reports.
pub fn explain(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    method: MethodId,
) -> Result<Explanation> {
    let app = compute_applicability_indexed(schema, source, projection, false)?;
    let mut visiting = HashSet::new();
    explain_rec(schema, source, method, &app, &mut visiting)
}

fn explain_rec(
    schema: &Schema,
    source: TypeId,
    method: MethodId,
    app: &Applicability,
    visiting: &mut HashSet<MethodId>,
) -> Result<Explanation> {
    if app.is_applicable(method) {
        return Ok(Explanation::Applicable { method });
    }
    // The universe is in method-id order.
    if app.universe.binary_search(&method).is_err() {
        return Ok(Explanation::NotInUniverse { method, source });
    }
    if let Some(attr) = schema.method(method).kind.accessed_attr() {
        return Ok(Explanation::AccessorOutsideProjection { method, attr });
    }
    if !visiting.insert(method) {
        return Ok(Explanation::ExplainedAbove { method });
    }

    // Collect the relevant calls with no surviving candidate. Prefer one
    // with a candidate outside the current proof path: an explanation that
    // immediately re-enters the cycle ("y1 fails because x1 fails because
    // y1…") is true but vacuous, while a productive branch bottoms out in
    // concrete evidence (an unprojected attribute).
    let mut failing: Vec<(GfId, Vec<MethodId>)> = Vec::new();
    let mut scratch = Vec::new();
    for site in schema.call_sites(method, source)? {
        if site.source_positions.is_empty() {
            continue;
        }
        let (candidates, _) = call_candidates(schema, source, &site, &mut scratch);
        if !candidates.iter().any(|&c| app.is_applicable(c)) {
            failing.push((site.gf, candidates));
        }
    }
    let chosen = failing
        .iter()
        .position(|(_, cands)| cands.iter().any(|c| !visiting.contains(c)))
        .unwrap_or(0);
    let (gf, candidates) = failing
        .into_iter()
        .nth(chosen)
        .unwrap_or_else(|| unreachable!("a dead non-accessor method must have a failing call"));
    let mut children = Vec::with_capacity(candidates.len());
    for c in candidates {
        children.push(explain_rec(schema, source, c, app, visiting)?);
    }
    visiting.remove(&method);
    Ok(Explanation::CallUnsatisfied {
        method,
        gf,
        candidates: children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_workload::figures;

    fn fig3_setup() -> (Schema, TypeId, BTreeSet<AttrId>) {
        let s = figures::fig3();
        let a = s.type_id("A").unwrap();
        let proj = figures::FIG4_PROJECTION
            .iter()
            .map(|n| s.attr_id(n).unwrap())
            .collect();
        (s, a, proj)
    }

    #[test]
    fn applicable_methods_explain_trivially() {
        let (s, a, proj) = fig3_setup();
        let v1 = s.method_by_label("v1").unwrap();
        let e = explain(&s, a, &proj, v1).unwrap();
        assert!(e.is_applicable());
        assert!(e.render(&s).contains("v1(A, C) is applicable"));
    }

    #[test]
    fn accessor_failure_names_the_attribute() {
        let (s, a, proj) = fig3_setup();
        let get_a1 = s.method_by_label("get_a1").unwrap();
        let e = explain(&s, a, &proj, get_a1).unwrap();
        assert_eq!(
            e,
            Explanation::AccessorOutsideProjection {
                method: get_a1,
                attr: s.attr_id("a1").unwrap()
            }
        );
        assert!(e.render(&s).contains("`a1`"));
    }

    #[test]
    fn call_failure_explains_each_candidate() {
        let (s, a, proj) = fig3_setup();
        // v2(B,C) = {get_b1(B); u(C)} fails because get_b1's attribute is
        // not projected.
        let v2 = s.method_by_label("v2").unwrap();
        let e = explain(&s, a, &proj, v2).unwrap();
        let Explanation::CallUnsatisfied { gf, candidates, .. } = &e else {
            panic!("expected CallUnsatisfied, got {e:?}");
        };
        assert_eq!(s.gf_name(*gf), "get_b1");
        assert_eq!(candidates.len(), 1);
        assert!(matches!(
            candidates[0],
            Explanation::AccessorOutsideProjection { .. }
        ));
        let text = e.render(&s);
        assert!(text.contains("v2(B, C) calls `get_b1`"));
        assert!(text.contains("`b1`"));
    }

    #[test]
    fn recursive_failure_is_cut() {
        let (s, a, proj) = fig3_setup();
        // y1 fails because x1 fails because v(B,A) fails because v2 fails
        // on get_b1; x(A,B) inside y1 leads back to x1.
        let y1 = s.method_by_label("y1").unwrap();
        let e = explain(&s, a, &proj, y1).unwrap();
        let text = e.render(&s);
        assert!(text.contains("y1(A, B) calls `x`"));
        assert!(text.contains("x1(A, B) calls `v`"));
        assert!(text.contains("`b1`"), "chain bottoms out at b1:\n{text}");
    }

    #[test]
    fn unrelated_method_not_in_universe() {
        let (mut s, a, proj) = fig3_setup();
        let u = s.add_type("Unrelated", &[]).unwrap();
        let f = s.add_gf("f_unrelated", 1, None).unwrap();
        let m = s
            .add_method(
                f,
                "f_u",
                vec![td_model::Specializer::Type(u)],
                td_model::MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let e = explain(&s, a, &proj, m).unwrap();
        assert!(matches!(e, Explanation::NotInUniverse { .. }));
    }

    #[test]
    fn verdicts_agree_with_compute_applicability() {
        let (s, a, proj) = fig3_setup();
        let r = crate::compute_applicability(&s, a, &proj, false).unwrap();
        for &m in &r.universe {
            let e = explain(&s, a, &proj, m).unwrap();
            assert_eq!(
                e.is_applicable(),
                r.is_applicable(m),
                "{}",
                s.method_label(m)
            );
        }
    }
}
