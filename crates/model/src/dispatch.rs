//! Multi-method applicability and dispatch (§2, §4).
//!
//! Two distinct notions of applicability appear in the paper and both live
//! here:
//!
//! * **applicable to a type** — `m_k(T¹_k … Tⁿ_k)` is applicable to type
//!   `T` if some `T ≤ Tⁱ_k`. This selects the methods whose behavior a
//!   derived type *might* inherit; `IsApplicable` in `td-core` then filters
//!   by what the bodies actually touch.
//! * **applicable to a call** — `m_k` is applicable to the call
//!   `m(T¹ … Tⁿ)` if `∀i. Tⁱ ≤ Tⁱ_k`.
//!
//! Among several methods applicable to a call, precedence is decided by the
//! standard argument-ordered comparison: compare the CPL positions of the
//! specializers in the actual argument types' CPLs, left to right.

use crate::attrs::PrimType;
use crate::cache::Ranks;
use crate::dataflow::CallSite;
use crate::error::Result;
use crate::ids::{GfId, MethodId, TypeId};
use crate::methods::Specializer;
use crate::schema::Schema;
use std::sync::Arc;

/// The (static or dynamic) type of one actual argument of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallArg {
    /// An object of the given type (an instance of it or, statically, an
    /// expression of that declared type).
    Object(TypeId),
    /// A primitive of the given kind.
    Prim(PrimType),
    /// The null reference — compatible with every object specializer.
    Null,
}

impl CallArg {
    fn matches(self, schema: &Schema, spec: Specializer) -> bool {
        match (self, spec) {
            (CallArg::Object(t), Specializer::Type(s)) => schema.is_subtype(t, s),
            (CallArg::Prim(p), Specializer::Prim(q)) => p == q,
            (CallArg::Null, Specializer::Type(_)) => true,
            _ => false,
        }
    }
}

impl Schema {
    /// True iff method `m` is *applicable to the type* `t`: some object
    /// specializer `Tⁱ` of `m` satisfies `t ≤ Tⁱ` (§4).
    pub fn method_applicable_to_type(&self, m: MethodId, t: TypeId) -> bool {
        self.method(m)
            .type_specializers()
            .any(|(_, spec)| self.is_subtype(t, spec))
    }

    /// All methods (of any generic function) applicable to the type `t`,
    /// in method-id order. These are the candidates `IsApplicable` tests
    /// for a projection over `t`.
    ///
    /// §4's "some specializer is a supertype of `t`" is one walk up `t`'s
    /// ancestors ([`Schema::ancestor_set`]) plus one pass over the
    /// methods, where testing each method with
    /// [`Schema::method_applicable_to_type`] runs a DFS per specializer.
    /// The walk reads edges, not the CPL, so a type with inconsistent
    /// precedence (no CPL) still gets an answer. A specializer id outside
    /// the type arena is above nothing, as it is for `is_subtype`.
    pub fn methods_applicable_to_type(&self, t: TypeId) -> Vec<MethodId> {
        let above = self.ancestor_set(t);
        self.method_ids()
            .filter(|&m| {
                self.method(m)
                    .type_specializers()
                    .any(|(_, s)| above.contains(s))
            })
            .collect()
    }

    /// True iff method `m` is applicable to a call of its generic function
    /// with the given actual argument types.
    pub fn method_applicable_to_call(&self, m: MethodId, args: &[CallArg]) -> bool {
        let specs = &self.method(m).specializers;
        specs.len() == args.len()
            && args
                .iter()
                .zip(specs.iter())
                .all(|(&a, &s)| a.matches(self, s))
    }

    /// The methods of `gf` applicable to a call with the given argument
    /// types, in definition order (unranked). Served from the dispatch
    /// cache; the first call per `(gf, args)` per schema generation scans
    /// the method list, later calls are a table lookup.
    pub fn applicable_methods(&self, gf: GfId, args: &[CallArg]) -> Vec<MethodId> {
        self.cached_applicable(gf, args).as_ref().clone()
    }

    /// [`Schema::applicable_methods`] bypassing the dispatch cache
    /// (neither reads nor populates it). Kept public so tests and
    /// benchmarks can compare cached and uncached results.
    pub fn applicable_methods_uncached(&self, gf: GfId, args: &[CallArg]) -> Vec<MethodId> {
        self.gf(gf)
            .methods
            .iter()
            .copied()
            .filter(|&m| self.method_applicable_to_call(m, args))
            .collect()
    }

    /// The candidate methods for one call site of a method body, per the
    /// §4.1 case analysis of `IsApplicable`: with exactly one
    /// source-relevant argument position `j`, the candidates are the
    /// methods applicable to the call with the source type substituted at
    /// `j` (case 1, returning `Some(j)`); with several, the candidates are
    /// the methods applicable to the call as written (case 2, `None`) —
    /// which is what guarantees applicability for *every* combination of
    /// substitutions. Sites with no source-relevant position impose no
    /// constraint and return an empty candidate list.
    ///
    /// `scratch` is a caller-owned buffer reused for the case-1 argument
    /// substitution, so the per-site `args` clone is amortized away across
    /// a whole applicability walk. Every applicability engine (stack,
    /// fixpoint oracle, condensation index) funnels through this one
    /// function, so all of them agree on what a call requires by
    /// construction.
    pub fn site_candidates(
        &self,
        source: TypeId,
        site: &CallSite,
        scratch: &mut Vec<CallArg>,
    ) -> (Vec<MethodId>, Option<usize>) {
        match site.source_positions.len() {
            0 => (Vec::new(), None),
            1 => {
                let j = site.source_positions[0];
                scratch.clear();
                scratch.extend_from_slice(&site.args);
                scratch[j] = CallArg::Object(source);
                (self.applicable_methods(site.gf, scratch), Some(j))
            }
            _ => (self.applicable_methods(site.gf, &site.args), None),
        }
    }

    /// Per-type specificity ranks for one argument's CPL, with surrogate
    /// collapse: a surrogate type ranks **equal to its source** when the
    /// source also appears in the CPL.
    ///
    /// Rationale: factorization splits a type `Q` into `Q̂ + Q` whose
    /// combination is observationally the original `Q` (§5), and inserts
    /// `Q̂` immediately after `Q` in every CPL containing both. Ranking
    /// `Q̂` at `Q`'s position extends that transparency to method
    /// precedence — without it, rewriting an applicable method's
    /// specializer from `Q` to `Q̂` (§6.1) would demote it by one rank and
    /// could flip a tie it previously won at a later argument position,
    /// changing dispatch for pre-existing types. For derived types (whose
    /// CPLs contain only surrogates) the collapse is inert and positions
    /// rank as-is.
    pub(crate) fn collapsed_ranks(&self, cpl: &[TypeId]) -> Ranks {
        let mut ranks: Vec<(TypeId, usize)> = Vec::with_capacity(cpl.len());
        let mut next = 0usize;
        for &t in cpl {
            let collapsed = self
                .type_(t)
                .surrogate_source()
                .and_then(|src| ranks.iter().find(|&&(x, _)| x == src).map(|&(_, r)| r));
            match collapsed {
                Some(r) => ranks.push((t, r)),
                None => {
                    ranks.push((t, next));
                    next += 1;
                }
            }
        }
        ranks
    }

    /// Ranks an already-computed applicable set by left-to-right argument
    /// CPL comparison. `ranks_of` supplies the per-type collapsed rank
    /// table — the cached path shares memoized tables, the uncached path
    /// recomputes them — so both paths rank identically by construction.
    pub(crate) fn rank_methods(
        &self,
        applicable: Vec<MethodId>,
        args: &[CallArg],
        mut ranks_of: impl FnMut(&Schema, TypeId) -> Result<Arc<Ranks>>,
    ) -> Result<Vec<MethodId>> {
        if applicable.len() <= 1 {
            return Ok(applicable);
        }
        // Collapsed rank tables of the object-typed argument positions.
        let mut cpls: Vec<Option<Arc<Ranks>>> = Vec::with_capacity(args.len());
        for &a in args {
            cpls.push(match a {
                CallArg::Object(t) => Some(ranks_of(self, t)?),
                CallArg::Prim(_) | CallArg::Null => None,
            });
        }
        // An applicable method's specializer is in its argument's rank
        // table unless the table is corrupt (a tampered snapshot): that
        // is the error `specificity_vector` returns, not a panic.
        let rank_vec = |m: MethodId| -> Result<Vec<usize>> {
            self.method(m)
                .specializers
                .iter()
                .enumerate()
                .map(|(i, spec)| match (spec, &cpls[i]) {
                    (Specializer::Type(s), Some(ranks)) => ranks
                        .iter()
                        .find(|&&(x, _)| x == *s)
                        .map(|&(_, r)| r)
                        .ok_or(crate::error::ModelError::BadTypeId(*s)),
                    _ => Ok(0),
                })
                .collect()
        };
        let mut keyed: Vec<(Vec<usize>, MethodId)> = applicable
            .into_iter()
            .map(|m| Ok((rank_vec(m)?, m)))
            .collect::<Result<_>>()?;
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        Ok(keyed.into_iter().map(|(_, m)| m).collect())
    }

    /// The specificity vector `rank_applicable` orders a method by: one
    /// collapsed-CPL rank per argument position (0 = most specific;
    /// prim/null positions always rank 0). `m` must be applicable to the
    /// call. Exposed for the lint analyzer, which needs *pointwise*
    /// comparison rather than the lexicographic order dispatch uses: a
    /// call has an unambiguous winner only when some applicable method's
    /// vector is pointwise ≤ every other's.
    pub fn specificity_vector(&self, m: MethodId, args: &[CallArg]) -> Result<Vec<usize>> {
        if m.index() >= self.n_methods() {
            return Err(crate::error::ModelError::BadMethodId(m));
        }
        let method = self.method(m);
        let mut out = Vec::with_capacity(method.specializers.len());
        for (i, spec) in method.specializers.iter().enumerate() {
            let rank = match (spec, args.get(i)) {
                (Specializer::Type(s), Some(CallArg::Object(t))) => {
                    let ranks = self.cached_ranks(*t)?;
                    ranks
                        .iter()
                        .find(|&&(x, _)| x == *s)
                        .map(|&(_, r)| r)
                        .ok_or(crate::error::ModelError::BadTypeId(*s))?
                }
                _ => 0,
            };
            out.push(rank);
        }
        Ok(out)
    }

    /// The rank table dispatch orders methods by at an argument of type
    /// `t`: every type of `t`'s CPL with its surrogate-collapsed rank
    /// (0 = most specific). A specializer appears in it iff `t` is below
    /// it. Served from the CPL memo. Exposed for the invariant checker,
    /// which compares these tables instead of replaying call tuples.
    pub fn specificity_ranks(&self, t: TypeId) -> Result<Arc<Vec<(TypeId, usize)>>> {
        self.cached_ranks(t)
    }

    /// The methods of `gf` applicable to the call, ranked most-specific
    /// first by left-to-right argument CPL comparison (with surrogate
    /// collapse — see `Schema::collapsed_ranks`'s source). Ties keep
    /// definition order. Served from the dispatch cache.
    pub fn rank_applicable(&self, gf: GfId, args: &[CallArg]) -> Result<Vec<MethodId>> {
        Ok(self.cached_ranked(gf, args)?.as_ref().clone())
    }

    /// [`Schema::rank_applicable`] bypassing the dispatch cache entirely
    /// (CPLs and rank tables are recomputed from the hierarchy). Kept
    /// public so the cached-vs-uncached equivalence property tests and
    /// the benchmarks have a ground truth to compare against.
    pub fn rank_applicable_uncached(&self, gf: GfId, args: &[CallArg]) -> Result<Vec<MethodId>> {
        let applicable = self.applicable_methods_uncached(gf, args);
        self.rank_methods(applicable, args, |s, t| {
            Ok(Arc::new(s.collapsed_ranks(&s.compute_cpl(t)?)))
        })
    }

    /// The most specific applicable method for the call, if any. Served
    /// from the dispatch cache.
    pub fn most_specific(&self, gf: GfId, args: &[CallArg]) -> Result<Option<MethodId>> {
        Ok(self.cached_ranked(gf, args)?.first().copied())
    }

    /// [`Schema::most_specific`] bypassing the dispatch cache entirely.
    pub fn most_specific_uncached(&self, gf: GfId, args: &[CallArg]) -> Result<Option<MethodId>> {
        Ok(self.rank_applicable_uncached(gf, args)?.into_iter().next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::ValueType;
    use crate::methods::MethodKind;

    /// B <= A; gf `f` with methods on A and B; gf `g2(A,A)` multi-method.
    struct Fix {
        s: Schema,
        a: TypeId,
        b: TypeId,
        f: GfId,
        f_a: MethodId,
        f_b: MethodId,
    }

    fn fix() -> Fix {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let f_a = s
            .add_method(
                f,
                "f_a",
                vec![Specializer::Type(a)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let f_b = s
            .add_method(
                f,
                "f_b",
                vec![Specializer::Type(b)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        Fix {
            s,
            a,
            b,
            f,
            f_a,
            f_b,
        }
    }

    #[test]
    fn applicable_to_type_uses_any_position() {
        let Fix {
            s, a, b, f_a, f_b, ..
        } = fix();
        assert!(s.method_applicable_to_type(f_a, b)); // b <= a
        assert!(s.method_applicable_to_type(f_b, b));
        assert!(s.method_applicable_to_type(f_a, a));
        assert!(!s.method_applicable_to_type(f_b, a)); // a is not <= b
    }

    #[test]
    fn call_applicability_and_ranking() {
        let Fix {
            s,
            a,
            b,
            f,
            f_a,
            f_b,
        } = fix();
        let on_b = [CallArg::Object(b)];
        assert_eq!(s.applicable_methods(f, &on_b), vec![f_a, f_b]);
        assert_eq!(s.rank_applicable(f, &on_b).unwrap(), vec![f_b, f_a]);
        assert_eq!(s.most_specific(f, &on_b).unwrap(), Some(f_b));
        let on_a = [CallArg::Object(a)];
        assert_eq!(s.rank_applicable(f, &on_a).unwrap(), vec![f_a]);
        assert_eq!(s.most_specific(f, &on_a).unwrap(), Some(f_a));
    }

    #[test]
    fn multi_method_left_to_right_precedence() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let g = s.add_gf("g", 2, None).unwrap();
        // g1(B, A) vs g2(A, B): for call (B, B), left argument wins.
        let g1 = s
            .add_method(
                g,
                "g1",
                vec![Specializer::Type(b), Specializer::Type(a)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let g2 = s
            .add_method(
                g,
                "g2",
                vec![Specializer::Type(a), Specializer::Type(b)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let args = [CallArg::Object(b), CallArg::Object(b)];
        assert_eq!(s.rank_applicable(g, &args).unwrap(), vec![g1, g2]);
    }

    #[test]
    fn prim_and_null_args() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        s.add_accessors(x).unwrap();
        let set = s.gf_id("set_x").unwrap();
        let ok = [CallArg::Object(a), CallArg::Prim(PrimType::Int)];
        assert_eq!(s.applicable_methods(set, &ok).len(), 1);
        let bad_kind = [CallArg::Object(a), CallArg::Prim(PrimType::Str)];
        assert!(s.applicable_methods(set, &bad_kind).is_empty());
        let null_recv = [CallArg::Null, CallArg::Prim(PrimType::Int)];
        assert_eq!(s.applicable_methods(set, &null_recv).len(), 1);
    }

    #[test]
    fn wrong_arity_call_never_applicable() {
        let Fix { s, b, f_a, .. } = fix();
        assert!(!s.method_applicable_to_call(f_a, &[CallArg::Object(b), CallArg::Object(b)]));
        assert!(!s.method_applicable_to_call(f_a, &[]));
    }

    #[test]
    fn surrogate_insertion_preserves_most_specific() {
        // The transparency property factorization relies on: retargeting a
        // method from A to a fresh highest-precedence surrogate ^A does not
        // change dispatch for existing types.
        let Fix {
            mut s,
            a,
            b,
            f,
            f_a,
            f_b,
        } = fix();
        let hat = s.add_surrogate("^A", a).unwrap();
        s.add_super_highest(a, hat).unwrap();
        s.method_mut(f_a).specializers = vec![Specializer::Type(hat)];
        assert_eq!(
            s.most_specific(f, &[CallArg::Object(b)]).unwrap(),
            Some(f_b)
        );
        assert_eq!(
            s.most_specific(f, &[CallArg::Object(a)]).unwrap(),
            Some(f_a)
        );
    }
}
