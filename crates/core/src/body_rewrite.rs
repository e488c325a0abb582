//! Method-body processing (§6.3, §6.4): computing `Y`/`Z` and re-typing
//! variables and result types.
//!
//! After `FactorMethods` converts signatures to surrogates, declarations
//! inside applicable method bodies may become inconsistent ("if we change
//! the signature of `z1` to `z1(Ĉ)`, we introduce a type error in `g ← c`
//! if `Ĉ` is not a subtype of `Ĝ`"). The fix (paper §6.3–6.4):
//!
//! 1. let `X` = types with a `FactorState` surrogate, `F` = applicable
//!    methods;
//! 2. compute `Y` = types transitively assigned a value of an `X` type by
//!    a method in `F` (definition-use flow analysis) and `Z = Y − X`;
//! 3. run [`crate::augment::augment`] so every `Z` type gets a surrogate
//!    wired consistently into the lattice;
//! 4. re-type, in each applicable method, the local variables in the
//!    reachability set of the converted parameters — and the method's
//!    result type when a returned value flows from a converted parameter.
//!
//! Lint's TDL005 and analyze's TDL205 predict `X` before anything is
//! derived with [`compute_x`]: the types on a supertype path from the
//! source to an owner of a projected attribute, found by one walk up the
//! source's ancestors, so a request's cost does not grow with the types
//! beside or below its source.

use std::collections::{BTreeSet, HashMap};
use td_model::{AttrId, MethodId, Schema, TypeId, ValueType, VarId};

use crate::error::{CoreError, Result};
use crate::surrogates::SurrogateRegistry;

/// The flow analysis of §6.4: given the applicable methods `F` (with their
/// *pre-factorization* assignment edges — collect these before rewriting
/// signatures) and `X`, computes `(Y, Z)`.
pub fn compute_y_and_z(
    edges: &[(TypeId, TypeId)],
    x: &BTreeSet<TypeId>,
) -> (BTreeSet<TypeId>, BTreeSet<TypeId>) {
    // U ∈ Y when some edge (U, V) has V ∈ X ∪ Y — iterate to fixpoint.
    let mut y: BTreeSet<TypeId> = BTreeSet::new();
    loop {
        let mut changed = false;
        for &(target, value) in edges {
            if !y.contains(&target) && (x.contains(&value) || y.contains(&value)) {
                y.insert(target);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let z: BTreeSet<TypeId> = y.difference(x).copied().collect();
    (y, z)
}

/// The `X` of [`compute_y_and_z`] as `FactorState` will seed it, read off
/// the hierarchy before deriving: the live types at or above `source`
/// and at or below an owner of a projected attribute — the types on a
/// supertype path from `source` to an owner. One walk up `source`'s
/// ancestors ([`Schema::ancestors_reaching`]) finds them, so lint and
/// analyze pay for what lies above the source, not for the schema.
pub fn compute_x(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
) -> BTreeSet<TypeId> {
    schema
        .ancestors_reaching(source, projection.iter().map(|&a| schema.attr(a).owner))
        .iter()
        .filter(|&u| schema.is_live(u))
        .collect()
}

/// Collects the §6.4 definition-use edges over the applicable methods.
/// Must run *before* `factor_methods` so the static types are the
/// original ones.
pub fn collect_flow_edges(schema: &Schema, applicable: &[MethodId]) -> Vec<(TypeId, TypeId)> {
    let mut edges = Vec::new();
    for &m in applicable {
        edges.extend(schema.assignment_edges(m));
    }
    edges
}

/// One re-typed local: `(method, var, old type, new type)`.
pub type LocalRetype = (MethodId, VarId, TypeId, TypeId);
/// One re-typed method result: `(method, old type, new type)`.
pub type ResultRetype = (MethodId, TypeId, TypeId);

/// What the §6.3 pass changed.
#[derive(Debug, Clone, Default)]
pub struct RetypeOutcome {
    /// Local-variable declaration changes.
    pub locals: Vec<LocalRetype>,
    /// Method result-type changes.
    pub results: Vec<ResultRetype>,
}

/// Re-types local variables (and result types) of the applicable methods.
/// `converted` maps each rewritten method to the argument positions whose
/// specializers were converted to surrogates.
///
/// Requires `augment` to have run: every object-typed local in a converted
/// parameter's reachability set must already have a surrogate, otherwise
/// [`CoreError::MissingSurrogate`] is returned.
pub fn retype_bodies(
    schema: &mut Schema,
    registry: &SurrogateRegistry,
    converted: &HashMap<MethodId, Vec<usize>>,
) -> Result<RetypeOutcome> {
    let mut outcome = RetypeOutcome::default();
    let mut methods: Vec<&MethodId> = converted.keys().collect();
    methods.sort();
    for &m in methods {
        let positions = &converted[&m];
        if positions.is_empty() {
            continue;
        }
        // Locals in the reachability set of the converted parameters.
        for v in schema.locals_reached_by_params(m, positions) {
            let old_ty = schema
                .method(m)
                .body()
                .and_then(|b| b.locals.get(v.index()))
                .map(|l| l.ty);
            let Some(ValueType::Object(u)) = old_ty else {
                continue; // primitive locals need no re-typing
            };
            let Some(hat) = registry.surrogate(u) else {
                return Err(CoreError::MissingSurrogate(u));
            };
            if hat == u {
                continue;
            }
            if let Some(body) = schema.method_mut(m).body_mut() {
                body.locals[v.index()].ty = ValueType::Object(hat);
            }
            outcome.locals.push((m, v, u, hat));
        }
        // "The result type of the method is processed in the same way."
        if schema.returns_tainted(m, positions) {
            if let Some(ValueType::Object(u)) = schema.method(m).result {
                let Some(hat) = registry.surrogate(u) else {
                    return Err(CoreError::MissingSurrogate(u));
                };
                if hat != u {
                    schema.method_mut(m).result = Some(ValueType::Object(hat));
                    outcome.results.push((m, u, hat));
                }
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::augment;
    use crate::factor_methods::{converted_positions, factor_methods};
    use crate::factor_state::{factor_state, FactorStateOutcome};
    use td_model::{AttrId, BodyBuilder, Expr, MethodKind, Specializer};

    #[test]
    fn y_and_z_fixpoint_is_transitive() {
        let t = |i| TypeId(i);
        // Edges: Y1 <- X0; Y2 <- Y1; unrelated 9 <- 8.
        let edges = vec![(t(1), t(0)), (t(2), t(1)), (t(9), t(8))];
        let x: BTreeSet<TypeId> = [t(0)].into_iter().collect();
        let (y, z) = compute_y_and_z(&edges, &x);
        assert_eq!(y, [t(1), t(2)].into_iter().collect());
        assert_eq!(z, [t(1), t(2)].into_iter().collect());
        // A target already in X never lands in Z.
        let edges = vec![(t(0), t(0))];
        let (_, z) = compute_y_and_z(&edges, &x);
        assert!(z.is_empty());
    }

    /// The paper's §6.3 scenario in miniature:
    ///   G <- C <- B (chain), attribute x at C;
    ///   z1(c: C) = { g: G; g <- c; return g }  with result type G.
    /// Projection over B of {x}: FactorState creates ^B and ^C; the body
    /// of z1 forces Z = {G}, Augment creates ^G, and re-typing turns the
    /// local g and the result into ^G.
    #[test]
    fn end_to_end_body_rewrite() {
        let mut s = Schema::new();
        let g_ty = s.add_type("G", &[]).unwrap();
        let c_ty = s.add_type("C", &[g_ty]).unwrap();
        let b_ty = s.add_type("B", &[c_ty]).unwrap();
        let x = s.add_attr("x", ValueType::INT, c_ty).unwrap();
        let z_gf = s.add_gf("z", 1, Some(ValueType::Object(g_ty))).unwrap();
        let mut bb = BodyBuilder::new();
        let g_var = bb.local("g", ValueType::Object(g_ty));
        bb.assign(g_var, Expr::Param(0));
        bb.ret(Expr::Var(g_var));
        let z1 = s
            .add_method(
                z_gf,
                "z1",
                vec![Specializer::Type(c_ty)],
                MethodKind::General(bb.finish()),
                Some(ValueType::Object(g_ty)),
            )
            .unwrap();
        s.validate().unwrap();

        let proj: BTreeSet<AttrId> = [x].into_iter().collect();
        let mut reg = SurrogateRegistry::new();
        let mut fs_out = FactorStateOutcome::default();
        factor_state(&mut s, &mut reg, &proj, b_ty, &mut fs_out).unwrap();
        assert!(reg.surrogate(g_ty).is_none());

        // Flow edges collected before factoring signatures.
        let edges = collect_flow_edges(&s, &[z1]);
        let x_set: BTreeSet<TypeId> = reg
            .pairs(crate::surrogates::SurrogateKind::Factor)
            .into_iter()
            .map(|(src, _)| src)
            .collect();
        let (_, z_set) = compute_y_and_z(&edges, &x_set);
        assert_eq!(z_set, [g_ty].into_iter().collect());

        augment(&mut s, &mut reg, b_ty, &z_set).unwrap();
        let changes = factor_methods(&mut s, &reg, b_ty, &[z1]);
        let mut converted = HashMap::new();
        for (m, old, _) in &changes {
            converted.insert(*m, converted_positions(&s, &reg, b_ty, old));
        }
        let out = retype_bodies(&mut s, &reg, &converted).unwrap();

        let g_hat = reg.surrogate(g_ty).unwrap();
        assert_eq!(out.locals.len(), 1);
        assert_eq!(out.locals[0], (z1, VarId(0), g_ty, g_hat));
        assert_eq!(out.results, vec![(z1, g_ty, g_hat)]);
        // The rewritten schema typechecks: ^C <= ^G makes `g <- c` legal.
        s.validate().unwrap();
        let c_hat = reg.surrogate(c_ty).unwrap();
        assert!(s.is_subtype(c_hat, g_hat));
    }

    #[test]
    fn missing_surrogate_is_reported() {
        // Same scenario but skip augment: re-typing must fail loudly.
        let mut s = Schema::new();
        let g_ty = s.add_type("G", &[]).unwrap();
        let c_ty = s.add_type("C", &[g_ty]).unwrap();
        let x = s.add_attr("x", ValueType::INT, c_ty).unwrap();
        let z_gf = s.add_gf("z", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        let g_var = bb.local("g", ValueType::Object(g_ty));
        bb.assign(g_var, Expr::Param(0));
        let z1 = s
            .add_method(
                z_gf,
                "z1",
                vec![Specializer::Type(c_ty)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let proj: BTreeSet<AttrId> = [x].into_iter().collect();
        let mut reg = SurrogateRegistry::new();
        let mut fs_out = FactorStateOutcome::default();
        factor_state(&mut s, &mut reg, &proj, c_ty, &mut fs_out).unwrap();
        let changes = factor_methods(&mut s, &reg, c_ty, &[z1]);
        let mut converted = HashMap::new();
        for (m, old, _) in &changes {
            converted.insert(*m, converted_positions(&s, &reg, c_ty, old));
        }
        let err = retype_bodies(&mut s, &reg, &converted).unwrap_err();
        assert_eq!(err, CoreError::MissingSurrogate(g_ty));
    }
}
