//! `FactorMethods` — relocating applicable behavior onto surrogates (§6.1).
//!
//! Because each surrogate is the highest-precedence direct supertype of
//! its source, a method applicable to `T` "can be treated as if it were a
//! method on `T̂`" — so factoring simply rewrites, in every applicable
//! method's signature, each specializer for which `FactorState` created a
//! surrogate to that surrogate. The method's identity (its [`MethodId`])
//! is preserved, which is what lets the invariant checker prove that
//! dispatch over original types still selects the same methods.
//!
//! The §6.1 pseudocode rewrites only specializers with `FactorState`
//! surrogates, because in the paper's examples every supertype of the
//! source reached by an applicable method carries projected state. In
//! general that is not so: a method may specialize on a supertype `U` of
//! the source with **no** projected attribute at or above it, and leaving
//! `U` in the signature would silently drop the method from the derived
//! type (the derived type is a subtype only of *surrogates*). The
//! projection driver therefore extends the §6.4 `Z` set with such
//! "coverage" types, runs `Augment` first, and this pass rewrites every
//! supertype-of-source specializer to its surrogate — factored or
//! augmented.

use td_model::{MethodId, Schema, Specializer, TypeId};

use crate::surrogates::SurrogateRegistry;

/// One signature rewrite: `(method, old specializers, new specializers)`.
pub type SignatureChange = (MethodId, Vec<Specializer>, Vec<Specializer>);

/// Rewrites the signatures of the applicable methods in place. Every
/// object specializer that is a supertype of `source` and has a surrogate
/// is replaced by that surrogate. Returns the changes (methods whose
/// signatures mention no such type are left untouched and unreported).
pub fn factor_methods(
    schema: &mut Schema,
    registry: &SurrogateRegistry,
    source: TypeId,
    applicable: &[MethodId],
) -> Vec<SignatureChange> {
    // Rewriting signatures moves no supertype edge, so one walk up from
    // `source` serves every method.
    let above_source = schema.ancestor_set(source);
    let mut changes = Vec::new();
    for &m in applicable {
        let old = schema.method(m).specializers.clone();
        let mut new = old.clone();
        let mut changed = false;
        for spec in &mut new {
            if let Specializer::Type(t) = spec {
                if !above_source.contains(*t) {
                    continue;
                }
                if let Some(hat) = registry.surrogate(*t) {
                    *spec = Specializer::Type(hat);
                    changed = true;
                }
            }
        }
        if changed {
            schema.method_mut(m).specializers = new.clone();
            changes.push((m, old, new));
        }
    }
    changes
}

/// The argument positions of `old` specializers that were converted to
/// surrogates — the §6.3 "parameters that are to be converted".
pub fn converted_positions(
    schema: &Schema,
    registry: &SurrogateRegistry,
    source: TypeId,
    old: &[Specializer],
) -> Vec<usize> {
    let above_source = schema.ancestor_set(source);
    old.iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            Specializer::Type(t)
                if above_source.contains(*t) && registry.surrogate(*t).is_some() =>
            {
                Some(i)
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogates::SurrogateKind;
    use td_model::{MethodKind, Schema, ValueType};

    #[test]
    fn rewrites_supertype_specializers_with_surrogates() {
        // Source = A; A <= C; U unrelated. f(A, U, C): the A and C
        // positions rewrite, U stays.
        let mut s = Schema::new();
        let c = s.add_type("C", &[]).unwrap();
        let a = s.add_type("A", &[c]).unwrap();
        let u = s.add_type("U", &[]).unwrap();
        let f = s.add_gf("f", 3, None).unwrap();
        let m = s
            .add_method(
                f,
                "f1",
                vec![
                    Specializer::Type(a),
                    Specializer::Type(u),
                    Specializer::Type(c),
                ],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let mut reg = SurrogateRegistry::new();
        let (a_hat, _) = reg.get_or_create(&mut s, a, SurrogateKind::Factor).unwrap();
        let (c_hat, _) = reg.get_or_create(&mut s, c, SurrogateKind::Factor).unwrap();
        // A surrogate for U exists but U is not a supertype of the source,
        // so it must not be rewritten.
        reg.get_or_create(&mut s, u, SurrogateKind::Augment)
            .unwrap();
        let changes = factor_methods(&mut s, &reg, a, &[m]);
        assert_eq!(changes.len(), 1);
        assert_eq!(
            s.method(m).specializers,
            vec![
                Specializer::Type(a_hat),
                Specializer::Type(u),
                Specializer::Type(c_hat)
            ]
        );
        assert_eq!(converted_positions(&s, &reg, a, &changes[0].1), vec![0, 2]);
    }

    #[test]
    fn augment_surrogates_do_rewrite_supertype_specializers() {
        // Coverage case: the specializer is a supertype of the source but
        // carries no projected state, so its surrogate came from Augment —
        // the signature must still move onto it.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let m = s
            .add_method(
                f,
                "f1",
                vec![Specializer::Type(a)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let mut reg = SurrogateRegistry::new();
        let (a_hat, _) = reg
            .get_or_create(&mut s, a, SurrogateKind::Augment)
            .unwrap();
        let changes = factor_methods(&mut s, &reg, a, &[m]);
        assert_eq!(changes.len(), 1);
        assert_eq!(s.method(m).specializers, vec![Specializer::Type(a_hat)]);
    }

    #[test]
    fn prim_specializers_are_preserved() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        s.add_accessors(x).unwrap();
        let set_x = s.gf_id("set_x").unwrap();
        let m = s.gf(set_x).methods[0];
        let mut reg = SurrogateRegistry::new();
        let (a_hat, _) = reg.get_or_create(&mut s, a, SurrogateKind::Factor).unwrap();
        // Wire so the accessor stays valid after the move (as FactorState
        // would): A <= ^A and x moved to ^A.
        s.add_super_highest(a, a_hat).unwrap();
        s.move_attr(x, a_hat).unwrap();
        let changes = factor_methods(&mut s, &reg, a, &[m]);
        assert_eq!(changes.len(), 1);
        assert_eq!(s.method(m).specializers[0], Specializer::Type(a_hat));
        assert!(matches!(s.method(m).specializers[1], Specializer::Prim(_)));
        s.validate().unwrap();
    }
}
