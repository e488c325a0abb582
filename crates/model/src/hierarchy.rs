//! Type nodes and the multiple-inheritance hierarchy (a DAG, §2).
//!
//! Direct supertypes carry an explicit integer *precedence* — the paper
//! annotates subtype→supertype arrows with integers, "a lower number
//! signifying higher precedence". State factorization (§5) inserts each
//! surrogate as the **highest-precedence** direct supertype of its source so
//! that the split is transparent to method lookup.

use crate::attrs::AttrDef;
use crate::error::{ModelError, Result};
use crate::ids::{AttrId, NameId, TypeId, TypeSet};
use crate::schema::Schema;
use std::collections::BTreeSet;

/// A directed edge from a subtype to one of its direct supertypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperLink {
    /// The supertype.
    pub target: TypeId,
    /// Precedence of this supertype among the subtype's direct supertypes;
    /// lower is higher precedence. Original schemas number supertypes from
    /// 1; factorization reserves 0 (and below) for surrogates.
    pub prec: i32,
}

/// Whether a type existed originally or was spun off by factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeOrigin {
    /// Present in the user-defined schema.
    Original,
    /// A surrogate created by `FactorState`/`Augment` for the given source
    /// type. Derived view types are themselves surrogates (§5).
    Surrogate {
        /// The type this surrogate was spun off from.
        source: TypeId,
    },
}

/// One type (class) in the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeNode {
    /// Unique type name, interned in the schema's arena (resolve with
    /// [`crate::Schema::type_name`] or [`crate::Schema::name`]).
    pub name: NameId,
    /// Attributes locally defined at this type (state moves between a type
    /// and its surrogate during factorization).
    pub local_attrs: Vec<AttrId>,
    /// Direct supertypes, kept sorted by ascending precedence.
    pub(crate) supers: Vec<SuperLink>,
    /// Original or surrogate.
    pub origin: TypeOrigin,
    /// True once the type has been retired by the surrogate-minimization
    /// pass; retired types are skipped by all queries.
    pub(crate) dead: bool,
}

impl TypeNode {
    /// Direct supertypes in precedence order (highest precedence first).
    #[inline]
    pub fn supers(&self) -> &[SuperLink] {
        &self.supers
    }

    /// Direct supertype ids in precedence order.
    pub fn super_ids(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.supers.iter().map(|l| l.target)
    }

    /// True if this node is a surrogate.
    #[inline]
    pub fn is_surrogate(&self) -> bool {
        matches!(self.origin, TypeOrigin::Surrogate { .. })
    }

    /// The source type if this node is a surrogate.
    #[inline]
    pub fn surrogate_source(&self) -> Option<TypeId> {
        match self.origin {
            TypeOrigin::Surrogate { source } => Some(source),
            TypeOrigin::Original => None,
        }
    }
}

impl Schema {
    /// Adds a direct supertype edge `sub <= sup` with the given precedence,
    /// keeping the supertype list sorted by precedence (stable for ties:
    /// later insertions with an equal precedence sort after existing ones).
    ///
    /// Fails if the edge already exists or would create a cycle.
    pub fn add_super_with_prec(&mut self, sub: TypeId, sup: TypeId, prec: i32) -> Result<()> {
        self.check_type(sub)?;
        self.check_type(sup)?;
        if sub == sup || self.is_subtype(sup, sub) {
            return Err(ModelError::CycleIntroduced { sub, sup });
        }
        if self.type_(sub).supers.iter().any(|l| l.target == sup) {
            return Err(ModelError::DuplicateSuperEdge { sub, sup });
        }
        let node = self.type_node_mut(sub);
        let pos = node.supers.partition_point(|l| l.prec <= prec);
        node.supers.insert(pos, SuperLink { target: sup, prec });
        Ok(())
    }

    /// Adds `sup` as the **highest-precedence** direct supertype of `sub`
    /// (the §5.1 step "make T̂ a supertype of T such that T̂ has highest
    /// precedence among the supertypes of T"). Returns the precedence used.
    pub fn add_super_highest(&mut self, sub: TypeId, sup: TypeId) -> Result<i32> {
        let prec = self
            .type_(sub)
            .supers
            .first()
            .map(|l| l.prec - 1)
            .unwrap_or(0)
            .min(0);
        self.add_super_with_prec(sub, sup, prec)?;
        Ok(prec)
    }

    /// Removes the direct edge `sub <= sup`, if present. Returns whether an
    /// edge was removed.
    pub fn remove_super_edge(&mut self, sub: TypeId, sup: TypeId) -> bool {
        let node = self.type_node_mut(sub);
        let before = node.supers.len();
        node.supers.retain(|l| l.target != sup);
        node.supers.len() != before
    }

    /// Reflexive-transitive subtype test: `a <= b` iff every instance of
    /// `a` is an instance of `b` (§2).
    pub fn is_subtype(&self, a: TypeId, b: TypeId) -> bool {
        if a == b {
            return true;
        }
        let mut visited = vec![false; self.n_types()];
        let mut stack = vec![a];
        visited[a.index()] = true;
        while let Some(t) = stack.pop() {
            for link in &self.type_(t).supers {
                let s = link.target;
                if s == b {
                    return true;
                }
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Proper (irreflexive) subtype test `a < b`.
    #[inline]
    pub fn is_proper_subtype(&self, a: TypeId, b: TypeId) -> bool {
        a != b && self.is_subtype(a, b)
    }

    /// All proper supertypes of `t`, in BFS order from `t` (deduplicated —
    /// attributes of a shared ancestor are "inherited only once", §2).
    pub fn ancestors(&self, t: TypeId) -> Vec<TypeId> {
        let mut visited = vec![false; self.n_types()];
        visited[t.index()] = true;
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(t);
        while let Some(cur) = queue.pop_front() {
            for link in &self.type_(cur).supers {
                let s = link.target;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    order.push(s);
                    queue.push_back(s);
                }
            }
        }
        order
    }

    /// `t` followed by its proper supertypes.
    pub fn ancestors_inclusive(&self, t: TypeId) -> Vec<TypeId> {
        let mut v = Vec::with_capacity(8);
        v.push(t);
        v.extend(self.ancestors(t));
        v
    }

    /// All live proper subtypes of `t` (types whose instances are
    /// instances of `t`), in ascending id order: `random_schema` indexes
    /// into this list with its RNG.
    pub fn descendants(&self, t: TypeId) -> Vec<TypeId> {
        self.descendant_set([t])
            .iter()
            .filter(|&x| x != t)
            .collect()
    }

    /// `t` and every type above it: the set of `u` with
    /// `is_subtype(t, u)`. Walks raw supertype edges, not the CPL, so a
    /// type with inconsistent precedence still gets an answer. A `t`
    /// outside the type arena reads as absent (the set is empty).
    pub fn ancestor_set(&self, t: TypeId) -> TypeSet {
        let mut above = TypeSet::new(self.n_types());
        let mut stack = Vec::new();
        if t.index() < self.n_types() {
            above.insert(t);
            stack.push(t);
        }
        while let Some(x) = stack.pop() {
            for s in self.type_(x).super_ids() {
                if !above.contains(s) {
                    above.insert(s);
                    stack.push(s);
                }
            }
        }
        above
    }

    /// The seeds plus every live type below one of them (see
    /// [`SubtypeLists::descendant_set`]), through freshly built lists.
    pub fn descendant_set(&self, seeds: impl IntoIterator<Item = TypeId>) -> TypeSet {
        self.subtype_lists().descendant_set(seeds)
    }

    /// The direct subtypes of every type slot, live or retired, built in
    /// one sweep over the slots' supertype edges.
    pub fn subtype_lists(&self) -> SubtypeLists<'_> {
        let mut below = vec![Vec::new(); self.n_types()];
        for (i, node) in self.types.iter().enumerate() {
            for link in &node.supers {
                below[link.target.index()].push(TypeId::from_index(i));
            }
        }
        SubtypeLists {
            schema: self,
            below,
        }
    }

    /// The type a supertype edge closes a cycle at, if the hierarchy has
    /// a cycle: a three-colour depth-first search from every type slot
    /// in id order, naming the first edge target found on the current
    /// path (the type `TDL101` reports).
    pub fn find_cycle(&self) -> Option<TypeId> {
        // 0 unseen, 1 on the current path, 2 finished.
        let mut state = vec![0u8; self.n_types()];
        for root in 0..self.n_types() {
            let mut stack = vec![(TypeId::from_index(root), false)];
            while let Some((t, finished)) = stack.pop() {
                if finished {
                    state[t.index()] = 2;
                    continue;
                }
                if state[t.index()] != 0 {
                    continue;
                }
                state[t.index()] = 1;
                stack.push((t, true));
                for s in self.type_(t).super_ids() {
                    match state[s.index()] {
                        0 => stack.push((s, false)),
                        1 => return Some(s),
                        _ => {}
                    }
                }
            }
        }
        None
    }

    /// Direct subtypes of `t` (types with a direct edge to `t`).
    pub fn direct_subtypes(&self, t: TypeId) -> Vec<TypeId> {
        self.live_type_ids()
            .filter(|&x| self.type_(x).supers.iter().any(|l| l.target == t))
            .collect()
    }

    /// The cumulative state of `t`: local attributes plus everything
    /// inherited (each inherited once). This is the quantity invariant I1
    /// (state preservation) compares before and after factorization.
    pub fn cumulative_attrs(&self, t: TypeId) -> BTreeSet<AttrId> {
        let mut out = BTreeSet::new();
        for ty in self.ancestors_inclusive(t) {
            out.extend(self.type_(ty).local_attrs.iter().copied());
        }
        out
    }

    /// True iff attribute `attr` is local to `t` or to one of its
    /// supertypes — the paper's "available at" (§5.1).
    pub fn attr_available_at(&self, attr: AttrId, t: TypeId) -> bool {
        self.ancestors_inclusive(t)
            .iter()
            .any(|&ty| self.type_(ty).local_attrs.contains(&attr))
    }

    /// Moves a (locally defined) attribute from its current owner to `to`,
    /// preserving the attribute's identity. Used by `FactorState` ("move a
    /// to T̂").
    pub fn move_attr(&mut self, attr: AttrId, to: TypeId) -> Result<()> {
        self.check_attr(attr)?;
        self.check_type(to)?;
        let from = self.attr(attr).owner;
        if from == to {
            return Ok(());
        }
        let from_node = self.type_node_mut(from);
        let pos = from_node
            .local_attrs
            .iter()
            .position(|&a| a == attr)
            .ok_or_else(|| {
                ModelError::Invalid(format!("attribute {attr} is not local to its owner {from}"))
            })?;
        from_node.local_attrs.remove(pos);
        // Local attribute lists are kept in attribute-id order (creation
        // order), so moving an attribute away and back restores the
        // original list exactly — `unproject` depends on this.
        let to_node = self.type_node_mut(to);
        let insert_at = to_node.local_attrs.partition_point(|&x| x < attr);
        to_node.local_attrs.insert(insert_at, attr);
        self.attr_mut(attr).owner = to;
        Ok(())
    }

    /// Types with no supertypes (the hierarchy may be a forest of DAGs).
    pub fn roots(&self) -> Vec<TypeId> {
        self.live_type_ids()
            .filter(|&t| self.type_(t).supers.is_empty())
            .collect()
    }

    /// Retires a type: it must have no remaining sub/supertype edges, no
    /// local attributes, and no method mentioning it. Used by the
    /// surrogate-minimization pass (§7 future work). The id remains
    /// allocated but is skipped by all queries.
    pub fn retire_type(&mut self, t: TypeId) -> Result<()> {
        self.check_type(t)?;
        if !self.type_(t).supers.is_empty() {
            return Err(ModelError::Invalid(format!(
                "cannot retire {t}: it still has supertypes"
            )));
        }
        if !self.direct_subtypes(t).is_empty() {
            return Err(ModelError::Invalid(format!(
                "cannot retire {t}: it still has direct subtypes"
            )));
        }
        if !self.type_(t).local_attrs.is_empty() {
            return Err(ModelError::Invalid(format!(
                "cannot retire {t}: it still owns attributes"
            )));
        }
        let mentioned = self
            .method_ids()
            .any(|m| self.method(m).type_specializers().any(|(_, ty)| ty == t));
        if mentioned {
            return Err(ModelError::Invalid(format!(
                "cannot retire {t}: a method specializes on it"
            )));
        }
        self.unregister_type_name(t);
        self.type_node_mut(t).dead = true;
        Ok(())
    }

    /// Accessor used within the crate to reach node internals. Handing out
    /// `&mut` to a node may change its edges, origin or liveness, so the
    /// cache is told the type (and, transitively, its subtypes) is dirty.
    pub(crate) fn type_node_mut(&mut self, t: TypeId) -> &mut TypeNode {
        self.note_mutation(crate::delta::SchemaDelta::TypeTouched(t));
        &mut self.types[t.index()]
    }
}

/// The direct subtypes of every type slot of one schema (from
/// [`Schema::subtype_lists`]). A pass that asks many
/// [`SubtypeLists::descendant_set`] queries of one schema builds the
/// lists once.
pub struct SubtypeLists<'s> {
    schema: &'s Schema,
    /// Direct subtypes, by type index.
    below: Vec<Vec<TypeId>>,
}

impl SubtypeLists<'_> {
    /// The seeds plus every live type below one of them — the set
    /// `{x | is_subtype(x, s)}` of some seed `s`, restricted to live `x`
    /// — in id order. A seed outside the type arena reads as absent.
    pub fn descendant_set(&self, seeds: impl IntoIterator<Item = TypeId>) -> TypeSet {
        let n = self.below.len();
        let mut out = TypeSet::new(n);
        let mut seen = TypeSet::new(n);
        let mut stack: Vec<TypeId> = seeds.into_iter().filter(|s| s.index() < n).collect();
        for &s in &stack {
            out.insert(s);
            seen.insert(s);
        }
        while let Some(t) = stack.pop() {
            for &x in &self.below[t.index()] {
                if !seen.contains(x) {
                    seen.insert(x);
                    if self.schema.is_live(x) {
                        out.insert(x);
                    }
                    stack.push(x);
                }
            }
        }
        out
    }
}

/// Re-export for ergonomic pattern matching on attribute definitions.
pub type Attribute = AttrDef;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::ValueType;

    /// Builds the diamond  D <= B,C <= A.
    fn diamond() -> (Schema, TypeId, TypeId, TypeId, TypeId) {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let c = s.add_type("C", &[a]).unwrap();
        let d = s.add_type("D", &[b, c]).unwrap();
        (s, a, b, c, d)
    }

    #[test]
    fn subtype_is_reflexive_and_transitive() {
        let (s, a, b, _c, d) = diamond();
        assert!(s.is_subtype(a, a));
        assert!(s.is_subtype(d, a));
        assert!(s.is_subtype(b, a));
        assert!(!s.is_subtype(a, d));
        assert!(s.is_proper_subtype(d, a));
        assert!(!s.is_proper_subtype(a, a));
    }

    #[test]
    fn diamond_ancestors_dedup_shared_root() {
        let (s, a, b, c, d) = diamond();
        let anc = s.ancestors(d);
        assert_eq!(anc.len(), 3);
        assert!(anc.contains(&a) && anc.contains(&b) && anc.contains(&c));
        // BFS: direct supers first, in precedence order.
        assert_eq!(&anc[..2], &[b, c]);
    }

    #[test]
    fn cycle_rejected() {
        let (mut s, a, _b, _c, d) = diamond();
        let err = s.add_super_with_prec(a, d, 9).unwrap_err();
        assert!(matches!(err, ModelError::CycleIntroduced { .. }));
        let err = s.add_super_with_prec(a, a, 1).unwrap_err();
        assert!(matches!(err, ModelError::CycleIntroduced { .. }));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut s, a, b, _c, _d) = diamond();
        let err = s.add_super_with_prec(b, a, 5).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateSuperEdge { .. }));
    }

    #[test]
    fn supers_sorted_by_precedence() {
        let mut s = Schema::new();
        let x = s.add_type("X", &[]).unwrap();
        let y = s.add_type("Y", &[]).unwrap();
        let z = s.add_type("Z", &[]).unwrap();
        let w = s.add_type("W", &[]).unwrap();
        s.add_super_with_prec(w, x, 2).unwrap();
        s.add_super_with_prec(w, y, 1).unwrap();
        s.add_super_with_prec(w, z, 3).unwrap();
        let order: Vec<_> = s.type_(w).super_ids().collect();
        assert_eq!(order, vec![y, x, z]);
    }

    #[test]
    fn add_super_highest_takes_front() {
        let (mut s, _a, b, _c, _d) = diamond();
        let hat = s.add_type("B_hat", &[]).unwrap();
        let prec = s.add_super_highest(b, hat).unwrap();
        assert_eq!(prec, 0);
        assert_eq!(s.type_(b).super_ids().next(), Some(hat));
        // A second surrogate goes even further front.
        let hat2 = s.add_type("B_hat2", &[]).unwrap();
        let prec2 = s.add_super_highest(b, hat2).unwrap();
        assert_eq!(prec2, -1);
        assert_eq!(s.type_(b).super_ids().next(), Some(hat2));
    }

    #[test]
    fn cumulative_attrs_inherited_once() {
        let (mut s, a, _b, _c, d) = diamond();
        let aa = s.add_attr("root_attr", ValueType::INT, a).unwrap();
        let da = s.add_attr("leaf_attr", ValueType::STR, d).unwrap();
        let cum = s.cumulative_attrs(d);
        assert_eq!(cum.len(), 2);
        assert!(cum.contains(&aa) && cum.contains(&da));
        assert!(s.attr_available_at(aa, d));
        assert!(!s.attr_available_at(da, a));
    }

    #[test]
    fn move_attr_preserves_identity() {
        let (mut s, a, b, _c, _d) = diamond();
        let aa = s.add_attr("x", ValueType::INT, a).unwrap();
        s.move_attr(aa, b).unwrap();
        assert_eq!(s.attr(aa).owner, b);
        assert!(s.type_(b).local_attrs.contains(&aa));
        assert!(!s.type_(a).local_attrs.contains(&aa));
        // Cumulative state of b unchanged; a lost the attribute.
        assert!(s.cumulative_attrs(b).contains(&aa));
        assert!(!s.cumulative_attrs(a).contains(&aa));
    }

    #[test]
    fn roots_and_descendants() {
        let (s, a, b, c, d) = diamond();
        assert_eq!(s.roots(), vec![a]);
        let mut desc = s.descendants(a);
        desc.sort();
        assert_eq!(desc, vec![b, c, d]);
        assert_eq!(s.direct_subtypes(a), vec![b, c]);
    }

    #[test]
    fn find_cycle_names_the_type_tdl101_names() {
        // X, B and C <= B; then X <= C and B <= C close B -> C -> B. The
        // walk from X enters the cycle at C and meets C again on its
        // path, so C is named: not the walk's root X, not the cycle's
        // lowest id B.
        let mut s = Schema::new();
        let x = s.add_type("X", &[]).unwrap();
        let b = s.add_type("B", &[]).unwrap();
        let c = s.add_type("C", &[b]).unwrap();
        assert_eq!(s.find_cycle(), None);
        for t in [x, b] {
            s.type_node_mut(t)
                .supers
                .push(SuperLink { target: c, prec: 1 });
        }
        assert_eq!(s.find_cycle(), Some(c));
        let diags = s.validate_diagnostics();
        assert_eq!(
            diags[0].message,
            "type hierarchy contains a cycle through `C`"
        );
    }

    #[test]
    fn retire_type_requires_detachment() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        assert!(s.retire_type(a).is_err()); // b still points at a
        s.remove_super_edge(b, a);
        s.retire_type(a).unwrap();
        assert!(s.type_id("A").is_err());
        assert_eq!(s.roots(), vec![b]);
        // Name can be reused after retirement.
        let a2 = s.add_type("A", &[]).unwrap();
        assert_ne!(a2, a);
    }
}
