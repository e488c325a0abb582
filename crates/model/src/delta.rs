//! Structured schema deltas and by-name schema diffing.
//!
//! Two change-description layers live here, one per consumer:
//!
//! * [`SchemaDelta`] — the protocol between `Schema` mutators and the
//!   dispatch cache. Every `&mut self` path that can alter
//!   dispatch-relevant state emits one (via `Schema::note_mutation`)
//!   *instead of* blindly bumping a global generation. The cache records
//!   the deltas and, on the next read, closes them into a **dirty set**
//!   (see `crate::cache`): touched types are closed downward over the
//!   hierarchy (everything below a rewired node depends on it through
//!   its CPL), touched methods are closed over the condensation
//!   indexes' reverse call edges (an index whose universe contains the
//!   method, or whose source the method newly applies to, is stale).
//!   Only the reachable entries are evicted; everything else survives
//!   the mutation warm.
//!
//! * [`SchemaDiff`] / [`diff_schemas`] — compares two *independently
//!   built* schemas (e.g. two parses of successive registered texts) by
//!   **name**, since ids only have meaning within one schema. When the
//!   diff proves id-stability (`ids_stable`), warm cache entries whose
//!   dependency closure is untouched can be carried from the old schema
//!   into the new one (`Schema::carry_warm_from` in `crate::cache`) —
//!   the server registry uses this so re-registering an edited schema
//!   does not re-warm from scratch.

use crate::attrs::ValueType;
use crate::ids::{AttrId, GfId, MethodId, TypeId};
use crate::methods::Specializer;
use crate::schema::Schema;
use std::collections::HashMap;

/// One structured schema mutation, as emitted by every `&mut Schema`
/// mutation path. The variants bound the cache footprint of the change;
/// conservative over-approximation ([`SchemaDelta::Full`]) is always
/// sound, missing a mutation is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaDelta {
    /// A type was created. It has no supertype edges yet (wiring arrives
    /// as separate [`SchemaDelta::TypeTouched`] deltas) and nothing
    /// cached can reference it, so no eviction is needed.
    TypeAdded(TypeId),
    /// An attribute was defined. Attribute additions never change CPLs,
    /// dispatch tables or condensation indexes (footprints are bitsets
    /// over stable attribute ids, and a brand-new id cannot appear in
    /// any of them) — only lint reports are flushed.
    AttrAdded(AttrId),
    /// A generic function was declared. It has no methods yet, so no
    /// cached dispatch table or index universe can mention it.
    GfAdded(GfId),
    /// A method was attached to `gf`: `gf`'s dispatch tables are stale,
    /// and so is every condensation index whose source the method is
    /// applicable to.
    MethodAdded {
        /// The owning generic function.
        gf: GfId,
        /// The new method.
        method: MethodId,
    },
    /// An existing method was handed out `&mut` — its specializers or
    /// body may have been rewritten in place (`FactorMethods`,
    /// `Augment`, `unproject` all do this). Same footprint as
    /// [`SchemaDelta::MethodAdded`], plus any index whose universe
    /// already contained the method.
    MethodTouched {
        /// The owning generic function.
        gf: GfId,
        /// The touched method.
        method: MethodId,
    },
    /// An existing attribute definition was handed out `&mut`
    /// (ownership moves during state factorization). Attribute
    /// definitions feed projection compatibility and lint — computed
    /// fresh per request — but no generation-cached structure, so only
    /// lint reports are flushed. Hierarchy-side effects of a move are
    /// reported separately as [`SchemaDelta::TypeTouched`] by
    /// `move_attr` itself.
    AttrTouched(AttrId),
    /// A type node was handed out `&mut`: its supertype edges, local
    /// attribute list, origin or liveness may have changed. Dirties the
    /// node and (at refresh time) its transitive subtypes — every
    /// cached artifact below it depends on the node through its
    /// ancestor chain.
    TypeTouched(TypeId),
    /// A mutation whose cache footprint cannot be bounded (raw access
    /// to the type table). Flushes everything — the pre-delta behavior.
    Full,
}

/// A by-name comparison of two independently built schemas (old → new).
///
/// Entity names are globally unique per kind, so names are the only
/// cross-schema identity. `ids_stable` additionally certifies that every
/// surviving entity occupies the *same id slot* in both schemas — the
/// precondition for carrying warm id-keyed cache entries across.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaDiff {
    /// Type names present only in the new schema.
    pub added_types: Vec<String>,
    /// Type names present only in the old schema.
    pub removed_types: Vec<String>,
    /// Types whose supertype edges, origin or local attribute list
    /// differ between the schemas.
    pub changed_types: Vec<String>,
    /// Attribute names present only in the new schema.
    pub added_attrs: Vec<String>,
    /// Attribute names present only in the old schema.
    pub removed_attrs: Vec<String>,
    /// Attributes whose value type or owner differ.
    pub changed_attrs: Vec<String>,
    /// Generic-function names present only in the new schema.
    pub added_gfs: Vec<String>,
    /// Generic-function names present only in the old schema.
    pub removed_gfs: Vec<String>,
    /// Generic functions whose arity or result contract differ.
    pub changed_gfs: Vec<String>,
    /// Method labels present only in the new schema.
    pub added_methods: Vec<String>,
    /// Method labels present only in the old schema.
    pub removed_methods: Vec<String>,
    /// Method labels whose methods differ: in number, or in the
    /// signature or body of a method against the one at its place (in id
    /// order) among the other schema's methods of the label.
    pub changed_methods: Vec<String>,
    /// True iff every entity surviving from old to new keeps its exact
    /// id slot (same `TypeId`/`AttrId`/`GfId`/`MethodId` for the same
    /// name). Holds for append-only and edit-in-place evolutions; any
    /// removal or reordering clears it and disables warm-entry carry.
    pub ids_stable: bool,
}

impl SchemaDiff {
    /// True iff the two schemas are observably identical.
    pub fn is_empty(&self) -> bool {
        self.added_types.is_empty()
            && self.removed_types.is_empty()
            && self.changed_types.is_empty()
            && self.added_attrs.is_empty()
            && self.removed_attrs.is_empty()
            && self.changed_attrs.is_empty()
            && self.added_gfs.is_empty()
            && self.removed_gfs.is_empty()
            && self.changed_gfs.is_empty()
            && self.added_methods.is_empty()
            && self.removed_methods.is_empty()
            && self.changed_methods.is_empty()
    }

    /// A compact `+a/-r/~c` summary per entity kind, e.g.
    /// `types +1 ~2; methods +1` — used by server logs and the watch
    /// change feed.
    pub fn summary(&self) -> String {
        fn part(out: &mut Vec<String>, kind: &str, a: &[String], r: &[String], c: &[String]) {
            if a.is_empty() && r.is_empty() && c.is_empty() {
                return;
            }
            let mut s = String::from(kind);
            for (sign, list) in [("+", a), ("-", r), ("~", c)] {
                if !list.is_empty() {
                    s.push_str(&format!(" {sign}{}", list.len()));
                }
            }
            out.push(s);
        }
        let mut parts = Vec::new();
        part(
            &mut parts,
            "types",
            &self.added_types,
            &self.removed_types,
            &self.changed_types,
        );
        part(
            &mut parts,
            "attrs",
            &self.added_attrs,
            &self.removed_attrs,
            &self.changed_attrs,
        );
        part(
            &mut parts,
            "gfs",
            &self.added_gfs,
            &self.removed_gfs,
            &self.changed_gfs,
        );
        part(
            &mut parts,
            "methods",
            &self.added_methods,
            &self.removed_methods,
            &self.changed_methods,
        );
        if parts.is_empty() {
            "no changes".to_string()
        } else {
            parts.join("; ")
        }
    }
}

/// Renders a value type by name, so types from different schemas compare.
fn value_type_key(schema: &Schema, ty: ValueType) -> String {
    match ty {
        ValueType::Prim(p) => format!("prim:{p:?}"),
        ValueType::Object(t) => format!("obj:{}", schema.type_name(t)),
    }
}

/// Renders a specializer by name.
fn spec_key(schema: &Schema, s: Specializer) -> String {
    match s {
        Specializer::Type(t) => format!("type:{}", schema.type_name(t)),
        Specializer::Prim(p) => format!("prim:{p:?}"),
    }
}

/// Renders the name-level signature of a type node: supertype edges with
/// precedences, origin, and the local attribute list.
fn type_key(schema: &Schema, t: TypeId) -> String {
    let node = schema.type_(t);
    let supers: Vec<String> = node
        .supers()
        .iter()
        .map(|l| format!("{}@{}", schema.type_name(l.target), l.prec))
        .collect();
    let origin = match node.surrogate_source() {
        Some(src) => format!("surrogate:{}", schema.type_name(src)),
        None => "original".to_string(),
    };
    let attrs: Vec<&str> = node
        .local_attrs
        .iter()
        .map(|&a| schema.attr_name(a))
        .collect();
    format!("[{}] {} {{{}}}", supers.join(","), origin, attrs.join(","))
}

/// Renders the name-level signature of a method (gf, specializers, kind
/// discriminant with accessed attribute, result).
fn method_key(schema: &Schema, m: MethodId) -> String {
    let method = schema.method(m);
    let specs: Vec<String> = method
        .specializers
        .iter()
        .map(|&s| spec_key(schema, s))
        .collect();
    let kind = match method.kind.accessed_attr() {
        Some(a) => format!("accessor:{}", schema.attr_name(a)),
        None => "general".to_string(),
    };
    let result = method
        .result
        .map(|r| value_type_key(schema, r))
        .unwrap_or_default();
    format!(
        "{}({}) {} -> {}",
        schema.gf_name(method.gf),
        specs.join(","),
        kind,
        result
    )
}

/// Compares two independently built schemas by name. See [`SchemaDiff`].
pub fn diff_schemas(old: &Schema, new: &Schema) -> SchemaDiff {
    let mut diff = SchemaDiff::default();

    // -- id stability: every old entity's name resolves to the same id
    // slot in the new schema. Checked first because the changed-entity
    // comparison below can use id-based structural equality when it
    // holds (methods' bodies reference ids, which are only comparable
    // across schemas under stability).
    let mut ids_stable = true;
    for t in old.live_type_ids() {
        if new.type_id(old.type_name(t)) != Ok(t) {
            ids_stable = false;
            break;
        }
    }
    ids_stable = ids_stable
        && old
            .attr_ids()
            .all(|a| new.attr_id(old.attr_name(a)) == Ok(a))
        && old.gf_ids().all(|g| new.gf_id(old.gf_name(g)) == Ok(g))
        && old.method_ids().all(|m| {
            m.index() < new.n_methods()
                && new.method_label(m) == old.method_label(m)
                && new.gf_name(new.method(m).gf) == old.gf_name(old.method(m).gf)
        });
    diff.ids_stable = ids_stable;

    // -- types
    let new_types: HashMap<&str, TypeId> =
        new.live_type_ids().map(|t| (new.type_name(t), t)).collect();
    let old_types: HashMap<&str, TypeId> =
        old.live_type_ids().map(|t| (old.type_name(t), t)).collect();
    for t in old.live_type_ids() {
        let name = old.type_name(t);
        match new_types.get(name) {
            None => diff.removed_types.push(name.to_string()),
            Some(&nt) => {
                if type_key(old, t) != type_key(new, nt) {
                    diff.changed_types.push(name.to_string());
                }
            }
        }
    }
    for t in new.live_type_ids() {
        let name = new.type_name(t);
        if !old_types.contains_key(name) {
            diff.added_types.push(name.to_string());
        }
    }

    // -- attributes
    let new_attrs: HashMap<&str, AttrId> = new.attr_ids().map(|a| (new.attr_name(a), a)).collect();
    let old_attrs: HashMap<&str, AttrId> = old.attr_ids().map(|a| (old.attr_name(a), a)).collect();
    for a in old.attr_ids() {
        let name = old.attr_name(a);
        match new_attrs.get(name) {
            None => diff.removed_attrs.push(name.to_string()),
            Some(&na) => {
                let old_def = old.attr(a);
                let new_def = new.attr(na);
                if value_type_key(old, old_def.ty) != value_type_key(new, new_def.ty)
                    || old.type_name(old_def.owner) != new.type_name(new_def.owner)
                {
                    diff.changed_attrs.push(name.to_string());
                }
            }
        }
    }
    for a in new.attr_ids() {
        let name = new.attr_name(a);
        if !old_attrs.contains_key(name) {
            diff.added_attrs.push(name.to_string());
        }
    }

    // -- generic functions
    let new_gfs: HashMap<&str, GfId> = new.gf_ids().map(|g| (new.gf_name(g), g)).collect();
    let old_gfs: HashMap<&str, GfId> = old.gf_ids().map(|g| (old.gf_name(g), g)).collect();
    for g in old.gf_ids() {
        let name = old.gf_name(g);
        match new_gfs.get(name) {
            None => diff.removed_gfs.push(name.to_string()),
            Some(&ng) => {
                let (o, n) = (old.gf(g), new.gf(ng));
                if o.arity != n.arity
                    || o.result.map(|r| value_type_key(old, r))
                        != n.result.map(|r| value_type_key(new, r))
                {
                    diff.changed_gfs.push(name.to_string());
                }
            }
        }
    }
    for g in new.gf_ids() {
        let name = new.gf_name(g);
        if !old_gfs.contains_key(name) {
            diff.added_gfs.push(name.to_string());
        }
    }

    // -- methods, by label. The DSL names a method after its generic
    // function unless given a label, so several methods can share one:
    // a label's methods compare as one list in id order, and the label is
    // listed once, where its first method is.
    let new_methods = methods_by_label(new);
    let old_methods = methods_by_label(old);
    for m in old.method_ids() {
        let label = old.method_label(m);
        let olds = &old_methods[label];
        if olds[0] != m {
            continue;
        }
        match new_methods.get(label) {
            None => diff.removed_methods.push(label.to_string()),
            Some(news) => {
                // Name-level signature always compares; bodies compare
                // through their rendered text (ids and interned names are
                // schema-relative, so struct equality would flag every
                // method whose name table shifted).
                let differs = |(&o, &n): (&MethodId, &MethodId)| {
                    method_key(old, o) != method_key(new, n)
                        || crate::text::method_content_text(old, o)
                            != crate::text::method_content_text(new, n)
                };
                if olds.len() != news.len() || olds.iter().zip(news).any(differs) {
                    diff.changed_methods.push(label.to_string());
                }
            }
        }
    }
    for m in new.method_ids() {
        let label = new.method_label(m);
        if new_methods[label][0] == m && !old_methods.contains_key(label) {
            diff.added_methods.push(label.to_string());
        }
    }
    diff
}

/// Every method of `schema` grouped by label, each group in id order.
fn methods_by_label(schema: &Schema) -> HashMap<&str, Vec<MethodId>> {
    let mut by_label: HashMap<&str, Vec<MethodId>> = HashMap::new();
    for m in schema.method_ids() {
        by_label.entry(schema.method_label(m)).or_default().push(m);
    }
    by_label
}

/// What [`Schema::carry_warm_from`](crate::Schema::carry_warm_from)
/// managed to carry across a schema replacement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CarryReport {
    /// CPL and rank-table entries carried.
    pub cpl: usize,
    /// Dispatch-table (applicable + ranked) entries carried.
    pub dispatch: usize,
    /// Applicability condensation indexes carried.
    pub indexes: usize,
}

impl CarryReport {
    /// Total entries carried.
    pub fn total(&self) -> usize {
        self.cpl + self.dispatch + self.indexes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_schema;

    const BASE: &str = "type A { x: int  y: int }\ntype B : A { z: int }\n";

    #[test]
    fn identical_schemas_diff_empty_and_stable() {
        let a = parse_schema(BASE).unwrap();
        let b = parse_schema(BASE).unwrap();
        let d = diff_schemas(&a, &b);
        assert!(d.is_empty(), "{d:?}");
        assert!(d.ids_stable);
        assert_eq!(d.summary(), "no changes");
    }

    #[test]
    fn appended_type_keeps_ids_stable() {
        let a = parse_schema(BASE).unwrap();
        let b = parse_schema(&format!("{BASE}type C : B {{ w: int }}\n")).unwrap();
        let d = diff_schemas(&a, &b);
        assert!(d.ids_stable, "append-only evolution keeps old id slots");
        assert_eq!(d.added_types, vec!["C"]);
        assert_eq!(d.added_attrs, vec!["w"]);
        assert!(d.removed_types.is_empty() && d.changed_types.is_empty());
        assert!(d.summary().contains("types +1"), "{}", d.summary());
    }

    #[test]
    fn removed_type_breaks_id_stability() {
        let a = parse_schema(BASE).unwrap();
        let b = parse_schema("type A { x: int  y: int }\n").unwrap();
        let d = diff_schemas(&a, &b);
        assert!(!d.ids_stable);
        assert_eq!(d.removed_types, vec!["B"]);
        assert_eq!(d.removed_attrs, vec!["z"]);
    }

    #[test]
    fn rewired_edge_is_a_changed_type() {
        let a = parse_schema(BASE).unwrap();
        let b = parse_schema("type A { x: int  y: int }\ntype B { z: int }\n").unwrap();
        let d = diff_schemas(&a, &b);
        assert_eq!(d.changed_types, vec!["B"], "B lost its supertype edge");
        assert!(d.ids_stable, "in-place edits keep id slots");
    }

    /// The DSL names both methods `f`: the label's two methods compare as
    /// a list, so neither hides the other.
    #[test]
    fn methods_sharing_a_label_compare_as_a_list() {
        let text = "type A { x: int }\ntype C { z: int }\naccessors x\n";
        let base = format!("{text}method f(A) {{}}\nmethod f(C) {{}}\n");
        let a = parse_schema(&base).unwrap();
        let d = diff_schemas(&a, &parse_schema(&base).unwrap());
        assert!(d.is_empty(), "{d:?}");
        let edited = format!("{text}method f(A) {{ get_x($0); }}\nmethod f(C) {{}}\n");
        let d = diff_schemas(&a, &parse_schema(&edited).unwrap());
        assert_eq!(d.changed_methods, vec!["f"], "f(A)'s body changed");
        assert!(d.ids_stable);
        let third = format!("{base}type E {{ w: int }}\nmethod f(E) {{}}\n");
        let d = diff_schemas(&a, &parse_schema(&third).unwrap());
        assert_eq!(d.changed_methods, vec!["f"], "f gained a method");
        assert!(d.added_methods.is_empty() && d.removed_methods.is_empty());
        let d = diff_schemas(&a, &parse_schema(text).unwrap());
        assert_eq!(d.removed_methods, vec!["f"], "listed once");
    }

    #[test]
    fn retyped_attr_is_changed() {
        let a = parse_schema(BASE).unwrap();
        let b = parse_schema("type A { x: int  y: str }\ntype B : A { z: int }\n").unwrap();
        let d = diff_schemas(&a, &b);
        assert_eq!(d.changed_attrs, vec!["y"]);
        assert!(d.changed_types.is_empty(), "type shape is unchanged");
    }
}
