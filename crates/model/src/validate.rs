//! Whole-schema validation.
//!
//! The builder APIs enforce local invariants at insertion time; `validate`
//! re-checks everything globally, which matters after the projection
//! algorithms have rewritten the hierarchy, moved attributes and retargeted
//! method signatures. Invariant I5 ("the refactored hierarchy is still a
//! well-formed schema") is exactly a `validate` call.
//!
//! Validation reports through the structured-diagnostics vocabulary of
//! [`crate::diag`]: [`Schema::validate_errors`] collects *every* failure
//! (not just the first), and [`Schema::validate_diagnostics`] maps each
//! one to a [`Diagnostic`] with a stable `TDL1xx` lint code and named
//! provenance spans. [`Schema::validate`] keeps the classic first-error
//! `Result` contract on top of the same checks.

use crate::attrs::ValueType;
use crate::body::{Expr, Stmt};
use crate::diag::{Diagnostic, LintCode, Span};
use crate::dispatch::CallArg;
use crate::error::{ModelError, Result};
use crate::ids::{AttrId, GfId, MethodId, TypeId};
use crate::methods::Specializer;
use crate::schema::Schema;

impl Schema {
    /// Validates the whole schema:
    ///
    /// 1. the hierarchy is acyclic;
    /// 2. every live type has a consistent class precedence list;
    /// 3. every attribute's owner lists it locally (and only the owner);
    /// 4. accessor methods access attributes available at their
    ///    specializer;
    /// 5. method specializer lists match their generic function's arity;
    /// 6. method bodies are well-formed: parameter/variable indices in
    ///    range, call arity correct, and call arguments statically
    ///    compatible with at least one method of the callee when the
    ///    callee has any methods;
    /// 7. assignments and returns are type-compatible (`value <= target`
    ///    for object types) — the §6.3 property the `Augment` pass exists
    ///    to preserve.
    ///
    /// Returns the first failure; [`Schema::validate_errors`] collects all
    /// of them.
    pub fn validate(&self) -> Result<()> {
        match self.validate_errors().into_iter().next() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Runs every validation check and returns *all* failures, in check
    /// order (hierarchy, then attributes, then methods). Empty means the
    /// schema is well-formed.
    pub fn validate_errors(&self) -> Vec<ModelError> {
        let mut errs = Vec::new();
        self.collect_hierarchy_errors(&mut errs);
        self.collect_attr_errors(&mut errs);
        self.collect_method_errors(&mut errs);
        errs
    }

    /// Runs every validation check and reports each failure as a
    /// structured [`Diagnostic`] (lint codes `TDL1xx`/`TDL002`, error
    /// severity, provenance spans with resolved names).
    pub fn validate_diagnostics(&self) -> Vec<Diagnostic> {
        self.validate_errors()
            .iter()
            .map(|e| self.diagnostic_for(e))
            .collect()
    }

    fn collect_hierarchy_errors(&self, errs: &mut Vec<ModelError>) {
        if let Some(t) = self.find_cycle() {
            errs.push(ModelError::CyclicHierarchy(t));
            return;
        }
        // CPL existence (only meaningful on an acyclic hierarchy), read
        // off the memo's `Arc` without cloning the list.
        for t in self.live_type_ids() {
            if let Err(e) = self.cached_cpl(t) {
                errs.push(e);
            }
        }
    }

    fn collect_attr_errors(&self, errs: &mut Vec<ModelError>) {
        for a in self.attr_ids() {
            let def = self.attr(a);
            if self.check_type(def.owner).is_err() {
                errs.push(ModelError::BadTypeId(def.owner));
                continue;
            }
            if !self.type_(def.owner).local_attrs.contains(&a) {
                errs.push(ModelError::AttrNotListedAtOwner {
                    attr: a,
                    owner: def.owner,
                });
            }
        }
        for t in self.live_type_ids() {
            for &a in &self.type_(t).local_attrs {
                if self.check_attr(a).is_err() {
                    errs.push(ModelError::BadAttrId(a));
                    continue;
                }
                if self.attr(a).owner != t {
                    errs.push(ModelError::ForeignAttrListed {
                        ty: t,
                        attr: a,
                        owner: self.attr(a).owner,
                    });
                }
            }
        }
    }

    fn collect_method_errors(&self, errs: &mut Vec<ModelError>) {
        'methods: for m in self.method_ids() {
            let method = self.method(m);
            if self.check_gf(method.gf).is_err() {
                errs.push(ModelError::BadGfId(method.gf));
                continue;
            }
            let gf = self.gf(method.gf);
            if method.specializers.len() != gf.arity {
                errs.push(ModelError::ArityMismatch {
                    gf: method.gf,
                    expected: gf.arity,
                    got: method.specializers.len(),
                });
                continue;
            }
            for spec in &method.specializers {
                if let Specializer::Type(t) = spec {
                    if self.check_type(*t).is_err() {
                        errs.push(ModelError::BadTypeId(*t));
                        // Later checks assume in-range specializers.
                        continue 'methods;
                    }
                }
            }
            if let Some(attr) = method.kind.accessed_attr() {
                if self.check_attr(attr).is_err() {
                    errs.push(ModelError::BadAttrId(attr));
                    continue;
                }
                let Some(at) = method.specializers.first().and_then(|s| s.as_type()) else {
                    errs.push(ModelError::AccessorNoObjectArg { method: m });
                    continue;
                };
                if !self.attr_available_at(attr, at) {
                    errs.push(ModelError::AccessorAttrUnavailable { attr, at });
                    continue;
                }
            }
            if let Some(body) = method.body() {
                if let Err(e) = self.validate_body(m, body) {
                    errs.push(e);
                }
            }
        }
        // No generic function may hold two methods with identical
        // specializer tuples (ambiguous dispatch).
        for g in self.gf_ids() {
            let methods = &self.gf(g).methods;
            for (i, &m1) in methods.iter().enumerate() {
                for &m2 in &methods[i + 1..] {
                    if self.method(m1).specializers == self.method(m2).specializers {
                        errs.push(ModelError::DuplicateMethodSignatures {
                            gf: g,
                            first: m1,
                            second: m2,
                        });
                    }
                }
            }
        }
    }

    fn validate_body(&self, m: crate::ids::MethodId, body: &crate::body::Body) -> Result<()> {
        let method = self.method(m);
        for local in &body.locals {
            if let ValueType::Object(t) = local.ty {
                self.check_type(t)?;
            }
        }
        let mut result: Result<()> = Ok(());
        body.visit_exprs(&mut |e| {
            if result.is_err() {
                return;
            }
            match e {
                Expr::Param(i) if *i >= method.specializers.len() => {
                    result = Err(ModelError::BadParamIndex {
                        method: m,
                        index: *i,
                    });
                }
                Expr::Var(v) if v.index() >= body.locals.len() => {
                    result = Err(ModelError::BadVarIndex {
                        method: m,
                        index: v.index(),
                    });
                }
                Expr::Call { gf, args } => {
                    if self.check_gf(*gf).is_err() {
                        result = Err(ModelError::BadGfId(*gf));
                    } else if self.gf(*gf).arity != args.len() {
                        result = Err(ModelError::CallArityMismatch {
                            gf: *gf,
                            expected: self.gf(*gf).arity,
                            got: args.len(),
                        });
                    }
                }
                _ => {}
            }
        });
        result?;
        // Assignment / return compatibility (the §6.3 concern).
        let mut flow_err: Result<()> = Ok(());
        body.visit_stmts(&mut |s| {
            if flow_err.is_err() {
                return;
            }
            if let Stmt::Assign { var, value } = s {
                let Some(local) = body.locals.get(var.index()) else {
                    return;
                };
                if let ValueType::Object(target) = local.ty {
                    if let CallArg::Object(v) = self.static_expr_type(m, value) {
                        if !self.is_subtype(v, target) {
                            flow_err = Err(ModelError::AssignmentTypeError {
                                method: m,
                                value: v,
                                target,
                            });
                        }
                    }
                }
            }
        });
        flow_err
    }

    // -- diagnostics ------------------------------------------------------

    fn ty_name(&self, t: TypeId) -> String {
        if t.index() < self.n_types() {
            self.type_name(t).to_string()
        } else {
            t.to_string()
        }
    }

    fn attr_name_diag(&self, a: AttrId) -> String {
        if a.index() < self.n_attrs() {
            self.attr_name(a).to_string()
        } else {
            a.to_string()
        }
    }

    fn gf_name_diag(&self, g: GfId) -> String {
        if g.index() < self.n_gfs() {
            self.gf_name(g).to_string()
        } else {
            g.to_string()
        }
    }

    fn method_label_diag(&self, m: MethodId) -> String {
        if m.index() < self.n_methods() {
            self.method_label(m).to_string()
        } else {
            m.to_string()
        }
    }

    /// Maps one validation failure onto the structured-diagnostic
    /// vocabulary, resolving ids to names for provenance.
    pub(crate) fn diagnostic_for(&self, err: &ModelError) -> Diagnostic {
        match err {
            ModelError::CyclicHierarchy(t) => {
                let name = self.ty_name(*t);
                Diagnostic::new(
                    LintCode::HierarchyCycle,
                    format!("type hierarchy contains a cycle through `{name}`"),
                    vec![Span::ty(name)],
                )
            }
            ModelError::InconsistentPrecedence(t) => {
                let name = self.ty_name(*t);
                Diagnostic::new(
                    LintCode::PrecedenceConflict,
                    format!("no consistent class precedence list exists for `{name}`"),
                    vec![Span::ty(name)],
                )
            }
            ModelError::AttrNotListedAtOwner { attr, owner } => {
                let a = self.attr_name_diag(*attr);
                let t = self.ty_name(*owner);
                Diagnostic::new(
                    LintCode::AttrOwnership,
                    format!("attribute `{a}` is not listed locally at its owner `{t}`"),
                    vec![Span::attr(a), Span::ty(t)],
                )
            }
            ModelError::ForeignAttrListed { ty, attr, owner } => {
                let a = self.attr_name_diag(*attr);
                let t = self.ty_name(*ty);
                let o = self.ty_name(*owner);
                Diagnostic::new(
                    LintCode::AttrOwnership,
                    format!("type `{t}` lists attribute `{a}` whose owner is `{o}`"),
                    vec![Span::ty(t), Span::attr(a), Span::ty(o)],
                )
            }
            ModelError::ArityMismatch { gf, expected, got } => {
                let g = self.gf_name_diag(*gf);
                Diagnostic::new(
                    LintCode::MethodArity,
                    format!(
                        "a method of `{g}` has {got} specializers, \
                         the generic function expects {expected}"
                    ),
                    vec![Span::gf(g)],
                )
            }
            ModelError::AccessorAttrUnavailable { attr, at } => {
                let a = self.attr_name_diag(*attr);
                let t = self.ty_name(*at);
                Diagnostic::new(
                    LintCode::AccessorContract,
                    format!("accessor attribute `{a}` is not available at type `{t}`"),
                    vec![Span::attr(a), Span::ty(t)],
                )
            }
            ModelError::AccessorNoObjectArg { method } => {
                let m = self.method_label_diag(*method);
                Diagnostic::new(
                    LintCode::AccessorContract,
                    format!("accessor `{m}` lacks an object first argument"),
                    vec![Span::method(m)],
                )
            }
            ModelError::DuplicateMethodSignatures { gf, first, second } => {
                let g = self.gf_name_diag(*gf);
                let m1 = self.method_label(*first);
                let m2 = self.method_label(*second);
                Diagnostic::new(
                    LintCode::DuplicateSignatures,
                    format!(
                        "generic function `{g}` has duplicate method signatures \
                         (`{m1}` and `{m2}`)"
                    ),
                    vec![Span::gf(g), Span::method(m1), Span::method(m2)],
                )
            }
            ModelError::AssignmentTypeError {
                method,
                value,
                target,
            } => {
                let m = self.method_label_diag(*method);
                let v = self.ty_name(*value);
                let t = self.ty_name(*target);
                Diagnostic::new(
                    LintCode::AssignmentTypeError,
                    format!(
                        "type error in `{m}`: assigning a `{v}` value into \
                         a variable of type `{t}`"
                    ),
                    vec![Span::method(m), Span::ty(v), Span::ty(t)],
                )
            }
            ModelError::BadParamIndex { method, index } => {
                let m = self.method_label_diag(*method);
                Diagnostic::new(
                    LintCode::BodyMalformed,
                    format!("body of `{m}` references parameter #{index} out of range"),
                    vec![Span::method(m)],
                )
            }
            ModelError::BadVarIndex { method, index } => {
                let m = self.method_label_diag(*method);
                Diagnostic::new(
                    LintCode::BodyMalformed,
                    format!("body of `{m}` references local variable #{index} out of range"),
                    vec![Span::method(m)],
                )
            }
            ModelError::CallArityMismatch { gf, expected, got } => {
                let g = self.gf_name_diag(*gf);
                Diagnostic::new(
                    LintCode::BodyMalformed,
                    format!("a call to `{g}` passes {got} arguments, expects {expected}"),
                    vec![Span::gf(g)],
                )
            }
            // Dangling ids, duplicate names and edge bookkeeping all fall
            // under "invalid reference".
            other => Diagnostic::new(LintCode::InvalidReference, other.to_string(), Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BodyBuilder;
    use crate::diag::Severity;
    use crate::methods::MethodKind;

    #[test]
    fn valid_schema_passes() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        s.add_accessors(x).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let get_x = s.gf_id("get_x").unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f1",
            vec![Specializer::Type(b)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        s.validate().unwrap();
        assert!(s.validate_errors().is_empty());
        assert!(s.validate_diagnostics().is_empty());
    }

    #[test]
    fn bad_param_index_caught() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.expr(Expr::Param(4));
        s.add_method(
            f,
            "f1",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        assert!(matches!(
            s.validate(),
            Err(ModelError::BadParamIndex { .. })
        ));
        let diags = s.validate_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::BodyMalformed);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].spans.iter().any(|sp| sp.name == "f1"));
    }

    #[test]
    fn call_arity_mismatch_caught() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let g = s.add_gf("g", 2, None).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(g, vec![Expr::Param(0)]); // g expects 2 args
        s.add_method(
            f,
            "f1",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        assert!(matches!(
            s.validate(),
            Err(ModelError::CallArityMismatch { .. })
        ));
    }

    #[test]
    fn incompatible_assignment_caught() {
        // g: G; g <- (param of unrelated type C) where C is NOT <= G.
        let mut s = Schema::new();
        let g_ty = s.add_type("G", &[]).unwrap();
        let c_ty = s.add_type("C", &[]).unwrap(); // unrelated
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        let g = bb.local("g", ValueType::Object(g_ty));
        bb.assign(g, Expr::Param(0));
        s.add_method(
            f,
            "f1",
            vec![Specializer::Type(c_ty)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("type error"));
        let diags = s.validate_diagnostics();
        assert_eq!(diags[0].code, LintCode::AssignmentTypeError);
        assert!(diags[0].message.contains('C') && diags[0].message.contains('G'));
    }

    #[test]
    fn dangling_specializer_caught() {
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
        // Simulate corruption: point the specializer at a bogus type.
        s.method_mut(m).specializers = vec![Specializer::Type(TypeId(99))];
        assert!(matches!(s.validate(), Err(ModelError::BadTypeId(_))));
        let diags = s.validate_diagnostics();
        assert_eq!(diags[0].code, LintCode::InvalidReference);
    }

    #[test]
    fn multiple_failures_are_all_collected() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        // Failure 1: bad parameter index in f1's body.
        let mut bb = BodyBuilder::new();
        bb.expr(Expr::Param(7));
        s.add_method(
            f,
            "f1",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        // Failures 2+3: duplicate signatures, injected behind the
        // builder's back so validation has something to find.
        let g = s.add_gf("g", 1, None).unwrap();
        s.add_method(
            g,
            "g1",
            vec![Specializer::Type(a)],
            MethodKind::General(Default::default()),
            None,
        )
        .unwrap();
        let m2 = s
            .add_method(
                g,
                "g2",
                vec![Specializer::Prim(crate::attrs::PrimType::Int)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        s.method_mut(m2).specializers = vec![Specializer::Type(a)];
        let errs = s.validate_errors();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(matches!(errs[0], ModelError::BadParamIndex { .. }));
        assert!(matches!(
            errs[1],
            ModelError::DuplicateMethodSignatures { .. }
        ));
        // validate() still reports the first.
        assert!(matches!(
            s.validate(),
            Err(ModelError::BadParamIndex { .. })
        ));
    }
}
