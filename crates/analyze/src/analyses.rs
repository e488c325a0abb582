//! The production analyses and the TDL2xx checks they power.
//!
//! Schema-wide (cached under the `None` analysis key):
//!
//! * **TDL201** — interprocedural nullability: a call site passes a value
//!   that is provably null on every path, and every method of the callee
//!   eliminates itself (null never matches a `Prim` specializer), so
//!   dispatch is guaranteed to fail.
//! * **TDL202** — constant propagation: an `if` condition folds to a
//!   compile-time constant, so the untaken branch (and any Augment
//!   pressure inside it) can never execute.
//!
//! Per-request (cached under the `Some((source, projection))` key):
//!
//! * **TDL203** — reachability: a surviving method is shadowed by a more
//!   specific survivor at every direct entry and is not invoked by any
//!   surviving call chain — it survives the projection but can never run.
//! * **TDL204** — liveness: a projected attribute is never read on any
//!   surviving path; the projection carries state no surviving behavior
//!   observes.
//! * **TDL205** — interprocedural type flow: binding an actual argument
//!   to a callee's formal induces a §6.4 def-use edge across the call
//!   boundary; types that only such edges drag into `Z` are Augment
//!   surrogates the intraprocedural check cannot see.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use td_core::applicability::compute_applicability_indexed;
use td_core::body_rewrite::{collect_flow_edges, compute_x, compute_y_and_z};
use td_model::{
    AnalysisPrecision, AttrBitSet, AttrId, Diagnostic, Expr, LintCode, MethodId, MethodKind,
    Schema, Span, Specializer, TypeId,
};

use crate::absval::{eval_body, AbsVal, EvalRecord};
use crate::framework::{solve, Analysis, CallGraph, Direction};

/// Interprocedural return-value analysis: the fact for each method is the
/// abstract value ([`AbsVal`]) it may return. Bottom-up so callee
/// summaries converge before their callers consult them.
pub struct ReturnValueAnalysis<'a> {
    schema: &'a Schema,
}

impl Analysis for ReturnValueAnalysis<'_> {
    type Fact = AbsVal;

    fn direction(&self) -> Direction {
        Direction::BottomUp
    }

    fn bottom(&self) -> AbsVal {
        AbsVal::BOTTOM
    }

    fn join(&self, into: &mut AbsVal, from: &AbsVal) -> bool {
        into.join_with(from)
    }

    fn transfer(
        &self,
        m: MethodId,
        _node: usize,
        _input: &AbsVal,
        graph: &CallGraph,
        facts: &[AbsVal],
    ) -> AbsVal {
        match self.schema.method(m).body() {
            // Accessor results depend on stored state: no information.
            None => AbsVal::TOP,
            Some(body) => eval_body(self.schema, m, body, graph, facts, None),
        }
    }
}

/// Transitive read-footprint analysis: the fact for each method is the
/// set of attributes some call chain from it may *read* (writer accessors
/// contribute nothing). Sharper than the index's footprints in two ways:
/// reads only, and computed over the index's precision-refined edges.
pub struct FootprintAnalysis<'a> {
    schema: &'a Schema,
    n_attrs: usize,
}

impl Analysis for FootprintAnalysis<'_> {
    type Fact = AttrBitSet;

    fn direction(&self) -> Direction {
        Direction::BottomUp
    }

    fn bottom(&self) -> AttrBitSet {
        AttrBitSet::new(self.n_attrs)
    }

    fn join(&self, into: &mut AttrBitSet, from: &AttrBitSet) -> bool {
        let before = into.len();
        into.union_with(from);
        into.len() != before
    }

    fn transfer(
        &self,
        m: MethodId,
        _node: usize,
        input: &AttrBitSet,
        _graph: &CallGraph,
        _facts: &[AttrBitSet],
    ) -> AttrBitSet {
        let mut out = input.clone();
        if let MethodKind::Reader(a) = self.schema.method(m).kind {
            out.insert(a);
        }
        out
    }
}

/// Reachability over surviving candidate edges: a node is reachable when
/// it is an entry, or a reachable surviving caller has it as a §4.1
/// candidate. Non-survivors never become reachable and never propagate.
struct Reachability {
    entries: HashSet<usize>,
    surviving: Vec<bool>,
}

impl Analysis for Reachability {
    type Fact = bool;

    fn direction(&self) -> Direction {
        Direction::TopDown
    }

    fn bottom(&self) -> bool {
        false
    }

    fn join(&self, into: &mut bool, from: &bool) -> bool {
        let changed = !*into && *from;
        *into |= *from;
        changed
    }

    fn transfer(
        &self,
        _m: MethodId,
        node: usize,
        input: &bool,
        _graph: &CallGraph,
        _facts: &[bool],
    ) -> bool {
        self.entries.contains(&node) || (*input && self.surviving[node])
    }
}

// ------------------------------------------------------------ schema checks

/// Runs the whole-schema analyses (nullability + constant propagation)
/// and reports TDL201/TDL202.
pub fn schema_checks(schema: &Schema) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let graph = {
        let _s = td_telemetry::span("analyze", "callgraph");
        CallGraph::whole_schema(schema)
    };
    let solution = {
        let _s = td_telemetry::span("analyze", "nullability");
        solve(&graph, &ReturnValueAnalysis { schema })
    };
    let _s = td_telemetry::span("analyze", "const_report");
    for &m in &graph.methods {
        let method = schema.method(m);
        let Some(body) = method.body() else { continue };
        // Reporting pass: re-evaluate once against the converged facts,
        // observing call sites (live branches only) and folded branches.
        let mut record = EvalRecord::default();
        eval_body(schema, m, body, &graph, &solution.facts, Some(&mut record));
        let label = schema.method_label(m).to_string();
        let mut flagged_gfs: HashSet<td_model::GfId> = HashSet::new();
        for call in &record.calls {
            let g = schema.gf(call.gf);
            if g.methods.is_empty() || !flagged_gfs.insert(call.gf) {
                continue;
            }
            let doomed = g.methods.iter().all(|&c| {
                let cand = schema.method(c);
                cand.specializers.iter().enumerate().any(|(j, s)| {
                    matches!(s, Specializer::Prim(_))
                        && call.args.get(j).is_some_and(|v| v.is_definitely_null())
                })
            });
            if doomed {
                let gf_name = schema.gf_name(call.gf).to_string();
                diags.push(Diagnostic::new(
                    LintCode::NullArgDispatch,
                    format!(
                        "call to `{gf_name}` in `{label}` passes a provably-null \
                         argument where every method requires a primitive — \
                         dispatch is guaranteed to fail at runtime"
                    ),
                    vec![Span::method(label.clone()), Span::gf(gf_name)],
                ));
            }
        }
        for branch in &record.const_branches {
            if branch.dead_stmts == 0 {
                continue;
            }
            let (value, dead) = if branch.cond {
                ("true", "else")
            } else {
                ("false", "then")
            };
            diags.push(Diagnostic::new(
                LintCode::ConstantBranch,
                format!(
                    "condition of an `if` in `{label}` is always {value}; {n} \
                     statement(s) in the {dead} branch can never execute",
                    n = branch.dead_stmts
                ),
                vec![Span::method(label.clone())],
            ));
        }
    }
    diags
}

// ----------------------------------------------------------- request checks

/// Runs the per-request analyses (reachability, liveness, interprocedural
/// type flow) and reports TDL203/TDL204/TDL205.
pub fn request_checks(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    precision: AnalysisPrecision,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // The applicability verdicts are precision-independent by the
    // verdict-preservation property; the precision only sharpens the call
    // edges the analyses below iterate over.
    let app = match compute_applicability_indexed(schema, source, projection, false) {
        Ok(a) => a,
        Err(e) => {
            diags.push(Diagnostic::new(
                LintCode::InvalidRequest,
                format!("analysis request could not be evaluated: {e}"),
                Vec::new(),
            ));
            return diags;
        }
    };
    let index = match schema.cached_applicability_index_at(source, precision) {
        Ok(i) => i,
        Err(e) => {
            diags.push(Diagnostic::new(
                LintCode::InvalidRequest,
                format!("applicability index unavailable: {e}"),
                Vec::new(),
            ));
            return diags;
        }
    };
    let graph = CallGraph::from_index(&index);
    check_unreachable_methods(schema, source, &app, &graph, &mut diags);
    check_dead_attributes(schema, projection, &app, &graph, &mut diags);
    check_interproc_augment(schema, source, projection, &app, &mut diags);
    diags
}

/// TDL203: shadowing + reachability. A surviving general method that (a)
/// loses dispatch to a more specific survivor on its own most-natural
/// argument tuple and (b) is not a candidate of any call chain rooted at
/// an unshadowed survivor can never execute on the derived type.
fn check_unreachable_methods(
    schema: &Schema,
    source: TypeId,
    app: &td_core::applicability::Applicability,
    graph: &CallGraph,
    diags: &mut Vec<Diagnostic>,
) {
    let _s = td_telemetry::span("analyze", "reachability");
    // Shadowing test per surviving general method: dispatch its gf on the
    // tuple that targets the method most directly (the source where the
    // specializer admits it, the specializer itself elsewhere) and see
    // which projection survivor actually wins.
    let above_source = schema.ancestor_set(source);
    let mut shadowed_by: BTreeMap<MethodId, MethodId> = BTreeMap::new();
    for &m in &app.applicable {
        let method = schema.method(m);
        if method.is_accessor() {
            continue;
        }
        let args: Vec<td_model::CallArg> = method
            .specializers
            .iter()
            .map(|s| match s {
                Specializer::Type(t) => {
                    if above_source.contains(*t) {
                        td_model::CallArg::Object(source)
                    } else {
                        td_model::CallArg::Object(*t)
                    }
                }
                Specializer::Prim(p) => td_model::CallArg::Prim(*p),
            })
            .collect();
        let Ok(ranked) = schema.rank_applicable(method.gf, &args) else {
            continue;
        };
        let winner = ranked.iter().copied().find(|&c| app.is_applicable(c));
        if let Some(w) = winner {
            if w != m {
                shadowed_by.insert(m, w);
            }
        }
    }
    if shadowed_by.is_empty() {
        return;
    }
    // Reachability from the unshadowed survivors over surviving candidate
    // edges (TopDown instance of the framework).
    let surviving: Vec<bool> = graph
        .methods
        .iter()
        .map(|&m| app.is_applicable(m))
        .collect();
    let entries: HashSet<usize> = graph
        .methods
        .iter()
        .enumerate()
        .filter(|&(i, &m)| {
            surviving[i] && !schema.method(m).is_accessor() && !shadowed_by.contains_key(&m)
        })
        .map(|(i, _)| i)
        .collect();
    let reach = solve(graph, &Reachability { entries, surviving });
    for (&m, &winner) in &shadowed_by {
        let reachable = graph.node_of(m).map(|n| reach.facts[n]).unwrap_or(true);
        if reachable {
            continue;
        }
        let label = schema.method_label(m).to_string();
        let winner_label = schema.method_label(winner).to_string();
        diags.push(Diagnostic::new(
            LintCode::UnreachableMethod,
            format!(
                "method `{label}` survives the projection but can never run: \
                 dispatch prefers `{winner_label}` at every direct call, and no \
                 surviving call chain reaches it"
            ),
            vec![Span::method(label), Span::method(winner_label)],
        ));
    }
}

/// TDL204: a projected attribute no surviving method can read. The
/// footprints come from the monotone framework over the index's
/// (precision-refined) candidate edges, so `Semantic` precision prunes
/// spurious reads that `Syntactic` conservatively keeps.
fn check_dead_attributes(
    schema: &Schema,
    projection: &BTreeSet<AttrId>,
    app: &td_core::applicability::Applicability,
    graph: &CallGraph,
    diags: &mut Vec<Diagnostic>,
) {
    let _s = td_telemetry::span("analyze", "footprints");
    let solution = solve(
        graph,
        &FootprintAnalysis {
            schema,
            n_attrs: schema.n_attrs(),
        },
    );
    for &a in projection {
        let read = app.applicable.iter().any(|&m| {
            graph
                .node_of(m)
                .map(|n| solution.facts[n].contains(a))
                // A survivor outside the graph universe: assume it reads.
                .unwrap_or(true)
        });
        if read {
            continue;
        }
        let name = schema.attr_name(a).to_string();
        diags.push(Diagnostic::new(
            LintCode::DeadAttribute,
            format!(
                "attribute `{name}` is carried by the projection but never \
                 read by any surviving method"
            ),
            vec![Span::attr(name)],
        ));
    }
}

/// TDL205: §6.4's `Y`/`Z` computation with call-boundary def-use edges
/// added (binding actual `v` to a formal specialized on `t` flows a `v`
/// value into a `t` slot). Types in the interprocedural `Z` but not the
/// intraprocedural one are Augment surrogates only this analysis sees.
fn check_interproc_augment(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    app: &td_core::applicability::Applicability,
    diags: &mut Vec<Diagnostic>,
) {
    let _s = td_telemetry::span("analyze", "typeflow");
    let x = compute_x(schema, source, projection);
    let intra = collect_flow_edges(schema, &app.applicable);
    let (_, z_intra) = compute_y_and_z(&intra, &x);
    let mut edges = intra;
    for &m in &app.applicable {
        let method = schema.method(m);
        let Some(body) = method.body() else { continue };
        body.visit_exprs(&mut |e| {
            let Expr::Call { gf, args } = e else { return };
            for &c in &schema.gf(*gf).methods {
                if !app.is_applicable(c) {
                    continue;
                }
                for (j, spec) in schema.method(c).specializers.iter().enumerate() {
                    let Specializer::Type(t) = spec else { continue };
                    let Some(arg) = args.get(j) else { continue };
                    if let td_model::CallArg::Object(v) = schema.static_expr_type(m, arg) {
                        edges.push((*t, v));
                    }
                }
            }
        });
    }
    let (_, z_inter) = compute_y_and_z(&edges, &x);
    let forced: Vec<TypeId> = z_inter.difference(&z_intra).copied().collect();
    if forced.is_empty() {
        return;
    }
    let names = forced
        .iter()
        .map(|&t| format!("`{}`", schema.type_name(t)))
        .collect::<Vec<_>>()
        .join(", ");
    let spans = forced
        .iter()
        .map(|&t| Span::ty(schema.type_name(t)))
        .collect();
    diags.push(Diagnostic::new(
        LintCode::InterprocAugment,
        format!(
            "call-boundary def-use flow forces Augment (§6.4) surrogates for \
             types the intraprocedural check misses: {names}"
        ),
        spans,
    ));
}
