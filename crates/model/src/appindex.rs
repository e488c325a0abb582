//! The applicability condensation index: amortized O(V+E) `IsApplicable`.
//!
//! The pass-based `IsApplicable` engine in `td-core` re-walks the method
//! call graph from scratch for **every** projection over a source type,
//! with `O(passes × methods)` worst-case behavior. But the call graph
//! itself depends only on `(schema, source)` — the projection list enters
//! the computation *only* at the accessor leaves. This module precomputes
//! everything projection-independent once per schema generation:
//!
//! 1. the **call graph** over the universe (every method applicable to the
//!    source type), with one edge per §4.1 candidate of every
//!    source-relevant call site;
//! 2. its **Tarjan SCC condensation**, computed iteratively (an explicit
//!    frame stack, so 500-deep call chains cannot overflow the thread
//!    stack), whose emission order is reverse topological;
//! 3. per-SCC **attribute footprints** — dense [`AttrBitSet`]s holding
//!    every accessor attribute transitively reachable from the SCC —
//!    propagated bottom-up in a single O(V+E) pass, together with a
//!    `dead` bit (some reachable site has no candidate at all) and a
//!    `fallback` bit (see below).
//!
//! A projection query then classifies a method with one subset test:
//! applicable iff nothing reachable is dead and `footprint ⊆ projection`.
//!
//! ## The fallback seam
//!
//! The subset test is exact only for the *conjunctive* fragment of the
//! call graph: call sites with exactly one candidate are AND-edges, and
//! the greatest fixpoint over an AND-graph is reachability of failures.
//! Two features of §4.1 break pure conjunction:
//!
//! * a site with **several candidates** survives if *any* candidate does
//!   (disjunction — a footprint union would over-approximate the
//!   requirement);
//! * a site hitting the **case-2 multi-source rule** (two or more
//!   source-relevant argument positions) takes the call as written, and
//!   its verdict interacts with the same OR-structure.
//!
//! Methods whose reachable region contains either feature get the
//! `fallback` bit (the bit propagates caller-ward through the
//! condensation, because a caller's verdict depends on its callees').
//! [`ApplicabilityIndex::verdict`] returns `None` for them and the caller
//! (in `td-core`) re-runs the pass-based engine for exactly that residue,
//! seeded with the indexed verdicts — so results are identical by
//! construction, and the common all-AND case never enters the pass loop.
//!
//! The index is cached inside [`Schema`] behind the same generation
//! counter as the dispatch tables (see [`crate::cache`]), so a schema
//! clone — in particular every [`crate::SchemaSnapshot`] fork handed to a
//! batch worker — carries the warm index for free.

use crate::dispatch::CallArg;
use crate::error::Result;
use crate::ids::{AttrBitSet, AttrId, MethodId, TypeId};
use crate::schema::Schema;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// How the index computes attribute footprints and classifies call sites.
///
/// `Syntactic` is the PR-3 construction: any disjunctive or case-2 call
/// site conservatively marks its whole reachable region `fallback`.
/// `Semantic` runs the abstract-interpretation refinement on top: using a
/// finished lower-precision index, a multi-candidate site whose live
/// candidates have a ⊆-minimum footprint collapses to one conjunctive
/// edge, dead candidates drop out, and single-candidate case-2 sites
/// become plain edges — all verdict-preserving (see
/// [`ApplicabilityIndex::build_with`]), so every verdict either index
/// decides is the same while `Semantic` demotes fallback methods to the
/// indexed fast path. `td-analyze` consults the semantic index; the
/// projection pipeline always classifies at `Syntactic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AnalysisPrecision {
    /// Call-graph construction only; disjunctive sites defer to the
    /// pass-based engine.
    #[default]
    Syntactic,
    /// Iterated footprint refinement over the syntactic index; strictly
    /// fewer fallback methods, identical verdicts.
    Semantic,
}

impl AnalysisPrecision {
    /// Stable lowercase name (`"syntactic"` / `"semantic"`), used by the
    /// CLI `--precision` flag and the server `precision` field.
    pub fn as_str(self) -> &'static str {
        match self {
            AnalysisPrecision::Syntactic => "syntactic",
            AnalysisPrecision::Semantic => "semantic",
        }
    }
}

impl fmt::Display for AnalysisPrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for AnalysisPrecision {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "syntactic" => Ok(AnalysisPrecision::Syntactic),
            "semantic" => Ok(AnalysisPrecision::Semantic),
            other => Err(format!(
                "unknown precision `{other}` (expected `syntactic` or `semantic`)"
            )),
        }
    }
}

/// What the semantic refinement decided for one call site, consulting the
/// previous (finished) index round.
enum SiteRefinement {
    /// The disjunction collapsed to a single conjunctive edge.
    Edge(MethodId),
    /// Every candidate is provably dead: the site is unsatisfiable.
    Dead,
    /// The candidates are incomparable or still undecided; keep the
    /// syntactic fallback treatment.
    Fallback,
}

/// The per-`(schema generation, source type)` applicability index.
///
/// Built once by [`Schema::cached_applicability_index`] and shared via
/// `Arc`; answers most [`verdict`](ApplicabilityIndex::verdict) queries
/// with a bitset subset test. See the module docs for the construction
/// and the exactness argument.
#[derive(Debug, Clone)]
pub struct ApplicabilityIndex {
    pub(crate) source: TypeId,
    pub(crate) n_attrs: usize,
    /// The precision the index was built at (see [`AnalysisPrecision`]).
    pub(crate) precision: AnalysisPrecision,
    /// The universe (methods applicable to `source`), in method-id order;
    /// node `i` of the call graph is `methods[i]`.
    pub(crate) methods: Vec<MethodId>,
    pub(crate) node_of: HashMap<MethodId, usize>,
    /// Adjacency of the (possibly refined) call graph, per node — one
    /// entry per retained §4.1 candidate edge. Exposed to `td-analyze`'s
    /// monotone framework through [`callees`](ApplicabilityIndex::callees).
    pub(crate) edges: Vec<Vec<usize>>,
    /// Node → SCC id, in Tarjan emission (= reverse topological) order.
    pub(crate) scc_of: Vec<usize>,
    /// Per-SCC union of transitively reachable accessor attributes.
    pub(crate) scc_footprint: Vec<AttrBitSet>,
    /// Per-SCC: some reachable call site has no candidate at all.
    pub(crate) scc_dead: Vec<bool>,
    /// Per-SCC: some reachable site is disjunctive or case-2 — the subset
    /// test is not exact and the caller must use the pass-based engine.
    pub(crate) scc_fallback: Vec<bool>,
    /// Per-SCC node membership, in emission order (matches `scc_of` ids).
    pub(crate) scc_members: Vec<Vec<usize>>,
    /// Per-SCC: the component contains an internal call edge — a genuine
    /// call ring (size > 1, or a self-recursive method). Verdicts inside
    /// such components rest on the §4 optimistic assumption.
    pub(crate) scc_cyclic: Vec<bool>,
    /// Number of universe methods whose verdict needs the fallback.
    pub(crate) fallback_methods: usize,
    /// Lazily-memoized call rings (see
    /// [`cycle_groups`](ApplicabilityIndex::cycle_groups)): the groups
    /// are a pure function of the condensation, and consumers (TDL003,
    /// `tdv explain`'s ring notes) ask per *diagnostic*, so they are
    /// derived at most once per index instance.
    pub(crate) cycle_rings: OnceLock<Vec<Vec<MethodId>>>,
}

impl ApplicabilityIndex {
    /// Builds the index for projections over `source`: call-graph
    /// construction, iterative Tarjan condensation, and one bottom-up
    /// footprint/dead/fallback propagation pass (syntactic precision).
    pub fn build(schema: &Schema, source: TypeId) -> Result<ApplicabilityIndex> {
        Self::build_pass(schema, source, None)
    }

    /// Builds the index at the requested precision.
    ///
    /// `Semantic` iterates the refinement to a fixpoint: each round
    /// rebuilds the graph consulting the previous round's finished
    /// footprints, and stops when the fallback count no longer shrinks
    /// (it shrinks monotonically — refinement only removes fallback
    /// causes, never adds them — so the loop is bounded by the universe
    /// size).
    ///
    /// **Verdict preservation.** At a multi-candidate site the §4.1
    /// engine succeeds iff *some* candidate is applicable. For a
    /// non-fallback candidate `c` of the previous round,
    /// `applicable(c, P) ⟺ ¬dead(c) ∧ fp(c) ⊆ P` exactly. Dropping dead
    /// candidates preserves the disjunction; and when a live candidate
    /// `c_min` satisfies `fp(c_min) ⊆ fp(c)` for every live `c`, then
    /// `∃c: fp(c) ⊆ P ⟺ fp(c_min) ⊆ P`, so one conjunctive edge to
    /// `c_min` encodes the site. Sites with undecided (fallback)
    /// candidates or incomparable footprints keep the fallback seam, so
    /// every answered verdict stays exact.
    pub fn build_with(
        schema: &Schema,
        source: TypeId,
        precision: AnalysisPrecision,
    ) -> Result<ApplicabilityIndex> {
        let mut idx = Self::build_pass(schema, source, None)?;
        if precision == AnalysisPrecision::Semantic {
            loop {
                let refined = Self::build_pass(schema, source, Some(&idx))?;
                if refined.fallback_methods < idx.fallback_methods {
                    idx = refined;
                } else {
                    break;
                }
            }
            idx.precision = AnalysisPrecision::Semantic;
        }
        Ok(idx)
    }

    /// Classifies one multi-candidate (or case-2) site against the
    /// previous round's index. See [`build_with`](Self::build_with) for
    /// the exactness argument.
    fn refine_site(prev: &ApplicabilityIndex, candidates: &[MethodId]) -> SiteRefinement {
        let mut live: Vec<usize> = Vec::with_capacity(candidates.len());
        for c in candidates {
            let Some(&j) = prev.node_of.get(c) else {
                return SiteRefinement::Fallback;
            };
            let sid = prev.scc_of[j];
            if prev.scc_fallback[sid] {
                return SiteRefinement::Fallback;
            }
            if prev.scc_dead[sid] {
                continue;
            }
            live.push(j);
        }
        match live[..] {
            [] => SiteRefinement::Dead,
            [only] => SiteRefinement::Edge(prev.methods[only]),
            _ => {
                'candidates: for &c in &live {
                    let fp = &prev.scc_footprint[prev.scc_of[c]];
                    for &d in &live {
                        if !fp.is_subset(&prev.scc_footprint[prev.scc_of[d]]) {
                            continue 'candidates;
                        }
                    }
                    return SiteRefinement::Edge(prev.methods[c]);
                }
                SiteRefinement::Fallback
            }
        }
    }

    /// One construction round: the PR-3 syntactic build when `refine` is
    /// `None`, otherwise the semantic refinement consulting the finished
    /// previous round.
    fn build_pass(
        schema: &Schema,
        source: TypeId,
        refine: Option<&ApplicabilityIndex>,
    ) -> Result<ApplicabilityIndex> {
        let methods = schema.methods_applicable_to_type(source);
        let n = methods.len();
        let node_of: HashMap<MethodId, usize> =
            methods.iter().enumerate().map(|(i, &m)| (m, i)).collect();

        // ---- call-graph construction ------------------------------------
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut local_attr: Vec<Option<AttrId>> = vec![None; n];
        let mut local_dead = vec![false; n];
        let mut local_fallback = vec![false; n];
        let mut scratch: Vec<CallArg> = Vec::new();
        for (i, &m) in methods.iter().enumerate() {
            if let Some(attr) = schema.method(m).kind.accessed_attr() {
                local_attr[i] = Some(attr);
                continue;
            }
            for site in schema.call_sites(m, source)? {
                if site.source_positions.is_empty() {
                    continue;
                }
                let (candidates, _) = schema.site_candidates(source, &site, &mut scratch);
                if candidates.is_empty() {
                    // An unsatisfiable call: the method dies under every
                    // projection. Reachability propagates the bit upward.
                    local_dead[i] = true;
                    continue;
                }
                if site.source_positions.len() > 1 || candidates.len() > 1 {
                    if let Some(prev) = refine {
                        match Self::refine_site(prev, &candidates) {
                            SiteRefinement::Edge(c) => {
                                // The disjunction collapsed: one exact
                                // conjunctive edge replaces the fallback.
                                if let Some(&j) = node_of.get(&c) {
                                    if !edges[i].contains(&j) {
                                        edges[i].push(j);
                                    }
                                } else {
                                    local_fallback[i] = true;
                                }
                                continue;
                            }
                            SiteRefinement::Dead => {
                                local_dead[i] = true;
                                continue;
                            }
                            SiteRefinement::Fallback => {}
                        }
                    }
                    local_fallback[i] = true;
                }
                for c in candidates {
                    match node_of.get(&c) {
                        Some(&j) => {
                            if !edges[i].contains(&j) {
                                edges[i].push(j);
                            }
                        }
                        // Candidates of source-relevant sites are always
                        // applicable to the source type (the substituted
                        // position subsumes it), so this arm is
                        // unreachable — but if the model ever relaxes
                        // that, degrade to the exact engine rather than
                        // guess.
                        None => local_fallback[i] = true,
                    }
                }
            }
        }

        // ---- iterative Tarjan SCC condensation --------------------------
        const UNVISITED: usize = usize::MAX;
        let mut disc = vec![UNVISITED; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut tarjan_stack: Vec<usize> = Vec::new();
        let mut scc_of = vec![UNVISITED; n];
        let mut scc_members: Vec<Vec<usize>> = Vec::new();
        let mut next_disc = 0usize;
        // Explicit DFS frames `(node, next edge offset)` — recursion depth
        // equals call-chain depth, which the workloads push to 500+.
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if disc[root] != UNVISITED {
                continue;
            }
            disc[root] = next_disc;
            low[root] = next_disc;
            next_disc += 1;
            tarjan_stack.push(root);
            on_stack[root] = true;
            frames.push((root, 0));
            while let Some(&(v, ep)) = frames.last() {
                if let Some(&w) = edges[v].get(ep) {
                    frames.last_mut().expect("frame exists").1 += 1;
                    if disc[w] == UNVISITED {
                        disc[w] = next_disc;
                        low[w] = next_disc;
                        next_disc += 1;
                        tarjan_stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(disc[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (p, _)) = frames.last_mut() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == disc[v] {
                        let sid = scc_members.len();
                        let mut members = Vec::new();
                        loop {
                            let w = tarjan_stack.pop().expect("SCC stack holds v");
                            on_stack[w] = false;
                            scc_of[w] = sid;
                            members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        scc_members.push(members);
                    }
                }
            }
        }

        // ---- bottom-up propagation in emission order --------------------
        // Tarjan pops an SCC only after every SCC it can reach was popped,
        // so emission order is reverse topological: every cross edge from
        // SCC `sid` targets an SCC with a smaller id, already finalized.
        let n_attrs = schema.n_attrs();
        let n_sccs = scc_members.len();
        let mut scc_footprint: Vec<AttrBitSet> = Vec::with_capacity(n_sccs);
        let mut scc_dead = vec![false; n_sccs];
        let mut scc_fallback = vec![false; n_sccs];
        for (sid, members) in scc_members.iter().enumerate() {
            let mut fp = AttrBitSet::new(n_attrs);
            for &v in members {
                if let Some(a) = local_attr[v] {
                    fp.insert(a);
                }
                scc_dead[sid] |= local_dead[v];
                scc_fallback[sid] |= local_fallback[v];
                for &w in &edges[v] {
                    let ws = scc_of[w];
                    if ws == sid {
                        continue;
                    }
                    debug_assert!(ws < sid, "emission order must be reverse topological");
                    fp.union_with(&scc_footprint[ws]);
                    scc_dead[sid] |= scc_dead[ws];
                    scc_fallback[sid] |= scc_fallback[ws];
                }
            }
            scc_footprint.push(fp);
        }

        let fallback_methods = (0..n).filter(|&i| scc_fallback[scc_of[i]]).count();
        // An SCC is a call ring iff it has an internal edge: components of
        // size > 1 always do (strong connectivity), and singletons only
        // when the method calls itself.
        let mut scc_cyclic = vec![false; n_sccs];
        for (v, out) in edges.iter().enumerate() {
            for &w in out {
                if scc_of[w] == scc_of[v] {
                    scc_cyclic[scc_of[v]] = true;
                }
            }
        }
        Ok(ApplicabilityIndex {
            source,
            n_attrs,
            precision: AnalysisPrecision::Syntactic,
            methods,
            node_of,
            edges,
            scc_of,
            scc_footprint,
            scc_dead,
            scc_fallback,
            scc_members,
            scc_cyclic,
            fallback_methods,
            cycle_rings: OnceLock::new(),
        })
    }

    /// The source type the index was built for.
    pub fn source(&self) -> TypeId {
        self.source
    }

    /// The universe the index classifies (methods applicable to the
    /// source type), in method-id order.
    pub fn universe(&self) -> &[MethodId] {
        &self.methods
    }

    /// Number of strongly connected components in the condensation.
    pub fn n_sccs(&self) -> usize {
        self.scc_footprint.len()
    }

    /// Number of universe methods whose verdict requires the pass-based
    /// fallback (disjunctive or case-2 structure in their reachable
    /// region).
    pub fn fallback_methods(&self) -> usize {
        self.fallback_methods
    }

    /// True when every universe method is decided by the subset test.
    pub fn is_fully_indexed(&self) -> bool {
        self.fallback_methods == 0
    }

    /// The precision this index was built at.
    pub fn precision(&self) -> AnalysisPrecision {
        self.precision
    }

    /// The retained call-graph successors of a universe method (one per
    /// kept §4.1 candidate edge), or `None` for methods outside the
    /// universe. This is the graph `td-analyze`'s monotone framework
    /// iterates over.
    pub fn callees(&self, m: MethodId) -> Option<impl Iterator<Item = MethodId> + '_> {
        let &i = self.node_of.get(&m)?;
        Some(self.edges[i].iter().map(move |&j| self.methods[j]))
    }

    /// The SCC id of a universe method (ids are in Tarjan emission =
    /// reverse topological order: every cross edge targets a smaller id).
    pub fn scc_id(&self, m: MethodId) -> Option<usize> {
        self.node_of.get(&m).map(|&i| self.scc_of[i])
    }

    /// The universe methods of one SCC, in node order.
    pub fn scc_methods(&self, sid: usize) -> impl Iterator<Item = MethodId> + '_ {
        self.scc_members[sid].iter().map(move |&v| self.methods[v])
    }

    /// True iff the SCC is a genuine call ring (internal edge).
    pub fn scc_is_cyclic(&self, sid: usize) -> bool {
        self.scc_cyclic[sid]
    }

    /// True iff some call site reachable from the SCC has no candidate.
    pub fn scc_is_dead(&self, sid: usize) -> bool {
        self.scc_dead[sid]
    }

    /// True iff the SCC's verdicts need the pass-based fallback.
    pub fn scc_is_fallback(&self, sid: usize) -> bool {
        self.scc_fallback[sid]
    }

    /// The footprint bitset of one SCC.
    pub fn scc_footprint_bits(&self, sid: usize) -> &AttrBitSet {
        &self.scc_footprint[sid]
    }

    /// Converts a projection list into the index's bitset representation,
    /// sized to be word-compatible with the stored footprints.
    pub fn projection_bits(&self, projection: &BTreeSet<AttrId>) -> AttrBitSet {
        let mut bits = AttrBitSet::new(self.n_attrs);
        for &a in projection {
            bits.insert(a);
        }
        bits
    }

    /// The transitive attribute footprint of a universe method (every
    /// accessor attribute reachable through its §4.1 candidate edges), or
    /// `None` for methods outside the universe. Exact only for
    /// non-fallback methods — fallback regions contain disjunctions the
    /// union over-approximates.
    pub fn footprint(&self, m: MethodId) -> Option<&AttrBitSet> {
        let &i = self.node_of.get(&m)?;
        Some(&self.scc_footprint[self.scc_of[i]])
    }

    /// True when `m`'s applicability verdict for this source rests on the
    /// §4 optimistic cycle assumption: the method sits on a call ring
    /// (nontrivial SCC, or self-recursion) of the condensed call graph.
    pub fn in_cycle(&self, m: MethodId) -> bool {
        match self.node_of.get(&m) {
            Some(&i) => self.scc_cyclic[self.scc_of[i]],
            None => false,
        }
    }

    /// The call rings of the condensed graph: one group per SCC with an
    /// internal edge, members sorted by method id, groups ordered by their
    /// smallest member. These are exactly the regions where §4's
    /// `IsApplicable` assumes methods applicable before checking them.
    ///
    /// Derived lazily and memoized on the index, so ring consumers that
    /// ask once per diagnostic (TDL003, explain's ring notes) pay the
    /// group construction once per `(schema generation, source)` — the
    /// index itself is already cached at that granularity.
    pub fn cycle_groups(&self) -> &[Vec<MethodId>] {
        self.cycle_rings.get_or_init(|| {
            let mut groups: Vec<Vec<MethodId>> = self
                .scc_members
                .iter()
                .enumerate()
                .filter(|&(sid, _)| self.scc_cyclic[sid])
                .map(|(_, members)| {
                    let mut g: Vec<MethodId> = members.iter().map(|&v| self.methods[v]).collect();
                    g.sort();
                    g
                })
                .collect();
            groups.sort();
            groups
        })
    }

    /// Classifies `m` against a projection (pre-converted with
    /// [`projection_bits`](ApplicabilityIndex::projection_bits)):
    /// `Some(true)` = applicable, `Some(false)` = not applicable, `None` =
    /// the index cannot decide (method outside the universe, or its
    /// reachable region is disjunctive/case-2) and the caller must use the
    /// pass-based engine.
    pub fn verdict(&self, m: MethodId, projection: &AttrBitSet) -> Option<bool> {
        let &i = self.node_of.get(&m)?;
        let sid = self.scc_of[i];
        if self.scc_fallback[sid] {
            return None;
        }
        Some(!self.scc_dead[sid] && self.scc_footprint[sid].is_subset(projection))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::ValueType;
    use crate::body::{BodyBuilder, Expr};
    use crate::methods::{MethodKind, Specializer};

    #[test]
    fn bitset_roundtrip_across_word_boundaries() {
        let mut set = AttrBitSet::new(130);
        assert!(set.is_empty());
        for i in [0usize, 63, 64, 129] {
            set.insert(AttrId::from_index(i));
        }
        assert_eq!(set.len(), 4);
        assert!(set.contains(AttrId::from_index(64)));
        assert!(!set.contains(AttrId::from_index(65)));
        let ids: Vec<usize> = set.iter().map(|a| a.index()).collect();
        assert_eq!(ids, vec![0, 63, 64, 129]);

        let mut bigger = set.clone();
        bigger.insert(AttrId::from_index(200)); // grows past sized capacity
        assert!(set.is_subset(&bigger));
        assert!(!bigger.is_subset(&set));
        let mut union = AttrBitSet::new(130);
        union.union_with(&bigger);
        assert_eq!(union, bigger);
    }

    /// Chain m0 → m1 → get_x plus an independent reader of y.
    fn chain_schema() -> (Schema, TypeId) {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let y = s.add_attr("y", ValueType::INT, a).unwrap();
        let (get_x, _) = s.add_reader(x, a).unwrap();
        s.add_reader(y, a).unwrap();
        let f1 = s.add_gf("f1", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f1,
            "m1",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        let f0 = s.add_gf("f0", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(f1, vec![Expr::Param(0)]);
        s.add_method(
            f0,
            "m0",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        (s, a)
    }

    #[test]
    fn footprints_propagate_through_chains() {
        let (s, a) = chain_schema();
        let idx = ApplicabilityIndex::build(&s, a).unwrap();
        assert!(idx.is_fully_indexed());
        assert_eq!(idx.universe().len(), 4);
        // Acyclic: one SCC per method.
        assert_eq!(idx.n_sccs(), 4);

        let x = s.attr_id("x").unwrap();
        let y = s.attr_id("y").unwrap();
        let m0 = s.method_by_label("m0").unwrap();
        let fp = idx.footprint(m0).unwrap();
        assert!(fp.contains(x) && !fp.contains(y));

        let proj_x = idx.projection_bits(&[x].into_iter().collect());
        let proj_y = idx.projection_bits(&[y].into_iter().collect());
        assert_eq!(idx.verdict(m0, &proj_x), Some(true));
        assert_eq!(idx.verdict(m0, &proj_y), Some(false));
    }

    #[test]
    fn cycle_collapses_to_one_scc_and_shares_footprint() {
        // p1 ↔ q1 cycle where q1 also reads x: both get footprint {x}.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (get_x, _) = s.add_reader(x, a).unwrap();
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
        bb.call(get_x, vec![Expr::Param(0)]);
        let q1 = s
            .add_method(
                q,
                "q1",
                vec![Specializer::Type(a)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let idx = ApplicabilityIndex::build(&s, a).unwrap();
        assert!(idx.is_fully_indexed());
        // 3 nodes (accessor, p1, q1) but p1/q1 share one SCC.
        assert_eq!(idx.n_sccs(), 2);
        assert_eq!(idx.footprint(p1), idx.footprint(q1));
        let empty = idx.projection_bits(&BTreeSet::new());
        assert_eq!(idx.verdict(p1, &empty), Some(false));
        let proj_x = idx.projection_bits(&[x].into_iter().collect());
        assert_eq!(idx.verdict(q1, &proj_x), Some(true));
    }

    #[test]
    fn multi_candidate_call_falls_back() {
        // B ≤ A; f has methods on A and B, so the call f(p0) from h1 with
        // source B has two candidates — disjunctive, not indexable; the
        // accessors below stay indexable.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (get_x, mx) = s.add_reader(x, a).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f_a",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        s.add_method(
            f,
            "f_b",
            vec![Specializer::Type(b)],
            MethodKind::General(Default::default()),
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
        let idx = ApplicabilityIndex::build(&s, b).unwrap();
        assert!(!idx.is_fully_indexed());
        let proj = idx.projection_bits(&[x].into_iter().collect());
        assert_eq!(idx.verdict(h1, &proj), None, "disjunction must defer");
        assert_eq!(idx.verdict(mx, &proj), Some(true), "leaves stay indexed");
        // Methods outside the universe are not the index's business.
        let unrelated = s.add_type("U", &[]).unwrap();
        let g = s.add_gf("g", 1, None).unwrap();
        let m_u = s
            .add_method(
                g,
                "g_u",
                vec![Specializer::Type(unrelated)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        let idx = ApplicabilityIndex::build(&s, b).unwrap();
        assert_eq!(idx.verdict(m_u, &proj), None);
        assert!(idx.footprint(m_u).is_none());
    }

    #[test]
    fn unsatisfiable_call_marks_dead() {
        // m calls a gf with no applicable method at all: dead under every
        // projection.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let u = s.add_type("U", &[]).unwrap();
        let g = s.add_gf("g", 1, None).unwrap();
        s.add_method(
            g,
            "g_u",
            vec![Specializer::Type(u)],
            MethodKind::General(Default::default()),
            None,
        )
        .unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(g, vec![Expr::Param(0)]);
        let m = s
            .add_method(
                f,
                "m",
                vec![Specializer::Type(a)],
                MethodKind::General(bb.finish()),
                None,
            )
            .unwrap();
        let idx = ApplicabilityIndex::build(&s, a).unwrap();
        let full = idx.projection_bits(&s.cumulative_attrs(a));
        assert_eq!(idx.verdict(m, &full), Some(false));
    }

    /// B ≤ A with attrs x, y; f has f_a(A) reading x and f_b(B) with an
    /// empty body (footprint ∅ — the ⊆-minimum); h1 calls f. From source
    /// B the call is disjunctive.
    fn disjunctive_schema() -> (Schema, TypeId) {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (get_x, _) = s.add_reader(x, a).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f_a",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        s.add_method(
            f,
            "f_b",
            vec![Specializer::Type(b)],
            MethodKind::General(Default::default()),
            None,
        )
        .unwrap();
        let h = s.add_gf("h", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(f, vec![Expr::Param(0)]);
        s.add_method(
            h,
            "h1",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        (s, b)
    }

    #[test]
    fn semantic_refinement_collapses_minimum_footprint_disjunction() {
        let (s, b) = disjunctive_schema();
        let h1 = s.method_by_label("h1").unwrap();
        let syntactic = ApplicabilityIndex::build(&s, b).unwrap();
        assert!(!syntactic.is_fully_indexed());
        assert_eq!(syntactic.precision(), AnalysisPrecision::Syntactic);

        let semantic = ApplicabilityIndex::build_with(&s, b, AnalysisPrecision::Semantic).unwrap();
        assert_eq!(semantic.precision(), AnalysisPrecision::Semantic);
        // f_b's empty footprint is the ⊆-minimum, so the f-call collapses
        // and h1 becomes indexable: applicable under every projection.
        assert!(semantic.is_fully_indexed());
        let empty = semantic.projection_bits(&BTreeSet::new());
        assert_eq!(semantic.verdict(h1, &empty), Some(true));
        assert_eq!(syntactic.verdict(h1, &empty), None);
        // The collapsed edge points at the minimum candidate.
        let f_b = s.method_by_label("f_b").unwrap();
        let callees: Vec<MethodId> = semantic.callees(h1).unwrap().collect();
        assert_eq!(callees, vec![f_b]);
    }

    #[test]
    fn semantic_refinement_keeps_incomparable_candidates_fallback() {
        // f_a reads x, f_b reads y: footprints {x} and {y} are
        // incomparable — the disjunction cannot collapse.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let y = s.add_attr("y", ValueType::INT, a).unwrap();
        let (get_x, _) = s.add_reader(x, a).unwrap();
        let (get_y, _) = s.add_reader(y, a).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f_a",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_y, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f_b",
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
        let semantic = ApplicabilityIndex::build_with(&s, b, AnalysisPrecision::Semantic).unwrap();
        assert!(!semantic.is_fully_indexed());
        let proj = semantic.projection_bits(&[x].into_iter().collect());
        assert_eq!(semantic.verdict(h1, &proj), None, "incomparable must defer");
    }

    #[test]
    fn semantic_refinement_drops_dead_candidates() {
        // f_a's body calls a gf with no applicable method (dead); f_b is
        // the live remainder — the disjunction collapses to f_b alone.
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let u = s.add_type("U", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (get_x, _) = s.add_reader(x, a).unwrap();
        let dead_gf = s.add_gf("dead", 1, None).unwrap();
        s.add_method(
            dead_gf,
            "dead_u",
            vec![Specializer::Type(u)],
            MethodKind::General(Default::default()),
            None,
        )
        .unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(dead_gf, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f_a",
            vec![Specializer::Type(a)],
            MethodKind::General(bb.finish()),
            None,
        )
        .unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_x, vec![Expr::Param(0)]);
        s.add_method(
            f,
            "f_b",
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
        let semantic = ApplicabilityIndex::build_with(&s, b, AnalysisPrecision::Semantic).unwrap();
        assert!(semantic.is_fully_indexed());
        let proj_x = semantic.projection_bits(&[x].into_iter().collect());
        assert_eq!(semantic.verdict(h1, &proj_x), Some(true));
        assert_eq!(
            semantic.verdict(h1, &semantic.projection_bits(&BTreeSet::new())),
            Some(false)
        );
    }

    #[test]
    fn precision_parses_and_displays() {
        assert_eq!(
            "semantic".parse::<AnalysisPrecision>().unwrap(),
            AnalysisPrecision::Semantic
        );
        assert_eq!(AnalysisPrecision::Syntactic.to_string(), "syntactic");
        assert!("exact".parse::<AnalysisPrecision>().is_err());
    }
}
