//! The dispatch acceleration layer: memoized CPLs and a delta-invalidated
//! dispatch-table cache.
//!
//! Multi-method dispatch is the repository's hot loop. The
//! `IsApplicable` call-graph walk re-scans a generic function's methods
//! at every call site, and the I2 invariant check (`td-core`) reads the
//! collapsed rank tables of every type a derivation touched. Uncached,
//! each `most_specific` call recomputes class precedence lists (a
//! topological sort over the ancestor DAG, per argument) and rescans every
//! method of the generic function — O(calls × methods × hierarchy). The
//! standard fix in the multi-method literature is dispatch-table
//! precomputation; this module implements the lazy variant of it:
//!
//! * **CPL memo** — `cpl(t)` and the collapsed specificity ranks derived
//!   from it are computed once per type per schema *generation* and shared
//!   via `Arc`.
//! * **Dispatch tables** — per `(GfId, argument-type-vector)` the cache
//!   stores both the unranked applicable-method set (consumed by the
//!   `IsApplicable` walk) and the ranked list (consumed by
//!   `rank_applicable`/`most_specific`).
//! * **Delta invalidation** — every schema mutation emits a structured
//!   [`crate::delta::SchemaDelta`] describing what changed
//!   (a type node touched, a method added, …). Recording a delta is O(1)
//!   (plus a set insert); the first read after a mutation *closes* the
//!   recorded deltas into a dirty set — touched types are closed downward
//!   over the hierarchy (everything below a rewired node reaches it
//!   through its ancestor chain), touched methods are closed over the
//!   condensation indexes' reverse call edges (an index is stale iff its
//!   universe contains the method or its source newly admits it) — and
//!   evicts exactly the reachable entries. Untouched entries survive the
//!   mutation warm; dirty per-source indexes are repaired lazily, one
//!   rebuild per dirty source, instead of rebuilding every index.
//!
//! ## Why the closure is computed at read time
//!
//! Deltas are recorded under `&mut Schema` but closed under `&Schema` at
//! the next cached read, against the *post-mutation* hierarchy. This is
//! sound: if a batch of mutations changes any type `X`'s ancestor set,
//! then some edge on an old or new ancestor path of `X` changed at a node
//! `n` reachable from `X` through edges that did *not* change below it
//! (induction on the lowest changed node of the path), so `X ∈
//! descendants(n)` at read time and `X` lands in the dirty set. Dispatch
//! entries are keyed by argument types whose results depend only on their
//! *upward* reachability, which the same argument covers; method-shaped
//! deltas carry their gf and method ids explicitly.
//!
//! The cache lives inside [`Schema`] behind a `Mutex` (keeping `Schema:
//! Send + Sync`), is cloned with the schema (a clone is a snapshot, so
//! the warm entries — and any still-unclosed deltas — stay valid), and is
//! observable: hit/miss/invalidation/eviction/survival counters are
//! exported as [`DispatchCacheStats`] through
//! [`Schema::dispatch_cache_stats`], the CLI `explain` path and the
//! invariant report.
//!
//! ## Bounded report maps
//!
//! The lint and deep-analysis reports are keyed by request: a `(source,
//! projection)` pair, plus a precision for analyses. A registered server
//! schema answers every read on one shared snapshot, so a client that
//! varies the projection would grow these maps without limit. Each map
//! holds at most `MAX_CACHED_REPORTS` (1024) entries: a store that would
//! exceed it first drops that map's request-keyed entries. The
//! schema-wide reports (`None` part) stay, since every request reuses
//! them. The other maps are bounded by the schema itself (one entry per
//! type, or per generic function and argument tuple a body calls).

use crate::appindex::{AnalysisPrecision, ApplicabilityIndex};
use crate::delta::{CarryReport, SchemaDelta, SchemaDiff};
use crate::diag::LintReport;
use crate::dispatch::CallArg;
use crate::error::Result;
use crate::ids::{AttrId, GfId, MethodId, TypeId};
use crate::schema::Schema;
use crate::stats::DispatchCacheStats;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-type specificity ranks with surrogate collapse (see
/// `Schema::collapsed_ranks`).
pub(crate) type Ranks = Vec<(TypeId, usize)>;

/// Key of the per-call dispatch tables.
pub(crate) type CallKey = (GfId, Vec<CallArg>);

/// Key of the cached lint reports: `None` is the schema-wide analysis,
/// `Some((source, projection))` the per-request projection-safety part.
/// The projection list is kept sorted by the writer (td-core's lint pass
/// sorts before storing).
pub type LintKey = Option<(TypeId, Vec<AttrId>)>;

/// Key of the cached deep-analysis reports (td-analyze): the same
/// two-part shape as [`LintKey`] plus the precision the analyses ran at.
pub type AnalysisKey = (LintKey, AnalysisPrecision);

/// Most entries the lint map, and separately the analysis map, holds
/// (see "Bounded report maps" above).
pub(crate) const MAX_CACHED_REPORTS: usize = 1024;

/// Makes room for one more report under `new_key`: when `map` is full,
/// drops its request-keyed entries (`is_request`), keeping the
/// schema-wide ones.
fn make_room_for_report<K: Eq + std::hash::Hash, V>(
    map: &mut HashMap<K, V>,
    new_key: &K,
    is_request: impl Fn(&K) -> bool,
) {
    if map.len() >= MAX_CACHED_REPORTS && !map.contains_key(new_key) {
        map.retain(|k, _| !is_request(k));
    }
}

/// Deltas recorded since the last refresh, folded into the per-kind sets
/// the dirty closure starts from.
#[derive(Debug, Clone, Default)]
struct PendingDeltas {
    /// An unbounded mutation was recorded: flush everything.
    full: bool,
    /// Type nodes handed out `&mut` (edges/origin/attrs/liveness).
    types: HashSet<TypeId>,
    /// Generic functions with added or touched methods.
    gfs: HashSet<GfId>,
    /// Methods added or touched.
    methods: HashSet<MethodId>,
    /// An attribute definition was touched. Footprint bitsets reference
    /// stable ids so the condensation indexes survive, but the deep
    /// analyses (td-analyze) read attribute *value types*, so their
    /// cached reports must not.
    attrs_touched: bool,
}

impl PendingDeltas {
    fn record(&mut self, delta: SchemaDelta) {
        match delta {
            // Pure additions of leaf entities: nothing cached can
            // reference them, so only the lint flush (which every
            // refresh performs) applies.
            SchemaDelta::TypeAdded(_) | SchemaDelta::AttrAdded(_) | SchemaDelta::GfAdded(_) => {}
            // Attribute definitions feed only per-request computations,
            // lint and the deep analyses; footprint bitsets reference
            // stable ids.
            SchemaDelta::AttrTouched(_) => {
                self.attrs_touched = true;
            }
            SchemaDelta::TypeTouched(t) => {
                self.types.insert(t);
            }
            SchemaDelta::MethodAdded { gf, method } | SchemaDelta::MethodTouched { gf, method } => {
                self.gfs.insert(gf);
                self.methods.insert(method);
            }
            SchemaDelta::Full => self.full = true,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct CacheInner {
    /// Monotonic schema-mutation counter.
    generation: u64,
    /// Generation the maps below were populated under.
    entries_generation: u64,
    /// Deltas recorded since `entries_generation`, closed and drained by
    /// [`CacheInner::refresh`].
    pending: PendingDeltas,
    cpl: HashMap<TypeId, Arc<Vec<TypeId>>>,
    ranks: HashMap<TypeId, Arc<Ranks>>,
    applicable: HashMap<CallKey, Arc<Vec<MethodId>>>,
    ranked: HashMap<CallKey, Arc<Vec<MethodId>>>,
    /// Applicability condensation indexes, keyed by projection source
    /// (the call graph and its footprints depend on the source type but
    /// not on the projection list — see [`crate::appindex`]).
    app_index: HashMap<TypeId, Arc<ApplicabilityIndex>>,
    /// Semantically refined condensation indexes (see
    /// [`AnalysisPrecision::Semantic`]), keyed by source like
    /// `app_index`. Kept separate so the snapshot format (which
    /// serializes only the syntactic map) is unchanged.
    app_index_semantic: HashMap<TypeId, Arc<ApplicabilityIndex>>,
    /// Lint reports, keyed by [`LintKey`]. The analysis itself lives in
    /// td-core; the model only stores the results so every fork of a
    /// [`crate::SchemaSnapshot`] shares them generationally.
    lint: HashMap<LintKey, Arc<LintReport>>,
    /// Deep-analysis reports (td-analyze), keyed by [`AnalysisKey`].
    /// Unlike lint reports, the per-source entries participate in the
    /// PR-8 delta closure: a single-method edit evicts only the sources
    /// whose condensation universe the edit can reach.
    analysis: HashMap<AnalysisKey, Arc<LintReport>>,
    cpl_hits: u64,
    cpl_misses: u64,
    dispatch_hits: u64,
    dispatch_misses: u64,
    index_hits: u64,
    index_misses: u64,
    lint_hits: u64,
    lint_misses: u64,
    analysis_hits: u64,
    analysis_misses: u64,
    invalidations: u64,
    full_flushes: u64,
    delta_evictions: u64,
    delta_survivals: u64,
}

fn retain_counting<K: Eq + std::hash::Hash, V>(
    map: &mut HashMap<K, V>,
    keep: impl Fn(&K, &V) -> bool,
) -> usize {
    let before = map.len();
    map.retain(|k, v| keep(k, v));
    before - map.len()
}

impl CacheInner {
    fn has_entries(&self) -> bool {
        !self.cpl.is_empty()
            || !self.ranks.is_empty()
            || !self.applicable.is_empty()
            || !self.ranked.is_empty()
            || !self.app_index.is_empty()
            || !self.app_index_semantic.is_empty()
            || !self.lint.is_empty()
            || !self.analysis.is_empty()
    }

    fn clear_entries(&mut self) {
        self.cpl.clear();
        self.ranks.clear();
        self.applicable.clear();
        self.ranked.clear();
        self.app_index.clear();
        self.app_index_semantic.clear();
        self.lint.clear();
        self.analysis.clear();
    }

    /// Closes the recorded deltas into a dirty set and evicts exactly the
    /// reachable entries. Called at the top of every cached read; `schema`
    /// is the (post-mutation) schema the cache belongs to. The hierarchy
    /// walks used here (`descendants`, `method_applicable_to_type`) read
    /// raw supertype edges and never re-enter the cache, so calling them
    /// while holding the lock cannot deadlock.
    fn refresh(&mut self, schema: &Schema) {
        if self.entries_generation == self.generation {
            return;
        }
        self.entries_generation = self.generation;
        let dirt = std::mem::take(&mut self.pending);
        if !self.has_entries() {
            return;
        }
        if dirt.full {
            self.clear_entries();
            self.invalidations += 1;
            self.full_flushes += 1;
            return;
        }

        // Downward hierarchy closure: every cached artifact of a type
        // depends on the type's ancestor chain, so a touched node dirties
        // itself and its transitive subtypes. (A node already swept up as
        // someone's descendant contributes nothing new: descendants are
        // transitively closed.)
        let mut dirty_types: HashSet<TypeId> = HashSet::new();
        for &t in &dirt.types {
            if dirty_types.insert(t) {
                dirty_types.extend(schema.descendants(t));
            }
        }

        let mut evicted = 0usize;
        if !dirty_types.is_empty() {
            evicted += retain_counting(&mut self.cpl, |t, _| !dirty_types.contains(t));
            evicted += retain_counting(&mut self.ranks, |t, _| !dirty_types.contains(t));
        }
        if !dirty_types.is_empty() || !dirt.gfs.is_empty() {
            let stale_call = |key: &CallKey| {
                dirt.gfs.contains(&key.0)
                    || key
                        .1
                        .iter()
                        .any(|a| matches!(a, CallArg::Object(t) if dirty_types.contains(t)))
            };
            evicted += retain_counting(&mut self.applicable, |k, _| !stale_call(k));
            evicted += retain_counting(&mut self.ranked, |k, _| !stale_call(k));
        }
        if !dirty_types.is_empty() || !dirt.methods.is_empty() {
            // Reverse call-edge closure over the condensation indexes: a
            // per-source index is stale iff its source type is dirty, its
            // universe (`node_of`, the call-graph node set) contains a
            // touched method, or a touched/new method is now applicable
            // to its source (and would enter the universe on rebuild).
            let stale_index = |source: &TypeId, idx: &Arc<ApplicabilityIndex>| {
                dirty_types.contains(source)
                    || dirt.methods.iter().any(|m| {
                        idx.node_of.contains_key(m) || schema.method_applicable_to_type(*m, *source)
                    })
            };
            evicted += retain_counting(&mut self.app_index, |s, idx| !stale_index(s, idx));
            evicted += retain_counting(&mut self.app_index_semantic, |s, idx| !stale_index(s, idx));
        }
        // Lint findings mention names, owners and dispatch outcomes
        // across the whole schema; every mutation flushes them (they
        // re-derive quickly and are presentation-layer).
        evicted += self.lint.len();
        self.lint.clear();
        // Deep-analysis reports: the schema-wide part (`None` key)
        // flushes like lint, but a per-source part survives exactly when
        // a condensation index for its source survived the closure above
        // — the analyses are scoped to that universe, so a surviving
        // index proves no touched method can reach the report.
        let attrs_touched = dirt.attrs_touched;
        evicted += retain_counting(&mut self.analysis, |(key, _), _| match key {
            None => false,
            Some((source, _)) => {
                !attrs_touched
                    && (self.app_index.contains_key(source)
                        || self.app_index_semantic.contains_key(source))
            }
        });

        let survivors = self.cpl.len()
            + self.ranks.len()
            + self.applicable.len()
            + self.ranked.len()
            + self.app_index.len()
            + self.app_index_semantic.len()
            + self.analysis.len();
        if evicted > 0 {
            self.invalidations += 1;
        }
        self.delta_evictions += evicted as u64;
        self.delta_survivals += survivors as u64;
    }
}

/// The interior-mutable cache carried by every [`Schema`].
///
/// All read paths go through `&Schema`, so the cache is populated behind
/// a `Mutex`; mutation paths have `&mut Schema` and record deltas
/// without contention via `get_mut`.
pub struct DispatchCache {
    inner: Mutex<CacheInner>,
}

impl Default for DispatchCache {
    fn default() -> Self {
        DispatchCache {
            inner: Mutex::new(CacheInner::default()),
        }
    }
}

impl Clone for DispatchCache {
    fn clone(&self) -> Self {
        // A schema clone is a snapshot: carrying the warm entries (and
        // any still-unclosed deltas) over is sound because they were
        // built from the state being cloned.
        DispatchCache {
            inner: Mutex::new(self.lock().clone()),
        }
    }
}

impl std::fmt::Debug for DispatchCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("DispatchCache")
            .field("generation", &inner.generation)
            .field("cpl_entries", &inner.cpl.len())
            .field(
                "dispatch_entries",
                &(inner.applicable.len() + inner.ranked.len()),
            )
            .finish()
    }
}

impl DispatchCache {
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        // A poisoned lock only means a panic mid-insert; the maps are
        // still structurally sound, so recover rather than propagate.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a structured schema mutation. Stale entries are closed
    /// over and evicted lazily by the next read, so this is O(1) plus a
    /// set insert.
    pub(crate) fn note(&mut self, delta: SchemaDelta) {
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        inner.generation += 1;
        inner.pending.record(delta);
    }

    /// Clones the warm entry maps for snapshot serialization (stats
    /// counters stay behind; `Arc` clones make this cheap). Entries are
    /// only exported after settling any pending deltas against `schema`.
    pub(crate) fn export_warm(&self, schema: &Schema) -> WarmCaches {
        let mut inner = self.lock();
        inner.refresh(schema);
        WarmCaches {
            cpl: inner.cpl.clone(),
            ranks: inner.ranks.clone(),
            applicable: inner.applicable.clone(),
            ranked: inner.ranked.clone(),
            app_index: inner.app_index.clone(),
        }
    }

    /// Installs deserialized warm entries, tagged as current for the
    /// schema's present generation so the first read serves them instead
    /// of flushing (the snapshot loader's cache-restore step). Any
    /// pending deltas are dropped: the entries are declared current.
    pub(crate) fn import_warm(&mut self, warm: WarmCaches) {
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        inner.cpl = warm.cpl;
        inner.ranks = warm.ranks;
        inner.applicable = warm.applicable;
        inner.ranked = warm.ranked;
        inner.app_index = warm.app_index;
        inner.entries_generation = inner.generation;
        inner.pending = PendingDeltas::default();
    }
}

/// The serializable subset of the dispatch cache: every warm map except
/// the lint reports (lint findings are presentation-layer and re-derive
/// quickly; see the snapshot module docs).
pub(crate) struct WarmCaches {
    pub(crate) cpl: HashMap<TypeId, Arc<Vec<TypeId>>>,
    pub(crate) ranks: HashMap<TypeId, Arc<Ranks>>,
    pub(crate) applicable: HashMap<CallKey, Arc<Vec<MethodId>>>,
    pub(crate) ranked: HashMap<CallKey, Arc<Vec<MethodId>>>,
    pub(crate) app_index: HashMap<TypeId, Arc<ApplicabilityIndex>>,
}

impl Schema {
    /// The schema's mutation generation. Every mutating operation (adding
    /// types, attributes, methods or edges; any `&mut` access to a method,
    /// type node or attribute) increments it; cached dispatch results
    /// never cross generations.
    pub fn generation(&self) -> u64 {
        self.cache.lock().generation
    }

    /// A snapshot of the dispatch-cache counters.
    pub fn dispatch_cache_stats(&self) -> DispatchCacheStats {
        let inner = self.cache.lock();
        DispatchCacheStats {
            generation: inner.generation,
            cpl_hits: inner.cpl_hits,
            cpl_misses: inner.cpl_misses,
            dispatch_hits: inner.dispatch_hits,
            dispatch_misses: inner.dispatch_misses,
            index_hits: inner.index_hits,
            index_misses: inner.index_misses,
            lint_hits: inner.lint_hits,
            lint_misses: inner.lint_misses,
            invalidations: inner.invalidations,
            full_flushes: inner.full_flushes,
            delta_evictions: inner.delta_evictions,
            delta_survivals: inner.delta_survivals,
            cpl_entries: inner.cpl.len() + inner.ranks.len(),
            dispatch_entries: inner.applicable.len() + inner.ranked.len(),
            index_entries: inner.app_index.len() + inner.app_index_semantic.len(),
            lint_entries: inner.lint.len(),
            analysis_hits: inner.analysis_hits,
            analysis_misses: inner.analysis_misses,
            analysis_entries: inner.analysis.len(),
        }
    }

    /// Warms the derivation caches for every live type: CPL memo, rank
    /// tables and the applicability condensation index. Best-effort —
    /// types whose linearization or index build fails (inconsistent
    /// precedence, dataflow errors) are skipped; the failure resurfaces
    /// on the request that actually needs them. `tdv snapshot save` and
    /// the server's snapshot persistence call this so a reloaded schema
    /// starts with every cache hot. After a mutation, only the entries
    /// its delta closure evicted are recomputed — the rest are hits.
    pub fn warm_caches(&self) {
        for t in self.live_type_ids() {
            let _ = self.cpl(t);
            let _ = self.cached_ranks(t);
            let _ = self.cached_applicability_index(t);
        }
    }

    /// Drops every cached entry (counted as an invalidation if any entry
    /// existed). Benchmarks use this to measure cold dispatch against
    /// delta-invalidated re-derivation.
    pub fn clear_dispatch_cache(&self) {
        let mut inner = self.cache.lock();
        inner.generation += 1;
        inner.pending.record(SchemaDelta::Full);
        inner.refresh(self);
    }

    /// Carries warm cache entries from `donor` (the previous version of
    /// this schema, built independently — e.g. the prior parse of a
    /// registered schema text) into this schema's cache, keeping only
    /// entries whose dependency closure `diff` proves untouched.
    ///
    /// Requires `diff = diff_schemas(donor, self)` with
    /// [`ids_stable`](SchemaDiff::ids_stable); returns an empty report
    /// otherwise (ids are the cache keys, so unstable ids make every old
    /// entry meaningless here). Changed types dirty their transitive
    /// subtypes exactly like a live mutation would; added or changed
    /// methods dirty their gf's dispatch tables and every index that
    /// contains or would now admit them. Existing entries of this cache
    /// are never overwritten.
    pub fn carry_warm_from(&self, donor: &Schema, diff: &SchemaDiff) -> CarryReport {
        let mut report = CarryReport::default();
        if !diff.ids_stable {
            return report;
        }
        let mut dirty_types: HashSet<TypeId> = HashSet::new();
        for name in diff.changed_types.iter().chain(&diff.added_types) {
            // Added types dirty nothing existing, but close them anyway:
            // an added type wired *above* an existing one shows up as a
            // changed existing type, and closing both is harmless.
            if let Ok(t) = self.type_id(name) {
                if dirty_types.insert(t) {
                    dirty_types.extend(self.descendants(t));
                }
            }
        }
        let mut dirty_gfs: HashSet<GfId> = HashSet::new();
        for name in diff.changed_gfs.iter() {
            if let Ok(g) = self.gf_id(name) {
                dirty_gfs.insert(g);
            }
        }
        let mut dirty_methods: Vec<MethodId> = Vec::new();
        if !diff.added_methods.is_empty() || !diff.changed_methods.is_empty() {
            let by_label: HashMap<&str, MethodId> = self
                .method_ids()
                .map(|m| (self.method_label(m), m))
                .collect();
            for label in diff.added_methods.iter().chain(&diff.changed_methods) {
                if let Some(&m) = by_label.get(label.as_str()) {
                    dirty_methods.push(m);
                    dirty_gfs.insert(self.method(m).gf);
                }
            }
        }

        let warm = donor.cache.export_warm(donor);
        let mut inner = self.cache.lock();
        inner.refresh(self);
        for (t, v) in warm.cpl {
            if self.is_live(t) && !dirty_types.contains(&t) && !inner.cpl.contains_key(&t) {
                inner.cpl.insert(t, v);
                report.cpl += 1;
            }
        }
        for (t, v) in warm.ranks {
            if self.is_live(t) && !dirty_types.contains(&t) && !inner.ranks.contains_key(&t) {
                inner.ranks.insert(t, v);
                report.cpl += 1;
            }
        }
        let call_ok = |key: &CallKey| {
            !dirty_gfs.contains(&key.0)
                && key.1.iter().all(|a| match a {
                    CallArg::Object(t) => self.is_live(*t) && !dirty_types.contains(t),
                    _ => true,
                })
        };
        for (k, v) in warm.applicable {
            if call_ok(&k) && !inner.applicable.contains_key(&k) {
                inner.applicable.insert(k, v);
                report.dispatch += 1;
            }
        }
        for (k, v) in warm.ranked {
            if call_ok(&k) && !inner.ranked.contains_key(&k) {
                inner.ranked.insert(k, v);
                report.dispatch += 1;
            }
        }
        for (source, idx) in warm.app_index {
            let clean = self.is_live(source)
                && !dirty_types.contains(&source)
                && dirty_methods.iter().all(|m| {
                    !idx.node_of.contains_key(m) && !self.method_applicable_to_type(*m, source)
                });
            if clean && !inner.app_index.contains_key(&source) {
                inner.app_index.insert(source, idx);
                report.indexes += 1;
            }
        }
        report
    }

    /// The memoized class precedence list of `t`.
    pub(crate) fn cached_cpl(&self, t: TypeId) -> Result<Arc<Vec<TypeId>>> {
        {
            let mut inner = self.cache.lock();
            inner.refresh(self);
            if let Some(v) = inner.cpl.get(&t).map(Arc::clone) {
                inner.cpl_hits += 1;
                return Ok(v);
            }
            inner.cpl_misses += 1;
        }
        // Compute outside the lock: the computation re-enters no cached
        // path, but holding a lock across it would serialize misses.
        let computed = Arc::new(self.compute_cpl(t)?);
        let mut inner = self.cache.lock();
        inner.refresh(self);
        inner.cpl.insert(t, Arc::clone(&computed));
        Ok(computed)
    }

    /// The memoized collapsed specificity ranks of `t`'s CPL.
    pub(crate) fn cached_ranks(&self, t: TypeId) -> Result<Arc<Ranks>> {
        {
            let mut inner = self.cache.lock();
            inner.refresh(self);
            if let Some(v) = inner.ranks.get(&t).map(Arc::clone) {
                inner.cpl_hits += 1;
                return Ok(v);
            }
            inner.cpl_misses += 1;
        }
        let cpl = self.cached_cpl(t)?;
        let computed = Arc::new(self.collapsed_ranks(&cpl));
        let mut inner = self.cache.lock();
        inner.refresh(self);
        inner.ranks.insert(t, Arc::clone(&computed));
        Ok(computed)
    }

    /// The memoized unranked applicable-method set for a call.
    pub(crate) fn cached_applicable(&self, gf: GfId, args: &[CallArg]) -> Arc<Vec<MethodId>> {
        let key: CallKey = (gf, args.to_vec());
        {
            let mut inner = self.cache.lock();
            inner.refresh(self);
            if let Some(v) = inner.applicable.get(&key).map(Arc::clone) {
                inner.dispatch_hits += 1;
                return v;
            }
            inner.dispatch_misses += 1;
        }
        let computed = Arc::new(self.applicable_methods_uncached(gf, args));
        let mut inner = self.cache.lock();
        inner.refresh(self);
        inner.applicable.insert(key, Arc::clone(&computed));
        computed
    }

    /// The memoized ranked applicable-method list for a call.
    pub(crate) fn cached_ranked(&self, gf: GfId, args: &[CallArg]) -> Result<Arc<Vec<MethodId>>> {
        let key: CallKey = (gf, args.to_vec());
        {
            let mut inner = self.cache.lock();
            inner.refresh(self);
            if let Some(v) = inner.ranked.get(&key).map(Arc::clone) {
                inner.dispatch_hits += 1;
                return Ok(v);
            }
            inner.dispatch_misses += 1;
        }
        let applicable = self.cached_applicable(gf, args);
        let ranked =
            self.rank_methods(applicable.as_ref().clone(), args, |s, t| s.cached_ranks(t))?;
        let computed = Arc::new(ranked);
        let mut inner = self.cache.lock();
        inner.refresh(self);
        inner.ranked.insert(key, Arc::clone(&computed));
        Ok(computed)
    }

    /// The memoized applicability condensation index for projections over
    /// `source` (see [`crate::appindex`]). Built once per `(schema
    /// generation, source)` and shared via `Arc`; a schema clone — in
    /// particular every [`crate::SchemaSnapshot`] fork — carries the warm
    /// index, so batch workers never rebuild it.
    pub fn cached_applicability_index(&self, source: TypeId) -> Result<Arc<ApplicabilityIndex>> {
        {
            let mut inner = self.cache.lock();
            inner.refresh(self);
            if let Some(v) = inner.app_index.get(&source).map(Arc::clone) {
                inner.index_hits += 1;
                return Ok(v);
            }
            inner.index_misses += 1;
        }
        // Built outside the lock: the construction re-enters the cache
        // through `call_sites`/`applicable_methods` lookups.
        let computed = {
            let _span = td_telemetry::span("cache", "appindex_build");
            Arc::new(ApplicabilityIndex::build(self, source)?)
        };
        let mut inner = self.cache.lock();
        inner.refresh(self);
        inner.app_index.insert(source, Arc::clone(&computed));
        Ok(computed)
    }

    /// The memoized condensation index for `source` at the requested
    /// precision. `Syntactic` is exactly [`Schema::cached_applicability_index`];
    /// `Semantic` is cached in a parallel per-source map behind the same
    /// generation counter and delta closure, so the refined index is
    /// built once per `(generation, source)` too.
    pub fn cached_applicability_index_at(
        &self,
        source: TypeId,
        precision: AnalysisPrecision,
    ) -> Result<Arc<ApplicabilityIndex>> {
        if precision == AnalysisPrecision::Syntactic {
            return self.cached_applicability_index(source);
        }
        {
            let mut inner = self.cache.lock();
            inner.refresh(self);
            if let Some(v) = inner.app_index_semantic.get(&source).map(Arc::clone) {
                inner.index_hits += 1;
                return Ok(v);
            }
            inner.index_misses += 1;
        }
        let computed = {
            let _span = td_telemetry::span("cache", "appindex_refine");
            Arc::new(ApplicabilityIndex::build_with(self, source, precision)?)
        };
        let mut inner = self.cache.lock();
        inner.refresh(self);
        inner
            .app_index_semantic
            .insert(source, Arc::clone(&computed));
        Ok(computed)
    }

    /// The cached deep-analysis report for `key`, if one was stored under
    /// the current generation. Counts a hit or a miss; the analyses live
    /// in td-analyze, which calls [`Schema::store_analysis_report`] after
    /// computing a missed report.
    pub fn cached_analysis_report(&self, key: &AnalysisKey) -> Option<Arc<LintReport>> {
        let mut inner = self.cache.lock();
        inner.refresh(self);
        match inner.analysis.get(key).map(Arc::clone) {
            Some(v) => {
                inner.analysis_hits += 1;
                Some(v)
            }
            None => {
                inner.analysis_misses += 1;
                None
            }
        }
    }

    /// Stores a deep-analysis report under `key` for the current
    /// generation, so snapshot forks and batch workers share the result.
    /// The map holds at most 1024 reports; a store past that drops the
    /// request-keyed ones first.
    pub fn store_analysis_report(&self, key: AnalysisKey, report: Arc<LintReport>) {
        let mut inner = self.cache.lock();
        inner.refresh(self);
        make_room_for_report(&mut inner.analysis, &key, |(part, _)| part.is_some());
        inner.analysis.insert(key, report);
    }

    /// The cached lint report for `key`, if one was stored under the
    /// current generation. Counts a hit or a miss; the analysis itself
    /// lives in td-core, which calls [`Schema::store_lint_report`] after
    /// computing a missed report.
    pub fn cached_lint_report(&self, key: &LintKey) -> Option<Arc<LintReport>> {
        let mut inner = self.cache.lock();
        inner.refresh(self);
        match inner.lint.get(key).map(Arc::clone) {
            Some(v) => {
                inner.lint_hits += 1;
                Some(v)
            }
            None => {
                inner.lint_misses += 1;
                None
            }
        }
    }

    /// Stores a lint report under `key` for the current generation, so
    /// snapshot forks and batch workers share the analysis. The map holds
    /// at most 1024 reports; a store past that drops the request-keyed
    /// ones first.
    pub fn store_lint_report(&self, key: LintKey, report: Arc<LintReport>) {
        let mut inner = self.cache.lock();
        inner.refresh(self);
        make_room_for_report(&mut inner.lint, &key, Option::is_some);
        inner.lint.insert(key, report);
    }
}

#[cfg(test)]
mod tests {
    use crate::methods::{MethodKind, Specializer};
    use crate::schema::Schema;
    use crate::CallArg;

    /// B <= A with one gf `f` having a method on A.
    fn base() -> (
        Schema,
        crate::TypeId,
        crate::TypeId,
        crate::GfId,
        crate::MethodId,
    ) {
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
        (s, a, b, f, f_a)
    }

    #[test]
    fn repeated_dispatch_hits_the_cache() {
        let (s, _a, b, f, f_a) = base();
        let args = [CallArg::Object(b)];
        assert_eq!(s.most_specific(f, &args).unwrap(), Some(f_a));
        let cold = s.dispatch_cache_stats();
        assert!(cold.dispatch_misses > 0);
        for _ in 0..10 {
            assert_eq!(s.most_specific(f, &args).unwrap(), Some(f_a));
        }
        let warm = s.dispatch_cache_stats();
        assert_eq!(
            warm.dispatch_misses, cold.dispatch_misses,
            "no new misses when warm"
        );
        assert!(warm.dispatch_hits >= cold.dispatch_hits + 10);
    }

    #[test]
    fn schema_mutation_invalidates_stale_winner() {
        // The invalidation scenario from the issue: a more-specific
        // method added mid-run must win immediately, not be shadowed by a
        // stale cached dispatch table.
        let (mut s, _a, b, f, f_a) = base();
        let args = [CallArg::Object(b)];
        assert_eq!(s.most_specific(f, &args).unwrap(), Some(f_a));
        let gen_before = s.generation();

        let f_b = s
            .add_method(
                f,
                "f_b",
                vec![Specializer::Type(b)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        assert!(
            s.generation() > gen_before,
            "mutation must bump the generation"
        );
        assert_eq!(
            s.most_specific(f, &args).unwrap(),
            Some(f_b),
            "stale cache served a pre-mutation winner"
        );
        assert!(s.dispatch_cache_stats().invalidations >= 1);
    }

    #[test]
    fn hierarchy_rewiring_invalidates_cpls() {
        let (mut s, a, b, _f, _f_a) = base();
        assert_eq!(s.cpl(b).unwrap(), vec![b, a]);
        // FactorState-style rewiring: insert a surrogate above A.
        let hat = s.add_surrogate("^A", a).unwrap();
        s.add_super_highest(a, hat).unwrap();
        assert_eq!(
            s.cpl(b).unwrap(),
            vec![b, a, hat],
            "stale CPL after edge mutation"
        );
    }

    #[test]
    fn clone_carries_warm_entries_but_diverges_after() {
        let (mut s, _a, b, f, f_a) = base();
        let args = [CallArg::Object(b)];
        s.most_specific(f, &args).unwrap();
        let snapshot = s.clone();
        assert!(snapshot.dispatch_cache_stats().dispatch_entries > 0);

        // Mutating the original must not disturb the snapshot.
        let f_b = s
            .add_method(
                f,
                "f_b",
                vec![Specializer::Type(b)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        assert_eq!(s.most_specific(f, &args).unwrap(), Some(f_b));
        assert_eq!(snapshot.most_specific(f, &args).unwrap(), Some(f_a));
    }

    #[test]
    fn delta_saturates_when_fork_counters_lag_the_baseline() {
        // The batch engine computes `fork_final.delta(&baseline)`. When
        // the baseline comes from a schema that raced ahead of the fork —
        // more lookups, then an invalidation — the fork's counters lag it
        // and every subtraction must saturate to zero, not wrap.
        let (s, _a, b, f, _f_a) = base();
        s.most_specific(f, &[CallArg::Object(b)]).unwrap();
        let fork = s.clone();
        s.most_specific(f, &[CallArg::Object(b)]).unwrap();
        s.most_specific(f, &[CallArg::Object(b)]).unwrap();
        s.clear_dispatch_cache();
        let parent = s.dispatch_cache_stats();
        let fork_stats = fork.dispatch_cache_stats();
        assert!(
            fork_stats.dispatch_hits < parent.dispatch_hits
                && fork_stats.invalidations < parent.invalidations,
            "scenario must actually make the fork lag"
        );
        let d = fork_stats.delta(&parent);
        assert_eq!(d.dispatch_hits, 0);
        assert_eq!(d.cpl_hits, 0);
        assert_eq!(d.invalidations, 0);
        // Gauges keep the fork's current residency, untouched by delta.
        assert_eq!(d.dispatch_entries, fork_stats.dispatch_entries);
    }

    #[test]
    fn clear_dispatch_cache_counts_an_invalidation() {
        let (s, _a, b, f, _f_a) = base();
        s.most_specific(f, &[CallArg::Object(b)]).unwrap();
        assert!(s.dispatch_cache_stats().dispatch_entries > 0);
        let before = s.dispatch_cache_stats().invalidations;
        s.clear_dispatch_cache();
        let stats = s.dispatch_cache_stats();
        assert_eq!(stats.dispatch_entries, 0);
        assert_eq!(stats.cpl_entries, 0);
        assert_eq!(stats.invalidations, before + 1);
        assert!(stats.full_flushes >= 1);
    }

    #[test]
    fn mutation_without_entries_is_not_an_invalidation() {
        let mut s = Schema::new();
        s.add_type("A", &[]).unwrap();
        s.add_type("B", &[]).unwrap();
        // Nothing was ever cached, so nothing was invalidated.
        assert_eq!(s.dispatch_cache_stats().invalidations, 0);
    }

    #[test]
    fn applicability_index_is_cached_and_invalidated() {
        let (mut s, _a, b, f, _f_a) = base();
        let cold = s.cached_applicability_index(b).unwrap();
        assert_eq!(s.dispatch_cache_stats().index_misses, 1);
        assert_eq!(s.dispatch_cache_stats().index_entries, 1);
        let warm = s.cached_applicability_index(b).unwrap();
        assert_eq!(s.dispatch_cache_stats().index_hits, 1);
        assert_eq!(warm.universe(), cold.universe());

        // A clone (snapshot) carries the warm index.
        let snapshot = s.clone();
        snapshot.cached_applicability_index(b).unwrap();
        assert_eq!(snapshot.dispatch_cache_stats().index_hits, 2);

        // A mutation flushes it: the new method must appear.
        let before = cold.universe().len();
        s.add_method(
            f,
            "f_b",
            vec![Specializer::Type(b)],
            MethodKind::General(Default::default()),
            None,
        )
        .unwrap();
        let rebuilt = s.cached_applicability_index(b).unwrap();
        assert_eq!(rebuilt.universe().len(), before + 1);
        assert_eq!(s.dispatch_cache_stats().index_misses, 2);
    }

    #[test]
    fn lint_reports_are_cached_and_invalidated() {
        use crate::cache::LintKey;
        use crate::diag::{Diagnostic, LintCode, LintReport};
        use std::sync::Arc;
        let (mut s, _a, b, f, _f_a) = base();
        let key: LintKey = None;
        assert!(s.cached_lint_report(&key).is_none());
        let report = Arc::new(LintReport::new(vec![Diagnostic::new(
            LintCode::DispatchAmbiguity,
            "synthetic",
            vec![],
        )]));
        s.store_lint_report(key.clone(), Arc::clone(&report));
        assert_eq!(s.cached_lint_report(&key).as_deref(), Some(report.as_ref()));
        let stats = s.dispatch_cache_stats();
        assert_eq!(stats.lint_entries, 1);
        assert_eq!(stats.lint_hits, 1);
        assert_eq!(stats.lint_misses, 1);

        // A clone (snapshot) carries the warm report.
        let snapshot = s.clone();
        assert!(snapshot.cached_lint_report(&key).is_some());

        // A mutation flushes it.
        s.add_method(
            f,
            "f_b",
            vec![Specializer::Type(b)],
            MethodKind::General(Default::default()),
            None,
        )
        .unwrap();
        assert!(s.cached_lint_report(&key).is_none());
        assert_eq!(s.dispatch_cache_stats().lint_entries, 0);
    }

    #[test]
    fn request_keyed_reports_stay_bounded() {
        use crate::appindex::AnalysisPrecision;
        use crate::cache::{LintKey, MAX_CACHED_REPORTS};
        use crate::diag::LintReport;
        use crate::ids::AttrId;
        use std::sync::Arc;
        let (s, a, _b, _f, _f_a) = base();
        let report = Arc::new(LintReport::new(vec![]));
        let schema_wide: LintKey = None;
        s.store_lint_report(schema_wide.clone(), Arc::clone(&report));
        s.store_analysis_report(
            (schema_wide.clone(), AnalysisPrecision::Syntactic),
            Arc::clone(&report),
        );
        // One distinct projection per store, as a client varying its
        // request would send.
        let request = |i: usize| -> LintKey { Some((a, vec![AttrId::from_index(i)])) };
        for i in 0..=MAX_CACHED_REPORTS {
            s.store_lint_report(request(i), Arc::clone(&report));
            s.store_analysis_report(
                (request(i), AnalysisPrecision::Semantic),
                Arc::clone(&report),
            );
            let stats = s.dispatch_cache_stats();
            assert!(stats.lint_entries <= MAX_CACHED_REPORTS, "{stats:?}");
            assert!(stats.analysis_entries <= MAX_CACHED_REPORTS, "{stats:?}");
        }
        // The schema-wide reports and the newest request survive.
        assert!(s.cached_lint_report(&schema_wide).is_some());
        assert!(s
            .cached_analysis_report(&(schema_wide, AnalysisPrecision::Syntactic))
            .is_some());
        let newest = request(MAX_CACHED_REPORTS);
        assert!(s.cached_lint_report(&newest).is_some());
        assert!(s
            .cached_analysis_report(&(newest, AnalysisPrecision::Semantic))
            .is_some());
        // The store that overflowed dropped the older request entries.
        assert!(s.cached_lint_report(&request(0)).is_none());
    }

    #[test]
    fn stats_display_mentions_counters() {
        let (s, _a, b, f, _f_a) = base();
        s.most_specific(f, &[CallArg::Object(b)]).unwrap();
        let text = s.dispatch_cache_stats().to_string();
        assert!(text.contains("gen"), "{text}");
        assert!(text.contains("cpl"), "{text}");
        assert!(text.contains("dispatch"), "{text}");
    }

    // ------------------------------------------ delta-invalidation tests

    /// Two disjoint A<=B style towers sharing nothing: mutations on one
    /// side must leave the other side's entries warm.
    fn two_towers() -> (Schema, [crate::TypeId; 4], [crate::GfId; 2]) {
        let mut s = Schema::new();
        let a1 = s.add_type("A1", &[]).unwrap();
        let b1 = s.add_type("B1", &[a1]).unwrap();
        let a2 = s.add_type("A2", &[]).unwrap();
        let b2 = s.add_type("B2", &[a2]).unwrap();
        let f1 = s.add_gf("f1", 1, None).unwrap();
        let f2 = s.add_gf("f2", 1, None).unwrap();
        s.add_method(
            f1,
            "f1_a1",
            vec![Specializer::Type(a1)],
            MethodKind::General(Default::default()),
            None,
        )
        .unwrap();
        s.add_method(
            f2,
            "f2_a2",
            vec![Specializer::Type(a2)],
            MethodKind::General(Default::default()),
            None,
        )
        .unwrap();
        (s, [a1, b1, a2, b2], [f1, f2])
    }

    #[test]
    fn unrelated_entries_survive_a_method_addition() {
        let (mut s, [_a1, b1, a2, b2], [f1, f2]) = two_towers();
        s.warm_caches();
        s.most_specific(f1, &[CallArg::Object(b1)]).unwrap();
        s.most_specific(f2, &[CallArg::Object(b2)]).unwrap();
        let warm = s.dispatch_cache_stats();
        assert!(warm.cpl_entries >= 8 && warm.index_entries == 4);

        // A new method on tower 2 must not evict tower 1's entries.
        s.add_method(
            f2,
            "f2_b2",
            vec![Specializer::Type(b2)],
            MethodKind::General(Default::default()),
            None,
        )
        .unwrap();
        let misses_before = s.dispatch_cache_stats();
        s.most_specific(f1, &[CallArg::Object(b1)]).unwrap();
        let after = s.dispatch_cache_stats();
        assert_eq!(
            after.dispatch_misses, misses_before.dispatch_misses,
            "tower-1 dispatch entry must survive a tower-2 method addition"
        );
        assert!(after.delta_survivals > 0, "{after:?}");
        assert!(after.delta_evictions > 0, "{after:?}");
        // Tower-1's index survived; b2's was evicted (the new method
        // specializes b2, so only types at-or-below b2 can admit it —
        // even a2's index stays warm).
        s.cached_applicability_index(b1).unwrap();
        s.cached_applicability_index(a2).unwrap();
        assert_eq!(
            s.dispatch_cache_stats().index_misses,
            after.index_misses,
            "tower-1 and a2 indexes must still be warm"
        );
        s.cached_applicability_index(b2).unwrap();
        assert_eq!(
            s.dispatch_cache_stats().index_misses,
            after.index_misses + 1,
            "b2's index must have been evicted"
        );
        assert_eq!(s.dispatch_cache_stats().full_flushes, 0);
    }

    #[test]
    fn unrelated_cpls_survive_edge_rewiring() {
        let (mut s, [a1, b1, a2, b2], _gfs) = two_towers();
        s.cpl(b1).unwrap();
        s.cpl(b2).unwrap();
        s.cpl(a1).unwrap();
        s.cpl(a2).unwrap();
        // Rewire tower 2: a surrogate above A2.
        let hat = s.add_surrogate("^A2", a2).unwrap();
        s.add_super_highest(a2, hat).unwrap();
        let before = s.dispatch_cache_stats();
        s.cpl(b1).unwrap();
        s.cpl(a1).unwrap();
        assert_eq!(
            s.dispatch_cache_stats().cpl_misses,
            before.cpl_misses,
            "tower-1 CPLs must survive tower-2 rewiring"
        );
        assert_eq!(s.cpl(b2).unwrap(), vec![b2, a2, hat]);
        assert_eq!(
            s.dispatch_cache_stats().cpl_misses,
            before.cpl_misses + 1,
            "tower-2 CPL was evicted and recomputed"
        );
    }

    #[test]
    fn method_touch_evicts_only_indexes_that_see_it() {
        let (mut s, [_a1, b1, _a2, b2], [f1, _f2]) = two_towers();
        s.cached_applicability_index(b1).unwrap();
        s.cached_applicability_index(b2).unwrap();
        let before = s.dispatch_cache_stats();
        assert_eq!(before.index_entries, 2);
        // Touch tower 1's method: b1's index contains it, b2's does not.
        let m = s.method_by_label("f1_a1").unwrap();
        s.method_mut(m).result = None;
        let _ = f1;
        s.cached_applicability_index(b2).unwrap();
        assert_eq!(
            s.dispatch_cache_stats().index_misses,
            before.index_misses,
            "untouched-tower index survives"
        );
        s.cached_applicability_index(b1).unwrap();
        assert_eq!(
            s.dispatch_cache_stats().index_misses,
            before.index_misses + 1,
            "touched-tower index was evicted"
        );
    }

    #[test]
    fn type_and_attr_additions_keep_everything_warm() {
        let (mut s, [_a1, b1, _a2, _b2], [f1, _f2]) = two_towers();
        s.warm_caches();
        s.most_specific(f1, &[CallArg::Object(b1)]).unwrap();
        let warm = s.dispatch_cache_stats();
        // Leaf additions: a fresh type and an attribute on it.
        let c = s.add_type("C", &[]).unwrap();
        s.add_attr("c_x", crate::ValueType::INT, c).unwrap();
        s.most_specific(f1, &[CallArg::Object(b1)]).unwrap();
        s.cpl(b1).unwrap();
        s.cached_applicability_index(b1).unwrap();
        let after = s.dispatch_cache_stats();
        assert_eq!(after.cpl_misses, warm.cpl_misses);
        assert_eq!(after.dispatch_misses, warm.dispatch_misses);
        assert_eq!(after.index_misses, warm.index_misses);
        assert_eq!(after.invalidations, warm.invalidations, "nothing evicted");
    }

    #[test]
    fn carry_warm_from_preserves_clean_entries_across_a_reparse() {
        use crate::delta::diff_schemas;
        use crate::parse_schema;
        let old_text = "type A { x: int }\ntype B : A { y: int }\naccessors x\naccessors y\n";
        let new_text = format!("{old_text}type C : B {{ z: int }}\naccessors z\n");
        let old = parse_schema(old_text).unwrap();
        old.warm_caches();
        let new = parse_schema(&new_text).unwrap();
        let diff = diff_schemas(&old, &new);
        assert!(diff.ids_stable);
        let report = new.carry_warm_from(&old, &diff);
        // A and B's rank tables and indexes carry (their CPLs are already
        // warm on the new schema — parse-time validation computes every
        // CPL — so the carry skips them rather than overwrite). The new
        // accessors of z specialize C, which is below B, so they reach
        // neither A's nor B's index universe.
        assert!(report.cpl >= 2, "{report:?}");
        assert!(report.indexes >= 2, "{report:?}");
        let before = new.dispatch_cache_stats();
        let a = new.type_id("A").unwrap();
        new.cpl(a).unwrap();
        new.cached_ranks(a).unwrap();
        new.cached_applicability_index(a).unwrap();
        let after = new.dispatch_cache_stats();
        assert_eq!(after.cpl_misses, before.cpl_misses, "carried ranks hit");
        assert_eq!(after.index_misses, before.index_misses, "carried index");
        // The genuinely new type builds its index fresh.
        let c = new.type_id("C").unwrap();
        new.cached_applicability_index(c).unwrap();
        assert_eq!(
            new.dispatch_cache_stats().index_misses,
            before.index_misses + 1
        );
    }

    #[test]
    fn carry_refuses_unstable_ids() {
        use crate::delta::diff_schemas;
        use crate::parse_schema;
        let old = parse_schema("type A { x: int }\ntype B { y: int }\n").unwrap();
        old.warm_caches();
        // B removed: surviving ids shift nothing here, but the removal
        // breaks stability and must disable the carry wholesale.
        let new = parse_schema("type A { x: int }\n").unwrap();
        let diff = diff_schemas(&old, &new);
        assert!(!diff.ids_stable);
        assert_eq!(new.carry_warm_from(&old, &diff).total(), 0);
    }
}
