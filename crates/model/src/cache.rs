//! The dispatch acceleration layer: memoized CPLs and a delta-invalidated
//! dispatch-table cache.
//!
//! Multi-method dispatch is the repository's hot loop: the `IsApplicable`
//! walk re-scans a generic function's methods at every call site, and the
//! I2 check (`td-core`) reads the rank tables of every type a derivation
//! touched. Uncached, each `most_specific` call re-linearizes its argument
//! types and rescans the generic function. This module is the lazy variant
//! of dispatch-table precomputation, with each rule stated once:
//!
//! * **One memo path.** Every cached artifact — CPLs, rank tables, the
//!   unranked and ranked dispatch tables per `(GfId, argument types)`, the
//!   condensation indexes per `(source, precision)`, and the lint and
//!   analysis reports — has one map, read through one lookup: settle
//!   pending deltas, probe, count a hit or a miss. A miss computes outside
//!   the lock and stores the result, shared via `Arc`.
//! * **One staleness closure.** Every schema mutation records a
//!   [`crate::delta::SchemaDelta`] in O(1). The first read after it closes
//!   the touched types downward over the hierarchy (everything below a
//!   rewired node reaches it through its ancestor chain) and evicts exactly
//!   the stale entries: CPLs and rank tables of dirty types, dispatch
//!   tables of touched generic functions or dirty argument types, and
//!   indexes whose source is dirty, whose universe holds a touched method
//!   or whose source a touched method now reaches. The dirty types are one
//!   [`Schema::descendant_set`] of the touched types, and the sources a
//!   touched method reaches one more of its specializers, over one set of
//!   subtype lists: the closure costs a sweep of the type slots plus the
//!   size of what it closes over. The rest survive warm.
//!   [`Schema::carry_warm_from`] feeds the same closure from a
//!   [`SchemaDiff`]'s names and keeps the donor entries it leaves clean.
//! * **One counter list.** The counters are one [`DispatchCacheStats`],
//!   whose event counters `delta`, `merge` and `publish` walk as one list.
//!
//! The closure runs at read time, against the *post-mutation* hierarchy.
//! This is sound: if a batch of mutations changes any type `X`'s ancestor
//! set, some edge on an old or new ancestor path of `X` changed at a node
//! `n` reachable from `X` through edges that did *not* change below it
//! (induction on the lowest changed node of the path), so `X` is in the
//! `descendant_set` of `n` at read time. Dispatch entries depend only on
//! their argument types' upward reachability, which the same argument
//! covers; method-shaped deltas carry their gf and method ids explicitly.
//!
//! The cache lives inside [`Schema`] behind a `Mutex` (keeping `Schema:
//! Send + Sync`) and is cloned with it: a clone is a snapshot, so its warm
//! entries and unclosed deltas stay valid.
//!
//! **Bounded report maps.** Lint and analysis reports are keyed by request,
//! and a registered server schema answers every read on one shared
//! snapshot, so each report map holds at most `MAX_CACHED_REPORTS` (1024)
//! entries: a store past that first drops the request-keyed entries and
//! keeps the schema-wide ones. The other maps are bounded by the schema.

use crate::appindex::{AnalysisPrecision, ApplicabilityIndex};
use crate::delta::{CarryReport, SchemaDelta, SchemaDiff};
use crate::diag::LintReport;
use crate::dispatch::CallArg;
use crate::error::Result;
use crate::ids::{AttrId, GfId, MethodId, TypeId, TypeSet};
use crate::schema::Schema;
use crate::stats::DispatchCacheStats;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-type specificity ranks with surrogate collapse (see
/// `Schema::collapsed_ranks`).
pub(crate) type Ranks = Vec<(TypeId, usize)>;

/// Key of the per-call dispatch tables.
pub(crate) type CallKey = (GfId, Vec<CallArg>);

/// Key of the condensation indexes: the projection source (an index does
/// not depend on the projection list) and the precision it was built at.
pub(crate) type IndexKey = (TypeId, AnalysisPrecision);

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

/// Every cached artifact, one map per kind. A snapshot persists the first
/// five maps (its indexes at `Syntactic` only); lint and analysis reports
/// are presentation-layer and re-derive quickly.
#[derive(Debug, Clone, Default)]
pub(crate) struct Entries {
    pub(crate) cpl: HashMap<TypeId, Arc<Vec<TypeId>>>,
    pub(crate) ranks: HashMap<TypeId, Arc<Ranks>>,
    pub(crate) applicable: HashMap<CallKey, Arc<Vec<MethodId>>>,
    pub(crate) ranked: HashMap<CallKey, Arc<Vec<MethodId>>>,
    pub(crate) index: HashMap<IndexKey, Arc<ApplicabilityIndex>>,
    /// Reports computed in td-core and td-analyze, stored here so every
    /// fork of a [`crate::SchemaSnapshot`] shares them.
    pub(crate) lint: HashMap<LintKey, Arc<LintReport>>,
    pub(crate) analysis: HashMap<AnalysisKey, Arc<LintReport>>,
}

impl Entries {
    fn len(&self) -> usize {
        self.cpl.len()
            + self.ranks.len()
            + self.applicable.len()
            + self.ranked.len()
            + self.index.len()
            + self.lint.len()
            + self.analysis.len()
    }
}

/// One memo table: its map in [`Entries`] and the hit and miss counters
/// its lookups move.
type Table<K, V> = fn(&mut CacheInner) -> (&mut HashMap<K, Arc<V>>, &mut u64, &mut u64);

/// The [`Table`] of `entries.$map`, counted on `stats.$hits` and
/// `stats.$misses`.
macro_rules! table {
    ($map:ident, $hits:ident, $misses:ident) => {
        |c| {
            (
                &mut c.entries.$map,
                &mut c.stats.$hits,
                &mut c.stats.$misses,
            )
        }
    };
}
const CPL: Table<TypeId, Vec<TypeId>> = table!(cpl, cpl_hits, cpl_misses);
const RANKS: Table<TypeId, Ranks> = table!(ranks, cpl_hits, cpl_misses);
const APPLICABLE: Table<CallKey, Vec<MethodId>> =
    table!(applicable, dispatch_hits, dispatch_misses);
const RANKED: Table<CallKey, Vec<MethodId>> = table!(ranked, dispatch_hits, dispatch_misses);
const INDEX: Table<IndexKey, ApplicabilityIndex> = table!(index, index_hits, index_misses);
const LINT: Table<LintKey, LintReport> = table!(lint, lint_hits, lint_misses);
const ANALYSIS: Table<AnalysisKey, LintReport> = table!(analysis, analysis_hits, analysis_misses);

/// What a batch of edits touched. Live deltas fill it as they are
/// recorded; [`Schema::carry_warm_from`] fills it from a diff's names.
/// [`Dirty::close`] closes it over the hierarchy into the staleness rule
/// both apply: a CPL or rank table is stale iff its type is `below`.
#[derive(Debug, Clone, Default)]
struct Dirty {
    /// An unbounded mutation was recorded: flush everything.
    full: bool,
    /// Type nodes handed out `&mut` (edges, origin, attributes, liveness).
    types: HashSet<TypeId>,
    /// Generic functions with added or touched methods.
    gfs: HashSet<GfId>,
    /// Methods added or touched.
    methods: HashSet<MethodId>,
    /// An attribute definition was touched: indexes survive (footprints
    /// use stable ids), analysis reports do not (they read value types).
    attrs_touched: bool,
    /// Set by [`Dirty::close`]: the touched types and every live type
    /// below one.
    below: TypeSet,
    /// Set by [`Dirty::close`]: the types a touched method applies to,
    /// i.e. its specializers and every live type below one.
    reached: TypeSet,
}

impl Dirty {
    fn record(&mut self, delta: SchemaDelta) {
        match delta {
            // Pure additions of leaf entities: nothing cached can
            // reference them, so only the lint flush (which every
            // refresh performs) applies.
            SchemaDelta::TypeAdded(_) | SchemaDelta::AttrAdded(_) | SchemaDelta::GfAdded(_) => {}
            SchemaDelta::AttrTouched(_) => self.attrs_touched = true,
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

    /// Closes the touched types and the touched methods' specializers
    /// downward over `schema`'s hierarchy (every cached artifact of a
    /// type depends on its ancestor chain), in two walks over one set of
    /// subtype lists that read raw edges and never re-enter the cache.
    fn close(mut self, schema: &Schema) -> Dirty {
        let lists = schema.subtype_lists();
        self.below = lists.descendant_set(self.types.iter().copied());
        self.reached = lists.descendant_set(
            self.methods
                .iter()
                .flat_map(|&m| schema.method(m).type_specializers().map(|(_, s)| s)),
        );
        self
    }

    /// A dispatch table is stale iff its gf was touched or one of its
    /// argument types is dirty.
    fn call(&self, (gf, args): &CallKey) -> bool {
        let dirty_arg = |a: &CallArg| matches!(a, CallArg::Object(t) if self.below.contains(*t));
        self.gfs.contains(gf) || args.iter().any(dirty_arg)
    }

    /// The index of `source` is stale iff `source` is dirty, a touched
    /// method now applies to `source` (and would enter the universe on
    /// rebuild), or its universe (`node_of`) contains a touched method.
    fn index(&self, source: TypeId, idx: &ApplicabilityIndex) -> bool {
        self.below.contains(source)
            || self.reached.contains(source)
            || self.methods.iter().any(|m| idx.node_of.contains_key(m))
    }
}

#[derive(Debug, Clone, Default)]
struct CacheInner {
    /// The counters; `stats.generation` counts mutations. The gauges are
    /// read off `entries` instead.
    stats: DispatchCacheStats,
    /// Generation `entries` were populated under.
    entries_generation: u64,
    /// Deltas recorded since `entries_generation`, closed and drained by
    /// [`CacheInner::refresh`].
    pending: Dirty,
    entries: Entries,
}

/// Removes the entries `stale` marks and returns how many there were.
fn evict<K, V>(map: &mut HashMap<K, V>, stale: impl Fn(&K, &V) -> bool) -> usize {
    let before = map.len();
    map.retain(|k, v| !stale(k, v));
    before - map.len()
}

/// Moves the entries of `from` that `keep` accepts and `into` lacks into
/// `into`; returns how many moved.
fn carry<K: Eq + Hash, V>(
    into: &mut HashMap<K, V>,
    mut from: HashMap<K, V>,
    keep: impl Fn(&K, &V) -> bool,
) -> usize {
    from.retain(|k, v| keep(k, v) && !into.contains_key(k));
    let moved = from.len();
    into.extend(from);
    moved
}

impl CacheInner {
    /// The memo lookup every cached read makes: settle pending deltas,
    /// probe `table` and count a hit or a miss.
    fn get<K: Eq + Hash, V>(
        &mut self,
        schema: &Schema,
        table: Table<K, V>,
        key: &K,
    ) -> Option<Arc<V>> {
        self.refresh(schema);
        let (map, hits, misses) = table(self);
        let found = map.get(key).cloned();
        let counter = if found.is_some() { hits } else { misses };
        *counter += 1;
        found
    }

    /// Stores `value` under `key` for the current generation. A report
    /// map passes its request-key test: once it holds
    /// `MAX_CACHED_REPORTS` entries, a new key first drops the
    /// request-keyed ones.
    fn put<K: Eq + Hash, V>(
        &mut self,
        schema: &Schema,
        table: Table<K, V>,
        key: K,
        value: Arc<V>,
        is_request: Option<fn(&K) -> bool>,
    ) {
        self.refresh(schema);
        let (map, _, _) = table(self);
        if let Some(is_request) = is_request {
            if map.len() >= MAX_CACHED_REPORTS && !map.contains_key(&key) {
                map.retain(|k, _| !is_request(k));
            }
        }
        map.insert(key, value);
    }

    /// Closes the recorded deltas and evicts exactly the stale entries.
    /// Called at the top of every cached read; `schema` is the
    /// (post-mutation) schema the cache belongs to.
    fn refresh(&mut self, schema: &Schema) {
        if self.entries_generation == self.stats.generation {
            return;
        }
        self.entries_generation = self.stats.generation;
        let pending = std::mem::take(&mut self.pending);
        if self.entries.len() == 0 {
            return;
        }
        if pending.full {
            self.entries = Entries::default();
            self.stats.invalidations += 1;
            self.stats.full_flushes += 1;
            return;
        }
        let dirty = pending.close(schema);
        let e = &mut self.entries;
        let mut evicted = 0;
        if !dirty.types.is_empty() {
            evicted += evict(&mut e.cpl, |t, _| dirty.below.contains(*t));
            evicted += evict(&mut e.ranks, |t, _| dirty.below.contains(*t));
        }
        if !dirty.types.is_empty() || !dirty.gfs.is_empty() {
            evicted += evict(&mut e.applicable, |k, _| dirty.call(k));
            evicted += evict(&mut e.ranked, |k, _| dirty.call(k));
        }
        if !dirty.types.is_empty() || !dirty.methods.is_empty() {
            evicted += evict(&mut e.index, |&(s, _), idx| dirty.index(s, idx));
        }
        // Lint findings mention names, owners and dispatch outcomes
        // across the whole schema; every mutation flushes them (they
        // re-derive quickly and are presentation-layer).
        evicted += e.lint.len();
        e.lint.clear();
        // Deep-analysis reports: the schema-wide part (`None` key)
        // flushes like lint, but a per-source part survives exactly when
        // a condensation index for its source survived the closure above
        // — the analyses are scoped to that universe, so a surviving
        // index proves no touched method can reach the report.
        use AnalysisPrecision::{Semantic, Syntactic};
        let index = &e.index;
        let indexed = |s| index.contains_key(&(s, Syntactic)) || index.contains_key(&(s, Semantic));
        evicted += evict(&mut e.analysis, |(key, _), _| match key {
            None => true,
            Some((source, _)) => dirty.attrs_touched || !indexed(*source),
        });

        if evicted > 0 {
            self.stats.invalidations += 1;
        }
        self.stats.delta_evictions += evicted as u64;
        self.stats.delta_survivals += self.entries.len() as u64;
    }
}

/// The interior-mutable cache carried by every [`Schema`].
///
/// All read paths go through `&Schema`, so the cache is populated behind
/// a `Mutex`; mutation paths have `&mut Schema` and record deltas
/// without contention via `get_mut`.
#[derive(Default)]
pub struct DispatchCache {
    inner: Mutex<CacheInner>,
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
        write!(f, "DispatchCache({} entries)", self.lock().entries.len())
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
        inner.stats.generation += 1;
        inner.pending.record(delta);
    }

    /// The entries a snapshot persists, after settling any pending deltas
    /// against `schema`: every map but the reports, and the indexes at
    /// `Syntactic` only (stats counters stay behind; `Arc` clones make
    /// this cheap).
    pub(crate) fn export_warm(&self, schema: &Schema) -> Entries {
        let mut inner = self.lock();
        inner.refresh(schema);
        let e = &inner.entries;
        let mut index = e.index.clone();
        index.retain(|(_, precision), _| *precision == AnalysisPrecision::Syntactic);
        Entries {
            cpl: e.cpl.clone(),
            ranks: e.ranks.clone(),
            applicable: e.applicable.clone(),
            ranked: e.ranked.clone(),
            index,
            ..Entries::default()
        }
    }

    /// Installs deserialized warm entries, tagged as current for the
    /// schema's present generation so the first read serves them instead
    /// of flushing (the snapshot loader's cache-restore step). Any
    /// pending deltas are dropped: the entries are declared current.
    pub(crate) fn import_warm(&mut self, warm: Entries) {
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        inner.entries = warm;
        inner.entries_generation = inner.stats.generation;
        inner.pending = Dirty::default();
    }
}

impl Schema {
    /// The schema's mutation generation. Every mutating operation (adding
    /// types, attributes, methods or edges; any `&mut` access to a method,
    /// type node or attribute) increments it; cached dispatch results
    /// never cross generations.
    pub fn generation(&self) -> u64 {
        self.cache.lock().stats.generation
    }

    /// A snapshot of the dispatch-cache counters.
    pub fn dispatch_cache_stats(&self) -> DispatchCacheStats {
        let inner = self.cache.lock();
        let e = &inner.entries;
        DispatchCacheStats {
            cpl_entries: e.cpl.len() + e.ranks.len(),
            dispatch_entries: e.applicable.len() + e.ranked.len(),
            index_entries: e.index.len(),
            lint_entries: e.lint.len(),
            analysis_entries: e.analysis.len(),
            ..inner.stats
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
        inner.stats.generation += 1;
        inner.pending.record(SchemaDelta::Full);
        inner.refresh(self);
    }

    /// Carries warm cache entries from `donor` (the previous version of
    /// this schema, built independently — e.g. the prior parse of a
    /// registered schema text) into this schema's cache.
    ///
    /// Requires `diff = diff_schemas(donor, self)` with
    /// [`ids_stable`](SchemaDiff::ids_stable); returns an empty report
    /// otherwise (ids are the cache keys, so unstable ids make every old
    /// entry meaningless here). The diff's changed and added types, its
    /// changed generic functions and its added and changed methods feed
    /// the same staleness closure a live mutation does; a donor entry is
    /// carried iff its types are live here, the closure does not mark it
    /// stale, and this cache lacks its key (existing entries are never
    /// overwritten).
    pub fn carry_warm_from(&self, donor: &Schema, diff: &SchemaDiff) -> CarryReport {
        if !diff.ids_stable {
            return CarryReport::default();
        }
        let mut dirty = Dirty::default();
        // Added types dirty nothing existing, but close them anyway: an
        // added type wired *above* an existing one shows up as a changed
        // existing type, and closing both is harmless.
        for name in diff.changed_types.iter().chain(&diff.added_types) {
            dirty.types.extend(self.type_id(name).ok());
        }
        for name in &diff.changed_gfs {
            dirty.gfs.extend(self.gf_id(name).ok());
        }
        if !diff.added_methods.is_empty() || !diff.changed_methods.is_empty() {
            let by_label: HashMap<&str, MethodId> = self
                .method_ids()
                .map(|m| (self.method_label(m), m))
                .collect();
            for label in diff.added_methods.iter().chain(&diff.changed_methods) {
                if let Some(&m) = by_label.get(label.as_str()) {
                    dirty.methods.insert(m);
                    dirty.gfs.insert(self.method(m).gf);
                }
            }
        }
        let dirty = dirty.close(self);

        let warm = donor.cache.export_warm(donor);
        let mut inner = self.cache.lock();
        inner.refresh(self);
        let e = &mut inner.entries;
        let live_type = |t: &TypeId| self.is_live(*t) && !dirty.below.contains(*t);
        let live_call = |k: &CallKey| {
            let live = |a: &CallArg| !matches!(a, CallArg::Object(t) if !self.is_live(*t));
            k.1.iter().all(live) && !dirty.call(k)
        };
        CarryReport {
            cpl: carry(&mut e.cpl, warm.cpl, |t, _| live_type(t))
                + carry(&mut e.ranks, warm.ranks, |t, _| live_type(t)),
            dispatch: carry(&mut e.applicable, warm.applicable, |k, _| live_call(k))
                + carry(&mut e.ranked, warm.ranked, |k, _| live_call(k)),
            indexes: carry(&mut e.index, warm.index, |&(s, _), idx| {
                self.is_live(s) && !dirty.index(s, idx)
            }),
        }
    }

    /// The one memo path behind every cached artifact except the
    /// reports: look `key` up in `table`, and on a miss compute the value
    /// and store it. The computation runs outside the lock: it may
    /// re-enter the cache (ranks read the CPL memo, an index build reads
    /// the dispatch tables), and holding the lock across it would
    /// serialize misses.
    fn memo<K: Eq + Hash, V, E>(
        &self,
        table: Table<K, V>,
        key: K,
        compute: impl FnOnce() -> std::result::Result<V, E>,
    ) -> std::result::Result<Arc<V>, E> {
        if let Some(hit) = self.cache.lock().get(self, table, &key) {
            return Ok(hit);
        }
        let computed = Arc::new(compute()?);
        let mut inner = self.cache.lock();
        inner.put(self, table, key, Arc::clone(&computed), None);
        Ok(computed)
    }

    /// The memoized class precedence list of `t`.
    pub(crate) fn cached_cpl(&self, t: TypeId) -> Result<Arc<Vec<TypeId>>> {
        self.memo(CPL, t, || self.compute_cpl(t))
    }

    /// The memoized collapsed specificity ranks of `t`'s CPL.
    pub(crate) fn cached_ranks(&self, t: TypeId) -> Result<Arc<Ranks>> {
        self.memo(RANKS, t, || Ok(self.collapsed_ranks(&self.cached_cpl(t)?)))
    }

    /// The memoized unranked applicable-method set for a call.
    pub(crate) fn cached_applicable(&self, gf: GfId, args: &[CallArg]) -> Arc<Vec<MethodId>> {
        self.memo(APPLICABLE, (gf, args.to_vec()), || {
            Ok::<_, Infallible>(self.applicable_methods_uncached(gf, args))
        })
        .unwrap_or_else(|never| match never {})
    }

    /// The memoized ranked applicable-method list for a call.
    pub(crate) fn cached_ranked(&self, gf: GfId, args: &[CallArg]) -> Result<Arc<Vec<MethodId>>> {
        self.memo(RANKED, (gf, args.to_vec()), || {
            let applicable = self.cached_applicable(gf, args);
            self.rank_methods(applicable.as_ref().clone(), args, |s, t| s.cached_ranks(t))
        })
    }

    /// The memoized applicability condensation index for projections over
    /// `source` (see [`crate::appindex`]). Built once per `(schema
    /// generation, source)` and shared via `Arc`; a schema clone — in
    /// particular every [`crate::SchemaSnapshot`] fork — carries the warm
    /// index, so batch workers never rebuild it.
    pub fn cached_applicability_index(&self, source: TypeId) -> Result<Arc<ApplicabilityIndex>> {
        self.cached_applicability_index_at(source, AnalysisPrecision::Syntactic)
    }

    /// The memoized condensation index for `source` at the requested
    /// precision, built once per `(generation, source, precision)` behind
    /// the same delta closure at both precisions.
    pub fn cached_applicability_index_at(
        &self,
        source: TypeId,
        precision: AnalysisPrecision,
    ) -> Result<Arc<ApplicabilityIndex>> {
        self.memo(INDEX, (source, precision), || {
            let _span = td_telemetry::span(
                "cache",
                match precision {
                    AnalysisPrecision::Syntactic => "appindex_build",
                    AnalysisPrecision::Semantic => "appindex_refine",
                },
            );
            ApplicabilityIndex::build_with(self, source, precision)
        })
    }

    /// The cached deep-analysis report for `key`, if one was stored under
    /// the current generation. Counts a hit or a miss; the analyses live
    /// in td-analyze, which calls [`Schema::store_analysis_report`] after
    /// computing a missed report.
    pub fn cached_analysis_report(&self, key: &AnalysisKey) -> Option<Arc<LintReport>> {
        self.cache.lock().get(self, ANALYSIS, key)
    }

    /// Stores a deep-analysis report under `key` for the current
    /// generation, so snapshot forks and batch workers share the result.
    /// The map holds at most 1024 reports; a store past that drops the
    /// request-keyed ones first.
    pub fn store_analysis_report(&self, key: AnalysisKey, report: Arc<LintReport>) {
        let is_request: fn(&AnalysisKey) -> bool = |(part, _)| part.is_some();
        self.cache
            .lock()
            .put(self, ANALYSIS, key, report, Some(is_request));
    }

    /// The cached lint report for `key`, if one was stored under the
    /// current generation. Counts a hit or a miss; the analysis itself
    /// lives in td-core, which calls [`Schema::store_lint_report`] after
    /// computing a missed report.
    pub fn cached_lint_report(&self, key: &LintKey) -> Option<Arc<LintReport>> {
        self.cache.lock().get(self, LINT, key)
    }

    /// Stores a lint report under `key` for the current generation, so
    /// snapshot forks and batch workers share the analysis. The map holds
    /// at most 1024 reports; a store past that drops the request-keyed
    /// ones first.
    pub fn store_lint_report(&self, key: LintKey, report: Arc<LintReport>) {
        self.cache
            .lock()
            .put(self, LINT, key, report, Some(Option::is_some));
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
