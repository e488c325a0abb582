//! Schema metrics: size, shape and surrogate accounting.
//!
//! Used by the CLI's `show`/`check` commands and the reproduction
//! harness to summarize a schema at a glance.

use crate::ids::TypeId;
use crate::schema::Schema;
use std::fmt;

/// Aggregate metrics for one schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaStats {
    /// Live (non-retired) types.
    pub types: usize,
    /// Live surrogate types.
    pub surrogates: usize,
    /// Surrogates with no local attributes.
    pub empty_surrogates: usize,
    /// Attributes.
    pub attrs: usize,
    /// Generic functions.
    pub gfs: usize,
    /// Methods in total.
    pub methods: usize,
    /// Accessor methods (readers + writers).
    pub accessors: usize,
    /// Types with more than one direct supertype.
    pub multiple_inheritance_types: usize,
    /// Root types (no supertypes).
    pub roots: usize,
    /// Length of the longest supertype chain (edges).
    pub max_depth: usize,
}

impl Schema {
    /// Computes aggregate metrics for the live portion of the schema.
    pub fn stats(&self) -> SchemaStats {
        let mut stats = SchemaStats {
            types: 0,
            surrogates: 0,
            empty_surrogates: 0,
            attrs: self.n_attrs(),
            gfs: self.n_gfs(),
            methods: self.n_methods(),
            accessors: self
                .method_ids()
                .filter(|&m| self.method(m).is_accessor())
                .count(),
            multiple_inheritance_types: 0,
            roots: 0,
            max_depth: 0,
        };
        let depths = self.depths();
        for t in self.live_type_ids() {
            stats.types += 1;
            let node = self.type_(t);
            if node.is_surrogate() {
                stats.surrogates += 1;
                if node.local_attrs.is_empty() {
                    stats.empty_surrogates += 1;
                }
            }
            match node.supers().len() {
                0 => stats.roots += 1,
                1 => {}
                _ => stats.multiple_inheritance_types += 1,
            }
            stats.max_depth = stats.max_depth.max(depths[t.index()]);
        }
        stats
    }

    /// Length (in edges) of the longest chain from `t` to a root.
    pub fn depth_of(&self, t: TypeId) -> usize {
        self.depths()[t.index()]
    }

    /// Every type slot's [`depth_of`](Self::depth_of), in one memoized
    /// depth-first pass over the supertype edges, so a diamond ladder
    /// costs its edge count rather than its path count. An edge back
    /// into the chain being walked (a cycle, which validation rejects)
    /// is skipped, so the pass terminates on any hierarchy.
    fn depths(&self) -> Vec<usize> {
        const UNSEEN: usize = usize::MAX;
        const OPEN: usize = usize::MAX - 1;
        let mut depth = vec![UNSEEN; self.n_types()];
        let mut stack: Vec<TypeId> = (0..depth.len()).map(TypeId::from_index).collect();
        while let Some(t) = stack.pop() {
            let supers = self.type_(t).super_ids();
            match depth[t.index()] {
                UNSEEN => {
                    depth[t.index()] = OPEN;
                    stack.push(t);
                    stack.extend(supers.filter(|s| depth[s.index()] == UNSEEN));
                }
                OPEN => {
                    let done = supers.map(|s| depth[s.index()]).filter(|&d| d < OPEN);
                    depth[t.index()] = done.map(|d| d + 1).max().unwrap_or(0);
                }
                _ => {}
            }
        }
        depth
    }
}

/// Counters exposed by the dispatch acceleration layer (see
/// [`crate::cache`]).
///
/// A *CPL* event covers both linearization memos (the list itself and the
/// surrogate-collapsed rank table derived from it); a *dispatch* event
/// covers the per-`(generic function, argument types)` applicable and
/// ranked method tables. `invalidations` counts the times a generation
/// bump actually flushed warm entries — mutations on an already-cold cache
/// are free and not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchCacheStats {
    /// Current schema generation (bumped by every mutation).
    pub generation: u64,
    /// CPL/rank-table lookups answered from the memo.
    pub cpl_hits: u64,
    /// CPL/rank-table lookups that had to compute.
    pub cpl_misses: u64,
    /// Dispatch-table lookups answered from the cache.
    pub dispatch_hits: u64,
    /// Dispatch-table lookups that had to compute.
    pub dispatch_misses: u64,
    /// Applicability-index lookups answered from the cache.
    pub index_hits: u64,
    /// Applicability-index lookups that had to build the index.
    pub index_misses: u64,
    /// Lint-report lookups answered from the cache.
    pub lint_hits: u64,
    /// Lint-report lookups that had to run the analysis.
    pub lint_misses: u64,
    /// Generation bumps that flushed at least one warm entry.
    pub invalidations: u64,
    /// Invalidations that had to flush *everything* (unstructured
    /// mutations, explicit clears) instead of a delta-closed dirty set.
    pub full_flushes: u64,
    /// Warm entries evicted by delta-closure refreshes (cumulative).
    pub delta_evictions: u64,
    /// Warm entries that survived a delta-closure refresh (cumulative).
    pub delta_survivals: u64,
    /// Currently resident CPL + rank-table entries.
    pub cpl_entries: usize,
    /// Currently resident applicable + ranked dispatch entries.
    pub dispatch_entries: usize,
    /// Currently resident applicability indexes, at both precisions.
    pub index_entries: usize,
    /// Currently resident lint reports (schema-wide plus per-request).
    pub lint_entries: usize,
    /// Deep-analysis report lookups answered from the cache (td-analyze).
    pub analysis_hits: u64,
    /// Deep-analysis report lookups that had to run the analyses.
    pub analysis_misses: u64,
    /// Currently resident deep-analysis reports.
    pub analysis_entries: usize,
}

/// One event counter of [`DispatchCacheStats`], as a field accessor.
type Counter = fn(&mut DispatchCacheStats) -> &mut u64;

impl DispatchCacheStats {
    /// The event counters, each with its `cache/*` registry name: the one
    /// list [`delta`](Self::delta), [`merge`](Self::merge) and
    /// [`publish`](Self::publish) walk. The other fields are gauges.
    const EVENTS: [(&'static str, Counter); 14] = [
        ("cache/cpl_hits", |s| &mut s.cpl_hits),
        ("cache/cpl_misses", |s| &mut s.cpl_misses),
        ("cache/dispatch_hits", |s| &mut s.dispatch_hits),
        ("cache/dispatch_misses", |s| &mut s.dispatch_misses),
        ("cache/index_hits", |s| &mut s.index_hits),
        ("cache/index_misses", |s| &mut s.index_misses),
        ("cache/lint_hits", |s| &mut s.lint_hits),
        ("cache/lint_misses", |s| &mut s.lint_misses),
        ("cache/analysis_hits", |s| &mut s.analysis_hits),
        ("cache/analysis_misses", |s| &mut s.analysis_misses),
        ("cache/invalidations", |s| &mut s.invalidations),
        ("cache/full_flushes", |s| &mut s.full_flushes),
        ("cache/delta_evictions", |s| &mut s.delta_evictions),
        ("cache/delta_survivals", |s| &mut s.delta_survivals),
    ];

    /// Counter movement since `baseline` (event counters subtract,
    /// saturating; `generation` and the resident-entry gauges keep their
    /// current values). Used by the batch engine to attribute cache
    /// activity to one derivation: a fork inherits its snapshot's
    /// counters, so the fork's own work is `final.delta(&at_fork)`.
    pub fn delta(&self, baseline: &DispatchCacheStats) -> DispatchCacheStats {
        let (mut since, mut baseline) = (*self, *baseline);
        for (_, counter) in Self::EVENTS {
            let base = *counter(&mut baseline);
            let value = counter(&mut since);
            *value = value.saturating_sub(base);
        }
        since
    }

    /// Event-counter sum (`self + other`), for batch rollups. The
    /// non-additive fields keep the maximum of the two sides.
    pub fn merge(&self, other: &DispatchCacheStats) -> DispatchCacheStats {
        let (mut sum, mut other) = (*self, *other);
        for (_, counter) in Self::EVENTS {
            *counter(&mut sum) += *counter(&mut other);
        }
        DispatchCacheStats {
            generation: self.generation.max(other.generation),
            cpl_entries: self.cpl_entries.max(other.cpl_entries),
            dispatch_entries: self.dispatch_entries.max(other.dispatch_entries),
            index_entries: self.index_entries.max(other.index_entries),
            lint_entries: self.lint_entries.max(other.lint_entries),
            analysis_entries: self.analysis_entries.max(other.analysis_entries),
            ..sum
        }
    }

    /// Lookups answered from a memo and lookups that computed, summed
    /// over the `*_hits` and the `*_misses` event counters.
    pub fn hits_and_misses(&self) -> (u64, u64) {
        let mut stats = *self;
        let mut sum = |suffix: &str| -> u64 {
            let named = Self::EVENTS
                .iter()
                .filter(|(name, _)| name.ends_with(suffix));
            named.map(|(_, counter)| *counter(&mut stats)).sum()
        };
        (sum("_hits"), sum("_misses"))
    }

    /// Publishes these stats into the `td_telemetry` metrics registry:
    /// event counters become `cache/*` counters (added, so repeated
    /// publishes of *deltas* accumulate) and resident-entry counts become
    /// gauges (set, last write wins). A no-op while telemetry is off.
    pub fn publish(&self) {
        if !td_telemetry::enabled() {
            return;
        }
        use td_telemetry::metrics::{counter, gauge};
        let mut stats = *self;
        for (name, field) in Self::EVENTS {
            let value = *field(&mut stats);
            if value > 0 {
                counter(name).add(value);
            }
        }
        gauge("cache/generation").set(self.generation as i64);
        gauge("cache/cpl_entries").set(self.cpl_entries as i64);
        gauge("cache/dispatch_entries").set(self.dispatch_entries as i64);
        gauge("cache/index_entries").set(self.index_entries as i64);
        gauge("cache/lint_entries").set(self.lint_entries as i64);
        gauge("cache/analysis_entries").set(self.analysis_entries as i64);
    }
}

impl fmt::Display for DispatchCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dispatch cache: gen {}, cpl {}/{} hits ({} resident), \
             dispatch {}/{} hits ({} resident), \
             index {}/{} hits ({} resident), \
             lint {}/{} hits ({} resident), \
             analysis {}/{} hits ({} resident), {} invalidations \
             ({} full, {} evicted / {} kept by deltas)",
            self.generation,
            self.cpl_hits,
            self.cpl_hits + self.cpl_misses,
            self.cpl_entries,
            self.dispatch_hits,
            self.dispatch_hits + self.dispatch_misses,
            self.dispatch_entries,
            self.index_hits,
            self.index_hits + self.index_misses,
            self.index_entries,
            self.lint_hits,
            self.lint_hits + self.lint_misses,
            self.lint_entries,
            self.analysis_hits,
            self.analysis_hits + self.analysis_misses,
            self.analysis_entries,
            self.invalidations,
            self.full_flushes,
            self.delta_evictions,
            self.delta_survivals
        )
    }
}

impl fmt::Display for SchemaStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "types: {} ({} surrogates, {} empty), roots: {}, max depth: {}, MI types: {}",
            self.types,
            self.surrogates,
            self.empty_surrogates,
            self.roots,
            self.max_depth,
            self.multiple_inheritance_types
        )?;
        write!(
            f,
            "attrs: {}, generic functions: {}, methods: {} ({} accessors)",
            self.attrs, self.gfs, self.methods, self.accessors
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::ValueType;

    #[test]
    fn stats_of_small_schema() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let c = s.add_type("C", &[a]).unwrap();
        let _d = s.add_type("D", &[b, c]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        s.add_accessors(x).unwrap();
        let hat = s.add_surrogate("^A", a).unwrap();
        s.add_super_highest(a, hat).unwrap();

        let st = s.stats();
        assert_eq!(st.types, 5);
        assert_eq!(st.surrogates, 1);
        assert_eq!(st.empty_surrogates, 1);
        assert_eq!(st.roots, 1); // ^A
        assert_eq!(st.multiple_inheritance_types, 1); // D
        assert_eq!(st.max_depth, 3); // D -> B -> A -> ^A
        assert_eq!(st.accessors, 2);
        assert_eq!(st.methods, 2);
        let text = st.to_string();
        assert!(text.contains("types: 5"));
        assert!(text.contains("accessors"));
    }

    #[test]
    fn cache_stats_delta_and_merge() {
        let a = DispatchCacheStats {
            generation: 3,
            cpl_hits: 10,
            cpl_misses: 4,
            dispatch_hits: 20,
            dispatch_misses: 6,
            index_hits: 9,
            index_misses: 3,
            lint_hits: 6,
            lint_misses: 2,
            invalidations: 1,
            full_flushes: 1,
            delta_evictions: 4,
            delta_survivals: 9,
            cpl_entries: 5,
            dispatch_entries: 7,
            index_entries: 2,
            lint_entries: 2,
            analysis_hits: 5,
            analysis_misses: 1,
            analysis_entries: 2,
        };
        let b = DispatchCacheStats {
            generation: 2,
            cpl_hits: 7,
            cpl_misses: 4,
            dispatch_hits: 5,
            dispatch_misses: 1,
            index_hits: 4,
            index_misses: 3,
            lint_hits: 1,
            lint_misses: 2,
            invalidations: 0,
            full_flushes: 0,
            delta_evictions: 1,
            delta_survivals: 4,
            cpl_entries: 2,
            dispatch_entries: 3,
            index_entries: 1,
            lint_entries: 1,
            analysis_hits: 2,
            analysis_misses: 1,
            analysis_entries: 1,
        };
        let d = a.delta(&b);
        assert_eq!(d.cpl_hits, 3);
        assert_eq!(d.cpl_misses, 0);
        assert_eq!(d.dispatch_hits, 15);
        assert_eq!(d.dispatch_misses, 5);
        assert_eq!(d.index_hits, 5);
        assert_eq!(d.index_misses, 0);
        assert_eq!(d.lint_hits, 5);
        assert_eq!(d.lint_misses, 0);
        assert_eq!(d.generation, 3);
        assert_eq!(d.cpl_entries, 5);
        assert_eq!(d.index_entries, 2);
        assert_eq!(d.lint_entries, 2);
        assert_eq!(d.analysis_hits, 3);
        assert_eq!(d.analysis_misses, 0);
        assert_eq!(d.analysis_entries, 2);
        // delta saturates rather than underflowing.
        assert_eq!(b.delta(&a).cpl_hits, 0);
        let m = a.merge(&b);
        assert_eq!(m.cpl_hits, 17);
        assert_eq!(m.dispatch_misses, 7);
        assert_eq!(m.index_hits, 13);
        assert_eq!(m.lint_hits, 7);
        assert_eq!(m.lint_misses, 4);
        assert_eq!(m.generation, 3);
        assert_eq!(m.dispatch_entries, 7);
        assert_eq!(m.index_entries, 2);
        assert_eq!(m.lint_entries, 2);
        assert_eq!(m.analysis_hits, 7);
        assert_eq!(m.analysis_misses, 2);
        assert_eq!(m.analysis_entries, 2);
    }

    #[test]
    fn publish_bridges_counters_and_gauges_into_the_registry() {
        let stats = DispatchCacheStats {
            generation: 7,
            cpl_hits: 3,
            index_misses: 2,
            cpl_entries: 4,
            ..DispatchCacheStats::default()
        };
        // Disabled: publishing must not touch the registry.
        td_telemetry::set_enabled(false);
        td_telemetry::metrics::reset();
        stats.publish();
        assert!(td_telemetry::metrics::snapshot().is_empty());

        td_telemetry::set_enabled(true);
        stats.publish();
        stats.publish();
        td_telemetry::set_enabled(false);
        let snap = td_telemetry::metrics::snapshot();
        td_telemetry::metrics::reset();
        // Counters accumulate across publishes (deltas add up)…
        assert_eq!(snap.counters["cache/cpl_hits"], 6);
        assert_eq!(snap.counters["cache/index_misses"], 4);
        // …zero counters are not registered at all…
        assert!(!snap.counters.contains_key("cache/dispatch_hits"));
        // …and gauges are last-write-wins.
        assert_eq!(snap.gauges["cache/generation"], 7);
        assert_eq!(snap.gauges["cache/cpl_entries"], 4);
    }

    #[test]
    fn depths_of_a_diamond_ladder_take_one_pass() {
        // Roots L0a and L0b; each Lia and Lib inherits from both L(i-1)a
        // and L(i-1)b, so a level-i type has 2^i paths to a root.
        let mut s = Schema::new();
        let mut level = [
            s.add_type("L0a", &[]).unwrap(),
            s.add_type("L0b", &[]).unwrap(),
        ];
        for i in 1..100 {
            level = [
                s.add_type(format!("L{i}a"), &level).unwrap(),
                s.add_type(format!("L{i}b"), &level).unwrap(),
            ];
        }
        let st = s.stats();
        assert_eq!(st.types, 200);
        assert_eq!(st.max_depth, 99);
        assert_eq!(s.depth_of(level[1]), 99);
    }

    #[test]
    fn depths_terminate_on_a_cyclic_hierarchy() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        // A cycle no mutator would build (a corrupt snapshot could).
        s.types[a.index()]
            .supers
            .push(crate::SuperLink { target: b, prec: 1 });
        assert!(s.depth_of(a) <= 1 && s.depth_of(b) <= 2);
        assert!(s.stats().max_depth <= 2);
    }

    #[test]
    fn depth_of_roots_is_zero() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        assert_eq!(s.depth_of(a), 0);
        assert_eq!(s.stats().max_depth, 0);
    }
}
