//! The tenant-scoped schema registry.
//!
//! Tenants register named schema texts (`PUT
//! /v1/tenants/{t}/schemas/{name}`); each registration parses the text
//! once into a warm [`SchemaSnapshot`] and bumps a monotonic version.
//! Reads that name a registered schema (`applicable`, `lint`, `analyze`,
//! `explain`) answer on the shared snapshot itself, so what they compute
//! stays cached there for every later request. Derivations mutate, so
//! they fork the snapshot after [`SchemaEntry::warm_for`], and the CPL
//! memo, dispatch cache and applicability index warmed by earlier
//! requests are inherited instead of rebuilt — the warm-path advantage
//! the `ratio_serve_warm_vs_cold` repro metric gates. Re-registering a
//! name swaps in a brand-new snapshot, but not a
//! brand-new cache: the registry diffs the new text's schema against the
//! previous version ([`td_model::diff_schemas`]) and, when every
//! surviving entity keeps its id slot, carries the warm entries whose
//! dependency closure the diff proves untouched
//! ([`td_model::Schema::carry_warm_from`]). A version bump therefore
//! invalidates exactly the changed portion of the cache; entries the
//! edit could not have affected stay warm across versions. The diff and
//! the replaced snapshot ride along in the [`PutOutcome`] so the watch
//! hub can stream incremental re-derivation results to subscribers.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

use td_model::{
    diff_schemas, parse_schema, read_snapshot_file, write_snapshot_file, CarryReport, Schema,
    SchemaDiff, SchemaSnapshot, TypeId,
};

/// One registered schema: the parsed warm snapshot plus provenance.
pub struct SchemaEntry {
    /// Monotonic per-(tenant, name) version, starting at 1.
    pub version: u64,
    /// The shared copy-on-write snapshot requests fork from.
    pub snapshot: SchemaSnapshot,
    /// The schema text as registered (echoed by GET).
    pub text: String,
}

impl SchemaEntry {
    /// Warms the shared snapshot for a derivation from `source`, before
    /// it forks: CPLs for every live type plus the applicability
    /// condensation index. Caches live on the snapshot, not the fork, so
    /// the warmth persists across requests — this is the line between the
    /// registry's warm path and an inline `schema_text` request's cold
    /// path. The server calls it for derivations only; reads run on the
    /// snapshot and fill its caches as they go.
    pub fn warm_for(&self, source: TypeId) {
        for t in self.snapshot.live_type_ids() {
            let _ = self.snapshot.cpl(t);
        }
        // An index build failure (e.g. a dataflow error) surfaces as the
        // request's pipeline error instead; warming never fails.
        let _ = self.snapshot.cached_applicability_index(source);
    }
}

/// What a [`Registry::put`] did: the assigned version plus everything a
/// change-feed consumer needs to compute incremental re-derivations.
pub struct PutOutcome {
    /// Monotonic per-(tenant, name) version, starting at 1.
    pub version: u64,
    /// Diff against the replaced version (`None` on first registration).
    pub diff: Option<SchemaDiff>,
    /// Warm entries carried from the replaced snapshot (zero when ids
    /// were unstable or nothing qualified).
    pub carried: CarryReport,
    /// The entry this PUT replaced, still warm (`None` on first
    /// registration). Watch subscribers derive against both sides.
    pub previous: Option<Arc<SchemaEntry>>,
    /// The newly registered snapshot.
    pub snapshot: SchemaSnapshot,
}

/// Registry state: tenant → schema name → entry.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<BTreeMap<String, BTreeMap<String, Arc<SchemaEntry>>>>,
    /// When set, every PUT persists a warm binary snapshot here and boot
    /// reloads them — tenant state survives server restarts.
    snapshot_dir: Option<PathBuf>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry persisted under `dir`: existing `*.tds` snapshots are
    /// loaded at construction (schemas arrive with warm caches — no text
    /// re-parse, no re-derivation) and every subsequent PUT writes its
    /// snapshot back. Returns the registry and how many tenant schemas
    /// were restored. Unreadable or corrupt snapshot files fail loudly —
    /// silently dropping a tenant's state would be worse than refusing
    /// to start.
    pub fn with_snapshot_dir(dir: impl Into<PathBuf>) -> Result<(Registry, usize), String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create snapshot dir `{}`: {e}", dir.display()))?;
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read snapshot dir `{}`: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "tds"))
            .collect();
        files.sort();
        let registry = Registry {
            inner: RwLock::default(),
            snapshot_dir: Some(dir),
        };
        let mut loaded = 0;
        for path in files {
            let (schema, meta) = read_snapshot_file(&path)
                .map_err(|e| format!("snapshot `{}`: {e}", path.display()))?;
            let field = |key: &str| {
                meta.iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| {
                        format!("snapshot `{}`: missing `{key}` metadata", path.display())
                    })
            };
            let tenant = field("tenant")?;
            let name = field("name")?;
            let version: u64 = field("version")?
                .parse()
                .map_err(|_| format!("snapshot `{}`: bad version", path.display()))?;
            let text = field("text")?;
            let mut inner = registry.inner.write().unwrap_or_else(|e| e.into_inner());
            let schemas = inner.entry(tenant.clone()).or_default();
            // Staleness guard: two files can claim the same (tenant,
            // name) — e.g. a stray copy made before a later
            // re-registration. Keep whichever carries the higher
            // version, never whichever happens to sort last.
            if let Some(existing) = schemas.get(&name) {
                if existing.version >= version {
                    eprintln!(
                        "td-server: snapshot `{}` is stale for {tenant}/{name} \
                         (v{version} <= restored v{}), ignoring",
                        path.display(),
                        existing.version
                    );
                    continue;
                }
                eprintln!(
                    "td-server: snapshot `{}` supersedes {tenant}/{name} \
                     v{} with v{version}",
                    path.display(),
                    existing.version
                );
            }
            let superseded = schemas
                .insert(
                    name,
                    Arc::new(SchemaEntry {
                        version,
                        snapshot: schema.into_snapshot(),
                        text,
                    }),
                )
                .is_some();
            if !superseded {
                loaded += 1;
            }
        }
        Ok((registry, loaded))
    }

    /// Validates a tenant or schema name from a URL path segment.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
    }

    /// Parses and registers `text` under `(tenant, name)`. Replacing an
    /// existing name bumps its version, diffs the new schema against the
    /// replaced one, and — when the diff proves id stability — carries
    /// the warm cache entries the edit could not have touched into the
    /// new snapshot, so the first request after a small edit re-derives
    /// only the dirty portion. The outcome reports the diff, the carry
    /// tally, and both snapshots for watch-feed consumers.
    pub fn put(&self, tenant: &str, name: &str, text: &str) -> Result<PutOutcome, String> {
        let schema = parse_schema(text).map_err(|e| e.to_string())?;
        let snapshot = schema.into_snapshot();
        let previous = self.get(tenant, name);
        let mut diff = None;
        let mut carried = CarryReport::default();
        if let Some(prev) = &previous {
            let d = diff_schemas(prev.snapshot.schema(), snapshot.schema());
            carried = snapshot
                .schema()
                .carry_warm_from(prev.snapshot.schema(), &d);
            diff = Some(d);
        }
        let version;
        {
            let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            let schemas = inner.entry(tenant.to_string()).or_default();
            version = schemas.get(name).map(|e| e.version + 1).unwrap_or(1);
            schemas.insert(
                name.to_string(),
                Arc::new(SchemaEntry {
                    version,
                    snapshot: snapshot.clone(),
                    text: text.to_string(),
                }),
            );
        }
        if let Some(dir) = &self.snapshot_dir {
            // Persist with warm caches so a restarted server serves this
            // tenant's first request off the fast path. Tenant and name
            // are pre-validated to [A-Za-z0-9._-], so the filename is
            // filesystem-safe on every platform.
            snapshot.warm_caches();
            let meta = [
                ("tenant".to_string(), tenant.to_string()),
                ("name".to_string(), name.to_string()),
                ("version".to_string(), version.to_string()),
                ("text".to_string(), text.to_string()),
            ];
            let path = dir.join(format!("{tenant}__{name}.tds"));
            write_snapshot_file(&snapshot, &meta, &path)
                .map_err(|e| format!("cannot persist snapshot `{}`: {e}", path.display()))?;
        }
        Ok(PutOutcome {
            version,
            diff,
            carried,
            previous,
            snapshot,
        })
    }

    /// The entry registered under `(tenant, name)`, if any.
    pub fn get(&self, tenant: &str, name: &str) -> Option<Arc<SchemaEntry>> {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(tenant)?
            .get(name)
            .map(Arc::clone)
    }

    /// `(tenant, name, version)` rows for every registered schema, in
    /// sorted order — the `/v1/stats` inventory.
    pub fn inventory(&self) -> Vec<(String, String, u64)> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner
            .iter()
            .flat_map(|(tenant, schemas)| {
                schemas
                    .iter()
                    .map(move |(name, e)| (tenant.clone(), name.clone(), e.version))
            })
            .collect()
    }
}

/// Convenience for handlers: a parsed schema for a one-shot (cold)
/// request carrying inline `schema_text`.
pub fn parse_inline(text: &str) -> Result<Schema, String> {
    parse_schema(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG: &str = "type A { x: int  y: int }\n";

    #[test]
    fn put_parses_versions_and_isolates_tenants() {
        let r = Registry::new();
        let first = r.put("acme", "s", FIG).unwrap();
        assert_eq!(first.version, 1);
        assert!(first.diff.is_none() && first.previous.is_none());
        let second = r.put("acme", "s", FIG).unwrap();
        assert_eq!(second.version, 2);
        // Identical text: the diff exists and is empty.
        assert!(second.diff.as_ref().unwrap().is_empty());
        assert_eq!(second.previous.as_ref().unwrap().version, 1);
        // The same schema name in another tenant versions independently.
        assert_eq!(r.put("globex", "s", FIG).unwrap().version, 1);
        assert_eq!(r.get("acme", "s").unwrap().version, 2);
        assert_eq!(r.get("globex", "s").unwrap().version, 1);
        assert!(r.get("acme", "missing").is_none());
        assert!(r.get("missing", "s").is_none());
        assert_eq!(
            r.inventory(),
            vec![
                ("acme".to_string(), "s".to_string(), 2),
                ("globex".to_string(), "s".to_string(), 1),
            ]
        );
    }

    #[test]
    fn put_rejects_unparseable_text() {
        let r = Registry::new();
        let Err(e) = r.put("acme", "bad", "type { oops") else {
            panic!("malformed text must not register");
        };
        assert!(!e.is_empty());
        assert!(r.get("acme", "bad").is_none());
    }

    #[test]
    fn name_validation() {
        assert!(Registry::valid_name("acme-prod_v1.2"));
        assert!(!Registry::valid_name(""));
        assert!(!Registry::valid_name("a/b"));
        assert!(!Registry::valid_name("spaced name"));
        assert!(!Registry::valid_name(&"x".repeat(65)));
    }

    #[test]
    fn snapshot_dir_survives_a_restart_with_warm_caches() {
        let dir = std::env::temp_dir().join(format!("td_registry_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First server lifetime: register two tenants' schemas.
        {
            let (r, loaded) = Registry::with_snapshot_dir(&dir).unwrap();
            assert_eq!(loaded, 0);
            assert_eq!(r.put("acme", "s", FIG).unwrap().version, 1);
            assert_eq!(r.put("acme", "s", FIG).unwrap().version, 2);
            assert_eq!(
                r.put("globex", "t", "type B { z: int }\n").unwrap().version,
                1
            );
        }

        // "Restart": a fresh registry over the same directory.
        let (r, loaded) = Registry::with_snapshot_dir(&dir).unwrap();
        assert_eq!(loaded, 2, "one snapshot file per (tenant, schema)");
        let entry = r.get("acme", "s").unwrap();
        assert_eq!(entry.version, 2, "versions survive the restart");
        assert_eq!(entry.text, FIG, "GET still echoes the registered text");
        assert!(entry.snapshot.schema().type_id("A").is_ok());
        // The restored schema arrives with warm caches — no re-derivation.
        let stats = entry.snapshot.schema().dispatch_cache_stats();
        assert!(stats.cpl_entries > 0, "restored snapshot has cold caches");
        assert!(r.get("globex", "t").is_some());

        // A corrupt snapshot file fails the boot loudly instead of
        // silently dropping the tenant.
        std::fs::write(dir.join("evil__x.tds"), b"TDSNAP1\ngarbage").unwrap();
        let err = match Registry::with_snapshot_dir(&dir) {
            Err(e) => e,
            Ok(_) => panic!("corrupt snapshot file must fail the boot"),
        };
        assert!(err.contains("evil__x.tds"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replacing_a_schema_discards_the_old_snapshot() {
        let r = Registry::new();
        r.put("t", "s", FIG).unwrap();
        let old = r.get("t", "s").unwrap();
        let outcome = r.put("t", "s", "type B { z: int }\n").unwrap();
        let new = r.get("t", "s").unwrap();
        assert_eq!(new.version, 2);
        // The old Arc survives for in-flight requests but the registry
        // no longer hands it out.
        assert_eq!(old.version, 1);
        assert!(new.snapshot.schema().type_id("B").is_ok());
        assert!(new.snapshot.schema().type_id("A").is_err());
        // A wholesale replacement breaks id stability: nothing carries.
        assert!(!outcome.diff.as_ref().unwrap().ids_stable);
        assert_eq!(outcome.carried.total(), 0);
    }

    #[test]
    fn append_only_edit_carries_warm_entries_across_versions() {
        let r = Registry::new();
        let base = "type A { x: int }\ntype B : A { y: int }\naccessors x\n";
        r.put("t", "s", base).unwrap();
        // Warm the registered snapshot the way request traffic would.
        let entry = r.get("t", "s").unwrap();
        entry.snapshot.warm_caches();

        // Append-only edit: a new subtype with an accessor.
        let edited = format!("{base}type C : B {{ z: int }}\naccessors z\n");
        let outcome = r.put("t", "s", &edited).unwrap();
        let diff = outcome.diff.as_ref().unwrap();
        assert!(diff.ids_stable, "{diff:?}");
        assert_eq!(diff.summary(), "types +1; attrs +1; gfs +2; methods +2");
        assert!(
            outcome.carried.total() > 0,
            "warm entries must carry across an append-only PUT: {:?}",
            outcome.carried
        );
        // A and B answer from carried entries: no index rebuild misses.
        let new = r.get("t", "s").unwrap();
        let before = new.snapshot.schema().dispatch_cache_stats();
        let a = new.snapshot.schema().type_id("A").unwrap();
        new.snapshot.cached_applicability_index(a).unwrap();
        let after = new.snapshot.schema().dispatch_cache_stats();
        assert_eq!(after.index_misses, before.index_misses);
    }

    #[test]
    fn snapshot_dir_restore_prefers_the_newer_version_on_duplicates() {
        let dir = std::env::temp_dir().join(format!("td_registry_stale_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (r, _) = Registry::with_snapshot_dir(&dir).unwrap();
            r.put("acme", "s", FIG).unwrap();
            // Simulate a stale stray copy left behind before a later
            // re-registration: duplicate the v1 file under another name,
            // then re-register so the canonical file holds v2.
            std::fs::copy(dir.join("acme__s.tds"), dir.join("acme__s.stale.tds")).unwrap();
            r.put("acme", "s", "type A { x: int  y: int  w: int }\n")
                .unwrap();
        }
        // The stale copy sorts BEFORE the canonical file; restore must
        // still surface v2. A reversed-sort duplicate (sorting after)
        // must be ignored, not clobber v2.
        let (r, loaded) = Registry::with_snapshot_dir(&dir).unwrap();
        assert_eq!(loaded, 1, "duplicates must not double-count");
        assert_eq!(r.get("acme", "s").unwrap().version, 2);
        assert!(r.get("acme", "s").unwrap().text.contains('w'));

        std::fs::copy(dir.join("acme__s.stale.tds"), dir.join("acme__s.zz.tds")).unwrap();
        let (r, loaded) = Registry::with_snapshot_dir(&dir).unwrap();
        assert_eq!(loaded, 1);
        assert_eq!(
            r.get("acme", "s").unwrap().version,
            2,
            "a stale file sorting last must not shadow the newer version"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
