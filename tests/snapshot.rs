//! Binary snapshot robustness and compatibility.
//!
//! Two contracts are enforced here:
//!
//! 1. **Corruption safety** — a truncated, bit-flipped, wrongly-typed or
//!    future-versioned snapshot file produces a structured
//!    [`SnapshotError`], never a panic and never a silently-wrong schema.
//!    The flip/truncate sweeps are deliberately exhaustive over a small
//!    snapshot: every single-byte mutation and every prefix length.
//!
//! 2. **Cross-version compatibility** — the committed golden fixture
//!    `tests/fixtures/fig3_v1.tds` (written by the first format-v1
//!    build) must stay loadable by every later build, and the schema it
//!    reconstructs must derive byte-identically to the text-parsed
//!    `examples/schemas/fig3.td`. CI fails the build if this test breaks
//!    or if `SNAPSHOT_VERSION` bumps without a CHANGES.md note.

use std::path::PathBuf;
use typederive::model::{
    load_snapshot, parse_schema, read_snapshot_file, save_snapshot, snapshot_info, SnapshotError,
    SNAPSHOT_VERSION,
};

fn manifest_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// A small schema with warm caches, snapshot-encoded.
fn sample_bytes() -> Vec<u8> {
    let schema = typederive::workload::fig3();
    schema.warm_caches();
    save_snapshot(&schema, &[("origin".into(), "tests/snapshot.rs".into())])
}

/// FNV-1a 64, re-implemented here so tests can forge valid trailers for
/// targeted section corruption.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Rewrites the trailing whole-file checksum so tampered bytes pass the
/// outer integrity gate and exercise the inner per-section checks.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body_end = bytes.len() - 8;
    let trailer = fnv1a(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&trailer.to_le_bytes());
    bytes
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[0] ^= 0xFF;
    assert_eq!(load_snapshot(&bytes).unwrap_err(), SnapshotError::BadMagic);

    // A different file format entirely (text) is also just BadMagic.
    let text = b"type Person { SSN: int }\n".to_vec();
    assert_eq!(load_snapshot(&text).unwrap_err(), SnapshotError::BadMagic);
}

#[test]
fn future_version_is_rejected_with_both_versions_named() {
    let mut bytes = sample_bytes();
    let future = (SNAPSHOT_VERSION + 7).to_le_bytes();
    bytes[8..12].copy_from_slice(&future);
    let bytes = reseal(bytes);
    match load_snapshot(&bytes).unwrap_err() {
        SnapshotError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, SNAPSHOT_VERSION + 7);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn every_truncation_is_a_structured_error() {
    let bytes = sample_bytes();
    for len in 0..bytes.len() {
        let err = load_snapshot(&bytes[..len])
            .expect_err("a strict prefix must never load as a valid snapshot");
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::Corrupt(_)
            ),
            "prefix of {len} bytes gave unexpected error {err:?}"
        );
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    let bytes = sample_bytes();
    for i in 0..bytes.len() {
        let mut tampered = bytes.clone();
        tampered[i] ^= 0x01;
        assert!(
            load_snapshot(&tampered).is_err(),
            "flipping byte {i} went undetected"
        );
    }
}

#[test]
fn resealed_section_corruption_hits_the_section_checksum() {
    let bytes = sample_bytes();
    // Flip a byte deep in the payload area (past the header + section
    // table), then forge a valid trailer: the per-section checksum is
    // now the only line of defense, and it must name the section.
    let mut tampered = bytes.clone();
    let target = bytes.len() - 100;
    tampered[target] ^= 0xFF;
    let tampered = reseal(tampered);
    match load_snapshot(&tampered).unwrap_err() {
        SnapshotError::ChecksumMismatch { section } => {
            assert_ne!(section, "trailer", "the forged trailer passed");
        }
        other => panic!("expected a section ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn corruption_errors_render_readable_messages() {
    let mut bytes = sample_bytes();
    bytes[0] ^= 0xFF;
    let msg = load_snapshot(&bytes).unwrap_err().to_string();
    assert!(msg.contains("bad magic"), "{msg}");
    let msg = load_snapshot(&sample_bytes()[..40])
        .unwrap_err()
        .to_string();
    assert!(!msg.is_empty());
}

#[test]
fn golden_v1_fixture_still_loads() {
    let (mut schema, meta) = read_snapshot_file(manifest_path("tests/fixtures/fig3_v1.tds"))
        .expect("the committed v1 fixture must stay loadable by every future reader");
    assert!(
        meta.iter().any(|(k, _)| k == "source"),
        "fixture metadata lost: {meta:?}"
    );
    // The caches must arrive warm — that is the point of the format.
    let stats = schema.dispatch_cache_stats();
    assert!(stats.cpl_entries > 0, "fixture loaded with cold CPL cache");
    assert!(stats.index_entries > 0, "fixture loaded with cold indexes");
    assert_eq!(schema.type_id("A").unwrap(), schema.type_id("A").unwrap());

    // Byte-identical derivation vs the text-parsed path.
    let text = std::fs::read_to_string(manifest_path("examples/schemas/fig3.td")).unwrap();
    let mut from_text = parse_schema(&text).unwrap();
    assert_eq!(schema.render_hierarchy(), from_text.render_hierarchy());
    assert_eq!(schema.render_methods(), from_text.render_methods());
    let opts = typederive::derive::ProjectionOptions::default();
    let view = typederive::workload::figures::FIG4_PROJECTION;
    let d1 = typederive::derive::project_named(&mut schema, "A", view, &opts).unwrap();
    let d2 = typederive::derive::project_named(&mut from_text, "A", view, &opts).unwrap();
    assert_eq!(
        typederive::server::derivation_json(&schema, &d1),
        typederive::server::derivation_json(&from_text, &d2),
        "snapshot-loaded and text-parsed derivations diverged"
    );
}

#[test]
fn fixture_inspect_reports_current_version() {
    let bytes = std::fs::read(manifest_path("tests/fixtures/fig3_v1.tds")).unwrap();
    let info = snapshot_info(&bytes).unwrap();
    // When SNAPSHOT_VERSION bumps, regenerate the fixture AND keep this
    // one loadable (add a v2 fixture alongside, don't replace) — see the
    // CI cross-version guard.
    assert_eq!(info.version, 1);
    assert!(info.sections.len() >= 10, "{:?}", info.sections);
}

#[test]
fn roundtrip_through_disk_is_lossless() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("td_snapshot_test_{}.tds", std::process::id()));
    let schema = typederive::workload::fig3();
    schema.warm_caches();
    typederive::model::write_snapshot_file(&schema, &[], &path).unwrap();
    let (loaded, meta) = read_snapshot_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(meta.is_empty());
    assert_eq!(loaded.render_hierarchy(), schema.render_hierarchy());
    assert_eq!(
        loaded.dispatch_cache_stats().index_entries,
        schema.dispatch_cache_stats().index_entries
    );
}

/// Rewrites the supertype target of the last type in a snapshot's types
/// section, then reseals that section's checksum and the trailer, so only
/// the decoder's own checks stand between the edit and a loaded schema.
/// The last 8 bytes of the types payload are the last type's final super
/// link (target `u32`, precedence `i32`).
fn with_last_super_target(mut bytes: Vec<u8>, target: u32) -> Vec<u8> {
    let word = |b: &[u8], at: usize, n: usize| {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&b[at..at + n]);
        u64::from_le_bytes(le) as usize
    };
    let n_sections = word(&bytes, 12, 4);
    for row in (0..n_sections).map(|i| 16 + i * 28) {
        if word(&bytes, row, 4) != 3 {
            continue; // not the types section
        }
        let (offset, len) = (word(&bytes, row + 4, 8), word(&bytes, row + 12, 8));
        let end = offset + len;
        bytes[end - 8..end - 4].copy_from_slice(&target.to_le_bytes());
        let checksum = fnv1a(&bytes[offset..end]);
        bytes[row + 20..row + 28].copy_from_slice(&checksum.to_le_bytes());
    }
    reseal(bytes)
}

#[test]
fn resealed_out_of_range_ids_and_cycles_are_corrupt() {
    let schema = parse_schema("type A { x: int }\ntype B : A { y: int }\n").unwrap();
    schema.warm_caches();
    let bytes = save_snapshot(&schema, &[]);
    assert!(load_snapshot(&with_last_super_target(bytes.clone(), 0)).is_ok());
    // B's supertype rewritten to a type id past the arena, then to B
    // itself: both pass every checksum and must still be refused.
    for (target, what) in [(99, "out-of-range supertype"), (1, "self-loop")] {
        let tampered = with_last_super_target(bytes.clone(), target);
        match load_snapshot(&tampered) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!(
                "{what}: expected Corrupt, got {:?}",
                other.map(|_| "a schema")
            ),
        }
        assert!(snapshot_info(&tampered).is_err(), "{what}");
    }
}

/// The byte offsets of every type id in a snapshot's ranks section (each
/// table's key and each `(type, rank)` entry's type), with the section's
/// row in the section table.
fn rank_type_id_offsets(bytes: &[u8]) -> (usize, Vec<usize>) {
    let word = |at: usize, n: usize| {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&bytes[at..at + n]);
        u64::from_le_bytes(le) as usize
    };
    let row = (0..word(12, 4))
        .map(|i| 16 + i * 28)
        .find(|&row| word(row, 4) == 8)
        .expect("a ranks section");
    let mut at = word(row + 4, 8);
    let mut offsets = Vec::new();
    let tables = word(at, 4);
    at += 4;
    for _ in 0..tables {
        offsets.push(at);
        let len = word(at + 4, 4);
        at += 8;
        for _ in 0..len {
            offsets.push(at);
            at += 8;
        }
    }
    (row, offsets)
}

#[test]
fn a_resealed_rank_table_errs_instead_of_panicking() {
    use typederive::model::{CallArg, Schema};
    let bytes = sample_bytes();
    let (row, offsets) = rank_type_id_offsets(&bytes);
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize;
    let (start, len) = (word(&bytes, row + 4), word(&bytes, row + 12));
    let opts = typederive::derive::ProjectionOptions::default();
    let view = typederive::workload::figures::FIG4_PROJECTION;
    // Every single-argument dispatch of the loaded schema; true if any
    // of them is an error.
    let dispatch_errs = |schema: &Schema| {
        let types: Vec<_> = schema.live_type_ids().collect();
        schema
            .gf_ids()
            .filter(|&g| schema.gf(g).arity == 1)
            .any(|g| {
                (types.iter()).any(|&t| schema.rank_applicable(g, &[CallArg::Object(t)]).is_err())
            })
    };
    let mut errs = 0;
    for at in offsets {
        // Rewrite one type id to 0, reseal the section and the trailer.
        let mut tampered = bytes.clone();
        tampered[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        let checksum = fnv1a(&tampered[start..start + len]);
        tampered[row + 20..row + 28].copy_from_slice(&checksum.to_le_bytes());
        let Ok((mut schema, _)) = load_snapshot(&reseal(tampered)) else {
            continue;
        };
        // A derivation reports a failed dispatch as an I5 violation.
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let failed = dispatch_errs(&schema);
            let _ = typederive::derive::project_named(&mut schema, "A", view, &opts);
            failed
        }))
        .unwrap_or_else(|_| panic!("rank type id at byte {at} rewritten to 0 panicked"));
        errs += usize::from(failed);
    }
    assert!(errs > 0, "no rewritten rank table made dispatch fail");
}
