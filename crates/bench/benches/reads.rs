//! Experiment READS: what one read of a registered schema costs as the
//! schema grows.
//!
//! A registered schema answers `lint` and `explain` on one shared
//! snapshot whose caches stay warm, so what a read pays is the work its
//! own request does. §4 classifies only the methods applicable to the
//! source and §6.4's `X` lies on the source's supertype paths, so that
//! work should not grow with the types and methods beside the source.
//! This group times two reads on `wide_schema(2000)` and
//! `wide_schema(16000)`. With one seed the 16k schema begins with the 2k
//! one (same names, same ids), so both sizes answer the same requests,
//! over the 2k schema's types, and the 16k/2k ratio of each read is
//! what the rest of the schema costs it:
//!
//! * `lint_request_part/{n}`: a cold lint request part, with the
//!   source's condensation index and the schema-wide part warm. The
//!   requests cycle through more distinct views than the report map
//!   keeps (1024), so each `lint` misses its request part and stores it.
//! * `explain_warm/{n}`: `explain` of the method of the source's own
//!   cluster that reads its attributes (`wf{c}_m`, as `serve-wide-edit`
//!   asks), with the index warm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::{BTreeSet, HashSet};
use std::hint::black_box;
use td_core::{explain, lint};
use td_model::{AttrId, MethodId, Schema, TypeId};
use td_workload::{batch_requests, wide_schema};

const SIZES: [usize; 2] = [2000, 16000];
const SEED: u64 = 0x5EED;

/// Distinct `(source, projection)` views of the 2k schema, by name,
/// more than the lint report map keeps.
fn distinct_views() -> Vec<(String, Vec<String>)> {
    let s = wide_schema(SIZES[0], SEED);
    let mut seen = HashSet::new();
    let views: Vec<_> = batch_requests(&s, 1500, 0.5, SEED)
        .into_iter()
        .filter(|(t, p)| !p.is_empty() && seen.insert((*t, p.clone())))
        .map(|(t, p)| {
            let attrs = p.iter().map(|&a| s.attr_name(a).to_string()).collect();
            (s.type_name(t).to_string(), attrs)
        })
        .collect();
    assert!(views.len() > 1100, "{} distinct views", views.len());
    views
}

/// A view by name, resolved in `s`.
fn resolve(s: &Schema, (ty, attrs): &(String, Vec<String>)) -> (TypeId, BTreeSet<AttrId>) {
    let source = s.type_id(ty).expect("the 2k schema's types");
    let projection = attrs.iter().map(|a| s.attr_id(a).expect("attr")).collect();
    (source, projection)
}

/// The method `serve-wide-edit` explains for a view over `source`.
fn cluster_method(s: &Schema, source: TypeId) -> MethodId {
    let i: usize = s.type_name(source)[1..].parse().expect("wide type name");
    s.method_by_label(&format!("wf{}_m", i / 8))
        .expect("every cluster has its wf method")
}

fn bench_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("reads");
    let named = distinct_views();
    for n in SIZES {
        let s = wide_schema(n, SEED);
        let views: Vec<_> = named.iter().map(|v| resolve(&s, v)).collect();
        // One pass warms every index, dispatch table and the schema-wide
        // part; a request part is dropped again before its view recurs.
        for (t, p) in &views {
            lint(&s, Some((*t, p)));
        }
        let mut next = 0;
        group.bench_function(BenchmarkId::new("lint_request_part", n), |b| {
            b.iter(|| {
                let (t, p) = &views[next % views.len()];
                next += 1;
                black_box(lint(&s, Some((*t, p))))
            })
        });

        let asks: Vec<_> = views
            .iter()
            .take(64)
            .map(|(t, p)| (*t, p, cluster_method(&s, *t)))
            .collect();
        for &(t, p, m) in &asks {
            explain(&s, t, p, m).expect("wide views explain");
        }
        let mut next = 0;
        group.bench_function(BenchmarkId::new("explain_warm", n), |b| {
            b.iter(|| {
                let (t, p, m) = asks[next % asks.len()];
                next += 1;
                black_box(explain(&s, t, p, m))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reads);
criterion_main!(benches);
