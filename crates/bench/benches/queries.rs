//! Criterion: query-time cost of HIP vs basic estimators on a built ADS
//! set (queries are sketch-local: O(k log n) work, no graph access), and
//! batch throughput of the columnar store, per node and through the batch
//! engine.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adsketch_core::{basic, centrality, reference, AdsSet, QueryEngine};
use adsketch_graph::{generators, NodeId};

fn bench_queries(c: &mut Criterion) {
    let n = 5_000;
    let g = generators::barabasi_albert(n, 4, 11);
    let ads = AdsSet::build(&g, 16, 5);
    let row = ads.row(0);
    let hip = row.hip();

    let mut group = c.benchmark_group("queries");
    group.bench_function("hip_weights_derive", |b| {
        b.iter(|| black_box(reference::hip_weights(row.k, row.entries())))
    });
    group.bench_function("hip_cardinality_at", |b| {
        b.iter(|| black_box(hip.cardinality_at(black_box(3.0))))
    });
    group.bench_function("basic_cardinality_at", |b| {
        b.iter(|| black_box(basic::cardinality_at(row, black_box(3.0))))
    });
    group.bench_function("harmonic_centrality", |b| {
        b.iter(|| black_box(centrality::harmonic(hip)))
    });
    group.bench_function("qg_filtered", |b| {
        b.iter(|| {
            black_box(hip.centrality(|d| if d <= 2.0 { 1.0 } else { 0.0 }, |v| (v % 2) as f64))
        })
    });
    group.bench_function("size_estimator", |b| {
        b.iter(|| black_box(adsketch_core::size_est::cardinality_at(row, 3.0)))
    });
    group.finish();

    // Batch throughput: the whole-graph closeness sweep, one row at a
    // time vs the batch engine (`adsbench`'s
    // `core.engine.harmonic_all_s` sweep at criterion scale).
    let frozen = &ads;
    let mut batch = c.benchmark_group("batch_queries");
    batch.bench_function("per_node_hip_harmonic_all", |b| {
        b.iter(|| {
            let out: Vec<f64> = (0..n as NodeId)
                .map(|v| centrality::harmonic(ads.hip(v)))
                .collect();
            black_box(out)
        })
    });
    batch.bench_function("frozen_engine_harmonic_all", |b| {
        b.iter(|| black_box(QueryEngine::with_threads(frozen, 1).harmonic_all()))
    });
    batch.bench_function("frozen_engine_harmonic_all_allcores", |b| {
        b.iter(|| black_box(QueryEngine::new(frozen).harmonic_all()))
    });
    let queries: Vec<(NodeId, f64)> = (0..n as NodeId).map(|v| (v, 3.0)).collect();
    batch.bench_function("frozen_engine_cardinality_batch", |b| {
        b.iter(|| black_box(QueryEngine::with_threads(frozen, 1).cardinality_batch(&queries)))
    });
    batch.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
