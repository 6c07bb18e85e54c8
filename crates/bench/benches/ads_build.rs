//! Criterion: ADS construction cost per algorithm (paper, Section 3 —
//! both are O(km log n); constants differ).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use adsketch_core::builder::{dp, local_updates, pruned_dijkstra};
use adsketch_core::uniform_ranks;
use adsketch_graph::generators;

fn bench_builders(c: &mut Criterion) {
    let mut group = c.benchmark_group("ads_build");
    group.sample_size(10);
    for &n in &[500usize, 2_000] {
        let g = generators::barabasi_albert(n, 4, 7);
        let ranks = uniform_ranks(n, 3);
        let k = 16;
        group.bench_with_input(BenchmarkId::new("pruned_dijkstra", n), &n, |b, _| {
            b.iter(|| pruned_dijkstra::build_with_stats(&g, k, &ranks).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("dp", n), &n, |b, _| {
            b.iter(|| dp::build_with_stats(&g, k, &ranks).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("local_updates", n), &n, |b, _| {
            b.iter(|| local_updates::build_with_stats(&g, k, &ranks, 0.0).unwrap())
        });
    }
    // Weighted graph: DP does not apply.
    let gw = generators::random_weighted_digraph(1_000, 6, 0.5, 2.5, 9);
    let ranks = uniform_ranks(1_000, 4);
    group.bench_function("pruned_dijkstra/weighted_1000", |b| {
        b.iter(|| pruned_dijkstra::build_with_stats(&gw, 16, &ranks).unwrap())
    });
    group.bench_function("local_updates/weighted_1000", |b| {
        b.iter(|| local_updates::build_with_stats(&gw, 16, &ranks, 0.0).unwrap())
    });
    group.bench_function("local_updates/weighted_1000_eps0.2", |b| {
        b.iter(|| local_updates::build_with_stats(&gw, 16, &ranks, 0.2).unwrap())
    });
    group.finish();
}

/// Unweighted-vs-weighted × thread-count matrix for the wave-parallel
/// PrunedDijkstra (full-size build timings are `adsbench`'s
/// `core.builder.build_s` / `.build_parallel_s`).
fn bench_parallel_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("ads_build_parallel");
    group.sample_size(10);
    let n = 2_000usize;
    let k = 16;
    let cases = [
        ("unweighted", generators::barabasi_albert(n, 4, 7)),
        (
            "weighted",
            generators::random_weighted_digraph(n, 4, 0.5, 2.5, 9),
        ),
    ];
    let ranks = uniform_ranks(n, 3);
    for (regime, g) in &cases {
        group.bench_with_input(BenchmarkId::new("pruned_seq", regime), g, |b, g| {
            b.iter(|| pruned_dijkstra::build_with_stats(g, k, &ranks).unwrap())
        });
        // threads = 0 ⇒ all cores.
        for threads in [1usize, 2, 4, 0] {
            let id = BenchmarkId::new(format!("parallel_{regime}"), format!("t{threads}"));
            group.bench_with_input(id, g, |b, g| {
                b.iter(|| {
                    pruned_dijkstra::build_parallel_with_stats(g, k, &ranks, threads).unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(parallel_matrix, bench_parallel_matrix);

criterion_group!(benches, bench_builders);
criterion_main!(benches, parallel_matrix);
