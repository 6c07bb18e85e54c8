//! Criterion: per-operation costs of the serving tier, network excluded —
//! wire-protocol encode/decode, sharded-store routing overhead vs the
//! unsharded frozen store, and the full store→wire answer path.
//!
//! (End-to-end TCP throughput/latency including sockets is `adsbench`'s
//! `serve_direct` / `serve_v2` / `serve_fleet` workloads.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adsketch_core::{freeze_sharded, AdsSet, QueryEngine};
use adsketch_graph::{generators, NodeId};
use adsketch_serve::proto::{write_frame, Request, Response};
use adsketch_serve::ShardedStore;

fn bench_serve_ops(c: &mut Criterion) {
    let n = 5_000usize;
    let g = generators::barabasi_albert(n, 4, 11);
    let ads = AdsSet::build(&g, 16, 5);
    let frozen = ads.freeze();
    let dir = std::env::temp_dir().join("adsketch_bench_serve_ops");
    let _ = std::fs::remove_dir_all(&dir);
    freeze_sharded(&ads, 4, &dir).expect("freeze_sharded");
    let store = ShardedStore::load(&dir).expect("load sharded store");

    let nodes: Vec<NodeId> = (0..256u32).map(|i| (i * 19) % n as NodeId).collect();
    let req = Request::Harmonic {
        nodes: nodes.clone(),
    };

    // Wire codec, no sockets.
    let mut codec = c.benchmark_group("serve_codec");
    codec.bench_function("request_encode_256", |b| b.iter(|| black_box(req.encode())));
    let body = req.encode();
    codec.bench_function("request_decode_256", |b| {
        b.iter(|| black_box(Request::decode(black_box(&body)).unwrap()))
    });
    let answers = QueryEngine::with_threads(&frozen, 1).harmonic_batch(&nodes);
    let resp = Response::Floats(answers);
    let resp_body = resp.encode();
    codec.bench_function("response_roundtrip_256", |b| {
        b.iter(|| {
            let mut framed = Vec::with_capacity(resp_body.len() + 4);
            write_frame(&mut framed, &resp_body).unwrap();
            black_box(Response::decode(&framed[4..]).unwrap())
        })
    });
    codec.finish();

    // Routing overhead: the identical batch against the unsharded store
    // and through the sharded store's per-node shard dispatch.
    let mut routing = c.benchmark_group("serve_routing");
    routing.bench_function("harmonic_batch_256_unsharded", |b| {
        let engine = QueryEngine::with_threads(&frozen, 1);
        b.iter(|| black_box(engine.harmonic_batch(black_box(&nodes))))
    });
    routing.bench_function("harmonic_batch_256_sharded4", |b| {
        let engine = store.engine(1);
        b.iter(|| black_box(engine.harmonic_batch(black_box(&nodes))))
    });
    routing.bench_function("answer_path_decode_eval_encode", |b| {
        // What one server worker does per frame: decode, evaluate over
        // the sharded store, encode.
        let engine = store.engine(1);
        b.iter(|| {
            let Request::Harmonic { nodes } = Request::decode(black_box(&body)).unwrap() else {
                unreachable!()
            };
            black_box(Response::Floats(engine.harmonic_batch(&nodes)).encode())
        })
    });
    routing.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_serve_ops);
criterion_main!(benches);
