//! The offline workloads: the analyst's job, all in process. Build →
//! freeze → save → map → sweep; the serve and ingest tiers do nothing.

use std::sync::Arc;
use std::time::Instant;

use adsketch::core::builder::pruned_dijkstra;
use adsketch::core::{
    freeze_sharded_format, uniform_ranks, AdsSet, FrozenAdsSet, LoadOptions, QueryEngine,
    StoreFormat,
};
use adsketch::graph::NodeId;
use adsketch::util::stats::cv_hip;

use crate::answerers::InProcess;
use crate::ladder::{self, ONCE, STEADY};
use crate::loadgen::{closed_loop, Answered};
use crate::run::{bits_eq, med, Passes, Run};
use crate::workload::{Batch, BatchGen, Oracle, Popularity, K};

/// Runs an offline workload.
pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    let (p, inputs) = (run.p, run.inputs);
    let path = run.scratch.join("store.v1.ads");
    let mut passes = Passes::default();
    let (mut freeze_s, mut save_s, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut oracle: Option<Oracle> = None;
    let mut kept = None;
    for pass in 0..p.passes {
        // Two sketch sets alive at once would double the peak RSS.
        drop(kept.take());
        let span = run.tracer.begin("phase.pass");
        let t0 = Instant::now();
        let ads = passes.build(run);
        let t1 = Instant::now();
        let (frozen, f) = run.tracer.time("core.frozen.freeze", || ads.freeze());
        let (saved, s) = run.tracer.time("core.frozen.save", || frozen.save(&path));
        saved.map_err(|e| format!("save {}: {e}", path.display()))?;
        let (loaded, l) = run.tracer.time("core.frozen.load_mapped", || {
            FrozenAdsSet::load_with(&path, LoadOptions::mapped())
        });
        let loaded = loaded.map_err(|e| format!("load: {e}"))?;
        let fresh = t1.elapsed().as_secs_f64();
        let (first_sweep, sweep_s) = run.tracer.time("core.engine.harmonic_all", || {
            QueryEngine::with_threads(&loaded, 1).harmonic_all()
        });
        passes.pipeline_s.push(t0.elapsed().as_secs_f64());
        run.tracer.end(span);
        passes.fresh_ms.push(fresh * 1e3);
        passes.cold_ms.push((l + sweep_s) * 1e3);
        freeze_s.push(f);
        save_s.push(s);
        load_ms.push(l * 1e3);

        // The oracle answers from the in-memory store (every pass is
        // bitwise equal, so the first pass's serves them all); the timed
        // path answers from the store that went through the file.
        if oracle.is_none() {
            let fresh_oracle = Oracle::new(&frozen, &p.distances);
            gate_accuracy(run, &fresh_oracle);
            oracle = Some(fresh_oracle);
        }
        let oracle = oracle.as_ref().expect("set on the first pass");
        run.report.op(bits_eq(&first_sweep, &oracle.harmonic), || {
            "first sweep of the mapped store differs from the in-memory store".into()
        });

        // This pass's slice of the full pass an analyst runs: 64-node
        // batches in id order from one caller, harmonic then cardinality
        // for every node.
        let check = |b: &Batch, a: &Answered| oracle.matches(b, &a.floats);
        let make = |_conn| {
            Ok((
                InProcess::new(&loaded, p.distances),
                BatchGen::sweep(p, inputs.traffic_seed ^ pass as u64),
            ))
        };
        let dur = run.slice_of(p.closed_share);
        let sweep = closed_loop(run.loop_ctx(dur), &make, &check);
        passes.closed(run, "in-process sweep", &sweep);
        kept = Some((ads, frozen, loaded));
    }
    let n = p.passes as u64;
    passes.finish(run);
    run.report
        .set("core.frozen.freeze_s", med(&mut freeze_s).0, n);
    run.report.set("core.frozen.save_s", med(&mut save_s).0, n);
    run.report
        .set("core.frozen.load_mapped_ms", med(&mut load_ms).0, n);

    let (ads, frozen, loaded) = kept.expect("a pass ran");
    let oracle = oracle.expect("a pass ran");
    let entries = frozen.num_entries() as f64;
    let (v2, v2_encode_s) = run.tracer.time("core.frozen.v2.encode", || {
        frozen.to_bytes_format(StoreFormat::V2)
    });
    run.report
        .set("store_bytes_per_entry", v2.len() as f64 / entries, 1);
    run.report.set(
        "core.frozen.v2.bytes_per_entry",
        v2.len() as f64 / entries,
        1,
    );
    run.report.set("core.frozen.v2.encode_s", v2_encode_s, 1);

    if run.trace {
        let check = |b: &Batch, a: &Answered| oracle.matches(b, &a.floats);
        let make = |_conn| {
            Ok((
                InProcess::new(&loaded, p.distances),
                BatchGen::sweep(p, inputs.traffic_seed),
            ))
        };
        run.trace_overhead(&make, &check);
        let popularity = Arc::new(Popularity::new(p.nodes(), p.zipf_s));
        let batches = ladder::batches(run, &popularity);
        let mut rung0 = InProcess::new(&loaded, p.distances);
        ladder::replay(
            run,
            "core.engine.batch_us",
            &mut rung0,
            &batches,
            STEADY,
            &check,
        );
        layer_probes(run, &ads, &frozen, &loaded, &v2)?;
    }
    Ok(())
}

/// Sets `hip_nrmse` and gates it on the paper's bound: the HIP estimate's
/// CV is at most `1/√(2(k−1))`, and the measured error over a few
/// thousand readings may exceed that by sampling noise only.
pub fn gate_accuracy(run: &mut Run<'_>, oracle: &Oracle) {
    let truth = &run.inputs.truth;
    let nrmse = oracle.hip_nrmse(truth);
    run.report.set("hip_nrmse", nrmse, truth.len() as u64);
    run.report
        .op(!truth.is_empty() && nrmse <= 1.5 * cv_hip(K), || {
            format!(
                "hip_nrmse {nrmse:.4} over {} readings exceeds 1.5 × cv_hip({K}) = {:.4}",
                truth.len(),
                1.5 * cv_hip(K)
            )
        });
}

/// Times the public functions of `core.builder`, `core.frozen` and
/// `core.engine` that the untraced path does not already time.
fn layer_probes(
    run: &mut Run<'_>,
    ads: &AdsSet,
    frozen: &FrozenAdsSet,
    mapped: &FrozenAdsSet,
    v2: &[u8],
) -> Result<(), String> {
    let (p, inputs) = (run.p, run.inputs);
    let graph = &inputs.graph;
    let n = graph.num_nodes();
    let entries = frozen.num_entries() as f64;
    let io = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

    // core.builder: work counts of the sequential build, and the
    // wave-parallel build on every core.
    let ranks = uniform_ranks(n, inputs.rank_seed);
    let (counted, _) = run.tracer.time("core.builder.build_with_stats", || {
        pruned_dijkstra::build_with_stats(graph, K, &ranks)
    });
    let (counted_set, stats) = counted.map_err(|e| io("build_with_stats", &e))?;
    run.report.op(&counted_set == ads, || {
        "build_with_stats differs from AdsSet::build".into()
    });
    drop(counted_set);
    for (name, count) in [
        ("core.builder.relaxations", stats.relaxations),
        ("core.builder.heap_pushes", stats.heap_pushes),
        ("core.builder.pruned_at_relax", stats.pruned_at_relax),
        ("core.builder.insertions", stats.insertions),
    ] {
        run.report.set(name, count as f64, 1);
    }
    run.report
        .set("core.builder.entries_per_node", entries / n as f64, 1);
    run.report.set(
        "core.builder.useful_ratio",
        entries / stats.relaxations.max(1) as f64,
        1,
    );
    let (parallel, parallel_s) = run.tracer.time("core.builder.build_parallel", || {
        AdsSet::build_parallel(graph, K, inputs.rank_seed, 0)
    });
    run.report.op(&parallel == ads, || {
        "build_parallel differs from AdsSet::build".into()
    });
    drop(parallel);
    run.report
        .set("core.builder.build_parallel_s", parallel_s, 1);

    // core.frozen: both encoders, the shard writer, every loader.
    let (v1, v1_encode_s) = run
        .tracer
        .time("core.frozen.v1.encode", || frozen.to_bytes());
    run.report.set("core.frozen.v1.encode_s", v1_encode_s, 1);
    run.report.set(
        "core.frozen.v1.bytes_per_entry",
        v1.len() as f64 / entries,
        1,
    );
    drop(v1);
    let shard_dir = run.scratch.join("probe-shards");
    let (written, shard_write_s) = run.tracer.time("core.frozen.shard_write", || {
        freeze_sharded_format(ads, 1, &shard_dir, StoreFormat::V1)
    });
    written.map_err(|e| io("freeze_sharded_format", &e))?;
    run.report
        .set("core.frozen.shard_write_s", shard_write_s, 1);
    let v1_path = run.scratch.join("store.v1.ads");
    let v2_path = run.scratch.join("store.v2.ads");
    std::fs::write(&v2_path, v2).map_err(|e| io("write v2 store", &e))?;
    let mut load = |metric: &'static str, path: &std::path::Path, opts: LoadOptions| {
        let (loaded, s) = run
            .tracer
            .time(metric, || FrozenAdsSet::load_with(path, opts));
        run.report.set(metric, s * 1e3, 1);
        loaded.map_err(|e| io(metric, &e))
    };
    load("core.frozen.load_copy_ms", &v1_path, LoadOptions::default())?;
    load(
        "core.frozen.load_trusted_ms",
        &v1_path,
        LoadOptions::trusted(),
    )?;
    let v2_mapped = load(
        "core.frozen.v2.load_mapped_ms",
        &v2_path,
        LoadOptions::mapped(),
    )?;

    // core.engine: full sweeps per request type on the mapped v1 store,
    // then the lazy v2 store swept in order (decode amortised over each
    // block's rows) and probed at random (one decode per few rows).
    let engine = QueryEngine::with_threads(mapped, 1);
    let all: Vec<NodeId> = (0..n as NodeId).collect();
    let card_all: Vec<(NodeId, f64)> = all.iter().map(|&v| (v, p.distances[2])).collect();
    let mut rounds = Vec::new();
    let (mut harmonic_s, mut card_s) = (Vec::new(), Vec::new());
    for _ in 0..30 {
        let (h, hs) = run
            .tracer
            .time("core.engine.harmonic_all", || engine.harmonic_all());
        let (c, cs) = run.tracer.time("core.engine.cardinality_batch", || {
            engine.cardinality_batch(&card_all)
        });
        std::hint::black_box((h, c));
        harmonic_s.push(hs);
        card_s.push(cs);
        rounds.push(2.0 * n as f64 / (hs + cs));
    }
    // Rounds 1–5 still fault pages in and warm the caches.
    run.report
        .set("core.engine.sweep_nodes_per_s", med(&mut rounds[5..]).0, 25);
    run.report.set(
        "core.engine.harmonic_all_s",
        med(&mut harmonic_s[5..]).0,
        25,
    );
    run.report
        .set("core.engine.cardinality_all_s", med(&mut card_s[5..]).0, 25);
    let (nf, nf_s) = run.tracer.time("core.engine.nf_all", || {
        engine.neighborhood_function_batch(&all)
    });
    std::hint::black_box(nf);
    run.report.set("core.engine.nf_all_s", nf_s, 1);
    let pairs: Vec<(NodeId, NodeId)> = all.iter().map(|&v| (v, (v + 1) % n as NodeId)).collect();
    let (jac, jac_s) = run.tracer.time("core.engine.jaccard_batch", || {
        engine.jaccard_batch(&pairs, p.distances[2])
    });
    std::hint::black_box(jac);
    run.report.set(
        "core.engine.jaccard_pair_us",
        jac_s * 1e6 / n as f64,
        n as u64,
    );

    let lazy = QueryEngine::with_threads(&v2_mapped, 1);
    let (swept, lazy_s) = run
        .tracer
        .time("core.engine.v2_lazy.harmonic_all", || lazy.harmonic_all());
    run.report.op(bits_eq(&swept, &engine.harmonic_all()), || {
        "the v2 store's sweep differs from the v1 store's".into()
    });
    run.report
        .set("core.engine.v2_lazy.harmonic_all_s", lazy_s, 1);
    let oracle = Oracle::new(frozen, &p.distances);
    let check = |b: &Batch, a: &Answered| oracle.matches(b, &a.floats);
    let uniform = Arc::new(Popularity::new(n, 0.0));
    let batches = ladder::batches(run, &uniform);
    let mut random = InProcess::new(&v2_mapped, p.distances);
    ladder::replay(
        run,
        "core.engine.v2_lazy.random_batch_us",
        &mut random,
        &batches,
        ONCE,
        &check,
    );
    Ok(())
}
