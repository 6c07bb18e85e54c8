//! The serving workloads: one direct `Server` over a mapped store (v1 or
//! v2), or a `Router` with an answer cache over one backend per shard.
//! Every answer crosses a loopback socket and is checked bit for bit
//! against an in-process engine over the unsharded store.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use adsketch::core::centrality::DecayKernel;
use adsketch::core::frozen::SHARD_MANIFEST_FILE;
use adsketch::core::{freeze_sharded_format, QueryEngine, ShardManifest, StoreFormat};
use adsketch::graph::NodeId;
use adsketch::serve::{
    BackendStore, CacheStatsHandle, Client, RequestStore, Router, RouterConfig, Server,
    ServerHandle, ShardedStore,
};

use crate::answerers::{InProcess, Wire};
use crate::ladder::{self, Codec, Dispatch, ONCE, STEADY};
use crate::loadgen::{closed_loop, open_loop, Answered, Answerer};
use crate::offline::gate_accuracy;
use crate::run::{bits_eq, dir_bytes, med, Passes, Run};
use crate::trace::Tracer;
use crate::workload::{Batch, BatchGen, BatchKind, Oracle, Popularity, Topology, BATCH};

type Serving = (ServerHandle, JoinHandle<std::io::Result<u64>>);

/// A running serving tier: the address clients dial and everything that
/// must be stopped afterwards.
pub struct Tier {
    /// The client-facing address.
    pub addr: SocketAddr,
    /// The router's cache counters, when there is a cache.
    pub cache: Option<CacheStatsHandle>,
    /// Backends first, the client-facing server last.
    servers: Vec<Serving>,
    /// Milliseconds in `ShardedStore::load` / `BackendStore::load`.
    pub load_ms: f64,
}

fn spawn<S: RequestStore + 'static>(server: Server<S>) -> Result<(SocketAddr, Serving), String> {
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let handle = server.handle();
    Ok((addr, (handle, std::thread::spawn(move || server.run()))))
}

impl Tier {
    /// Loads `dir` and serves it the way `topology` says.
    pub fn start(
        tracer: &mut Tracer,
        dir: &Path,
        topology: Topology,
        workers: usize,
    ) -> Result<Tier, String> {
        match topology {
            Topology::Fleet {
                shards,
                cache_bytes,
            } => Tier::fleet(tracer, dir, shards, workers, cache_bytes),
            _ => {
                let (store, load_s) = tracer.time("serve.store.load", || ShardedStore::load(dir));
                let store = store.map_err(|e| format!("load {}: {e}", dir.display()))?;
                Tier::direct(tracer, Arc::new(store), workers, load_s * 1e3)
            }
        }
    }

    /// One `Server` over `store`.
    pub fn direct<S: RequestStore + 'static>(
        tracer: &mut Tracer,
        store: Arc<S>,
        workers: usize,
        load_ms: f64,
    ) -> Result<Tier, String> {
        let (server, _) = tracer.time("serve.server.bind", || {
            Server::bind("127.0.0.1:0", store, workers)
        });
        let (addr, serving) = spawn(server.map_err(|e| format!("bind: {e}"))?)?;
        Ok(Tier {
            addr,
            cache: None,
            servers: vec![serving],
            load_ms,
        })
    }

    /// One `BackendStore` server per shard and a `Router` in front.
    /// Backends get one worker more than the router: each router worker
    /// holds a standing connection per backend, and the router's health
    /// prober needs a free slot.
    fn fleet(
        tracer: &mut Tracer,
        dir: &Path,
        shards: usize,
        workers: usize,
        cache_bytes: usize,
    ) -> Result<Tier, String> {
        let mut servers = Vec::new();
        let mut replicas = Vec::new();
        let mut load_ms = 0.0;
        for shard in 0..shards {
            let (store, load_s) =
                tracer.time("serve.backend.load", || BackendStore::load(dir, shard));
            load_ms += load_s * 1e3;
            let server = store
                .map_err(|e| format!("load shard {shard}: {e}"))?
                .into_server("127.0.0.1:0", workers + 1)
                .map_err(|e| format!("bind backend {shard}: {e}"))?;
            let (addr, serving) = spawn(server)?;
            servers.push(serving);
            replicas.push(vec![addr]);
        }
        let manifest = ShardManifest::load(dir.join(SHARD_MANIFEST_FILE))
            .map_err(|e| format!("manifest: {e}"))?;
        // Coalescing and hedging stay off (the defaults).
        let config = RouterConfig {
            cache_bytes,
            ..RouterConfig::default()
        };
        let (router, _) = tracer.time("serve.router.bind", || {
            Router::bind("127.0.0.1:0", manifest, replicas, workers, config)
        });
        let router = router.map_err(|e| format!("bind router: {e}"))?;
        let addr = router
            .local_addr()
            .map_err(|e| format!("router addr: {e}"))?;
        let cache = router.cache_stats();
        servers.push((router.handle(), std::thread::spawn(move || router.run())));
        Ok(Tier {
            addr,
            cache,
            servers,
            load_ms,
        })
    }

    /// Stops the client-facing server, then the backends, and waits for
    /// every thread.
    pub fn stop(self) -> Result<(), String> {
        let mut result = Ok(());
        for (handle, join) in self.servers.into_iter().rev() {
            handle.shutdown();
            match join.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => result = Err(format!("server run: {e}")),
                Err(_) => result = Err("server thread panicked".into()),
            }
        }
        result
    }
}

/// Runs a serving workload: every pass takes the graph to a store on
/// disk, brings a fresh tier up cold from it, and puts that tier under the
/// workload's traffic.
pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    let (p, inputs) = (run.p, run.inputs);
    let (format, shards) = match p.topology {
        Topology::Direct { format } => (format, 1),
        Topology::Fleet { shards, .. } => (StoreFormat::V1, shards),
        other => return Err(format!("not a serving topology: {other:?}")),
    };
    let popularity = Arc::new(Popularity::new(p.nodes(), p.zipf_s));
    let wire = |addr: SocketAddr, phase: &'static str| {
        let popularity = popularity.clone();
        move |conn: usize| -> Result<(Wire, BatchGen), String> {
            Ok((
                Wire::connect(addr, p.distances)?,
                BatchGen::new(p, popularity.clone(), inputs.traffic_seed, phase, conn),
            ))
        }
    };

    let mut passes = Passes::default();
    let (mut shard_write_s, mut load_ms, mut connect_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = BatchGen::new(p, popularity.clone(), inputs.traffic_seed, "cold", 0);
    let mut oracle: Option<Oracle> = None;
    // Stopping a tier mostly waits out its servers' poll intervals (1.3 s
    // for a fleet), so the tier of one pass stops on a thread of its own
    // while the next pass builds, and is gone before that pass overwrites
    // the store directory it had mapped.
    let mut live: Option<Tier> = None;
    let dir = run.scratch.join("store");
    for _ in 0..p.passes {
        let stopping = live
            .take()
            .map(|done_with| std::thread::spawn(move || done_with.stop()));
        let span = run.tracer.begin("phase.pass");
        let ads = passes.build(run);
        if let Some(stopped) = stopping {
            stopped
                .join()
                .map_err(|_| "a stopping thread panicked".to_string())??;
        }
        let t1 = Instant::now();
        let (manifest, w) = run.tracer.time("core.frozen.shard_write", || {
            freeze_sharded_format(&ads, shards, &dir, format)
        });
        manifest.map_err(|e| format!("freeze_sharded_format: {e}"))?;
        shard_write_s.push(w);

        // Cold start: store directory on disk (page cache warm: it was
        // just written) → load → bind → connect → first answered request.
        let t2 = Instant::now();
        let up = Tier::start(run.tracer, &dir, p.topology, p.workers)?;
        let servable = Instant::now();
        let (conn, c) = run.tracer.time("serve.client.connect", || {
            Wire::connect(up.addr, p.distances)
        });
        let batch = first.next_batch();
        let answered = conn.and_then(|mut w| w.answer(&batch));
        let done = Instant::now();
        run.tracer.end(span);
        let build_s = *passes.build_s.last().expect("this pass built");
        passes.pipeline_s.push(build_s + (done - t1).as_secs_f64());
        passes.fresh_ms.push((servable - t1).as_secs_f64() * 1e3);
        passes.cold_ms.push((done - t2).as_secs_f64() * 1e3);
        load_ms.push(up.load_ms);
        connect_us.push(c * 1e6);

        // The oracle: an in-process engine over the unsharded in-memory
        // store (every pass is bitwise equal, so the first pass's serves
        // them all).
        if oracle.is_none() {
            let fresh_oracle = Oracle::new(&ads.freeze(), &p.distances);
            gate_accuracy(run, &fresh_oracle);
            let bytes = dir_bytes(&dir).map_err(|e| format!("size of {}: {e}", dir.display()))?;
            run.report.set(
                "store_bytes_per_entry",
                bytes as f64 / ads.total_entries() as f64,
                1,
            );
            oracle = Some(fresh_oracle);
        }
        drop(ads);
        let oracle = oracle.as_ref().expect("set on the first pass");
        let check = |b: &Batch, a: &Answered| oracle.matches(b, &a.floats);
        run.report
            .op(answered.as_ref().is_ok_and(|a| check(&batch, a)), || {
                format!(
                    "first request after a cold start: {:?}",
                    answered.as_ref().err()
                )
            });

        live = Some(up);
    }
    let n = p.passes as u64;
    run.report
        .set("core.frozen.shard_write_s", med(&mut shard_write_s).0, n);
    run.report
        .set("serve.client.connect_us", med(&mut connect_us).0, n);
    let load_metric = if shards > 1 {
        "serve.backend.load_ms"
    } else {
        "serve.store.load_ms"
    };
    run.report.set(load_metric, med(&mut load_ms).0, n);

    // The last pass's tier takes the traffic. The loops are not cut into
    // per-pass slices: a fresh set of connections spends its first second
    // or so in a slower regime (the scheduler is still placing client and
    // worker threads), which short slices would mostly measure.
    let tier = live.expect("a pass ran");
    let oracle = oracle.expect("a pass ran");
    let check = |b: &Batch, a: &Answered| oracle.matches(b, &a.floats);
    // Warm the answer cache to its steady state before anything is timed
    // on it; the traffic is the workload's own, never a sweep of every
    // key.
    if tier.cache.is_some() {
        let dur = run.span_of(0.05);
        let warm = closed_loop(run.loop_ctx(dur), &wire(tier.addr, "warm"), &check);
        run.count("cache warm-up", &warm);
    }
    let cache_before = tier.cache.as_ref().map(|c| (c.hits(), c.misses()));
    let dur = run.span_of(p.closed_share);
    let closed = closed_loop(run.loop_ctx(dur), &wire(tier.addr, "closed"), &check);
    passes.closed(run, "closed loop", &closed);
    let dur = run.span_of(p.open_share);
    let open = open_loop(
        run.loop_ctx(dur),
        p.open_rps,
        &wire(tier.addr, "open"),
        &check,
    );
    run.count("open loop", &open);
    run.set_open(&open);
    passes.finish(run);
    if let (Some(cache), Some((h, m))) = (&tier.cache, cache_before) {
        let (hits, lookups) = (cache.hits() - h, cache.hits() - h + cache.misses() - m);
        let hit_rate = hits as f64 / lookups.max(1) as f64;
        run.report.set("serve.cache.hit_rate", hit_rate, lookups);
        run.report.set(
            "serve.cache.fill_ratio",
            cache.resident_entries() as f64 / cache.capacity_entries().max(1) as f64,
            1,
        );
        // A cache row is only honest when some lookups miss.
        run.report.op(hit_rate > 0.0 && hit_rate < 1.0, || {
            format!("cache hit rate {hit_rate} is not strictly between 0 and 1")
        });
    }

    if run.trace {
        let store = ShardedStore::load(&dir).map_err(|e| format!("load store: {e}"))?;
        run.report.set(
            "serve.store.resident_bytes",
            store.resident_bytes() as f64,
            1,
        );
        let store = Arc::new(store);
        let batches = ladder::batches(run, &popularity);
        match p.topology {
            Topology::Fleet {
                shards,
                cache_bytes,
            } => {
                // Rung 3 is a direct server over the same store; rung 4
                // and the cold first pass need routers with backends of
                // their own, because a backend's worker pool fits one
                // router's standing connections.
                let direct = Tier::direct(run.tracer, store.clone(), p.workers, 0.0)?;
                lower_rungs(run, &store, direct.addr, &batches, &check)?;
                direct.stop()?;
                for (metric, cache_bytes, replays) in [
                    ("serve.router.nocache_us", 0, STEADY),
                    ("serve.router.cold_us", cache_bytes, ONCE),
                ] {
                    let topology = Topology::Fleet {
                        shards,
                        cache_bytes,
                    };
                    let extra = Tier::start(run.tracer, &dir, topology, p.workers)?;
                    let mut conn = Wire::connect(extra.addr, p.distances)?;
                    ladder::replay(run, metric, &mut conn, &batches, replays, &check);
                    drop(conn);
                    extra.stop()?;
                }
                let mut conn = Wire::connect(tier.addr, p.distances)?;
                ladder::replay(
                    run,
                    "serve.router.steady_us",
                    &mut conn,
                    &batches,
                    ONCE,
                    &check,
                );
                // A quarter of the set fits the cache whole: after the
                // warming replays every lookup hits.
                let hot = &batches[..batches.len() / 4];
                ladder::replay(
                    run,
                    "serve.router.allhit_us",
                    &mut conn,
                    hot,
                    STEADY,
                    &check,
                );
                jaccard_cross_shard(run, &mut conn, &store)?;
            }
            _ => lower_rungs(run, &store, tier.addr, &batches, &check)?,
        }
        run.trace_overhead(&wire(tier.addr, "overhead"), &check);
    }
    tier.stop()
}

/// Rungs 0–3 of the ladder, and the loopback cost of each request type.
fn lower_rungs(
    run: &mut Run<'_>,
    store: &ShardedStore,
    addr: SocketAddr,
    batches: &[Batch],
    check: &impl Fn(&Batch, &Answered) -> bool,
) -> Result<(), String> {
    let distances = run.p.distances;
    ladder::replay(
        run,
        "core.engine.batch_us",
        &mut InProcess::new(store, distances),
        batches,
        STEADY,
        check,
    );
    ladder::replay(
        run,
        "serve.server.answer_us",
        &mut Dispatch { store, distances },
        batches,
        STEADY,
        check,
    );
    ladder::replay(
        run,
        "serve.proto.codec_us",
        &mut Codec { store, distances },
        batches,
        STEADY,
        check,
    );
    let mut conn = Wire::connect(addr, distances)?;
    ladder::replay(
        run,
        "serve.server.loopback_us",
        &mut conn,
        batches,
        STEADY,
        check,
    );
    let of_kind = |harmonic: bool| -> Vec<Batch> {
        batches
            .iter()
            .filter(|b| (b.kind == BatchKind::Harmonic) == harmonic)
            .cloned()
            .collect()
    };
    ladder::replay(
        run,
        "serve.server.harmonic_us",
        &mut conn,
        &of_kind(true),
        STEADY,
        check,
    );
    ladder::replay(
        run,
        "serve.server.cardinality_us",
        &mut conn,
        &of_kind(false),
        STEADY,
        check,
    );
    drop(conn);

    // The three request types the traffic does not carry, over the same
    // loopback connection, each checked against the in-process engine.
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let engine = QueryEngine::with_threads(store, 1);
    let d = distances[2];
    let (mut decay_us, mut nf_us, mut jaccard_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0;
    let sample = &batches[..batches.len() / 4];
    for batch in sample {
        let nodes = &batch.nodes;
        let (got, s) = run.tracer.time("serve.client.decay", || {
            client.decay(DecayKernel::Harmonic, nodes)
        });
        decay_us.push(s * 1e6);
        let want = engine.decay_batch(DecayKernel::Harmonic, nodes);
        failed += u64::from(!got.is_ok_and(|g| bits_eq(&g, &want)));

        let (got, s) = run
            .tracer
            .time("serve.client.nf", || client.neighborhood_function(nodes));
        nf_us.push(s * 1e6);
        failed += u64::from(got.ok() != Some(engine.neighborhood_function_batch(nodes)));

        let pairs: Vec<(NodeId, NodeId)> =
            nodes.chunks(2).map(|c| (c[0], c[c.len() - 1])).collect();
        let (got, s) = run
            .tracer
            .time("serve.client.jaccard", || client.jaccard(d, &pairs));
        jaccard_us.push(s * 1e6);
        let want = engine.jaccard_batch(&pairs, d);
        failed += u64::from(!got.is_ok_and(|g| bits_eq(&g, &want)));
    }
    let n = sample.len() as u64;
    run.report.ops(3 * n, failed, || {
        "a decay / neighbourhood-function / jaccard answer differs from the engine".into()
    });
    run.report
        .set("serve.server.decay_us", med(&mut decay_us).0, n);
    run.report.set("serve.server.nf_us", med(&mut nf_us).0, n);
    run.report
        .set("serve.server.jaccard_us", med(&mut jaccard_us).0, n);
    Ok(())
}

/// Jaccard of node pairs that straddle the shard boundary: the router
/// must fetch sketch prefixes from both backends and join them itself.
fn jaccard_cross_shard(
    run: &mut Run<'_>,
    conn: &mut Wire,
    store: &ShardedStore,
) -> Result<(), String> {
    let n = store.manifest().num_nodes() as NodeId;
    let cut = store.manifest().records()[0].end as NodeId;
    let d = run.p.distances[2];
    let pairs: Vec<(NodeId, NodeId)> = (0..BATCH as NodeId)
        .map(|i| (i % cut, cut + i % (n - cut)))
        .collect();
    let want = QueryEngine::with_threads(store, 1).jaccard_batch(&pairs, d);
    let mut us = Vec::new();
    let mut failed = 0;
    for _ in 0..32 {
        let (got, s) = run
            .tracer
            .time("serve.client.jaccard", || conn.client().jaccard(d, &pairs));
        us.push(s * 1e6);
        failed += u64::from(!got.is_ok_and(|g| bits_eq(&g, &want)));
    }
    run.report.ops(32, failed, || {
        "a cross-shard jaccard answer differs from the engine".into()
    });
    run.report
        .set("serve.router.jaccard_cross_shard_us", med(&mut us).0, 32);
    Ok(())
}
