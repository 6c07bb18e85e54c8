//! The churn workload: writes beside reads. The driver thread streams the
//! shuffled edge list through `Ingestor::ingest` in tranches, freezes
//! each into a generation and hot-swaps it into a live server, while one
//! connection queries that server on a fixed open-loop schedule. Then the
//! read side "restarts" from the published generation; the traced run
//! also recovers the write side by replaying the log.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adsketch::core::{AdsView, DynamicAds, QueryEngine, StoreFormat};
use adsketch::ingest::{current_generation, EdgeLog, Freezer, Ingestor};
use adsketch::serve::{GenerationStore, ShardedStore};

use crate::answerers::{GenWire, Wire};
use crate::loadgen::{open_loop, Answered, Answerer, LoopCtx, LoopReport};
use crate::offline::gate_accuracy;
use crate::run::{bits_eq, dir_bytes, med, Run};
use crate::serve::Tier;
use crate::stats;
use crate::trace::NO_SPAN;
use crate::workload::{Batch, BatchGen, Popularity, Topology, BATCH, K};

/// Records per edge-log segment.
const SEGMENT_CAP: u64 = 1 << 16;

/// Times the read side is restarted from the published generation.
const COLD_STARTS: usize = 5;

/// Sets a flag when dropped, so the query thread is released even when
/// the driver thread bails out early.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Runs the churn workload.
pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    let (p, inputs) = (run.p, run.inputs);
    let Topology::Churn { tranches, shards } = p.topology else {
        return Err(format!("not the churn topology: {:?}", p.topology));
    };
    let (n, arcs, oracles) = (p.nodes(), &inputs.arcs, &inputs.generation_oracles);
    let m = arcs.len();
    let log_dir = run.scratch.join("log");
    let gen_root = run.scratch.join("generations");
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

    let ingestor = Mutex::new(
        Ingestor::open(&log_dir, n, K, inputs.rank_seed, SEGMENT_CAP)
            .map_err(|e| err("open ingestor", &e))?,
    );
    let mut freezer =
        Freezer::new(&gen_root, shards, StoreFormat::V1).map_err(|e| err("freezer", &e))?;

    // An answer must match, bit for bit, one generation the request could
    // legally have observed: any between the generation read before it
    // was sent and the one read after it was answered.
    let check = |b: &Batch, a: &Answered| {
        let (lo, hi) = a.gens;
        (1..=oracles.len() as u64).contains(&lo)
            && lo <= hi
            && hi <= oracles.len() as u64
            && (lo..=hi).any(|g| oracles[g as usize - 1].matches(b, &a.floats))
    };
    let popularity = Arc::new(Popularity::new(n, p.zipf_s));

    let stop = AtomicBool::new(false);
    let mut ingest_s = 0.0;
    let (mut fresh_ms, mut freeze_ms, mut load_ms, mut swap_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut freeze_windows: Vec<(f64, f64)> = Vec::new();
    let mut query_tracer = Some(run.tracer.worker());
    let origin = run.origin;
    let started = Instant::now();
    let (tier, queries, pipeline_s) = std::thread::scope(|s| -> Result<_, String> {
        let _release = SetOnDrop(&stop);
        let mut live: Option<(Tier, Arc<GenerationStore<ShardedStore>>)> = None;
        let mut query_thread = None;
        for t in 0..tranches {
            let tranche = &arcs[m * t / tranches..m * (t + 1) / tranches];
            let (applied, secs) = run.tracer.time("ingest.pipeline.ingest", || {
                let mut ing = ingestor.lock().expect("ingestor lock");
                tranche
                    .iter()
                    .try_for_each(|&(u, v, w)| ing.ingest(u, v, w).map(drop))
            });
            applied.map_err(|e| err("ingest", &e))?;
            ingest_s += secs;

            // Freshness: last edge of the tranche applied → the server
            // answers from a store that holds it.
            let applied_at = Instant::now();
            let (frozen, _) = run
                .tracer
                .time("ingest.freezer.freeze", || freezer.freeze(&ingestor));
            let frozen = frozen.map_err(|e| err("freeze", &e))?;
            freeze_ms.push(frozen.freeze_seconds * 1e3);
            let (store, l) = run
                .tracer
                .time("serve.generation.load", || ShardedStore::load(&frozen.dir));
            let store = store.map_err(|e| err("load generation", &e))?;
            load_ms.push(l * 1e3);
            match &live {
                None => {
                    let gens = Arc::new(GenerationStore::new(store, frozen.generation));
                    let tier = Tier::direct(run.tracer, gens.clone(), p.workers, l * 1e3)?;
                    let addr = tier.addr;
                    live = Some((tier, gens));
                    let (stop, check, popularity) = (&stop, &check, popularity.clone());
                    let mut tracer = query_tracer.take().expect("one query thread");
                    query_thread = Some(s.spawn(move || {
                        let make = |conn: usize| -> Result<(GenWire, BatchGen), String> {
                            Ok((
                                GenWire::connect(addr, p.distances)?,
                                BatchGen::new(
                                    p,
                                    popularity.clone(),
                                    inputs.traffic_seed,
                                    "churn",
                                    conn,
                                ),
                            ))
                        };
                        let ctx = LoopCtx {
                            conns: 1,
                            dur: Duration::from_secs(3600),
                            stop: Some(stop),
                            origin,
                            tracer: &mut tracer,
                        };
                        (open_loop(ctx, p.open_rps, &make, check), tracer)
                    }));
                }
                Some((_, gens)) => {
                    let (old, sw) = run.tracer.time("serve.generation.swap", || {
                        gens.swap(store, frozen.generation)
                    });
                    swap_us.push(sw * 1e6);
                    run.report.op(old + 1 == frozen.generation, || {
                        format!("swap replaced generation {old} with {}", frozen.generation)
                    });
                }
            }
            fresh_ms.push(applied_at.elapsed().as_secs_f64() * 1e3);
            freeze_windows.push((
                (applied_at - origin).as_secs_f64(),
                origin.elapsed().as_secs_f64(),
            ));
        }
        let pipeline_s = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let (queries, tracer) = query_thread
            .expect("tranche 1 started the query thread")
            .join()
            .map_err(|_| "query thread panicked".to_string())?;
        run.tracer.absorb(tracer, NO_SPAN);
        let (tier, _) = live.expect("tranche 1 started the server");
        Ok((tier, queries, pipeline_s))
    })?;

    run.count("open loop during churn", &queries);
    run.set_open(&queries);
    let answered = (queries.attempted - queries.failed) as f64;
    run.report.set(
        "node_queries_per_s",
        answered * BATCH as f64 / queries.elapsed_s.max(1e-9),
        queries.attempted,
    );
    freeze_split(run, &queries, &freeze_windows);

    let tr = tranches as u64;
    run.report.set("pipeline_s", pipeline_s, 1);
    run.report
        .set("pipeline.build_arcs_per_s", m as f64 / ingest_s, m as u64);
    run.report.set(
        "ingest.pipeline.ingest_edges_per_s",
        m as f64 / ingest_s,
        m as u64,
    );
    run.report.set(
        "ingest.pipeline.ingest_us",
        ingest_s * 1e6 / m as f64,
        m as u64,
    );
    run.report.set("freshness_ms", med(&mut fresh_ms).0, tr);
    run.report
        .set("ingest.freezer.freeze_ms", med(&mut freeze_ms).0, tr);
    run.report
        .set("serve.generation.load_ms", med(&mut load_ms).0, tr);
    run.report
        .set("serve.generation.swap_us", med(&mut swap_us).0, tr - 1);

    // The live server must now answer the last generation, for every node.
    let last = oracles.last().expect("at least one tranche");
    let final_check = |b: &Batch, a: &Answered| last.matches(b, &a.floats);
    let mut conn = Wire::connect(tier.addr, p.distances)?;
    let mut sweep = BatchGen::sweep(p, inputs.traffic_seed);
    let mut wrong = 0;
    let requests = 2 * n.div_ceil(BATCH) as u64;
    for _ in 0..requests {
        let batch = sweep.next_batch();
        wrong += u64::from(!conn.answer(&batch).is_ok_and(|a| final_check(&batch, &a)));
    }
    drop(conn);
    run.report.ops(requests, wrong, || {
        "the swapped-in last generation differs from its from-scratch oracle".into()
    });
    gate_accuracy(run, last);

    {
        let ing = ingestor.lock().expect("ingestor lock");
        let built = ing.ads().stats();
        for (name, count) in [
            (
                "core.builder.local_updates.relaxations_per_edge",
                built.relaxations,
            ),
            (
                "core.builder.local_updates.removals_per_edge",
                built.removals,
            ),
            ("core.builder.local_updates.rounds_per_edge", built.rounds),
        ] {
            run.report.set(name, count as f64 / m as f64, m as u64);
        }
        if run.trace {
            let (snapshot, s) = run
                .tracer
                .time("ingest.pipeline.snapshot", || ing.snapshot());
            run.report.set("ingest.pipeline.snapshot_ms", s * 1e3, 1);
            drop(snapshot);
        }
    }
    let log_bytes = dir_bytes(&log_dir).map_err(|e| err("log size", &e))?;
    run.report.set(
        "ingest.log.bytes_per_edge",
        log_bytes as f64 / m as f64,
        m as u64,
    );
    tier.stop()?;
    drop(ingestor);

    // Restart of the read side: the published generation on disk (page
    // cache warm) → load → bind → connect → first answered request. The
    // last server brought up keeps serving.
    let mut cold_ms = Vec::new();
    let mut tier: Option<Tier> = None;
    let mut published = None;
    for _ in 0..COLD_STARTS {
        if let Some(old) = tier.take() {
            old.stop()?;
        }
        let phase = run.tracer.begin("phase.cold_start");
        let t0 = Instant::now();
        let (generation, dir) = current_generation(&gen_root)
            .map_err(|e| err("read CURRENT", &e))?
            .ok_or("no generation was published")?;
        let (store, _) = run
            .tracer
            .time("serve.generation.load", || ShardedStore::load(&dir));
        let store = store.map_err(|e| err("load CURRENT", &e))?;
        let entries = store.total_entries() as f64;
        let gens = Arc::new(GenerationStore::new(store, generation));
        let up = Tier::direct(run.tracer, gens, p.workers, 0.0)?;
        let batch = sweep.next_batch();
        let first = Wire::connect(up.addr, p.distances).and_then(|mut w| w.answer(&batch));
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        run.tracer.end(phase);
        run.report.op(
            generation == tranches as u64 && first.as_ref().is_ok_and(|a| final_check(&batch, a)),
            || format!("first request after a restart: {:?}", first.as_ref().err()),
        );
        tier = Some(up);
        published = Some((dir, entries));
    }
    let tier = tier.expect("a restart ran");
    let (dir, entries) = published.expect("a restart ran");
    // The fastest restart, like the static workloads' fastest pass.
    let fastest = cold_ms.iter().copied().fold(f64::INFINITY, f64::min);
    run.report
        .set("pipeline.cold_start_ms", fastest, COLD_STARTS as u64);
    let bytes = dir_bytes(&dir).map_err(|e| err("generation size", &e))?;
    run.report
        .set("store_bytes_per_entry", bytes as f64 / entries, 1);

    if run.trace {
        // Recovery of the write side: `Ingestor::open` replays the whole
        // log into fresh sketches, which must equal the from-scratch build.
        let (reopened, recovery_s) = run.tracer.time("ingest.pipeline.open", || {
            Ingestor::open(&log_dir, n, K, inputs.rank_seed, SEGMENT_CAP)
        });
        let reopened = reopened.map_err(|e| err("reopen ingestor", &e))?;
        run.report.set("ingest.pipeline.recovery_s", recovery_s, 1);
        run.report.set(
            "ingest.pipeline.replay_edges_per_s",
            m as f64 / recovery_s,
            m as u64,
        );
        let recovered = QueryEngine::new(&reopened.snapshot()).harmonic_all();
        run.report.op(
            reopened.edges() == m as u64 && bits_eq(&recovered, &last.harmonic),
            || "the replayed sketches differ from the from-scratch build".into(),
        );
        drop(reopened);

        let make = |conn: usize| -> Result<(Wire, BatchGen), String> {
            Ok((
                Wire::connect(tier.addr, p.distances)?,
                BatchGen::new(p, popularity.clone(), inputs.traffic_seed, "overhead", conn),
            ))
        };
        run.trace_overhead(&make, &final_check);
        bare_layers(run)?;
    }
    tier.stop()
}

/// Splits the open-loop latencies by whether the request was due while a
/// freeze → load → swap was running beside the server.
fn freeze_split(run: &mut Run<'_>, queries: &LoopReport, windows: &[(f64, f64)]) {
    let (mut inside, mut outside) = (Vec::new(), Vec::new());
    for (&at, &us) in queries.sent_s.iter().zip(&queries.latencies_us) {
        if windows.iter().any(|&(lo, hi)| (lo..=hi).contains(&at)) {
            inside.push(us);
        } else {
            outside.push(us);
        }
    }
    for (name, mut lat) in [
        ("loadgen.p99_in_freeze_us", inside),
        ("loadgen.p99_outside_freeze_us", outside),
    ] {
        if !lat.is_empty() {
            stats::sort(&mut lat);
            run.report
                .set(name, stats::tail(&lat, 0.99).value, lat.len() as u64);
        }
    }
}

/// The same edge sequence through the two layers under `Ingestor` alone:
/// `DynamicAds::insert_edge` without a journal, and `EdgeLog::append`
/// without sketches.
fn bare_layers(run: &mut Run<'_>) -> Result<(), String> {
    let (p, inputs) = (run.p, run.inputs);
    let m = inputs.arcs.len();
    let mut ads = DynamicAds::new(p.nodes(), K, inputs.rank_seed);
    let (inserted, s) = run.tracer.time("core.builder.local_updates.insert", || {
        inputs
            .arcs
            .iter()
            .try_for_each(|&(u, v, w)| ads.insert_edge(u, v, w))
    });
    inserted.map_err(|e| format!("insert_edge: {e}"))?;
    run.report.set(
        "core.builder.local_updates.insert_us",
        s * 1e6 / m as f64,
        m as u64,
    );
    drop(ads);

    let (mut log, _) = EdgeLog::open(run.scratch.join("bare-log"), SEGMENT_CAP)
        .map_err(|e| format!("open bare log: {e}"))?;
    let (appended, s) = run.tracer.time("ingest.log.append", || {
        inputs
            .arcs
            .iter()
            .try_for_each(|&(u, v, w)| log.append(u, v, w).map(drop))
            .and_then(|()| log.flush())
    });
    appended.map_err(|e| format!("append: {e}"))?;
    run.report
        .set("ingest.log.append_us", s * 1e6 / m as f64, m as u64);
    Ok(())
}
