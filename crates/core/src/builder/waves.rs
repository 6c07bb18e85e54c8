//! Wave-parallel PrunedDijkstra (paper, Appendix B.4 suggests pipelining
//! the rank-ordered searches; this is the batched — "wave" — variant).
//!
//! Sources are processed in increasing rank order, in waves of
//! geometrically growing size. Within a wave every source runs its pruned
//! search concurrently against the *frozen* sketch state left by earlier
//! waves, recording insert candidates `(node, dist)` instead of mutating
//! shared state. A sequential rank-order merge then replays each
//! candidate through the real admission test and re-prunes.
//!
//! # Why the output is bitwise identical to the sequential builder
//!
//! The frozen state is a subset of the state each source would have seen
//! sequentially, so a wave search prunes *no more* than the sequential
//! search: it reaches a superset of the sequentially-visited nodes.
//! Pruning only ever happens at nodes whose final sketch rejects the
//! source, so for every node that sequentially *accepts* the source the
//! frozen search finds the true shortest distance; for every node that
//! rejects it, the frozen distance can only be ≥ the true one, and the
//! admission test is monotone in distance — the replay rejects it too.
//! By induction over sources in rank order, the merge performs exactly
//! the sequential insert sequence. Over-exploration is bounded by keeping
//! each wave no larger than half the number of already-merged sources (so
//! the frozen state is at most 1.5× stale), which is also why wave sizes
//! grow geometrically. The exception is the floor `max(WAVE_MIN, t)` that
//! keeps early waves from starving the thread pool: the first wave runs
//! against an empty arena and therefore prunes nothing — the same is true
//! of the sequential builder's first ~k sources, but the floor is why the
//! bound above does not hold verbatim for waves smaller than the floor.
//!
//! The same argument covers the **relax-time frontier filter**: the wave
//! searches run the sequential core's `admit` hook, over the frozen
//! arena's admission-threshold array, before pushing a candidate.
//! Frozen thresholds are ≥ the thresholds the sequential run would have
//! had at the same point (fewer inserts have happened), so the frozen
//! filter admits a superset of what the sequential filter admits — every
//! sequentially-inserted entry is still found at its true distance, and
//! everything extra is re-pruned by the sequential replay. Because the
//! arena is completely frozen during a wave's search phase, the filter is
//! *exact* there: a candidate that passes it is recorded, so the wave's
//! per-search settled count collapses to its candidate count. That is the
//! push-time answer to the waves' over-exploration: branches another wave
//! member (or any earlier wave) already saturated are rejected before
//! they cost a push instead of after a pop.
//!
//! Each worker thread reuses one [`Search`] across its sources, and each
//! source counts into its slot's own [`BuildStats`], which the merge folds
//! in rank order.

use adsketch_graph::{FrontierVisitor, Graph, NodeId, Search, Visit};

use crate::builder::{admit, shard_slots, thread_count, BuildStats, PartialAdsArena};
use crate::error::CoreError;

/// Smallest wave; keeps the first waves from being pure sync overhead.
const WAVE_MIN: usize = 16;

/// Per-source result of a wave's concurrent search phase.
#[derive(Default)]
struct WaveSlot {
    /// `(node, dist)` pairs that passed the frozen admission test, in
    /// visit order.
    candidates: Vec<(NodeId, f64)>,
    /// This search's frontier counters (`insertions` stays 0: the merge
    /// counts those).
    stats: BuildStats,
}

/// Wave worker driver: a read-only view of the frozen arena plus this
/// source's private slot. `admit` is the shared relax-time hook against
/// the frozen admission thresholds (safe and exact: nothing mutates the
/// arena during the search phase); `visit` records the candidate for the
/// sequential replay.
struct WaveDriver<'a> {
    arena: &'a PartialAdsArena,
    src: NodeId,
    slot: &'a mut WaveSlot,
}

impl FrontierVisitor for WaveDriver<'_> {
    #[inline]
    fn admit(&mut self, v: NodeId, d: f64) -> bool {
        admit(self.arena, &mut self.slot.stats, v, self.src, d)
    }

    #[inline]
    fn visit(&mut self, v: NodeId, d: f64) -> Visit {
        self.slot.stats.relaxations += 1;
        // Every non-seed settle was admitted by `admit` against the same
        // frozen state at the same final distance, so only the unfiltered
        // source seed needs the probe here.
        if v != self.src {
            debug_assert!(self.arena.would_insert(v, self.src, d));
            self.slot.candidates.push((v, d));
            return Visit::Continue;
        }
        if self.arena.would_insert(v, self.src, d) {
            self.slot.candidates.push((v, d));
            Visit::Continue
        } else {
            Visit::Prune
        }
    }
}

/// Sources in increasing `(rank, id)` order — the total order every
/// rank-monotone builder processes sources in.
pub(crate) fn rank_order(ranks: &[f64], sources: Option<&[NodeId]>, n: usize) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = match sources {
        Some(s) => s.to_vec(),
        None => (0..n as NodeId).collect(),
    };
    // Ranks are hash-derived (collisions ~2^-53) but the order must still
    // be total.
    order.sort_unstable_by(|&a, &b| {
        ranks[a as usize]
            .total_cmp(&ranks[b as usize])
            .then(a.cmp(&b))
    });
    order
}

/// Wave-parallel core loop: builds the same `(arena, stats)` as the
/// sequential `run_core`, with searches fanned out over `threads`
/// (`0` ⇒ all cores). `stats.rounds` counts waves; relaxation counts
/// include the over-exploration of the frozen searches and therefore
/// depend on the wave layout (and thus the thread count) — the returned
/// arena does not.
pub(crate) fn run_core_parallel(
    g: &Graph,
    k: usize,
    ranks: &[f64],
    threads: usize,
) -> Result<(PartialAdsArena, BuildStats), CoreError> {
    let n = g.num_nodes();
    let t = thread_count(threads).min(n.max(1));
    if t == 1 {
        // One worker: the wave machinery would only buy over-exploration
        // and candidate buffering. Degenerate to the sequential core —
        // identical output by construction.
        return super::pruned_dijkstra::run_core(g, k, ranks, None);
    }
    crate::builder::validate_ranks(ranks, n)?;
    crate::builder::validate_k(k)?;
    let gt = g.transpose();
    let order = rank_order(ranks, None, n);
    let mut arena = PartialAdsArena::new(k, ranks.to_vec());
    let mut stats = BuildStats::default();
    let mut merged = 0usize;
    while merged < order.len() {
        // Growth factor 1.5: each wave is at most half the merged prefix,
        // so the frozen state is at most 1.5× stale — measurably less
        // over-exploration than doubling, for O(log n) extra waves. The
        // floor keeps each thread busy without inflating the unpruned
        // first waves (see module docs).
        let wave_len = (order.len() - merged).min((merged / 2).max(WAVE_MIN.max(t)));
        let wave = &order[merged..merged + wave_len];
        let mut slots: Vec<WaveSlot> = Vec::new();
        slots.resize_with(wave_len, WaveSlot::default);
        // Search phase: concurrent, read-only against the frozen arena —
        // both the relax-time frontier filter and the candidate test read
        // the same frozen admission thresholds.
        {
            let (arena, gt) = (&arena, &gt);
            shard_slots(
                &mut slots,
                t,
                || Search::for_graph(gt),
                |search, i, slot| {
                    slot.stats.heap_pushes += 1; // the source seed
                    let mut driver = WaveDriver {
                        arena,
                        src: wave[i],
                        slot,
                    };
                    search.run(gt, wave[i], &mut driver);
                },
            );
        }
        // Merge phase: sequential rank-order replay with re-pruning.
        for (&u, slot) in wave.iter().zip(slots) {
            stats.merge(slot.stats);
            for (v, d) in slot.candidates {
                if arena.insert_rank_monotone(v, u, d) {
                    stats.insertions += 1;
                }
            }
        }
        stats.rounds += 1;
        merged += wave_len;
    }
    Ok((arena, stats))
}
