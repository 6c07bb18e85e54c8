//! Scalable ADS construction algorithms (paper, Section 3 and Appendix B).
//!
//! All three build the *same* canonical bottom-k ADS set (tested to be
//! bitwise identical to the brute force in [`crate::reference`]):
//!
//! * [`pruned_dijkstra`] — Algorithm 1: one pruned Dijkstra per node in
//!   increasing rank order. Works on weighted and unweighted graphs;
//!   `O(km log n)` expected edge relaxations.
//! * [`dp`] — the node-centric dynamic-programming / Bellman–Ford approach
//!   (ANF/HyperANF style). Unweighted graphs only; entries are inserted in
//!   increasing distance, so no entry is ever retracted.
//! * [`local_updates`] — Algorithm 2: asynchronous-style message passing
//!   (here executed in synchronized rounds, as on Pregel/MapReduce), the
//!   extension of DP to weighted graphs. Entries may be inserted and later
//!   displaced by shorter paths, so sketches support deletion; also
//!   provides the `(1+ε)`-approximate variant that bounds the retraction
//!   overhead.
//!
//! Each returns the columnar store ([`crate::FrozenAdsSet`]) directly:
//! PrunedDijkstra's arena writes its prefix rows and spill log into the
//! store's columns, and the live sketches of DP and LocalUpdates are
//! concatenated into them. No per-node sketch is materialized on the way.
//! The arena stores no rank: its prefix rows are two columns, distances
//! and node ids (12 B per slot), its spill log holds `(dist, node, owner)`
//! (16 B per entry), and the `rank_of` table it owns goes on to the store.
//! (`LiveSketch` still carries a rank per entry.)
//!
//! The other two flavors have one builder each, [`kmins::build_with_stats`]
//! and [`kpartition::build_with_stats`]: k independent bottom-1 runs of
//! PrunedDijkstra, one per permutation / bucket, spread over `threads`
//! through [`shard_slots`] and bitwise identical at every thread count.
//!
//! # The threshold-monotonicity invariant
//!
//! The PrunedDijkstra-family builders prune in two places: the canonical
//! *pop-time* test (a settled node whose sketch rejects the source stops
//! the search branch — Algorithm 1), and a *relax-time* filter that keeps
//! doomed candidates out of the frontier before they pay a push. The
//! relax-time filter is sound because the per-node admission thresholds
//! maintained by the arena (`kth_dist[v]`, the k-th canonically-smallest
//! distance in `v`'s partial sketch, `+∞` while under-full) **only ever
//! tighten**: inserts move the k-th smallest key down, never up. A
//! candidate that is not admissible against a stale threshold therefore
//! can never become admissible later, so suppressing its push removes
//! only visits that would have ended in a prune — the output stays
//! bitwise the brute force's ([`crate::reference`]). The same staleness
//! argument lets the wave scheduler consult the frozen threshold array
//! concurrently from worker threads.

use adsketch_graph::NodeId;

mod arena;
pub mod dp;
pub mod kmins;
pub mod kpartition;
pub mod local_updates;
mod partial;
pub mod pruned_dijkstra;
mod waves;

pub(crate) use arena::PartialAdsArena;
pub(crate) use partial::LiveSketch;

/// One bottom-1 PrunedDijkstra pass of the k-mins / k-partition builders:
/// its per-node entries in canonical order and its counters.
type Bottom1Pass = Result<(Vec<Vec<crate::entry::AdsEntry>>, BuildStats), crate::error::CoreError>;

/// Resolves a requested thread count: `0` means "all available cores".
pub fn thread_count(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// The one chunking loop behind every parallel builder (and the
/// `adsketch-serve` worker pool): splits `slots` into ≤ `threads`
/// contiguous chunks and runs `f(scratch, global_index, slot)` for each
/// slot under [`std::thread::scope`], with one `init()`-built scratch per
/// thread (reused across that thread's slots — this is what lets
/// per-permutation rank buffers and per-source search state be allocated
/// once per thread instead of once per slot). A resolved thread count of
/// one runs inline on the calling thread, so single-threaded batch work
/// (e.g. one query request on a server worker) pays no spawn.
pub fn shard_slots<T, S, I, F>(slots: &mut [T], threads: usize, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    let total = slots.len();
    if total == 0 {
        return;
    }
    let t = thread_count(threads).min(total);
    if t == 1 {
        let mut scratch = init();
        for (i, slot) in slots.iter_mut().enumerate() {
            f(&mut scratch, i, slot);
        }
        return;
    }
    let chunk = total.div_ceil(t);
    std::thread::scope(|scope| {
        for (ci, part) in slots.chunks_mut(chunk).enumerate() {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut scratch = init();
                for (j, slot) in part.iter_mut().enumerate() {
                    f(&mut scratch, ci * chunk + j, slot);
                }
            });
        }
    });
}

/// Work counters reported by the builders (the paper's cost model counts
/// edge relaxations; Appendix B.2 discusses their per-operation cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Edge relaxations / messages processed. For the search-based
    /// builders this counts *settled* (visited) nodes: candidates the
    /// relax-time filter keeps out of the frontier are never settled.
    /// On the sequential path the filter is exact, so this exceeds
    /// `insertions` by at most one per source (a seed rejected at its
    /// own pop under zero-weight ties).
    pub relaxations: u64,
    /// Entries inserted into sketches (including ones later displaced).
    /// PrunedDijkstra never retracts, so for it this equals the finished
    /// set's total entry count, at any thread count.
    pub insertions: u64,
    /// Entries removed again (LocalUpdates only — its extra overhead).
    pub removals: u64,
    /// Synchronized rounds (DP: graph diameter; LocalUpdates: bounded by
    /// the shortest-path hop diameter; parallel PrunedDijkstra: number of
    /// source waves).
    pub rounds: u64,
    /// Frontier insertions: binary-heap pushes on weighted graphs, BFS
    /// next-level enqueues on the unit-weight fast path, plus one seed
    /// per search source. `0` for builders that don't instrument the
    /// frontier (DP, LocalUpdates).
    pub heap_pushes: u64,
    /// Candidates rejected by the relax-time admission filter before ever
    /// entering the frontier (see the threshold-monotonicity invariant in
    /// the [module docs](self)). `0` for the non-search builders.
    pub pruned_at_relax: u64,
}

impl BuildStats {
    /// Adds every counter of `other` to `self`: the one fold behind the
    /// wave merge and the k-mins / k-partition pass loops.
    pub(crate) fn merge(&mut self, other: BuildStats) {
        self.relaxations += other.relaxations;
        self.insertions += other.insertions;
        self.removals += other.removals;
        self.rounds += other.rounds;
        self.heap_pushes += other.heap_pushes;
        self.pruned_at_relax += other.pruned_at_relax;
    }
}

/// The relax-time admit hook of both PrunedDijkstra drivers (sequential
/// and wave): probes whether `v`'s partial sketch would take `src` at
/// distance `d`, and counts the verdict as a frontier push or a
/// relax-time prune.
#[inline]
pub(crate) fn admit(
    arena: &PartialAdsArena,
    stats: &mut BuildStats,
    v: NodeId,
    src: NodeId,
    d: f64,
) -> bool {
    let ok = arena.would_insert(v, src, d);
    if ok {
        stats.heap_pushes += 1;
    } else {
        stats.pruned_at_relax += 1;
    }
    ok
}

/// The PrunedDijkstra builders accept any `k ≥ 1` (DP and the
/// local-update builders, which run on `LiveSketch`, additionally cap it
/// at `LiveSketch::MAX_K`, see [`crate::error::CoreError::InvalidK`]).
pub(crate) fn validate_k(k: usize) -> Result<(), crate::error::CoreError> {
    if k == 0 {
        return Err(crate::error::CoreError::InvalidK { k });
    }
    Ok(())
}

pub(crate) fn validate_ranks(ranks: &[f64], n: usize) -> Result<(), crate::error::CoreError> {
    if ranks.len() != n {
        return Err(crate::error::CoreError::RankCountMismatch {
            ranks: ranks.len(),
            nodes: n,
        });
    }
    for &r in ranks {
        if !(r.is_finite() && r >= 0.0) {
            return Err(crate::error::CoreError::InvalidRank { rank: r });
        }
    }
    Ok(())
}
