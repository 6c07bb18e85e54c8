//! PrunedDijkstra ADS construction (paper, Algorithm 1).
//!
//! Nodes are processed in increasing rank order; each runs a search on
//! the transpose graph, inserting itself into the sketches of the nodes it
//! scans and pruning wherever the sketch already holds k closer (and
//! necessarily lower-ranked) entries. Pruning is exact: an entry that fails
//! at `v` fails at every node behind `v` on a shortest path, so the
//! search volume shrinks as ranks grow, giving `O(km log n)` expected
//! relaxations in total.
//!
//! Three hot-path optimizations over the textbook formulation, none of
//! which changes the output:
//!
//! * **BFS fast path** — the per-source search is one
//!   [`adsketch_graph::Search`] over the transpose, which is a pruned
//!   level-synchronous BFS when the graph stores no weights
//!   ([`adsketch_graph::Graph::is_weighted`] is false) and heap Dijkstra
//!   otherwise; the visit sequence is identical, the heap cost is gone.
//! * **Arena-backed sketch state** — the n partial sketches' k-prefixes
//!   live in two flat columns (distances and node ids, no ranks) plus one
//!   spill log, instead of n separate `Vec`s.
//! * **Relax-time frontier pruning** — the textbook algorithm discovers
//!   that a sketch rejects the source at *pop* time, after the candidate
//!   already paid a full frontier push + pop. The builder instead consults
//!   the arena's flat admission-threshold array *before* pushing a
//!   neighbor (the `admit` hook the sequential and wave drivers share);
//!   thresholds only ever tighten, so a candidate rejected against a
//!   stale threshold can never pass later (the threshold-monotonicity
//!   invariant, see the [`builder` module docs](crate::builder)), and the
//!   canonical pop-time test is kept for everything that does enter the
//!   frontier.
//!
//! [`build_parallel_with_stats`] additionally fans the searches out over
//! threads in rank-ordered waves (see the `waves` module); its set is
//! bitwise identical to [`build_with_stats`]'s. The oracle every builder
//! is tested against is the brute force in [`crate::reference`].

use adsketch_graph::{FrontierVisitor, Graph, NodeId, Search, Visit};

use crate::ads_set::AdsSet;
use crate::builder::waves::{rank_order, run_core_parallel};
use crate::builder::{admit, validate_k, validate_ranks, BuildStats, PartialAdsArena};
use crate::error::CoreError;

/// Builds the forward bottom-k ADS set of `g` for the given node ranks,
/// with work counters.
pub fn build_with_stats(
    g: &Graph,
    k: usize,
    ranks: &[f64],
) -> Result<(AdsSet, BuildStats), CoreError> {
    let (arena, stats) = run_core(g, k, ranks, None)?;
    Ok((arena.finish(), stats))
}

/// Wave-parallel PrunedDijkstra over `threads` threads (`0` ⇒ all cores).
///
/// The set is **bitwise identical** to [`build_with_stats`]'s for every
/// graph, rank assignment and thread count: sources are searched
/// concurrently in rank-ordered waves against frozen sketch state, then
/// merged by a deterministic rank-order replay that re-applies the exact
/// sequential admission test (see the `builder::waves` module for the
/// argument). `stats.rounds` is the number of waves; relaxations include
/// the waves' bounded over-exploration and therefore vary with `threads`
/// (the sketch set does not).
pub fn build_parallel_with_stats(
    g: &Graph,
    k: usize,
    ranks: &[f64],
    threads: usize,
) -> Result<(AdsSet, BuildStats), CoreError> {
    let (arena, stats) = run_core_parallel(g, k, ranks, threads)?;
    Ok((arena.finish(), stats))
}

/// Sequential search driver: one source's mutable view of the arena and
/// counters, implementing both hooks of the [`FrontierVisitor`].
///
/// `admit` is the shared relax-time hook (exact, not just conservative:
/// the probe compares the full canonical key, so on the sequential path —
/// where a node's threshold cannot change between its discovery and its
/// pop within one search — every admitted candidate is also accepted at
/// pop time). `visit` keeps the canonical pop-time admission-and-insert
/// of Algorithm 1.
struct SeqDriver<'a> {
    arena: &'a mut PartialAdsArena,
    stats: &'a mut BuildStats,
    src: NodeId,
}

impl FrontierVisitor for SeqDriver<'_> {
    #[inline]
    fn admit(&mut self, v: NodeId, d: f64) -> bool {
        admit(self.arena, self.stats, v, self.src, d)
    }

    #[inline]
    fn visit(&mut self, v: NodeId, d: f64) -> Visit {
        self.stats.relaxations += 1;
        if self.arena.insert_rank_monotone(v, self.src, d) {
            self.stats.insertions += 1;
            Visit::Continue
        } else {
            Visit::Prune
        }
    }
}

/// Core loop, also used by the k-mins and k-partition builders
/// (`sources = Some(..)` restricts which nodes act as sources; all nodes
/// still *receive* entries). Reuses one [`Search`] over the transpose
/// across all sources.
pub(crate) fn run_core(
    g: &Graph,
    k: usize,
    ranks: &[f64],
    sources: Option<&[NodeId]>,
) -> Result<(PartialAdsArena, BuildStats), CoreError> {
    let n = g.num_nodes();
    validate_ranks(ranks, n)?;
    validate_k(k)?;
    let gt = g.transpose();
    let order = rank_order(ranks, sources, n);
    let mut arena = PartialAdsArena::new(k, ranks.to_vec());
    let mut stats = BuildStats::default();
    let mut search = Search::for_graph(&gt);
    for &u in &order {
        // The source seeds the frontier unfiltered (its self-entry is
        // judged by the pop-time test like everything else).
        stats.heap_pushes += 1;
        let mut driver = SeqDriver {
            arena: &mut arena,
            stats: &mut stats,
            src: u,
        };
        search.run(&gt, u, &mut driver);
    }
    Ok((arena, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_ranks;
    use adsketch_graph::generators;

    #[test]
    fn matches_brute_force_on_unweighted_digraph() {
        for seed in 0..5u64 {
            let g = generators::gnp_directed(60, 0.08, seed);
            let ranks = uniform_ranks(60, seed + 100);
            let fast = build_with_stats(&g, 3, &ranks).unwrap().0;
            let slow = crate::reference::build_bottomk(&g, 3, &ranks);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn matches_brute_force_on_weighted_digraph() {
        for seed in 0..5u64 {
            let g = generators::random_weighted_digraph(50, 4, 0.5, 3.0, seed);
            let ranks = uniform_ranks(50, seed + 200);
            let fast = build_with_stats(&g, 4, &ranks).unwrap().0;
            let slow = crate::reference::build_bottomk(&g, 4, &ranks);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn matches_brute_force_with_distance_ties() {
        // Unweighted undirected graphs are full of equal distances; the
        // canonical (dist, id) order must agree between builders.
        for seed in 0..5u64 {
            let g = generators::gnp(70, 0.06, seed + 9);
            let ranks = uniform_ranks(70, seed + 300);
            let fast = build_with_stats(&g, 2, &ranks).unwrap().0;
            let slow = crate::reference::build_bottomk(&g, 2, &ranks);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn disconnected_components_stay_separate() {
        // Two disjoint triangles.
        let g = Graph::undirected(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let ranks = uniform_ranks(6, 4);
        let set = build_with_stats(&g, 8, &ranks).unwrap().0;
        for v in 0..3u32 {
            assert_eq!(set.row(v).len(), 3, "k ≥ n: whole component sampled");
            assert!(set.row(v).nodes.iter().all(|&x| x < 3));
        }
        for v in 3..6u32 {
            assert!(set.row(v).nodes.iter().all(|&x| x >= 3));
        }
    }

    #[test]
    fn k_at_least_n_samples_everything() {
        let g = generators::gnp(30, 0.2, 1);
        let ranks = uniform_ranks(30, 2);
        let set = build_with_stats(&g, 64, &ranks).unwrap().0;
        let reach = adsketch_graph::bfs::reachable_count(&g, 0);
        assert_eq!(set.row(0).len(), reach);
        // HIP estimate is exact when everything is sampled with weight 1.
        let hip = set.hip(0);
        assert!((hip.reachable_estimate() - reach as f64).abs() < 1e-9);
    }

    #[test]
    fn pruning_reduces_relaxations() {
        let g = generators::barabasi_albert(500, 3, 7);
        let ranks = uniform_ranks(500, 8);
        let (_, stats) = build_with_stats(&g, 2, &ranks).unwrap();
        // Unpruned cost would be n · m; pruned must be far below.
        let full = (g.num_nodes() as u64) * (g.num_nodes() as u64);
        assert!(
            stats.relaxations < full / 4,
            "relaxations {} vs full {}",
            stats.relaxations,
            full
        );
        assert!(stats.insertions >= 500, "each node samples itself");
    }

    #[test]
    fn directed_forward_semantics() {
        // Path 0→1→2: ADS(0) samples downstream nodes, ADS(2) only itself.
        let g = Graph::directed(3, &[(0, 1), (1, 2)]).unwrap();
        let ranks = uniform_ranks(3, 5);
        let set = build_with_stats(&g, 4, &ranks).unwrap().0;
        let row = set.row(0);
        assert_eq!((row.len(), set.row(2).len()), (3, 1));
        let at = row.nodes.iter().position(|&x| x == 2).unwrap();
        assert_eq!(row.dists[at], 2.0);
    }

    #[test]
    fn zero_weight_edges_tie_correctly() {
        // Zero-weight arcs put several nodes at identical distances —
        // including distance 0 from each other — exercising the
        // (dist, id) tie-breaking everywhere at once.
        use adsketch_util::rng::{Rng64, SplitMix64};
        for seed in 0..4u64 {
            let mut rng = SplitMix64::new(seed);
            let n = 40usize;
            let mut arcs = Vec::new();
            for u in 0..n as u32 {
                for _ in 0..3 {
                    let v = rng.range_usize(n) as u32;
                    if v != u {
                        // Half the arcs have zero weight.
                        let w = if rng.bernoulli(0.5) { 0.0 } else { 1.0 };
                        arcs.push((u, v, w));
                    }
                }
            }
            let g = Graph::directed_weighted(n, &arcs).unwrap();
            let ranks = uniform_ranks(n, seed + 900);
            let fast = build_with_stats(&g, 3, &ranks).unwrap().0;
            let slow = crate::reference::build_bottomk(&g, 3, &ranks);
            assert_eq!(fast, slow, "seed {seed}");
            let lu = crate::builder::local_updates::build_with_stats(&g, 3, &ranks, 0.0)
                .unwrap()
                .0;
            assert_eq!(lu, slow, "local updates, seed {seed}");
        }
    }

    #[test]
    fn rejects_bad_ranks() {
        let g = generators::gnp(10, 0.3, 1);
        assert!(matches!(
            build_with_stats(&g, 2, &[0.5; 9]),
            Err(CoreError::RankCountMismatch { .. })
        ));
        let mut bad = uniform_ranks(10, 1);
        bad[3] = f64::NAN;
        assert!(matches!(
            build_with_stats(&g, 2, &bad),
            Err(CoreError::InvalidRank { .. })
        ));
        assert!(matches!(
            build_parallel_with_stats(&g, 2, &bad, 2),
            Err(CoreError::InvalidRank { .. })
        ));
        // k = 0 is a typed error from every static entry point, not an
        // arena panic.
        let ranks = uniform_ranks(10, 1);
        let zero_k = Err(CoreError::InvalidK { k: 0 });
        assert_eq!(build_with_stats(&g, 0, &ranks).map(|(s, _)| s), zero_k);
        for threads in [1, 2] {
            let set = build_parallel_with_stats(&g, 0, &ranks, threads).map(|(s, _)| s);
            assert_eq!(set, zero_k);
        }
        let dp = crate::builder::dp::build_with_stats(&g, 0, &ranks).map(|(s, _)| s);
        assert_eq!(dp, zero_k);
    }

    #[test]
    fn fast_paths_match_the_oracle_and_its_entry_count() {
        // The sequential and the wave-parallel build equal the brute
        // force bitwise on both weight regimes.
        let ug = generators::gnp(80, 0.06, 21);
        let wg = generators::random_weighted_digraph(70, 4, 0.5, 3.0, 22);
        for g in [&ug, &wg] {
            let ranks = uniform_ranks(g.num_nodes(), 23);
            let oracle = crate::reference::build_bottomk(g, 4, &ranks);
            let (fast, stats) = build_with_stats(g, 4, &ranks).unwrap();
            assert_eq!(fast, oracle);
            // Rank-monotone inserts are never retracted.
            assert_eq!(stats.insertions, oracle.num_entries() as u64);
            assert!(stats.pruned_at_relax > 0, "filter must fire");
            for threads in [1, 2, 4, 0] {
                let (par, par_stats) = build_parallel_with_stats(g, 4, &ranks, threads).unwrap();
                assert_eq!(par, oracle, "threads {threads}");
                assert_eq!(par_stats.insertions, stats.insertions);
            }
        }
    }

    #[test]
    fn relax_filter_is_exact_on_the_sequential_path() {
        // Within one source's search a node's threshold cannot change
        // between discovery and pop, so every candidate the relax filter
        // admits is also inserted at pop time: settled == inserted, except
        // for source seeds (which skip the filter and can be rejected at
        // their own pop under zero-weight ties).
        for g in pinned_graphs() {
            let ranks = uniform_ranks(g.num_nodes(), 33);
            let (_, stats) = build_with_stats(&g, 4, &ranks).unwrap();
            assert!(
                stats.relaxations - stats.insertions <= g.num_nodes() as u64,
                "settled {} vs inserted {} diverge beyond the source seeds",
                stats.relaxations,
                stats.insertions
            );
            // The level-synchronous BFS settles everything it enqueues.
            if !g.is_weighted() {
                assert_eq!(stats.relaxations, stats.heap_pushes);
            }
        }
    }

    /// One unit-weight graph (BFS frontier) and one weighted digraph
    /// (heap frontier).
    fn pinned_graphs() -> [Graph; 2] {
        [
            generators::barabasi_albert(400, 3, 31),
            generators::random_weighted_digraph(300, 4, 0.5, 3.0, 32),
        ]
    }

    /// The regression detector for the search core: its work counters on
    /// two fixed inputs. A change that moves any of them changed a
    /// pruning or frontier decision and has to say so.
    #[test]
    fn build_stats_are_pinned_on_fixed_graphs() {
        let pinned = [(9353, 9353, 14506, 9353), (6559, 7127, 10676, 6559)];
        for (g, want) in pinned_graphs().iter().zip(pinned) {
            let ranks = uniform_ranks(g.num_nodes(), 33);
            let (_, s) = build_with_stats(g, 4, &ranks).unwrap();
            assert_eq!(
                (
                    s.relaxations,
                    s.heap_pushes,
                    s.pruned_at_relax,
                    s.insertions
                ),
                want
            );
        }
    }

    /// The same counters for the two bottom-1 callers of `run_core`: the
    /// k-mins passes (one per permutation) and the k-partition passes
    /// (one per bucket, only its members as sources), summed over passes.
    #[test]
    fn kmins_and_kpartition_stats_are_pinned_on_fixed_graphs() {
        use adsketch_util::RankHasher;
        let pinned = [
            ((11964, 11964, 25842, 11964), (8015, 8015, 14020, 8015)),
            ((7707, 8242, 16172, 7707), (5959, 6467, 10073, 5959)),
        ];
        let counters = |s: BuildStats| {
            (
                s.relaxations,
                s.heap_pushes,
                s.pruned_at_relax,
                s.insertions,
            )
        };
        for (g, want) in pinned_graphs().iter().zip(pinned) {
            let h = RankHasher::new(33);
            let (_, kmins) = crate::builder::kmins::build_with_stats(g, 4, &h, 1).unwrap();
            let (_, kpart) = crate::builder::kpartition::build_with_stats(g, 4, &h, 1).unwrap();
            assert_eq!((counters(kmins), counters(kpart)), want);
        }
    }
}
