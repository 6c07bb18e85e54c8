//! LocalUpdates ADS construction (paper, Algorithm 2): node-centric
//! message passing for weighted graphs, executed in synchronized rounds
//! as on Pregel/MapReduce-style platforms — as a batch builder over a
//! whole graph, and as [`DynamicAds`], which applies the same rule to one
//! arriving arc at a time (paper, Section 4).
//!
//! Unlike PrunedDijkstra and DP, entries can be admitted and later
//! *displaced* when a shorter path or a lower-ranked closer node arrives —
//! the overhead the paper bounds with the `(1+ε)`-approximate admission
//! rule (pass `epsilon > 0`). With `epsilon = 0` the fixpoint equals the
//! exact canonical ADS.
//!
//! Both entry points are one kernel: a columnar `LiveSketch` per node
//! (layout, the `lower` column and why its single retraction pass is
//! exact: see `partial.rs`) and one round loop whose two mailboxes are
//! allocated once and swapped, so a relaxation in steady state allocates
//! nothing. They differ only in how the first inbox is seeded, in where
//! the in-arcs come from, and in `ε`.

use adsketch_graph::{Graph, NodeId};

use crate::ads_set::AdsSet;
use crate::builder::{validate_ranks, BuildStats, LiveSketch};
use crate::error::CoreError;

/// A message: "node `node` is at distance `dist` of you" (its rank is
/// looked up on delivery).
#[derive(Debug, Clone, Copy)]
struct Msg {
    target: NodeId,
    node: NodeId,
    dist: f64,
}

/// The local-update state of an `n`-node graph and the round loop over it.
#[derive(Debug, Clone)]
struct Kernel {
    k: usize,
    epsilon: f64,
    ranks: Vec<f64>,
    sketches: Vec<LiveSketch>,
    stats: BuildStats,
    /// The round loop's mailboxes. Scratch: both are empty between calls
    /// (so a clone copies none of it) and keep their capacity.
    inbox: Vec<Msg>,
    outbox: Vec<Msg>,
}

impl Kernel {
    /// Every node holds only itself.
    fn new(n: usize, k: usize, epsilon: f64, ranks: Vec<f64>) -> Result<Self, CoreError> {
        if !(epsilon.is_finite() && epsilon >= 0.0) {
            return Err(CoreError::InvalidEpsilon { epsilon });
        }
        validate_ranks(&ranks, n)?;
        if !(1..=LiveSketch::MAX_K).contains(&k) {
            return Err(CoreError::InvalidK { k });
        }
        let mut sketches = vec![LiveSketch::default(); n];
        for (u, s) in sketches.iter_mut().enumerate() {
            s.insert(k, u as NodeId, 0.0, ranks[u], epsilon);
        }
        let stats = BuildStats {
            insertions: n as u64,
            ..BuildStats::default()
        };
        Ok(Self {
            k,
            epsilon,
            ranks,
            sketches,
            stats,
            inbox: Vec::new(),
            outbox: Vec::new(),
        })
    }

    /// Delivers the inbox and everything it sets off, round by round, to
    /// the fixpoint: an entry admitted at `t` is re-sent along every
    /// `(y, w)` of `in_arcs(t)`, the arcs `y → t`.
    fn run_rounds<I: Iterator<Item = (NodeId, f64)>>(&mut self, in_arcs: impl Fn(NodeId) -> I) {
        while !self.inbox.is_empty() {
            self.stats.rounds += 1;
            // Keep only the shortest copy of each (target, node) pair this
            // round — a cheap, semantics-preserving message reduction.
            self.inbox.sort_unstable_by(|a, b| {
                (a.target, a.node)
                    .cmp(&(b.target, b.node))
                    .then(a.dist.total_cmp(&b.dist))
            });
            self.inbox.dedup_by_key(|m| (m.target, m.node));
            for m in self.inbox.drain(..) {
                self.stats.relaxations += 1;
                let rank = self.ranks[m.node as usize];
                let (inserted, removed) = self.sketches[m.target as usize].insert(
                    self.k,
                    m.node,
                    m.dist,
                    rank,
                    self.epsilon,
                );
                self.stats.removals += removed as u64;
                if inserted {
                    self.stats.insertions += 1;
                    self.outbox.extend(in_arcs(m.target).map(|(y, w)| Msg {
                        target: y,
                        node: m.node,
                        dist: m.dist + w,
                    }));
                }
            }
            std::mem::swap(&mut self.inbox, &mut self.outbox);
        }
    }
}

/// Builds the forward bottom-k ADS set, with work counters. With
/// `epsilon = 0` the set is exact; with `epsilon > 0` it is the
/// `(1+ε)`-approximate ADS: candidate entries must beat the k-th smallest
/// rank within distance `(1+ε)·d`, trading sketch exactness for a
/// provably logarithmic retraction overhead (paper, Section 3).
pub fn build_with_stats(
    g: &Graph,
    k: usize,
    ranks: &[f64],
    epsilon: f64,
) -> Result<(AdsSet, BuildStats), CoreError> {
    let n = g.num_nodes();
    let mut kernel = Kernel::new(n, k, epsilon, ranks.to_vec())?;
    let gt = g.transpose();
    // Initialization: each node announces itself to its in-neighbors.
    for u in 0..n as NodeId {
        let hello = gt.arcs(u).map(|(target, dist)| Msg {
            target,
            node: u,
            dist,
        });
        kernel.inbox.extend(hello);
    }
    kernel.run_rounds(|t| gt.arcs(t));
    Ok((
        LiveSketch::store(k, &kernel.sketches, &kernel.ranks),
        kernel.stats,
    ))
}

/// An incrementally maintained exact bottom-k ADS set over a growing
/// edge stream (paper, Section 4): arcs arrive one at a time and each
/// insertion runs the local-update rule to a fixpoint, so after every
/// [`insert_edge`](DynamicAds::insert_edge) the held sketches are the
/// canonical ADS of the graph seen so far.
///
/// The maintenance rule is the same relaxation the batch builder uses
/// (the same kernel with ε = 0), seeded from the sketch of the new arc's
/// head: every current entry `(j, d)` of `ADS(v)` is offered to `u` at
/// distance `d + w`, and admitted entries propagate along the in-arcs
/// accumulated so far. Admission thresholds only ever
/// tighten as edges arrive, so a rejection against the *current* sketch
/// is also a rejection against the *final* one — the standing soundness
/// invariant carries over verbatim — while entries admitted on stale
/// thresholds are displaced by the insert's retraction pass. Distances
/// accumulate in the same reverse-path association order as every other
/// builder, so the fixpoint is **bitwise identical** to a from-scratch
/// [`AdsSet::build`] on the final graph, regardless of the order edges
/// were inserted in (gated by the `dynamic_*` tests here and the
/// insertion-order proptest in the workspace suite).
#[derive(Debug, Clone)]
pub struct DynamicAds {
    kernel: Kernel,
    /// `in_arcs[t]` lists `(y, w)` for every distinct inserted arc
    /// `y → t`, at the lightest weight seen: the transpose adjacency,
    /// grown incrementally, along which admitted entries propagate
    /// (mirrors `gt.arcs(t)` in the batch builder).
    in_arcs: Vec<Vec<(NodeId, f64)>>,
    edges: u64,
}

impl DynamicAds {
    /// An edgeless `n`-node dynamic sketch set with the same
    /// [`uniform_ranks`](crate::uniform_ranks) rank assignment
    /// [`AdsSet::build`] uses for `seed` — so
    /// `DynamicAds::new(n, k, seed)` fed any permutation of a graph's
    /// arcs compares bitwise against `AdsSet::build(&g, k, seed)`.
    ///
    /// # Panics
    /// If `k` is outside `1..=65535` (see [`Self::with_ranks`]).
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        Self::with_ranks(k, crate::uniform_ranks(n, seed))
            .expect("uniform ranks are valid; k must be in 1..=65535")
    }

    /// An edgeless dynamic sketch set over explicit per-node ranks
    /// (`n = ranks.len()`), for `k` in `1..=65535`.
    pub fn with_ranks(k: usize, ranks: Vec<f64>) -> Result<Self, CoreError> {
        let n = ranks.len();
        Ok(Self {
            kernel: Kernel::new(n, k, 0.0, ranks)?,
            in_arcs: vec![Vec::new(); n],
            edges: 0,
        })
    }

    /// Inserts the directed arc `u → v` with weight `w` and restores the
    /// exact-ADS invariant by running the local-update rule to its
    /// fixpoint. Undirected edges are two calls. Parallel arcs,
    /// self-loops, and zero weights are all legal (zero-weight cycles
    /// terminate because an equal-distance candidate is rejected, not
    /// propagated).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<(), CoreError> {
        let n = self.num_nodes();
        for node in [u, v] {
            if node as usize >= n {
                return Err(CoreError::NodeOutOfRange { node, nodes: n });
            }
        }
        if !(w.is_finite() && w >= 0.0) {
            return Err(CoreError::InvalidWeight { weight: w });
        }
        // Of parallel arcs only the lightest can carry a shortest path:
        // FP addition is monotone, so `d + w` never beats `d + lighter`.
        match self.in_arcs[v as usize].iter_mut().find(|a| a.0 == u) {
            Some(arc) => arc.1 = arc.1.min(w),
            None => self.in_arcs[v as usize].push((u, w)),
        }
        self.edges += 1;

        // Seed: every current entry of ADS(v) crosses the new arc into
        // u — exactly the messages the batch builder would have sent
        // along this arc when those entries were admitted at v. Distance
        // accumulates as `entry.dist + w`, matching the batch builder's
        // `m.dist + w` association order bit for bit.
        let seeds = self.kernel.sketches[v as usize].iter();
        self.kernel.inbox.extend(seeds.map(|(node, dist)| Msg {
            target: u,
            node,
            dist: dist + w,
        }));
        let in_arcs = &self.in_arcs;
        self.kernel
            .run_rounds(|t| in_arcs[t as usize].iter().copied());
        Ok(())
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kernel.ranks.len()
    }

    /// Sketch parameter k.
    pub fn k(&self) -> usize {
        self.kernel.k
    }

    /// Number of arcs applied so far (every call counts, parallel arcs
    /// included).
    pub fn edges_applied(&self) -> u64 {
        self.edges
    }

    /// Cumulative work counters across all insertions.
    pub fn stats(&self) -> &BuildStats {
        &self.kernel.stats
    }

    /// The current sketches as the columnar store — bitwise identical
    /// to `AdsSet::build` on the graph of all arcs inserted so far (with
    /// matching ranks), HIP weights included, and ready to shard. The
    /// live state keeps accepting edges; this is the freezer's snapshot
    /// point.
    pub fn snapshot(&self) -> AdsSet {
        LiveSketch::store(self.kernel.k, &self.kernel.sketches, &self.kernel.ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_ranks;
    use adsketch_graph::generators;

    #[test]
    fn matches_pruned_dijkstra_on_weighted_digraphs() {
        for seed in 0..6u64 {
            let g = generators::random_weighted_digraph(50, 4, 0.5, 2.5, seed);
            let ranks = uniform_ranks(50, seed + 600);
            let lu = build_with_stats(&g, 3, &ranks, 0.0).unwrap().0;
            let pd = crate::builder::pruned_dijkstra::build_with_stats(&g, 3, &ranks)
                .unwrap()
                .0;
            assert_eq!(lu, pd, "seed {seed}");
        }
    }

    #[test]
    fn matches_on_unweighted_with_ties() {
        for seed in 0..4u64 {
            let g = generators::gnp(50, 0.08, seed + 31);
            let ranks = uniform_ranks(50, seed + 700);
            let lu = build_with_stats(&g, 2, &ranks, 0.0).unwrap().0;
            let brute = crate::reference::build_bottomk(&g, 2, &ranks);
            assert_eq!(lu, brute, "seed {seed}");
        }
    }

    #[test]
    fn handles_weighted_undirected() {
        let edges =
            generators::assign_uniform_weights(&generators::gnp_edges(40, 0.1, 3), 0.5, 2.0, 4);
        let g = Graph::undirected_weighted(40, &edges).unwrap();
        let ranks = uniform_ranks(40, 5);
        let lu = build_with_stats(&g, 4, &ranks, 0.0).unwrap().0;
        let pd = crate::builder::pruned_dijkstra::build_with_stats(&g, 4, &ranks)
            .unwrap()
            .0;
        assert_eq!(lu, pd);
    }

    #[test]
    fn rejects_negative_epsilon() {
        let g = generators::gnp(5, 0.5, 1);
        let ranks = uniform_ranks(5, 1);
        assert!(matches!(
            build_with_stats(&g, 2, &ranks, -0.5),
            Err(CoreError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn approx_mode_reduces_churn_and_respects_guarantee() {
        // A graph engineered for retractions: long chain distances that
        // shortcut edges later undercut.
        let g = generators::random_weighted_digraph(80, 5, 0.1, 10.0, 12);
        let ranks = uniform_ranks(80, 13);
        let (exact, exact_stats) = build_with_stats(&g, 4, &ranks, 0.0).unwrap();
        let eps = 0.25;
        let (approx, approx_stats) = build_with_stats(&g, 4, &ranks, eps).unwrap();
        assert!(
            approx_stats.insertions <= exact_stats.insertions,
            "ε-rule must not insert more ({} vs {})",
            approx_stats.insertions,
            exact_stats.insertions
        );
        // Guarantee: every entry of the exact ADS that is missing from the
        // approximate one must fail the (1+ε)-relaxed threshold, i.e. the
        // approx sketch holds k entries within (1+ε)·d with lower ranks.
        for v in 0..80u32 {
            let ap = approx.row(v);
            for e in exact.row(v).entries() {
                if ap.nodes.contains(&e.node) {
                    continue;
                }
                let blockers = ap
                    .entries()
                    .filter(|b| {
                        b.dist <= e.dist * (1.0 + eps) && (b.rank, b.node) < (e.rank, e.node)
                    })
                    .count();
                assert!(
                    blockers >= 4,
                    "node {v}: dropped entry {} lacks (1+ε) justification",
                    e.node
                );
            }
        }
    }

    #[test]
    fn stats_report_retractions_on_adversarial_order() {
        // A weighted graph where low-rank nodes are far: entries inserted
        // early must later be displaced.
        let mut arcs = Vec::new();
        // Chain 0→1→…→19 with weight 1 plus a shortcut 0→19 of weight 30
        // (the shortcut delivers node 19's entries early at distance 30,
        // then the chain path displaces them with distance 19).
        for i in 0..19u32 {
            arcs.push((i, i + 1, 1.0));
        }
        arcs.push((0, 19, 30.0));
        let g = Graph::directed_weighted(20, &arcs).unwrap();
        // Transposed propagation: messages flow 19→…→0.
        let ranks = uniform_ranks(20, 21);
        let (set, _stats) = build_with_stats(&g, 2, &ranks, 0.0).unwrap();
        let pd = crate::builder::pruned_dijkstra::build_with_stats(&g, 2, &ranks)
            .unwrap()
            .0;
        assert_eq!(set, pd);
        // The shortest distance must win for node 19 in ADS(0) if present.
        let row = set.row(0);
        if let Some(i) = row.nodes.iter().position(|&x| x == 19) {
            assert_eq!(row.dists[i], 19.0);
        }
    }

    #[test]
    fn dynamic_matches_batch_build_bitwise() {
        for seed in 0..5u64 {
            let g = generators::random_weighted_digraph(60, 4, 0.5, 2.5, seed);
            let batch = AdsSet::build(&g, 3, seed + 40);
            let mut dyn_ads = DynamicAds::new(60, 3, seed + 40);
            for u in 0..60u32 {
                for (v, w) in g.arcs(u) {
                    dyn_ads.insert_edge(u, v, w).unwrap();
                }
            }
            assert_eq!(dyn_ads.snapshot(), batch, "seed {seed}");
            assert_eq!(dyn_ads.edges_applied(), g.num_arcs() as u64);
        }
    }

    #[test]
    fn dynamic_is_insertion_order_invariant() {
        let g = generators::random_weighted_digraph(40, 4, 0.5, 2.5, 9);
        let mut arcs: Vec<(u32, u32, f64)> = Vec::new();
        for u in 0..40u32 {
            for (v, w) in g.arcs(u) {
                arcs.push((u, v, w));
            }
        }
        let batch = AdsSet::build(&g, 4, 77);
        // Forward, reversed, and a deterministic shuffle.
        let mut shuffled = arcs.clone();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let orders = [
            arcs.clone(),
            arcs.iter().rev().copied().collect::<Vec<_>>(),
            shuffled,
        ];
        for (i, order) in orders.iter().enumerate() {
            let mut dyn_ads = DynamicAds::new(40, 4, 77);
            for &(u, v, w) in order {
                dyn_ads.insert_edge(u, v, w).unwrap();
            }
            assert_eq!(dyn_ads.snapshot(), batch, "order {i}");
        }
    }

    #[test]
    fn dynamic_handles_zero_weights_self_loops_and_parallel_arcs() {
        // Zero-weight 2-cycle, a self-loop, and a parallel arc pair.
        let arcs: Vec<(u32, u32, f64)> = vec![
            (0, 1, 0.0),
            (1, 0, 0.0),
            (2, 2, 1.0),
            (0, 2, 3.0),
            (0, 2, 1.5),
            (2, 3, 0.5),
            (3, 1, 0.0),
        ];
        let g = Graph::directed_weighted(4, &arcs).unwrap();
        let batch = AdsSet::build(&g, 2, 5);
        let mut dyn_ads = DynamicAds::new(4, 2, 5);
        for &(u, v, w) in &arcs {
            dyn_ads.insert_edge(u, v, w).unwrap();
        }
        assert_eq!(dyn_ads.snapshot(), batch);
        // A repeated arc is stored once, at its lightest weight, however
        // often and in whatever order its copies arrive.
        for i in 0..1000 {
            dyn_ads.insert_edge(0, 2, 1.5 + (i % 3) as f64).unwrap();
        }
        assert_eq!(dyn_ads.in_arcs[2], vec![(2, 1.0), (0, 1.5)]);
        assert_eq!(dyn_ads.edges_applied(), arcs.len() as u64 + 1000);
        assert_eq!(dyn_ads.snapshot(), batch);
        dyn_ads.insert_edge(0, 2, 0.25).unwrap();
        assert_eq!(dyn_ads.in_arcs[2], vec![(2, 1.0), (0, 0.25)]);
        let mut lighter = arcs.clone();
        lighter.push((0, 2, 0.25));
        let g = Graph::directed_weighted(4, &lighter).unwrap();
        assert_eq!(dyn_ads.snapshot(), AdsSet::build(&g, 2, 5));
    }

    /// The counters are the algorithm's, not the kernel's: a fixed
    /// 60-node / 240-arc shuffled stream (no parallel arcs) costs exactly
    /// what it cost on the array-of-entries kernel the columnar one
    /// replaced, which keeps the benchmark's
    /// `core.builder.local_updates.*_per_edge` rows comparable across
    /// kernels.
    #[test]
    fn dynamic_stats_are_pinned_on_a_fixed_stream() {
        use adsketch_util::{Rng64, SplitMix64};
        let mut rng = SplitMix64::new(14);
        let mut arcs: Vec<(u32, u32, f64)> = Vec::new();
        for u in 0..60u32 {
            let mut heads: Vec<u32> = Vec::new();
            while heads.len() < 4 {
                let v = rng.range_usize(60) as u32;
                if v != u && !heads.contains(&v) {
                    heads.push(v);
                    arcs.push((u, v, 0.5 + 0.25 * rng.range_usize(8) as f64));
                }
            }
        }
        rng.shuffle(&mut arcs);
        assert_eq!(arcs.len(), 240);
        let mut dyn_ads = DynamicAds::new(60, 4, 14);
        for &(u, v, w) in &arcs {
            dyn_ads.insert_edge(u, v, w).unwrap();
        }
        let g = Graph::directed_weighted(60, &arcs).unwrap();
        assert_eq!(dyn_ads.snapshot(), AdsSet::build(&g, 4, 14));
        let s = dyn_ads.stats();
        assert_eq!(
            (s.relaxations, s.insertions, s.removals, s.rounds),
            (8244, 3083, 991, 799)
        );
    }

    #[test]
    fn dynamic_every_prefix_is_exact() {
        // The invariant holds after *every* insertion, not just the last:
        // each prefix of the stream answers identically to a batch build
        // on that prefix.
        let g = generators::random_weighted_digraph(25, 3, 0.5, 2.0, 3);
        let mut arcs: Vec<(u32, u32, f64)> = Vec::new();
        for u in 0..25u32 {
            for (v, w) in g.arcs(u) {
                arcs.push((u, v, w));
            }
        }
        let mut dyn_ads = DynamicAds::new(25, 3, 11);
        for i in 0..arcs.len() {
            let (u, v, w) = arcs[i];
            dyn_ads.insert_edge(u, v, w).unwrap();
            if i % 7 == 0 || i + 1 == arcs.len() {
                let prefix = Graph::directed_weighted(25, &arcs[..=i]).unwrap();
                assert_eq!(
                    dyn_ads.snapshot(),
                    AdsSet::build(&prefix, 3, 11),
                    "prefix {i}"
                );
            }
        }
    }

    #[test]
    fn dynamic_rejects_bad_edges() {
        let mut dyn_ads = DynamicAds::new(4, 2, 1);
        assert!(matches!(
            dyn_ads.insert_edge(0, 4, 1.0),
            Err(CoreError::NodeOutOfRange { node: 4, nodes: 4 })
        ));
        assert!(matches!(
            dyn_ads.insert_edge(0, 1, -1.0),
            Err(CoreError::InvalidWeight { .. })
        ));
        assert!(matches!(
            dyn_ads.insert_edge(0, 1, f64::NAN),
            Err(CoreError::InvalidWeight { .. })
        ));
        assert_eq!(dyn_ads.edges_applied(), 0);
        for k in [0, 65536] {
            assert!(matches!(
                DynamicAds::with_ranks(k, vec![0.5; 3]),
                Err(CoreError::InvalidK { .. })
            ));
        }
    }

    #[test]
    fn dynamic_snapshot_leaves_live_state_usable() {
        let mut dyn_ads = DynamicAds::new(10, 2, 2);
        dyn_ads.insert_edge(0, 1, 1.0).unwrap();
        let first = dyn_ads.snapshot();
        dyn_ads.insert_edge(1, 2, 1.0).unwrap();
        let second = dyn_ads.snapshot();
        assert_eq!(first.k(), 2);
        // The earlier snapshot is unaffected by later inserts.
        assert!(!first.row(0).nodes.contains(&2));
        assert!(second.row(0).nodes.contains(&2));
        // A clone carries the sketches but none of the mailbox scratch.
        assert!(dyn_ads.kernel.inbox.capacity() > 0);
        let mut twin = dyn_ads.clone();
        assert_eq!(
            twin.kernel.inbox.capacity() + twin.kernel.outbox.capacity(),
            0
        );
        twin.insert_edge(2, 3, 1.0).unwrap();
        dyn_ads.insert_edge(2, 3, 1.0).unwrap();
        assert_eq!(twin.snapshot(), dyn_ads.snapshot());
    }
}
