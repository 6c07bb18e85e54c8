//! HIP adjusted weights and query evaluation (paper, Section 5).
//!
//! A [`HipWeights`] is the estimator-ready form of an ADS: each sampled
//! node carries an *adjusted weight* `a_vj = 1/τ_vj ≥ 1`, the inverse of
//! its conditional ("historic") inclusion probability. Because
//! `E[a_vj] = 1` for every node reachable from `v` (and 0 contributes for
//! excluded nodes), any statistic of the form `Q_g(v) = Σ_j g(j, d_vj)` is
//! estimated *unbiasedly* by the sum `Σ_{j ∈ ADS(v)} a_vj · g(j, d_vj)` —
//! equation (5) of the paper — evaluated over only `O(k log n)` sketch
//! entries.
//!
//! The flavor-specific HIP probability computations live with their sketch
//! types ([`crate::kmins`], [`crate::kpartition`], [`crate::tieless`],
//! [`crate::weighted`]); they all produce this type, as does the bottom-k
//! heap oracle [`crate::reference::hip_weights`]. The frozen store's
//! freeze and its v2 encoder share one heap-free bottom-k threshold scan,
//! `TauScan`.

use adsketch_graph::NodeId;

/// The Lemma 5.1 threshold scan over one ADS row: the ≤ k smallest ranks
/// offered so far, with their row positions, in ascending rank order.
///
/// Every bottom-k ADS entry enters its prefix's bottom-k, so τ of entry
/// `i` is the largest held rank before `i` is offered, and a sorted array
/// of at most k slots (one insertion step per offer) replaces a heap. An
/// equal rank is placed before the ranks already held, and at capacity
/// only a strictly smaller rank enters, so among tied ranks the threshold
/// slot is the oldest one: the position the v2 encoder's τ
/// back-references name.
#[derive(Debug)]
pub(crate) struct TauScan {
    k: usize,
    /// `(rank, position in row)`, ascending by rank; at most `k` slots.
    slots: Vec<(f64, u32)>,
}

impl TauScan {
    /// An empty scan keeping the `k` smallest ranks.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            slots: Vec::with_capacity(k),
        }
    }

    /// Forgets every slot: the next offer starts a new row.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.slots.clear();
    }

    /// The current threshold `(τ, position)`: the k-th smallest rank
    /// offered so far and the row position it came from, or `None` while
    /// fewer than k ranks are held (τ is then 1, the supremum of the rank
    /// domain).
    #[inline]
    pub(crate) fn threshold(&self) -> Option<(f64, u32)> {
        if self.slots.len() == self.k {
            self.slots.last().copied()
        } else {
            None
        }
    }

    /// Offers the rank of the entry at row position `at`; returns whether
    /// it was kept. Once k slots are full a rank enters only if it is
    /// strictly below the threshold, and the threshold slot is dropped.
    #[inline]
    pub(crate) fn offer(&mut self, rank: f64, at: u32) -> bool {
        let mut i = self.slots.len();
        if i == self.k {
            if rank.partial_cmp(&self.slots[i - 1].0) != Some(std::cmp::Ordering::Less) {
                return false;
            }
            // The threshold slot is dropped: shifted over or overwritten.
            i -= 1;
        } else {
            // Grows by one slot; the step below fills it.
            self.slots.push((rank, at));
        }
        // Insertion step: every held rank ≥ `rank` moves one slot up.
        let slots = &mut self.slots[..];
        while i > 0 && !slots[i - 1].0.total_cmp(&rank).is_lt() {
            slots[i] = slots[i - 1];
            i -= 1;
        }
        slots[i] = (rank, at);
        true
    }
}

/// One HIP item: a sampled node, its distance, and its adjusted weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HipItem {
    /// The sampled node.
    pub node: NodeId,
    /// Distance from the sketch's source node.
    pub dist: f64,
    /// Adjusted weight `1/τ ≥ 1`.
    pub weight: f64,
}

/// The HIP half of one node's ADS, borrowed: sampled nodes, distances
/// and adjusted weights in canonical `(dist, node)` order. A store lends
/// it through [`crate::view::Row::hip`], an owned [`HipWeights`] through
/// [`HipWeights::row`]; every HIP estimator is defined here, once.
///
/// **Accumulation rule.** Every sum starts at `+0.0` and adds its terms
/// one at a time in canonical order. An empty sum is therefore `+0.0`
/// (`Iterator::sum` over `f64` starts at `−0.0`), and one row gives one
/// bit pattern whichever store or batch path lent it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HipRow<'a> {
    /// The sampled nodes.
    pub nodes: &'a [NodeId],
    /// Their distances from the row's source.
    pub dists: &'a [f64],
    /// Their adjusted weights `1/τ ≥ 1`.
    pub weights: &'a [f64],
}

/// Sums `terms` under [`HipRow`]'s accumulation rule.
#[inline]
fn sum(terms: impl Iterator<Item = f64>) -> f64 {
    terms.fold(0.0, |acc, x| acc + x)
}

impl<'a> HipRow<'a> {
    /// Number of sketch entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the sketch was empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The weighted items in canonical order.
    pub fn items(&self) -> impl ExactSizeIterator<Item = HipItem> + 'a {
        self.nodes
            .iter()
            .zip(self.dists)
            .zip(self.weights)
            .map(|((&node, &dist), &weight)| HipItem { node, dist, weight })
    }

    /// HIP estimate of the d-neighborhood cardinality `|N_d(v)|`
    /// (nodes within distance ≤ `d`, including the source):
    /// `Σ_{dist ≤ d} a_vj`. Unbiased; CV ≤ `1/sqrt(2(k−1))` (Theorem 5.1).
    pub fn cardinality_at(&self, d: f64) -> f64 {
        let cut = self.dists.partition_point(|&x| x <= d);
        sum(self.weights[..cut].iter().copied())
    }

    /// HIP estimate of the number of reachable nodes (including the
    /// source).
    pub fn reachable_estimate(&self) -> f64 {
        sum(self.weights.iter().copied())
    }

    /// The estimated cumulative neighborhood function: for each distinct
    /// distance in the sketch, the estimated `|N_d(v)|`. The exact
    /// counterpart is `adsketch_graph::exact::neighborhood_function`.
    pub fn neighborhood_function(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut acc = 0.0;
        for (&dist, &w) in self.dists.iter().zip(self.weights) {
            acc += w;
            match out.last_mut() {
                Some(last) if last.0 == dist => last.1 = acc,
                _ => out.push((dist, acc)),
            }
        }
        out
    }

    /// HIP estimate of a general distance-based statistic
    /// `Q_g(v) = Σ_{j reachable} g(j, d_vj)` (paper equations (1)/(5)):
    /// `Σ_{j ∈ ADS} a_vj · g(j, d_vj)`. `g` must be non-negative for the
    /// variance bounds to apply; unbiasedness holds for any `g`.
    pub fn qg<F>(&self, mut g: F) -> f64
    where
        F: FnMut(NodeId, f64) -> f64,
    {
        sum(self.items().map(|it| it.weight * g(it.node, it.dist)))
    }

    /// HIP estimate of the distance-decay centrality
    /// `C_{α,β}(v) = Σ_j α(d_vj) β(j)` (paper equations (2)/(3)) — `α`
    /// non-increasing, `β` an arbitrary non-negative node filter that may
    /// be chosen after the sketch was built.
    pub fn centrality<A, B>(&self, mut alpha: A, mut beta: B) -> f64
    where
        A: FnMut(f64) -> f64,
        B: FnMut(NodeId) -> f64,
    {
        self.qg(|node, dist| alpha(dist) * beta(node))
    }

    /// Estimated distance quantile: the smallest sketch distance `d` such
    /// that the estimated `|N_d(v)|` reaches a `q` fraction of the
    /// estimated reachable set — e.g. `q = 0.5` gives the estimated median
    /// distance from `v`, a per-node effective-radius statistic.
    pub fn distance_quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let total = self.reachable_estimate();
        if total == 0.0 {
            return None;
        }
        let need = q * total;
        let mut acc = 0.0;
        let idx = self
            .weights
            .iter()
            .position(|&w| {
                acc += w;
                acc >= need
            })
            .unwrap_or(self.len() - 1);
        Some(self.dists[idx])
    }

    /// Compresses to a distance → adjusted-weight list, dropping node
    /// identities (the paper's note after equation (5): sufficient for any
    /// statistic where `g` depends only on distance).
    pub fn compress_distances(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (&dist, &w) in self.dists.iter().zip(self.weights) {
            match out.last_mut() {
                Some(last) if last.0 == dist => last.1 += w,
                _ => out.push((dist, w)),
            }
        }
        out
    }
}

/// Owned HIP adjusted weights of one ADS, in canonical `(dist, node)`
/// order: what the per-sketch flavours and the heap reference compute.
/// Its estimators are [`HipRow`]'s, through [`HipWeights::row`].
#[derive(Debug, Clone, PartialEq)]
pub struct HipWeights {
    nodes: Vec<NodeId>,
    dists: Vec<f64>,
    weights: Vec<f64>,
}

impl HipWeights {
    /// Wraps items already sorted canonically by `(dist, node)`.
    pub fn from_sorted_items(items: Vec<HipItem>) -> Self {
        debug_assert!(items
            .windows(2)
            .all(|w| (w[0].dist, w[0].node) <= (w[1].dist, w[1].node)));
        debug_assert!(items
            .iter()
            .all(|it| it.weight >= 0.0 && it.weight.is_finite()));
        Self {
            nodes: items.iter().map(|it| it.node).collect(),
            dists: items.iter().map(|it| it.dist).collect(),
            weights: items.iter().map(|it| it.weight).collect(),
        }
    }

    /// The weights as a borrowed row.
    #[inline]
    pub fn row(&self) -> HipRow<'_> {
        HipRow {
            nodes: &self.nodes,
            dists: &self.dists,
            weights: &self.weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HipWeights {
        HipWeights::from_sorted_items(vec![
            HipItem {
                node: 0,
                dist: 0.0,
                weight: 1.0,
            },
            HipItem {
                node: 2,
                dist: 1.0,
                weight: 1.0,
            },
            HipItem {
                node: 5,
                dist: 1.0,
                weight: 2.0,
            },
            HipItem {
                node: 1,
                dist: 3.0,
                weight: 4.0,
            },
        ])
    }

    #[test]
    fn cardinality_queries() {
        let h = sample();
        let h = h.row();
        assert_eq!(h.cardinality_at(-0.5), 0.0);
        assert_eq!(h.cardinality_at(0.0), 1.0);
        assert_eq!(h.cardinality_at(1.0), 4.0);
        assert_eq!(h.cardinality_at(2.9), 4.0);
        assert_eq!(h.cardinality_at(3.0), 8.0);
        assert_eq!(h.reachable_estimate(), 8.0);
    }

    #[test]
    fn neighborhood_function_merges_equal_distances() {
        assert_eq!(
            sample().row().neighborhood_function(),
            vec![(0.0, 1.0), (1.0, 4.0), (3.0, 8.0)]
        );
    }

    #[test]
    fn qg_weights_statistics() {
        let h = sample();
        let h = h.row();
        // g = 1 ⇒ reachability estimate.
        assert_eq!(h.qg(|_, _| 1.0), 8.0);
        // g = dist ⇒ estimated sum of distances.
        assert_eq!(h.qg(|_, d| d), 1.0 + 2.0 + 12.0);
        // g filtering on node id.
        assert_eq!(h.qg(|n, _| if n == 5 { 1.0 } else { 0.0 }), 2.0);
    }

    #[test]
    fn centrality_combines_alpha_beta() {
        // Threshold kernel at distance 1, filter to even node ids: nodes 0
        // (w=1) and 2 (w=1) qualify; node 5 is odd, node 1 is too far.
        let c = sample().row().centrality(
            |d| if d <= 1.0 { 1.0 } else { 0.0 },
            |n| if n % 2 == 0 { 1.0 } else { 0.0 },
        );
        assert_eq!(c, 2.0);
    }

    #[test]
    fn distance_quantile_walks_the_step_function() {
        let h = sample(); // cumulative: 1 @0, 4 @1, 8 @3
        let h = h.row();
        assert_eq!(h.distance_quantile(0.0), Some(0.0));
        assert_eq!(h.distance_quantile(0.1), Some(0.0)); // 0.8 ≤ 1
        assert_eq!(h.distance_quantile(0.5), Some(1.0)); // 4 ≤ 4
        assert_eq!(h.distance_quantile(0.51), Some(3.0));
        assert_eq!(h.distance_quantile(1.0), Some(3.0));
        assert_eq!(
            HipWeights::from_sorted_items(Vec::new())
                .row()
                .distance_quantile(0.5),
            None
        );
    }

    #[test]
    fn compress_distances_sums_weights() {
        assert_eq!(
            sample().row().compress_distances(),
            vec![(0.0, 1.0), (1.0, 3.0), (3.0, 4.0)]
        );
    }

    /// Empty sums are `+0.0` on every estimator: the accumulation rule.
    #[test]
    fn empty_sums_are_positive_zero() {
        let empty = HipWeights::from_sorted_items(Vec::new());
        let h = empty.row();
        assert!(h.is_empty());
        let zero = 0.0f64.to_bits();
        assert_eq!(h.cardinality_at(5.0).to_bits(), zero);
        assert_eq!(h.reachable_estimate().to_bits(), zero);
        assert_eq!(h.qg(|_, _| 1.0).to_bits(), zero);
        assert!(h.neighborhood_function().is_empty());
        assert_eq!(sample().row().cardinality_at(-1.0).to_bits(), zero);
    }

    /// [`TauScan`]'s tie rule stated over an unsorted bag: τ is the
    /// largest held rank, the oldest of tied ones, and at capacity only a
    /// strictly smaller rank enters, evicting it.
    struct BagModel {
        k: usize,
        held: Vec<(f64, u32)>,
    }

    impl BagModel {
        fn threshold(&self) -> Option<(f64, u32)> {
            if self.held.len() < self.k {
                return None;
            }
            self.held
                .iter()
                .copied()
                .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
        }

        fn offer(&mut self, rank: f64, at: u32) -> bool {
            match self.threshold() {
                None => {}
                Some(t) if rank < t.0 => self.held.retain(|&h| h != t),
                Some(_) => return false,
            }
            self.held.push((rank, at));
            true
        }
    }

    /// The kernel against the `KSmallest` heap oracle on SplitMix64 rows:
    /// every k of interest, rows shorter than k, coarse ranks with exact
    /// ties, few distance levels (equal distances), and raw rank streams
    /// whose offers need not enter (what the v2 encoder feeds it).
    #[test]
    fn tau_scan_matches_heap_oracle() {
        use adsketch_util::rng::{Rng64, SplitMix64};
        use adsketch_util::topk::KSmallest;

        let mut rng = SplitMix64::new(0x7a05_ca11);
        for k in [1usize, 2, 3, 16, 64] {
            let mut scan = TauScan::new(k);
            for row in 0..150 {
                let len = rng.range_usize(4 * k + 8);
                let levels = 1 + rng.range_usize(4);
                let mut order: Vec<(NodeId, f64)> = (0..len as NodeId)
                    .map(|v| (v, rng.range_usize(levels) as f64))
                    .collect();
                order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let ranks: Vec<f64> = (0..len)
                    .map(|_| match row % 3 {
                        0 => (1 + rng.range_usize(6)) as f64 / 8.0,
                        _ => rng.open_unit_f64(),
                    })
                    .collect();

                // Freeze path: an ADS row, whose every entry enters.
                let ads = crate::reference::bottomk_from_order(k, &order, &ranks);
                let oracle = crate::reference::hip_weights(k, ads.entries().iter().copied());
                scan.reset();
                for (at, (e, w)) in ads.entries().iter().zip(oracle.row().weights).enumerate() {
                    let t = scan.threshold();
                    let tau = t.map_or(1.0, |(r, _)| r);
                    assert_eq!(
                        (1.0 / tau).to_bits(),
                        w.to_bits(),
                        "k = {k}, row {row}, entry {at}: weight vs heap oracle"
                    );
                    if let Some((_, pos)) = t {
                        let r = ads.entries()[pos as usize].rank;
                        assert_eq!(
                            (1.0 / r).to_bits(),
                            w.to_bits(),
                            "k = {k}, row {row}, entry {at}: 1/rank[threshold position]"
                        );
                    }
                    let entered = scan.offer(e.rank, at as u32);
                    assert!(
                        entered || e.rank == tau,
                        "k = {k}, row {row}: ADS entry left out"
                    );
                }

                // v2 path: the raw stream, offers that do not enter included.
                let mut heap = KSmallest::new(k);
                let mut bag = BagModel {
                    k,
                    held: Vec::new(),
                };
                scan.reset();
                for (at, &r) in ranks.iter().enumerate() {
                    let at = at as u32;
                    let t = scan.threshold();
                    assert_eq!(
                        t.map(|(r, _)| r.to_bits()),
                        heap.threshold().map(|h| h.rank.to_bits()),
                        "k = {k}, row {row}, offer {at}: τ vs heap oracle"
                    );
                    assert_eq!(
                        t,
                        bag.threshold(),
                        "k = {k}, row {row}, offer {at}: threshold position vs tie rule"
                    );
                    assert_eq!(
                        scan.offer(r, at),
                        bag.offer(r, at),
                        "k = {k}, row {row}, offer {at}: entered"
                    );
                    heap.offer(r, at as u64);
                }
            }
        }
    }
}
