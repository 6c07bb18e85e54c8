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
//! heap oracle [`crate::reference::hip_weights`]. The frozen store derives
//! its weight column with one heap-free, branchless bottom-k threshold
//! kernel, `tau_scan`: a freeze runs it over every row, and so does every
//! v2 load, whose files store no weights, and the v2 encoder's check of
//! each block it writes.

use adsketch_graph::NodeId;

/// Lemma 5.1's threshold for every entry of the rows `offsets` delimits.
/// `nodes` holds the rows' entries from entry `offsets[0]` on, so a v2
/// block passes its own slices and a freeze the whole store's. For entry
/// `i` (an index into `nodes`) it calls `sink(i, rank, τ)` with the
/// entry's rank `rank_of[nodes[i]]` and τ, the k-th smallest rank of the
/// entries before it in its row: `None` while fewer than k precede it
/// (τ is then 1, the supremum of the rank domain). The entry's HIP weight
/// is `1/τ`.
///
/// A sorted array of `W ≥ k` slots holds the k smallest ranks offered so
/// far behind `W − k` slots of −∞, so τ is the last slot. An offer
/// rebuilds every slot from a copy of the old array without a branch,
/// `t[j] = s[j] < r ? s[j] : (s[j−1] < r ? r : s[j−1])`, which inserts
/// `r` before the ranks it ties with and drops the last slot. On a sorted
/// array that is the value `max(s[j−1], min(s[j], r))`, the form it is
/// computed in, with `s[−1] = −∞`. The slots are pairs, `[[f64; 2]; W/2]`:
/// each pair's lower neighbours are the previous pair's top and its own
/// bottom, which the compiler keeps in vector registers instead of
/// shifting the array through memory. `W` is a compile-time constant, the
/// smallest bucket that fits k; past the widest bucket the same body runs
/// over `⌈k/2⌉` pairs in a `Vec`. Every rank table, NaN and infinities
/// included, gives some τ and never a panic: a v2 load runs this over an
/// untrusted image.
pub(crate) fn tau_scan(
    k: usize,
    offsets: &[u32],
    nodes: &[NodeId],
    rank_of: &[f64],
    mut sink: impl FnMut(usize, f64, Option<f64>),
) {
    // A row shorter than k never reaches its k-th rank, so capping k at
    // the longest row changes no τ and bounds the slots by the entries.
    let longest = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let k = k.min(longest as usize).max(1);
    let sink = &mut sink;
    match k {
        1..=4 => scan_rows([[0.0; 2]; 2], k, offsets, nodes, rank_of, sink),
        5..=8 => scan_rows([[0.0; 2]; 4], k, offsets, nodes, rank_of, sink),
        9..=16 => scan_rows([[0.0; 2]; 8], k, offsets, nodes, rank_of, sink),
        17..=32 => scan_rows([[0.0; 2]; 16], k, offsets, nodes, rank_of, sink),
        33..=64 => scan_rows([[0.0; 2]; 32], k, offsets, nodes, rank_of, sink),
        _ => {
            let pairs = vec![[0.0; 2]; k.div_ceil(2)];
            scan_rows(pairs, k, offsets, nodes, rank_of, sink)
        }
    }
}

/// The body of [`tau_scan`] over the slot pairs `fresh` (at least k
/// slots, their values ignored).
#[inline(always)]
fn scan_rows<S: Clone + AsRef<[[f64; 2]]> + AsMut<[[f64; 2]]>>(
    mut fresh: S,
    k: usize,
    offsets: &[u32],
    nodes: &[NodeId],
    rank_of: &[f64],
    sink: &mut impl FnMut(usize, f64, Option<f64>),
) {
    let (base, last) = (offsets[0] as usize, fresh.as_ref().len() - 1);
    // Every row starts from −∞ up to the last k slots, which are +∞.
    let held_from = 2 * (last + 1) - k;
    for (j, slot) in fresh.as_mut().as_flattened_mut().iter_mut().enumerate() {
        *slot = if j < held_from {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
    }
    let (mut slots, mut old) = (fresh.clone(), fresh.clone());
    for row in offsets.windows(2) {
        slots.clone_from(&fresh);
        for (at, i) in (row[0] as usize - base..row[1] as usize - base).enumerate() {
            let r = rank_of[nodes[i] as usize];
            sink(i, r, (at >= k).then_some(slots.as_ref()[last][1]));
            old.clone_from(&slots);
            let mut below_pair = f64::NEG_INFINITY;
            for (t, s) in slots.as_mut().iter_mut().zip(old.as_ref()) {
                let lo = [below_pair, s[0]];
                for l in 0..2 {
                    let below = if s[l] < r { s[l] } else { r };
                    t[l] = if lo[l] < below { below } else { lo[l] };
                }
                below_pair = s[1];
            }
        }
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

    /// The kernel's weights `1/τ` for the rows `offsets` delimits, `nodes`
    /// holding their entries from `offsets[0]` on.
    fn kernel_weights(k: usize, offsets: &[u32], nodes: &[NodeId], rank_of: &[f64]) -> Vec<f64> {
        let mut weights = vec![f64::NAN; nodes.len()];
        tau_scan(k, offsets, nodes, rank_of, |i, _, tau| {
            weights[i] = 1.0 / tau.unwrap_or(1.0)
        });
        weights
    }

    /// The τ kernel at every slot-width edge and past the widest one,
    /// over one call of many rows whose entries start past offset 0, as a
    /// v2 block's do: empty rows, rows shorter than k, and rows of coarse
    /// ranks `j/8` with exact ties. ADS rows' weights equal the heap
    /// oracle `reference::hip_weights` bit for bit, and every row's, raw
    /// offer streams included, equals `1/τ` of a `KSmallest` fed the same
    /// ranks. A rank table of NaN, ±0.0, ±∞, values above 1 and
    /// subnormals yields weights, never a panic.
    #[test]
    fn tau_kernel_matches_the_oracles_at_every_width() {
        use adsketch_util::rng::{Rng64, SplitMix64};
        use adsketch_util::topk::KSmallest;

        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = SplitMix64::new(0x5eed_7a05);
        for k in [
            1usize, 2, 3, 4, 5, 8, 9, 15, 16, 17, 32, 33, 63, 64, 65, 128,
        ] {
            let (mut offsets, mut nodes) = (vec![5u32], Vec::new());
            let mut rank_of: Vec<f64> = Vec::new();
            let (mut heap_w, mut oracle_w) = (Vec::new(), Vec::new());
            for row in 0..60 {
                let len = match row % 4 {
                    0 => rng.range_usize(k + 1),
                    _ => rng.range_usize(3 * k + 8),
                };
                // This row's nodes get fresh ids, ranked coarsely (exact
                // ties) in every third row.
                let first = rank_of.len() as NodeId;
                rank_of.extend((0..len).map(|_| match row % 3 {
                    0 => (1 + rng.range_usize(8)) as f64 / 8.0,
                    _ => rng.open_unit_f64(),
                }));
                let levels = 1 + rng.range_usize(4);
                let mut order: Vec<(NodeId, f64)> = (first..first + len as NodeId)
                    .map(|v| (v, rng.range_usize(levels) as f64))
                    .collect();
                order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let row_nodes: Vec<NodeId> = if row % 2 == 0 {
                    // An ADS row: only its entries, so the heap oracle's
                    // every-entry-entered rule holds.
                    let ads = crate::reference::bottomk_from_order(k, &order, &rank_of);
                    let w = crate::reference::hip_weights(k, ads.entries().iter().copied());
                    oracle_w.extend(w.row().weights);
                    ads.entries().iter().map(|e| e.node).collect()
                } else {
                    // A raw stream: offers that do not enter included.
                    let ids: Vec<NodeId> = order.iter().map(|o| o.0).collect();
                    oracle_w.extend(std::iter::repeat_n(f64::NAN, ids.len()));
                    ids
                };
                let mut heap = KSmallest::new(k);
                for (at, &v) in row_nodes.iter().enumerate() {
                    heap_w.push(1.0 / heap.threshold_rank_or(1.0));
                    heap.offer(rank_of[v as usize], at as u64);
                }
                nodes.extend(row_nodes);
                offsets.push(5 + nodes.len() as u32);
            }
            let got = kernel_weights(k, &offsets, &nodes, &rank_of);
            assert_eq!(bits(&got), bits(&heap_w), "k = {k}: weights vs KSmallest");
            for (i, (g, o)) in got.iter().zip(&oracle_w).enumerate() {
                if !o.is_nan() {
                    assert_eq!(
                        g.to_bits(),
                        o.to_bits(),
                        "k = {k}, entry {i}: vs hip_weights"
                    );
                }
            }
            assert!(
                oracle_w.iter().any(|o| !o.is_nan()),
                "k = {k}: ADS rows ran"
            );
        }

        // Totality: hostile rank tables only need to give some weights.
        let odd = [
            f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.5,
            f64::MIN_POSITIVE / 4.0,
            1.0,
        ];
        for k in [1usize, 3, 16, 17, 64, 65, 128] {
            let rank_of: Vec<f64> = (0..200)
                .map(|_| match rng.range_usize(3) {
                    0 => odd[rng.range_usize(odd.len())],
                    _ => rng.open_unit_f64(),
                })
                .collect();
            let nodes: Vec<NodeId> = (0..3 * k + 40)
                .map(|_| rng.range_usize(rank_of.len()) as NodeId)
                .collect();
            let offsets = [0, 3, 3, nodes.len() as u32 / 2, nodes.len() as u32];
            assert_eq!(
                kernel_weights(k, &offsets, &nodes, &rank_of).len(),
                nodes.len()
            );
        }
    }

    /// The kernel against the `KSmallest` heap oracle on SplitMix64 rows:
    /// every k of interest, rows shorter than k, coarse ranks with exact
    /// ties, few distance levels (equal distances), and raw rank streams
    /// whose offers need not enter.
    #[test]
    fn tau_scan_matches_heap_oracle() {
        use adsketch_util::rng::{Rng64, SplitMix64};
        use adsketch_util::topk::KSmallest;

        // τ and rank of every entry of one row, through the kernel.
        let scan = |k: usize, ranks: &[f64]| {
            let nodes: Vec<NodeId> = (0..ranks.len() as NodeId).collect();
            let mut out = Vec::new();
            tau_scan(k, &[0, ranks.len() as u32], &nodes, ranks, |i, r, t| {
                assert_eq!(i, out.len(), "entries in row order");
                out.push((r, t));
            });
            out
        };
        let mut rng = SplitMix64::new(0x7a05_ca11);
        for k in [1usize, 2, 3, 16, 64] {
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
                let row_ranks: Vec<f64> = ads.entries().iter().map(|e| e.rank).collect();
                let taus = scan(k, &row_ranks);
                for (at, ((r, t), w)) in taus.into_iter().zip(oracle.row().weights).enumerate() {
                    let tau = t.unwrap_or(1.0);
                    assert_eq!(
                        (1.0 / tau).to_bits(),
                        w.to_bits(),
                        "k = {k}, row {row}, entry {at}: weight vs heap oracle"
                    );
                    assert!(
                        t.is_none_or(|t| r <= t),
                        "k = {k}, row {row}: ADS entry left out"
                    );
                }

                // The raw stream, offers that do not enter included.
                let mut heap = KSmallest::new(k);
                for (at, (r, t)) in scan(k, &ranks).into_iter().enumerate() {
                    assert_eq!(
                        t.map(f64::to_bits),
                        heap.threshold().map(|h| h.rank.to_bits()),
                        "k = {k}, row {row}, offer {at}: τ vs heap oracle"
                    );
                    assert_eq!(
                        t.is_none_or(|t| r < t),
                        heap.offer(r, at as u64),
                        "k = {k}, row {row}, offer {at}: entered"
                    );
                }
            }
        }
    }
}
