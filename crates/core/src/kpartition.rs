//! The k-partition all-distances sketch (paper, Section 2; implicit in
//! HyperANF): one bottom-1 ADS per random bucket.

use adsketch_graph::NodeId;
use adsketch_minhash::KPartitionSketch;

use crate::hip::{HipItem, HipWeights};

/// One k-partition ADS record: node `node` (in bucket `bucket`) is the
/// running minimum of its bucket at distance `dist`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KPartRecord {
    /// The sampled node.
    pub node: NodeId,
    /// Its distance from the source.
    pub dist: f64,
    /// Its rank.
    pub rank: f64,
    /// The bucket the node hashes into.
    pub bucket: u32,
}

/// A k-partition ADS: bucket-wise prefix minima merged in canonical
/// `(dist, node)` order (each node appears at most once — it lives in
/// exactly one bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct KPartitionAds {
    k: usize,
    records: Vec<KPartRecord>,
}

impl KPartitionAds {
    /// Wraps records sorted canonically by `(dist, node)`.
    pub fn from_records(k: usize, records: Vec<KPartRecord>) -> Self {
        assert!(k >= 1);
        debug_assert!(records
            .windows(2)
            .all(|w| (w[0].dist, w[0].node) < (w[1].dist, w[1].node)));
        Self { k, records }
    }

    /// The number of buckets k.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// All records in canonical order.
    #[inline]
    pub fn records(&self) -> &[KPartRecord] {
        &self.records
    }

    /// Number of records (expected ≈ `k·ln(n/k)`, Lemma 2.2).
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the sketch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Extracts the k-partition MinHash sketch of `N_d(v)`.
    pub fn minhash_at(&self, d: f64) -> KPartitionSketch {
        let mut mins = vec![1.0f64; self.k];
        for r in self.records.iter().take_while(|r| r.dist <= d) {
            let m = &mut mins[r.bucket as usize];
            if r.rank < *m {
                *m = r.rank;
            }
        }
        KPartitionSketch::from_mins(mins)
    }

    /// The basic neighborhood-cardinality estimate at distance `d`
    /// (Section 4.3 estimator; biased low for `n ≲ 2k`).
    pub fn basic_cardinality_at(&self, d: f64) -> f64 {
        self.minhash_at(d).estimate()
    }

    /// HIP adjusted weights for the k-partition ADS (paper, equation (8)):
    /// with per-bucket running minima `m_h` over closer nodes, a sampled
    /// node's HIP probability is `τ = (1/k) Σ_h m_h` — a fresh element
    /// lands in bucket `h` with probability `1/k` and updates it with
    /// probability `m_h` (empty buckets count 1).
    pub fn hip_weights(&self) -> HipWeights {
        let mut minima = vec![1.0f64; self.k];
        let mut sum: f64 = self.k as f64; // Σ m_h, kept incrementally
        let items = self
            .records
            .iter()
            .map(|r| {
                let tau = sum / self.k as f64;
                let item = HipItem {
                    node: r.node,
                    dist: r.dist,
                    weight: 1.0 / tau,
                };
                let m = &mut minima[r.bucket as usize];
                debug_assert!(r.rank < *m, "record must improve its bucket minimum");
                sum -= *m - r.rank;
                *m = r.rank;
                item
            })
            .collect();
        HipWeights::from_sorted_items(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_util::stats::ErrorStats;
    use adsketch_util::RankHasher;

    fn order(n: usize) -> Vec<(NodeId, f64)> {
        (0..n).map(|i| (i as NodeId, i as f64)).collect()
    }

    #[test]
    fn first_node_weight_is_one() {
        let h = RankHasher::new(1);
        let ads = crate::reference::kpartition_from_order(8, &order(100), &h);
        let hip = ads.hip_weights();
        assert_eq!(hip.row().weights[0], 1.0);
    }

    #[test]
    fn weights_at_least_one_and_nondecreasing_tau() {
        let h = RankHasher::new(2);
        let ads = crate::reference::kpartition_from_order(4, &order(300), &h);
        let hip = ads.hip_weights();
        let weights = hip.row().weights;
        assert!(weights.iter().all(|&w| w >= 1.0));
        // τ shrinks as minima shrink ⇒ weights non-decreasing with distance.
        for w in weights.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn minhash_at_matches_direct_sketch() {
        let h = RankHasher::new(3);
        let ads = crate::reference::kpartition_from_order(8, &order(150), &h);
        let mut direct = KPartitionSketch::new(8);
        for e in 0..80u64 {
            direct.insert(&h, e);
        }
        assert_eq!(ads.minhash_at(79.0), direct);
    }

    #[test]
    fn hip_cardinality_unbiased() {
        let n = 400usize;
        let k = 8;
        let mut err = ErrorStats::new(n as f64);
        for seed in 0..3000u64 {
            let h = RankHasher::new(seed + 31_000);
            let ads = crate::reference::kpartition_from_order(k, &order(n), &h);
            err.push(ads.hip_weights().row().reachable_estimate());
        }
        let z = err.relative_bias() / err.bias_std_error();
        assert!(z.abs() < 4.0, "k-partition HIP bias z-score {z}");
    }

    #[test]
    fn hip_beats_basic_variance() {
        let n = 600usize;
        let k = 8;
        let mut hip_err = ErrorStats::new(n as f64);
        let mut basic_err = ErrorStats::new(n as f64);
        for seed in 0..1500u64 {
            let h = RankHasher::new(seed + 77_000);
            let ads = crate::reference::kpartition_from_order(k, &order(n), &h);
            hip_err.push(ads.hip_weights().row().reachable_estimate());
            basic_err.push(ads.basic_cardinality_at(f64::INFINITY));
        }
        assert!(
            hip_err.nrmse() < basic_err.nrmse(),
            "HIP {} should beat basic {}",
            hip_err.nrmse(),
            basic_err.nrmse()
        );
    }

    #[test]
    fn tau_sum_stays_consistent() {
        // The incremental Σ m_h bookkeeping must match a fresh recompute.
        let h = RankHasher::new(5);
        let ads = crate::reference::kpartition_from_order(16, &order(500), &h);
        let hip = ads.hip_weights();
        // Recompute the last item's τ directly.
        let last = hip.row().items().last().unwrap();
        let mut minima = [1.0f64; 16];
        for r in ads.records().iter().take(ads.len() - 1) {
            let m = &mut minima[r.bucket as usize];
            if r.rank < *m {
                *m = r.rank;
            }
        }
        let tau: f64 = minima.iter().sum::<f64>() / 16.0;
        assert!((last.weight - 1.0 / tau).abs() < 1e-9);
    }

    #[test]
    fn empty_ads() {
        let ads = KPartitionAds::from_records(4, vec![]);
        assert!(ads.is_empty());
        assert_eq!(ads.hip_weights().row().reachable_estimate(), 0.0);
    }
}
