//! The k-mins all-distances sketch: k independent bottom-1 ADSs
//! (paper, Section 2; Cohen 1997, Palmer–Gibbons–Faloutsos ANF).

use adsketch_graph::NodeId;
use adsketch_minhash::KMinsSketch;

use crate::hip::{HipItem, HipWeights};

/// One k-mins ADS record: node `node` is the running minimum of permutation
/// `perm` at distance `dist` with rank `rank`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMinsRecord {
    /// The sampled node.
    pub node: NodeId,
    /// Its distance from the source.
    pub dist: f64,
    /// Its rank in permutation `perm`.
    pub rank: f64,
    /// Which of the k permutations this record belongs to.
    pub perm: u32,
}

/// A k-mins ADS: records of all k bottom-1 ADSs merged in canonical
/// `(dist, node)` order (a node may carry records in several
/// permutations).
#[derive(Debug, Clone, PartialEq)]
pub struct KMinsAds {
    k: usize,
    records: Vec<KMinsRecord>,
}

impl KMinsAds {
    /// Wraps records sorted canonically by `(dist, node, perm)`.
    pub fn from_records(k: usize, records: Vec<KMinsRecord>) -> Self {
        assert!(k >= 1);
        debug_assert!(records
            .windows(2)
            .all(|w| { (w[0].dist, w[0].node, w[0].perm) <= (w[1].dist, w[1].node, w[1].perm) }));
        Self { k, records }
    }

    /// The number of permutations k.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// All records in canonical order.
    #[inline]
    pub fn records(&self) -> &[KMinsRecord] {
        &self.records
    }

    /// Total number of records (the sketch's storage size; expected
    /// `k·H_n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the sketch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Extracts the k-mins MinHash sketch of `N_d(v)`: per permutation, the
    /// minimum rank among records within distance `d`.
    pub fn minhash_at(&self, d: f64) -> KMinsSketch {
        let mut mins = vec![1.0f64; self.k];
        for r in self.records.iter().take_while(|r| r.dist <= d) {
            let m = &mut mins[r.perm as usize];
            if r.rank < *m {
                *m = r.rank;
            }
        }
        KMinsSketch::from_mins(mins)
    }

    /// The basic neighborhood-cardinality estimate at distance `d`
    /// (CV = `1/sqrt(k−2)`).
    pub fn basic_cardinality_at(&self, d: f64) -> f64 {
        self.minhash_at(d).estimate()
    }

    /// HIP adjusted weights for the k-mins ADS (paper, equation (7)):
    /// scanning nodes by increasing distance with per-permutation running
    /// minima `m_h`, a sampled node's HIP probability is
    /// `τ = 1 − Π_h (1 − m_h)` — the chance a fresh rank vector beats at
    /// least one current minimum.
    pub fn hip_weights(&self) -> HipWeights {
        let mut minima = vec![1.0f64; self.k];
        let mut items: Vec<HipItem> = Vec::new();
        let mut i = 0;
        while i < self.records.len() {
            // Group records of the same (dist, node).
            let mut j = i + 1;
            while j < self.records.len()
                && self.records[j].node == self.records[i].node
                && self.records[j].dist == self.records[i].dist
            {
                j += 1;
            }
            let prod: f64 = minima.iter().map(|&m| 1.0 - m).product();
            let tau = 1.0 - prod;
            items.push(HipItem {
                node: self.records[i].node,
                dist: self.records[i].dist,
                weight: 1.0 / tau,
            });
            for r in &self.records[i..j] {
                let m = &mut minima[r.perm as usize];
                debug_assert!(r.rank < *m, "record must improve its permutation minimum");
                *m = r.rank;
            }
            i = j;
        }
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
        let ads = crate::reference::kmins_from_order(4, &order(50), &h);
        let hip = ads.hip_weights();
        assert_eq!(hip.row().weights[0], 1.0);
        assert_eq!(hip.row().dists[0], 0.0);
    }

    #[test]
    fn weights_at_least_one() {
        let h = RankHasher::new(2);
        let ads = crate::reference::kmins_from_order(3, &order(200), &h);
        for &w in ads.hip_weights().row().weights {
            assert!(w >= 1.0, "weight {w}");
        }
    }

    #[test]
    fn minhash_at_matches_direct_sketch() {
        let h = RankHasher::new(3);
        let n = 120;
        let ads = crate::reference::kmins_from_order(5, &order(n), &h);
        // Sketch of the first 60 nodes, built directly.
        let mut direct = KMinsSketch::new(5);
        for e in 0..60u64 {
            direct.insert(&h, e);
        }
        let extracted = ads.minhash_at(59.0);
        assert_eq!(extracted, direct);
    }

    #[test]
    fn hip_cardinality_unbiased() {
        let n = 400usize;
        let k = 4;
        let mut err = ErrorStats::new(n as f64);
        for seed in 0..3000u64 {
            let h = RankHasher::new(seed);
            let ads = crate::reference::kmins_from_order(k, &order(n), &h);
            err.push(ads.hip_weights().row().reachable_estimate());
        }
        let z = err.relative_bias() / err.bias_std_error();
        assert!(z.abs() < 4.0, "k-mins HIP bias z-score {z}");
    }

    #[test]
    fn hip_beats_basic_variance() {
        // Theorem 5.1 extends to all flavors: HIP ≈ half the variance.
        let n = 600usize;
        let k = 8;
        let mut hip_err = ErrorStats::new(n as f64);
        let mut basic_err = ErrorStats::new(n as f64);
        for seed in 0..1500u64 {
            let h = RankHasher::new(seed + 9_000);
            let ads = crate::reference::kmins_from_order(k, &order(n), &h);
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
    fn empty_ads() {
        let ads = KMinsAds::from_records(3, vec![]);
        assert!(ads.is_empty());
        assert_eq!(ads.hip_weights().row().reachable_estimate(), 0.0);
        assert_eq!(ads.basic_cardinality_at(1.0), 0.0);
    }
}
