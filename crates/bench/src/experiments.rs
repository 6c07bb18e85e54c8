//! The paper's stream and counter experiments, one function each.
//!
//! A bin (`fig2`, `fig3`, `tbl_*`) calls one of these with its own seeds,
//! folds the estimates into `ErrorStats` and prints them;
//! `tests/paper_claims.rs` calls the same function with other seeds and
//! asserts them. Each function returns every run's estimates, in the
//! order of the seeds it is given.
//!
//! An ADS's estimators see only the ranks of the nodes in distance order
//! (Section 5.5), so one run is a stream of the distinct elements
//! `0..n`, with ranks from `RankHasher::new(seed)`, and the truth after
//! `s` elements is `s`. The estimators are the library's own: the MinHash
//! sketches of `adsketch-minhash` and the HIP counters of
//! `adsketch-stream`.

use adsketch_core::permutation::PermutationCardinality;
use adsketch_core::{basic, reference, size_est};
use adsketch_graph::NodeId;
use adsketch_minhash::baseb::BaseBBottomK;
use adsketch_minhash::{KMinsSketch, KPartitionSketch};
use adsketch_stream::{DistinctCounter, HipBottomKCounter, HipHll, MorrisCounter};
use adsketch_util::ranks::BaseB;
use adsketch_util::rng::{Rng64, SplitMix64};
use adsketch_util::RankHasher;

/// Figure 2 and Section 5.4: one stream of `0..n` per seed into a k-mins,
/// a k-partition and a bottom-k sketch, the bottom-k HIP counter and the
/// permutation estimator, whose domain is the whole stream. Requires
/// `2 ≤ k ≤ n`.
///
/// Returns the k-mins, k-partition and bottom-k basic estimates
/// (Section 4), HIP (Section 5.1) and the permutation estimate, in that
/// order; `[e][c][r]` is estimator `e` of run `r` after the first
/// `checkpoints[c]` elements.
pub fn fig2(
    k: usize,
    n: u64,
    checkpoints: &[u64],
    seeds: impl IntoIterator<Item = u64>,
) -> [Vec<Vec<f64>>; 5] {
    let mut out = std::array::from_fn(|_| vec![Vec::new(); checkpoints.len()]);
    for seed in seeds {
        let hasher = RankHasher::new(seed);
        let (mut kmins, mut kpart) = (KMinsSketch::new(k), KPartitionSketch::new(k));
        let mut hip = HipBottomKCounter::new(k, seed);
        // The permutation ranks come from a generator of their own, so the
        // other estimators see the same ranks with or without them.
        let sigma = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15).permutation(n as usize);
        let mut perm = PermutationCardinality::new(n, k);
        let mut marks = checkpoints.iter().enumerate().peekable();
        for e in 0..n {
            kmins.insert(&hasher, e);
            kpart.insert(&hasher, e);
            hip.insert(e);
            perm.process(sigma[e as usize] + 1);
            while let Some((c, _)) = marks.next_if(|&(_, &s)| s == e + 1) {
                let row = [
                    kmins.estimate(),
                    kpart.estimate(),
                    hip.sketch().estimate(),
                    hip.estimate(),
                    perm.estimate(),
                ];
                out.iter_mut()
                    .zip(row)
                    .for_each(|(series, x)| series[c].push(x));
            }
        }
        assert!(marks.next().is_none(), "checkpoints ascend in 1..=n");
    }
    out
}

/// Section 5.6: bottom-k HIP over ranks rounded to powers of `base`, after
/// `n` elements, one estimate per seed. An element enters iff its rounded
/// rank is below the threshold `τ`, which happens with probability exactly
/// `τ`, so it adds `1/τ`, taken before the offer.
pub fn base_b(k: usize, base: BaseB, n: u64, seeds: impl IntoIterator<Item = u64>) -> Vec<f64> {
    seeds
        .into_iter()
        .map(|seed| {
            let hasher = RankHasher::new(seed);
            let mut sketch = BaseBBottomK::new(k, base);
            let mut hip = 0.0;
            for e in 0..n {
                let tau = sketch.threshold_value();
                if sketch.offer(hasher.rank(e)) {
                    hip += 1.0 / tau;
                }
            }
            hip
        })
        .collect()
}

/// Figure 3: one stream of `0..n` per seed into a `HipHll` of `k`
/// registers. Returns the raw and the bias-corrected HyperLogLog estimates
/// and HIP on the same registers (Section 6), indexed like [`fig2`]'s.
pub fn fig3(
    k: usize,
    n: u64,
    checkpoints: &[u64],
    seeds: impl IntoIterator<Item = u64>,
) -> [Vec<Vec<f64>>; 3] {
    let mut out = std::array::from_fn(|_| vec![Vec::new(); checkpoints.len()]);
    for seed in seeds {
        let hasher = RankHasher::new(seed);
        let mut counter = HipHll::new(k);
        let mut marks = checkpoints.iter().enumerate().peekable();
        for e in 0..n {
            counter.insert(&hasher, e);
            while let Some((c, _)) = marks.next_if(|&(_, &s)| s == e + 1) {
                let sketch = counter.sketch();
                let row = [sketch.raw_estimate(), sketch.estimate(), counter.estimate()];
                out.iter_mut()
                    .zip(row)
                    .for_each(|(series, x)| series[c].push(x));
            }
        }
        assert!(marks.next().is_none(), "checkpoints ascend in 1..=n");
    }
    out
}

/// Section 7: one Morris counter of base `b` per seed (counter seed
/// `seed`), fed the increments 1, 2, …, 7, 1, 2, … until they sum to `n`
/// (the last one cut short). Returns the counters.
pub fn morris(b: f64, n: u64, seeds: impl IntoIterator<Item = u64>) -> Vec<MorrisCounter> {
    seeds
        .into_iter()
        .map(|seed| {
            let mut c = MorrisCounter::new(b, seed);
            let (mut total, mut step) = (0u64, 1u64);
            while total < n {
                let add = step.min(n - total);
                c.add(add as f64);
                total += add;
                step = step % 7 + 1;
            }
            c
        })
        .collect()
}

/// Section 8: per seed, the bottom-k ADS of a node whose `n` reachable
/// nodes `0..n` lie at distances `0..n`. Returns its three estimates of
/// `n`, one per seed each: size-only `k(1 + 1/k)^{s−k+1} − 1`, basic
/// `(k−1)/τ_k` and HIP.
pub fn size_estimator(k: usize, n: usize, seeds: impl IntoIterator<Item = u64>) -> [Vec<f64>; 3] {
    let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
    let mut out = [Vec::new(), Vec::new(), Vec::new()];
    for seed in seeds {
        let h = RankHasher::new(seed);
        let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
        let ads = reference::bottomk_from_order(k, &order, &ranks);
        out[0].push(size_est::size_estimator(ads.len(), k));
        let set = reference::from_sketches(k, vec![ads]);
        out[1].push(basic::reachable(set.row(0)));
        out[2].push(set.hip(0).reachable_estimate());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_small_prefixes() {
        // HIP and the permutation estimator are exact while the sketch
        // holds every element (s ≤ k). The basic bottom-k estimator is
        // exact only below k: at s = k the sketch is full and it switches
        // to (k−1)/τ_k.
        const K: usize = 8;
        let checkpoints: Vec<u64> = (1..=K as u64).collect();
        let [_, _, basic, hip, perm] = fig2(K, 100, &checkpoints, [3, 4, 5]);
        for (c, &s) in checkpoints.iter().enumerate() {
            let s = s as f64;
            assert!(hip[c].iter().all(|&e| e == s), "HIP at s = {s}");
            assert!(perm[c].iter().all(|&e| e == s), "perm at s = {s}");
            if s < K as f64 {
                assert!(basic[c].iter().all(|&e| e == s), "basic at s = {s}");
            }
        }
    }

    #[test]
    fn base_b_hip_is_unbiased() {
        // Every adjusted weight has expectation 1, rounded ranks or not.
        // The mean relative error over the runs is within 4 standard
        // errors of 0 but for a 0.01% chance.
        const K: usize = 16;
        const N: u64 = 2000;
        for b in [2.0, 1.2] {
            let est = base_b(K, BaseB::new(b), N, (0..1500).map(|s| s * 31 + 7));
            let rel: Vec<f64> = est.iter().map(|e| e / N as f64 - 1.0).collect();
            let runs = rel.len() as f64;
            let mean = rel.iter().sum::<f64>() / runs;
            let sd = (rel.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (runs - 1.0)).sqrt();
            assert!(
                mean.abs() <= 4.0 * sd / runs.sqrt(),
                "base {b}: mean relative error {mean:+.4}, standard error {:.4}",
                sd / runs.sqrt()
            );
        }
    }
}
