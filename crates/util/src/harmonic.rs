//! Harmonic numbers and the expected-ADS-size formulas of Lemma 2.2.

/// Euler–Mascheroni constant.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// The n-th harmonic number `H_n = Σ_{j=1..n} 1/j`.
///
/// Exact summation for small n; the asymptotic expansion
/// `ln n + γ + 1/(2n) − 1/(12n²)` (error < 1e-12 for n ≥ 1000) otherwise.
pub fn harmonic(n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n <= 10_000 {
        (1..=n).map(|j| 1.0 / j as f64).sum()
    } else {
        let nf = n as f64;
        nf.ln() + EULER_GAMMA + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
    }
}

/// Expected size of a bottom-k ADS over `n` reachable nodes:
/// `k + k(H_n − H_k)` (Lemma 2.2). For `n ≤ k` every node is included.
pub fn expected_bottomk_ads_size(n: u64, k: usize) -> f64 {
    let k64 = k as u64;
    if n <= k64 {
        return n as f64;
    }
    k as f64 + k as f64 * (harmonic(n) - harmonic(k64))
}

/// Expected size of a k-partition ADS over `n` reachable nodes:
/// `k · E[H_B]` with `B ~ Binomial(n, 1/k)` (Lemma 2.2). Each node falls
/// in one of k buckets, and a bucket of `b` nodes holds a bottom-1 ADS of
/// `H_b` entries on average. `k · H_{n/k} ≈ k ln(n/k)` approximates it
/// (≈ 1% high at n = 200, k = 16). O(n) time.
pub fn expected_kpartition_ads_size(n: u64, k: usize) -> f64 {
    if k == 1 {
        return harmonic(n);
    }
    let (p, nf) = (1.0 / k as f64, n as f64);
    // ln P(B = b), stepped up from ln P(B = 0) so that no factor underflows.
    let mut ln_pmf = nf * (-p).ln_1p();
    let (mut h, mut e_h) = (0.0, 0.0);
    for b in 1..=n {
        ln_pmf += ((nf - (b - 1) as f64) / b as f64 * p / (1.0 - p)).ln();
        h += 1.0 / b as f64;
        e_h += ln_pmf.exp() * h;
    }
    k as f64 * e_h
}

/// Expected size of a k-mins ADS: `k · H_n` — k independent bottom-1 ADSs,
/// each of expected size `H_n` (Cohen 1997).
pub fn expected_kmins_ads_size(n: u64, k: usize) -> f64 {
    k as f64 * harmonic(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_harmonics() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
    }

    #[test]
    fn asymptotic_matches_exact_at_crossover() {
        // Compare exact summation against the expansion at n just above the
        // crossover point.
        let exact: f64 = (1..=20_000u64).map(|j| 1.0 / j as f64).sum();
        let approx = harmonic(20_000);
        assert!((exact - approx).abs() < 1e-10, "diff {}", exact - approx);
    }

    #[test]
    fn ads_size_small_n_is_exact() {
        assert_eq!(expected_bottomk_ads_size(3, 8), 3.0);
        // One node is always in. Two share a bucket with probability 1/k,
        // and then the farther one is in with probability 1/2.
        assert!((expected_kpartition_ads_size(1, 8) - 1.0).abs() < 1e-15);
        assert!((expected_kpartition_ads_size(2, 8) - (2.0 - 0.5 / 8.0)).abs() < 1e-15);
        assert_eq!(expected_kpartition_ads_size(5, 1), harmonic(5));
    }

    #[test]
    fn ads_size_matches_k_ln_n_over_k() {
        let n = 1_000_000u64;
        let k = 64usize;
        let exact = expected_bottomk_ads_size(n, k);
        let approx = k as f64 * (1.0 + (n as f64).ln() - (k as f64).ln());
        assert!(
            (exact - approx).abs() / exact < 0.01,
            "exact {exact}, approx {approx}"
        );
    }

    #[test]
    fn kmins_size_exceeds_bottomk() {
        // k-mins ADS keeps k·H_n entries vs k(1 + H_n − H_k): strictly more
        // for n > k ≥ 2.
        let n = 10_000;
        let k = 16;
        assert!(expected_kmins_ads_size(n, k) > expected_bottomk_ads_size(n, k));
    }
}
