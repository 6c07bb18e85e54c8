//! Order statistics for the benchmark's timings: medians, nearest-rank
//! percentiles, and the rule that a tail percentile is only reported when
//! at least ten samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Sorts `xs` ascending (total order, so a stray NaN cannot panic).
pub fn sort(xs: &mut [f64]) {
    xs.sort_unstable_by(f64::total_cmp);
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Sorts in place. Panics on an empty slice: every caller times at least
/// one repeat.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    sort(xs);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples: `⌈p·n⌉`,
/// clamped into `1..=n`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The highest percentile `≤ want` that still has
/// [`TAIL_SAMPLES_BEYOND`] samples beyond its nearest rank among `n`
/// samples. Falls back to the median when `n` cannot support any tail.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n.saturating_sub(nearest_rank(n.max(1), want)) >= TAIL_SAMPLES_BEYOND {
        return want;
    }
    if n < 2 * TAIL_SAMPLES_BEYOND {
        return 0.5;
    }
    (n - TAIL_SAMPLES_BEYOND) as f64 / n as f64
}

/// A tail reading: the percentile actually used and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (`≤` the one asked for).
    pub p: f64,
    /// Its nearest-rank value.
    pub value: f64,
}

/// The `want` percentile of an ascending-sorted slice, lowered to the
/// highest percentile the sample count supports.
pub fn tail(sorted: &[f64], want: f64) -> Tail {
    let p = supported_percentile(sorted.len(), want);
    Tail {
        p,
        value: percentile(sorted, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 5 samples: p50 → ⌈2.5⌉ = rank 3.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — supported as asked.
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        // 999 samples: rank 990 leaves nine beyond — lowered so that ten
        // remain.
        let p = supported_percentile(999, 0.99);
        assert!(p < 0.99);
        assert_eq!(999 - nearest_rank(999, p), TAIL_SAMPLES_BEYOND);
        // Too few samples for any tail: the median.
        assert_eq!(supported_percentile(19, 0.99), 0.5);
        assert_eq!(supported_percentile(0, 0.99), 0.5);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&xs, 0.99);
        assert_eq!(t.p, 0.98);
        assert_eq!(t.value, 490.0);
        let ys: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(
            tail(&ys, 0.99),
            Tail {
                p: 0.99,
                value: 1980.0
            }
        );
    }
}
