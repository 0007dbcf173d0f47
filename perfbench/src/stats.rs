//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints comes from here: the samples are
//! sorted and the quantile is read off the order statistics, never from a
//! bucketed histogram. `hap_obs::Histogram::quantile` interpolates inside
//! power-of-two buckets, so a 1.6 ms median sits in a bucket about 1 ms
//! wide and a 10% change is invisible to it.

/// The `p`-quantile of `sorted` (ascending), by linear interpolation
/// between the two nearest order statistics: with `h = (n - 1)·p`, the
/// result is `x[⌊h⌋] + (h - ⌊h⌋)·(x[⌊h⌋+1] - x[⌊h⌋])`. This is the
/// default definition of NumPy and R (type 7): the median of an even
/// count is the mean of the middle pair, `p = 0` and `p = 1` are the
/// minimum and maximum. Returns `None` for an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted input");
    let h = (n - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Median, p90 and sample count of one timing series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
}

impl Summary {
    /// Sorts a copy of `samples` and reads the exact p50 and p90. An
    /// empty series summarises to zeros with `n = 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: quantile(&sorted, 0.5).unwrap_or(0.0),
            p90: quantile(&sorted, 0.9).unwrap_or(0.0),
        }
    }
}

/// Exact median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_quantile() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        for p in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&[3.5], p), Some(3.5));
        }
    }

    #[test]
    fn odd_count_median_is_the_middle_sample() {
        assert_eq!(quantile(&[1.0, 2.0, 10.0], 0.5), Some(2.0));
    }

    #[test]
    fn even_count_median_is_the_mean_of_the_middle_pair() {
        assert_eq!(quantile(&[1.0, 2.0, 4.0, 10.0], 0.5), Some(3.0));
    }

    #[test]
    fn p90_interpolates_between_order_statistics() {
        // 1..=10: h = 9 · 0.9 = 8.1 → 9 + 0.1 · (10 - 9) = 9.1.
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let p90 = quantile(&xs, 0.9).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "{p90}");
        // 11 samples 0..=10: h = 10 · 0.9 = 9 exactly → x[9] = 9.
        let ys: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&ys, 0.9), Some(9.0));
    }

    #[test]
    fn extremes_are_min_and_max() {
        let xs = [2.0, 3.0, 5.0, 7.0];
        assert_eq!(quantile(&xs, 0.0), Some(2.0));
        assert_eq!(quantile(&xs, 1.0), Some(7.0));
    }

    #[test]
    fn summary_sorts_its_input_and_counts_it() {
        let s = Summary::of(&[10.0, 1.0, 4.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.p50, 3.0);
        // h = 3 · 0.9 = 2.7 → 4 + 0.7 · (10 - 4) = 8.2.
        assert!((s.p90 - 8.2).abs() < 1e-12, "{}", s.p90);
    }

    #[test]
    fn resolves_a_ten_percent_shift_that_a_log2_bucket_cannot() {
        // Both medians fall in the same [1, 2) ms power-of-two bucket; the
        // exact quantile still separates them.
        let a = [1.55, 1.6, 1.65];
        let b = [1.71, 1.76, 1.81];
        assert_eq!(median(&a), 1.6);
        assert_eq!(median(&b), 1.76);
    }
}
