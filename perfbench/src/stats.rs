//! Order statistics with the sample-count rule the benchmark reports by.

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile, so that a tail figure is never read off one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. Non-finite samples
/// (failed operations) sort last, so they count as missing any limit.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        assert_eq!(percentile(&xs, 0.95), None);
        // 99 samples: p90 (rank 90) has only 9 beyond it.
        assert_eq!(percentile(&xs[..99], 0.90), None);
        // 200 samples are the least that carry a p95.
        let ys: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&ys, 0.95), Some(190.0));
        assert_eq!(percentile(&ys[..199], 0.95), None);
    }

    #[test]
    fn percentile_counts_failures_as_beyond_any_limit() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs[0] = f64::INFINITY;
        assert_eq!(percentile(&xs, 0.90), Some(91.0));
        let failing: Vec<f64> = vec![f64::INFINITY; 100];
        assert_eq!(percentile(&failing, 0.5), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
