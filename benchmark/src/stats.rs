//! Order statistics used everywhere a run condenses samples: nearest-rank
//! percentiles over raw samples, the median of slice values, the quartile
//! spread the driver computes (`statistics.quantiles(values, n=4)`), and
//! interpolated quantiles over the deployment's fixed-bucket histograms.

use safeweb_obs::HistogramSnapshot;

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median with the midpoint convention for even counts; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the spread the driver judges the benchmark by.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        let only = values.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Observations recorded between two snapshots of one histogram.
pub fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        bounds: after.bounds.clone(),
        counts: after
            .counts
            .iter()
            .zip(&before.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
        sum: after.sum.saturating_sub(before.sum),
    }
}

/// Quantile of a bucketed histogram, interpolated linearly inside the
/// bucket holding the rank (the registry's own `quantile` reports the
/// bucket's upper bound, a power of two — too coarse to see a 10 % move).
pub fn hist_quantile(snap: &HistogramSnapshot, q: f64) -> f64 {
    let total: u64 = snap.counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (i, &count) in snap.counts.iter().enumerate() {
        let next = seen + count as f64;
        if count > 0 && next >= rank {
            let lo = if i == 0 { 0 } else { snap.bounds[i - 1] } as f64;
            let hi = snap.bounds.get(i).copied().map_or(lo * 2.0, |b| b as f64);
            return lo + (hi - lo) * ((rank - seen) / count as f64);
        }
        seen = next;
    }
    *snap.bounds.last().expect("histogram has a bound") as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.50), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn median_ignores_outliers() {
        let slices = [3.0, 3.1, 2.9, 3.0, 50.0, 3.2, 0.1, 3.0, 3.1];
        assert_eq!(median(&slices), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        let (q1, q3) = quartiles(&[9.0, 4.0, 2.0, 5.0, 4.0]);
        assert!((q1 - 3.0).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        assert!((iqr_share(&[9.0, 4.0, 2.0, 5.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_delta_and_interpolation() {
        let snap = |counts: &[u64], sum| HistogramSnapshot {
            bounds: vec![1000, 2000, 4000],
            counts: counts.to_vec(),
            sum,
        };
        let d = hist_delta(&snap(&[5, 1, 0, 0], 10), &snap(&[5, 11, 10, 0], 50));
        assert_eq!(d.counts, vec![0, 10, 10, 0]);
        assert_eq!(d.sum, 40);
        assert_eq!(hist_quantile(&d, 0.5), 2000.0);
        assert_eq!(hist_quantile(&d, 0.25), 1500.0);
        assert_eq!(hist_quantile(&d, 0.75), 3000.0);
        assert_eq!(hist_quantile(&snap(&[0, 0, 0, 0], 0), 0.5), 0.0);
    }
}
