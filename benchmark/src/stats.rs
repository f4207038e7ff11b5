//! Order statistics for timing samples.
//!
//! Every timing the benchmark prints is a median or a percentile of many
//! samples, never a mean of few: one descheduled pass on a shared 2-CPU
//! host must not move the number.

/// Samples that must lie beyond a percentile for it to be reported (the
/// choosing-metrics rule: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The median of `values` (mean of the middle two for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Zero-based index of the nearest-rank `permille`-th percentile in a
/// sorted sample of `n` values.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n) - 1
}

/// How many of `n` sorted samples lie strictly beyond the nearest-rank
/// `permille`-th percentile.
pub fn samples_beyond(n: usize, permille: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, permille)
    }
}

/// The nearest-rank `permille`-th percentile of an ascending sample
/// (`None` only for an empty one), however few samples lie beyond it.
pub fn nearest_rank(sorted: &[u64], permille: usize) -> Option<u64> {
    sorted.get(rank(sorted.len().max(1), permille)).copied()
}

/// Half-width, in permille of the ranks, of the band [`band_percentile`]
/// averages over.
pub const BAND_PERMILLE: usize = 50;

/// The `permille`-th percentile of an ascending sample, smoothed: the mean
/// of the entries ranked from `permille - 50` to `permille + 50`. An op
/// list is short (24 to 236 ops) and its times come in clusters (one per
/// program class or command), so the single op at a nearest rank can sit
/// on a cluster edge and flip between clusters from run to run; the band
/// around it cannot.
///
/// `sorted` condenses `samples` raw measurements (each entry is one op's
/// best of several). Returns `None` for an empty sample, or when fewer
/// than [`MIN_SAMPLES_BEYOND`] raw measurements lie beyond the band's
/// upper edge — such a percentile is one or two outliers, not a property
/// of the system.
pub fn band_percentile(sorted: &[u64], permille: usize, samples: usize) -> Option<f64> {
    let upper = (permille + BAND_PERMILLE).min(1000);
    if sorted.is_empty() || samples_beyond(samples, upper) < MIN_SAMPLES_BEYOND {
        return None;
    }
    let lo = rank(sorted.len(), permille.saturating_sub(BAND_PERMILLE));
    let hi = rank(sorted.len(), upper);
    let band = &sorted[lo..=hi];
    Some(band.iter().sum::<u64>() as f64 / band.len() as f64)
}

/// [`nearest_rank`] of a sample that condenses `samples` raw measurements,
/// or `None` when fewer than [`MIN_SAMPLES_BEYOND`] of them lie beyond it.
pub fn percentile(sorted: &[u64], permille: usize, samples: usize) -> Option<u64> {
    if samples_beyond(samples, permille) < MIN_SAMPLES_BEYOND {
        return None;
    }
    nearest_rank(sorted, permille)
}

/// The first and third quartile of `values` as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), which is what the acceptance driver uses. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Run-to-run spread of `values` as a share of their median: the
/// interquartile distance for four or more runs, the full range for two
/// or three (too few for quartiles to mean anything).
pub fn spread_share(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let (q1, q3) = quartiles(values);
        q3 - q1
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    width / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 500, 1000), Some(500));
        assert_eq!(percentile(&v, 900, 1000), Some(900));
        assert_eq!(percentile(&v, 990, 1000), Some(990));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond it, p99 has 1.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(samples_beyond(100, 900), 10);
        assert_eq!(percentile(&v, 900, 100), Some(90));
        assert_eq!(samples_beyond(100, 990), 1);
        assert_eq!(percentile(&v, 990, 100), None);
        // One sample fewer and p90 loses its tenth sample beyond.
        assert_eq!(percentile(&v[..99], 900, 99), None);
        // p99 needs 1 000 samples.
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(samples_beyond(999, 990), 9);
        assert_eq!(percentile(&[], 500, 0), None);
        // 24 ops, each the best of 50 passes: 1 200 raw samples stand
        // behind the list, enough for its p99.
        let ops: Vec<u64> = (1..=24).collect();
        assert_eq!(percentile(&ops, 990, 24 * 50), Some(24));
        assert_eq!(percentile(&ops, 990, 24 * 40), None);
        // The unchecked form answers regardless (smoke runs use it).
        assert_eq!(nearest_rank(&v, 990), Some(99));
        assert_eq!(nearest_rank(&[], 990), None);
    }

    #[test]
    fn band_percentile_averages_the_neighbouring_ranks() {
        // 100 ops: p50 is the mean of ranks 45..=55, p90 of 85..=95.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(band_percentile(&v, 500, 1000), Some(50.0));
        assert_eq!(band_percentile(&v, 900, 1000), Some(90.0));
        // Two clusters meeting exactly at the median: the nearest rank
        // sits on the edge, the band straddles it.
        let mut bimodal = vec![10u64; 50];
        bimodal.extend(vec![30u64; 50]);
        assert_eq!(nearest_rank(&bimodal, 500), Some(10));
        assert_eq!(
            band_percentile(&bimodal, 500, 1000),
            Some((6.0 * 10.0 + 5.0 * 30.0) / 11.0)
        );
        // 24 ops: p90 averages ranks 21..=23.
        let ops: Vec<u64> = (1..=24).collect();
        assert_eq!(band_percentile(&ops, 900, 240), Some(22.0));
        // The band's upper edge (p95) needs ten raw samples beyond it.
        assert_eq!(samples_beyond(200, 950), 10);
        assert!(band_percentile(&ops, 900, 200).is_some());
        assert_eq!(band_percentile(&ops, 900, 199), None);
        assert_eq!(band_percentile(&[], 500, 1000), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let (q1, q3) = quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]);
        assert!((q1 - 15.0).abs() < 1e-12, "{q1}");
        assert!((q3 - 120.0).abs() < 1e-12, "{q3}");
    }

    #[test]
    fn spread_is_a_share_of_the_median() {
        assert_eq!(spread_share(&[100.0]), 0.0);
        assert!((spread_share(&[100.0, 110.0]) - 10.0 / 105.0).abs() < 1e-12);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
