//! Order statistics and the comparison rules the benchmark is judged by.

/// A reported percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank position (1-based) of quantile `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank quantile `q` of `xs`. Whether a tail quantile rests on
/// enough samples is the caller's check ([`beyond`]).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest of the usual tail quantiles that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median, averaging the two middle values of an even sample (Python's
/// `statistics.median`).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default exclusive method),
/// so spreads match the ones the benchmark is accepted on.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative or above 4 after clamping: Python extrapolates too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// Whether `change` is worse than `base` by more than `bound`, a share
/// of `base`.
pub fn worse_beyond(base: f64, change: f64, lower_is_better: bool, bound: f64) -> bool {
    if lower_is_better {
        change > base * (1.0 + bound)
    } else {
        change < base * (1.0 - bound)
    }
}

/// The pair-win rule for claiming a gain: over runs paired in order, the
/// change beats the parent in at least nine tenths of all pairs (ties
/// count for neither), and the medians differ, in the change's favour,
/// by more than the parent's own interquartile distance.
pub fn pair_win(parent: &[f64], change: &[f64], lower_is_better: bool) -> bool {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return false;
    }
    let better = |p: f64, c: f64| if lower_is_better { c < p } else { c > p };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(p, c))
        .count();
    let [q1, _, q3] = quartiles(parent);
    let (mp, mc) = (median(parent), median(change));
    wins * 10 >= pairs * 9 && better(mp, mc) && (mc - mp).abs() > q3 - q1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(beyond(200, 0.95), 10);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(199), Some(0.9));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        for n in [10, 57, 200, 999, 1_000, 12_345] {
            if let Some(q) = highest_supported(n) {
                assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bound_check_respects_direction() {
        assert!(worse_beyond(100.0, 111.0, true, 0.1));
        assert!(!worse_beyond(100.0, 109.0, true, 0.1));
        assert!(!worse_beyond(100.0, 50.0, true, 0.1));
        assert!(worse_beyond(100.0, 89.0, false, 0.1));
        assert!(!worse_beyond(100.0, 91.0, false, 0.1));
        assert!(!worse_beyond(100.0, 150.0, false, 0.1));
    }

    #[test]
    fn pair_win_needs_nine_of_ten_and_a_gap_beyond_the_parent_spread() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert!(pair_win(&parent, &faster, true));
        assert!(!pair_win(&parent, &faster, false), "wrong direction");
        // Two lost pairs out of ten: 8/10 < 9/10.
        let mut mixed = faster.clone();
        mixed[0] = 11.0;
        mixed[1] = 11.0;
        assert!(!pair_win(&parent, &mixed, true));
        // Wins every pair, but by less than the parent's IQR.
        let nudged: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        assert!(!pair_win(&parent, &nudged, true));
        // Ties count for neither side.
        assert!(!pair_win(&parent, &parent, true));
    }
}
