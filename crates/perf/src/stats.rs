//! Order statistics for timings: medians, tail percentiles that refuse
//! to extrapolate, and the quartile spread the regression rule uses.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has run at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Smallest of `values`: the estimate of an identical, repeated
/// operation's cost that a noisy host disturbs least. On this box reps of
/// one simulation range from 0.45 to 1.0 s, slow spells last seconds, and
/// over ten runs the fastest rep's quartile spread was 5 % where the
/// median rep's was 9 %.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0 < p < 100, nearest rank), or `None` when fewer
/// than [`TAIL_SAMPLES`] samples lie beyond it — a tail read off a handful
/// of samples is the maximum under another name.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() - rank >= TAIL_SAMPLES).then(|| v[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method) — the driver's rule, reproduced so
/// `--compare` agrees with it.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; `None` with
/// fewer than two samples or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(fastest(&[4.0, 1.0, 3.0, 2.0]), 1.0);
    }

    #[test]
    fn percentile_refuses_a_tail_with_under_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // 999 samples leave only nine beyond the 99th percentile.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..100], 99.0), None);
        assert_eq!(percentile(&v[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,...,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
