//! Metric arithmetic: order statistics over repeated samples and the
//! ratio formulas every reported metric is built from. Kept free of I/O
//! so each formula is unit-tested on its own.

use std::time::Duration;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0.0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `xs`; 0.0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method, which
/// extrapolates for tiny samples), so the spread printed here is the one
/// the repeat mode and any external check compute. With fewer than two
/// samples both quartiles are the lone value (or 0.0).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    match ld {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let at = |i: i64| {
        let (n, m) = (4, ld + 1);
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0.0 when the median
/// is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// Max over mean of non-negative loads: 1.0 is perfect balance, `n` is
/// all load on one of `n` parts. No load at all counts as balanced.
pub fn max_over_avg(loads: &[f64]) -> f64 {
    let total: f64 = loads.iter().sum();
    if loads.is_empty() || total <= 0.0 {
        return 1.0;
    }
    let max = loads.iter().fold(0.0f64, |a, &b| a.max(b));
    max * loads.len() as f64 / total
}

/// Share of `wall` a task spent busy.
pub fn busy_frac(busy: Duration, wall: Duration) -> f64 {
    ratio(busy.as_secs_f64(), wall.as_secs_f64())
}

/// `total / count`, or 0.0 when nothing was counted.
pub fn ratio(total: f64, count: f64) -> f64 {
    if count <= 0.0 {
        0.0
    } else {
        total / count
    }
}

/// Records per second over a wall time.
pub fn throughput(records: usize, wall: Duration) -> f64 {
    ratio(records as f64, wall.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn imbalance_formula() {
        assert_eq!(max_over_avg(&[1.0, 1.0]), 1.0);
        assert_eq!(max_over_avg(&[3.0, 1.0]), 1.5);
        assert_eq!(max_over_avg(&[5.0, 0.0]), 2.0);
        assert_eq!(max_over_avg(&[0.0, 0.0]), 1.0);
        assert_eq!(max_over_avg(&[]), 1.0);
    }

    #[test]
    fn busy_fraction_and_normalisations() {
        let f = busy_frac(Duration::from_millis(250), Duration::from_secs(1));
        assert!((f - 0.25).abs() < 1e-12);
        assert_eq!(busy_frac(Duration::from_secs(1), Duration::ZERO), 0.0);
        assert_eq!(ratio(10.0, 4.0), 2.5);
        assert_eq!(ratio(10.0, 0.0), 0.0);
        assert!((throughput(1_000, Duration::from_millis(500)) - 2_000.0).abs() < 1e-9);
        assert_eq!(throughput(1_000, Duration::ZERO), 0.0);
    }
}
