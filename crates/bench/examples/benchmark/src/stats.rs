//! Order statistics and the regression-bound comparator.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread printed here matches one
//! computed from the same values with the standard library.

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` with the median in the middle.
/// With fewer than two values every quartile is that value (or `NaN`).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    // Python's integer arithmetic, including a delta that goes negative
    // (extrapolation) when the clamp moves `j`.
    let (n, m) = (n as i64, n as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = (s.len() - 1) as f64 * (p / 100.0).clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A tail latency: the highest percentile of [`TAIL_LADDER`] with at
/// least ten samples beyond it, with the sample count it came from.
/// Below 40 samples no rung qualifies and the median stands in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Picks the tail percentile for `n` samples (see [`Tail`]).
pub fn tail_pct(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// The tail of `values` (see [`Tail`]).
pub fn tail(values: &[f64]) -> Tail {
    let pct = tail_pct(values.len());
    Tail {
        pct,
        value: percentile(values, pct),
        n: values.len(),
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

#[cfg(test)]
impl Better {
    /// The name `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `true` when `new` is worse than `base` by no more than `rel` of
/// `base`.
pub fn within_bound(base: f64, new: f64, better: Better, rel: f64) -> bool {
    let allowance = rel * base.abs();
    match better {
        Better::Lower => new <= base + allowance,
        Better::Higher => new >= base - allowance,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_pct(10_000), 99.9);
        assert_eq!(tail_pct(9_999), 99.0);
        assert_eq!(tail_pct(1_000), 99.0);
        assert_eq!(tail_pct(999), 95.0);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(39), 50.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.n), (99.0, 1000));
        assert!((t.value - 990.01).abs() < 1e-9);
    }

    #[test]
    fn bound_is_a_share_of_the_baseline() {
        // 10 % of 100 ms is the allowance.
        assert!(within_bound(0.100, 0.110, Better::Lower, 0.10));
        assert!(!within_bound(0.100, 0.111, Better::Lower, 0.10));
        // Higher-is-better metrics may drop by the allowance.
        assert!(within_bound(1000.0, 900.0, Better::Higher, 0.10));
        assert!(!within_bound(1000.0, 899.0, Better::Higher, 0.10));
        // Improvements always pass; a zero bound demands no change.
        assert!(within_bound(1.0, 0.5, Better::Lower, 0.0));
        assert!(within_bound(2.0, 4.0, Better::Higher, 0.0));
        assert!(!within_bound(0.0, 0.01, Better::Lower, 0.0));
    }
}
