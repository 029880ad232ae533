//! Order statistics the report is built from.

/// Samples that must lie strictly beyond a percentile before the
/// benchmark reports it: fewer than this and the "tail" is one or two
/// unlucky operations, not a property of the system.
pub const TAIL_SAMPLES: usize = 10;

/// Whether `n` samples support percentile `p` (a fraction in `(0, 1)`):
/// at least [`TAIL_SAMPLES`] of them must rank above it.
pub fn supports(n: usize, p: f64) -> bool {
    n >= TAIL_SAMPLES && ((n as f64) * (1.0 - p) + 1e-9).floor() as usize >= TAIL_SAMPLES
}

/// The highest of `candidates` (ascending fractions) that `n` samples
/// support, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().rev().copied().find(|&p| supports(n, p))
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p·n` samples at or below it. With `n` = 1000 and
/// `p` = 0.99 that is the 990th value, leaving ten samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p * sorted.len() as f64) - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of an unordered sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the run-to-run spread
/// of each metric is judged by. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    // Python's formula verbatim: cut point i of 4 sits at i·(n+1)/4
    // (1-based); the index is clamped to the data but the weight is not,
    // so tiny samples extrapolate exactly as Python does.
    let at = |i: i64| {
        let (n, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the spread figure a
/// metric's bound is compared with.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        let ladder = [0.5, 0.9, 0.99, 0.999];
        assert_eq!(highest_supported(10_000, &ladder), Some(0.999));
        assert_eq!(highest_supported(9_999, &ladder), Some(0.99));
        assert_eq!(highest_supported(1_000, &ladder), Some(0.99));
        assert_eq!(highest_supported(150, &ladder), Some(0.9));
        assert_eq!(highest_supported(19, &ladder), None);
    }

    #[test]
    fn nearest_rank_leaves_exactly_the_tail_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.99)).count(), 10);
        assert_eq!(percentile(&v, 0.5), 500.0);
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.9), 90.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values: statistics.quantiles(v, n=4)[0] and [2].
        let cases: [(&[f64], (f64, f64)); 4] = [
            (&[1.0, 2.0], (0.75, 2.25)),
            (&[1.0, 2.0, 3.0, 4.0, 5.0], (1.5, 4.5)),
            (
                &[10.0, 3.0, 7.0, 1.0, 9.0, 4.0, 8.0, 2.0, 6.0, 5.0],
                (2.75, 8.25),
            ),
            (&[0.5, 0.25, 1.0], (0.25, 1.0)),
        ];
        for (values, want) in cases {
            let got = quartiles(values);
            assert!(
                (got.0 - want.0).abs() < 1e-12 && (got.1 - want.1).abs() < 1e-12,
                "{values:?}: got {got:?}, want {want:?}"
            );
        }
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        let spread = relative_spread(&[10.0, 3.0, 7.0, 1.0, 9.0, 4.0, 8.0, 2.0, 6.0, 5.0]);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
