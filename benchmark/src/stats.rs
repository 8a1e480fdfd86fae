//! Order statistics the report is built from.

/// Sorts ascending by `total_cmp` (NaN-safe) and returns the vector.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `v` (mean of the middle pair when even).
///
/// # Panics
/// Panics when `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `v`, refused with `None`
/// when fewer than [`MIN_BEYOND`] samples lie strictly beyond its rank: a
/// tail read off a handful of samples does not repeat.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile wants 0 < p < 1");
    if v.is_empty() {
        return None;
    }
    let s = sorted(v.to_vec());
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    (s.len() - rank >= MIN_BEYOND).then(|| s[rank - 1])
}

/// The highest of 99/95/90/75 that `v` supports, with its value; the
/// median when even p75 has too few samples beyond it.
pub fn highest_percentile(v: &[f64]) -> (u32, f64) {
    for (label, p) in [(99, 0.99), (95, 0.95), (90, 0.90), (75, 0.75)] {
        if let Some(x) = percentile(v, p) {
            return (label, x);
        }
    }
    (50, median(v))
}

/// Quartiles by Python's `statistics.quantiles(v, n=4)` (exclusive
/// method) — the rule the driver applies to the ten-seed spread.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(v.len() >= 2, "quartiles want two samples");
    let s = sorted(v.to_vec());
    let n = s.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) - j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Median over rounds: one disturbed round of five does not move it.
        assert_eq!(median(&[10.0, 10.1, 55.0, 9.9, 10.0]), 10.0);
    }

    #[test]
    fn percentile_of_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        let shuffled: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&shuffled, 0.90), Some(180.0));
        assert_eq!(percentile(&shuffled, 0.95), Some(190.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // p90 of 99 samples leaves 9 beyond rank 90: refused.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), None);
        // p99 of 100 samples leaves one beyond it: refused.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(highest_percentile(&v), (90, 90.0));
        assert_eq!(highest_percentile(&[1.0, 2.0, 3.0]), (50, 2.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }
}
