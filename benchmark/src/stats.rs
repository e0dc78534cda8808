//! Order statistics for the report: one definition of "median", "quartile"
//! and "percentile" for every number this benchmark prints.

/// Sorted copy (total order; samples are finite measurements).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: middle sample, or the mean of the two middle ones. 0 if empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the definition the acceptance check
/// uses, so `compare`'s spread reads the same as the driver's. Fewer than
/// two samples have no spread: both quartiles are the sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    ((q3 - q1) / m).abs()
}

/// Nearest-rank percentile: the sample at rank `ceil(q·N)`, clamped to
/// `[1, N]` — the same definition `bench::sketch` uses. 0 if empty.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(nearest_rank(&v, 0.5), 20.0);
        assert_eq!(nearest_rank(&v, 0.9), 40.0);
        assert_eq!(nearest_rank(&v, 0.0), 10.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }
}
