//! Order statistics over a run's samples.

/// The first quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method); a
/// single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [1, 2, 3].map(|k| {
        let n = sorted.len();
        if n < 2 {
            return sorted.first().copied().unwrap_or(f64::NAN);
        }
        let position = k * (n + 1);
        let index = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - index as f64;
        sorted[index - 1] + (sorted[index] - sorted[index - 1]) * delta
    })
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The highest percentile that still has at least ten samples beyond it,
/// never below the median: returns `(percentile, value)`. With fewer than
/// twenty samples this is the median.
pub fn high_percentile(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 20 {
        return (50.0, median(values));
    }
    let index = n - 11;
    (100.0 * (index + 1) as f64 / n as f64, sorted[index])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(high_percentile(&values), (60.0, 15.0));
        let few: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(high_percentile(&few), (50.0, 5.0));
    }
}
