//! Order statistics with the benchmark's sample-count guard.

/// Fewest samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count; 0 for
/// no values).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples,
/// or an error when fewer than [`MIN_BEYOND`] samples lie beyond it: a
/// tail read from a handful of samples is noise, so the run refuses to
/// report it.
pub fn rank(n: usize, p: f64, what: &str) -> Result<usize, String> {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "{what}: p{p} needs {MIN_BEYOND} samples beyond it, the run has {n}"
        ));
    }
    Ok(rank)
}

/// Nearest-rank `p`-th percentile of `values`, guarded by [`rank`].
pub fn percentile(values: &[f64], p: f64, what: &str) -> Result<f64, String> {
    let rank = rank(values.len(), p, what)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0, "x"), Ok(50.0));
        assert_eq!(percentile(&values, 90.0, "x"), Ok(90.0));
    }

    #[test]
    fn guard_demands_ten_samples_beyond_the_percentile() {
        // The smallest sample counts each percentile accepts.
        for (p, floor) in [(50.0, 20), (90.0, 100), (99.0, 1000)] {
            assert!(rank(floor, p, "x").is_ok(), "p{p} at {floor}");
            assert!(rank(floor - 1, p, "x").is_err(), "p{p} at {}", floor - 1);
        }
        let values: Vec<f64> = (0..999).map(f64::from).collect();
        let err = percentile(&values, 99.0, "miss latency").unwrap_err();
        assert!(err.contains("miss latency") && err.contains("999"), "{err}");
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0, "x"), Ok(989.0));
        assert!(percentile(&[1.0; 19], 50.0, "x").is_err());
        assert!(percentile(&[], 50.0, "x").is_err());
    }
}
