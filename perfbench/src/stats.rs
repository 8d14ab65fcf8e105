//! Exact order statistics over raw samples.
//!
//! Percentiles are read straight off the sorted samples (nearest rank),
//! never from a bucketed histogram: a log-bucketed histogram whose
//! buckets are up to 12.5% wide cannot resolve a 10% regression bound.

/// Nearest-rank percentile `q` (in `[0, 1]`) of `sorted`, which must be
/// sorted ascending. `None` on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a sample set ascending (all samples are finite durations).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of an unsorted sample set; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// `num / den`, or 0 when nothing was counted (a layer the workload
/// never reached does no work and wastes none).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
