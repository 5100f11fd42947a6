//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_TAIL_SAMPLES`] samples beyond it, so a tail
//! figure is never read off a handful of points.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Tail percentiles considered, highest last.
const TAIL_LADDER: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile `p` (0..=100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `99.9 / 100 * 10_000` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, or `None` when even the 90th
/// has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// A timing summary: sample count, median and the qualifying tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile (reported even below the tail rule,
    /// flagged by `tail`).
    pub p90: f64,
    /// `(percentile, value)` of the highest qualifying tail, if any.
    pub tail: Option<(f64, f64)>,
    /// Largest sample.
    pub max: f64,
}

/// Summarizes `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let p50 = median(values)?;
    let p90 = percentile(values, 90.0)?;
    let max = percentile(values, 100.0)?;
    let tail = tail_percentile(values.len()).and_then(|p| Some((p, percentile(values, p)?)));
    Some(Summary {
        n: values.len(),
        p50,
        p90,
        tail,
        max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 99 samples is rank 90, leaving 9 beyond: too few.
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // p99 of 1000 is rank 990, leaving exactly 10.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_reports_the_qualifying_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).expect("non-empty");
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.max, 1000.0);
        let few = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!(few.tail, None);
        assert_eq!(few.p50, 2.0);
    }
}
