//! Order statistics and interval arithmetic for the benchmark's metrics.

/// A nearest-rank percentile together with the sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in (0, 100].
    pub pct: f64,
    /// The sample at rank `ceil(pct/100 · n)`.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile: the smallest sample such that at least `pct`
/// percent of the samples are at or below it. `None` on no samples.
///
/// # Panics
///
/// Panics if `pct` is outside (0, 100].
pub fn percentile(samples: &[f64], pct: f64) -> Option<Percentile> {
    assert!(
        pct > 0.0 && pct <= 100.0,
        "percentile {pct} outside (0, 100]"
    );
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps an exact rank such as 0.9 · 10 from rounding up.
    let rank = ((pct / 100.0) * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    Some(Percentile {
        pct,
        value: sorted[rank.min(sorted.len()) - 1],
        samples: sorted.len(),
    })
}

/// Nearest-rank percentile value, `0.0` on no samples (a layer the
/// workload never exercised).
pub fn pct_or_zero(samples: &[f64], pct: f64) -> f64 {
    percentile(samples, pct).map_or(0.0, |p| p.value)
}

/// The deepest tail worth reporting: the highest percentile that still
/// leaves ten samples beyond it, `100 · (n − 10) / n`. `None` on ten
/// samples or fewer.
pub fn deepest_tail(samples: &[f64]) -> Option<Percentile> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        pct: 100.0 * (n - 10) as f64 / n as f64,
        value: sorted[n - 11],
        samples: n,
    })
}

/// Operations per throughput window: a few tenths of a second of
/// `svc_sweep`, and exactly one `cp_pll` device on `bist_table2`.
pub const RATE_WINDOW: usize = 8;
/// Operations per latency window for the p90.
pub const LATENCY_WINDOW: usize = 64;

/// Throughput that a few slow seconds on a shared host do not move: the
/// median, over consecutive windows of `k` operations, of the points they
/// completed per second of the window. `ops` are `(points, end)` in
/// completion order, with `end` in seconds from `start`; a trailing partial
/// window is dropped unless it is the only one.
pub fn windowed_rate(ops: &[(f64, f64)], start: f64, k: usize) -> f64 {
    let mut rates = Vec::new();
    let mut previous_end = start;
    for window in ops.chunks(k) {
        if window.len() < k && !rates.is_empty() {
            break;
        }
        let points: f64 = window.iter().map(|op| op.0).sum();
        let end = window[window.len() - 1].1;
        rates.push(points / (end - previous_end).max(1e-9));
        previous_end = end;
    }
    median(&rates)
}

/// The median, over consecutive windows of `k` samples (a trailing
/// partial window dropped unless it is the only one), of each window's
/// nearest-rank `pct` percentile. `0.0` on no samples.
pub fn windowed_percentile(samples: &[f64], k: usize, pct: f64) -> f64 {
    let per_window: Vec<f64> = samples
        .chunks(k)
        .enumerate()
        .filter(|(i, window)| window.len() == k || *i == 0)
        .map(|(_, window)| pct_or_zero(window, pct))
        .collect();
    median(&per_window)
}

/// Arithmetic mean, `0.0` on no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median (nearest rank) of a small sample, `0.0` on no samples.
pub fn median(samples: &[f64]) -> f64 {
    pct_or_zero(samples, 50.0)
}

/// Total length covered by the union of `[start, end)` intervals: the
/// wall time that at least one of several (possibly parallel) child spans
/// was running.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample_and_counts_them() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        let p50 = percentile(&samples, 50.0).expect("non-empty");
        assert_eq!(p50.value, 3.0);
        assert_eq!(p50.samples, 5);
        // ceil(0.9 · 5) = 5 → the maximum; ceil(0.2 · 5) = 1 → the minimum.
        assert_eq!(percentile(&samples, 90.0).expect("non-empty").value, 5.0);
        assert_eq!(percentile(&samples, 20.0).expect("non-empty").value, 1.0);
        assert_eq!(percentile(&samples, 100.0).expect("non-empty").value, 5.0);
        // Ten samples: p90 is the 9th, not an interpolation.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0).expect("non-empty").value, 9.0);
        assert_eq!(percentile(&ten, 91.0).expect("non-empty").value, 10.0);
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(pct_or_zero(&[], 50.0), 0.0);
    }

    #[test]
    fn deepest_tail_keeps_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let tail = deepest_tail(&hundred).expect("enough samples");
        assert_eq!((tail.pct, tail.value, tail.samples), (90.0, 90.0, 100));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = deepest_tail(&thousand).expect("enough");
        assert_eq!((tail.pct, tail.value), (99.0, 990.0));
        let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(deepest_tail(&fifteen).expect("enough").value, 5.0);
        assert!(deepest_tail(&fifteen[..10]).is_none());
    }

    #[test]
    fn windowed_statistics_take_the_median_window() {
        // Four windows of two 10-point operations; the third is slow.
        let ops = [
            (10.0, 1.0),
            (10.0, 2.0),
            (10.0, 3.0),
            (10.0, 4.0),
            (10.0, 9.0),
            (10.0, 14.0),
            (10.0, 15.0),
            (10.0, 16.0),
            (10.0, 17.0),
        ];
        // Window rates 10, 10, 2, 10; the trailing partial window is dropped.
        assert_eq!(windowed_rate(&ops, 0.0, 2), 10.0);
        assert_eq!(windowed_rate(&ops[..1], 0.0, 2), 10.0);
        let latencies = [1.0, 2.0, 3.0, 4.0, 50.0, 60.0, 5.0, 6.0];
        // Per-window maxima 2, 4, 60, 6 → nearest-rank median 4.
        assert_eq!(windowed_percentile(&latencies, 2, 100.0), 4.0);
        assert_eq!(windowed_percentile(&latencies[..1], 2, 90.0), 1.0);
        assert_eq!(windowed_percentile(&[], 2, 90.0), 0.0);
    }

    #[test]
    fn union_merges_overlapping_intervals() {
        assert_eq!(union_len(&[]), 0.0);
        assert_eq!(union_len(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(&[(4.0, 5.0), (0.0, 10.0)]), 10.0);
        assert_eq!(union_len(&[(0.0, 1.0), (1.0, 2.0)]), 2.0);
    }
}
