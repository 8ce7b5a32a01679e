//! Order statistics over exact samples and over telemetry histograms.

use watchman_core::telemetry::{bucket_lower, bucket_upper, HistogramSnapshot};

/// Fewest samples a median is reported from.
pub const MIN_MEDIAN_SAMPLES: usize = 10;

/// Fewest samples the 99th percentile is reported from: ten beyond it.
pub const MIN_P99_SAMPLES: usize = 1_000;

/// Nearest-rank `q`-quantile of `values` (sorted in place); `None` when
/// fewer than `min` samples exist.
pub fn quantile(values: &mut [u64], q: f64, min: usize) -> Option<u64> {
    if values.len() < min.max(1) {
        return None;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

/// Median of whole-unit samples (the server reports service time in whole
/// microseconds), interpolated within the unit bin holding the middle rank
/// as for grouped data: a value `v` stands for the interval `[v, v + 1)`.
pub fn binned_median(values: &mut [u64]) -> Option<f64> {
    if values.len() < MIN_MEDIAN_SAMPLES {
        return None;
    }
    values.sort_unstable();
    let half = values.len() as f64 / 2.0;
    let middle = values[values.len() / 2];
    let below = values.partition_point(|v| *v < middle);
    let within = values.partition_point(|v| *v <= middle) - below;
    Some(middle as f64 + (half - below as f64) / within as f64)
}

/// Median of floating-point values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Mean; `None` when empty.
pub fn mean(values: &[u64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().map(|v| *v as f64).sum::<f64>() / values.len() as f64)
}

/// The histogram of values recorded between two snapshots.
pub fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut delta = HistogramSnapshot::empty();
    for (index, count) in after.buckets.iter().enumerate() {
        delta.buckets[index] = count - before.buckets.get(index).copied().unwrap_or(0);
    }
    delta.count = after.count - before.count;
    delta.sum = after.sum.wrapping_sub(before.sum);
    delta.max = after.max;
    delta
}

/// `q`-quantile of a histogram, interpolated linearly inside the bucket
/// holding the rank (the buckets are up to 25% wide); `None` when fewer
/// than `min` values were recorded.
pub fn histogram_quantile(histogram: &HistogramSnapshot, q: f64, min: usize) -> Option<f64> {
    if (histogram.count as usize) < min.max(1) {
        return None;
    }
    let rank = (q * histogram.count as f64).max(1.0);
    let mut seen = 0.0;
    for (index, &count) in histogram.buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let count = count as f64;
        if seen + count >= rank {
            let lower = bucket_lower(index) as f64;
            let upper = bucket_upper(index) as f64 + 1.0;
            return Some(lower + (upper - lower) * (rank - seen) / count);
        }
        seen += count;
    }
    Some(histogram.max as f64)
}
