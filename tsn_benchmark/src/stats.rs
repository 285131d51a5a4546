//! Order statistics for timings: median, extremes and quartile distance of
//! repetitions, and percentiles that are only reported when the sample can
//! support them.
//!
//! What a run reports for repetitions of the same work is their **median**:
//! a slowdown that hits most repetitions or windows moves it, a host that
//! stalls a minority of them does not. The fastest sample is printed beside
//! it as a diagnostic and gates nothing.

use std::time::Duration;

/// A latency percentile is reported only when at least this many samples
/// lie beyond it; below that the tail estimate is one or two outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Summary of repeated timings of the same work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    /// The fastest sample: printed, never reported.
    pub min: f64,
    /// What a run reports for repeated work (see the module documentation).
    pub median: f64,
    pub max: f64,
    /// Distance between the first and third quartile.
    pub iqr: f64,
}

impl Summary {
    /// Summarizes `values` (any order). Panics on an empty slice: every
    /// workload runs at least one repetition.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of zero samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            samples: sorted.len(),
            min: sorted[0],
            median: quantile(&sorted, 0.5),
            max: sorted[sorted.len() - 1],
            iqr: quantile(&sorted, 0.75) - quantile(&sorted, 0.25),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} (fastest {:.6}, slowest {:.6}, iqr {:.6}, n={})",
            self.median, self.min, self.max, self.iqr, self.samples
        )
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The `q` percentile of an ascending latency slice, or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn supported_percentile(sorted: &[Duration], q: f64) -> Option<Duration> {
    let idx = percentile_index(sorted.len(), q)?;
    (sorted.len() - 1 - idx >= MIN_SAMPLES_BEYOND).then(|| sorted[idx])
}

/// The `q` percentile when the sample supports it, otherwise the slowest
/// sample — the honest tail of a handful of repetitions.
pub fn percentile_or_max(sorted: &[Duration], q: f64) -> Duration {
    supported_percentile(sorted, q).unwrap_or_else(|| sorted.last().copied().unwrap_or_default())
}

/// The nearest-rank `q` percentile of an ascending slice (zero when empty),
/// for callers that have established the sample supports it.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    percentile_index(sorted.len(), q).map_or(Duration::ZERO, |i| sorted[i])
}

/// The median latency of an ascending slice (zero when empty).
pub fn median_latency(sorted: &[Duration]) -> Duration {
    percentile(sorted, 0.5)
}

/// Nearest-rank index of the `q` percentile among `len` ascending samples.
fn percentile_index(len: usize, q: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * len as f64).ceil() as usize;
    Some(rank.clamp(1, len) - 1)
}

/// Splits samples in time order into `windows` consecutive groups of equal
/// size (a remainder is dropped), takes the `q` percentile of each, and
/// returns the median over the windows: a frozen stretch of the host then
/// costs one window, not the run's tail, while a slowdown in most windows
/// shows. Prints the per-window values under `label`.
pub fn windowed_percentile(label: &str, in_order: &[Duration], windows: usize, q: f64) -> Duration {
    let size = (in_order.len() / windows.max(1)).max(1);
    let mut per_window: Vec<Duration> = in_order
        .chunks_exact(size)
        .map(|window| {
            let mut sorted = window.to_vec();
            sorted.sort_unstable();
            percentile_or_max(&sorted, q)
        })
        .collect();
    per_window.sort_unstable();
    let shown: Vec<String> = per_window
        .iter()
        .map(|d| format!("{:.0}", micros(*d)))
        .collect();
    println!("{label} per window, ascending: [{}] us", shown.join(", "));
    // With an even number of windows, the mean of the middle two.
    let middle = |i: usize| per_window.get(i).copied().unwrap_or_default();
    (middle(per_window.len().saturating_sub(1) / 2) + middle(per_window.len() / 2)) / 2
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<Duration> {
        (1..=n).map(Duration::from_micros).collect()
    }

    #[test]
    fn summary_reports_median_and_quartile_distance() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.samples, 5);
        assert_eq!((s.min, s.median, s.max), (1.0, 3.0, 5.0));
        assert_eq!(s.iqr, 2.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        // Two disturbed repetitions in five do not move the median; three do.
        assert_eq!(Summary::of(&[2.0, 2.1, 30.0, 2.2, 12.0]).median, 2.2);
        assert_eq!(Summary::of(&[2.0, 9.0, 30.0, 2.2, 12.0]).median, 9.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 samples is the 190th: exactly 10 beyond it.
        assert_eq!(
            supported_percentile(&ramp(200), 0.95),
            Some(Duration::from_micros(190))
        );
        // One sample fewer leaves 9 beyond the p95: not reportable.
        assert_eq!(supported_percentile(&ramp(199), 0.95), None);
        // The median of 20 samples is the 10th: exactly 10 beyond it.
        assert_eq!(
            supported_percentile(&ramp(20), 0.5),
            Some(Duration::from_micros(10))
        );
        assert_eq!(supported_percentile(&ramp(19), 0.5), None);
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn unsupported_tail_falls_back_to_the_slowest_sample() {
        assert_eq!(
            percentile_or_max(&ramp(5), 0.95),
            Duration::from_micros(5),
            "five repetitions have no p95; the slowest one stands in"
        );
        assert_eq!(
            percentile_or_max(&ramp(1000), 0.95),
            Duration::from_micros(950)
        );
        assert_eq!(median_latency(&ramp(5)), Duration::from_micros(3));
        assert_eq!(median_latency(&[]), Duration::ZERO);
    }

    #[test]
    fn a_stalled_window_costs_one_window_but_a_stalled_majority_shows() {
        // Five windows of 100 samples at 1..=100 us; the third window is a
        // stall where everything took 50 ms.
        let mut samples: Vec<Duration> = (0..5).flat_map(|_| ramp(100)).collect();
        for sample in &mut samples[200..300] {
            *sample = Duration::from_millis(50);
        }
        assert_eq!(
            windowed_percentile("p95", &samples, 5, 0.95),
            Duration::from_micros(100),
            "windows of 100 have no supported p95: the slowest sample stands in"
        );
        assert_eq!(
            windowed_percentile("p50", &samples, 5, 0.5),
            Duration::from_micros(50)
        );
        assert_eq!(windowed_percentile("p50", &[], 5, 0.5), Duration::ZERO);
        assert_eq!(
            windowed_percentile("p50", &samples[..200], 2, 0.5),
            Duration::from_micros(50)
        );
        assert_eq!(
            windowed_percentile("p50", &samples[100..300], 2, 0.5),
            Duration::from_micros(25_025),
            "two windows: the mean of both"
        );
        // Pooled, the stall owns the p95.
        let mut pooled = samples.clone();
        pooled.sort_unstable();
        assert_eq!(percentile_or_max(&pooled, 0.95), Duration::from_millis(50));
        // A stall in three windows of five is a regression, not noise.
        for sample in &mut samples[..200] {
            *sample = Duration::from_millis(50);
        }
        assert_eq!(
            windowed_percentile("p50", &samples, 5, 0.5),
            Duration::from_millis(50)
        );
    }
}
