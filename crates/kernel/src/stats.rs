//! Measurement instruments: histograms, bandwidth meters, utilization
//! meters and online means.
//!
//! These are the instruments every experiment binary uses to produce the
//! paper's figures: latency percentiles (tail latency, Figs 10–11),
//! millisecond-binned bandwidth timelines (Fig 2), and busy-time
//! utilization split by traffic class (Figs 2c/2d, 7b).

use crate::{SimSpan, SimTime};

/// Sub-bucket resolution bits for the log-bucketed histogram mode: 128
/// sub-buckets per octave, giving a worst-case bucket width of 1/128 of
/// the value and a midpoint representative within 1/256 (≈0.4%) of any
/// sample — comfortably inside the advertised ≤1% relative error.
const LOG_SUB_BITS: u32 = 7;
const LOG_SUB: u64 = 1 << LOG_SUB_BITS;

fn log_bucket_index(v: u64) -> usize {
    if v < LOG_SUB {
        v as usize
    } else {
        let e = 63 - u64::from(v.leading_zeros());
        let shift = (e - u64::from(LOG_SUB_BITS)) as u32;
        let sub = (v >> shift) - LOG_SUB;
        ((e - u64::from(LOG_SUB_BITS) + 1) * LOG_SUB + sub) as usize
    }
}

fn log_bucket_value(i: usize) -> u64 {
    let i = i as u64;
    if i < LOG_SUB {
        i
    } else {
        let octave = i / LOG_SUB; // >= 1
        let sub = i % LOG_SUB;
        let shift = (octave - 1) as u32;
        let low = (LOG_SUB + sub) << shift;
        low + (1u64 << shift) / 2
    }
}

#[derive(Debug, Clone)]
enum HistogramRepr {
    /// Raw samples, sorted lazily: exact percentiles, O(n) memory.
    Exact { samples: Vec<u64>, sorted: bool },
    /// HDR-style log-bucketed counts: ≤1% relative error, O(1) memory
    /// (at most ~7.5k buckets across the full `u64` range).
    Log { buckets: Vec<u64> },
}

/// A histogram of [`SimSpan`] samples with exact and log-bucketed modes.
///
/// The default ([`Histogram::new`]) stores samples raw (nanoseconds) and
/// sorts lazily, so percentiles are exact rather than bucketed — important
/// for the paper's 99th- and 99.99th-percentile tail-latency comparisons
/// where bucketing error would distort multi-10× ratios.
///
/// The opt-in log-bucketed mode ([`Histogram::log_bucketed`]) keeps
/// HDR-style per-octave counts instead (128 sub-buckets per power of two),
/// bounding memory at a few kilobytes regardless of run length while
/// keeping percentiles within 1% relative error. `mean`, `min`, `max`,
/// `count` and `sum` stay exact in both modes.
///
/// # Example
///
/// ```
/// use dssd_kernel::stats::Histogram;
/// use dssd_kernel::SimSpan;
///
/// let mut h = Histogram::new();
/// for us in 1..=100 {
///     h.record(SimSpan::from_us(us));
/// }
/// assert_eq!(h.percentile(0.99), SimSpan::from_us(99));
/// assert_eq!(h.max(), SimSpan::from_us(100));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    repr: HistogramRepr,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty exact-percentile histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            repr: HistogramRepr::Exact {
                samples: Vec::new(),
                sorted: true,
            },
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Creates an empty log-bucketed histogram: bounded memory, ≤1%
    /// relative percentile error. Intended for long runs (telemetry
    /// summaries, endurance sweeps) where storing every sample would grow
    /// without bound.
    #[must_use]
    pub fn log_bucketed() -> Self {
        Histogram {
            repr: HistogramRepr::Log {
                buckets: Vec::new(),
            },
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimSpan) {
        let v = sample.as_ns();
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        match &mut self.repr {
            HistogramRepr::Exact { samples, sorted } => {
                samples.push(v);
                *sorted = false;
            }
            HistogramRepr::Log { buckets } => {
                let i = log_bucket_index(v);
                if buckets.len() <= i {
                    buckets.resize(i + 1, 0);
                }
                buckets[i] += 1;
            }
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// True if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of all samples ([`SimSpan::ZERO`] when empty). Exact in both
    /// modes (the sum is tracked outside the buckets).
    #[must_use]
    pub fn mean(&self) -> SimSpan {
        if self.count == 0 {
            return SimSpan::ZERO;
        }
        SimSpan::from_ns((self.sum / u128::from(self.count)) as u64)
    }

    /// The `p`-quantile (`p` in `[0, 1]`), using the nearest-rank method.
    /// Returns [`SimSpan::ZERO`] when empty. Exact in the default mode;
    /// within 1% relative error in log-bucketed mode (and always clamped
    /// to the exact observed `[min, max]`).
    pub fn percentile(&mut self, p: f64) -> SimSpan {
        if self.count == 0 {
            return SimSpan::ZERO;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        match &mut self.repr {
            HistogramRepr::Exact { samples, sorted } => {
                if !*sorted {
                    samples.sort_unstable();
                    *sorted = true;
                }
                SimSpan::from_ns(samples[(rank - 1) as usize])
            }
            HistogramRepr::Log { buckets } => {
                let mut seen = 0u64;
                for (i, &c) in buckets.iter().enumerate() {
                    seen += c;
                    if seen >= rank {
                        return SimSpan::from_ns(
                            log_bucket_value(i).clamp(self.min, self.max),
                        );
                    }
                }
                SimSpan::from_ns(self.max)
            }
        }
    }

    /// Largest sample, exact in both modes ([`SimSpan::ZERO`] when empty).
    #[must_use]
    pub fn max(&self) -> SimSpan {
        if self.count == 0 {
            return SimSpan::ZERO;
        }
        SimSpan::from_ns(self.max)
    }

    /// Smallest sample, exact in both modes ([`SimSpan::ZERO`] when empty).
    #[must_use]
    pub fn min(&self) -> SimSpan {
        if self.count == 0 {
            return SimSpan::ZERO;
        }
        SimSpan::from_ns(self.min)
    }
}

/// A windowed byte-throughput meter.
///
/// Bytes are accumulated into fixed-width time bins (the paper measures
/// I/O bandwidth every 1 ms for Fig 2); the series can then be read back
/// as bytes-per-second per bin.
///
/// # Example
///
/// ```
/// use dssd_kernel::stats::BandwidthMeter;
/// use dssd_kernel::{SimSpan, SimTime};
///
/// let mut m = BandwidthMeter::new(SimSpan::from_ms(1));
/// m.record(SimTime::from_us(100), 1_000_000);
/// m.record(SimTime::from_us(1_500), 2_000_000);
/// let series = m.series();
/// assert_eq!(series.len(), 2);
/// assert!((series[0].1 - 1e9).abs() < 1.0); // 1 MB in 1 ms = 1 GB/s
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthMeter {
    window: SimSpan,
    bins: Vec<u64>,
    total: u64,
}

impl BandwidthMeter {
    /// Creates a meter with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: SimSpan) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        BandwidthMeter {
            window,
            bins: Vec::new(),
            total: 0,
        }
    }

    /// Credits `bytes` of completed transfer at time `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        let bin = (at.as_ns() / self.window.as_ns()) as usize;
        if self.bins.len() <= bin {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += bytes;
        self.total += bytes;
    }

    /// Total bytes recorded.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// The bin width.
    #[must_use]
    pub fn window(&self) -> SimSpan {
        self.window
    }

    /// The timeline as `(bin start, bytes per second)` pairs.
    #[must_use]
    pub fn series(&self) -> Vec<(SimTime, f64)> {
        let w = self.window.as_secs_f64();
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &b)| (SimTime::from_ns(i as u64 * self.window.as_ns()), b as f64 / w))
            .collect()
    }

    /// Mean bytes-per-second over `elapsed` (0 when `elapsed` is zero).
    #[must_use]
    pub fn mean_rate(&self, elapsed: SimSpan) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.total as f64 / elapsed.as_secs_f64()
    }
}

/// A windowed busy-time integrator.
///
/// Busy intervals (e.g. bus occupancy) are accumulated into fixed-width
/// time bins, correctly splitting intervals that span bin boundaries, so
/// utilization timelines like Fig 2(c,d) can be produced.
///
/// # Example
///
/// ```
/// use dssd_kernel::stats::UtilizationMeter;
/// use dssd_kernel::{SimSpan, SimTime};
///
/// let mut m = UtilizationMeter::new(SimSpan::from_ms(1));
/// // busy from 0.5 ms to 1.5 ms: 50% of each of the first two bins
/// m.record_busy(SimTime::from_us(500), SimTime::from_us(1_500));
/// let u = m.series();
/// assert!((u[0].1 - 0.5).abs() < 1e-9);
/// assert!((u[1].1 - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationMeter {
    window: SimSpan,
    bins: Vec<u64>,
    total_busy: SimSpan,
}

impl UtilizationMeter {
    /// Creates a meter with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: SimSpan) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        UtilizationMeter {
            window,
            bins: Vec::new(),
            total_busy: SimSpan::ZERO,
        }
    }

    /// Records a busy interval `[start, end)`, splitting it across bins.
    pub fn record_busy(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        self.total_busy += end - start;
        let w = self.window.as_ns();
        let mut cur = start.as_ns();
        let end = end.as_ns();
        while cur < end {
            let bin = (cur / w) as usize;
            let bin_end = (cur / w + 1) * w;
            let seg_end = bin_end.min(end);
            if self.bins.len() <= bin {
                self.bins.resize(bin + 1, 0);
            }
            self.bins[bin] += seg_end - cur;
            cur = seg_end;
        }
    }

    /// Total busy time recorded.
    #[must_use]
    pub fn total_busy(&self) -> SimSpan {
        self.total_busy
    }

    /// The timeline as `(bin start, utilization in [0,1])` pairs.
    #[must_use]
    pub fn series(&self) -> Vec<(SimTime, f64)> {
        let w = self.window.as_ns() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &b)| (SimTime::from_ns(i as u64 * self.window.as_ns()), b as f64 / w))
            .collect()
    }

    /// Mean utilization over `elapsed` (0 when `elapsed` is zero).
    #[must_use]
    pub fn mean(&self, elapsed: SimSpan) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.total_busy.as_ns() as f64 / elapsed.as_ns() as f64
    }
}

/// A numerically simple online mean/min/max accumulator for `f64` series.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineMean {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl OnlineMean {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineMean::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_exact() {
        let mut h = Histogram::new();
        for us in (1..=1000).rev() {
            h.record(SimSpan::from_us(us));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.percentile(0.50), SimSpan::from_us(500));
        assert_eq!(h.percentile(0.99), SimSpan::from_us(990));
        assert_eq!(h.percentile(1.0), SimSpan::from_us(1000));
        assert_eq!(h.percentile(0.0), SimSpan::from_us(1));
        assert_eq!(h.min(), SimSpan::from_us(1));
        assert_eq!(h.max(), SimSpan::from_us(1000));
    }

    #[test]
    fn histogram_single_sample() {
        let mut h = Histogram::new();
        h.record(SimSpan::from_us(7));
        assert_eq!(h.percentile(0.5), SimSpan::from_us(7));
        assert_eq!(h.mean(), SimSpan::from_us(7));
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), SimSpan::ZERO);
        assert_eq!(h.mean(), SimSpan::ZERO);
        assert_eq!(h.max(), SimSpan::ZERO);
    }

    #[test]
    fn histogram_interleaves_record_and_percentile() {
        let mut h = Histogram::new();
        h.record(SimSpan::from_us(10));
        assert_eq!(h.percentile(1.0), SimSpan::from_us(10));
        h.record(SimSpan::from_us(20));
        assert_eq!(h.percentile(1.0), SimSpan::from_us(20));
    }

    #[test]
    fn bandwidth_meter_bins_and_totals() {
        let mut m = BandwidthMeter::new(SimSpan::from_ms(1));
        m.record(SimTime::from_us(10), 100);
        m.record(SimTime::from_us(999), 100);
        m.record(SimTime::from_us(1000), 100);
        assert_eq!(m.total_bytes(), 300);
        let s = m.series();
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 200_000.0).abs() < 1e-6);
        assert!((s[1].1 - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_meter_mean_rate() {
        let mut m = BandwidthMeter::new(SimSpan::from_ms(1));
        m.record(SimTime::from_us(1), 8_000);
        assert!((m.mean_rate(SimSpan::from_us(1_000)) - 8e6).abs() < 1.0);
        assert_eq!(m.mean_rate(SimSpan::ZERO), 0.0);
    }

    #[test]
    fn utilization_meter_splits_across_bins() {
        let mut m = UtilizationMeter::new(SimSpan::from_us(10));
        m.record_busy(SimTime::from_us(5), SimTime::from_us(25));
        let s = m.series();
        assert_eq!(s.len(), 3);
        assert!((s[0].1 - 0.5).abs() < 1e-12);
        assert!((s[1].1 - 1.0).abs() < 1e-12);
        assert!((s[2].1 - 0.5).abs() < 1e-12);
        assert_eq!(m.total_busy(), SimSpan::from_us(20));
    }

    #[test]
    fn utilization_meter_ignores_empty_interval() {
        let mut m = UtilizationMeter::new(SimSpan::from_us(10));
        m.record_busy(SimTime::from_us(5), SimTime::from_us(5));
        assert_eq!(m.total_busy(), SimSpan::ZERO);
        assert!(m.series().is_empty());
    }

    #[test]
    fn online_mean_tracks_extremes() {
        let mut m = OnlineMean::new();
        for x in [3.0, -1.0, 7.0] {
            m.record(x);
        }
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 3.0).abs() < 1e-12);
        assert_eq!(m.min(), -1.0);
        assert_eq!(m.max(), 7.0);
    }

    #[test]
    fn histogram_zero_length_spans() {
        let mut h = Histogram::new();
        h.record(SimSpan::ZERO);
        h.record(SimSpan::ZERO);
        h.record(SimSpan::from_us(4));
        assert_eq!(h.min(), SimSpan::ZERO);
        assert_eq!(h.percentile(0.5), SimSpan::ZERO);
        assert_eq!(h.percentile(1.0), SimSpan::from_us(4));
        assert_eq!(h.mean(), SimSpan::from_ns(4_000 / 3));
    }

    #[test]
    fn histogram_single_sample_percentiles() {
        for make in [Histogram::new, Histogram::log_bucketed] {
            let mut h = make();
            h.record(SimSpan::from_us(7));
            for p in [0.0, 0.5, 0.99, 0.9999, 1.0] {
                assert_eq!(h.percentile(p), SimSpan::from_us(7), "p={p}");
            }
            assert_eq!(h.min(), SimSpan::from_us(7));
            assert_eq!(h.max(), SimSpan::from_us(7));
            assert_eq!(h.mean(), SimSpan::from_us(7));
        }
    }

    #[test]
    fn log_bucket_roundtrip_error_is_bounded() {
        // Every representative value must be within 1% of every sample
        // mapped into its bucket, across the full dynamic range.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for s in [v, v + v / 3, v.saturating_mul(2) - 1] {
                let rep = log_bucket_value(log_bucket_index(s));
                let err = (rep as f64 - s as f64).abs() / s as f64;
                assert!(err <= 0.01, "sample {s}: rep {rep}, err {err}");
            }
            v = v.saturating_mul(2);
        }
        // Small values are exact.
        for s in 0..LOG_SUB {
            assert_eq!(log_bucket_value(log_bucket_index(s)), s);
        }
    }

    #[test]
    fn log_bucketed_percentiles_within_one_percent_of_exact() {
        let mut exact = Histogram::new();
        let mut log = Histogram::log_bucketed();
        // A skewed distribution spanning several decades.
        let mut x = 17u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let ns = 100 + (x >> 40) * (x >> 62).max(1);
            exact.record(SimSpan::from_ns(ns));
            log.record(SimSpan::from_ns(ns));
        }
        assert_eq!(exact.count(), log.count());
        assert_eq!(exact.mean(), log.mean());
        assert_eq!(exact.min(), log.min());
        assert_eq!(exact.max(), log.max());
        for p in [0.5, 0.9, 0.99, 0.9999] {
            let e = exact.percentile(p).as_ns() as f64;
            let l = log.percentile(p).as_ns() as f64;
            assert!((l - e).abs() / e <= 0.01, "p={p}: exact {e}, log {l}");
        }
    }

    #[test]
    fn bandwidth_meter_bin_boundary_samples() {
        let mut m = BandwidthMeter::new(SimSpan::from_us(10));
        // A sample exactly on a bin boundary belongs to the later bin.
        m.record(SimTime::from_us(10), 100);
        m.record(SimTime::from_ns(9_999), 50);
        m.record(SimTime::ZERO, 25);
        let s = m.series();
        assert_eq!(s.len(), 2);
        let w = SimSpan::from_us(10).as_secs_f64();
        assert!((s[0].1 - 75.0 / w).abs() < 1e-6);
        assert!((s[1].1 - 100.0 / w).abs() < 1e-6);
    }

    #[test]
    fn utilization_meter_overlapping_busy_intervals() {
        // Two overlapping busy intervals double-count, as documented: the
        // meter integrates busy time, it does not deduplicate sources.
        let mut m = UtilizationMeter::new(SimSpan::from_us(10));
        m.record_busy(SimTime::from_us(0), SimTime::from_us(10));
        m.record_busy(SimTime::from_us(5), SimTime::from_us(15));
        assert_eq!(m.total_busy(), SimSpan::from_us(20));
        let s = m.series();
        assert!((s[0].1 - 1.5).abs() < 1e-12);
        assert!((s[1].1 - 0.5).abs() < 1e-12);
    }
}
