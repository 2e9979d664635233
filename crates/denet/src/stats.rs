//! Statistics collectors for simulation output analysis.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A running tally of scalar observations (Welford's algorithm).
#[derive(Debug, Clone)]
pub struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally::new()
    }
}

impl Tally {
    /// Create a new instance.
    pub fn new() -> Tally {
        Tally {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration observation, in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    #[inline]
    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sample mean, or 0.0 when empty (a convenient neutral value for
    /// the restart-delay heuristic, which uses "average response time so far").
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0.0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another tally into this one (parallel collection).
    pub fn merge(&mut self, other: &Tally) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset to empty (end of warmup).
    pub fn reset(&mut self) {
        *self = Tally::new();
    }
}

/// A log-bucketed histogram of non-negative integer observations
/// (HDR-histogram style), built for latency-in-nanoseconds distributions.
///
/// Values below `2^sub_bits` get exact unit-width buckets; above that, each
/// power-of-two range is split into `2^sub_bits` equal sub-buckets, bounding
/// the relative quantile error at `2^-(sub_bits + 1)` while keeping the
/// bucket array small (`(65 - sub_bits) * 2^sub_bits` entries) and every
/// `record` an O(1) increment — cheap enough for per-transaction hot paths.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    sub_bits: u32,
    counts: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Histogram with `2^sub_bits` sub-buckets per power-of-two range.
    /// `sub_bits = 5` gives ≤ 1.6% relative quantile error in 1 920 buckets.
    ///
    /// # Panics
    /// If `sub_bits > 8` (the bucket array would be needlessly large).
    pub fn new(sub_bits: u32) -> LogHistogram {
        assert!(sub_bits <= 8, "sub_bits > 8 wastes memory for no precision");
        let buckets = ((65 - sub_bits) << sub_bits) as usize;
        LogHistogram {
            sub_bits,
            counts: vec![0; buckets],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `v` falls into.
    #[inline]
    pub fn bucket_index(&self, v: u64) -> usize {
        if v < (1u64 << self.sub_bits) {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let top = msb - self.sub_bits;
            let base = ((top + 1) << self.sub_bits) as usize;
            base + ((v >> top) - (1u64 << self.sub_bits)) as usize
        }
    }

    /// The `[lower, lower + width)` range covered by bucket `index`.
    fn bucket_lower_width(&self, index: usize) -> (u64, u64) {
        let sub = self.sub_bits as usize;
        if index < (1usize << sub) {
            (index as u64, 1)
        } else {
            let top = (index >> sub) - 1;
            let offset = (index & ((1 << sub) - 1)) as u64;
            (((1u64 << sub) + offset) << top, 1u64 << top)
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = self.bucket_index(v);
        self.counts[idx] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration observation (in integer nanoseconds).
    #[inline]
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.0);
    }

    /// Number of recorded observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The value at quantile `q` in `[0, 1]`, or `None` when empty.
    ///
    /// Uses the ceiling-rank definition: the result approximates the element
    /// of rank `ceil(q * count)` (clamped to `[1, count]`) of the sorted
    /// observation sequence — the same definition a sorted-vec reference
    /// would use — then reports its bucket's midpoint, clamped to the
    /// recorded `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let (lower, width) = self.bucket_lower_width(idx);
                let rep = if width == 1 { lower } else { lower + width / 2 };
                return Some(rep.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The median (50th percentile), if any observations were recorded.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// The 95th percentile, if any observations were recorded.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// The 99th percentile, if any observations were recorded.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one (parallel collection).
    ///
    /// # Panics
    /// If the two histograms were built with different `sub_bits`.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "incompatible bucket layout");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset to empty (end of warmup), keeping the bucket layout.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// Tracks busy time of a resource (utilization = busy / elapsed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BusyTracker {
    busy_since: Option<SimTime>,
    accumulated: SimDuration,
    window_start: SimTime,
}

impl BusyTracker {
    /// Create a new instance.
    pub fn new(start: SimTime) -> BusyTracker {
        BusyTracker {
            busy_since: None,
            accumulated: SimDuration::ZERO,
            window_start: start,
        }
    }

    /// Record a busy/idle transition at `now`.
    pub fn set_busy(&mut self, now: SimTime, busy: bool) {
        match (self.busy_since, busy) {
            (None, true) => self.busy_since = Some(now),
            (Some(since), false) => {
                self.accumulated += now.since(since);
                self.busy_since = None;
            }
            _ => {}
        }
    }

    #[inline]
    /// True while any work is in progress.
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Accumulated busy time up to `now`.
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        let mut b = self.accumulated;
        if let Some(since) = self.busy_since {
            b += now.since(since);
        }
        b
    }

    /// Fraction of `[window_start, now]` the resource was busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.since(self.window_start).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.busy_time(now).as_secs_f64() / elapsed
    }

    /// Restart the measurement window (end of warmup), preserving busy state.
    pub fn reset(&mut self, now: SimTime) {
        self.accumulated = SimDuration::ZERO;
        self.window_start = now;
        if self.busy_since.is_some() {
            self.busy_since = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic set is 4; sample variance 32/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn tally_empty_behaviour() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
    }

    #[test]
    fn default_tally_is_a_new_one() {
        let mut t = Tally::default();
        t.record(5.0);
        assert_eq!(t.min(), Some(5.0));
        assert_eq!(t.max(), Some(5.0));
    }

    #[test]
    fn tally_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Tally::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut a = Tally::new();
        let mut b = Tally::new();
        xs[..37].iter().for_each(|&x| a.record(x));
        xs[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    /// Merging with an empty side must not disturb count/mean/min/max
    /// (an empty side's `±inf` sentinels must never leak into the result).
    #[test]
    fn tally_merge_with_empty_side_preserves_moments() {
        let mut filled = Tally::new();
        [3.0, 9.0, 6.0].iter().for_each(|&x| filled.record(x));
        let snapshot = filled.clone();

        // Non-empty ← empty.
        filled.merge(&Tally::new());
        assert_eq!(filled.count(), snapshot.count());
        assert_eq!(filled.mean().to_bits(), snapshot.mean().to_bits());
        assert_eq!(filled.min(), snapshot.min());
        assert_eq!(filled.max(), snapshot.max());

        // Empty ← non-empty.
        let mut empty = Tally::new();
        empty.merge(&snapshot);
        assert_eq!(empty.count(), snapshot.count());
        assert_eq!(empty.mean().to_bits(), snapshot.mean().to_bits());
        assert_eq!(empty.min(), snapshot.min());
        assert_eq!(empty.max(), snapshot.max());

        // Empty ← empty stays empty.
        let mut both = Tally::new();
        both.merge(&Tally::new());
        assert_eq!(both.count(), 0);
        assert_eq!(both.min(), None);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LogHistogram::new(5);
        for v in 0..32 {
            h.record(v);
        }
        // Below 2^sub_bits every value has its own bucket: quantiles exact.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.p50(), Some(15));
        assert_eq!(h.quantile(1.0), Some(31));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn histogram_quantile_error_is_bounded() {
        let mut h = LogHistogram::new(5);
        let mut values: Vec<u64> = (0..1_000u64).map(|i| i * i * 131 + 17).collect();
        values.iter().for_each(|&v| h.record(v));
        values.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let reference = values[rank - 1];
            let got = h.quantile(q).unwrap();
            let err = (got as f64 - reference as f64).abs() / reference as f64;
            assert!(
                err <= 1.0 / 64.0 + 1e-12,
                "q={q}: got {got}, reference {reference}, err {err}"
            );
        }
    }

    #[test]
    fn histogram_merge_and_reset() {
        let mut a = LogHistogram::new(4);
        let mut b = LogHistogram::new(4);
        (0..100u64).for_each(|v| a.record(v * 7));
        (0..50u64).for_each(|v| b.record(v * 1_000));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 150);
        assert_eq!(merged.min(), Some(0));
        assert_eq!(merged.max(), Some(49_000));
        merged.reset();
        assert_eq!(merged.count(), 0);
        assert_eq!(merged.quantile(0.5), None);
        assert_eq!(merged.min(), None);
    }

    #[test]
    fn histogram_empty_is_none() {
        let h = LogHistogram::new(5);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn busy_tracker_utilization() {
        let mut b = BusyTracker::new(SimTime::ZERO);
        b.set_busy(SimTime(NANOS(2.0)), true);
        b.set_busy(SimTime(NANOS(6.0)), false);
        assert!((b.utilization(SimTime(NANOS(8.0))) - 0.5).abs() < 1e-9);
        // Idempotent transitions.
        b.set_busy(SimTime(NANOS(8.0)), false);
        b.set_busy(SimTime(NANOS(8.0)), true);
        b.set_busy(SimTime(NANOS(9.0)), true);
        assert!((b.utilization(SimTime(NANOS(10.0))) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_reset_mid_busy() {
        let mut b = BusyTracker::new(SimTime::ZERO);
        b.set_busy(SimTime::ZERO, true);
        b.reset(SimTime(NANOS(5.0)));
        assert!((b.utilization(SimTime(NANOS(10.0))) - 1.0).abs() < 1e-9);
    }

    #[allow(non_snake_case)]
    fn NANOS(secs: f64) -> u64 {
        (secs * 1e9) as u64
    }
}

/// Batch-means estimator for steady-state simulation output.
///
/// Correlated observations (successive response times share queue state)
/// make the naive standard error optimistic; the classical remedy is to
/// group observations into consecutive batches, treat batch means as
/// approximately independent, and build the confidence interval from their
/// spread.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchMeans {
    batch_size: u64,
    current_sum: f64,
    current_count: u64,
    batch_means: Vec<f64>,
}

impl BatchMeans {
    /// Estimator with a fixed batch size (observations per batch).
    pub fn new(batch_size: u64) -> BatchMeans {
        assert!(batch_size > 0);
        BatchMeans {
            batch_size,
            current_sum: 0.0,
            current_count: 0,
            // Pre-sized so short measurement runs complete batches without
            // ever touching the allocator (longer runs grow as usual).
            batch_means: Vec::with_capacity(64),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.batch_means
                .push(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// Completed batches so far.
    pub fn batches(&self) -> usize {
        self.batch_means.len()
    }

    /// Grand mean over completed batches (NaN with no complete batch).
    pub fn mean(&self) -> f64 {
        if self.batch_means.is_empty() {
            return f64::NAN;
        }
        self.batch_means.iter().sum::<f64>() / self.batch_means.len() as f64
    }

    /// Half-width of the ~95% confidence interval on the mean, using the
    /// Student-t quantile for the batch count. NaN with fewer than two
    /// complete batches.
    pub fn ci95_half_width(&self) -> f64 {
        let n = self.batch_means.len();
        if n < 2 {
            return f64::NAN;
        }
        let mean = self.mean();
        let var = self
            .batch_means
            .iter()
            .map(|m| (m - mean).powi(2))
            .sum::<f64>()
            / (n - 1) as f64;
        t_quantile_975(n - 1) * (var / n as f64).sqrt()
    }

    /// Discard everything (end of warmup).
    pub fn reset(&mut self) {
        self.current_sum = 0.0;
        self.current_count = 0;
        self.batch_means.clear();
    }
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom
/// (exact for small df, 1.96 asymptotically).
fn t_quantile_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::NAN
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    #[test]
    fn batches_fill_and_mean_matches() {
        let mut b = BatchMeans::new(10);
        for i in 0..100 {
            b.record(i as f64);
        }
        assert_eq!(b.batches(), 10);
        assert!((b.mean() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn partial_batch_is_excluded() {
        let mut b = BatchMeans::new(10);
        for _ in 0..9 {
            b.record(5.0);
        }
        assert_eq!(b.batches(), 0);
        assert!(b.mean().is_nan());
        assert!(b.ci95_half_width().is_nan());
        b.record(5.0);
        assert_eq!(b.batches(), 1);
        assert_eq!(b.mean(), 5.0);
    }

    #[test]
    fn ci_shrinks_with_more_batches() {
        // Deterministic pseudo-noise around a mean of 10.
        let noisy = |k: u64| 10.0 + ((k * 2_654_435_761) % 1_000) as f64 / 500.0 - 1.0;
        let mut small = BatchMeans::new(20);
        let mut large = BatchMeans::new(20);
        for k in 0..200 {
            small.record(noisy(k));
        }
        for k in 0..4_000 {
            large.record(noisy(k));
        }
        let (s, l) = (small.ci95_half_width(), large.ci95_half_width());
        assert!(s.is_finite() && l.is_finite());
        assert!(l < s, "more batches must tighten the CI: {l} vs {s}");
        assert!((large.mean() - 10.0).abs() < 0.1);
    }

    #[test]
    fn constant_series_has_zero_width() {
        let mut b = BatchMeans::new(5);
        for _ in 0..50 {
            b.record(3.0);
        }
        assert_eq!(b.ci95_half_width(), 0.0);
        assert_eq!(b.mean(), 3.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut b = BatchMeans::new(5);
        for _ in 0..25 {
            b.record(1.0);
        }
        b.reset();
        assert_eq!(b.batches(), 0);
        assert!(b.mean().is_nan());
    }

    #[test]
    fn t_quantiles_are_monotone_to_normal() {
        assert!(t_quantile_975(1) > t_quantile_975(5));
        assert!(t_quantile_975(5) > t_quantile_975(30));
        assert_eq!(t_quantile_975(100), 1.96);
        assert!(t_quantile_975(0).is_nan());
    }
}
