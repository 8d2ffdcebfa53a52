//! Per-core utilization accounting.
//!
//! The paper's provider-side mechanisms (time-limit adaptation and CPU-group
//! rightsizing, §IV-B) are driven by a utilization monitor — their daemon
//! samples psutil into shared memory. Our simulated equivalent accumulates
//! per-core busy microseconds into fixed-width time buckets, from which the
//! policy (and the figure harnesses) read windowed averages.

use faas_simcore::{SimDuration, SimTime};

/// Accumulates busy time per core in fixed-width buckets.
///
/// # Examples
///
/// ```
/// use faas_kernel::UtilizationLedger;
/// use faas_simcore::{SimDuration, SimTime};
///
/// let mut ledger = UtilizationLedger::new(2, SimDuration::from_secs(1));
/// // Core 0 busy for the first half of second zero.
/// ledger.record_busy(0, SimTime::ZERO, SimTime::from_millis(500));
/// assert_eq!(ledger.bucket_utilization(0, 0), 0.5);
/// assert_eq!(ledger.bucket_utilization(1, 0), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationLedger {
    bucket: SimDuration,
    /// `busy[core][bucket]` = busy microseconds of `core` in `bucket`.
    busy: Vec<Vec<u64>>,
    /// Per-core memo of the last bucket written: `(start_us, end_us,
    /// index)` of that bucket. Busy intervals arrive in non-decreasing
    /// time order and are usually much shorter than a bucket, so the
    /// common case re-hits the memoized bucket and skips the `u64`
    /// division on the event hot path.
    hint: Vec<(u64, u64, usize)>,
}

impl UtilizationLedger {
    /// Creates a ledger for `cores` cores with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(cores: usize, bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        UtilizationLedger {
            bucket,
            busy: vec![Vec::new(); cores],
            hint: vec![(0, 0, 0); cores],
        }
    }

    /// Bucket width used by this ledger.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.busy.len()
    }

    /// Records that `core` was busy during `[from, to)`, splitting the
    /// interval across buckets.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `to < from`.
    pub fn record_busy(&mut self, core: usize, from: SimTime, to: SimTime) {
        assert!(to >= from, "interval must be ordered");
        let width = self.bucket.as_micros();
        let lane = &mut self.busy[core];
        let mut cur = from.as_micros();
        let end = to.as_micros();
        // Fast path: the whole interval falls inside the bucket this core
        // last wrote (run segments are typically milliseconds against
        // 1-second buckets) — one add, no division.
        let (hint_start, hint_end, hint_idx) = self.hint[core];
        if cur >= hint_start && end <= hint_end && cur < end {
            lane[hint_idx] += end - cur;
            return;
        }
        while cur < end {
            let idx = (cur / width) as usize;
            let bucket_end = (idx as u64 + 1) * width;
            let chunk = end.min(bucket_end) - cur;
            if lane.len() <= idx {
                lane.resize(idx + 1, 0);
            }
            lane[idx] += chunk;
            cur += chunk;
            self.hint[core] = (bucket_end - width, bucket_end, idx);
        }
    }

    /// Number of buckets that have been touched on any core.
    pub fn bucket_count(&self) -> usize {
        self.busy.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Fraction of `bucket` during which `core` was busy, in `[0, 1]`.
    /// Untouched buckets count as 0.
    pub fn bucket_utilization(&self, core: usize, bucket: usize) -> f64 {
        let lane = &self.busy[core];
        let v = lane.get(bucket).copied().unwrap_or(0);
        v as f64 / self.bucket.as_micros() as f64
    }

    /// Average utilization of a set of cores over a bucket.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn group_bucket_utilization(&self, cores: &[usize], bucket: usize) -> f64 {
        assert!(!cores.is_empty(), "group must be non-empty");
        cores
            .iter()
            .map(|&c| self.bucket_utilization(c, bucket))
            .sum::<f64>()
            / cores.len() as f64
    }

    /// Average utilization of one core over the trailing `window` ending at
    /// `now` (partial leading buckets are weighted by coverage).
    pub fn windowed_utilization(&self, core: usize, now: SimTime, window: SimDuration) -> f64 {
        let width = self.bucket.as_micros();
        let end = now.as_micros();
        let start = end.saturating_sub(window.as_micros());
        if end == start {
            return 0.0;
        }
        let lane = &self.busy[core];
        let mut busy = 0u64;
        let mut cur = start;
        while cur < end {
            let idx = (cur / width) as usize;
            let bucket_end = (idx as u64 + 1) * width;
            let span = end.min(bucket_end) - cur;
            let in_bucket = lane.get(idx).copied().unwrap_or(0);
            // Assume busy time is spread uniformly within the bucket when
            // taking a partial slice of it.
            busy += (in_bucket as u128 * span as u128 / width as u128) as u64;
            cur += span;
        }
        busy as f64 / (end - start) as f64
    }

    /// Total busy time accumulated by `core`.
    pub fn total_busy(&self, core: usize) -> SimDuration {
        SimDuration::from_micros(self.busy[core].iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> UtilizationLedger {
        UtilizationLedger::new(2, SimDuration::from_secs(1))
    }

    #[test]
    fn interval_splits_across_buckets() {
        let mut l = ledger();
        // 0.5s .. 2.5s busy => buckets 0:0.5, 1:1.0, 2:0.5
        l.record_busy(0, SimTime::from_millis(500), SimTime::from_millis(2_500));
        assert!((l.bucket_utilization(0, 0) - 0.5).abs() < 1e-9);
        assert!((l.bucket_utilization(0, 1) - 1.0).abs() < 1e-9);
        assert!((l.bucket_utilization(0, 2) - 0.5).abs() < 1e-9);
        assert_eq!(l.bucket_count(), 3);
    }

    #[test]
    fn empty_interval_is_noop() {
        let mut l = ledger();
        l.record_busy(0, SimTime::from_millis(100), SimTime::from_millis(100));
        assert_eq!(l.bucket_count(), 0);
        assert_eq!(l.total_busy(0), SimDuration::ZERO);
    }

    #[test]
    fn group_average() {
        let mut l = ledger();
        l.record_busy(0, SimTime::ZERO, SimTime::from_secs(1)); // core 0: 100%
                                                                // core 1 idle.
        assert!((l.group_bucket_utilization(&[0, 1], 0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn windowed_utilization_full_and_partial() {
        let mut l = ledger();
        l.record_busy(0, SimTime::ZERO, SimTime::from_secs(2));
        // Fully busy window.
        let u = l.windowed_utilization(0, SimTime::from_secs(2), SimDuration::from_secs(2));
        assert!((u - 1.0).abs() < 1e-9);
        // Window extends past recorded data: 2s busy out of 4s.
        let u = l.windowed_utilization(0, SimTime::from_secs(4), SimDuration::from_secs(4));
        assert!((u - 0.5).abs() < 1e-9);
        // Zero-length window.
        assert_eq!(
            l.windowed_utilization(0, SimTime::ZERO, SimDuration::ZERO),
            0.0
        );
    }

    #[test]
    fn total_busy_accumulates() {
        let mut l = ledger();
        l.record_busy(1, SimTime::ZERO, SimTime::from_millis(300));
        l.record_busy(1, SimTime::from_millis(700), SimTime::from_millis(900));
        assert_eq!(l.total_busy(1), SimDuration::from_millis(500));
    }

    /// Renewal trains record a run of back-to-back slices as one span,
    /// which must leave the same buckets as recording it slice by slice:
    /// `[a, c)` equals `[a, b)` then `[b, c)`, for splits inside one
    /// bucket (the memoized fast path), across bucket edges and exactly on
    /// them, after earlier spans warmed the memo.
    #[test]
    fn split_span_leaves_same_buckets() {
        use faas_simcore::check;
        check::run("split_span_leaves_same_buckets", 256, |g| {
            let width = g.u64_in(1, 2_000);
            let mut whole = UtilizationLedger::new(1, SimDuration::from_micros(width));
            let mut split = whole.clone();
            let mut t = g.u64_in(0, 3 * width);
            for _ in 0..g.usize_in(1, 12) {
                let len = |g: &mut check::Gen| {
                    let max = if g.boolean() { width / 4 } else { 3 * width };
                    g.u64_in(0, max + 1)
                };
                let a = t + len(g);
                let b = if g.usize_in(0, 4) == 0 {
                    a.div_ceil(width) * width
                } else {
                    a + len(g)
                };
                let c = b + len(g);
                let us = SimTime::from_micros;
                whole.record_busy(0, us(a), us(c));
                split.record_busy(0, us(a), us(b));
                split.record_busy(0, us(b), us(c));
                assert_eq!(
                    whole.busy, split.busy,
                    "[{a}, {c}) split at {b}, width {width}"
                );
                t = c;
            }
        });
    }

    #[test]
    #[should_panic]
    fn reversed_interval_panics() {
        let mut l = ledger();
        l.record_busy(0, SimTime::from_millis(5), SimTime::from_millis(1));
    }
}
