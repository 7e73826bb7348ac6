//! Dependency-free log-bucketed latency recording (HdrHistogram-style).
//!
//! A service carrying mixed traffic lives and dies by its tail latency,
//! which a throughput number cannot show.  [`LatencyHistogram`] records
//! non-negative integer samples (the service layers record nanoseconds)
//! into **log-linear buckets**: the first 2⁶ = 64 values get unit-width
//! buckets, and every subsequent power-of-two octave is split into 32
//! linear sub-buckets, so the relative quantization error is bounded by
//! 1/32 ≈ 3.1 % at any magnitude while the whole `u64` range fits in 1 920
//! fixed buckets.  Recording is O(1) (a shift and two adds), extraction of
//! any quantile is one pass over the buckets, and histograms **merge** by
//! bucket-wise addition — so every client thread records locally without
//! synchronisation and the driver folds the results afterwards.
//!
//! [`LatencySnapshot`] is the compact microsecond-unit summary (count,
//! p50/p99/p999, max) embedded in the service statistics structs, which
//! need `Eq` and small copies rather than the full bucket array.

/// Width in bits of the unit-resolution region: values `0..64` get exact
/// buckets, and each octave above is split into `2^(SUB_BITS-1) = 32`
/// sub-buckets.
const SUB_BITS: u32 = 6;
/// Number of unit-resolution buckets (64).
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Sub-buckets per octave above the unit region (32).
const HALF: u64 = SUB_COUNT / 2;
/// Octaves needed to cover the full `u64` range above the unit region.
const NUM_OCTAVES: u64 = 64 - SUB_BITS as u64;
/// Total bucket count covering every `u64` value exactly once.
pub const NUM_BUCKETS: usize = (SUB_COUNT + NUM_OCTAVES * HALF) as usize;

/// Bucket index of a value (total order preserving: `a <= b` implies
/// `index(a) <= index(b)`).
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        // Highest set bit is at position `msb >= SUB_BITS`; the octave's
        // values span `[2^msb, 2^(msb+1))` in HALF linear sub-buckets of
        // width `2^octave` each.
        let msb = 63 - v.leading_zeros() as u64;
        let octave = msb - SUB_BITS as u64 + 1;
        let offset = (v >> octave) - HALF;
        (SUB_COUNT + (octave - 1) * HALF + offset) as usize
    }
}

/// Largest value mapping to `index` (the inverse of [`bucket_index`];
/// quantiles report this conservative upper edge).
fn bucket_high(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_COUNT {
        index
    } else {
        let i = index - SUB_COUNT;
        let octave = i / HALF + 1;
        let offset = i % HALF;
        // The top bucket's exclusive end is 2^64, which wraps to 0; the
        // wrapping subtraction turns it into exactly u64::MAX.
        ((HALF + offset + 1) << octave).wrapping_sub(1)
    }
}

/// A fixed-size log-bucketed histogram of `u64` samples.
///
/// Units are the caller's choice (the service layers use nanoseconds); all
/// quantile answers are in the recorded unit.  Quantiles return the upper
/// edge of the target bucket clamped to the observed maximum, so they
/// over-estimate by at most 1/32 relative and are **exact** when every
/// sample in the tail bucket is equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` equal samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a [`std::time::Duration`] as nanoseconds (saturating).
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples (exact, not bucketed; 0.0
    /// when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the smallest bucket edge `v`
    /// such that at least `ceil(q · count)` samples are `<= v`, clamped to
    /// the observed min/max.  Returns 0 on an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// Fold another histogram into this one (bucket-wise addition).
    /// Merging is associative and commutative, so per-thread histograms
    /// can be combined in any order with identical results.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Compact microsecond summary of a histogram recorded in
    /// **nanoseconds** (the service layers' unit).
    pub fn snapshot_us(&self) -> LatencySnapshot {
        let us = |ns: u64| ns / 1_000;
        LatencySnapshot {
            count: self.total,
            p50_us: us(self.p50()),
            p99_us: us(self.p99()),
            p999_us: us(self.p999()),
            max_us: us(self.max()),
        }
    }
}

/// A compact, `Eq`-comparable percentile summary in microseconds (see
/// [`crate::AdmissionLatencyStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Recorded samples.
    pub count: u64,
    /// Median, µs.
    pub p50_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// 99.9th percentile, µs.
    pub p999_us: u64,
    /// Observed maximum, µs.
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Unit region: identity mapping.
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
        // First octave: [64, 128) in 32 sub-buckets of width 2.
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(65), 64);
        assert_eq!(bucket_index(66), 65);
        assert_eq!(bucket_index(127), 95);
        assert_eq!(bucket_high(64), 65);
        assert_eq!(bucket_high(95), 127);
        // Octave starts land on fresh buckets; bucket_high inverts.
        for msb in SUB_BITS..64 {
            let v = 1u64 << msb;
            let i = bucket_index(v);
            assert_eq!(bucket_index(v - 1) + 1, i, "octave start {v}");
            assert!(bucket_high(i) >= v);
            assert!(i == 0 || bucket_high(i - 1) < v);
        }
        // The top bucket ends exactly at u64::MAX.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_high(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded_error() {
        let probes: Vec<u64> = (0..1000u64)
            .map(|i| i * 7919)
            .chain((0..63).map(|s| 1u64 << s))
            .chain([u64::MAX, u64::MAX - 1])
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(bucket_index(w[0]) <= bucket_index(w[1]));
        }
        for &v in &probes {
            let hi = bucket_high(bucket_index(v));
            assert!(hi >= v);
            // Conservative edge over-estimates by at most 1/32 relative.
            assert!(hi as f64 <= v as f64 * (1.0 + 1.0 / HALF as f64) + 1.0);
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.snapshot_us(), LatencySnapshot::default());
    }

    #[test]
    fn all_equal_samples_report_exactly() {
        let mut h = LatencyHistogram::new();
        h.record_n(10_000, 1000);
        // Every quantile is clamped to the single observed value.
        assert_eq!(h.p50(), 10_000);
        assert_eq!(h.p99(), 10_000);
        assert_eq!(h.p999(), 10_000);
        assert_eq!(h.min(), 10_000);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.mean(), 10_000.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(777);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.value_at_quantile(q), 777);
        }
    }

    #[test]
    fn snapshot_converts_to_microseconds() {
        let mut h = LatencyHistogram::new();
        h.record_n(2_000_000, 99); // 2 ms
        h.record(50_000_000); // 50 ms outlier
        let s = h.snapshot_us();
        assert_eq!(s.count, 100);
        // Within one conservative bucket edge (≤ 1/32 relative) of 2 ms.
        assert!(s.p50_us >= 2_000 && s.p50_us <= 2_000 + 2_000 / 32 + 1);
        assert!(s.p99_us >= 2_000);
        assert!((s.max_us as i64 - 50_000).unsigned_abs() < 50_000 / 32 + 1);
    }
}
