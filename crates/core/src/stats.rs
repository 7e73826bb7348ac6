//! Structure statistics: occupancy, memory usage and staleness accounting.
//!
//! The paper's discussion of cleanup scheduling (§III-F, §V-D) is driven by
//! how many levels are occupied and how many stale elements have
//! accumulated; [`LsmStats`] exposes exactly those quantities so
//! applications (and the experiment harness) can decide when a cleanup pays
//! off.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::key::is_regular;
use crate::lsm::GpuLsm;

/// Lifetime Bloom-filter activity counters of one structure, shared across
/// clones of its handle (lock-free; updated by the lookup paths).
#[derive(Debug, Default)]
pub struct FilterActivity {
    probes: AtomicU64,
    skips: AtomicU64,
}

impl FilterActivity {
    /// Add a batch's worth of probes and skips.
    pub(crate) fn record(&self, probes: u64, skips: u64) {
        if probes > 0 {
            self.probes.fetch_add(probes, Ordering::Relaxed);
        }
        if skips > 0 {
            self.skips.fetch_add(skips, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> (u64, u64) {
        (
            self.probes.load(Ordering::Relaxed),
            self.skips.load(Ordering::Relaxed),
        )
    }
}

/// Lifetime operation counters of one structure, shared across clones of
/// its handle (lock-free).  These are what the sharded service's hot-shard
/// detection reads: per-shard update traffic deltas decide which shard to
/// split and which adjacent pair to merge.
#[derive(Debug, Default)]
pub struct OpActivity {
    update_ops: AtomicU64,
    lookup_ops: AtomicU64,
}

impl OpActivity {
    /// Record `n` update operations applied to this structure.
    pub(crate) fn record_updates(&self, n: u64) {
        if n > 0 {
            self.update_ops.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record `n` point lookups served by this structure.
    pub(crate) fn record_lookups(&self, n: u64) {
        if n > 0 {
            self.lookup_ops.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// `(update_ops, lookup_ops)`: an O(1) read, unlike
    /// [`GpuLsm::stats`], which walks every resident element.
    pub(crate) fn snapshot(&self) -> (u64, u64) {
        (
            self.update_ops.load(Ordering::Relaxed),
            self.lookup_ops.load(Ordering::Relaxed),
        )
    }
}

/// Lifetime write-path counters of one structure: how many carry-chain
/// merge steps ran and, for each, whether the output's fence array and
/// Bloom filter were maintained *incrementally* (merged / re-hashed from
/// the inputs' structures) or fell back to a full rebuild.  Shared across
/// clones of the handle; the observable proof that the incremental
/// write path of [`crate::compaction`] is actually taken.
#[derive(Debug, Default)]
pub struct MergeActivity {
    carry_merge_steps: AtomicU64,
    fence_merges: AtomicU64,
    fence_rebuilds: AtomicU64,
    filter_rehashes: AtomicU64,
    filter_rebuilds: AtomicU64,
}

/// A point-in-time copy of [`MergeActivity`], embedded in [`LsmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeCounters {
    /// Carry-chain merge steps executed (one per consumed level).
    pub carry_merge_steps: u64,
    /// Fence arrays produced by merging the inputs' samples (incremental).
    pub fence_merges: u64,
    /// Fence arrays rebuilt from the merged key array (fallback).
    pub fence_rebuilds: u64,
    /// Filters produced by re-hashing only the buffer's keys into a copy
    /// of the consumed level's filter (half the hashing of a rebuild).
    pub filter_rehashes: u64,
    /// Filters rebuilt from scratch over the merged key array (fallback).
    pub filter_rebuilds: u64,
}

impl MergeCounters {
    /// Element-wise sum (used by the sharded aggregation).
    pub(crate) fn add(&mut self, other: &MergeCounters) {
        self.carry_merge_steps += other.carry_merge_steps;
        self.fence_merges += other.fence_merges;
        self.fence_rebuilds += other.fence_rebuilds;
        self.filter_rehashes += other.filter_rehashes;
        self.filter_rebuilds += other.filter_rebuilds;
    }

    /// Fence and filter maintenance events that took the incremental path.
    pub fn incremental_events(&self) -> u64 {
        self.fence_merges + self.filter_rehashes
    }
}

impl MergeActivity {
    pub(crate) fn record_carry_step(&self) {
        self.carry_merge_steps.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_fence(&self, incremental: bool) {
        if incremental {
            self.fence_merges.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fence_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_filter_rehash(&self) {
        self.filter_rehashes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_filter_rebuild(&self) {
        self.filter_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> MergeCounters {
        MergeCounters {
            carry_merge_steps: self.carry_merge_steps.load(Ordering::Relaxed),
            fence_merges: self.fence_merges.load(Ordering::Relaxed),
            fence_rebuilds: self.fence_rebuilds.load(Ordering::Relaxed),
            filter_rehashes: self.filter_rehashes.load(Ordering::Relaxed),
            filter_rebuilds: self.filter_rebuilds.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the GPU LSM's shape and contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsmStats {
    /// The fixed batch size `b`.
    pub batch_size: usize,
    /// Number of resident batches `r`.
    pub num_batches: usize,
    /// Total resident elements (`r·b`), stale elements included.
    pub total_elements: usize,
    /// Number of occupied levels (popcount of `r`).
    pub occupied_levels: usize,
    /// Sizes of the occupied levels, smallest level index first.
    pub level_sizes: Vec<usize>,
    /// Bytes of device memory used by keys and values.
    pub memory_bytes: usize,
    /// Number of elements that are currently *valid* (the newest instance of
    /// a key, regular, not a placebo).  Everything else is stale.
    pub valid_elements: usize,
    /// `total_elements - valid_elements`.
    pub stale_elements: usize,
    /// Bytes of device memory used by the per-level Bloom filters.
    pub filter_bytes: usize,
    /// Bytes of device memory used by the per-level fence arrays.
    pub fence_bytes: usize,
    /// Lifetime count of Bloom-filter membership tests performed by
    /// lookups on this structure (each one cache-line block read).
    pub filter_probes: u64,
    /// Lifetime count of level searches skipped outright because the
    /// filter proved the key absent.
    pub filter_skips: u64,
    /// Lifetime write-path merge counters: carry steps and how their fence
    /// / filter structures were produced (incremental vs. rebuilt).
    pub merges: MergeCounters,
    /// Lifetime count of update operations applied (inserts + deletes,
    /// before padding).  Feeds the sharded service's hot-shard detection.
    pub update_ops: u64,
    /// Lifetime count of point lookups served.
    pub lookup_ops: u64,
}

impl LsmStats {
    /// Fraction of resident elements that are stale (0.0 for an empty LSM).
    pub fn stale_fraction(&self) -> f64 {
        if self.total_elements == 0 {
            0.0
        } else {
            self.stale_elements as f64 / self.total_elements as f64
        }
    }
}

impl GpuLsm {
    /// Compute a statistics snapshot.  This scans the structure (it is a
    /// diagnostic, not a hot-path operation).
    pub fn stats(&self) -> LsmStats {
        let level_sizes: Vec<usize> = self
            .levels()
            .iter_occupied()
            .map(|(_, l)| l.len())
            .collect();
        let memory_bytes = self.levels().size_bytes();
        let valid_elements = self.count_valid_elements();
        let total_elements = self.num_resident_elements();
        let (filter_bytes, fence_bytes) = self
            .levels()
            .iter_occupied()
            .map(|(_, l)| l.accel_bytes())
            .fold((0, 0), |(f, s), (df, ds)| (f + df, s + ds));
        let (filter_probes, filter_skips) = self.filter_activity.snapshot();
        let (update_ops, lookup_ops) = self.op_activity.snapshot();
        LsmStats {
            batch_size: self.batch_size(),
            num_batches: self.num_batches(),
            total_elements,
            occupied_levels: self.num_occupied_levels(),
            level_sizes,
            memory_bytes,
            valid_elements,
            stale_elements: total_elements - valid_elements,
            filter_bytes,
            fence_bytes,
            filter_probes,
            filter_skips,
            merges: self.merge_activity.snapshot(),
            update_ops,
            lookup_ops,
        }
    }

    /// Count the currently valid elements: for every distinct key, the most
    /// recent instance if it is a regular element (placebos never count).
    pub fn count_valid_elements(&self) -> usize {
        // Collect every distinct key's newest instance by walking levels
        // newest-first and keeping the first sighting of each key.
        let mut seen = std::collections::HashSet::new();
        let mut valid = 0usize;
        for (_, level) in self.levels().iter_occupied() {
            let keys = level.keys();
            // Within a level equal keys are adjacent, newest first; consider
            // only each run's first element.
            let mut i = 0usize;
            while i < keys.len() {
                let key = keys[i] >> 1;
                let newest = keys[i];
                if seen.insert(key) && is_regular(newest) {
                    valid += 1;
                }
                i += 1;
                while i < keys.len() && keys[i] >> 1 == key {
                    i += 1;
                }
            }
        }
        valid
    }

    /// Total bytes of device memory used by the structure's levels.
    pub fn memory_bytes(&self) -> usize {
        self.levels().size_bytes()
    }

    /// Record Bloom-filter activity from a lookup path (no-op when no
    /// filter was consulted).
    pub(crate) fn record_filter_activity(&self, probes: u64, skips: u64) {
        self.filter_activity.record(probes, skips);
    }

    /// Smallest original key resident in any level (tombstones and placebo
    /// padding included), `None` when the structure is empty.  O(levels),
    /// read straight off the per-level fences — this is what lets a
    /// sharded service skip whole shards in order queries.
    pub fn min_resident_key(&self) -> Option<crate::key::Key> {
        self.levels()
            .iter_occupied()
            .map(|(_, l)| l.min_key())
            .min()
    }

    /// Largest original key resident in any level (tombstones and placebo
    /// padding included), `None` when the structure is empty.
    pub fn max_resident_key(&self) -> Option<crate::key::Key> {
        self.levels()
            .iter_occupied()
            .map(|(_, l)| l.max_key())
            .max()
    }

    /// The original keys of every resident level's fence samples, merged
    /// and sorted — an order-statistics sketch of the resident key
    /// distribution at zero extra memory (the fences already exist for
    /// query acceleration).  Placebo padding (max-key) is excluded so the
    /// sketch reflects real data.  This is what split-point fitting reads.
    pub fn fence_sample_keys(&self) -> Vec<crate::key::Key> {
        let mut keys: Vec<crate::key::Key> = self
            .levels()
            .iter_occupied()
            .filter_map(|(_, l)| l.fences())
            .flat_map(|f| f.sorted_samples().into_iter().map(|(k, _)| k))
            .filter(|&k| k < crate::key::MAX_KEY)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Per-level element counts, keyed by level index.
    pub fn level_occupancy(&self) -> Vec<(usize, usize)> {
        self.levels()
            .iter_occupied()
            .map(|(i, l)| (i, l.len()))
            .collect()
    }

    /// Sum over occupied levels of a query's worst-case binary-search probes
    /// (`log2` of each level size) — the quantity that governs lookup cost
    /// in Table I.
    pub fn worst_case_lookup_probes(&self) -> u32 {
        self.levels()
            .iter_occupied()
            .map(|(_, l)| usize::BITS - l.len().leading_zeros())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpu_sim::{Device, DeviceConfig};

    use crate::lsm::GpuLsm;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    #[test]
    fn stats_of_empty_lsm() {
        let lsm = GpuLsm::new(device(), 8).unwrap();
        let stats = lsm.stats();
        assert_eq!(stats.total_elements, 0);
        assert_eq!(stats.valid_elements, 0);
        assert_eq!(stats.occupied_levels, 0);
        assert_eq!(stats.stale_fraction(), 0.0);
        assert!(stats.level_sizes.is_empty());
    }

    #[test]
    fn stats_track_inserts_and_deletes() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 1), (2, 2), (3, 3), (4, 4)]).unwrap();
        lsm.delete(&[2]).unwrap();
        let stats = lsm.stats();
        assert_eq!(stats.batch_size, 4);
        assert_eq!(stats.num_batches, 2);
        assert_eq!(stats.total_elements, 8);
        assert_eq!(stats.valid_elements, 3); // 1, 3, 4
        assert_eq!(stats.stale_elements, 5);
        assert!(stats.stale_fraction() > 0.0);
        assert_eq!(stats.occupied_levels, 1);
        assert_eq!(stats.level_sizes, vec![8]);
        assert_eq!(stats.memory_bytes, 8 * 8);
    }

    #[test]
    fn level_occupancy_matches_binary_counter() {
        let mut lsm = GpuLsm::new(device(), 2).unwrap();
        for i in 0..5u32 {
            lsm.insert(&[(i * 2, 0), (i * 2 + 1, 0)]).unwrap();
        }
        // r = 5 = 0b101: levels 0 and 2.
        let occ = lsm.level_occupancy();
        assert_eq!(occ, vec![(0, 2), (2, 8)]);
        assert!(lsm.worst_case_lookup_probes() >= 2);
        assert!(lsm.memory_bytes() > 0);
    }

    #[test]
    fn accel_memory_and_counters_are_reported() {
        // Bulk-built levels at this size carry filters (when enabled) and
        // always carry fences.
        let pairs: Vec<(u32, u32)> = (0..4096).map(|k| (k * 2, k)).collect();
        let lsm = GpuLsm::bulk_build(device(), 1 << 12, &pairs).unwrap();
        let before = lsm.stats();
        assert!(before.fence_bytes > 0);
        assert_eq!(before.filter_probes, 0);
        let _ = lsm.lookup(&[1, 3, 5, 4096 * 2]);
        let after = lsm.stats();
        if after.filter_bytes > 0 {
            // All four queries miss; each consults the single level's filter.
            assert!(after.filter_probes >= 4);
            assert!(after.filter_skips > 0);
        }
        assert!(lsm.min_resident_key().is_some());
        assert_eq!(lsm.min_resident_key(), Some(0));
        assert_eq!(lsm.max_resident_key(), Some(4095 * 2));
        let empty = GpuLsm::new(device(), 8).unwrap();
        assert_eq!(empty.min_resident_key(), None);
        assert_eq!(empty.max_resident_key(), None);
    }

    #[test]
    fn op_counters_track_updates_and_lookups() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 1), (2, 2)]).unwrap();
        lsm.delete(&[2]).unwrap();
        let _ = lsm.lookup(&[1, 2, 3]);
        let stats = lsm.stats();
        assert_eq!(stats.update_ops, 3);
        assert_eq!(stats.lookup_ops, 3);
    }

    #[test]
    fn fence_samples_sketch_the_resident_keys() {
        let pairs: Vec<(u32, u32)> = (0..4096).map(|k| (k * 3, k)).collect();
        let lsm = GpuLsm::bulk_build(device(), 1 << 12, &pairs).unwrap();
        let sample = lsm.fence_sample_keys();
        assert!(!sample.is_empty());
        assert!(sample.windows(2).all(|w| w[0] <= w[1]));
        assert!(sample.iter().all(|&k| k <= 4095 * 3));
        assert!(GpuLsm::new(device(), 8)
            .unwrap()
            .fence_sample_keys()
            .is_empty());
    }

    #[test]
    fn valid_count_ignores_replaced_duplicates() {
        let mut lsm = GpuLsm::new(device(), 2).unwrap();
        lsm.insert(&[(7, 1), (8, 1)]).unwrap();
        lsm.insert(&[(7, 2), (8, 2)]).unwrap();
        assert_eq!(lsm.count_valid_elements(), 2);
        let stats = lsm.stats();
        assert_eq!(stats.stale_elements, 2);
    }
}
