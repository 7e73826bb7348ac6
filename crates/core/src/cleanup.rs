//! The cleanup operation: remove every stale element (tombstones, deleted
//! elements and replaced duplicates) and rebuild the level structure.
//!
//! Following §IV-E, cleanup proceeds in five bulk steps:
//!
//! 1. **Iterative merge** of all occupied levels from the smallest (most
//!    recent) to the largest, comparing original keys only and letting the
//!    smaller (newer) side win ties, so temporal order within each key is
//!    preserved.
//! 2. **Stale marking** — in the merged array the first instance of each key
//!    is the most recent; it is valid iff it is a regular element.  Every
//!    other instance, and every tombstone, has its status bit overwritten to
//!    "stale".
//! 3. **Compaction** with a two-bucket multisplit on the (re-written) status
//!    bit, collecting all valid elements at the front while preserving their
//!    key order.
//! 4. **Placebo padding** — enough max-key tombstones are appended to make
//!    the element count a multiple of `b` again.
//! 5. **Redistribution** — the compacted, sorted array is sliced back into
//!    levels according to the binary representation of the new batch count
//!    (smaller keys end up in smaller levels).

use gpu_primitives::merge::merge_pairs_by;
use gpu_primitives::multisplit::multisplit_pairs_in_place;
use gpu_sim::AccessPattern;
use rayon::prelude::*;

use crate::key::{is_regular, key_less, EncodedKey, Value};
use crate::lsm::GpuLsm;

/// Summary of what a cleanup pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanupReport {
    /// Elements resident before cleanup (including stale and placebos).
    pub elements_before: usize,
    /// Valid elements kept.
    pub valid_elements: usize,
    /// Stale elements removed (tombstones, deleted, replaced, old placebos).
    pub removed_elements: usize,
    /// Placebo elements added to pad to a multiple of `b`.
    pub placebos_added: usize,
    /// Occupied levels before cleanup.
    pub levels_before: usize,
    /// Occupied levels after cleanup.
    pub levels_after: usize,
}

impl GpuLsm {
    /// Remove all stale elements and rebuild the level structure.
    /// Returns a report of how much was removed.
    pub fn cleanup(&mut self) -> CleanupReport {
        let elements_before = self.num_resident_elements();
        let levels_before = self.num_occupied_levels();
        if elements_before == 0 {
            return CleanupReport {
                elements_before: 0,
                valid_elements: 0,
                removed_elements: 0,
                placebos_added: 0,
                levels_before: 0,
                levels_after: 0,
            };
        }
        let kernel = "lsm_cleanup";
        self.device().metrics().record_launch(kernel);

        // Step 1: iterative merge, smallest level first so the newer side is
        // always the first merge argument (tie priority).
        let occupied = self.levels.drain_occupied();
        let mut merged_keys: Vec<EncodedKey> = Vec::new();
        let mut merged_values: Vec<Value> = Vec::new();
        for (_, level) in occupied {
            let (lk, lv) = level.into_parts();
            if merged_keys.is_empty() {
                merged_keys = lk;
                merged_values = lv;
            } else {
                let (k, v) = self.device().timer().time("cleanup::merge", || {
                    merge_pairs_by(
                        self.device(),
                        &merged_keys,
                        &merged_values,
                        &lk,
                        &lv,
                        key_less,
                    )
                });
                merged_keys = k;
                merged_values = v;
            }
        }

        // Step 2: overwrite status bits so that exactly the valid elements
        // (newest instance of a key, and regular) keep a set bit.
        let n = merged_keys.len();
        self.device()
            .metrics()
            .record_read(kernel, (n * 8) as u64, AccessPattern::Coalesced);
        self.device()
            .metrics()
            .record_write(kernel, (n * 4) as u64, AccessPattern::Coalesced);
        let valid_flags: Vec<bool> = (0..n)
            .into_par_iter()
            .map(|i| {
                let key = merged_keys[i] >> 1;
                let newest_of_key = i == 0 || (merged_keys[i - 1] >> 1) != key;
                newest_of_key && is_regular(merged_keys[i])
            })
            .collect();
        merged_keys
            .par_iter_mut()
            .zip(valid_flags.par_iter())
            .for_each(|(k, &valid)| {
                *k = if valid { *k | 1 } else { *k & !1 };
            });

        // Step 3: two-bucket multisplit on the rewritten status bit.
        let valid_count = self.device().timer().time("cleanup::multisplit", || {
            multisplit_pairs_in_place(self.device(), &mut merged_keys, &mut merged_values, |k| {
                k & 1 == 1
            })
        });
        merged_keys.truncate(valid_count);
        merged_values.truncate(valid_count);

        // Steps 4 and 5: pad with placebos to a multiple of b while
        // redistributing into levels for the new batch count.
        let padded_len = valid_count.div_ceil(self.batch_size()) * self.batch_size();
        let placebos_added = padded_len - valid_count;
        self.place_sorted(valid_count, merged_keys.into_iter().zip(merged_values));

        CleanupReport {
            elements_before,
            valid_elements: valid_count,
            removed_elements: elements_before - valid_count,
            placebos_added,
            levels_before,
            levels_after: self.num_occupied_levels(),
        }
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
    fn cleanup_on_empty_lsm_is_a_noop() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        let report = lsm.cleanup();
        assert_eq!(report.elements_before, 0);
        assert_eq!(report.valid_elements, 0);
        assert!(lsm.is_empty());
    }

    #[test]
    fn cleanup_removes_tombstones_and_duplicates() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 10), (2, 20), (3, 30), (4, 40)]).unwrap();
        lsm.insert(&[(2, 21), (5, 50), (6, 60), (7, 70)]).unwrap();
        lsm.delete(&[3, 5, 6, 7]).unwrap();
        // Valid keys: 1, 2(=21), 4.
        let before_elements = lsm.num_resident_elements();
        let report = lsm.cleanup();
        assert_eq!(report.elements_before, before_elements);
        assert_eq!(report.valid_elements, 3);
        assert_eq!(report.placebos_added, 1);
        assert_eq!(lsm.num_resident_elements(), 4);
        assert_eq!(lsm.num_batches(), 1);
        // Queries still produce the same answers.
        assert_eq!(
            lsm.lookup(&[1, 2, 3, 4, 5, 6, 7]),
            vec![Some(10), Some(21), None, Some(40), None, None, None]
        );
        assert_eq!(lsm.count(&[(0, 100)]), vec![3]);
    }

    #[test]
    fn cleanup_preserves_query_answers_on_random_workload() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let b = 64usize;
        let mut lsm = GpuLsm::new(device(), b).unwrap();
        let mut reference = std::collections::BTreeMap::new();
        for _ in 0..9 {
            let mut batch = crate::batch::UpdateBatch::new();
            // Keys are distinct within a batch so the sequential reference
            // map and the batch semantics (rules 4 and 6) agree.
            let mut used = std::collections::HashSet::new();
            while used.len() < b {
                let key = rng.gen_range(0..500u32);
                if !used.insert(key) {
                    continue;
                }
                if rng.gen_bool(0.3) {
                    batch.delete(key);
                    reference.remove(&key);
                } else {
                    let value = rng.gen::<u32>();
                    batch.insert(key, value);
                    reference.insert(key, value);
                }
            }
            lsm.update(&batch).unwrap();
        }
        let queries: Vec<u32> = (0..500).collect();
        let before = lsm.lookup(&queries);
        let report = lsm.cleanup();
        let after = lsm.lookup(&queries);
        assert_eq!(before, after);
        assert_eq!(report.valid_elements, reference.len());
        // Answers also match the reference map.
        for (q, got) in queries.iter().zip(after.iter()) {
            assert_eq!(*got, reference.get(q).copied(), "key {q}");
        }
        // Levels cannot increase and usually shrink.
        assert!(report.levels_after <= report.levels_before || report.levels_before == 0);
    }

    #[test]
    fn cleanup_of_everything_deleted_empties_structure() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 1), (2, 2), (3, 3), (4, 4)]).unwrap();
        lsm.delete(&[1, 2, 3, 4]).unwrap();
        let report = lsm.cleanup();
        assert_eq!(report.valid_elements, 0);
        assert!(lsm.is_empty());
        assert_eq!(lsm.lookup(&[1, 2, 3, 4]), vec![None; 4]);
    }

    #[test]
    fn cleanup_reduces_memory_footprint() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        let pairs: Vec<(u32, u32)> = (0..8).map(|k| (k, k)).collect();
        for _ in 0..7 {
            lsm.insert(&pairs).unwrap(); // same keys re-inserted: all but last stale
        }
        let before = lsm.num_resident_elements();
        lsm.cleanup();
        assert!(lsm.num_resident_elements() < before);
        assert_eq!(lsm.num_resident_elements(), 8);
        assert_eq!(lsm.count(&[(0, 7)]), vec![8]);
    }

    #[test]
    fn repeated_cleanup_is_idempotent() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 1), (2, 2), (3, 3), (4, 4)]).unwrap();
        lsm.delete(&[2]).unwrap();
        lsm.cleanup();
        let first = lsm.lookup(&[1, 2, 3, 4]);
        let report = lsm.cleanup();
        assert_eq!(report.removed_elements, report.placebos_added); // only placebos churn
        assert_eq!(lsm.lookup(&[1, 2, 3, 4]), first);
    }
}
