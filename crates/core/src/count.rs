//! Count queries: how many *valid* keys fall in `[k1, k2]`.
//!
//! The five-stage pipeline of §IV-C:
//!
//! 1. **Initial count estimate** — per query and per occupied level, the
//!    lower bounds of `k1` and of `k2 + 1` give the number of candidate
//!    elements in that level; queries search each level together, in
//!    lockstep lane groups.
//! 2. **Scanning** — a device-wide exclusive scan over the per-(query,
//!    level) estimates yields every candidate group's output offset.
//! 3. **Initial key storage** — candidate encoded keys are gathered into one
//!    contiguous array, level by level per query (most recent level first).
//! 4. **Segmented sort** — each query's segment is sorted by original key,
//!    status bits ignored, preserving the newest-first order of equal keys.
//! 5. **Final counting** — within each segment, each run of identical keys
//!    contributes one to the count iff its first (newest) element is a
//!    regular element, not a tombstone.

use gpu_primitives::scan::exclusive_scan;
use gpu_primitives::segmented_sort::segmented_sort_pairs_by;
use gpu_sim::AccessPattern;
use rayon::prelude::*;

use crate::key::{is_regular, key_less, EncodedKey, Key, Value, MAX_KEY};
use crate::level::Level;
use crate::lookup::LANE_GROUP;
use crate::lsm::GpuLsm;

/// The gathered candidates of a set of interval queries: one contiguous
/// segment per query, sorted by original key, newest instance of each key
/// first.  Shared by count and range queries.
pub(crate) struct Candidates {
    /// Gathered encoded keys, all queries concatenated.
    pub keys: Vec<EncodedKey>,
    /// Gathered values, parallel to `keys`.
    pub values: Vec<Value>,
    /// Per-query segment offsets (`queries.len() + 1` entries).
    pub segment_offsets: Vec<usize>,
}

impl GpuLsm {
    /// Count, for each `(k1, k2)` query, the number of distinct valid keys
    /// `k` with `k1 <= k <= k2` (replaced and deleted keys excluded).
    pub fn count(&self, queries: &[(Key, Key)]) -> Vec<u32> {
        let candidates = self.device().timer().time("count::gather", || {
            self.gather_candidates(queries, "lsm_count")
        });
        self.device()
            .timer()
            .time("count::validate", || validate_counts(&candidates))
    }

    /// Stages 1–4 of the count/range pipeline, shared by [`GpuLsm::count`]
    /// and [`GpuLsm::range`].
    pub(crate) fn gather_candidates(&self, queries: &[(Key, Key)], kernel: &str) -> Candidates {
        let num_queries = queries.len();
        let levels: Vec<_> = self.levels().iter_occupied().map(|(_, l)| l).collect();
        let num_levels = levels.len();
        self.device().metrics().record_launch(kernel);

        if num_queries == 0 || num_levels == 0 {
            return Candidates {
                keys: Vec::new(),
                values: Vec::new(),
                segment_offsets: vec![0; num_queries + 1],
            };
        }

        // Stage 1: per-(query, level) candidate bounds, searched in
        // lockstep lane groups of `LANE_GROUP` queries (see
        // `group_bounds`).  Laid out query-major, level-minor so each
        // query's groups are contiguous, and each lane group's bounds too.
        // Scattered probes are charged for the searches that actually ran
        // — pairs the min/max clamp skipped cost nothing, so modelled
        // device time reflects the pruning win.
        let mut bounds = vec![(0usize, 0usize); num_queries * num_levels];
        let mut lane_keys: Vec<Key> = vec![0; num_queries];
        let mut lane_found: Vec<usize> = vec![0; num_queries];
        let probes_done: u64 = bounds
            .par_chunks_mut(LANE_GROUP * num_levels)
            .zip(queries.par_chunks(LANE_GROUP))
            .zip(lane_keys.par_chunks_mut(LANE_GROUP))
            .zip(lane_found.par_chunks_mut(LANE_GROUP))
            .map(|(((bounds, queries), keys), found)| {
                group_bounds(&levels, queries, bounds, keys, found)
            })
            .sum();
        self.device().metrics().record_scattered_probes(
            kernel,
            probes_done,
            std::mem::size_of::<EncodedKey>() as u64,
        );
        let estimates: Vec<u64> = bounds.iter().map(|&(lo, hi)| (hi - lo) as u64).collect();

        // Stage 2: exclusive scan of the estimates gives output offsets.
        let (offsets, total) = exclusive_scan(self.device(), &estimates);
        let total = total as usize;

        // Stage 3: gather candidate keys and values.  Each query's segment is
        // a contiguous range; each (query, level) group within it is too, so
        // groups can be copied in parallel per query.
        let mut keys = vec![0u32; total];
        let mut values = vec![0u32; total];
        self.device()
            .metrics()
            .record_read(kernel, (total * 8) as u64, AccessPattern::Scattered);
        self.device()
            .metrics()
            .record_write(kernel, (total * 8) as u64, AccessPattern::Coalesced);
        // Split the output into per-query mutable segments.
        let mut segment_offsets = Vec::with_capacity(num_queries + 1);
        for q in 0..num_queries {
            segment_offsets.push(offsets[q * num_levels] as usize);
        }
        segment_offsets.push(total);

        {
            let key_segments = split_by_offsets(&mut keys, &segment_offsets);
            let value_segments = split_by_offsets(&mut values, &segment_offsets);
            key_segments
                .into_par_iter()
                .zip(value_segments.into_par_iter())
                .enumerate()
                .for_each(|(q, (kseg, vseg))| {
                    let mut cursor = 0usize;
                    for (li, level) in levels.iter().enumerate() {
                        let (lo, hi) = bounds[q * num_levels + li];
                        let n = hi - lo;
                        kseg[cursor..cursor + n].copy_from_slice(&level.keys()[lo..hi]);
                        vseg[cursor..cursor + n].copy_from_slice(&level.values()[lo..hi]);
                        cursor += n;
                    }
                });
        }

        // Stage 4: segmented sort by original key (status bit ignored).  The
        // sort is stable and the gather visited levels newest-first, so equal
        // keys stay ordered newest-first.
        segmented_sort_pairs_by(
            self.device(),
            &mut keys,
            &mut values,
            &segment_offsets,
            key_less,
        );

        Candidates {
            keys,
            values,
            segment_offsets,
        }
    }
}

/// Stage 1 for one lane group: the candidate bounds of its queries in
/// every level, written to `bounds[lane * levels.len() + level]` (`(0, 0)`
/// stays for intervals that miss the level).  Per level, the lanes whose
/// interval meets it take two lockstep searches ([`Level::lower_bounds`]):
/// one of their `k1`s finds the first candidate, one of their `k2 + 1`s
/// the end of the candidates.  `keys` and `found` are the group's share of
/// the call's scratch.  Returns the scattered probes to charge: two
/// fence-narrowed searches per (lane, level) that ran.
fn group_bounds(
    levels: &[&Level],
    queries: &[(Key, Key)],
    bounds: &mut [(usize, usize)],
    keys: &mut [Key],
    found: &mut [usize],
) -> u64 {
    let num_levels = levels.len();
    let mut probes = 0;
    for (li, level) in levels.iter().enumerate() {
        // Clamp the upper bound into the 31-bit domain (no stored key can
        // exceed it, and `k2 + 1` then cannot overflow).  After the clamp,
        // k1 > k2 covers both genuinely inverted bounds and a lower bound
        // above the domain — either way the interval can contain no
        // storable key and is empty.
        let live = |&(k1, k2): &(Key, Key)| {
            let k2 = k2.min(MAX_KEY);
            (k1 <= k2 && level.interval_intersects(k1, k2)).then_some((k1, k2))
        };
        let lanes = || {
            queries
                .iter()
                .enumerate()
                .filter_map(move |(lane, q)| live(q).map(|interval| (lane, interval)))
        };
        let mut m = 0;
        for (_, (k1, _)) in lanes() {
            keys[m] = k1;
            m += 1;
        }
        if m == 0 {
            continue;
        }
        probes += 2 * m as u64 * u64::from(level.search_probe_depth());
        level.lower_bounds(&keys[..m], &mut found[..m]);
        for ((lane, _), &lo) in lanes().zip(found.iter()) {
            bounds[lane * num_levels + li] = (lo, lo);
        }
        for ((_, (_, k2)), key) in lanes().zip(keys.iter_mut()) {
            *key = k2 + 1;
        }
        level.lower_bounds(&keys[..m], &mut found[..m]);
        for ((lane, _), &hi) in lanes().zip(found.iter()) {
            let bound = &mut bounds[lane * num_levels + li];
            debug_assert!(hi >= bound.0, "bounds are monotone in the key");
            bound.1 = hi;
        }
    }
    probes
}

/// Stage 5 of the count pipeline: per segment, count key runs whose first
/// (newest) element is a regular element.
pub(crate) fn validate_counts(candidates: &Candidates) -> Vec<u32> {
    let num_queries = candidates.segment_offsets.len() - 1;
    (0..num_queries)
        .into_par_iter()
        .map(|q| {
            let start = candidates.segment_offsets[q];
            let end = candidates.segment_offsets[q + 1];
            let keys = &candidates.keys[start..end];
            let mut count = 0u32;
            let mut i = 0usize;
            while i < keys.len() {
                let key = keys[i] >> 1;
                if is_regular(keys[i]) {
                    count += 1;
                }
                // Skip the rest of this key's run (older instances are stale).
                i += 1;
                while i < keys.len() && keys[i] >> 1 == key {
                    i += 1;
                }
            }
            count
        })
        .collect()
}

/// Split `data` into mutable, disjoint segments described by `offsets`.
pub(crate) fn split_by_offsets<'a, T>(data: &'a mut [T], offsets: &[usize]) -> Vec<&'a mut [T]> {
    let mut segments = Vec::with_capacity(offsets.len().saturating_sub(1));
    let mut rest = data;
    let mut consumed = 0usize;
    for w in offsets.windows(2) {
        let len = w[1] - w[0];
        debug_assert_eq!(w[0], consumed);
        let (seg, tail) = rest.split_at_mut(len);
        segments.push(seg);
        rest = tail;
        consumed += len;
    }
    segments
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpu_sim::{Device, DeviceConfig};

    use crate::batch::UpdateBatch;
    use crate::lsm::GpuLsm;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    #[test]
    fn counts_simple_ranges() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        let pairs: Vec<(u32, u32)> = (0..8).map(|k| (k * 10, k)).collect();
        lsm.insert(&pairs).unwrap(); // keys 0, 10, ..., 70
        assert_eq!(lsm.count(&[(0, 70)]), vec![8]);
        assert_eq!(lsm.count(&[(5, 35)]), vec![3]); // 10, 20, 30
        assert_eq!(lsm.count(&[(71, 100)]), vec![0]);
        assert_eq!(lsm.count(&[(0, 0)]), vec![1]);
    }

    #[test]
    fn count_excludes_deleted_keys() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 1), (2, 2), (3, 3), (4, 4)]).unwrap();
        lsm.delete(&[2, 3]).unwrap();
        assert_eq!(lsm.count(&[(1, 4)]), vec![2]);
        assert_eq!(lsm.count(&[(2, 3)]), vec![0]);
    }

    #[test]
    fn count_does_not_double_count_replaced_keys() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(5, 1), (6, 1), (7, 1), (8, 1)]).unwrap();
        lsm.insert(&[(5, 2), (6, 2), (9, 1), (10, 1)]).unwrap();
        // Keys present: 5..=10 — each counted once despite duplicates.
        assert_eq!(lsm.count(&[(5, 10)]), vec![6]);
        assert_eq!(lsm.count(&[(5, 6)]), vec![2]);
    }

    #[test]
    fn count_after_delete_and_reinsert() {
        let mut lsm = GpuLsm::new(device(), 2).unwrap();
        lsm.insert(&[(3, 1), (4, 1)]).unwrap();
        lsm.delete(&[3, 4]).unwrap();
        lsm.insert(&[(3, 2)]).unwrap();
        assert_eq!(lsm.count(&[(3, 4)]), vec![1]);
    }

    #[test]
    fn multiple_queries_in_parallel() {
        let mut lsm = GpuLsm::new(device(), 64).unwrap();
        let pairs: Vec<(u32, u32)> = (0..64).map(|k| (k, k)).collect();
        lsm.insert(&pairs).unwrap();
        let queries: Vec<(u32, u32)> = (0..32).map(|i| (i, i + 7)).collect();
        let counts = lsm.count(&queries);
        for (i, c) in counts.iter().enumerate() {
            let expected = (i as u32 + 7).min(63) - i as u32 + 1;
            assert_eq!(*c, expected, "query {i}");
        }
    }

    #[test]
    fn count_on_empty_structure_or_no_queries() {
        let lsm = GpuLsm::new(device(), 4).unwrap();
        assert_eq!(lsm.count(&[(0, 100)]), vec![0]);
        let empty: Vec<(u32, u32)> = vec![];
        assert!(lsm.count(&empty).is_empty());
    }

    #[test]
    fn count_spanning_multiple_levels() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        for b in 0..5u32 {
            let pairs: Vec<(u32, u32)> = (0..8).map(|i| (b * 8 + i, i)).collect();
            lsm.insert(&pairs).unwrap();
        }
        // Keys 0..40 present across levels 0 and 2.
        assert_eq!(lsm.count(&[(0, 39)]), vec![40]);
        assert_eq!(lsm.count(&[(4, 35)]), vec![32]);
    }

    #[test]
    fn count_with_mixed_batch_tombstones() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 1), (2, 2), (3, 3), (4, 4)]).unwrap();
        let mut batch = UpdateBatch::new();
        batch.delete(1).insert(5, 5).delete(4).insert(6, 6);
        lsm.update(&batch).unwrap();
        // Present: 2, 3, 5, 6.
        assert_eq!(lsm.count(&[(1, 6)]), vec![4]);
    }
}
