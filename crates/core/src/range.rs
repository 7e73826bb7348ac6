//! Range queries: return every valid key–value pair in `[k1, k2]`.
//!
//! Range queries share the paper's pipeline with count queries (§IV-D):
//! bounds, scan, gather of keys *and* values, segmented sort.  Stage 5
//! differs: each key run's newest element is marked valid if it is a
//! regular element, a scan of the per-query valid counts gives the output
//! offsets, and a flag compaction gathers the valid pairs, producing
//! per-query offsets followed by each query's valid elements sorted by
//! key.
//!
//! **What the host runs.**  The search of [`crate::count`], then, per lane
//! group: first one pass that reads the first and the last value of every
//! level slice of the group's queries, so that their cache misses overlap
//! the way a warp's gather of stage 3 overlaps them; then, per query, the
//! same newest-first stable merge as count, with each value moving along
//! with its key.  Each valid first element of a key run is appended to the
//! result as it is found, so a lane group writes its pairs once, already
//! in the output layout.  With more than one group the groups' results
//! are concatenated in query order.
//!
//! **What the device model books.**  The five stages of the paper's
//! pipeline, as for count, plus stage 5's scan of the per-query counts
//! and the compaction of the candidates down to the returned pairs.

use rayon::prelude::*;

use crate::count::{valid_firsts, Bounds};
use crate::key::{original_key, Key, Value};
use crate::lsm::GpuLsm;

/// The result of a batch of range queries.
///
/// All queries' results are stored contiguously (keys ascending within each
/// query); `offsets` delimits each query's slice, mirroring the
/// offsets-then-elements layout the GPU implementation returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeResult {
    /// Per-query start offsets into `keys` / `values`
    /// (`num_queries + 1` entries).
    pub offsets: Vec<usize>,
    /// Valid original (decoded) keys of all queries, concatenated.
    pub keys: Vec<Key>,
    /// Values parallel to `keys`.
    pub values: Vec<Value>,
}

impl RangeResult {
    /// Number of queries this result covers.
    pub fn num_queries(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The `(keys, values)` slices of query `q`.
    pub fn query(&self, q: usize) -> (&[Key], &[Value]) {
        let start = self.offsets[q];
        let end = self.offsets[q + 1];
        (&self.keys[start..end], &self.values[start..end])
    }

    /// Number of valid elements returned for query `q`.
    pub fn len(&self, q: usize) -> usize {
        self.offsets[q + 1] - self.offsets[q]
    }

    /// Whether query `q` returned no elements.
    pub fn is_empty(&self, q: usize) -> bool {
        self.len(q) == 0
    }

    /// Iterate the `(key, value)` pairs of query `q`.
    pub fn iter_query(&self, q: usize) -> impl Iterator<Item = (Key, Value)> + '_ {
        let (k, v) = self.query(q);
        k.iter().copied().zip(v.iter().copied())
    }

    /// Total number of returned elements across all queries.
    pub fn total_len(&self) -> usize {
        self.keys.len()
    }
}

impl GpuLsm {
    /// Execute a batch of range queries `(k1, k2)`, returning every valid
    /// pair with `k1 <= key <= k2`, sorted by key, for each query.
    pub fn range(&self, queries: &[(Key, Key)]) -> RangeResult {
        let timer = self.device().timer();
        let bounds = timer.time("range::gather", || Bounds::search(self, queries));
        let result = timer.time("range::validate", || {
            let groups: Vec<RangeResult> = bounds
                .par_groups()
                .map(|group| {
                    // The group's candidates bound its output: one
                    // allocation per column.
                    let candidates = group.clone().flatten().map(|&(lo, hi)| hi - lo).sum();
                    let mut out = RangeResult {
                        offsets: Vec::with_capacity(group.len() + 1),
                        keys: Vec::with_capacity(candidates),
                        values: Vec::with_capacity(candidates),
                    };
                    out.offsets.push(0);
                    bounds.load_values(group.clone());
                    let mut bufs = Default::default();
                    for query in group {
                        let (keys, values) = bounds.merged_pairs(query, &mut bufs);
                        for i in valid_firsts(keys) {
                            out.keys.push(original_key(keys[i]));
                            out.values.push(values[i]);
                        }
                        out.offsets.push(out.keys.len());
                    }
                    out
                })
                .collect();
            concat(queries.len(), groups)
        });
        bounds.record(self.device(), "lsm_range", Some(result.total_len()));
        result
    }
}

/// Concatenate lane groups' results in query order into one result of
/// `num_queries` queries (all empty when there are no groups).
fn concat(num_queries: usize, groups: Vec<RangeResult>) -> RangeResult {
    let mut groups = groups.into_iter();
    let Some(mut out) = groups.next() else {
        return RangeResult {
            offsets: vec![0; num_queries + 1],
            ..RangeResult::default()
        };
    };
    for group in groups {
        let base = out.keys.len();
        out.offsets
            .extend(group.offsets[1..].iter().map(|&o| base + o));
        out.keys.extend(group.keys);
        out.values.extend(group.values);
    }
    out
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
    fn returns_pairs_sorted_by_key() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        let pairs: Vec<(u32, u32)> = [
            (50, 5),
            (10, 1),
            (30, 3),
            (70, 7),
            (20, 2),
            (60, 6),
            (40, 4),
            (80, 8),
        ]
        .to_vec();
        lsm.insert(&pairs).unwrap();
        let result = lsm.range(&[(15, 65)]);
        assert_eq!(result.num_queries(), 1);
        let (keys, values) = result.query(0);
        assert_eq!(keys, &[20, 30, 40, 50, 60]);
        assert_eq!(values, &[2, 3, 4, 5, 6]);
    }

    #[test]
    fn excludes_deleted_and_uses_latest_value() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 10), (2, 20), (3, 30), (4, 40)]).unwrap();
        lsm.insert(&[(2, 21), (5, 50), (6, 60), (7, 70)]).unwrap();
        lsm.delete(&[3, 6]).unwrap();
        let result = lsm.range(&[(1, 7)]);
        let (keys, values) = result.query(0);
        assert_eq!(keys, &[1, 2, 4, 5, 7]);
        assert_eq!(values, &[10, 21, 40, 50, 70]);
    }

    #[test]
    fn multiple_queries_have_independent_segments() {
        let mut lsm = GpuLsm::new(device(), 16).unwrap();
        let pairs: Vec<(u32, u32)> = (0..16).map(|k| (k, k * 2)).collect();
        lsm.insert(&pairs).unwrap();
        let result = lsm.range(&[(0, 3), (10, 12), (100, 200)]);
        assert_eq!(result.num_queries(), 3);
        assert_eq!(result.query(0).0, &[0, 1, 2, 3]);
        assert_eq!(result.query(1).0, &[10, 11, 12]);
        assert!(result.is_empty(2));
        assert_eq!(result.len(0), 4);
        assert_eq!(result.total_len(), 7);
        let collected: Vec<(u32, u32)> = result.iter_query(1).collect();
        assert_eq!(collected, vec![(10, 20), (11, 22), (12, 24)]);
    }

    #[test]
    fn range_on_empty_structure() {
        let lsm = GpuLsm::new(device(), 4).unwrap();
        let result = lsm.range(&[(0, 100)]);
        assert_eq!(result.num_queries(), 1);
        assert!(result.is_empty(0));
    }

    #[test]
    fn range_with_replaced_keys_returns_single_instance() {
        let mut lsm = GpuLsm::new(device(), 2).unwrap();
        lsm.insert(&[(5, 1), (6, 1)]).unwrap();
        lsm.insert(&[(5, 2), (6, 2)]).unwrap();
        lsm.insert(&[(5, 3), (6, 3)]).unwrap();
        let result = lsm.range(&[(5, 6)]);
        let (keys, values) = result.query(0);
        assert_eq!(keys, &[5, 6]);
        assert_eq!(values, &[3, 3]);
    }

    #[test]
    fn range_matches_count() {
        let mut lsm = GpuLsm::new(device(), 32).unwrap();
        for b in 0..3u32 {
            let pairs: Vec<(u32, u32)> = (0..32).map(|i| ((i * 7 + b * 3) % 200, i)).collect();
            lsm.insert(&pairs).unwrap();
        }
        lsm.delete(&[14, 21, 28]).unwrap();
        let queries: Vec<(u32, u32)> = vec![(0, 50), (40, 120), (150, 199), (0, 199)];
        let counts = lsm.count(&queries);
        let ranges = lsm.range(&queries);
        for (q, &c) in counts.iter().enumerate() {
            assert_eq!(ranges.len(q), c as usize, "query {q}");
        }
    }
}
