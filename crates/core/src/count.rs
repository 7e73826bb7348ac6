//! Count queries: how many *valid* keys fall in `[k1, k2]`.
//!
//! The paper answers count and range queries (§IV-C/D) with a five-stage
//! GPU pipeline: (1) per query and per occupied level, the lower bounds of
//! `k1` and of `k2 + 1` bound the level's candidates; (2) an exclusive
//! scan of those sizes gives each (query, level) group its output offset;
//! (3) the candidates are gathered into one array, newest level first;
//! (4) a stable segmented sort orders each query's segment by original
//! key, so equal keys stay newest-first; (5) the first element of each key
//! run decides: a regular element counts, a tombstone hides the key.
//!
//! **What the host runs.**  Stage 1 with one fence descent per (query,
//! level): queries search each level together in lockstep lane groups of
//! `LANE_GROUP` for the lower bounds of their `k1`s
//! ([`Level::lower_bounds`]).  A lane's `k2 + 1` bound lies a few elements
//! past its `k1` bound on a narrow span, so each lane gallops forward from
//! its `k1` bound to find it: doubling steps, then a binary search of the
//! last bracket, all on cache lines near the first bound.  A bound `d`
//! elements away costs about `2 log2(d)` probes, fewer than a second fence
//! descent while `d` is small.  Stages 2–4 only stage data on a host, so
//! in their place each query merges its level slices in one stable pass,
//! newest level first: on equal keys the newer side wins, and a level
//! keeps its stored order — exactly the order the stable segmented sort
//! produces.  Stage 5 then reads the merged run; a query with one
//! non-empty slice reads the level in place.  Count reads keys only.  The
//! merges run in parallel over the same lane groups as the search, each
//! group reusing one scratch.
//!
//! **What the device model books.**  The paper's five stages, as if they
//! ran (`Bounds::record`): the search kernel's launch, its probes (two
//! fence-narrowed searches per intersecting (query, level), however the
//! host found the bounds) and its gather of every candidate, the scan of
//! the per-(query, level) estimates and the segmented sort of the
//! candidates.  What the host skips does not change modelled device time.
//!
//! [`Level::lower_bounds`]: crate::level::Level::lower_bounds

use gpu_primitives::merge::{seq_merge_into, seq_merge_pairs_into};
use gpu_sim::{AccessPattern, Device};
use rayon::prelude::*;

use crate::key::{is_regular, key_less, original_key, EncodedKey, Key, Value, MAX_KEY};
use crate::level::Level;
use crate::lookup::LANE_GROUP;
use crate::lsm::GpuLsm;

/// Stage 1 of a count or range call: every (query, level) pair's slice of
/// candidates.
pub(crate) struct Bounds<'a> {
    /// Number of queries searched.
    num_queries: usize,
    /// The occupied levels, newest first.
    levels: Vec<&'a Level>,
    /// Query-major: `slices[q * levels.len() + l]` is query `q`'s candidate
    /// index range in level `l` (`(0, 0)` when the interval misses it).
    slices: Vec<(usize, usize)>,
    /// Scattered probes the searches took.
    probes: u64,
}

impl<'a> Bounds<'a> {
    /// Search every query's candidate bounds in every occupied level of
    /// `lsm`, in lockstep lane groups of `LANE_GROUP` queries in parallel
    /// (see [`group_bounds`]).
    pub(crate) fn search(lsm: &'a GpuLsm, queries: &[(Key, Key)]) -> Self {
        Self::over(
            lsm.levels().iter_occupied().map(|(_, l)| l).collect(),
            queries,
        )
    }

    /// [`Bounds::search`] over `levels`, newest first.
    fn over(levels: Vec<&'a Level>, queries: &[(Key, Key)]) -> Self {
        let num_levels = levels.len();
        let mut slices = vec![(0usize, 0usize); queries.len() * num_levels];
        let mut lane_keys: Vec<Key> = vec![0; queries.len()];
        let mut lane_found: Vec<usize> = vec![0; queries.len()];
        let probes = slices
            .par_chunks_mut((LANE_GROUP * num_levels).max(1))
            .zip(queries.par_chunks(LANE_GROUP))
            .zip(lane_keys.par_chunks_mut(LANE_GROUP))
            .zip(lane_found.par_chunks_mut(LANE_GROUP))
            .map(|(((slices, queries), keys), found)| {
                group_bounds(&levels, queries, slices, keys, found)
            })
            .sum();
        Bounds {
            num_queries: queries.len(),
            levels,
            slices,
            probes,
        }
    }

    /// The call's lane groups, in parallel: per group, the slice bounds of
    /// each of its queries in turn.  Empty when no level is occupied.
    pub(crate) fn par_groups(
        &self,
    ) -> impl ParallelIterator<Item = std::slice::Chunks<'_, (usize, usize)>> + '_ {
        let num_levels = self.levels.len().max(1);
        self.slices
            .par_chunks(LANE_GROUP * num_levels)
            .map(move |group| group.chunks(num_levels))
    }

    /// One query's non-empty candidate slices, newest level first, as
    /// `(level, lo..hi)`.
    fn slices<'q>(
        &'q self,
        query: &'q [(usize, usize)],
    ) -> impl Iterator<Item = (&'a Level, std::ops::Range<usize>)> + 'q {
        self.levels
            .iter()
            .zip(query)
            .filter(|(_, &(lo, hi))| hi > lo)
            .map(|(&level, &(lo, hi))| (level, lo..hi))
    }

    /// Read the first and the last value of every candidate slice of a
    /// lane group's queries in one pass before their merges, so that the
    /// slices' cache misses overlap, as the warp's gather in the paper's
    /// stage 3 overlaps them, instead of each stalling its own query's
    /// merge.  A narrow span's slice lies in one or two cache lines; the
    /// merge streams the middle of a wider one.
    pub(crate) fn load_values<'q>(&self, group: impl Iterator<Item = &'q [(usize, usize)]>) {
        let loaded = group
            .flat_map(|query| self.slices(query))
            .fold(0, |acc: Value, (level, r)| {
                acc ^ level.values()[r.start] ^ level.values()[r.end - 1]
            });
        std::hint::black_box(loaded);
    }

    /// Candidates over all queries: the elements the paper's pipeline
    /// gathers and sorts.
    fn candidates(&self) -> usize {
        self.slices.iter().map(|&(lo, hi)| hi - lo).sum()
    }

    /// Book the paper's five-stage pipeline for this call under `kernel`,
    /// whatever the host ran: the launch; the searches' probes; the
    /// scattered gather of the candidates' key–value pairs and their
    /// coalesced store; the exclusive scan of the per-(query, level)
    /// estimates; and the segmented sort of the candidates.  A range call
    /// passes the number of pairs it returned as `valid` and also books
    /// its stage 5: the scan of the per-query counts and the flag
    /// compaction of the candidates down to `valid` pairs.
    pub(crate) fn record(&self, device: &Device, kernel: &str, valid: Option<usize>) {
        const PAIR: usize = 2 * std::mem::size_of::<u32>();
        let metrics = device.metrics();
        let stream = |kernel: &str, n: usize, elem_bytes: usize| {
            metrics.record_launch(kernel);
            let bytes = (n * elem_bytes) as u64;
            metrics.record_read(kernel, bytes, AccessPattern::Coalesced);
            metrics.record_write(kernel, bytes, AccessPattern::Coalesced);
        };
        let candidates = self.candidates();
        let gathered = (candidates * PAIR) as u64;
        metrics.record_launch(kernel);
        if !self.slices.is_empty() {
            metrics.record_scattered_probes(
                kernel,
                self.probes,
                std::mem::size_of::<EncodedKey>() as u64,
            );
            stream(
                "exclusive_scan",
                self.slices.len(),
                std::mem::size_of::<u64>(),
            );
            metrics.record_read(kernel, gathered, AccessPattern::Scattered);
            metrics.record_write(kernel, gathered, AccessPattern::Coalesced);
            stream("segmented_sort_pairs", candidates, PAIR);
        }
        if let Some(valid) = valid {
            stream(
                "exclusive_scan",
                self.num_queries,
                std::mem::size_of::<u64>(),
            );
            metrics.record_launch("compact");
            metrics.record_read("compact", gathered, AccessPattern::Coalesced);
            stream("exclusive_scan", candidates, std::mem::size_of::<u32>());
            metrics.record_write("compact", (valid * PAIR) as u64, AccessPattern::Coalesced);
        }
    }

    /// One query's candidate keys merged newest level first (on equal keys
    /// the newer level wins, and a level keeps its stored order), merging
    /// in the group's ping-pong `bufs`; a lone slice is read in place.
    pub(crate) fn merged_keys<'s>(
        &'s self,
        query: &'s [(usize, usize)],
        bufs: &'s mut [Vec<EncodedKey>; 2],
    ) -> &'s [EncodedKey] {
        let mut slices = self.slices(query).map(|(level, r)| &level.keys()[r]);
        let Some(first) = slices.next() else {
            return &[];
        };
        let [merged, out] = bufs;
        let mut len = None;
        for next in slices {
            let acc = match len {
                Some(n) => &merged[..n],
                None => first,
            };
            let n = acc.len() + next.len();
            if out.len() < n {
                out.resize(n, 0);
            }
            seq_merge_into(acc, next, &mut out[..n], &key_less);
            std::mem::swap(merged, out);
            len = Some(n);
        }
        match len {
            Some(n) => &merged[..n],
            None => first,
        }
    }

    /// [`Bounds::merged_keys`] with each value moving along with its key.
    pub(crate) fn merged_pairs<'s>(
        &'s self,
        query: &'s [(usize, usize)],
        bufs: &'s mut PairBufs,
    ) -> (&'s [EncodedKey], &'s [Value]) {
        let mut slices = self
            .slices(query)
            .map(|(level, r)| (&level.keys()[r.clone()], &level.values()[r]));
        let Some(first) = slices.next() else {
            return (&[], &[]);
        };
        let [(merged_keys, merged_values), (out_keys, out_values)] = bufs;
        let mut len = None;
        for (keys, values) in slices {
            let (acc_keys, acc_values) = match len {
                Some(n) => (&merged_keys[..n], &merged_values[..n]),
                None => first,
            };
            let n = acc_keys.len() + keys.len();
            if out_keys.len() < n {
                out_keys.resize(n, 0);
                out_values.resize(n, 0);
            }
            seq_merge_pairs_into(
                acc_keys,
                acc_values,
                keys,
                values,
                &mut out_keys[..n],
                &mut out_values[..n],
                &key_less,
            );
            std::mem::swap(merged_keys, out_keys);
            std::mem::swap(merged_values, out_values);
            len = Some(n);
        }
        match len {
            Some(n) => (&merged_keys[..n], &merged_values[..n]),
            None => first,
        }
    }
}

/// Ping-pong merge scratch of one lane group's range queries: two
/// key/value buffer pairs.
pub(crate) type PairBufs = [(Vec<EncodedKey>, Vec<Value>); 2];

/// Positions of the elements of a query's merged candidates that decide
/// their key and make it valid: the first element of each key run, when
/// it is a regular element (a first tombstone hides the key).
pub(crate) fn valid_firsts(keys: &[EncodedKey]) -> impl Iterator<Item = usize> + '_ {
    let mut prev = None;
    keys.iter().enumerate().filter_map(move |(i, &k)| {
        let first = prev != Some(original_key(k));
        prev = Some(original_key(k));
        (first && is_regular(k)).then_some(i)
    })
}

impl GpuLsm {
    /// Count, for each `(k1, k2)` query, the number of distinct valid keys
    /// `k` with `k1 <= k <= k2` (replaced and deleted keys excluded).
    pub fn count(&self, queries: &[(Key, Key)]) -> Vec<u32> {
        let timer = self.device().timer();
        let bounds = timer.time("count::gather", || Bounds::search(self, queries));
        let mut counts = vec![0u32; queries.len()];
        timer.time("count::validate", || {
            counts
                .par_chunks_mut(LANE_GROUP)
                .zip(bounds.par_groups())
                .for_each(|(counts, group)| {
                    let mut bufs = Default::default();
                    for (count, query) in counts.iter_mut().zip(group) {
                        *count = valid_firsts(bounds.merged_keys(query, &mut bufs)).count() as u32;
                    }
                });
        });
        bounds.record(self.device(), "lsm_count", None);
        counts
    }
}

/// Bound searches per intersecting (query, level): the lower bounds of
/// `k1` and of `k2 + 1`.  The device model books both as fence-narrowed
/// searches, and a sharded call states them to the worker pool as its work.
pub(crate) const SEARCHES_PER_LEVEL: usize = 2;

/// Stage 1 for one lane group: the candidate bounds of its queries in
/// every level, written to `bounds[lane * levels.len() + level]` (`(0, 0)`
/// stays for intervals that miss the level).  Per level, the lanes whose
/// interval meets it find their `k1` bounds in one lockstep search
/// ([`Level::lower_bounds`]); each lane then gallops forward from its `k1`
/// bound to its `k2 + 1` bound ([`gallop`]).  `keys` and `found` are the
/// group's share of the call's scratch.  Returns the scattered probes to
/// charge: [`SEARCHES_PER_LEVEL`] fence-narrowed searches per (lane,
/// level) that ran, however the host found the bounds.
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
        probes += (SEARCHES_PER_LEVEL * m) as u64 * u64::from(level.search_probe_depth());
        level.lower_bounds(&keys[..m], &mut found[..m]);
        for ((lane, (_, k2)), &lo) in lanes().zip(found.iter()) {
            bounds[lane * num_levels + li] = (lo, gallop(level.keys(), lo, k2 + 1));
        }
    }
    probes
}

/// The lower bound of `key` in `keys`, searched forward from `from`, where
/// every key before `from` is below `key`: probes at `from + 2^j - 1` for
/// `j = 0, 1, ...` until one reaches `key` or the end, then a binary search
/// of the last bracket.  A bound `d` elements past `from` costs about
/// `2 log2(d)` probes, all near `from` while `d` is small.
fn gallop(keys: &[EncodedKey], from: usize, key: Key) -> usize {
    // Every key before `lo` is below `key`.
    let mut lo = from;
    let mut step = 1;
    loop {
        let end = from + step;
        if end > keys.len() || original_key(keys[end - 1]) >= key {
            let end = end.min(keys.len());
            return lo + keys[lo..end].partition_point(|&k| original_key(k) < key);
        }
        lo = end;
        step *= 2;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpu_primitives::filter::DEFAULT_BITS_PER_KEY;
    use gpu_sim::{Device, DeviceConfig};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rayon::prelude::*;

    use super::Bounds;
    use crate::batch::UpdateBatch;
    use crate::key::{encode_regular, encode_tombstone, original_key, MAX_KEY};
    use crate::level::Level;
    use crate::lsm::GpuLsm;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    #[test]
    fn merged_candidates_are_the_stable_sort_of_the_newest_first_slices() {
        // 23 batches of 4 over 12 keys: levels 0, 1, 2 and 4, thick with
        // in-batch duplicates, replaced keys and tombstones.
        let mut rng = StdRng::seed_from_u64(17);
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        for batch in 0..23u32 {
            let mut update = UpdateBatch::new();
            for i in 0..4 {
                let key = rng.gen_range(0..12);
                if rng.gen_bool(0.3) {
                    update.delete(key);
                } else {
                    update.insert(key, batch * 100 + i);
                }
            }
            lsm.update(&update).unwrap();
        }
        let queries: Vec<(u32, u32)> = (0..13)
            .flat_map(|k1| (k1..13).map(move |k2| (k1, k2)))
            .chain([(5, 3), (0, u32::MAX)])
            .collect();
        let bounds = Bounds::search(&lsm, &queries);
        let groups: Vec<_> = bounds.par_groups().collect();
        let (mut key_bufs, mut pair_bufs) = Default::default();
        for query in groups.into_iter().flatten() {
            // The paper's stages 3 and 4: gather newest level first, then
            // sort stably by original key.
            let mut expected: Vec<(u32, u32)> = bounds
                .slices(query)
                .flat_map(|(level, r)| {
                    let keys = level.keys()[r.clone()].iter().copied();
                    keys.zip(level.values()[r].iter().copied())
                })
                .collect();
            expected.sort_by_key(|&(k, _)| original_key(k));
            let (keys, values) = bounds.merged_pairs(query, &mut pair_bufs);
            let merged: Vec<(u32, u32)> =
                keys.iter().copied().zip(values.iter().copied()).collect();
            assert_eq!(merged, expected);
            let expected_keys: Vec<u32> = expected.iter().map(|&(k, _)| k).collect();
            assert_eq!(bounds.merged_keys(query, &mut key_bufs), expected_keys);
        }
    }

    #[test]
    fn k2_bounds_gallop_from_k1_bounds() {
        // Two levels searched in one call: runs of one to three copies of
        // each key (tombstone and regular copies, newest first) spaced 3
        // apart, and single copies spaced 5 apart; both end with the
        // `MAX_KEY` placebo and span several fence intervals (256 keys).
        let mut runs = Vec::new();
        for i in 0..700u32 {
            let key = 1000 + 3 * i;
            for copy in 0..=(i % 3) {
                runs.push(if (i + copy) % 4 == 0 {
                    encode_tombstone(key)
                } else {
                    encode_regular(key)
                });
            }
        }
        let singles: Vec<u32> = (0..1100u32).map(|i| encode_regular(1001 + 5 * i)).collect();
        let levels: Vec<Level> = [runs, singles]
            .into_iter()
            .map(|mut keys| {
                keys.push(encode_tombstone(MAX_KEY));
                let values = vec![0; keys.len()];
                Level::from_sorted(keys, values, DEFAULT_BITS_PER_KEY)
            })
            .collect();
        assert!(levels.iter().all(|l| l.len() > 1 << 10));
        // Per `k1` (every key of the first level, and the gap after it),
        // spans whose `k2 + 1` falls 0, 1, 2, 2^j - 1, 2^j and 2^j + 1
        // elements past the `k1` bound, on both sides of each doubling
        // step of the gallop, then past the level's end.
        let distances: Vec<usize> = [0, 1, 2]
            .into_iter()
            .chain((2..=10).flat_map(|j| [(1 << j) - 1, 1 << j, (1 << j) + 1]))
            .collect();
        let first = &levels[0];
        let mut k1s: Vec<u32> = first
            .keys()
            .iter()
            .flat_map(|&k| [original_key(k), original_key(k) + 1])
            .collect();
        k1s.sort_unstable();
        k1s.dedup();
        let mut queries = Vec::new();
        for k1 in k1s {
            let lo = first.lower_bound(k1);
            for &d in &distances {
                let k2 = match first.keys().get(lo + d) {
                    Some(&at) => original_key(at),
                    None => MAX_KEY,
                };
                queries.extend([(k1, k2.saturating_sub(1)), (k1, k2)]);
            }
            queries.extend([(k1, MAX_KEY - 1), (k1, u32::MAX)]);
        }
        let bounds = Bounds::over(levels.iter().collect(), &queries);
        for (q, &(k1, k2)) in queries.iter().enumerate() {
            for (l, level) in levels.iter().enumerate() {
                let k2 = k2.min(MAX_KEY);
                let expected = if k1 <= k2 && level.interval_intersects(k1, k2) {
                    (level.lower_bound(k1), level.lower_bound(k2 + 1))
                } else {
                    (0, 0)
                };
                let got = bounds.slices[q * levels.len() + l];
                assert_eq!(got, expected, "[{k1}, {k2}] in level {l}");
            }
        }
        // Gallops of more than 2^10 elements ran in both levels.
        for l in 0..levels.len() {
            let mut spans = bounds.slices.iter().skip(l).step_by(levels.len());
            assert!(spans.any(|&(lo, hi)| hi - lo > 1 << 10));
        }
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
