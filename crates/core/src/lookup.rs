//! Bulk lookup queries.
//!
//! Each query is independent (the paper's "individual approach", §IV-B): a
//! query walks the occupied levels from the smallest (most recent) to the
//! largest, probing each level for the key.  The first element found with a
//! matching key decides the outcome — a regular element returns its value,
//! a tombstone means the key was deleted — because the building invariants
//! of §III-D order equal keys newest-first within a level and newer levels
//! are searched first.
//!
//! ## Lockstep lanes
//!
//! Batches run the way a GPU warp does: queries are cut into groups of
//! `LANE_GROUP` lanes, and each level is one pass over the groups.  In a
//! pass, a group's undecided lanes are tested against the level's blocked
//! Bloom filter (one cache-line read each, "definitely absent" for most
//! misses), and the survivors search the level together with
//! [`Level::lower_bounds`]: every lane takes its next probe in the same
//! round, so the rounds' cache misses overlap instead of forming one
//! dependent chain per query.  Results are bit-identical to the scalar walk
//! of [`GpuLsm::lookup_one`].
//!
//! The call names the engine, and nothing chooses between them at run
//! time.  Both run these same passes and differ only in the query sort:
//! [`GpuLsm::lookup`] keeps the callers' order, while [`GpuLsm::bulk_get`]
//! sorts first, so neighbouring lanes share fence windows, and then prunes
//! levels outside the batch's key range.
//!
//! [`Level`]: crate::level::Level
//! [`Level::lower_bounds`]: crate::level::Level::lower_bounds

use gpu_primitives::filter::BLOCK_BYTES;
use gpu_sim::AccessPattern;
use rayon::prelude::*;

use crate::key::{is_regular, original_key, Key, Value};
use crate::level::Level;
use crate::lsm::GpuLsm;

/// Lane-group width of the batched level searches (lookups, `bulk_get`,
/// count and range): queries search each level in groups of this many
/// lanes, all taking their probes in the same round — the CPU analogue of
/// a GPU warp, twice the modelled warp width.
pub(crate) const LANE_GROUP: usize = 64;

/// Cost trace of lookups, accumulated into the device's traffic metrics
/// and the structure's filter counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LookupTrace {
    /// Bloom filter blocks read (one coalesced cache-line read each).
    pub filter_blocks: u64,
    /// Levels skipped outright by a filter negative.
    pub filter_skips: u64,
    /// Scattered binary-search probes performed.
    pub search_probes: u64,
}

impl std::ops::AddAssign for LookupTrace {
    fn add_assign(&mut self, other: Self) {
        self.filter_blocks += other.filter_blocks;
        self.filter_skips += other.filter_skips;
        self.search_probes += other.search_probes;
    }
}

/// What one lane group did in one level's pass.
#[derive(Debug, Clone, Copy, Default)]
struct GroupPass {
    /// Filter reads, filter skips and search probes of the pass.
    trace: LookupTrace,
    /// When any lane searched: the first searching lane's key and the last
    /// one's bound (the smallest key and the largest bound in a sorted
    /// group), from which the bulk engine charges its window.
    searched: Option<(Key, usize)>,
}

/// One level's pass over one lane group: filter-test the undecided lanes,
/// search the survivors in lockstep, decide the lanes whose key the level
/// holds.  `answers[i]` is `None` while lane `i` is undecided.  The other
/// three slices are the group's share of the call's scratch (as long as
/// the group), so a pass never allocates.
fn lane_pass(
    level: &Level,
    queries: &[Key],
    answers: &mut [Option<Option<Value>>],
    live_keys: &mut [Key],
    live_lanes: &mut [u32],
    bounds: &mut [usize],
) -> GroupPass {
    let mut trace = LookupTrace::default();
    let mut live = 0;
    for (lane, (&q, answer)) in queries.iter().zip(answers.iter()).enumerate() {
        if answer.is_some() {
            continue;
        }
        if let Some(filter) = level.filter() {
            trace.filter_blocks += 1;
            if !filter.contains(q) {
                trace.filter_skips += 1;
                continue;
            }
        }
        live_keys[live] = q;
        live_lanes[live] = lane as u32;
        live += 1;
    }
    if live == 0 {
        return GroupPass {
            trace,
            searched: None,
        };
    }
    trace.search_probes = live as u64 * u64::from(level.search_probe_depth());
    let (live_keys, bounds) = (&live_keys[..live], &mut bounds[..live]);
    level.lower_bounds(live_keys, bounds);
    let (keys, values) = (level.keys(), level.values());
    for ((&q, &pos), &lane) in live_keys.iter().zip(bounds.iter()).zip(live_lanes.iter()) {
        if pos < keys.len() && original_key(keys[pos]) == q {
            // A tombstone decides the lane too: the key is deleted.
            answers[lane as usize] = Some(is_regular(keys[pos]).then_some(values[pos]));
        }
    }
    GroupPass {
        trace,
        searched: Some((live_keys[0], bounds[live - 1])),
    }
}

impl GpuLsm {
    /// Look up a batch of keys in parallel.  Returns, for each query key,
    /// `Some(value)` of the most recent insertion if the key is present and
    /// not deleted, `None` otherwise.
    ///
    /// The queries pass through the levels in the callers' order, in
    /// lockstep lane groups (see the module doc); [`GpuLsm::bulk_get`]
    /// answers the same batch identically after sorting it.  Charged per
    /// query: one coalesced block read per filter consulted and the
    /// scattered probes of every search that ran.
    pub fn lookup(&self, queries: &[Key]) -> Vec<Option<Value>> {
        let kernel = "lsm_lookup";
        self.op_activity.record_lookups(queries.len() as u64);
        self.device().metrics().record_launch(kernel);
        self.device().metrics().record_read(
            kernel,
            std::mem::size_of_val(queries) as u64,
            AccessPattern::Coalesced,
        );
        let (results, passes) = self.device().timer().time("lookup", || {
            let levels: Vec<&Level> = self.levels().iter_occupied().map(|(_, l)| l).collect();
            self.resolve_lanes(queries, &levels)
        });
        let mut total = LookupTrace::default();
        for pass in &passes {
            total += pass.trace;
        }
        self.device()
            .metrics()
            .record_block_reads(kernel, total.filter_blocks, BLOCK_BYTES as u64);
        self.device().metrics().record_scattered_probes(
            kernel,
            total.search_probes,
            std::mem::size_of::<Key>() as u64,
        );
        self.record_filter_activity(total.filter_blocks, total.filter_skips);
        results
    }

    /// Resolve `queries` against `levels` (newest first) in lane groups of
    /// `LANE_GROUP`, in parallel over the groups.  Each group makes one
    /// pass per level, a lane decided by a newer level never being
    /// overwritten.  Also returns every pass, group-major
    /// (`passes[group * levels.len() + level]`), for the engine's traffic
    /// accounting.
    fn resolve_lanes(
        &self,
        queries: &[Key],
        levels: &[&Level],
    ) -> (Vec<Option<Value>>, Vec<GroupPass>) {
        let n = queries.len();
        if levels.is_empty() {
            return (vec![None; n], Vec::new());
        }
        let mut answers: Vec<Option<Option<Value>>> = vec![None; n];
        // Scratch for the whole call, cut into one chunk per group.
        let mut live_keys: Vec<Key> = vec![0; n];
        let mut live_lanes: Vec<u32> = vec![0; n];
        let mut bounds: Vec<usize> = vec![0; n];
        let mut passes = vec![GroupPass::default(); n.div_ceil(LANE_GROUP) * levels.len()];
        answers
            .par_chunks_mut(LANE_GROUP)
            .zip(queries.par_chunks(LANE_GROUP))
            .zip(live_keys.par_chunks_mut(LANE_GROUP))
            .zip(live_lanes.par_chunks_mut(LANE_GROUP))
            .zip(bounds.par_chunks_mut(LANE_GROUP))
            .zip(passes.par_chunks_mut(levels.len()))
            .for_each(
                |(((((answers, queries), live_keys), live_lanes), bounds), passes)| {
                    for (level, pass) in levels.iter().zip(passes) {
                        *pass = lane_pass(level, queries, answers, live_keys, live_lanes, bounds);
                    }
                },
            );
        let results = answers.into_iter().map(Option::flatten).collect();
        (results, passes)
    }

    /// Look up a single key with a scalar walk of the levels, usable on its
    /// own for asynchronous individual queries (and the reference the
    /// batch engines are tested against).
    pub fn lookup_one(&self, query: Key) -> Option<Value> {
        let (value, trace) = self.lookup_one_traced(query);
        self.record_filter_activity(trace.filter_blocks, trace.filter_skips);
        value
    }

    /// The traced lookup body: walk levels newest-first, let the first
    /// probe that returns an element decide.
    pub(crate) fn lookup_one_traced(&self, query: Key) -> (Option<Value>, LookupTrace) {
        let mut trace = LookupTrace::default();
        for (_, level) in self.levels().iter_occupied() {
            let probe = level.find(query);
            trace.filter_blocks += u64::from(probe.filter_probed);
            trace.search_probes += u64::from(probe.probes);
            if probe.filter_skipped {
                trace.filter_skips += 1;
                continue;
            }
            if let Some((encoded, value)) = probe.entry {
                let result = if is_regular(encoded) {
                    Some(value)
                } else {
                    None // most recent instance is a tombstone: deleted
                };
                return (result, trace);
            }
        }
        (None, trace)
    }

    /// Whether `key` is currently present (not deleted).
    pub fn contains(&self, key: Key) -> bool {
        self.lookup_one(key).is_some()
    }

    /// Warp-style bulk lookup — the paper's *bulk* alternative (§IV-B) and
    /// its answer to the "PCIe tax" of issuing GPU queries one at a time:
    /// amortise the launch over a large batch and resolve it with *shared*
    /// work per warp-sized group.
    ///
    /// The batch is sorted once, levels disjoint from its key range are
    /// skipped, and groups of 64 neighbouring queries then pass through
    /// each remaining level in lockstep (see the module doc): undecided
    /// lanes test the level's Bloom filter, and the survivors search
    /// together with [`Level::lower_bounds`].  A sorted group that is at
    /// least as dense as the fence samples shares one window found by two
    /// fence descents; a sparser one gives each lane its own fence window.
    ///
    /// The device model charges each group's pass as the GPU would run
    /// it: two scattered fence descents plus a cooperative, coalesced load
    /// of the window from its fence start through the group's last answer
    /// (blocks shared by neighbouring groups charged once), next to one
    /// block read per filter consulted.  Results are bit-identical to
    /// [`GpuLsm::lookup`], in the original query order.
    pub fn bulk_get(&self, queries: &[Key]) -> Vec<Option<Value>> {
        let kernel = "lsm_bulk_get";
        self.op_activity.record_lookups(queries.len() as u64);
        self.device().metrics().record_launch(kernel);
        if queries.is_empty() {
            return Vec::new();
        }
        self.device().timer().time("bulk_get", || {
            // Sort the queries, remembering their original positions.
            let mut sorted_queries: Vec<Key> = queries.to_vec();
            let mut positions: Vec<u32> = (0..queries.len() as u32).collect();
            gpu_primitives::radix_sort::sort_pairs(
                self.device(),
                &mut sorted_queries,
                &mut positions,
            );
            let sorted_results = self.resolve_sorted(kernel, &sorted_queries);
            // Scatter back to the callers' query order.
            let mut results: Vec<Option<Value>> = vec![None; queries.len()];
            for (sorted_idx, &original) in positions.iter().enumerate() {
                results[original as usize] = sorted_results[sorted_idx];
            }
            results
        })
    }

    /// Resolve an already-sorted query batch, returning results in
    /// *sorted* order, and charge its traffic the bulk engine's way (see
    /// [`GpuLsm::bulk_get`]).
    fn resolve_sorted(&self, kernel: &'static str, sorted_queries: &[Key]) -> Vec<Option<Value>> {
        let word = std::mem::size_of::<Key>() as u64;
        let (lo_q, hi_q) = (sorted_queries[0], sorted_queries[sorted_queries.len() - 1]);
        // Fence min/max pruning: a level whose key range is disjoint from
        // the whole (sorted) query range cannot decide anything.
        let levels: Vec<&Level> = self
            .levels()
            .iter_occupied()
            .map(|(_, l)| l)
            .filter(|l| l.max_key() >= lo_q && l.min_key() <= hi_q)
            .collect();
        let (results, passes) = self.resolve_lanes(sorted_queries, &levels);
        let mut filter = LookupTrace::default();
        let mut window_blocks = 0u64;
        let mut fence_descents = 0u64;
        for (li, level) in levels.iter().enumerate() {
            // Group windows ascend with the sorted queries, so a running
            // high-water mark removes the overlap between neighbours.
            let mut charged_through: Option<u64> = None;
            for pass in passes.iter().skip(li).step_by(levels.len()) {
                filter.filter_blocks += pass.trace.filter_blocks;
                filter.filter_skips += pass.trace.filter_skips;
                let Some((first, last_bound)) = pass.searched else {
                    continue;
                };
                fence_descents += 2;
                let win_lo = level.fences().map_or(0, |f| f.lower_bound_window(first).0);
                let touched_hi = win_lo.max((last_bound + 1).min(level.len()));
                let b_lo = win_lo as u64 * word / BLOCK_BYTES as u64;
                let b_hi = (touched_hi.max(win_lo + 1) as u64 * word - 1) / BLOCK_BYTES as u64;
                let from = charged_through.map_or(b_lo, |c| b_lo.max(c + 1));
                if b_hi >= from {
                    window_blocks += b_hi - from + 1;
                }
                charged_through = Some(charged_through.map_or(b_hi, |c| c.max(b_hi)));
            }
        }
        self.device().metrics().record_block_reads(
            kernel,
            filter.filter_blocks + window_blocks,
            BLOCK_BYTES as u64,
        );
        self.device()
            .metrics()
            .record_scattered_probes(kernel, fence_descents, word);
        self.record_filter_activity(filter.filter_blocks, filter.filter_skips);
        results
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpu_sim::{Device, DeviceConfig};

    use super::LANE_GROUP;
    use crate::batch::UpdateBatch;
    use crate::lsm::GpuLsm;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    #[test]
    fn finds_inserted_keys_and_misses_absent_ones() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        let pairs: Vec<(u32, u32)> = (0..8).map(|k| (k * 2, k * 100)).collect();
        lsm.insert(&pairs).unwrap();
        assert_eq!(lsm.lookup(&[0, 2, 14]), vec![Some(0), Some(100), Some(700)]);
        assert_eq!(lsm.lookup(&[1, 3, 99]), vec![None, None, None]);
        assert!(lsm.contains(4));
        assert!(!lsm.contains(5));
    }

    #[test]
    fn most_recent_insertion_wins_across_batches() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 10), (2, 20), (3, 30), (4, 40)]).unwrap();
        lsm.insert(&[(2, 999), (5, 50), (6, 60), (7, 70)]).unwrap();
        assert_eq!(lsm.lookup(&[2]), vec![Some(999)]);
        assert_eq!(lsm.lookup(&[1]), vec![Some(10)]);
    }

    #[test]
    fn deletion_hides_older_insertions() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 10), (2, 20), (3, 30), (4, 40)]).unwrap();
        lsm.delete(&[2, 3]).unwrap();
        assert_eq!(
            lsm.lookup(&[1, 2, 3, 4]),
            vec![Some(10), None, None, Some(40)]
        );
    }

    #[test]
    fn reinsert_after_delete_is_visible() {
        let mut lsm = GpuLsm::new(device(), 2).unwrap();
        lsm.insert(&[(7, 70), (8, 80)]).unwrap();
        lsm.delete(&[7]).unwrap();
        lsm.insert(&[(7, 71)]).unwrap();
        assert_eq!(lsm.lookup(&[7]), vec![Some(71)]);
    }

    #[test]
    fn insert_and_delete_same_batch_resolves_to_deleted() {
        // Semantics rule 6: a key inserted and deleted within the same batch
        // is considered deleted.
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(5, 50).delete(5).insert(6, 60).insert(7, 70);
        lsm.update(&batch).unwrap();
        assert_eq!(lsm.lookup(&[5, 6, 7]), vec![None, Some(60), Some(70)]);
    }

    #[test]
    fn duplicate_keys_in_one_batch_resolve_deterministically() {
        // Semantics rule 4: one of the duplicates is chosen; with a stable
        // sort and first-match lookups it is the first one pushed.
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(9, 1), (9, 2), (9, 3), (9, 4)]).unwrap();
        assert_eq!(lsm.lookup(&[9]), vec![Some(1)]);
    }

    #[test]
    fn lookup_on_empty_lsm_returns_none() {
        let lsm = GpuLsm::new(device(), 4).unwrap();
        assert_eq!(lsm.lookup(&[1, 2, 3]), vec![None, None, None]);
    }

    #[test]
    fn lookup_across_many_batches_and_levels() {
        let mut lsm = GpuLsm::new(device(), 16).unwrap();
        // 9 batches → levels 0 and 3 occupied; keys 0..144.
        for b in 0..9u32 {
            let pairs: Vec<(u32, u32)> = (0..16).map(|i| (b * 16 + i, b * 1000 + i)).collect();
            lsm.insert(&pairs).unwrap();
        }
        let queries: Vec<u32> = (0..144).collect();
        let results = lsm.lookup(&queries);
        for (q, r) in queries.iter().zip(results.iter()) {
            let batch = q / 16;
            let i = q % 16;
            assert_eq!(*r, Some(batch * 1000 + i), "query {q}");
        }
        assert_eq!(lsm.lookup(&[144, 1000]), vec![None, None]);
    }

    #[test]
    fn bulk_lookup_prefilters_with_level_filters() {
        // A bulk-built structure large enough to carry a filter; all-miss
        // needles must be decided by the pre-pass (filter skips recorded)
        // and results must stay identical to the individual path.
        let pairs: Vec<(u32, u32)> = (0..4096u32).map(|k| (k * 4, k)).collect();
        let lsm = GpuLsm::bulk_build(device(), 1 << 12, &pairs).unwrap();
        let queries: Vec<u32> = (0..2048u32).map(|i| i * 8 + 2).collect(); // all absent
        let before = lsm.stats();
        let bulk = lsm.bulk_get(&queries);
        assert_eq!(bulk, lsm.lookup(&queries));
        assert!(bulk.iter().all(Option::is_none));
        let after = lsm.stats();
        if after.filter_bytes > 0 {
            assert!(
                after.filter_probes > before.filter_probes,
                "bulk path must consult the level filters"
            );
            assert!(
                after.filter_skips > before.filter_skips,
                "all-miss needles must be skipped by the pre-pass"
            );
        }
        // Present keys still resolve through the pre-pass.
        let hits: Vec<u32> = (0..512u32).map(|k| k * 8).collect();
        assert_eq!(lsm.bulk_get(&hits), lsm.lookup(&hits));
    }

    #[test]
    fn bulk_sorted_lookup_matches_individual_lookup() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut lsm = GpuLsm::new(device(), 64).unwrap();
        for round in 0..7u32 {
            let mut batch = UpdateBatch::new();
            let mut used = std::collections::HashSet::new();
            while used.len() < 64 {
                let key = rng.gen_range(0..2000u32);
                if !used.insert(key) {
                    continue;
                }
                if rng.gen_bool(0.2) {
                    batch.delete(key);
                } else {
                    batch.insert(key, round * 10_000 + key);
                }
            }
            lsm.update(&batch).unwrap();
        }
        let queries: Vec<u32> = (0..2500).map(|i| (i * 17) % 2600).collect();
        let reference: Vec<Option<u32>> = queries.iter().map(|&q| lsm.lookup_one(q)).collect();
        assert_eq!(lsm.bulk_get(&queries), lsm.lookup(&queries));
        assert_eq!(lsm.lookup(&queries), reference);
        // Empty query set and empty structure are handled.
        assert!(lsm.bulk_get(&[]).is_empty());
        assert!(lsm.lookup(&[]).is_empty());
        let empty = GpuLsm::new(device(), 8).unwrap();
        assert_eq!(empty.bulk_get(&[1, 2]), vec![None, None]);
        assert_eq!(empty.lookup(&[1, 2]), vec![None, None]);
    }

    #[test]
    fn bulk_get_matches_individual_across_group_sizes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let mut lsm = GpuLsm::new(device(), 32).unwrap();
        for round in 0..9u32 {
            let mut batch = UpdateBatch::new();
            let mut used = std::collections::HashSet::new();
            while used.len() < 32 {
                let key = rng.gen_range(0..1200u32);
                if !used.insert(key) {
                    continue;
                }
                if rng.gen_bool(0.25) {
                    batch.delete(key);
                } else {
                    batch.insert(key, round * 10_000 + key);
                }
            }
            lsm.update(&batch).unwrap();
        }
        // Hits, misses, duplicates and out-of-range probes together.
        let mut queries: Vec<u32> = (0..1500).map(|i| (i * 13) % 1400).collect();
        queries.extend([0, 0, 7, 7, 7, 5000]);
        // Batch lengths that cut the queries into lane groups of every
        // boundary size: a single lane, a non-dividing odd width, one lane
        // short of a full group, exactly one group, one lane over, and many
        // groups with a partial last one.
        for len in [
            1,
            3,
            LANE_GROUP - 1,
            LANE_GROUP,
            LANE_GROUP + 1,
            queries.len(),
        ] {
            // Take the tail so the short batches include the duplicates and
            // the out-of-range key.
            let batch = &queries[queries.len() - len..];
            // Both batch engines run the lane kernel; the scalar walk of
            // `lookup_one` is the independent reference for both.
            let reference: Vec<Option<u32>> = batch.iter().map(|&q| lsm.lookup_one(q)).collect();
            assert_eq!(lsm.bulk_get(batch), reference, "bulk_get of {len}");
            assert_eq!(lsm.lookup(batch), reference, "lookup of {len}");
        }
    }

    #[test]
    fn lookup_never_sorts_whatever_the_batch_size() {
        // 127 carry-built batches of 64 keys: seven levels, none long
        // enough for a filter — the shape on which sorting pays soonest.
        let mut lsm = GpuLsm::new(device(), 64).unwrap();
        for b in 0..127u32 {
            let pairs: Vec<(u32, u32)> = (0..64).map(|i| ((i * 127 + b) * 3, b)).collect();
            lsm.insert(&pairs).unwrap();
        }
        assert_eq!(lsm.num_occupied_levels(), 7);
        let launches = |kernel: &str| {
            let snapshot = lsm.device().metrics().snapshot();
            snapshot.get(kernel).map_or(0, |t| t.launches)
        };
        for n in [1u32, 255, 256, 4096, 1 << 15] {
            // Hits and misses scattered over the key range and past it.
            let queries: Vec<u32> = (0..n)
                .map(|i| i.wrapping_mul(2_654_435_761) % 30_000)
                .collect();
            let reference: Vec<Option<u32>> = queries.iter().map(|&q| lsm.lookup_one(q)).collect();
            let (lookups, bulk) = (launches("lsm_lookup"), launches("lsm_bulk_get"));
            assert_eq!(lsm.lookup(&queries), reference, "lookup of {n}");
            assert_eq!(launches("lsm_lookup"), lookups + 1, "lookup of {n}");
            assert_eq!(launches("lsm_bulk_get"), bulk, "lookup of {n} sorted");
            assert_eq!(lsm.bulk_get(&queries), reference, "bulk_get of {n}");
            assert_eq!(launches("lsm_bulk_get"), bulk + 1, "bulk_get of {n}");
            assert_eq!(launches("lsm_lookup"), lookups + 1, "bulk_get of {n}");
        }
    }

    #[test]
    fn bulk_get_charges_coalesced_sweeps() {
        // A single large level with fences: the lane groups must charge
        // their window loads as block reads on the kernel and still answer
        // exactly.
        let pairs: Vec<(u32, u32)> = (0..8192u32).map(|k| (k * 3, k)).collect();
        let lsm = GpuLsm::bulk_build(device(), 1 << 13, &pairs).unwrap();
        let queries: Vec<u32> = (0..4096u32).map(|i| i * 6).collect(); // half hit
        let results = lsm.bulk_get(&queries);
        assert_eq!(results, lsm.lookup(&queries));
        let snapshot = lsm.device().metrics().snapshot();
        let traffic = snapshot
            .get("lsm_bulk_get")
            .expect("bulk_get kernel traffic");
        assert!(
            traffic.coalesced_read_bytes > 0,
            "lane groups must charge coalesced block reads"
        );
        // Empty batches and empty structures short-circuit.
        assert!(lsm.bulk_get(&[]).is_empty());
        let empty = GpuLsm::new(device(), 8).unwrap();
        assert_eq!(empty.bulk_get(&[1, 2]), vec![None, None]);
    }

    #[test]
    fn lookup_records_traffic() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        lsm.insert(&[(1, 1)]).unwrap();
        let _ = lsm.lookup(&[1, 2, 3]);
        assert!(lsm.device().metrics().snapshot().contains_key("lsm_lookup"));

        // The lane engine books exactly what one scalar walk per query
        // books: a block read per filter consulted, the probe depth of
        // every search that ran.  Levels 0, 1 and 3, the larger two with
        // filters; hits, misses and keys past the end.
        let pairs: Vec<(u32, u32)> = (0..11 * 512u32).map(|k| (k * 4, k)).collect();
        let lsm = GpuLsm::bulk_build(device(), 512, &pairs).unwrap();
        let queries: Vec<u32> = (0..3000u32).map(|i| i * 9).collect();
        let mut walk = super::LookupTrace::default();
        for &q in &queries {
            walk += lsm.lookup_one_traced(q).1;
        }
        let traffic = |lsm: &GpuLsm| {
            let snapshot = lsm.device().metrics().snapshot();
            snapshot.get("lsm_lookup").copied().unwrap_or_default()
        };
        let (before, stats_before) = (traffic(&lsm), lsm.stats());
        let _ = lsm.lookup(&queries);
        let (after, stats_after) = (traffic(&lsm), lsm.stats());
        assert_eq!(
            after.scattered_transactions - before.scattered_transactions,
            walk.search_probes
        );
        assert_eq!(
            after.coalesced_read_bytes - before.coalesced_read_bytes,
            4 * queries.len() as u64 + walk.filter_blocks * super::BLOCK_BYTES as u64
        );
        assert_eq!(
            stats_after.filter_skips - stats_before.filter_skips,
            walk.filter_skips
        );
    }
}
