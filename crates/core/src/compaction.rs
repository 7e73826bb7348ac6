//! The carry-chain compaction path, split into a **planner** and an
//! **executor**.
//!
//! Inserting a batch is a binary-counter increment (paper §III-B): the
//! sorted buffer merges with full levels from level 0 upward until an empty
//! level receives the result.  The old write path interleaved the decision
//! ("which level next?") with the data movement and rebuilt every
//! acceleration structure (Bloom filter, fence array) from the full merged
//! key array at the end.  Here the two concerns are separated:
//!
//! * [`CompactionPlan`] computes the whole cascade **before any data
//!   moves**: which levels participate, where the output lands, how big it
//!   will be, and — via the same lifetime-amortization policy the levels
//!   use — whether the output deserves a Bloom filter at all.
//! * The executor runs the planned merges and maintains the output's
//!   acceleration structures **incrementally**:
//!   - the **fence array** of each merge step is produced by merging the
//!     two inputs' sampled keys with exact positions computed from rank
//!     oracles over the pre-merge runs ([`FenceArray::merge_with`]) — no
//!     resampling pass over the merged array — falling back to a rebuild
//!     only when repeated merging has widened the worst-case search window
//!     past [`FENCE_MERGE_MAX_WINDOW`];
//!   - the **Bloom filter** of the final output reuses the consumed level's
//!     filter where one exists, **re-hashing** only the buffer's keys into
//!     a copy of it (half the hashing of a rebuild; the equal-geometry
//!     OR-union [`BloomFilter::try_union`] exists as a primitive, but a
//!     carry buffer never carries its own filter, so re-hash is the
//!     incremental path here), and falls back to a full rebuild when the
//!     level has no filter or the accumulated load would push the
//!     false-positive rate past [`FILTER_MERGE_MIN_EFFECTIVE_BITS`].
//!
//! Every choice is counted in [`crate::stats::MergeCounters`], so the
//! incremental-vs-rebuilt split is observable from [`crate::LsmStats`].

use gpu_primitives::fence::{FenceArray, DEFAULT_FENCE_INTERVAL};
use gpu_primitives::filter::BloomFilter;
use gpu_primitives::merge::{merge_pairs_by, merge_pairs_by_into};
use gpu_primitives::search::upper_bound_by;
use gpu_sim::AccessPattern;

use crate::alloc_scope::MergeScopeGuard;
use crate::arena::Storage;
use crate::key::{key_less, original_key, EncodedKey, Value};
use crate::level::{carry_filter_min_len, Level, LevelSet, FILTER_MIN_LEN};
use crate::lsm::GpuLsm;

/// Widest search window tolerated before a merged fence array is rebuilt
/// from the output: each merge step can add one input's window to the
/// other's, so this caps the degradation at two extra probes per search
/// (`4 × 256`-element windows) while keeping the incremental path on every
/// realistic carry depth.
pub const FENCE_MERGE_MAX_WINDOW: usize = 4 * DEFAULT_FENCE_INTERVAL;

/// Minimum effective bits per key an incrementally merged filter may end up
/// with: unions and re-hashes raise a filter's load instead of its size, so
/// below this the false-positive rate no longer earns the skipped searches
/// and the executor rebuilds at full sizing instead.
pub const FILTER_MERGE_MIN_EFFECTIVE_BITS: f64 = 4.0;

/// The planned merge cascade of one batch insertion, computed from the
/// level occupancy alone — no element is read or moved to produce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionPlan {
    /// Occupied levels the cascade consumes, smallest first (always the
    /// contiguous run `0..target_level`).
    pub participating: Vec<usize>,
    /// The empty level that receives the merged output.
    pub target_level: usize,
    /// Number of elements in the output (`b · 2^target_level`).
    pub output_len: usize,
    /// Whether the output is a carry-chain resident that a future cascade
    /// will consume (true for batch inserts; bulk rebuilds are long-lived).
    pub transient: bool,
    /// Whether the output should carry a Bloom filter, per the lifetime
    /// policy of [`crate::level`] — decided here so the executor knows
    /// before the final merge whether to maintain one incrementally.
    pub build_filter: bool,
}

impl CompactionPlan {
    /// Plan the cascade for inserting one batch into `levels`: the
    /// participating levels are the occupied prefix (the trailing set bits
    /// of the batch counter), the target is the first empty level.  The
    /// output gets a filter only when the structure's filter sizing
    /// `bloom_bits` is above 0.
    pub fn for_insert(levels: &LevelSet, batch_size: usize, bloom_bits: u32) -> Self {
        let mut target = 0usize;
        while levels.is_full(target) {
            target += 1;
        }
        let output_len = batch_size << target;
        let min_len = carry_filter_min_len();
        CompactionPlan {
            participating: (0..target).collect(),
            target_level: target,
            output_len,
            transient: true,
            build_filter: bloom_bits > 0 && output_len >= min_len,
        }
    }

    /// Number of merge steps the executor will run.
    pub fn merge_steps(&self) -> usize {
        self.participating.len()
    }

    /// Total elements the cascade's merges read and write (the carry cost
    /// the plan exists to expose before paying it).
    pub fn merged_elements(&self, batch_size: usize) -> usize {
        self.participating
            .iter()
            .map(|&i| 2 * (batch_size << i))
            .sum()
    }
}

impl GpuLsm {
    /// The cascade the *next* batch insertion will run — observability into
    /// the planner without moving any data.
    pub fn plan_next_insert(&self) -> CompactionPlan {
        CompactionPlan::for_insert(&self.levels, self.batch_size(), self.bloom_bits)
    }

    /// The carry chain: plan the cascade, execute it, place the output.
    pub(crate) fn push_sorted_buffer(&mut self, keys: Vec<EncodedKey>, values: Vec<Value>) {
        let plan = self.plan_next_insert();
        let level = self.execute_plan(&plan, keys, values);
        self.levels.place(plan.target_level, level);
        self.num_batches += 1;
    }

    /// Run a planned cascade: merge the sorted buffer with each
    /// participating level in order, maintaining fences across every step
    /// and the filter across the final one, then assemble the output level.
    ///
    /// With the slab arena enabled, every step merges **into a pre-reserved
    /// arena region** instead of a fresh vector: the consumed level's
    /// region and the previous intermediate's region return to the arena
    /// free list as the chain climbs, so after one warm-up cascade per
    /// level the merge inner loop performs no heap allocation at all (the
    /// double-buffering of §III-A; asserted by the counting-allocator
    /// test via [`crate::alloc_scope`]).
    fn execute_plan(
        &mut self,
        plan: &CompactionPlan,
        keys: Vec<EncodedKey>,
        values: Vec<Value>,
    ) -> Level {
        // The buffer's fences: one cheap sampling pass over the sorted
        // batch, merged (not rebuilt) at every subsequent step.
        let mut fences = FenceArray::build_with(keys.len(), DEFAULT_FENCE_INTERVAL, |i| {
            original_key(keys[i])
        });
        let mut filter: Option<BloomFilter> = None;
        let mut keys: Storage = keys.into();
        let mut values: Storage = values.into();

        let steps = plan.merge_steps();
        for (step, &i) in plan.participating.iter().enumerate() {
            let level = self.levels.take(i).expect("planned level is occupied");
            self.merge_activity.record_carry_step();

            // Incremental aux maintenance needs the *pre-merge* runs, so it
            // runs before the data merge consumes them.
            let merged_fences = self.merge_fences(fences.as_ref(), &level, &keys);
            // Only the final step's output survives (intermediates are
            // consumed by the next step), so the filter — whose maintenance
            // costs hashing, unlike the fences — is produced exactly once.
            if step + 1 == steps && plan.build_filter {
                filter = self.merge_filters(&level, &keys);
            }

            // Merge comparing original keys only (status bit ignored), with
            // the more recent buffer as the first argument so it wins ties
            // and the §III-D ordering invariants hold.
            match &self.arena {
                Some(arena) => {
                    let out_len = keys.len() + level.len();
                    let (out_keys, out_values) =
                        self.device().timer().time("insert::merge", || {
                            let _scope = MergeScopeGuard::enter();
                            let mut out_keys = arena.reserve(out_len);
                            let mut out_values = arena.reserve(out_len);
                            merge_pairs_by_into(
                                self.device(),
                                &keys,
                                &values,
                                level.keys(),
                                level.values(),
                                out_keys.as_mut_slice(),
                                out_values.as_mut_slice(),
                                key_less,
                            );
                            (out_keys, out_values)
                        });
                    // Recycle the consumed level's region before the old
                    // intermediate's: the replaced `keys`/`values` drop
                    // right after.
                    drop(level);
                    let old_keys = std::mem::replace(&mut keys, out_keys.into());
                    let old_values = std::mem::replace(&mut values, out_values.into());
                    if step == 0 {
                        self.reclaim_encode_scratch(old_keys, old_values);
                    }
                }
                None => {
                    let (level_keys, level_values) = level.into_parts();
                    let (merged_keys, merged_values) =
                        self.device().timer().time("insert::merge", || {
                            merge_pairs_by(
                                self.device(),
                                &keys,
                                &values,
                                &level_keys,
                                &level_values,
                                key_less,
                            )
                        });
                    let old_keys = std::mem::replace(&mut keys, merged_keys.into());
                    let old_values = std::mem::replace(&mut values, merged_values.into());
                    if step == 0 {
                        self.reclaim_encode_scratch(old_keys, old_values);
                    }
                }
            }

            // Accept the merged fences unless repeated merging widened the
            // worst-case window past tolerance; the rebuild resamples the
            // freshly merged array (an O(len / interval) pass).
            fences = match merged_fences {
                Some(f) if f.max_window() <= FENCE_MERGE_MAX_WINDOW => {
                    self.merge_activity.record_fence(true);
                    Some(f)
                }
                _ => {
                    self.merge_activity.record_fence(false);
                    self.record_fence_rebuild(keys.len());
                    FenceArray::build_with(keys.len(), DEFAULT_FENCE_INTERVAL, |i| {
                        original_key(keys[i])
                    })
                }
            };
        }

        // Filter fallback: the policy wants one but no input could seed it
        // incrementally (or the incremental result was refused) — build at
        // full sizing from the output keys, like the old write path always
        // did.
        if plan.build_filter && filter.is_none() {
            filter = BloomFilter::build(keys.iter().map(|&k| original_key(k)), self.bloom_bits);
            if filter.is_some() {
                self.merge_activity.record_filter_rebuild();
                self.record_filter_build(keys.len(), filter.as_ref());
            }
        }

        Level::from_sorted_with_aux(keys, values, filter, fences)
    }

    /// Hand the batch-encode buffers the first merge step just consumed
    /// back to [`GpuLsm::update`]'s scratch, so the next encode reuses the
    /// allocation (arena-backed intermediates fall through untouched).
    fn reclaim_encode_scratch(&mut self, keys: Storage, values: Storage) {
        if let (Storage::Owned(k), Storage::Owned(v)) = (keys, values) {
            self.encode_scratch = (k, v);
        }
    }

    /// Merge the buffer's fences with a consumed level's, translating both
    /// sample sets into exact output positions via rank oracles over the
    /// pre-merge runs (the level's own fence-narrowed searches on its side,
    /// plain binary searches over the buffer on the other).
    ///
    /// Returns `None` when either side has no fences (empty inputs only —
    /// the caller then rebuilds).
    fn merge_fences(
        &self,
        buffer_fences: Option<&FenceArray>,
        level: &Level,
        buffer_keys: &[EncodedKey],
    ) -> Option<FenceArray> {
        let fa = buffer_fences?;
        let fb = level.fences()?;
        let merged = FenceArray::merge_with(
            fa,
            fb,
            |k| level.lower_bound(k),
            |k| upper_bound_by(buffer_keys, &((k << 1) | 1), |a, b| (a >> 1) < (b >> 1)),
        );
        // Traffic of the incremental path: stream both sample arrays, pay
        // one narrowed search per sample for the rank oracles, write the
        // merged samples.
        let kernel = "lsm_fence_merge";
        let metrics = self.device().metrics();
        let samples = (fa.num_samples() + fb.num_samples()) as u64;
        metrics.record_launch(kernel);
        metrics.record_read(kernel, samples * 8, AccessPattern::Coalesced);
        metrics.record_scattered_probes(
            kernel,
            samples * u64::from(level.search_probe_depth().max(1)),
            std::mem::size_of::<EncodedKey>() as u64,
        );
        metrics.record_write(kernel, merged.size_bytes() as u64, AccessPattern::Coalesced);
        Some(merged)
    }

    /// Produce the output's filter from the final merge step's inputs: a
    /// one-sided **re-hash** of only the buffer's keys into a copy of the
    /// consumed level's filter — half the hashing of a rebuild.  The
    /// buffer side never carries a filter of its own (intermediate carry
    /// outputs are consumed before any query sees them), which is also why
    /// the equal-geometry OR-union ([`BloomFilter::try_union`]) is a
    /// primitive for bulk-side callers rather than a carry-chain path.
    /// Returns `None` — caller rebuilds — when the level has no filter or
    /// the re-hashed load would fall under
    /// [`FILTER_MERGE_MIN_EFFECTIVE_BITS`].
    fn merge_filters(&self, level: &Level, buffer_keys: &[EncodedKey]) -> Option<BloomFilter> {
        let fl = level.filter()?;
        let grown = fl.with_keys_inserted(buffer_keys.iter().map(|&k| original_key(k)));
        if grown.effective_bits_per_key() < FILTER_MERGE_MIN_EFFECTIVE_BITS {
            return None;
        }
        self.merge_activity.record_filter_rehash();
        self.record_filter_build(buffer_keys.len(), Some(&grown));
        Some(grown)
    }

    // ------------------------------------------------------------------
    // Traffic accounting for the incremental/fallback aux paths
    // ------------------------------------------------------------------

    /// A fence rebuild streams the merged keys once (sampled read) and
    /// writes the fresh samples.
    fn record_fence_rebuild(&self, len: usize) {
        let kernel = "lsm_accel_build";
        let metrics = self.device().metrics();
        metrics.record_launch(kernel);
        metrics.record_read(
            kernel,
            (len * std::mem::size_of::<EncodedKey>()) as u64,
            AccessPattern::Coalesced,
        );
    }

    /// A filter build / re-hash reads `hashed` keys and writes the filter.
    fn record_filter_build(&self, hashed: usize, filter: Option<&BloomFilter>) {
        let kernel = "lsm_accel_build";
        let metrics = self.device().metrics();
        metrics.record_launch(kernel);
        metrics.record_read(
            kernel,
            (hashed * std::mem::size_of::<EncodedKey>()) as u64,
            AccessPattern::Coalesced,
        );
        if let Some(f) = filter {
            metrics.record_write(kernel, f.size_bytes() as u64, AccessPattern::Coalesced);
        }
    }
}

/// The long-lived (bulk rebuild) filter threshold, re-exported for plan
/// consumers that compare the two policies.
pub const BULK_FILTER_MIN_LEN: usize = FILTER_MIN_LEN;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpu_sim::{Device, DeviceConfig};

    use crate::lsm::GpuLsm;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    #[test]
    fn planner_follows_binary_counter() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        // Empty structure: no merges, land at level 0.
        let plan = lsm.plan_next_insert();
        assert_eq!(plan.target_level, 0);
        assert!(plan.participating.is_empty());
        assert_eq!(plan.merge_steps(), 0);
        assert_eq!(plan.output_len, 4);
        assert!(plan.transient);

        for b in 0..7u32 {
            let pairs: Vec<(u32, u32)> = (0..4).map(|i| (b * 8 + i, i)).collect();
            let plan = lsm.plan_next_insert();
            // The cascade consumes the trailing set bits of r.
            let r = lsm.num_batches();
            let expected_target = (!r).trailing_zeros() as usize;
            assert_eq!(plan.target_level, expected_target, "r = {r}");
            assert_eq!(plan.participating, (0..expected_target).collect::<Vec<_>>());
            assert_eq!(plan.output_len, 4 << expected_target);
            assert_eq!(
                plan.merged_elements(4),
                (0..expected_target).map(|i| 2 * (4 << i)).sum::<usize>()
            );
            lsm.insert(&pairs).unwrap();
            // The executor placed the output exactly where planned.
            assert!(lsm.levels.is_full(plan.target_level));
        }
    }

    #[test]
    fn executor_counts_carry_steps_and_fence_merges() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        for b in 0..8u32 {
            let pairs: Vec<(u32, u32)> = (0..8).map(|i| (b * 64 + i * 3, i)).collect();
            lsm.insert(&pairs).unwrap();
        }
        // 8 batches: carries at r=2 (1 step), r=4 (2 steps), r=6 (1 step),
        // r=8 (3 steps) — 7 merge steps in total.
        let merges = lsm.stats().merges;
        assert_eq!(merges.carry_merge_steps, 7);
        assert_eq!(merges.fence_merges + merges.fence_rebuilds, 7);
        // Shallow carries at the default interval never exceed the window
        // guard, so every fence was merged incrementally.
        assert_eq!(merges.fence_merges, 7);
    }
}
