//! Cross-structure agreement: the GPU LSM, the sorted-array baseline and the
//! cuckoo hash table must give identical answers on the workloads they all
//! support, since the paper's tables compare their performance on the same
//! query streams.
//!
//! The second half of the file is the *sharded* differential suite: random
//! mixed update/delete/cleanup/query sequences replayed against
//! [`ShardedLsm`] at several shard counts, the plain [`GpuLsm`], and a
//! sequential `BTreeMap` reference model — with `shards = 1` required to be
//! byte-identical to the unsharded structure.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_baselines::{CuckooHashTable, SortedArray};
use gpu_lsm::{GpuLsm, LsmConfig, Op, ShardRouter, ShardedLsm, UpdateBatch, MAX_KEY};
use gpu_sim::{Device, DeviceConfig};
use lsm_workloads::{
    existing_lookups, missing_lookups, range_queries_with_expected_width, unique_random_pairs,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

#[test]
fn all_structures_agree_on_lookups() {
    let pairs = unique_random_pairs(20_000, 31);
    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let lsm = GpuLsm::bulk_build(device(), 1024, &pairs).unwrap();
    let sa = SortedArray::bulk_build(device(), &pairs);
    let cuckoo = CuckooHashTable::bulk_build(device(), &pairs);

    let hits = existing_lookups(&keys, 4000, 1);
    let misses = missing_lookups(&keys, 4000, 2);
    for queries in [&hits, &misses] {
        let from_lsm = lsm.lookup(queries);
        let from_sa = sa.lookup(queries);
        let from_cuckoo = cuckoo.lookup(queries);
        assert_eq!(from_lsm, from_sa);
        assert_eq!(from_lsm, from_cuckoo);
    }
}

#[test]
fn lsm_and_sa_agree_on_counts_and_ranges() {
    let pairs = unique_random_pairs(30_000, 32);
    let lsm = GpuLsm::bulk_build(device(), 2048, &pairs).unwrap();
    let sa = SortedArray::bulk_build(device(), &pairs);

    for expected_width in [4usize, 64, 512] {
        let queries = range_queries_with_expected_width(
            pairs.len(),
            expected_width,
            200,
            expected_width as u64,
        );
        let lsm_counts = lsm.count(&queries);
        let sa_counts = sa.count(&queries);
        assert_eq!(
            lsm_counts, sa_counts,
            "counts disagree at L = {expected_width}"
        );

        let lsm_ranges = lsm.range(&queries);
        let (sa_offsets, sa_keys, sa_values) = sa.range(&queries);
        assert_eq!(lsm_ranges.offsets, sa_offsets);
        assert_eq!(lsm_ranges.keys, sa_keys);
        assert_eq!(lsm_ranges.values, sa_values);
    }
}

#[test]
fn structures_agree_after_equivalent_updates() {
    // Apply the same batches (inserts of fresh keys, then deletions) to the
    // LSM and the sorted array and check the answers stay identical.
    let pairs = unique_random_pairs(8_192, 33);
    let batch = 1024;
    let mut lsm = GpuLsm::new(device(), batch).unwrap();
    let mut sa = SortedArray::new(device());
    for chunk in pairs.chunks(batch) {
        lsm.insert(chunk).unwrap();
        sa.insert_batch(chunk);
    }
    // Delete one in four keys.
    let doomed: Vec<u32> = pairs.iter().step_by(4).map(|&(k, _)| k).collect();
    for chunk in doomed.chunks(batch) {
        lsm.delete(chunk).unwrap();
        sa.delete_batch(chunk);
    }

    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let queries = existing_lookups(&keys, 3000, 3);
    assert_eq!(lsm.lookup(&queries), sa.lookup(&queries));

    let intervals = range_queries_with_expected_width(pairs.len(), 32, 100, 4);
    assert_eq!(lsm.count(&intervals), sa.count(&intervals));

    // Cleanup must not change agreement.
    lsm.cleanup();
    assert_eq!(lsm.lookup(&queries), sa.lookup(&queries));
    assert_eq!(lsm.count(&intervals), sa.count(&intervals));
}

// ---------------------------------------------------------------------------
// Sharded differential suite
// ---------------------------------------------------------------------------

/// Shard counts every differential scenario runs at.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Draw a key that frequently lands on or next to a shard split point (of
/// the largest tested shard count), so ranges and batches straddle shard
/// boundaries constantly instead of almost never (uniform 31-bit keys would
/// hit a boundary with probability ~2⁻²⁸).
fn boundary_biased_key(rng: &mut StdRng, router: &ShardRouter) -> u32 {
    if rng.gen_bool(0.5) {
        // On / just around a split point (split point itself included).
        let splits = router.split_points();
        let s = splits[rng.gen_range(0..splits.len())];
        let delta = rng.gen_range(0..8u32) as i64 - 4;
        (s as i64 + delta).clamp(0, MAX_KEY as i64) as u32
    } else {
        rng.gen_range(0..=MAX_KEY)
    }
}

/// One random mixed batch with distinct keys (distinctness keeps the batch
/// semantics order-independent, so the sequential reference model is exact).
fn random_batch(rng: &mut StdRng, router: &ShardRouter, size: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::with_capacity(size);
    let mut used = std::collections::HashSet::new();
    while used.len() < size {
        let key = boundary_biased_key(rng, router);
        if !used.insert(key) {
            continue;
        }
        if rng.gen_bool(0.3) {
            batch.delete(key);
        } else {
            batch.insert(key, rng.gen::<u32>());
        }
    }
    batch
}

/// Interval queries that straddle shard boundaries: anchored on split
/// points, plus empties, inverted bounds and the full universe.
fn boundary_intervals(rng: &mut StdRng, router: &ShardRouter) -> Vec<(u32, u32)> {
    let splits = router.split_points();
    let mut queries = vec![(0, MAX_KEY), (MAX_KEY, 0), (5, 5)];
    for &s in &splits {
        let w = rng.gen_range(0..1 << 20);
        queries.push((s.saturating_sub(w), s.saturating_add(w).min(MAX_KEY)));
        queries.push((s, s)); // bounds equal to the split point
    }
    queries
}

/// Replay `batches` (with a cleanup after batch `cleanup_after`, if any)
/// against the sharded structures, the plain LSM and the reference model,
/// checking agreement after every batch.
fn check_differential(batches: &[UpdateBatch], cleanup_after: Option<usize>, seed: u64) {
    let device = Arc::new(Device::new(DeviceConfig::small()));
    let batch_size = batches.iter().map(|b| b.len()).max().unwrap_or(1);
    let router = ShardRouter::new(*SHARD_COUNTS.last().unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut plain = GpuLsm::new(device.clone(), batch_size).unwrap();
    let sharded: Vec<ShardedLsm> = SHARD_COUNTS
        .iter()
        .map(|&n| ShardedLsm::new(device.clone(), batch_size, n).unwrap())
        .collect();
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();

    for (i, batch) in batches.iter().enumerate() {
        plain.update(batch).unwrap();
        for s in &sharded {
            s.update(batch).unwrap();
        }
        for op in batch.ops() {
            match *op {
                gpu_lsm::Op::Insert(k, v) => {
                    model.insert(k, v);
                }
                gpu_lsm::Op::Delete(k) => {
                    model.remove(&k);
                }
            }
        }
        if cleanup_after == Some(i) {
            plain.cleanup();
            for s in &sharded {
                s.cleanup();
            }
        }

        // Lookups: every key the batch touched (tombstone-shadowed keys
        // included) plus boundary-biased probes.
        let mut lookups: Vec<u32> = batch.ops().iter().map(|op| op.key()).collect();
        lookups.extend((0..32).map(|_| boundary_biased_key(&mut rng, &router)));
        let expected_lookups: Vec<Option<u32>> =
            lookups.iter().map(|k| model.get(k).copied()).collect();
        let plain_lookups = plain.lookup(&lookups);
        assert_eq!(plain_lookups, expected_lookups, "plain lookup, batch {i}");

        let intervals = boundary_intervals(&mut rng, &router);
        let expected_counts: Vec<u32> = intervals
            .iter()
            .map(|&(lo, hi)| {
                if lo > hi {
                    0
                } else {
                    model.range(lo..=hi).count() as u32
                }
            })
            .collect();
        let plain_counts = plain.count(&intervals);
        assert_eq!(plain_counts, expected_counts, "plain count, batch {i}");
        let plain_ranges = plain.range(&intervals);

        for (s, n) in sharded.iter().zip(SHARD_COUNTS) {
            let got_lookups = s.lookup(&lookups);
            assert_eq!(got_lookups, expected_lookups, "{n}-shard lookup, batch {i}");
            let got_counts = s.count(&intervals);
            assert_eq!(got_counts, expected_counts, "{n}-shard count, batch {i}");
            let got_ranges = s.range(&intervals);
            for (qi, &(lo, hi)) in intervals.iter().enumerate() {
                let expected: Vec<(u32, u32)> = if lo > hi {
                    Vec::new()
                } else {
                    model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
                };
                let got: Vec<(u32, u32)> = got_ranges.iter_query(qi).collect();
                assert_eq!(got, expected, "{n}-shard range query {qi}, batch {i}");
            }
            if n == 1 {
                // The degenerate sharding must be byte-identical to the
                // unsharded structure, offsets included.
                assert_eq!(got_lookups, plain_lookups, "1-shard vs plain, batch {i}");
                assert_eq!(got_counts, plain_counts);
                assert_eq!(got_ranges, plain_ranges);
            }
            s.check_invariants().unwrap();
        }
    }
}

#[test]
fn sharded_differential_10k_operations() {
    // The acceptance-scale run: > 10k mixed operations with continuous
    // boundary-straddling queries, a mid-sequence cleanup, all shard
    // counts, the plain LSM and the reference model in lockstep.
    let router = ShardRouter::new(*SHARD_COUNTS.last().unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let batches: Vec<UpdateBatch> = (0..42)
        .map(|_| random_batch(&mut rng, &router, 256))
        .collect();
    let total_ops: usize = batches.iter().map(|b| b.len()).sum();
    assert!(total_ops >= 10_000, "suite must replay at least 10k ops");
    check_differential(&batches, Some(20), 0xFACE);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised variant: arbitrary batch counts/sizes and cleanup point.
    #[test]
    fn sharded_differential_random_sequences(
        seed in any::<u64>(),
        num_batches in 1usize..8,
        batch_size in 1usize..48,
        cleanup_at in 0usize..9,
    ) {
        let router = ShardRouter::new(*SHARD_COUNTS.last().unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let batches: Vec<UpdateBatch> = (0..num_batches)
            .map(|_| random_batch(&mut rng, &router, batch_size))
            .collect();
        // 8 encodes "no cleanup"; 0..=7 cleans up after that batch.
        let cleanup = (cleanup_at < 8).then_some(cleanup_at);
        check_differential(&batches, cleanup, seed ^ 0x51AB);
    }
}

/// Check the sharded service and the plain LSM against the model on the
/// batch's own keys plus probes/intervals, including full range contents
/// (which also proves reassembled ranges are globally key-ordered, since
/// the `BTreeMap` iteration is).
fn assert_matches_model(
    sharded: &ShardedLsm,
    plain: &GpuLsm,
    model: &BTreeMap<u32, u32>,
    lookups: &[u32],
    intervals: &[(u32, u32)],
    ctx: &str,
) {
    let expected_lookups: Vec<Option<u32>> =
        lookups.iter().map(|k| model.get(k).copied()).collect();
    assert_eq!(
        plain.lookup(lookups),
        expected_lookups,
        "{ctx}: plain lookup"
    );
    assert_eq!(sharded.lookup(lookups), expected_lookups, "{ctx}: lookup");
    let expected_counts: Vec<u32> = intervals
        .iter()
        .map(|&(lo, hi)| {
            if lo > hi {
                0
            } else {
                model.range(lo..=hi).count() as u32
            }
        })
        .collect();
    assert_eq!(sharded.count(intervals), expected_counts, "{ctx}: count");
    let ranges = sharded.range(intervals);
    for (qi, &(lo, hi)) in intervals.iter().enumerate() {
        let expected: Vec<(u32, u32)> = if lo > hi {
            Vec::new()
        } else {
            model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
        };
        let got: Vec<(u32, u32)> = ranges.iter_query(qi).collect();
        assert_eq!(got, expected, "{ctx}: range query {qi}");
    }
}

#[test]
fn sharded_differential_with_rebalancing_mid_sequence() {
    // The rebalancing differential: splits and merges land *between*
    // batches of a live mixed sequence, and no query answer may move —
    // the learned boundaries re-tile the domain but every key keeps
    // exactly one owner holding its visible state.
    let device = Arc::new(Device::new(DeviceConfig::small()));
    let probe_router = ShardRouter::new(8).unwrap();
    let mut rng = StdRng::seed_from_u64(0xBA1A);
    let batch_size = 128;
    let mut plain = GpuLsm::new(device.clone(), batch_size).unwrap();
    let sharded = ShardedLsm::new(device, batch_size, 2).unwrap();
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();
    let mut last_epoch = 0;
    let mut updates = 0u64;

    for i in 0..30 {
        let batch = random_batch(&mut rng, &probe_router, batch_size);
        plain.update(&batch).unwrap();
        sharded.update(&batch).unwrap();
        updates += batch.len() as u64;
        for op in batch.ops() {
            match *op {
                Op::Insert(k, v) => {
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    model.remove(&k);
                }
            }
        }
        if i == 14 {
            plain.cleanup();
            sharded.cleanup();
        }

        // Rebalance mid-sequence: mostly splits (fitted keys), with
        // periodic merges so both directions run against live data.
        if i % 3 == 1 {
            let n = sharded.num_shards();
            if n >= 12 {
                sharded.merge_shards(rng.gen_range(0..n - 1)).unwrap();
            } else {
                // A shard owning a single key is legitimately unsplittable.
                let _ = sharded.split_shard(rng.gen_range(0..n));
            }
        }
        if i % 7 == 6 && sharded.num_shards() > 1 {
            let n = sharded.num_shards();
            sharded.merge_shards(rng.gen_range(0..n - 1)).unwrap();
        }
        assert!(sharded.epoch() >= last_epoch, "epoch must be monotonic");
        last_epoch = sharded.epoch();
        // Splits and merges hand their shards' counters on: none is lost.
        assert_eq!(sharded.stats().update_ops, updates, "batch {i}: update_ops");

        let mut lookups: Vec<u32> = batch.ops().iter().map(|op| op.key()).collect();
        lookups.extend((0..32).map(|_| boundary_biased_key(&mut rng, &probe_router)));
        lookups.extend(sharded.router().split_points());
        let intervals = boundary_intervals(&mut rng, &probe_router);
        assert_matches_model(
            &sharded,
            &plain,
            &model,
            &lookups,
            &intervals,
            &format!("batch {i}"),
        );
        sharded.check_invariants().unwrap();
    }
    let stats = sharded.stats();
    assert!(stats.rebalance_splits >= 3, "suite must actually split");
    assert!(stats.rebalance_merges >= 2, "suite must actually merge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Split-point routing with *arbitrary* valid boundaries: the stable
    /// batch split preserves within-batch op order per shard (so rules 4/6
    /// stay shard-local decisions), every op lands on the shard owning its
    /// key, no op is lost or duplicated — and the full service built on
    /// those boundaries answers exactly like the unsharded structure, with
    /// reassembled ranges globally key-ordered.
    #[test]
    fn learned_router_preserves_order_and_answers(
        seed in any::<u64>(),
        raw_bounds in proptest::collection::vec(1u32..=MAX_KEY, 1..6),
        num_batches in 1usize..5,
        batch_size in 1usize..40,
    ) {
        let mut boundaries = raw_bounds;
        boundaries.sort_unstable();
        boundaries.dedup();
        let router = ShardRouter::learned(boundaries.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let batches: Vec<UpdateBatch> = (0..num_batches)
            .map(|_| random_batch(&mut rng, &router, batch_size))
            .collect();

        // Routing invariants of the split itself.
        for batch in &batches {
            let parts = router.split_updates(batch);
            prop_assert_eq!(parts.len(), router.num_shards());
            let mut total = 0;
            for (s, part) in parts.iter().enumerate() {
                let expected: Vec<Op> = batch
                    .ops()
                    .iter()
                    .copied()
                    .filter(|op| router.shard_of(op.key()) == s)
                    .collect();
                prop_assert_eq!(part.ops(), expected.as_slice());
                total += part.len();
            }
            prop_assert_eq!(total, batch.len());
        }

        // Service-level differential against the plain LSM and the model.
        let device = Arc::new(Device::new(DeviceConfig::small()));
        let service = ShardedLsm::with_router(
            device.clone(),
            batch_size,
            router.clone(),
            LsmConfig::default(),
        )
        .unwrap();
        let mut plain = GpuLsm::new(device, batch_size).unwrap();
        let mut model: BTreeMap<u32, u32> = BTreeMap::new();
        for batch in &batches {
            service.update(batch).unwrap();
            plain.update(batch).unwrap();
            for op in batch.ops() {
                match *op {
                    Op::Insert(k, v) => {
                        model.insert(k, v);
                    }
                    Op::Delete(k) => {
                        model.remove(&k);
                    }
                }
            }
        }
        let mut lookups: Vec<u32> = batches
            .iter()
            .flat_map(|b| b.ops().iter().map(|op| op.key()))
            .collect();
        lookups.extend(boundaries.iter().copied());
        let expected_lookups: Vec<Option<u32>> =
            lookups.iter().map(|k| model.get(k).copied()).collect();
        prop_assert_eq!(service.lookup(&lookups), expected_lookups.clone());
        prop_assert_eq!(plain.lookup(&lookups), expected_lookups);
        let intervals = boundary_intervals(&mut rng, &router);
        prop_assert_eq!(service.count(&intervals), plain.count(&intervals));
        let ranges = service.range(&intervals);
        for (qi, &(lo, hi)) in intervals.iter().enumerate() {
            let expected: Vec<(u32, u32)> = if lo > hi {
                Vec::new()
            } else {
                model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
            };
            let got: Vec<(u32, u32)> = ranges.iter_query(qi).collect();
            prop_assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "range {} not globally key-ordered", qi
            );
            prop_assert_eq!(got, expected, "range query {}", qi);
        }
        service.check_invariants().unwrap();
    }
}

#[test]
fn memory_accounting_is_tracked_for_all_structures() {
    let dev = device();
    let pairs = unique_random_pairs(10_000, 34);
    let lsm = GpuLsm::bulk_build(dev.clone(), 1024, &pairs).unwrap();
    let sa = SortedArray::bulk_build(dev.clone(), &pairs);
    let cuckoo = CuckooHashTable::bulk_build(dev.clone(), &pairs);
    // The LSM and SA store keys + values (8 bytes/element); the cuckoo table
    // stores packed 8-byte slots at 1/load_factor slots per element.
    assert!(lsm.memory_bytes() >= pairs.len() * 8);
    assert!(sa.memory_bytes() >= pairs.len() * 8);
    assert!(cuckoo.memory_bytes() >= pairs.len() * 8);
    assert!(cuckoo.memory_bytes() < pairs.len() * 16);
    // Device-level traffic was recorded for the builds.
    assert!(dev.metrics().total().total_bytes() > 0);
    assert!(dev.estimated_time().total_seconds > 0.0);
}
