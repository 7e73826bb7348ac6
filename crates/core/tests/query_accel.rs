//! Differential suite for the query-acceleration subsystem: a structure
//! built with Bloom filters disabled (`bloom_bits(0)`) and one built with
//! filters enabled must return **byte-identical** answers to every query on
//! every workload — filters and fences are conservative accelerators, never
//! semantics.
//!
//! Filter sizing is per instance, so the two structures live side by side
//! with their own configs, whatever `LSM_BLOOM_BITS` says.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_lsm::{GpuLsm, LsmConfig, Op, ShardedLsm, UpdateBatch, MAX_KEY};
use gpu_primitives::filter::DEFAULT_BITS_PER_KEY;
use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

/// Filters disabled for the structure built with this config.
fn filters_off() -> LsmConfig {
    LsmConfig::default().bloom_bits(0)
}

/// Filters at the default sizing for the structure built with this config,
/// independent of the `LSM_BLOOM_BITS` environment (the CI filters-off job
/// still exercises the enabled side here).
fn filters_on() -> LsmConfig {
    LsmConfig::default().bloom_bits(DEFAULT_BITS_PER_KEY)
}

/// Compare every query surface of two structures that must hold identical
/// data: individual and bulk lookups, counts, ranges (full layout,
/// offsets included) and order queries.
fn assert_identical_answers(off: &GpuLsm, on: &GpuLsm, key_domain: u32) {
    let queries: Vec<u32> = (0..key_domain).step_by(3).chain([0, key_domain]).collect();
    assert_eq!(off.lookup(&queries), on.lookup(&queries));
    assert_eq!(off.bulk_get(&queries), on.bulk_get(&queries));
    let intervals: Vec<(u32, u32)> = vec![
        (0, key_domain / 4),
        (key_domain / 4, key_domain / 2),
        (key_domain / 2, key_domain),
        (0, MAX_KEY),
        (key_domain, 5), // inverted
        (7, 7),
    ];
    assert_eq!(off.count(&intervals), on.count(&intervals));
    assert_eq!(off.range(&intervals), on.range(&intervals));
    let points: Vec<u32> = (0..key_domain).step_by(17).collect();
    assert_eq!(off.successor(&points), on.successor(&points));
    assert_eq!(off.predecessor(&points), on.predecessor(&points));
}

/// A batch of operations with distinct keys, generated by proptest.
fn arb_batch(batch_size: usize, key_domain: u32) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::btree_map(0..key_domain, (any::<bool>(), any::<u32>()), 1..=batch_size)
        .prop_map(|m| {
            m.into_iter()
                .map(|(k, (is_delete, v))| {
                    if is_delete {
                        Op::Delete(k)
                    } else {
                        Op::Insert(k, v)
                    }
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mixed insert/delete sequences applied batch-by-batch to a
    /// filters-off and a filters-on structure: every query answer and the
    /// reference model must agree after every batch.
    #[test]
    fn filters_on_and_off_are_byte_identical(
        batches in proptest::collection::vec(arb_batch(48, 600), 1..8)
    ) {
        let batch_size = 48;
        let mut off = GpuLsm::with_config(device(), batch_size, &filters_off()).unwrap();
        let mut on = GpuLsm::with_config(device(), batch_size, &filters_on()).unwrap();
        let mut reference: BTreeMap<u32, u32> = BTreeMap::new();

        for ops in &batches {
            let mut batch = UpdateBatch::new();
            for op in ops {
                batch.push(*op);
                match op {
                    Op::Insert(k, v) => { reference.insert(*k, *v); }
                    Op::Delete(k) => { reference.remove(k); }
                }
            }
            off.update(&batch).unwrap();
            on.update(&batch).unwrap();
            assert_identical_answers(&off, &on, 600);
        }

        // Spot-check against the reference model so "identical" can never
        // mean "identically wrong".
        let queries: Vec<u32> = (0..600).collect();
        let results = on.lookup(&queries);
        for (q, got) in queries.iter().zip(results.iter()) {
            prop_assert_eq!(*got, reference.get(q).copied(), "lookup({})", q);
        }
        on.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
        off.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}

#[test]
fn bulk_build_and_cleanup_paths_are_differentially_identical() {
    // 3000 pairs at b = 512 → 6 batches → levels 1 (1024) and 2 (2048),
    // both above the long-lived filter threshold, so the filters-on side
    // really carries filters here.
    let pairs: Vec<(u32, u32)> = (0..3000u32).map(|k| (k * 7 % 5000, k)).collect();
    let mut off = GpuLsm::bulk_build_with_config(device(), 512, &pairs, &filters_off()).unwrap();
    let mut on = GpuLsm::bulk_build_with_config(device(), 512, &pairs, &filters_on()).unwrap();
    assert!(
        on.stats().filter_bytes > 0,
        "bulk-built levels must carry filters when enabled"
    );
    assert_eq!(off.stats().filter_bytes, 0);
    assert_identical_answers(&off, &on, 5000);

    // Delete a stripe, then cleanup (the other filter-building rebuild
    // path); answers must stay identical through both.
    let doomed: Vec<u32> = (0..512u32).map(|i| i * 9 % 5000).collect();
    off.delete(&doomed).unwrap();
    on.delete(&doomed).unwrap();
    assert_identical_answers(&off, &on, 5000);
    off.cleanup();
    on.cleanup();
    assert_identical_answers(&off, &on, 5000);
    on.check_invariants().unwrap();
    // Cleanup rebuilt both sides at their own sizing.
    assert_eq!(off.stats().filter_bytes, 0);
    assert!(on.stats().filter_bytes > 0);

    // The filters-on side actually consulted (and skipped with) its
    // filters during the miss-heavy query batches above.
    let stats = on.stats();
    assert!(stats.filter_probes > 0, "filters were never consulted");
    assert!(stats.filter_skips > 0, "filters never skipped a level");
    assert!(stats.fence_bytes > 0, "fences exist on both sides");
}

#[test]
fn sharded_service_is_differentially_identical() {
    let pairs: Vec<(u32, u32)> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) & 0x7FFF_FFFF, i))
        .collect();
    let off = ShardedLsm::bulk_build_with_config(device(), 512, 4, &pairs, filters_off()).unwrap();
    let on = ShardedLsm::bulk_build_with_config(device(), 512, 4, &pairs, filters_on()).unwrap();
    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).chain(0..100).collect();
    assert_eq!(off.lookup(&keys), on.lookup(&keys));
    let intervals: Vec<(u32, u32)> = (0..16)
        .map(|i| (i * (MAX_KEY / 16), (i + 1) * (MAX_KEY / 16)))
        .collect();
    assert_eq!(off.count(&intervals), on.count(&intervals));
    assert_eq!(off.range(&intervals), on.range(&intervals));
    let probes: Vec<u32> = (0..8).map(|i| i * (MAX_KEY / 8) + 13).collect();
    assert_eq!(off.successor(&probes), on.successor(&probes));
    assert_eq!(off.predecessor(&probes), on.predecessor(&probes));
    assert!(on.stats().filter_bytes > 0);
    assert_eq!(off.stats().filter_bytes, 0);
    on.check_invariants().unwrap();
}
