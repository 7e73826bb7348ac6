//! Tests of the substrate's accounting: every LSM operation must leave a
//! faithful trace in the device's traffic metrics and cost model — that accounting is what makes the reproduction's "modelled K40c
//! time" meaningful.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_lsm::{GpuLsm, LsmConfig, MAX_KEY};
use gpu_primitives::filter::DEFAULT_BITS_PER_KEY;
use gpu_primitives::merge::merge_pairs_by;
use gpu_sim::metrics::KernelMetricsSnapshot;
use gpu_sim::{Device, DeviceConfig};
use lsm_workloads::unique_random_pairs;

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

#[test]
fn insertion_records_sort_and_merge_traffic() {
    let dev = device();
    let mut lsm = GpuLsm::new(dev.clone(), 512).unwrap();
    for chunk in unique_random_pairs(4 * 512, 1).chunks(512) {
        lsm.insert(chunk).unwrap();
    }
    let snapshot = dev.metrics().snapshot();
    // The batch sort and the carry-chain merges must both appear.  Batches
    // of 512 are below the radix sort's comparison cutoff, so the sort
    // traffic shows up under the small-sort kernel.
    assert!(
        snapshot.contains_key("radix_small_sort"),
        "missing batch sort traffic"
    );
    assert!(snapshot.contains_key("merge"), "missing merge traffic");
    // Inserting 4 batches triggers 3 carry merges (r: 1, 10, 11, 100).
    assert_eq!(snapshot["merge"].launches, 3);
    // All of this is streaming traffic, so the bandwidth term dominates.
    let est = dev.estimated_time();
    assert!(est.total_seconds > 0.0);
    assert!(est.bandwidth_seconds >= est.latency_seconds);
}

#[test]
fn lookups_are_charged_as_scattered_probes() {
    let dev = device();
    let pairs = unique_random_pairs(8 * 1024, 2);
    let lsm = GpuLsm::bulk_build(dev.clone(), 1024, &pairs).unwrap();
    dev.reset_counters();
    let queries: Vec<u32> = pairs.iter().take(2048).map(|&(k, _)| k).collect();
    let _ = lsm.lookup(&queries);
    let snapshot = dev.metrics().snapshot();
    let lookup = &snapshot["lsm_lookup"];
    assert!(
        lookup.scattered_transactions > 0,
        "lookups must pay random-access probes"
    );
    assert!(lookup.scattered_read_bytes > 0);
    // Probes per query are bounded by levels × log2(level size); the
    // fence-narrowed searches must come in at or under that.
    let max_probes = lsm.worst_case_lookup_probes() as u64 * queries.len() as u64;
    assert!(lookup.scattered_transactions <= max_probes);
}

#[test]
fn filter_probes_are_charged_as_coalesced_block_reads() {
    let dev = device();
    // Bulk-built levels of this size carry Bloom filters; an all-miss
    // batch must be answered mostly by single-block filter reads, with far
    // fewer scattered probes than the unfiltered worst case.
    let pairs = unique_random_pairs(8 * 1024, 7);
    let lsm = GpuLsm::bulk_build(dev.clone(), 1024, &pairs).unwrap();
    let resident: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let misses = lsm_workloads::missing_lookups(&resident, 2048, 8);
    dev.reset_counters();
    let results = lsm.lookup(&misses);
    assert!(results.iter().all(|r| r.is_none()));
    let snapshot = dev.metrics().snapshot();
    let lookup = &snapshot["lsm_lookup"];
    let stats = lsm.stats();
    if stats.filter_bytes > 0 {
        assert!(
            lookup.coalesced_read_bytes >= misses.len() as u64 * 64,
            "each filter consultation is one coalesced cache-line read"
        );
        assert!(stats.filter_probes >= misses.len() as u64);
        assert!(
            stats.filter_skips > 0,
            "misses should be skipped by filters"
        );
        // Only false positives fall through to binary searches.
        let max_probes = lsm.worst_case_lookup_probes() as u64 * misses.len() as u64;
        assert!(
            lookup.scattered_transactions < max_probes / 2,
            "filters must absorb most miss probes: {} vs worst case {}",
            lookup.scattered_transactions,
            max_probes
        );
    }
}

#[test]
fn estimated_device_time_scales_with_problem_size() {
    let dev = device();
    let small = unique_random_pairs(1 << 12, 3);
    let large = unique_random_pairs(1 << 15, 3);
    let _ = GpuLsm::bulk_build(dev.clone(), 1 << 10, &small).unwrap();
    let t_small = dev.estimated_time().total_seconds;
    dev.reset_counters();
    let _ = GpuLsm::bulk_build(dev.clone(), 1 << 10, &large).unwrap();
    let t_large = dev.estimated_time().total_seconds;
    assert!(
        t_large > t_small * 4.0,
        "8x the data should cost clearly more modelled time ({t_small} vs {t_large})"
    );
}

#[test]
fn memory_footprint_follows_the_structure_lifecycle() {
    let pairs = unique_random_pairs(1 << 14, 4);
    let mut lsm = GpuLsm::bulk_build(device(), 1 << 11, &pairs).unwrap();
    let after_build = lsm.memory_bytes();
    assert!(
        after_build >= pairs.len() * 8,
        "keys + values must be resident"
    );
    // Replacing every key doubles the resident data until cleanup.
    for chunk in pairs.chunks(1 << 11) {
        lsm.insert(chunk).unwrap();
    }
    let with_stale = lsm.memory_bytes();
    assert!(
        with_stale >= 2 * after_build - 64,
        "stale copies occupy memory"
    );
    lsm.cleanup();
    let after_cleanup = lsm.memory_bytes();
    assert!(
        after_cleanup < with_stale,
        "cleanup must shrink the footprint"
    );
    assert!(after_cleanup >= pairs.len() * 8);
}

#[test]
fn per_phase_timers_record_the_pipeline_stages() {
    let dev = device();
    // Three batches leave levels 0 and 1 occupied, so the cleanup pass has
    // levels to merge.
    let pairs = unique_random_pairs(3 << 11, 5);
    let mut lsm = GpuLsm::new(dev.clone(), 1 << 11).unwrap();
    for chunk in pairs.chunks(1 << 11) {
        lsm.insert(chunk).unwrap();
    }
    let _ = lsm.lookup(&[1, 2, 3]);
    let _ = lsm.count(&[(0, 1000)]);
    let _ = lsm.range(&[(0, 1000)]);
    lsm.cleanup();
    let phases = dev.timer().snapshot();
    for phase in [
        "insert::sort_batch",
        "insert::merge",
        "lookup",
        "count::gather",
        "count::validate",
        "range::gather",
        "range::validate",
        "cleanup::merge",
        "cleanup::multisplit",
    ] {
        assert!(phases.contains_key(phase), "missing phase timer: {phase}");
        assert!(phases[phase].count > 0);
    }
    assert!(dev.timer().total() > std::time::Duration::ZERO);
}

#[test]
fn cuckoo_and_sorted_array_share_the_same_accounting() {
    use gpu_baselines::{CuckooHashTable, SortedArray};
    let dev = device();
    let pairs = unique_random_pairs(1 << 13, 6);
    let sa = SortedArray::bulk_build(dev.clone(), &pairs);
    let cuckoo = CuckooHashTable::bulk_build(dev.clone(), &pairs);
    dev.reset_counters();
    let queries: Vec<u32> = pairs.iter().map(|&(k, _)| k).take(1024).collect();
    let _ = sa.lookup(&queries);
    let _ = cuckoo.lookup(&queries);
    let snap = dev.metrics().snapshot();
    assert!(snap.contains_key("sa_lookup"));
    assert!(snap.contains_key("cuckoo_lookup"));
    // The sorted array's binary searches probe more than the cuckoo table's
    // constant number of buckets — the very asymmetry Table III measures.
    assert!(
        snap["sa_lookup"].scattered_transactions > snap["cuckoo_lookup"].scattered_transactions,
        "SA probes {} should exceed cuckoo probes {}",
        snap["sa_lookup"].scattered_transactions,
        snap["cuckoo_lookup"].scattered_transactions
    );
}

#[test]
fn count_and_range_book_the_five_stage_pipeline_in_closed_form() {
    let dev = device();
    // A bulk-built level plus carry-built ones, with tombstones, so the
    // intervals meet several levels and gather stale candidates too.
    let pairs = unique_random_pairs(7 * 1024, 12);
    let mut lsm = GpuLsm::bulk_build(dev.clone(), 512, &pairs[..4096]).unwrap();
    for chunk in pairs[4096..].chunks(512) {
        lsm.insert(chunk).unwrap();
    }
    let doomed: Vec<u32> = pairs
        .iter()
        .step_by(13)
        .take(512)
        .map(|&(k, _)| k)
        .collect();
    lsm.delete(&doomed).unwrap();
    assert!(lsm.num_occupied_levels() >= 3);
    let mut intervals: Vec<(u32, u32)> = pairs
        .iter()
        .step_by(61)
        .map(|&(k, _)| (k, k.saturating_add(1 << 22)))
        .collect();
    // An inverted interval and one clamped into the key domain.
    intervals.extend([(10, 5), (MAX_KEY - (1 << 22), u32::MAX)]);

    // The closed forms, from the levels alone: two fence-narrowed
    // searches per intersecting (query, level) pair, and the candidates
    // between the lower bounds of `k1` and of `k2 + 1`.
    let levels: Vec<_> = lsm.levels().iter_occupied().map(|(_, l)| l).collect();
    let (mut probes, mut candidates) = (0u64, 0u64);
    for &(k1, k2) in &intervals {
        let k2 = k2.min(MAX_KEY);
        for level in levels
            .iter()
            .filter(|l| k1 <= k2 && l.interval_intersects(k1, k2))
        {
            probes += 2 * u64::from(level.search_probe_depth());
            candidates += (level.lower_bound(k2 + 1) - level.lower_bound(k1)) as u64;
        }
    }
    assert!(probes > 0 && candidates > 0);
    let (q, l) = (intervals.len() as u64, levels.len() as u64);
    let streamed = |launches: u64, bytes: u64| KernelMetricsSnapshot {
        launches,
        coalesced_read_bytes: bytes,
        coalesced_write_bytes: bytes,
        ..KernelMetricsSnapshot::default()
    };
    // The search kernel: its probes, plus the gather of the candidates'
    // key-value pairs (one scattered read booking, one coalesced store).
    let search = KernelMetricsSnapshot {
        launches: 1,
        coalesced_write_bytes: 8 * candidates,
        scattered_read_bytes: 4 * probes + 8 * candidates,
        scattered_transactions: probes + 1,
        ..KernelMetricsSnapshot::default()
    };

    dev.reset_counters();
    let _ = lsm.count(&intervals);
    let count = dev.metrics().snapshot();
    assert_eq!(count["lsm_count"], search);
    assert_eq!(count["exclusive_scan"], streamed(1, 8 * q * l));
    assert_eq!(count["segmented_sort_pairs"], streamed(1, 8 * candidates));
    assert_eq!(count.len(), 3, "{count:?}");

    dev.reset_counters();
    let result = lsm.range(&intervals);
    let range = dev.metrics().snapshot();
    let valid = result.total_len() as u64;
    assert_eq!(range["lsm_range"], search);
    // Stage 2's scan of the estimates, stage 5's scan of the per-query
    // counts and the compaction's scan of its flags.
    assert_eq!(
        range["exclusive_scan"],
        streamed(3, 8 * q * l + 8 * q + 4 * candidates)
    );
    assert_eq!(range["segmented_sort_pairs"], streamed(1, 8 * candidates));
    let compact = KernelMetricsSnapshot {
        launches: 1,
        coalesced_read_bytes: 8 * candidates,
        coalesced_write_bytes: 8 * valid,
        ..KernelMetricsSnapshot::default()
    };
    assert_eq!(range["compact"], compact);
    assert_eq!(range.len(), 4, "{range:?}");
}

/// Levels of `lsm` that carry a Bloom filter.
fn filtered_levels(lsm: &GpuLsm) -> usize {
    lsm.levels()
        .iter_occupied()
        .filter(|(_, level)| level.filter().is_some())
        .count()
}

#[test]
fn filter_sizing_stays_with_the_structure_that_chose_it() {
    let dev = device();
    // 16 batches of 1024: one bulk-built level of 2^14, filtered exactly
    // when the sizing a config-less constructor resolves is above 0.
    let pairs = unique_random_pairs(1 << 14, 9);
    let bits = LsmConfig::from_env()
        .unwrap()
        .bloom_bits
        .unwrap_or(DEFAULT_BITS_PER_KEY);
    let expected = usize::from(bits > 0);
    let mut before = GpuLsm::bulk_build(dev.clone(), 1024, &pairs).unwrap();
    assert_eq!(filtered_levels(&before), expected);

    // An unfiltered structure in the same process, rebuilt by cleanup at
    // its own sizing...
    let off_config = LsmConfig::default().bloom_bits(0);
    let mut off = GpuLsm::with_config(dev.clone(), 1024, &off_config).unwrap();
    for chunk in pairs.chunks(1024) {
        off.insert(chunk).unwrap();
    }
    off.cleanup();
    assert_eq!(off.num_occupied_levels(), 1);
    assert_eq!(filtered_levels(&off), 0);

    // ...changes neither structures built after it nor rebuilds of the
    // ones built before it.
    let after = GpuLsm::bulk_build(dev.clone(), 1024, &pairs).unwrap();
    assert_eq!(filtered_levels(&after), expected);
    before.cleanup();
    assert_eq!(filtered_levels(&before), expected);
}

/// Per-kernel traffic of one fixed bulk build, insert, lookup, count,
/// range and cleanup sequence, run with the worker pool's cutoff at
/// `cutoff`.
fn traffic_at_pool_cutoff(cutoff: usize) -> (BTreeMap<String, KernelMetricsSnapshot>, f64) {
    rayon::set_sequential_cutoff(cutoff);
    let dev = device();
    let pairs = unique_random_pairs(24 * 1024, 11);
    let (resident, incoming) = pairs.split_at(8 * 1024);
    // Eight resident batches, then sixteen more: carry merges of 2^11 to
    // 2^14 outputs, on both sides of the merge's sequential cutoff.
    let mut lsm = GpuLsm::bulk_build(dev.clone(), 1024, resident).unwrap();
    for chunk in incoming.chunks(1024) {
        lsm.insert(chunk).unwrap();
    }
    let keys: Vec<u32> = pairs.iter().step_by(16).map(|&(k, _)| k).collect();
    let intervals: Vec<(u32, u32)> = keys
        .iter()
        .map(|&k| (k, k.saturating_add(1 << 16)))
        .collect();
    let _ = lsm.lookup(&keys);
    let _ = lsm.bulk_get(&keys);
    let _ = lsm.count(&intervals);
    let _ = lsm.range(&intervals);
    lsm.cleanup();
    let seconds = dev.estimated_time().total_seconds;
    rayon::set_sequential_cutoff(0);
    (dev.metrics().snapshot(), seconds)
}

#[test]
fn modelled_traffic_does_not_depend_on_the_pool_cutoff() {
    let (forced, forced_seconds) = traffic_at_pool_cutoff(1);
    let (inline, inline_seconds) = traffic_at_pool_cutoff(usize::MAX);
    assert!(forced["merge"].scattered_transactions > 0);
    for (kernel, metrics) in &forced {
        assert_eq!(Some(metrics), inline.get(kernel), "kernel {kernel}");
    }
    assert_eq!(forced.len(), inline.len());
    assert_eq!(forced_seconds, inline_seconds);
}

#[test]
fn merges_book_their_split_probes_on_every_host_path() {
    // Up to 4096 elements the merge runs sequentially on the host, above
    // it tile by tile; the device model charges both the same.
    for n in [2048usize, 4096, 4097, 8192] {
        let a_keys: Vec<u32> = (0..n as u32 / 2).map(|k| 2 * k).collect();
        let b_keys: Vec<u32> = (0..(n - n / 2) as u32).map(|k| 2 * k + 1).collect();
        let (a_vals, b_vals) = (a_keys.clone(), b_keys.clone());
        let dev = Device::new(DeviceConfig::small());
        // The merge-path tile for key/value pairs: (⌈n / tile⌉ + 1) splits
        // of one warp-wide search each.
        let tile = dev.preferred_tile(8).max(1024);
        let expected = (n.div_ceil(tile) as u64 + 1) * 32;
        let _ = merge_pairs_by(&dev, &a_keys, &a_vals, &b_keys, &b_vals, |x, y| x < y);
        assert_eq!(
            dev.metrics().snapshot()["merge"].scattered_transactions,
            expected,
            "n = {n}"
        );
    }
}
