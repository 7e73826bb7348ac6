//! Differential suite for pipelined batch admission: the same batch
//! sequence pushed through [`AdmittedLsm`] (queued, coalesced, applied by
//! the background applier) must be indistinguishable, query for query and
//! byte for byte, from applying it synchronously through [`ShardedLsm`] —
//! across mixed insert/delete sequences, shard counts, and both coalescing
//! modes.  With coalescing disabled the *physical* per-shard layout must
//! match too (the applier replays exactly the sub-batches the synchronous
//! path would have applied).

use std::sync::Arc;

use gpu_lsm::{
    AdmissionConfig, AdmittedLsm, GpuLsm, LsmConfig, Op, ShardedLsm, UpdateBatch, MAX_KEY,
};
use gpu_primitives::filter::DEFAULT_BITS_PER_KEY;
use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;

const KEY_DOMAIN: u32 = 50_000;

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

fn config(coalesce: bool, read_your_writes: bool) -> AdmissionConfig {
    AdmissionConfig {
        queue_capacity: 4, // small on purpose: exercises backpressure
        coalesce,
        read_your_writes,
        submit_deadline: None,
        flush_deadline: None,
    }
}

/// Compare every query surface of the admitted and synchronous structures,
/// byte for byte (range results include their offset layout).
fn assert_identical_answers(admitted: &AdmittedLsm, sync: &ShardedLsm) {
    let queries: Vec<u32> = (0..KEY_DOMAIN).step_by(13).chain([0, KEY_DOMAIN]).collect();
    assert_eq!(admitted.lookup(&queries), sync.lookup(&queries));
    let intervals: Vec<(u32, u32)> = vec![
        (0, KEY_DOMAIN / 4),
        (KEY_DOMAIN / 4, KEY_DOMAIN / 2),
        (KEY_DOMAIN / 2, KEY_DOMAIN),
        (0, MAX_KEY),
        (KEY_DOMAIN, 5), // inverted
        (17, 17),
    ];
    assert_eq!(admitted.count(&intervals), sync.count(&intervals));
    assert_eq!(admitted.range(&intervals), sync.range(&intervals));
    let points: Vec<u32> = (0..KEY_DOMAIN).step_by(611).collect();
    assert_eq!(admitted.successor(&points), sync.successor(&points));
    assert_eq!(admitted.predecessor(&points), sync.predecessor(&points));
}

/// A mixed batch with distinct keys, biased toward key collisions across
/// batches so coalescing actually supersedes operations.
fn arb_batch(batch_size: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::btree_map(
        0..KEY_DOMAIN / 16, // narrow domain: heavy cross-batch overlap
        (any::<bool>(), any::<u32>()),
        1..=batch_size,
    )
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

/// A mixed batch over the same narrow domain whose keys repeat *within*
/// the batch: about one op in four re-targets the key of an earlier op, so
/// the batch carries rule-4 (the first insertion wins) and rule-6 (a
/// deletion wins) cases that the coalescer must resolve like the
/// synchronous batch sort.
fn arb_batch_with_repeats(batch_size: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0..KEY_DOMAIN / 16, any::<u8>(), any::<bool>(), any::<u32>()),
        1..=batch_size,
    )
    .prop_map(|draws| {
        let mut keys: Vec<u32> = Vec::with_capacity(draws.len());
        draws
            .into_iter()
            .map(|(fresh, pick, is_delete, v)| {
                let key = match keys.len() {
                    n if n > 0 && pick < 64 => keys[v as usize % n],
                    _ => fresh,
                };
                keys.push(key);
                if is_delete {
                    Op::Delete(key)
                } else {
                    Op::Insert(key, v)
                }
            })
            .collect()
    })
}

fn run_differential(batch_seqs: &[Vec<Op>], shards: usize, coalesce: bool) {
    let batch_size = 64usize;
    let sync = ShardedLsm::new(device(), batch_size, shards).unwrap();
    let admitted = AdmittedLsm::with_config(
        ShardedLsm::new(device(), batch_size, shards).unwrap(),
        config(coalesce, false),
    );
    for ops in batch_seqs {
        let mut batch = UpdateBatch::new();
        for op in ops {
            batch.push(*op);
        }
        sync.update(&batch).unwrap();
        admitted.submit(&batch).unwrap();
    }
    admitted.flush().unwrap();
    assert_identical_answers(&admitted, &sync);
    admitted.check_invariants().unwrap();
    if !coalesce {
        // Replay mode: the physical per-shard layout is byte-identical.
        let a = admitted.stats();
        let s = sync.stats();
        assert_eq!(a.total_elements, s.total_elements);
        for (sa, ss) in a.per_shard.iter().zip(s.per_shard.iter()) {
            assert_eq!(sa.num_batches, ss.num_batches);
            assert_eq!(sa.level_sizes, ss.level_sizes);
            assert_eq!(sa.valid_elements, ss.valid_elements);
            assert_eq!(sa.stale_elements, ss.stale_elements);
        }
    } else {
        // Coalescing may only *reduce* residency, never change validity.
        let a = admitted.stats();
        let s = sync.stats();
        assert_eq!(a.valid_elements, s.valid_elements);
        assert!(a.total_elements <= s.total_elements);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn prop_coalesced_admission_matches_synchronous(
        batch_seqs in proptest::collection::vec(arb_batch_with_repeats(64), 4..16)
    ) {
        for shards in [1usize, 4] {
            run_differential(&batch_seqs, shards, true);
        }
    }

    #[test]
    fn prop_replay_admission_is_byte_identical(
        batch_seqs in proptest::collection::vec(arb_batch(64), 4..12)
    ) {
        for shards in [2usize, 8] {
            run_differential(&batch_seqs, shards, false);
        }
    }

    /// Read-your-writes mode answers like a fully synchronous structure
    /// *without* the test issuing any flush.
    #[test]
    fn prop_read_your_writes_needs_no_flush(
        batch_seqs in proptest::collection::vec(arb_batch_with_repeats(32), 2..8)
    ) {
        let sync = ShardedLsm::new(device(), 32, 2).unwrap();
        let admitted = AdmittedLsm::with_config(
            ShardedLsm::new(device(), 32, 2).unwrap(),
            config(true, true),
        );
        for ops in &batch_seqs {
            let mut batch = UpdateBatch::new();
            for op in ops {
                batch.push(*op);
            }
            sync.update(&batch).unwrap();
            admitted.submit(&batch).unwrap();
            // Point lookups overlay the queues; interval queries drain
            // internally.  Either way: identical answers immediately.
            let probes: Vec<u32> = ops.iter().map(Op::key).chain(0..64).collect();
            prop_assert_eq!(admitted.lookup(&probes), sync.lookup(&probes));
            prop_assert_eq!(
                admitted.count(&[(0, MAX_KEY)]),
                sync.count(&[(0, MAX_KEY)])
            );
        }
        assert_identical_answers(&admitted, &sync);
    }
}

#[test]
fn concurrent_submitters_drain_to_a_consistent_state() {
    // 4 writer threads over disjoint key stripes; the admitted and the
    // synchronous structures must agree on every stripe's final state
    // (per-writer order is preserved by the per-shard FIFO queues).
    let batch_size = 32usize;
    let admitted = AdmittedLsm::with_config(
        ShardedLsm::new(device(), batch_size, 4).unwrap(),
        config(true, false),
    );
    let sync = ShardedLsm::new(device(), batch_size, 4).unwrap();
    std::thread::scope(|scope| {
        for w in 0..4u32 {
            let admitted = admitted.clone();
            scope.spawn(move || {
                for round in 0..24u32 {
                    let mut batch = UpdateBatch::new();
                    for i in 0..batch_size as u32 {
                        let key = w * (1 << 28) + (i % 16);
                        if round % 3 == 2 && i < 8 {
                            batch.delete(key);
                        } else {
                            batch.insert(key, round * 100 + i);
                        }
                    }
                    admitted.submit(&batch).unwrap();
                }
            });
        }
    });
    admitted.flush().unwrap();
    // Replay the same deterministic per-writer streams synchronously (any
    // interleaving of disjoint-stripe writers commutes).
    for w in 0..4u32 {
        for round in 0..24u32 {
            let mut batch = UpdateBatch::new();
            for i in 0..batch_size as u32 {
                let key = w * (1 << 28) + (i % 16);
                if round % 3 == 2 && i < 8 {
                    batch.delete(key);
                } else {
                    batch.insert(key, round * 100 + i);
                }
            }
            sync.update(&batch).unwrap();
        }
    }
    let keys: Vec<u32> = (0..4u32)
        .flat_map(|w| (0..16).map(move |i| w * (1 << 28) + i))
        .collect();
    assert_eq!(admitted.lookup(&keys), sync.lookup(&keys));
    assert_eq!(admitted.count(&[(0, MAX_KEY)]), sync.count(&[(0, MAX_KEY)]));
    admitted.check_invariants().unwrap();
    let stats = admitted.admission_stats();
    assert_eq!(stats.submitted_batches, 96);
    assert_eq!(stats.queued_batches, 0);
    assert!(
        stats.coalesced_batches > 0,
        "sustained traffic must coalesce"
    );
}

/// Config-less constructors take what `LsmConfig::from_env` reads, so the
/// CI jobs that set `LSM_BLOOM_BITS=0` or `LSM_ADMIT_COALESCE=0` really
/// reach the structures they build (and this fails loudly if they stop).
#[test]
fn config_less_constructors_take_the_environment() {
    let env = LsmConfig::from_env().unwrap();
    let bits = env.bloom_bits.unwrap_or(DEFAULT_BITS_PER_KEY);
    // 2^12 keys at b = 1024: one bulk-built level, above the filter minimum.
    let pairs: Vec<(u32, u32)> = (0..1u32 << 12).map(|k| (k * 3, k)).collect();
    let lsm = GpuLsm::bulk_build(device(), 1024, &pairs).unwrap();
    let (_, level) = lsm.levels().iter_occupied().next().unwrap();
    assert_eq!(
        level.filter().is_some(),
        bits > 0,
        "resolved {bits} bits/key"
    );
    let sharded = ShardedLsm::bulk_build(device(), 1024, 1, &pairs).unwrap();
    assert_eq!(sharded.stats().filter_bytes > 0, bits > 0);

    let admitted = AdmittedLsm::new(ShardedLsm::new(device(), 64, 2).unwrap());
    assert_eq!(
        admitted.config().coalesce,
        env.admit_coalesce != Some(false)
    );
    assert_eq!(*admitted.config(), env.admission());
}
