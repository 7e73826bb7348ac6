//! Deterministic IO fault injection over the durability pipeline.
//!
//! Every test threads a [`FaultVfs`] — scripted or seeded — under a
//! WAL-enabled [`AdmittedLsm`] and differentially compares the surviving
//! state against a `BTreeMap` model:
//!
//! * transient faults (including torn short-writes) must be retried away
//!   invisibly — same answers, same recovery, only the retry counters move;
//! * permanent fsync failure under [`DegradeMode::DegradeToVolatile`] must
//!   keep admitting in memory, raise the sticky degraded flag, and recover
//!   byte-for-byte the model truncated at the last durable batch;
//! * the same failure under [`DegradeMode::FailStop`] must surface a typed
//!   error from `submit` instead;
//! * a flush barrier whose snapshot fails under fail-stop must keep every
//!   record acknowledged after it recoverable;
//! * a seeded fault sweep must always recover *some* exact batch prefix —
//!   never a torn half-batch, never reordered state;
//! * garbage-collection failures must be counted and surfaced, not
//!   swallowed.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpu_lsm::{
    AdmittedLsm, DegradeMode, DurabilityConfig, Fault, FaultOp, FaultVfs, LsmConfig, LsmError, Op,
    RetryPolicy, UpdateBatch, MAX_KEY,
};
use gpu_sim::{Device, DeviceConfig};

const BATCH_SIZE: usize = 32;
/// Narrow key domain so the differential dump below stays cheap.
const KEY_DOMAIN: u32 = 512;

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gpu-lsm-faults-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable config running on the given (possibly faulty) VFS.
fn config_on(dir: &Path, fault: &FaultVfs, durability: DurabilityConfig) -> LsmConfig {
    let _ = dir;
    LsmConfig::default().durability(durability.vfs(Arc::new(fault.clone())))
}

/// A durable config on the real filesystem (clean reopen after faults).
fn clean_config(dir: &Path) -> LsmConfig {
    LsmConfig::default().durability(DurabilityConfig::new(dir).fsync_interval(4))
}

/// xorshift64*: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_batch(rng: &mut Rng) -> UpdateBatch {
    let ops = 1 + rng.below(BATCH_SIZE as u64 - 1) as usize;
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let key = rng.below(KEY_DOMAIN as u64) as u32;
        if rng.below(4) == 0 {
            batch.delete(key);
        } else {
            batch.insert(key, (rng.next() & 0xFFFF) as u32);
        }
    }
    batch
}

/// Apply one batch under the structure's semantics (per key: a deletion
/// shadows the batch's insertions, else the first insertion wins).
fn apply_to_model(model: &mut BTreeMap<u32, u32>, batch: &UpdateBatch) {
    let mut decision: HashMap<u32, Option<u32>> = HashMap::new();
    for op in batch.ops() {
        match op {
            Op::Insert(k, v) => {
                decision.entry(*k).or_insert(Some(*v));
            }
            Op::Delete(k) => {
                decision.insert(*k, None);
            }
        }
    }
    for (k, d) in decision {
        match d {
            Some(v) => {
                model.insert(k, v);
            }
            None => {
                model.remove(&k);
            }
        }
    }
}

/// Full dump of the structure over the key domain — the differential unit
/// the prefix checks compare on.
fn dump(lsm: &AdmittedLsm) -> Vec<Option<u32>> {
    let keys: Vec<u32> = (0..KEY_DOMAIN).collect();
    lsm.lookup(&keys)
}

fn dump_of_model(model: &BTreeMap<u32, u32>) -> Vec<Option<u32>> {
    (0..KEY_DOMAIN).map(|k| model.get(&k).copied()).collect()
}

fn assert_state(lsm: &AdmittedLsm, model: &BTreeMap<u32, u32>, what: &str) {
    assert_eq!(dump(lsm), dump_of_model(model), "{what}");
    assert_eq!(
        lsm.count(&[(0, MAX_KEY)]),
        vec![model.len() as u32],
        "{what}: total count"
    );
}

#[test]
fn transient_faults_are_retried_invisibly() {
    let dir = temp_dir("transient");
    // Three distinct transient failures on the WAL hot path: a flaky
    // append, a torn short-write (partial frame must be rolled back, then
    // rewritten whole), and a flaky fsync.
    let fault = FaultVfs::scripted(vec![
        Fault::transient(FaultOp::Append, 2, io::ErrorKind::Interrupted),
        Fault::short_write(FaultOp::Append, 5, 7),
        Fault::transient(FaultOp::Sync, 1, io::ErrorKind::Other),
    ]);
    let cfg = config_on(&dir, &fault, DurabilityConfig::new(&dir).fsync_interval(2));
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, cfg).unwrap();

    let mut rng = Rng::new(0xFA);
    let mut model = BTreeMap::new();
    for _ in 0..8 {
        let batch = random_batch(&mut rng);
        lsm.submit(&batch).unwrap(); // every fault is absorbed by a retry
        apply_to_model(&mut model, &batch);
    }
    lsm.flush().unwrap();
    assert_state(&lsm, &model, "live state under transient faults");

    let stats = lsm.durability_stats().unwrap();
    assert_eq!(stats.wal_records, 8, "no record lost or double-logged");
    assert!(stats.wal_retries >= 3, "retries: {}", stats.wal_retries);
    assert!(!stats.degraded);
    assert_eq!(fault.injected_faults(), 3, "whole script consumed");
    drop(lsm);

    // The log the retries left behind recovers like a clean one.
    let (lsm, report) =
        AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, clean_config(&dir)).unwrap();
    assert_eq!(report.torn_bytes, 0);
    assert!(!report.prior_degraded);
    assert_state(&lsm, &model, "recovered state under transient faults");
    lsm.check_invariants().unwrap();
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

/// Batches durable before the permanent fsync failure strikes (0-based
/// Sync occurrence; `fsync_interval = 1` makes occurrence i = batch i).
const DURABLE_PREFIX: usize = 3;

fn permanent_fsync_script() -> Vec<Fault> {
    vec![Fault::permanent(
        FaultOp::Sync,
        DURABLE_PREFIX as u64,
        io::ErrorKind::Other,
    )]
}

#[test]
fn permanent_fsync_failure_degrades_to_volatile_and_prefix_recovers() {
    let dir = temp_dir("degrade");
    let fault = FaultVfs::scripted(permanent_fsync_script());
    let cfg = config_on(
        &dir,
        &fault,
        DurabilityConfig::new(&dir)
            .fsync_interval(1)
            .retry(RetryPolicy::none())
            .degrade(DegradeMode::DegradeToVolatile),
    );
    let (lsm, report) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, cfg).unwrap();
    assert!(!report.prior_degraded);

    let mut rng = Rng::new(0xDE);
    let mut full = BTreeMap::new();
    let mut prefix = BTreeMap::new();
    for i in 0..6 {
        let batch = random_batch(&mut rng);
        // The storage dies at batch DURABLE_PREFIX, but admission carries
        // on: every submit succeeds.
        lsm.submit(&batch).unwrap();
        apply_to_model(&mut full, &batch);
        if i < DURABLE_PREFIX {
            apply_to_model(&mut prefix, &batch);
        }
    }
    lsm.flush().unwrap(); // degraded: drains, but never snapshots

    let stats = lsm.durability_stats().unwrap();
    assert!(stats.degraded, "sticky flag raised");
    assert!(lsm.stats().durability_degraded, "surfaced in ShardedStats");
    assert_eq!(stats.wal_records, DURABLE_PREFIX as u64, "sealed boundary");
    assert_eq!(stats.snapshots, 0, "no snapshot of unlogged state");
    assert_state(&lsm, &full, "degraded service still serves everything");
    lsm.check_invariants().unwrap();
    drop(lsm);
    assert!(
        dir.join("DEGRADED").exists(),
        "marker left for the next recovery"
    );

    // Recovery from the degraded generation: exactly the durable prefix.
    let (lsm, report) =
        AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, clean_config(&dir)).unwrap();
    assert!(report.prior_degraded, "prior degradation reported");
    assert_eq!(report.replayed_batches, DURABLE_PREFIX as u64);
    assert_state(
        &lsm,
        &prefix,
        "recovered = model truncated at last durable batch",
    );
    assert!(!lsm.stats().durability_degraded, "fresh handle is healthy");
    assert!(!dir.join("DEGRADED").exists(), "marker cleared on recovery");

    // And the new incarnation is durable again end to end.
    let extra = random_batch(&mut rng);
    lsm.submit(&extra).unwrap();
    lsm.flush().unwrap();
    apply_to_model(&mut prefix, &extra);
    drop(lsm);
    let (lsm, report) =
        AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, clean_config(&dir)).unwrap();
    assert!(!report.prior_degraded);
    assert_state(&lsm, &prefix, "healthy again after recovery");
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn permanent_fsync_failure_fail_stops_with_typed_error() {
    let dir = temp_dir("failstop");
    let fault = FaultVfs::scripted(permanent_fsync_script());
    // DegradeMode::FailStop is the default.
    let cfg = config_on(
        &dir,
        &fault,
        DurabilityConfig::new(&dir)
            .fsync_interval(1)
            .retry(RetryPolicy::none()),
    );
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, cfg).unwrap();

    let mut rng = Rng::new(0xDE); // same stream as the degrade test
    let mut prefix = BTreeMap::new();
    for i in 0..6 {
        let batch = random_batch(&mut rng);
        let result = lsm.submit(&batch);
        if i < DURABLE_PREFIX {
            result.unwrap();
            apply_to_model(&mut prefix, &batch);
        } else {
            // Same script, opposite policy: the loss is the caller's to
            // see, batch by batch.
            assert!(
                matches!(result, Err(LsmError::Durability { .. })),
                "batch {i}: {result:?}"
            );
        }
    }
    // The barrier's snapshot also hits the dead fsync: fail-stop reports
    // that too instead of quietly keeping an uncovered WAL.
    assert!(matches!(lsm.flush(), Err(LsmError::Durability { .. })));
    assert!(!lsm.durability_stats().unwrap().degraded);
    assert_state(&lsm, &prefix, "rejected batches were never admitted");
    drop(lsm);
    assert!(!dir.join("DEGRADED").exists());

    let (lsm, report) =
        AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, clean_config(&dir)).unwrap();
    assert!(!report.prior_degraded);
    assert_state(&lsm, &prefix, "recovered fail-stop state");
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

/// A flush barrier whose snapshot fails under fail-stop must not strand
/// the records acknowledged after it: the barrier rotates the log before
/// it writes a run or publishes the manifest, so those records sit in a
/// segment that recovery replays from whichever manifest is newest.
fn failed_barrier_keeps_later_acknowledged_records(tag: &str, fault: Fault) {
    let dir = temp_dir(tag);
    let fault = FaultVfs::scripted(vec![fault]);
    let cfg = config_on(&dir, &fault, DurabilityConfig::new(&dir).fsync_interval(1));
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, cfg).unwrap();
    let mut model = BTreeMap::from([(1, 10)]);
    lsm.insert(&[(1, 10)]).unwrap();
    let flushed = lsm.flush();
    assert!(
        matches!(flushed, Err(LsmError::Durability { .. })),
        "{flushed:?}"
    );
    assert_eq!(fault.injected_faults(), 1);
    // Acknowledged after the failed barrier, and synced (interval 1).
    lsm.insert(&[(2, 20)]).unwrap();
    model.insert(2, 20);
    drop(lsm);

    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, clean_config(&dir)).unwrap();
    assert_state(&lsm, &model, "recovered after the failed barrier");
    lsm.insert(&[(3, 30)]).unwrap();
    model.insert(3, 30);
    lsm.flush().unwrap(); // the next barrier succeeds
    lsm.insert(&[(4, 40)]).unwrap();
    model.insert(4, 40);
    drop(lsm);

    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, clean_config(&dir)).unwrap();
    assert_state(&lsm, &model, "second recovery");
    lsm.check_invariants().unwrap();
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_segment_create_at_a_barrier_loses_no_later_record() {
    // Open 0 creates wal-0.log at open; open 1 is the barrier's new segment.
    failed_barrier_keeps_later_acknowledged_records(
        "rotate-open",
        Fault::transient(FaultOp::Open, 1, io::ErrorKind::Other),
    );
}

#[test]
fn failed_manifest_dir_sync_at_a_barrier_loses_no_later_record() {
    // The first directory sync is the one after the manifest's rename.
    failed_barrier_keeps_later_acknowledged_records(
        "rotate-dirsync",
        Fault::transient(FaultOp::DirSync, 0, io::ErrorKind::Other),
    );
}

/// Seeded chaos sweep: whatever the fault pattern does to the pipeline —
/// flaky appends, dying snapshots, failing GC — a recovery with healthy
/// storage must land on an *exact batch prefix* of the submitted history.
#[test]
fn seeded_fault_sweep_always_recovers_an_exact_batch_prefix() {
    const BATCHES: usize = 6;
    let mut opened = 0u32;
    let mut degraded_runs = 0u32;
    for (seed, period) in [(1, 7), (2, 11), (3, 13), (4, 17), (5, 23), (6, 29)] {
        let dir = temp_dir("sweep");
        let fault = FaultVfs::seeded(seed, period);
        let cfg = config_on(
            &dir,
            &fault,
            DurabilityConfig::new(&dir)
                .fsync_interval(2)
                .retry(RetryPolicy::new(2, std::time::Duration::from_micros(10)))
                .degrade(DegradeMode::DegradeToVolatile),
        );
        // The very open can hit an injected fault; fail-stop at open is a
        // legitimate outcome — the sweep only claims invariants for
        // incarnations that came up.
        let Ok((lsm, _)) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, cfg) else {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        };
        opened += 1;

        let mut rng = Rng::new(seed);
        // models[i] = state after the first i batches.
        let mut models: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new()];
        for i in 0..BATCHES {
            let batch = random_batch(&mut rng);
            lsm.submit(&batch).unwrap(); // degrade mode: submits never fail
            let mut next = models.last().unwrap().clone();
            apply_to_model(&mut next, &batch);
            models.push(next);
            if i == BATCHES / 2 {
                lsm.flush().unwrap(); // mid-stream snapshot attempt
            }
        }
        lsm.flush().unwrap();
        assert_state(&lsm, models.last().unwrap(), "live state ignores faults");
        if lsm.durability_stats().unwrap().degraded {
            degraded_runs += 1;
        }
        drop(lsm);

        let (lsm, _) =
            AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, clean_config(&dir)).unwrap();
        let got = dump(&lsm);
        let matched = models.iter().position(|m| dump_of_model(m) == got);
        assert!(
            matched.is_some(),
            "seed {seed}: recovered state is not any batch prefix \
             ({} faults injected)",
            fault.injected_faults()
        );
        lsm.check_invariants().unwrap();
        drop(lsm);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(opened >= 3, "sweep too hostile: only {opened} runs opened");
    // Not asserting degraded_runs > 0: the sweep's value is the prefix
    // invariant; how often degradation trips depends on the fault period.
    let _ = degraded_runs;
}

#[test]
fn gc_failures_are_counted_and_surfaced() {
    let dir = temp_dir("gc");
    // Every removal fails, forever: each snapshot's garbage sweep leaves
    // its backlog behind and must say so.
    let fault = FaultVfs::scripted(vec![Fault::permanent(
        FaultOp::Remove,
        0,
        io::ErrorKind::PermissionDenied,
    )]);
    let cfg = config_on(&dir, &fault, DurabilityConfig::new(&dir).fsync_interval(1));
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, cfg).unwrap();

    lsm.insert(&[(1, 10)]).unwrap();
    lsm.flush().unwrap(); // snapshot 1: tries to remove wal-0.log
    lsm.insert(&[(2, 20)]).unwrap();
    lsm.flush().unwrap(); // snapshot 2: wal-0.log *and* generation 1

    let stats = lsm.durability_stats().unwrap();
    assert_eq!(stats.snapshots, 2);
    assert!(stats.gc_failures >= 2, "failures: {}", stats.gc_failures);
    assert_eq!(
        lsm.stats().durability_gc_failures,
        stats.gc_failures,
        "surfaced through ShardedStats"
    );
    assert!(!stats.degraded, "GC trouble is not a durability loss");
    // The backlog is still on disk (nothing could be removed) and a clean
    // reopen both recovers and, on its next snapshot, drains it.
    drop(lsm);
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, clean_config(&dir)).unwrap();
    assert_eq!(lsm.lookup(&[1, 2]), vec![Some(10), Some(20)]);
    lsm.insert(&[(3, 30)]).unwrap();
    lsm.flush().unwrap();
    let stats = lsm.durability_stats().unwrap();
    assert_eq!(stats.gc_failures, 0, "healthy sweep reports no failures");
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}
