//! Kill-at-arbitrary-point crash-recovery harness.
//!
//! A seeded op stream runs through a WAL-enabled [`AdmittedLsm`], is torn
//! down at a random point — at a record boundary, mid-record, or with a
//! corrupted checksum — recovered with [`AdmittedLsm::open_durable`], and
//! differentially compared against a `BTreeMap` model on every query
//! surface (lookup, count, range, successor, predecessor).  The model is
//! rolled back to exactly the surviving WAL prefix, so the comparison
//! proves both that durable records replay and that torn or corrupt tails
//! are truncated, never replayed.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_lsm::{
    AdmittedLsm, DegradeMode, DurabilityConfig, Fault, FaultOp, FaultVfs, LsmConfig, LsmError, Op,
    RetryPolicy, ShardedLsm, UpdateBatch, MAX_KEY,
};
use gpu_sim::{Device, DeviceConfig};

const BATCH_SIZE: usize = 32;

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

/// A unique, collision-free scratch directory per call.
fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gpu-lsm-recovery-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path) -> LsmConfig {
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

fn random_batch(rng: &mut Rng, max_ops: usize) -> UpdateBatch {
    let ops = 1 + rng.below(max_ops as u64 - 1) as usize;
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let key = rng.below(MAX_KEY as u64) as u32;
        if rng.below(4) == 0 {
            batch.delete(key);
        } else {
            batch.insert(key, (rng.next() & 0xFFFF) as u32);
        }
    }
    batch
}

/// Apply one batch to the model under the structure's batch semantics: a
/// deletion of a key shadows the batch's insertions of it (rule 6), among
/// insertions the first wins (rule 4).
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

/// Differential check over every query surface.
fn assert_matches_model(lsm: &AdmittedLsm, model: &BTreeMap<u32, u32>, rng: &mut Rng) {
    let mut keys: Vec<u32> = model.keys().copied().collect();
    for _ in 0..32 {
        keys.push(rng.below(MAX_KEY as u64) as u32);
    }
    let got = lsm.lookup(&keys);
    for (k, g) in keys.iter().zip(&got) {
        assert_eq!(*g, model.get(k).copied(), "lookup {k}");
    }

    let mut intervals = Vec::new();
    for _ in 0..8 {
        let a = rng.below(MAX_KEY as u64) as u32;
        let b = rng.below(MAX_KEY as u64) as u32;
        intervals.push((a.min(b), a.max(b)));
    }
    let counts = lsm.count(&intervals);
    let ranges = lsm.range(&intervals);
    for (i, &(lo, hi)) in intervals.iter().enumerate() {
        let want: Vec<(u32, u32)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(counts[i] as usize, want.len(), "count [{lo}, {hi}]");
        let got: Vec<(u32, u32)> = ranges.iter_query(i).collect();
        assert_eq!(got, want, "range [{lo}, {hi}]");
    }

    for _ in 0..16 {
        let q = rng.below(MAX_KEY as u64) as u32;
        let suc = model
            .range((Bound::Excluded(q), Bound::Unbounded))
            .next()
            .map(|(k, v)| (*k, *v));
        assert_eq!(lsm.successor(&[q]), vec![suc], "successor {q}");
        let pred = model.range(..q).next_back().map(|(k, v)| (*k, *v));
        assert_eq!(lsm.predecessor(&[q]), vec![pred], "predecessor {q}");
    }
}

fn truncate_at(path: &Path, len: u64) {
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.set_len(len).unwrap();
}

fn flip_byte_at(path: &Path, offset: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[offset as usize] ^= 0xA5;
    std::fs::write(path, bytes).unwrap();
}

#[derive(Clone, Copy, PartialEq)]
enum CutStyle {
    /// Truncate at a record boundary: a clean crash between appends.
    RecordBoundary,
    /// Truncate inside a record: a torn tail.
    MidRecord,
    /// Flip a payload byte: a checksum mismatch mid-segment; the damaged
    /// record and everything after it must be dropped.
    CorruptByte,
}

/// One seeded run: write through the WAL with random flush barriers, tear
/// the log at a random point in the chosen style, recover, and compare
/// against the model rolled back to the surviving prefix.  Returns how many
/// barriers since the last checkpoint the replay spanned.
fn run_kill_point_case(seed: u64, style: CutStyle) -> usize {
    let dir = temp_dir("fuzz");
    let mut rng = Rng::new(seed.wrapping_mul(3) + style as u64 + 1);
    let device = device();

    let (lsm, report) =
        AdmittedLsm::open_durable(device.clone(), BATCH_SIZE, 2, config(&dir)).unwrap();
    assert_eq!(report.replayed_batches, 0);
    assert_eq!(report.manifest_seq, None);

    let mut history: Vec<UpdateBatch> = Vec::new();
    let mut covered = 0usize; // batches captured by the last snapshot
    let mut barriers_since = 0usize; // barriers since it that did not snapshot
    let num_batches = 6 + rng.below(10) as usize;
    for _ in 0..num_batches {
        let batch = random_batch(&mut rng, BATCH_SIZE);
        lsm.submit(&batch).unwrap();
        history.push(batch);
        if rng.below(4) == 0 {
            // A barrier syncs the WAL.  It snapshots and rotates the WAL,
            // moving everything so far into the manifest, only once the
            // log since the last manifest reaches that manifest's runs.
            let seq = lsm.durability_stats().unwrap().manifest_seq;
            lsm.flush().unwrap();
            if lsm.durability_stats().unwrap().manifest_seq == seq {
                barriers_since += 1;
            } else {
                covered = history.len();
                barriers_since = 0;
            }
        }
    }
    let manifest_seq = lsm.durability_stats().unwrap().manifest_seq;
    drop(lsm); // drains and closes; deliberately does NOT snapshot

    // The active segment holds exactly `history[covered..]`, framed as
    // 16-byte header + 8 bytes per op — computable without the scanner.
    let seg_path = dir.join(format!("wal-{manifest_seq}.log"));
    let frames: Vec<u64> = history[covered..]
        .iter()
        .map(|b| (16 + 8 * b.len()) as u64)
        .collect();
    let total: u64 = frames.iter().sum();
    assert_eq!(std::fs::metadata(&seg_path).unwrap().len(), total);

    // Kill: decide how many records survive, then damage the file so that
    // exactly that prefix is recoverable.
    let survivors = if frames.is_empty() {
        0
    } else {
        match style {
            CutStyle::RecordBoundary => {
                let m = rng.below(frames.len() as u64 + 1) as usize;
                truncate_at(&seg_path, frames[..m].iter().sum());
                m
            }
            CutStyle::MidRecord => {
                let m = rng.below(frames.len() as u64) as usize;
                let within = 1 + rng.below(frames[m] - 1);
                truncate_at(&seg_path, frames[..m].iter().sum::<u64>() + within);
                m
            }
            CutStyle::CorruptByte => {
                let m = rng.below(frames.len() as u64) as usize;
                let start: u64 = frames[..m].iter().sum();
                flip_byte_at(&seg_path, start + 16 + rng.below(frames[m] - 16));
                m
            }
        }
    };

    let mut model = BTreeMap::new();
    for batch in &history[..covered + survivors] {
        apply_to_model(&mut model, batch);
    }

    let (lsm, report) =
        AdmittedLsm::open_durable(device.clone(), BATCH_SIZE, 2, config(&dir)).unwrap();
    assert_eq!(report.replayed_batches, survivors as u64, "replayed prefix");
    if !frames.is_empty() {
        match style {
            CutStyle::RecordBoundary => assert_eq!(report.torn_bytes, 0),
            CutStyle::MidRecord | CutStyle::CorruptByte => assert!(report.torn_bytes > 0),
        }
    }
    assert_eq!(
        report.manifest_seq,
        (manifest_seq > 0).then_some(manifest_seq)
    );
    assert_matches_model(&lsm, &model, &mut rng);
    lsm.check_invariants().unwrap();

    // Life goes on after recovery: new writes land, and a second recovery
    // (with a clean tail this time) reproduces the same state.
    let extra = random_batch(&mut rng, BATCH_SIZE);
    lsm.submit(&extra).unwrap();
    lsm.flush().unwrap();
    apply_to_model(&mut model, &extra);
    assert_matches_model(&lsm, &model, &mut rng);
    drop(lsm);

    let (lsm, _) = AdmittedLsm::open_durable(device, BATCH_SIZE, 2, config(&dir)).unwrap();
    assert_matches_model(&lsm, &model, &mut rng);
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
    barriers_since
}

/// 35 seeds × 3 cut styles = 105 distinct kill points, some of them with
/// a log that spans several barriers since the last checkpoint.
#[test]
fn recovery_fuzz_kill_points() {
    let mut spans = Vec::new();
    for seed in 0..35 {
        spans.push(run_kill_point_case(seed, CutStyle::RecordBoundary));
        spans.push(run_kill_point_case(seed, CutStyle::MidRecord));
        spans.push(run_kill_point_case(seed, CutStyle::CorruptByte));
    }
    let spanning = spans.iter().filter(|&&n| n >= 2).count();
    assert!(spanning >= 10, "cuts past two or more barriers: {spans:?}");
}

#[test]
fn durable_round_trip_and_stats() {
    let dir = temp_dir("round-trip");
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    lsm.insert(&[(1, 10), (1 << 30, 20), (7, 70)]).unwrap();
    lsm.delete(&[7]).unwrap();
    lsm.flush().unwrap();

    let stats = lsm.durability_stats().unwrap();
    assert_eq!(stats.wal_records, 2);
    assert!(stats.wal_syncs >= 1, "snapshot syncs the log first");
    assert_eq!(stats.snapshots, 1);
    assert_eq!(stats.manifest_seq, 1);
    drop(lsm);

    let (lsm, report) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    // The barrier snapshotted everything: nothing left to replay.
    assert_eq!(report.replayed_batches, 0);
    assert_eq!(report.manifest_seq, Some(1));
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(lsm.lookup(&[1, 1 << 30, 7]), vec![Some(10), Some(20), None]);
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_layout_survives_restart() {
    let dir = temp_dir("layout");
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 1, config(&dir)).unwrap();
    let pairs: Vec<(u32, u32)> = (0..BATCH_SIZE as u32)
        .map(|i| (i * 1_000_003, i + 1))
        .collect();
    lsm.insert(&pairs).unwrap();
    lsm.flush().unwrap();
    lsm.trigger_split_at(0, 1 << 24).unwrap();

    let shards = lsm.service().num_shards();
    let epoch = lsm.service().epoch();
    assert_eq!(shards, 2);
    drop(lsm);

    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 1, config(&dir)).unwrap();
    // `num_shards = 1` is ignored: the manifest's layout wins, epoch
    // included (so routing generations stay monotonic across restarts).
    assert_eq!(lsm.service().num_shards(), shards);
    assert_eq!(lsm.service().epoch(), epoch);
    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let want: Vec<Option<u32>> = pairs.iter().map(|&(_, v)| Some(v)).collect();
    assert_eq!(lsm.lookup(&keys), want);
    lsm.check_invariants().unwrap();
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash the manual truncations above can only approximate: the
/// storage dies *between* an acknowledged append and its batched fsync.
/// Under `DegradeToVolatile` the WAL seals at the last *synced* boundary —
/// acked-but-unsynced records were never promised durable (that is the
/// documented fsync-batching contract) — so recovery must replay exactly
/// the multiple-of-interval prefix, not the acked count.
#[test]
fn fault_cut_between_append_and_batched_fsync_replays_synced_prefix() {
    const INTERVAL: usize = 4;
    let dir = temp_dir("fsync-cut");
    // Sync occurrence 0 (records 1..=4) succeeds; occurrence 1 (triggered
    // by record 8) and everything after fails forever.
    let fault = FaultVfs::scripted(vec![Fault::permanent(
        FaultOp::Sync,
        1,
        std::io::ErrorKind::Other,
    )]);
    let cfg = LsmConfig::default().durability(
        DurabilityConfig::new(&dir)
            .fsync_interval(INTERVAL)
            .retry(RetryPolicy::none())
            .degrade(DegradeMode::DegradeToVolatile)
            .vfs(Arc::new(fault.clone())),
    );
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, cfg).unwrap();

    let mut rng = Rng::new(0xC0FFEE);
    let mut history = Vec::new();
    for _ in 0..10 {
        let batch = random_batch(&mut rng, BATCH_SIZE);
        lsm.submit(&batch).unwrap(); // batch 8 degrades; all still admitted
        history.push(batch);
    }
    lsm.flush().unwrap();
    let stats = lsm.durability_stats().unwrap();
    assert!(stats.degraded);
    // Records 1..=7 were acked (record 8 rolled back with its failed
    // sync); of those only the synced 1..=4 are durable — the seal
    // discards the acked-but-unsynced 5..=7, as replay below proves.
    assert_eq!(stats.wal_records, 7);
    let mut full = BTreeMap::new();
    for batch in &history {
        apply_to_model(&mut full, batch);
    }
    assert_matches_model(&lsm, &full, &mut rng);
    drop(lsm);

    let mut prefix = BTreeMap::new();
    for batch in &history[..INTERVAL] {
        apply_to_model(&mut prefix, batch);
    }
    let (lsm, report) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    assert!(report.prior_degraded);
    assert_eq!(report.replayed_batches, INTERVAL as u64, "synced boundary");
    assert_eq!(report.torn_bytes, 0, "the seal left no torn tail");
    assert_matches_model(&lsm, &prefix, &mut rng);
    lsm.check_invariants().unwrap();
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

/// Incremental snapshots: a generation whose level data did not change
/// must carry the run file over by reference instead of rewriting it.
#[test]
fn unchanged_runs_are_reused_across_snapshot_generations() {
    let dir = temp_dir("incremental");
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();

    // Fill shard 0 (low keys) and snapshot it.
    let low: Vec<(u32, u32)> = (0..BATCH_SIZE as u32).map(|i| (i, i + 1)).collect();
    lsm.insert(&low).unwrap();
    lsm.flush().unwrap();
    assert_eq!(lsm.durability_stats().unwrap().manifest_seq, 1);

    // Touch only shard 1 (high keys): generation 2 must reuse shard 0's
    // run untouched.
    let high: Vec<(u32, u32)> = (0..BATCH_SIZE as u32)
        .map(|i| ((1 << 30) + i, i + 1))
        .collect();
    lsm.insert(&high).unwrap();
    lsm.flush().unwrap();
    let stats = lsm.durability_stats().unwrap();
    assert_eq!(stats.manifest_seq, 2);
    assert!(stats.runs_reused >= 1, "reused: {}", stats.runs_reused);

    // The reused run physically belongs to generation 1 and must have
    // survived generation 2's garbage collection.
    assert!(dir.join("run-1-0-0.bin").exists(), "carried-over run kept");
    drop(lsm);

    let (lsm, report) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    assert_eq!(report.manifest_seq, Some(2));
    assert_eq!(report.replayed_batches, 0);
    let keys: Vec<u32> = low.iter().chain(&high).map(|&(k, _)| k).collect();
    let want: Vec<Option<u32>> = low.iter().chain(&high).map(|&(_, v)| Some(v)).collect();
    assert_eq!(lsm.lookup(&keys), want);
    lsm.check_invariants().unwrap();

    // Carrying survives the restart: recovery binds the loaded runs to the
    // levels it built, so a snapshot after writes touching only shard 1
    // (generation 3) still references generation 1's file for shard 0 and
    // writes nothing new for it.  Generation 2 references two one-batch
    // runs, so the log takes two batches to reach them: the first barrier
    // only syncs it.
    let high2: Vec<(u32, u32)> = (0..2 * BATCH_SIZE as u32)
        .map(|i| ((1 << 30) + BATCH_SIZE as u32 + i, i + 2))
        .collect();
    for chunk in high2.chunks(BATCH_SIZE) {
        assert_eq!(lsm.durability_stats().unwrap().manifest_seq, 2);
        lsm.insert(chunk).unwrap();
        lsm.flush().unwrap();
    }
    let stats = lsm.durability_stats().unwrap();
    assert_eq!(stats.manifest_seq, 3);
    assert_eq!(stats.runs_reused, 1, "shard 0's run carried");
    // Generation 3's garbage collection removes every older run it does
    // not reference, so the survivor is still shard 0's run.
    let runs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("run-"))
        .collect();
    assert!(
        runs.contains(&"run-1-0-0.bin".to_string()),
        "runs: {runs:?}"
    );
    assert!(
        !runs.iter().any(|name| name.starts_with("run-3-0-")),
        "no new run for shard 0: {runs:?}"
    );
    drop(lsm);

    // Generation 3 recovers in full from the carried and the new runs.
    let (lsm, report) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    assert_eq!(report.manifest_seq, Some(3));
    assert_eq!(report.replayed_batches, 0);
    let all = [low, high, high2].concat();
    let keys: Vec<u32> = all.iter().map(|&(k, _)| k).collect();
    let want: Vec<Option<u32>> = all.iter().map(|&(_, v)| Some(v)).collect();
    assert_eq!(lsm.lookup(&keys), want);
    lsm.check_invariants().unwrap();
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

/// Bytes of the log since manifest `seq` (its segment and any later one)
/// and of the run files in `dir`, which after a garbage collection that
/// removed nothing in error are exactly the runs that manifest references.
fn log_and_covered_bytes(dir: &Path, seq: u64) -> (u64, u64) {
    let (mut log, mut covered) = (0, 0);
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        let len = entry.metadata().unwrap().len();
        let segment = name
            .strip_prefix("wal-")
            .and_then(|n| n.strip_suffix(".log"));
        match segment {
            Some(s) if s.parse::<u64>().unwrap() >= seq => log += len,
            Some(_) => {}
            None if name.starts_with("run-") => covered += len,
            None => {}
        }
    }
    (log, covered)
}

/// The checkpoint trigger, read off the directory: a barrier snapshots
/// exactly when the log since the newest manifest has reached the run
/// files that manifest references, and after every barrier that does not,
/// the log is still smaller than those runs.
#[test]
fn checkpoint_trigger_keeps_the_log_below_the_covered_runs() {
    let dir = temp_dir("trigger");
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    let mut rng = Rng::new(0x7419);
    let (mut checkpoints, mut skips) = (0, 0);
    for round in 0..48 {
        for _ in 0..=rng.below(2) {
            lsm.submit(&random_batch(&mut rng, BATCH_SIZE)).unwrap();
        }
        let before = lsm.durability_stats().unwrap();
        let (log, covered) = log_and_covered_bytes(&dir, before.manifest_seq);
        lsm.flush().unwrap();
        let after = lsm.durability_stats().unwrap();
        let (log_after, covered_after) = log_and_covered_bytes(&dir, after.manifest_seq);
        if after.snapshots > before.snapshots {
            assert!(
                log >= covered,
                "round {round}: log {log} < covered {covered}"
            );
            assert_eq!(log_after, 0, "round {round}: the snapshot rotated the log");
            checkpoints += 1;
        } else {
            assert!(
                log_after < covered_after,
                "round {round}: log {log_after} >= covered {covered_after}"
            );
            skips += 1;
        }
    }
    assert!(checkpoints >= 3, "{checkpoints} checkpoints");
    assert!(
        skips >= checkpoints,
        "{skips} barriers skipped the snapshot"
    );
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash between checkpoints: the log since the newest manifest spans
/// several barriers that synced it without a snapshot, plus a tail no
/// barrier covered, and recovery replays exactly the batches logged since
/// that manifest.
#[test]
fn checkpoint_crash_between_checkpoints_replays_every_batch_since() {
    let dir = temp_dir("between");
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    let mut rng = Rng::new(0xB7);
    let mut model = BTreeMap::new();
    let mut since_manifest = 0u64; // batches logged since the newest manifest
    let mut barriers_since = 0; // barriers since it, none of which snapshotted
    for _ in 0..64 {
        let batch = random_batch(&mut rng, BATCH_SIZE);
        lsm.submit(&batch).unwrap();
        apply_to_model(&mut model, &batch);
        since_manifest += 1;
        let seq = lsm.durability_stats().unwrap().manifest_seq;
        lsm.flush().unwrap();
        if lsm.durability_stats().unwrap().manifest_seq == seq {
            barriers_since += 1;
        } else {
            since_manifest = 0;
            barriers_since = 0;
        }
        if barriers_since == 3 {
            break;
        }
    }
    assert_eq!(barriers_since, 3, "the log never outlived three barriers");
    for _ in 0..2 {
        let batch = random_batch(&mut rng, BATCH_SIZE);
        lsm.submit(&batch).unwrap();
        apply_to_model(&mut model, &batch);
        since_manifest += 1;
    }
    let manifest_seq = lsm.durability_stats().unwrap().manifest_seq;
    drop(lsm); // drains and closes; does not snapshot

    let (lsm, report) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    assert_eq!(report.manifest_seq, Some(manifest_seq));
    assert_eq!(report.replayed_batches, since_manifest);
    assert_eq!(report.torn_bytes, 0);
    assert_matches_model(&lsm, &model, &mut rng);
    lsm.check_invariants().unwrap();
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

/// Barriers that each close one batch, on a directory whose second
/// manifest publication fails once, run until that failure: a snapshot
/// due at a trigger barrier after the first, with barriers between the two
/// that only synced the log.  Returns the flush result of the failing
/// barrier and the model of every batch admitted so far, all of which
/// that barrier synced.
fn run_to_failing_trigger(
    lsm: &AdmittedLsm,
    fault: &FaultVfs,
    rng: &mut Rng,
) -> (gpu_lsm::Result<()>, BTreeMap<u32, u32>) {
    let mut model = BTreeMap::new();
    let mut skipped = 0;
    for _ in 0..64 {
        let batch = random_batch(rng, BATCH_SIZE);
        lsm.submit(&batch).unwrap();
        apply_to_model(&mut model, &batch);
        let snapshots = lsm.durability_stats().unwrap().snapshots;
        let flushed = lsm.flush();
        if fault.injected_faults() == 1 {
            assert_eq!(snapshots, 1, "the first barrier snapshotted");
            assert!(skipped >= 1, "no barrier between the two triggers");
            return (flushed, model);
        }
        flushed.unwrap();
        if lsm.durability_stats().unwrap().snapshots == snapshots {
            skipped += 1;
        }
    }
    panic!("the log never reached the second trigger");
}

/// A durable config whose first two manifest renames are the two
/// snapshots' publications; the second fails once.
fn failing_second_publication(dir: &Path, degrade: DegradeMode) -> (FaultVfs, LsmConfig) {
    let fault = FaultVfs::scripted(vec![Fault::transient(
        FaultOp::Rename,
        1,
        std::io::ErrorKind::Other,
    )]);
    let cfg = LsmConfig::default().durability(
        DurabilityConfig::new(dir)
            .fsync_interval(4)
            .retry(RetryPolicy::none())
            .degrade(degrade)
            .vfs(Arc::new(fault.clone())),
    );
    (fault, cfg)
}

#[test]
fn checkpoint_failure_at_a_later_trigger_fails_stop() {
    let dir = temp_dir("later-failstop");
    let (fault, cfg) = failing_second_publication(&dir, DegradeMode::FailStop);
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, cfg).unwrap();
    let mut rng = Rng::new(0xFA57);
    let (flushed, mut model) = run_to_failing_trigger(&lsm, &fault, &mut rng);
    assert!(
        matches!(flushed, Err(LsmError::Durability { .. })),
        "{flushed:?}"
    );
    let stats = lsm.durability_stats().unwrap();
    assert!(!stats.degraded);
    assert_eq!(stats.snapshots, 1);
    assert_eq!(stats.manifest_seq, 2, "the failed snapshot rotated the log");

    // Batches acknowledged after the failure stay covered by the log, and
    // the next barrier, still past the trigger, snapshots them.
    let batch = random_batch(&mut rng, BATCH_SIZE);
    lsm.submit(&batch).unwrap();
    apply_to_model(&mut model, &batch);
    lsm.flush().unwrap();
    let stats = lsm.durability_stats().unwrap();
    assert_eq!((stats.snapshots, stats.manifest_seq), (2, 3));
    let tail = random_batch(&mut rng, BATCH_SIZE);
    lsm.submit(&tail).unwrap();
    apply_to_model(&mut model, &tail);
    drop(lsm);

    let (lsm, report) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    assert_eq!(report.manifest_seq, Some(3));
    assert_eq!(report.replayed_batches, 1);
    assert_matches_model(&lsm, &model, &mut rng);
    lsm.check_invariants().unwrap();
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_failure_at_a_later_trigger_degrades_to_volatile() {
    let dir = temp_dir("later-degrade");
    let (fault, cfg) = failing_second_publication(&dir, DegradeMode::DegradeToVolatile);
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, cfg).unwrap();
    let mut rng = Rng::new(0xDE97);
    let (flushed, durable) = run_to_failing_trigger(&lsm, &fault, &mut rng);
    flushed.unwrap();
    let stats = lsm.durability_stats().unwrap();
    assert!(stats.degraded);
    assert_eq!(stats.snapshots, 1);

    // From here on the service admits in memory only and never snapshots.
    let mut full = durable.clone();
    let batch = random_batch(&mut rng, BATCH_SIZE);
    lsm.submit(&batch).unwrap();
    apply_to_model(&mut full, &batch);
    lsm.flush().unwrap();
    assert_eq!(lsm.durability_stats().unwrap().snapshots, 1);
    assert_matches_model(&lsm, &full, &mut rng);
    drop(lsm);

    // Recovery replays the log since the first manifest, which the
    // failing barrier had synced in full, and nothing after it.
    let (lsm, report) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    assert!(report.prior_degraded);
    assert_eq!(report.manifest_seq, Some(1));
    assert_eq!(report.torn_bytes, 0);
    assert_matches_model(&lsm, &durable, &mut rng);
    lsm.check_invariants().unwrap();
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte-wise FNV-1a 64: the checksum of format 2, to build its files.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every file in `dir` with its bytes, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Recovery of a format-2 directory fails with a typed error naming the
/// version, and leaves every file of the directory as it found it.
fn assert_format_2_refused(dir: &Path) {
    let before = dir_contents(dir);
    match AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(dir)) {
        Err(LsmError::Durability { context }) => {
            assert!(context.contains("format version 2"), "{context}");
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok((_, report)) => panic!("format 2 recovered as format 3: {report:?}"),
    }
    assert_eq!(dir_contents(dir), before, "refusal changed a file");
}

#[test]
fn format_2_manifest_is_refused_not_skipped() {
    let dir = temp_dir("v2-manifest");
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    lsm.insert(&[(1, 10)]).unwrap();
    lsm.flush().unwrap();
    drop(lsm);
    // Rewrite the manifest as format 2 framed it: version 2 in the header,
    // byte-wise FNV-1a in the trailer (same layout, same length).
    let path = dir.join("MANIFEST-1");
    let mut bytes = std::fs::read(&path).unwrap();
    let body = bytes.len() - 8;
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    let trailer = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&trailer.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert_format_2_refused(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn format_2_segment_is_refused_not_truncated() {
    let dir = temp_dir("v2-segment");
    // One format-2 record: magic "WALR", payload length, FNV-1a of the
    // payload, then (encoded key, value) pairs.
    let payload: Vec<u8> = [(5u32, 50u32), (6, 60)]
        .iter()
        .flat_map(|&(k, v)| [(k << 1 | 1).to_le_bytes(), v.to_le_bytes()])
        .flatten()
        .collect();
    let mut record = Vec::new();
    record.extend_from_slice(&0x5741_4C52u32.to_le_bytes());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    std::fs::write(dir.join("wal-0.log"), &record).unwrap();
    assert_format_2_refused(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

/// Wait until the admission layer reports the applier's death.
fn await_applier_death(lsm: &AdmittedLsm) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match lsm.flush() {
            Err(LsmError::ApplierPanicked { payload }) => return payload,
            Ok(()) => {
                assert!(Instant::now() < deadline, "applier never died");
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("unexpected flush error: {e}"),
        }
    }
}

#[test]
fn applier_panic_surfaces_typed_error_and_drop_stays_clean() {
    let lsm = AdmittedLsm::new(ShardedLsm::new(device(), 16, 2).unwrap());
    lsm.insert(&[(1, 1)]).unwrap();
    lsm.flush().unwrap();

    lsm.inject_applier_panic();
    let payload = await_applier_death(&lsm);
    assert!(payload.contains("injected"), "payload: {payload}");

    // Every write-path entry point now reports the death instead of
    // hanging or poisoning its caller.
    assert!(matches!(
        lsm.insert(&[(2, 2)]),
        Err(LsmError::ApplierPanicked { .. })
    ));
    assert!(matches!(lsm.flush(), Err(LsmError::ApplierPanicked { .. })));
    assert!(matches!(
        lsm.cleanup(),
        Err(LsmError::ApplierPanicked { .. })
    ));
    assert!(matches!(
        lsm.trigger_rebalance_check(),
        Err(LsmError::ApplierPanicked { .. })
    ));
    assert!(lsm.check_invariants().is_err());

    // Diagnostics still answer from the poisoned locks, and reads fall
    // back to applied state.
    let stats = lsm.admission_stats();
    assert_eq!(stats.submitted_batches, 1);
    let _ = lsm.latency_stats();
    let _ = lsm.latency_histograms();
    assert_eq!(lsm.lookup(&[1]), vec![Some(1)]);

    // Dropping must join the dead applier without a double-panic abort.
    drop(lsm);
}

#[test]
fn applier_panic_with_durability_fails_submit_without_logging() {
    let dir = temp_dir("panic-durable");
    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    lsm.insert(&[(5, 50)]).unwrap();
    lsm.flush().unwrap();
    let records_before = lsm.durability_stats().unwrap().wal_records;

    lsm.inject_applier_panic();
    await_applier_death(&lsm);
    assert!(matches!(
        lsm.insert(&[(6, 60)]),
        Err(LsmError::ApplierPanicked { .. })
    ));
    // The rejected submit must not have reached the log: on recovery the
    // key is absent.
    assert_eq!(lsm.durability_stats().unwrap().wal_records, records_before);
    drop(lsm);

    let (lsm, _) = AdmittedLsm::open_durable(device(), BATCH_SIZE, 2, config(&dir)).unwrap();
    assert_eq!(lsm.lookup(&[5, 6]), vec![Some(50), None]);
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}
