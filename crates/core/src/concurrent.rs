//! A thread-safe wrapper enforcing the paper's phase semantics.
//!
//! The GPU LSM's batch semantics (§III-A rule 2) require that "updates and
//! queries are performed in separate phases": a query sees the structure
//! either before or after an update batch, never part of one.
//! [`ConcurrentGpuLsm`] keeps that guarantee without making queries wait
//! for a batch's merges.  Every write runs in two phases:
//!
//! * **prepare**, under the read lock: the batch is encoded, sorted and
//!   merged with the levels its carry chain consumes into fresh vectors.
//!   The levels are read in place and nothing a query sees changes, so
//!   any number of query batches keep running beside it;
//! * **install**, under the write lock: the consumed levels are dropped,
//!   the output is placed and the batch counter bumped.  No element moves,
//!   so the write lock is held for microseconds.
//!
//! A writer mutex serialises writers from prepare to install, so no other
//! batch can change the levels a prepared chain read; it also owns the
//! batch-encode buffers, which each batch reuses.  Cleanup is exclusive
//! for its whole run: it rebuilds every level under the write lock (no
//! benchmark workload calls it).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::batch::UpdateBatch;
use crate::cleanup::CleanupReport;
use crate::compaction::PreparedBatch;
use crate::error::Result;
use crate::key::{Key, Value};
use crate::lsm::{EncodeScratch, GpuLsm};
use crate::range::RangeResult;
use crate::stats::LsmStats;

/// A shareable, thread-safe GPU LSM handle.
///
/// Cloning the handle is cheap (it is an `Arc`); all clones refer to the
/// same underlying structure.
#[derive(Debug, Clone)]
pub struct ConcurrentGpuLsm {
    inner: Arc<RwLock<GpuLsm>>,
    /// The writer mutex: held by a write from its prepare to its install,
    /// and the batch-encode buffers every batch encodes into.
    writer: Arc<Mutex<EncodeScratch>>,
    /// A copy of the batch counter `r`, refreshed under the write lock, so
    /// a sharded fan-out can size its work without taking the lock.
    batches: Arc<AtomicUsize>,
}

/// A batch whose carry chain has run but whose output no query can see
/// yet.  It holds its handle's writer mutex until [`PendingWrite::install`].
struct PendingWrite<'a> {
    lsm: &'a ConcurrentGpuLsm,
    _writer: MutexGuard<'a, EncodeScratch>,
    prepared: PreparedBatch,
}

impl PendingWrite<'_> {
    /// Make the batch visible under the write lock, and refresh the
    /// batch-counter copy before releasing it.
    fn install(self) {
        let mut lsm = self.lsm.inner.write();
        lsm.install(self.prepared);
        self.lsm.batches.store(lsm.num_batches(), Ordering::Relaxed);
    }
}

impl ConcurrentGpuLsm {
    /// Wrap an existing LSM.
    pub fn new(lsm: GpuLsm) -> Self {
        ConcurrentGpuLsm {
            batches: Arc::new(AtomicUsize::new(lsm.num_batches())),
            writer: Arc::default(),
            inner: Arc::new(RwLock::new(lsm)),
        }
    }

    /// Create an empty LSM with the given device and batch size.
    pub fn create(device: Arc<gpu_sim::Device>, batch_size: usize) -> Result<Self> {
        Ok(Self::new(GpuLsm::new(device, batch_size)?))
    }

    /// Apply a mixed update batch: its merges run beside queries, and only
    /// the install is exclusive.
    pub fn update(&self, batch: &UpdateBatch) -> Result<()> {
        self.prepare(|lsm, scratch| lsm.prepare_update(batch, scratch))
            .map(PendingWrite::install)
    }

    /// Insert key–value pairs, like [`ConcurrentGpuLsm::update`].
    pub fn insert(&self, pairs: &[(Key, Value)]) -> Result<()> {
        self.prepare(|lsm, scratch| lsm.prepare_insert(pairs, scratch))
            .map(PendingWrite::install)
    }

    /// Delete keys, like [`ConcurrentGpuLsm::update`].
    pub fn delete(&self, keys: &[Key]) -> Result<()> {
        self.update(&UpdateBatch::from_deletions(keys))
    }

    /// Remove stale elements and rebuild the levels (exclusive phase).
    pub fn cleanup(&self) -> CleanupReport {
        let _writer = self.writer.lock();
        let mut lsm = self.inner.write();
        let report = lsm.cleanup();
        self.batches.store(lsm.num_batches(), Ordering::Relaxed);
        report
    }

    /// Take the writer mutex and run `prepare` against the structure under
    /// the read lock.
    fn prepare(
        &self,
        prepare: impl FnOnce(&GpuLsm, &mut EncodeScratch) -> Result<PreparedBatch>,
    ) -> Result<PendingWrite<'_>> {
        let mut writer = self.writer.lock();
        let prepared = prepare(&self.inner.read(), &mut writer)?;
        Ok(PendingWrite {
            lsm: self,
            _writer: writer,
            prepared,
        })
    }

    /// The batch counter `r` as of the last completed write, read without
    /// the lock: a work estimate for sizing a fan-out, not a snapshot.
    pub(crate) fn num_batches(&self) -> usize {
        self.batches.load(Ordering::Relaxed)
    }

    /// Bulk lookups (shared phase: may run concurrently with other queries).
    pub fn lookup(&self, queries: &[Key]) -> Vec<Option<Value>> {
        self.inner.read().lookup(queries)
    }

    /// Warp-style bulk lookups (shared phase) — see [`GpuLsm::bulk_get`].
    pub fn bulk_get(&self, queries: &[Key]) -> Vec<Option<Value>> {
        self.inner.read().bulk_get(queries)
    }

    /// Bulk count queries (shared phase).
    pub fn count(&self, queries: &[(Key, Key)]) -> Vec<u32> {
        self.inner.read().count(queries)
    }

    /// Bulk range queries (shared phase).
    pub fn range(&self, queries: &[(Key, Key)]) -> RangeResult {
        self.inner.read().range(queries)
    }

    /// Bulk successor queries (shared phase).
    pub fn successor(&self, queries: &[Key]) -> Vec<Option<(Key, Value)>> {
        self.inner.read().successor(queries)
    }

    /// Bulk predecessor queries (shared phase).
    pub fn predecessor(&self, queries: &[Key]) -> Vec<Option<(Key, Value)>> {
        self.inner.read().predecessor(queries)
    }

    /// Structure statistics (shared phase).
    pub fn stats(&self) -> LsmStats {
        self.inner.read().stats()
    }

    /// Run an arbitrary read-only closure against the structure (shared
    /// phase) — an escape hatch for queries not covered by the wrapper.
    pub fn with_read<R>(&self, f: impl FnOnce(&GpuLsm) -> R) -> R {
        f(&self.inner.read())
    }

    /// Consume the wrapper and return the inner LSM (fails if other handles
    /// still exist).
    pub fn try_into_inner(self) -> std::result::Result<GpuLsm, Self> {
        match Arc::try_unwrap(self.inner) {
            Ok(lock) => Ok(lock.into_inner()),
            Err(inner) => Err(ConcurrentGpuLsm {
                inner,
                writer: self.writer,
                batches: self.batches,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    use super::*;
    use gpu_sim::{Device, DeviceConfig};

    fn handle(batch_size: usize) -> ConcurrentGpuLsm {
        let device = Arc::new(Device::new(DeviceConfig::small()));
        ConcurrentGpuLsm::create(device, batch_size).unwrap()
    }

    #[test]
    fn basic_operations_through_the_wrapper() {
        let lsm = handle(8);
        lsm.insert(&(0..8u32).map(|k| (k, k * 2)).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(lsm.lookup(&[3]), vec![Some(6)]);
        assert_eq!(lsm.count(&[(0, 7)]), vec![8]);
        assert_eq!(lsm.range(&[(2, 4)]).query(0).0, &[2, 3, 4]);
        assert_eq!(lsm.successor(&[3]), vec![Some((4, 8))]);
        assert_eq!(lsm.predecessor(&[3]), vec![Some((2, 4))]);
        lsm.delete(&[3]).unwrap();
        assert_eq!(lsm.lookup(&[3]), vec![None]);
        let report = lsm.cleanup();
        assert_eq!(report.valid_elements, 7);
        assert_eq!(lsm.stats().valid_elements, 7);
        assert_eq!(lsm.with_read(|l| l.num_occupied_levels()), 1);
    }

    #[test]
    fn concurrent_readers_with_interleaved_writer() {
        let lsm = handle(64);
        lsm.insert(&(0..64u32).map(|k| (k, k)).collect::<Vec<_>>())
            .unwrap();

        let mut readers = Vec::new();
        for t in 0..4 {
            let lsm = lsm.clone();
            readers.push(std::thread::spawn(move || {
                let queries: Vec<u32> = (0..64).collect();
                for _ in 0..50 {
                    let results = lsm.lookup(&queries);
                    // Key 0 is never touched by the writer: always visible.
                    assert_eq!(results[0], Some(0), "reader {t}");
                    // Counts never exceed the full key range.
                    assert!(lsm.count(&[(0, 200)])[0] as usize <= 200);
                }
            }));
        }
        let writer = {
            let lsm = lsm.clone();
            std::thread::spawn(move || {
                for round in 1..10u32 {
                    let pairs: Vec<(u32, u32)> = (64..128).map(|k| (k, round)).collect();
                    lsm.insert(&pairs).unwrap();
                    if round % 3 == 0 {
                        lsm.cleanup();
                    }
                }
            })
        };
        for r in readers {
            r.join().unwrap();
        }
        writer.join().unwrap();
        // Final state is consistent.
        assert_eq!(lsm.lookup(&[100]), vec![Some(9)]);
        assert_eq!(lsm.count(&[(0, 63)]), vec![64]);
    }

    /// Checks every query kind against `model` on keys `0..KEYS`.
    fn assert_answers(lsm: &ConcurrentGpuLsm, model: &BTreeMap<u32, u32>) {
        const KEYS: u32 = 96;
        let probes: Vec<u32> = (0..KEYS).collect();
        let lookups: Vec<Option<u32>> = probes.iter().map(|k| model.get(k).copied()).collect();
        assert_eq!(lsm.lookup(&probes), lookups);
        let successors: Vec<Option<(u32, u32)>> = probes
            .iter()
            .map(|&k| model.range(k + 1..).next().map(|(&k, &v)| (k, v)))
            .collect();
        assert_eq!(lsm.successor(&probes), successors);
        let spans: Vec<(u32, u32)> = (0..KEYS).step_by(7).map(|lo| (lo, lo + 11)).collect();
        let counts: Vec<u32> = spans
            .iter()
            .map(|&(lo, hi)| model.range(lo..=hi).count() as u32)
            .collect();
        assert_eq!(lsm.count(&spans), counts);
        let ranges = lsm.range(&spans);
        for (q, &(lo, hi)) in spans.iter().enumerate() {
            let expected: Vec<(u32, u32)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(
                ranges.iter_query(q).collect::<Vec<_>>(),
                expected,
                "span {q}"
            );
        }
    }

    #[test]
    fn queries_see_the_pre_batch_state_until_the_install() {
        let lsm = handle(8);
        let mut model = BTreeMap::new();
        // r = 15 = 2^4 - 1: the next batch carries through every level.
        for round in 0..15u32 {
            let pairs: Vec<(u32, u32)> =
                (0..8).map(|i| ((round * 5 + i * 11) % 80, round)).collect();
            lsm.insert(&pairs).unwrap();
            model.extend(pairs);
        }
        assert_eq!(lsm.with_read(|l| l.plan_next_insert().merge_steps()), 4);

        // Overwrites, deletes and fresh keys.
        let mut batch = UpdateBatch::new();
        batch
            .insert(0, 100)
            .insert(5, 100)
            .insert(90, 100)
            .delete(11)
            .delete(22)
            .delete(33);
        let before = model.clone();
        for (k, v) in [(0, 100), (5, 100), (90, 100)] {
            model.insert(k, v);
        }
        for k in [11, 22, 33] {
            model.remove(&k);
        }

        let pending = lsm
            .prepare(|l, scratch| l.prepare_update(&batch, scratch))
            .unwrap();
        assert_answers(&lsm, &before);
        assert_eq!(
            lsm.num_batches(),
            15,
            "the lock-free copy moved before the install"
        );
        pending.install();
        assert_answers(&lsm, &model);
        assert_eq!(lsm.num_batches(), 16);
        assert_eq!(lsm.with_read(|l| l.num_occupied_levels()), 1);
        lsm.with_read(GpuLsm::check_invariants).unwrap();
    }

    #[test]
    fn reader_never_goes_backwards_across_deep_carries() {
        const FIXED: u32 = 4;
        let lsm = handle(16);
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                start.wait();
                let fixed: Vec<u32> = (0..FIXED).collect();
                let (mut last_round, mut last_count, mut reads) = (0, 0, 0u64);
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    // Every batch writes its round to all fixed keys, so one
                    // call sees one round for all of them.
                    let rounds: Vec<u32> = lsm
                        .lookup(&fixed)
                        .into_iter()
                        .map(|a| a.unwrap_or(0))
                        .collect();
                    assert!(
                        rounds.iter().all(|&r| r == rounds[0]),
                        "torn batch: {rounds:?}"
                    );
                    assert!(rounds[0] >= last_round, "{} after {last_round}", rounds[0]);
                    // Every batch also adds fresh keys and none is deleted.
                    let count = lsm.count(&[(0, crate::key::MAX_KEY)])[0];
                    assert!(count >= last_count, "count {count} after {last_count}");
                    (last_round, last_count) = (rounds[0], count);
                    reads += 1;
                    if finished {
                        return reads;
                    }
                    // Each install waits for the read in flight; let the
                    // writer and the pool take the cores between reads.
                    std::thread::yield_now();
                }
            });
            start.wait();
            // 512 batches: the last carries through nine levels.
            for round in 1..=512u32 {
                let pairs: Vec<(u32, u32)> = (0..16)
                    .map(|i| if i < FIXED { i } else { round * 16 + i })
                    .map(|k| (k, round))
                    .collect();
                lsm.insert(&pairs).unwrap();
            }
            done.store(true, Ordering::SeqCst);
            reader.join().unwrap()
        });
        assert!(reads > 0);
        assert_eq!(lsm.lookup(&[0]), vec![Some(512)]);
        assert_eq!(lsm.num_batches(), 512);
    }

    #[test]
    fn try_into_inner_requires_unique_handle() {
        let lsm = handle(4);
        let clone = lsm.clone();
        let back = lsm.try_into_inner();
        assert!(back.is_err());
        drop(clone);
        let lsm = back.unwrap_err();
        assert!(lsm.try_into_inner().is_ok());
    }
}
