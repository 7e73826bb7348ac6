//! A thread-safe wrapper enforcing the paper's phase semantics.
//!
//! The GPU LSM's batch semantics (§III-A rule 2) require that "updates and
//! queries are performed in separate phases": queries are read-only and may
//! run concurrently with each other, while an update batch must be exclusive.
//! [`ConcurrentGpuLsm`] encodes exactly that with a reader–writer lock:
//! any number of host threads can issue query batches simultaneously (each
//! query batch is itself internally parallel), and update/cleanup batches
//! serialise against everything else — the same guarantee the GPU gets from
//! launching update and query kernels in separate phases.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::batch::UpdateBatch;
use crate::cleanup::CleanupReport;
use crate::error::Result;
use crate::key::{Key, Value};
use crate::lsm::GpuLsm;
use crate::range::RangeResult;
use crate::stats::LsmStats;

/// A shareable, thread-safe GPU LSM handle.
///
/// Cloning the handle is cheap (it is an `Arc`); all clones refer to the
/// same underlying structure.
#[derive(Debug, Clone)]
pub struct ConcurrentGpuLsm {
    inner: Arc<RwLock<GpuLsm>>,
    /// A copy of the batch counter `r`, refreshed under the write lock, so
    /// a sharded fan-out can size its work without taking the lock.
    batches: Arc<AtomicUsize>,
}

impl ConcurrentGpuLsm {
    /// Wrap an existing LSM.
    pub fn new(lsm: GpuLsm) -> Self {
        ConcurrentGpuLsm {
            batches: Arc::new(AtomicUsize::new(lsm.num_batches())),
            inner: Arc::new(RwLock::new(lsm)),
        }
    }

    /// Create an empty LSM with the given device and batch size.
    pub fn create(device: Arc<gpu_sim::Device>, batch_size: usize) -> Result<Self> {
        Ok(Self::new(GpuLsm::new(device, batch_size)?))
    }

    /// Apply a mixed update batch (exclusive phase).
    pub fn update(&self, batch: &UpdateBatch) -> Result<()> {
        self.write(|lsm| lsm.update(batch))
    }

    /// Insert key–value pairs (exclusive phase).
    pub fn insert(&self, pairs: &[(Key, Value)]) -> Result<()> {
        self.write(|lsm| lsm.insert(pairs))
    }

    /// Delete keys (exclusive phase).
    pub fn delete(&self, keys: &[Key]) -> Result<()> {
        self.write(|lsm| lsm.delete(keys))
    }

    /// Remove stale elements and rebuild the levels (exclusive phase).
    pub fn cleanup(&self) -> CleanupReport {
        self.write(GpuLsm::cleanup)
    }

    /// Run `f` under the write lock and refresh the batch-counter copy
    /// before releasing it.
    fn write<R>(&self, f: impl FnOnce(&mut GpuLsm) -> R) -> R {
        let mut lsm = self.inner.write();
        let out = f(&mut lsm);
        self.batches.store(lsm.num_batches(), Ordering::Relaxed);
        out
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
                batches: self.batches,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
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
