//! [`ShardedLsm`]: a key-range sharded LSM service with online rebalancing.
//!
//! The paper scales a *single* LSM's batch throughput; a serving system
//! wants many clients issuing mixed update/query traffic with throughput
//! limited only by hardware.  [`crate::ConcurrentGpuLsm`] funnels every
//! operation through one reader–writer lock, so one update batch blocks the
//! whole key space.  `ShardedLsm` removes that bottleneck by partitioning
//! the key domain into `N` contiguous key ranges (see
//! [`crate::router::ShardRouter`]), each an independent [`GpuLsm`] behind
//! its own lock:
//!
//! * **Updates** are split by shard in one stable multisplit-style pass and
//!   applied to the owning shards; updates touching disjoint shards no
//!   longer serialise against each other.
//! * **Queries** fan out to the owning shards and are reassembled in input
//!   order; because the partition is by key *range*, per-shard `count`
//!   answers sum and per-shard `range` answers concatenate in shard order
//!   into a globally key-sorted result.
//!
//! ## When shards run concurrently
//!
//! Every fan-out (update, lookup, count, range and stats) states the
//! call's work to the worker pool, and the pool's sequential cutoff alone
//! decides.  At or above it the touched shards run at the same time,
//! split into contiguous runs, one per core, so a shard tends to stay on
//! one core from call to call; below it they run one after another on the
//! caller's thread.  Each task takes its one shard lock itself.  The work
//! is a property of the call:
//!
//! * a query call: per touched shard, the level searches the device model
//!   books for its sub-queries: one per (key, level) for a lookup, two per
//!   (span, level) for count and range (the lower bounds of `k1` and of
//!   `k2 + 1`).  The host runs one fence descent per (span, level) and
//!   gallops to the second bound (see [`crate::count`]), then merges the
//!   span's candidates, so for count and range this is the paper's work,
//!   not a measure of the host's;
//! * an update: `b` per touched shard, since each sub-batch is padded to
//!   `b`;
//! * stats: the resident elements.
//!
//! Occupied levels and resident elements come from each touched shard's
//! batch counter `r`, read from a copy the shard keeps outside its lock
//! (refreshed by every write while it holds the write lock).  Sizing a
//! call takes no lock, so a query takes each touched shard's lock once,
//! inside its task, and never waits on a writer just to size the call.
//! A call of a few hundred keys or a few dozen spans stays on the
//! caller's thread and leaves the pool to the writer's carry merges.
//! A 4096-key call uses every core,
//! and so does a 1024-span call once its shards hold two or more
//! occupied levels.  Bulk build and cleanup run shard by shard (see
//! [`ShardedLsm::bulk_build`] and [`ShardedLsm::cleanup`]).
//!
//! ## Online shard split/merge
//!
//! A fixed uniform partition melts one shard under zipfian traffic.  The
//! service therefore supports **rebalancing under live traffic**: a shard
//! can be split in two at a fitted key (learned from the shard's fence
//! samples plus a reservoir of recent batch keys), and two adjacent shards
//! can be merged.  The replacement shard(s) are rebuilt from the immutable
//! sorted runs (via a full-range read of the visible state, equivalent to a
//! cleanup), and the whole routing table — router, shard handles, shard ids
//! and epoch — is swapped **atomically**:
//!
//! * The table lives behind `Arc<RwLock<Arc<RoutingTable>>>`.  Queries
//!   clone the inner `Arc` under a brief read lock and run against that
//!   immutable snapshot; a concurrent swap can never show them a torn
//!   domain (the old shards are frozen once the new table is installed,
//!   because every update path routes through the current table).
//! * Updates hold the table **read** lock for the duration of their apply,
//!   so they parallelise freely with each other but are excluded by a
//!   rebalance, which takes the **write** lock for the rebuild-and-swap.
//! * With [`crate::RebalanceConfig::enabled`], hot-shard detection runs every
//!   `check_interval` update batches off the per-shard lifetime op
//!   counters ([`crate::LsmStats::update_ops`]): a shard carrying more
//!   than `hot_fraction` of recent update traffic is split, an adjacent
//!   pair carrying less than `cold_fraction` combined is merged.
//!
//! ## Consistency model
//!
//! Each shard individually keeps the paper's phase semantics (§III-A rule
//! 2): per shard, a query observes the state after some prefix of the
//! update batches routed to that shard, never a partially applied batch.
//! Across shards there is **no** global snapshot: a cross-shard query may
//! observe different prefixes on different shards.  A rebalance preserves
//! exactly the visible state of the affected shards.  With `num_shards = 1`
//! the structure degenerates to exactly one `GpuLsm` and every answer is
//! byte-identical to the unsharded structure's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rayon::prelude::*;

use crate::batch::UpdateBatch;
use crate::cleanup::CleanupReport;
use crate::concurrent::ConcurrentGpuLsm;
use crate::config::LsmConfig;
use crate::count::SEARCHES_PER_LEVEL;
use crate::error::{LsmError, Result};
use crate::key::{is_tombstone, original_key, Key, Value, MAX_KEY};
use crate::lsm::GpuLsm;
use crate::range::RangeResult;
use crate::router::{ShardRouter, SubQuery};
use crate::stats::LsmStats;
use crate::validate::InvariantViolation;

/// Per-shard routed point queries: the keys and their input positions.
type RoutedLookups = (Vec<Key>, Vec<usize>);

/// Bound on the recent-batch key reservoir feeding split-point fitting.
const RECENT_KEY_CAP: usize = 1024;
/// Keys sampled from each update batch into the reservoir.
const KEYS_PER_BATCH_SAMPLE: usize = 4;

/// One immutable generation of the sharded service's routing state.
/// Swapped wholesale (behind an `Arc`) on every split/merge, so concurrent
/// readers always see a consistent (router, shards) pair.
#[derive(Debug)]
pub(crate) struct RoutingTable {
    /// Maps keys to shard indices; bounds tile the 31-bit domain.
    pub(crate) router: ShardRouter,
    /// One independently locked LSM per shard, in key-range order.
    pub(crate) shards: Vec<ConcurrentGpuLsm>,
    /// Stable identity of each shard, preserved across swaps for shards a
    /// rebalance does not touch (the admission layer keys its queues on
    /// these).
    pub(crate) ids: Vec<u64>,
    /// Generation counter, bumped by every split/merge.
    pub(crate) epoch: u64,
}

/// A rebalance decision produced by hot/cold-shard detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Split shard `s` in two at a fitted key.
    Split(usize),
    /// Merge shard `s` with shard `s + 1`.
    Merge(usize),
}

/// Mutable rebalancing bookkeeping (detection baselines, the recent-key
/// reservoir and lifetime split/merge counters).
#[derive(Debug, Default)]
struct RebalanceState {
    /// Ring buffer of recently updated keys (split-point fitting input).
    recent_keys: Vec<Key>,
    /// Next write position into the ring.
    recent_pos: usize,
    /// Per-shard-id update_ops at the last threshold evaluation.
    baselines: std::collections::HashMap<u64, u64>,
    /// Update batches since the last threshold evaluation.
    batches_since_check: u64,
    /// Lifetime number of shard splits performed.
    splits: u64,
    /// Lifetime number of shard merges performed.
    merges: u64,
}

/// A key-range sharded, thread-safe LSM service handle.
///
/// Cloning is cheap (all state is shared `Arc`s); all clones address the
/// same underlying shards and observe the same routing table, so a handle
/// can be passed to every client thread.
#[derive(Debug, Clone)]
pub struct ShardedLsm {
    device: Arc<gpu_sim::Device>,
    batch_size: usize,
    /// The current routing generation.  Read-locked briefly by queries (to
    /// snapshot), read-locked for the duration of an update apply, and
    /// write-locked by a rebalance for its rebuild-and-swap.
    table: Arc<RwLock<Arc<RoutingTable>>>,
    config: LsmConfig,
    rebalance: Arc<Mutex<RebalanceState>>,
    next_shard_id: Arc<AtomicU64>,
}

/// Aggregated statistics of a sharded LSM: per-shard snapshots plus the
/// service-wide totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// One [`LsmStats`] per shard, in shard order.
    pub per_shard: Vec<LsmStats>,
    /// Sum of resident elements over all shards (stale included).
    pub total_elements: usize,
    /// Sum of valid elements over all shards.
    pub valid_elements: usize,
    /// `total_elements - valid_elements`.
    pub stale_elements: usize,
    /// Sum of occupied levels over all shards.
    pub occupied_levels: usize,
    /// Sum of device memory bytes over all shards.
    pub memory_bytes: usize,
    /// Sum of Bloom-filter bytes over all shards.
    pub filter_bytes: usize,
    /// Sum of fence-array bytes over all shards.
    pub fence_bytes: usize,
    /// Sum of lifetime filter probes over all shards.
    pub filter_probes: u64,
    /// Sum of lifetime filter skips over all shards.
    pub filter_skips: u64,
    /// Sum of write-path merge counters over all shards (carry steps,
    /// incremental vs. rebuilt fence/filter maintenance).
    pub merges: crate::stats::MergeCounters,
    /// Sum of slab-arena counters over all shards (all-zero when the arena
    /// is disabled everywhere).
    pub arena: crate::arena::ArenaStats,
    /// Sum of lifetime update operations over all shards.  A split or
    /// merge passes its drained shards' counters on to their replacements,
    /// so this never decreases across a rebalance.
    pub update_ops: u64,
    /// Sum of lifetime point lookups over all shards.
    pub lookup_ops: u64,
    /// Routing-table generation (bumped by every split/merge).
    pub epoch: u64,
    /// Lifetime shard splits performed by this service.
    pub rebalance_splits: u64,
    /// Lifetime shard merges performed by this service.
    pub rebalance_merges: u64,
    /// Batches currently queued in the admission layer (0 without one —
    /// filled in by [`crate::AdmittedLsm::stats`]).
    pub admission_queued_batches: u64,
    /// Sub-batches absorbed by admission coalescing (0 without a layer).
    pub admission_coalesced_batches: u64,
    /// Batches the admission applier pushed into the shards (0 without a
    /// layer).
    pub admission_applied_batches: u64,
    /// Queue-wait percentiles of the admission layer, µs (zeroed without
    /// one — filled in by [`crate::AdmittedLsm::stats`]).
    pub admission_queue_wait: crate::latency::LatencySnapshot,
    /// Shard-apply-time percentiles of the admission layer, µs (zeroed
    /// without one).
    pub admission_apply: crate::latency::LatencySnapshot,
    /// `true` once durability has degraded to volatile operation (WAL
    /// sealed after unrecoverable I/O errors under
    /// [`crate::DegradeMode::DegradeToVolatile`]).  Sticky for the life of
    /// the handle; `false` without an admission layer.
    pub durability_degraded: bool,
    /// Lifetime durability garbage-collection failures (snapshot
    /// generations whose obsolete files could not be removed; they are
    /// retried on the next snapshot).  0 without an admission layer.
    pub durability_gc_failures: u64,
}

impl ShardedStats {
    /// Fraction of resident elements that are stale (0.0 when empty).
    pub fn stale_fraction(&self) -> f64 {
        if self.total_elements == 0 {
            0.0
        } else {
            self.stale_elements as f64 / self.total_elements as f64
        }
    }
}

impl ShardedLsm {
    /// Create an empty sharded LSM with `num_shards` power-of-two uniform
    /// shards of batch size `batch_size`, all on `device`.
    pub fn new(device: Arc<gpu_sim::Device>, batch_size: usize, num_shards: usize) -> Result<Self> {
        Self::with_router(
            device,
            batch_size,
            ShardRouter::new(num_shards)?,
            LsmConfig::default(),
        )
    }

    /// Create an empty sharded LSM with `num_shards` uniform shards,
    /// configured by an explicit [`LsmConfig`]: resolved once, here (unset
    /// fields from the `LSM_*` environment, then the defaults), and applied
    /// to every shard this service ever builds; only `par_cutoff` reaches
    /// beyond the service (see [`LsmConfig::apply_process_overrides`]).
    pub fn with_config(
        device: Arc<gpu_sim::Device>,
        batch_size: usize,
        num_shards: usize,
        config: LsmConfig,
    ) -> Result<Self> {
        Self::with_router(device, batch_size, ShardRouter::new(num_shards)?, config)
    }

    /// Create an empty sharded LSM partitioned by an explicit router — the
    /// way to start from a *learned* partition (for instance one fitted
    /// with [`ShardRouter::fit`] from a key sample).
    pub fn with_router(
        device: Arc<gpu_sim::Device>,
        batch_size: usize,
        router: ShardRouter,
        config: LsmConfig,
    ) -> Result<Self> {
        Self::build(device, batch_size, router, config.resolve()?, None)
    }

    /// Bulk-build a sharded LSM from arbitrary key–value pairs: the pairs
    /// are partitioned by shard and the shards are bulk-built one after
    /// another.  Each build's radix sort already runs on the worker pool;
    /// building shards at the same time would hold several shards' sort
    /// buffers at once, trading peak memory for a little set-up time.
    /// Configured like [`ShardedLsm::new`].
    pub fn bulk_build(
        device: Arc<gpu_sim::Device>,
        batch_size: usize,
        num_shards: usize,
        pairs: &[(Key, Value)],
    ) -> Result<Self> {
        Self::bulk_build_with_config(device, batch_size, num_shards, pairs, LsmConfig::default())
    }

    /// [`ShardedLsm::bulk_build`] configured by an explicit [`LsmConfig`],
    /// the way [`ShardedLsm::with_config`] configures an empty service.
    pub fn bulk_build_with_config(
        device: Arc<gpu_sim::Device>,
        batch_size: usize,
        num_shards: usize,
        pairs: &[(Key, Value)],
        config: LsmConfig,
    ) -> Result<Self> {
        let router = ShardRouter::new(num_shards)?;
        let config = config.resolve()?;
        Self::build(device, batch_size, router, config, Some(pairs))
    }

    /// Shared constructor body over a config a public constructor already
    /// resolved: validate, install the process-wide cutoff, build the
    /// initial routing table (from `pairs` when given).
    pub(crate) fn build(
        device: Arc<gpu_sim::Device>,
        batch_size: usize,
        router: ShardRouter,
        config: LsmConfig,
        pairs: Option<&[(Key, Value)]>,
    ) -> Result<Self> {
        if batch_size == 0 {
            return Err(LsmError::InvalidBatchSize { batch_size });
        }
        config.apply_process_overrides();
        let num_shards = router.num_shards();
        let mut per_shard: Vec<Vec<(Key, Value)>> = vec![Vec::new(); num_shards];
        if let Some(pairs) = pairs {
            if let Some(&(k, _)) = pairs.iter().find(|(k, _)| *k > MAX_KEY) {
                return Err(LsmError::KeyOutOfRange { key: k });
            }
            for &(k, v) in pairs {
                per_shard[router.shard_of(k)].push((k, v));
            }
        }
        // Shard by shard, on purpose: see `bulk_build`.
        let shards = per_shard
            .iter()
            .map(|shard_pairs| {
                GpuLsm::bulk_build_resolved(device.clone(), batch_size, shard_pairs, &config)
                    .map(ConcurrentGpuLsm::new)
            })
            .collect::<Result<Vec<_>>>()?;
        let ids = (0..num_shards as u64).collect();
        Ok(ShardedLsm {
            device,
            batch_size,
            table: Arc::new(RwLock::new(Arc::new(RoutingTable {
                router,
                shards,
                ids,
                epoch: 0,
            }))),
            config,
            rebalance: Arc::new(Mutex::new(RebalanceState::default())),
            next_shard_id: Arc::new(AtomicU64::new(num_shards as u64)),
        })
    }

    /// Reassemble a sharded service from recovered per-shard structures
    /// (crash recovery), built with the same resolved `config`: router,
    /// shard contents and epoch come from a persisted manifest, so routing
    /// and data match the snapshotted service exactly.  The epoch is carried over to stay monotonic
    /// across restarts; shard ids restart from `0..n` (the admission
    /// layer is reconstructed after recovery, so no queue identity needs
    /// to survive).
    pub(crate) fn from_parts(
        device: Arc<gpu_sim::Device>,
        batch_size: usize,
        router: ShardRouter,
        config: LsmConfig,
        shards: Vec<GpuLsm>,
        epoch: u64,
    ) -> Result<Self> {
        if batch_size == 0 {
            return Err(LsmError::InvalidBatchSize { batch_size });
        }
        if shards.len() != router.num_shards() {
            return Err(LsmError::Durability {
                context: format!(
                    "snapshot holds {} shards but its router describes {}",
                    shards.len(),
                    router.num_shards()
                ),
            });
        }
        config.apply_process_overrides();
        let num_shards = shards.len();
        let shards: Vec<ConcurrentGpuLsm> = shards.into_iter().map(ConcurrentGpuLsm::new).collect();
        Ok(ShardedLsm {
            device,
            batch_size,
            table: Arc::new(RwLock::new(Arc::new(RoutingTable {
                router,
                shards,
                ids: (0..num_shards as u64).collect(),
                epoch,
            }))),
            config,
            rebalance: Arc::new(Mutex::new(RebalanceState::default())),
            next_shard_id: Arc::new(AtomicU64::new(num_shards as u64)),
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of shards in the current routing generation.
    pub fn num_shards(&self) -> usize {
        self.table.read().shards.len()
    }

    /// The fixed per-shard batch size `b`.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// A copy of the current router.  Rebalancing may replace the routing
    /// table at any time, so this is a snapshot, not a live view.
    pub fn router(&self) -> ShardRouter {
        self.table.read().router.clone()
    }

    /// Routing-table generation: starts at 0 and is bumped by every
    /// split/merge.
    pub fn epoch(&self) -> u64 {
        self.table.read().epoch
    }

    /// The configuration this service was constructed with, resolved:
    /// fields the constructor's config left unset hold what the `LSM_*`
    /// environment set then, and fields still `None` take their defaults.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// Handle to shard `s` of the current routing generation (for
    /// diagnostics and tests).  The handle stays valid after a rebalance
    /// but then addresses a frozen, superseded shard.
    pub fn shard(&self, s: usize) -> ConcurrentGpuLsm {
        self.table.read().shards[s].clone()
    }

    /// Snapshot of the current routing generation (admission layer).
    pub(crate) fn table_snapshot(&self) -> Arc<RoutingTable> {
        self.table.read().clone()
    }

    /// Apply a pre-routed sub-batch to shard `s` while holding the routing
    /// table's read lock, so the apply cannot interleave with a
    /// rebuild-and-swap.  Used by the admission applier (which routes
    /// against its own mirror of the table).  Fails if `s` no longer
    /// exists.
    pub(crate) fn apply_routed(&self, s: usize, batch: &UpdateBatch) -> Result<()> {
        let table = self.table.read();
        if s >= table.shards.len() {
            return Err(LsmError::InvalidRebalance {
                reason: format!("shard {s} out of range for {} shards", table.shards.len()),
            });
        }
        table.shards[s].update(batch)
    }

    // ------------------------------------------------------------------
    // Updates (per-shard exclusive phases)
    // ------------------------------------------------------------------

    /// Apply a mixed update batch: validated as a whole, split by shard in
    /// one stable pass, then applied to the owning shards, at the same time
    /// when `b` per touched shard reaches the pool's cutoff (see the module
    /// docs).
    ///
    /// Validation happens *before* any shard is touched, so an invalid
    /// batch mutates nothing.  Each shard receives at most one sub-batch
    /// and applies it under its own write lock; shards not named by the
    /// batch are never locked.  The routing table's read lock is held for
    /// the duration of the apply, so the batch lands entirely in one
    /// routing generation.
    pub fn update(&self, batch: &UpdateBatch) -> Result<()> {
        {
            let table = self.table.read();
            if table.shards.len() == 1 {
                // Degenerate sharding: no split, no clone — the single
                // shard performs the identical validation itself.
                table.shards[0].update(batch)?;
            } else {
                if batch.is_empty() {
                    return Err(LsmError::EmptyBatch);
                }
                if batch.len() > self.batch_size {
                    return Err(LsmError::BatchTooLarge {
                        supplied: batch.len(),
                        batch_size: self.batch_size,
                    });
                }
                if let Some(op) = batch.ops().iter().find(|op| op.key() > MAX_KEY) {
                    return Err(LsmError::KeyOutOfRange { key: op.key() });
                }

                let parts: Vec<(usize, UpdateBatch)> = table
                    .router
                    .split_updates(batch)
                    .into_iter()
                    .enumerate()
                    .filter(|(_, p)| !p.is_empty())
                    .collect();
                // Sub-batches passed validation above (non-empty, within b,
                // keys in domain), so per-shard updates cannot fail; the
                // expect documents that invariant rather than handling a
                // reachable error.
                fan_out(
                    &parts,
                    // Each sub-batch is padded to b.
                    |_| self.batch_size,
                    |(s, part)| {
                        table.shards[*s]
                            .update(part)
                            .expect("validated sub-batch cannot be rejected");
                    },
                );
            }
        }
        if self.config.rebalance.enabled {
            self.note_batch(batch);
        }
        Ok(())
    }

    /// Insert key–value pairs (at most `b`).
    pub fn insert(&self, pairs: &[(Key, Value)]) -> Result<()> {
        self.update(&UpdateBatch::from_pairs(pairs))
    }

    /// Delete keys (at most `b`) by inserting tombstones.
    pub fn delete(&self, keys: &[Key]) -> Result<()> {
        self.update(&UpdateBatch::from_deletions(keys))
    }

    /// Remove stale elements from every shard (each under its own write
    /// lock, one shard after another) and return the aggregated report.
    /// Each shard's cleanup merges all its levels into new arrays, so, as
    /// in [`ShardedLsm::bulk_build`], running shards at the same time would
    /// hold several shards' buffers at once.
    pub fn cleanup(&self) -> CleanupReport {
        let table = self.table.read();
        // Shard by shard, on purpose: see above.
        table.shards.iter().map(ConcurrentGpuLsm::cleanup).fold(
            CleanupReport {
                elements_before: 0,
                valid_elements: 0,
                removed_elements: 0,
                placebos_added: 0,
                levels_before: 0,
                levels_after: 0,
            },
            |acc, r| CleanupReport {
                elements_before: acc.elements_before + r.elements_before,
                valid_elements: acc.valid_elements + r.valid_elements,
                removed_elements: acc.removed_elements + r.removed_elements,
                placebos_added: acc.placebos_added + r.placebos_added,
                levels_before: acc.levels_before + r.levels_before,
                levels_after: acc.levels_after + r.levels_after,
            },
        )
    }

    // ------------------------------------------------------------------
    // Online shard split / merge
    // ------------------------------------------------------------------

    /// Split shard `s` in two at a fitted key and atomically install the
    /// new routing table.  Returns the chosen split key.
    ///
    /// The split key is learned from the shard's resident data: the median
    /// of its per-level fence samples (an order-statistics sketch that
    /// already exists for query acceleration) combined with the recent
    /// update keys falling in the shard's range, with the midpoint of the
    /// shard's bounds as the data-free fallback.
    pub fn split_shard(&self, s: usize) -> Result<Key> {
        let key = self.fit_split_key(s)?;
        self.split_shard_at(s, key)?;
        Ok(key)
    }

    /// Split shard `s` in two at an explicit `key` (the left half keeps
    /// `[lo, key − 1]`, the right half gets `[key, hi]`) and atomically
    /// install the new routing table.  Concurrent queries keep their
    /// snapshot of the old generation; concurrent updates are excluded for
    /// the duration of the rebuild by the table's write lock.
    pub fn split_shard_at(&self, s: usize, key: Key) -> Result<()> {
        let mut guard = self.table.write();
        let table = guard.clone();
        let router = table.router.with_split(s, key)?;
        let (lo, hi) = table.router.shard_bounds(s);
        // Rebuild from the immutable sorted runs: a full-range read of the
        // shard's *visible* state (equivalent to a cleanup — stale
        // duplicates and spent tombstones are dropped, which is safe
        // because every key is owned by exactly one shard).
        let pairs = Self::extract_pairs(&table.shards[s], lo, hi);
        let cut = pairs.partition_point(|&(k, _)| k < key);
        let left = self.build_shard(&pairs[..cut])?;
        let right = self.build_shard(&pairs[cut..])?;
        // The replacement shards inherit the drained shard's cumulative
        // operation counters (split evenly — the historical per-half
        // attribution is unknowable), so per-shard load stays comparable
        // across rebalances in `stats()`.
        let (parent_updates, parent_lookups) =
            table.shards[s].with_read(|l| l.op_activity.snapshot());
        let left_updates = parent_updates / 2;
        let left_lookups = parent_lookups / 2;
        left.with_read(|l| {
            l.op_activity.record_updates(left_updates);
            l.op_activity.record_lookups(left_lookups);
        });
        right.with_read(|l| {
            l.op_activity.record_updates(parent_updates - left_updates);
            l.op_activity.record_lookups(parent_lookups - left_lookups);
        });
        let mut shards = table.shards.clone();
        let mut ids = table.ids.clone();
        let old_id = ids[s];
        shards[s] = left;
        ids[s] = self.next_shard_id.fetch_add(1, Ordering::Relaxed);
        shards.insert(s + 1, right);
        ids.insert(s + 1, self.next_shard_id.fetch_add(1, Ordering::Relaxed));
        let (left_id, right_id) = (ids[s], ids[s + 1]);
        *guard = Arc::new(RoutingTable {
            router,
            shards,
            ids,
            epoch: table.epoch + 1,
        });
        drop(guard);
        let mut st = self.rebalance.lock();
        st.splits += 1;
        // Keep the detection baselines coherent: the replacements start a
        // fresh window at their inherited counter value (delta 0);
        // survivors keep their windows.
        st.baselines.remove(&old_id);
        st.baselines.insert(left_id, left_updates);
        st.baselines.insert(right_id, parent_updates - left_updates);
        Ok(())
    }

    /// Merge shards `s` and `s + 1` into one and atomically install the
    /// new routing table.
    pub fn merge_shards(&self, s: usize) -> Result<()> {
        let mut guard = self.table.write();
        let table = guard.clone();
        let router = table.router.with_merge(s)?;
        let (lo, _) = table.router.shard_bounds(s);
        let (_, hi) = table.router.shard_bounds(s + 1);
        // The two ranges are adjacent and each extract is key-sorted, so
        // their concatenation is the merged shard's sorted visible state.
        let mut pairs = Self::extract_pairs(&table.shards[s], lo, table.router.shard_bounds(s).1);
        pairs.extend(Self::extract_pairs(
            &table.shards[s + 1],
            table.router.shard_bounds(s + 1).0,
            hi,
        ));
        let merged = self.build_shard(&pairs)?;
        // Counter inheritance, as in `split_shard_at`: the merged shard
        // carries the sum of its parents' cumulative operation counters.
        let (a_updates, a_lookups) = table.shards[s].with_read(|l| l.op_activity.snapshot());
        let (b_updates, b_lookups) = table.shards[s + 1].with_read(|l| l.op_activity.snapshot());
        merged.with_read(|l| {
            l.op_activity.record_updates(a_updates + b_updates);
            l.op_activity.record_lookups(a_lookups + b_lookups);
        });
        let mut shards = table.shards.clone();
        let mut ids = table.ids.clone();
        let (a_id, b_id) = (ids[s], ids[s + 1]);
        shards[s] = merged;
        ids[s] = self.next_shard_id.fetch_add(1, Ordering::Relaxed);
        shards.remove(s + 1);
        ids.remove(s + 1);
        let merged_id = ids[s];
        *guard = Arc::new(RoutingTable {
            router,
            shards,
            ids,
            epoch: table.epoch + 1,
        });
        drop(guard);
        let mut st = self.rebalance.lock();
        st.merges += 1;
        st.baselines.remove(&a_id);
        st.baselines.remove(&b_id);
        st.baselines.insert(merged_id, a_updates + b_updates);
        Ok(())
    }

    /// The shard's visible key–value pairs in `[lo, hi]`, key-sorted.
    fn extract_pairs(shard: &ConcurrentGpuLsm, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        let result = shard.range(&[(lo, hi)]);
        let (keys, values) = result.query(0);
        keys.iter().copied().zip(values.iter().copied()).collect()
    }

    /// Bulk-build one replacement shard from extracted pairs with the
    /// service's resolved config.
    fn build_shard(&self, pairs: &[(Key, Value)]) -> Result<ConcurrentGpuLsm> {
        let lsm =
            GpuLsm::bulk_build_resolved(self.device.clone(), self.batch_size, pairs, &self.config)?;
        Ok(ConcurrentGpuLsm::new(lsm))
    }

    /// Fit a split key for shard `s` from its fence samples and the
    /// recent-key reservoir (midpoint fallback when there is no data).
    fn fit_split_key(&self, s: usize) -> Result<Key> {
        let table = self.table.read();
        if s >= table.shards.len() {
            return Err(LsmError::InvalidRebalance {
                reason: format!("shard {s} out of range for {} shards", table.shards.len()),
            });
        }
        let (lo, hi) = table.router.shard_bounds(s);
        if lo >= hi {
            return Err(LsmError::InvalidRebalance {
                reason: format!("shard {s} owns a single key and cannot be split"),
            });
        }
        let mut sample: Vec<Key> = table.shards[s].with_read(|l| l.fence_sample_keys());
        {
            let st = self.rebalance.lock();
            sample.extend(st.recent_keys.iter().copied());
        }
        sample.retain(|&k| k > lo && k <= hi);
        drop(table);
        if sample.is_empty() {
            // No resident data, no observed traffic: bisect the range.
            return Ok(lo + (hi - lo) / 2 + 1);
        }
        sample.sort_unstable();
        Ok(sample[sample.len() / 2].clamp(lo + 1, hi))
    }

    /// Evaluate the hot/cold thresholds against per-shard update traffic
    /// since the last evaluation.  Returns a decision without executing it
    /// (the admission layer needs to drain queues before acting).  Returns
    /// `None` when the traffic sample is below
    /// [`crate::RebalanceConfig::min_ops`] or no threshold trips.
    pub fn plan_rebalance(&self) -> Option<RebalanceAction> {
        let cfg = &self.config.rebalance;
        let table = self.table_snapshot();
        let current: Vec<(u64, u64)> = table
            .shards
            .iter()
            .zip(table.ids.iter())
            .map(|(shard, &id)| (id, shard.with_read(|l| l.stats().update_ops)))
            .collect();
        let mut st = self.rebalance.lock();
        let deltas: Vec<u64> = current
            .iter()
            .map(|&(id, ops)| ops.saturating_sub(st.baselines.get(&id).copied().unwrap_or(0)))
            .collect();
        let total: u64 = deltas.iter().sum();
        if total < cfg.min_ops {
            return None;
        }
        // A threshold evaluation happened: re-baseline so the next window
        // measures fresh traffic.
        st.baselines = current.into_iter().collect();
        drop(st);

        let n = table.shards.len();
        let (hot, &hot_delta) = deltas
            .iter()
            .enumerate()
            .max_by_key(|&(_, d)| *d)
            .expect("at least one shard");
        if n < cfg.max_shards && (hot_delta as f64) > cfg.hot_fraction * total as f64 {
            let (lo, hi) = table.router.shard_bounds(hot);
            if lo < hi {
                return Some(RebalanceAction::Split(hot));
            }
        }
        if n > cfg.min_shards.max(1) {
            let (cold, pair_delta) = (0..n - 1)
                .map(|i| (i, deltas[i] + deltas[i + 1]))
                .min_by_key(|&(_, d)| d)
                .expect("at least one adjacent pair");
            if (pair_delta as f64) < cfg.cold_fraction * total as f64 {
                return Some(RebalanceAction::Merge(cold));
            }
        }
        None
    }

    /// Execute a rebalance decision.
    pub fn apply_rebalance(&self, action: RebalanceAction) -> Result<()> {
        match action {
            RebalanceAction::Split(s) => self.split_shard(s).map(|_| ()),
            RebalanceAction::Merge(s) => self.merge_shards(s),
        }
    }

    /// Plan and (if a threshold trips) execute one rebalance.  Returns the
    /// action taken, if any.  Called automatically from the update path
    /// every [`crate::RebalanceConfig::check_interval`] batches when rebalancing
    /// is enabled; harmless to call directly.
    pub fn maybe_rebalance(&self) -> Option<RebalanceAction> {
        let action = self.plan_rebalance()?;
        // A planned action can still fail under racing rebalances (the
        // index may be stale by the time the write lock is taken); the
        // next evaluation simply plans again.
        self.apply_rebalance(action).ok()?;
        Some(action)
    }

    /// Record an applied batch for hot-shard detection: sample a few keys
    /// into the reservoir and run the detector every `check_interval`
    /// batches.
    fn note_batch(&self, batch: &UpdateBatch) {
        let due = {
            let mut st = self.rebalance.lock();
            let ops = batch.ops();
            let stride = (ops.len() / KEYS_PER_BATCH_SAMPLE).max(1);
            for op in ops.iter().step_by(stride) {
                let pos = st.recent_pos % RECENT_KEY_CAP;
                if pos < st.recent_keys.len() {
                    st.recent_keys[pos] = op.key();
                } else {
                    st.recent_keys.push(op.key());
                }
                st.recent_pos = st.recent_pos.wrapping_add(1);
            }
            st.batches_since_check += 1;
            if st.batches_since_check >= self.config.rebalance.check_interval {
                st.batches_since_check = 0;
                true
            } else {
                false
            }
        };
        if due {
            self.maybe_rebalance();
        }
    }

    // ------------------------------------------------------------------
    // Queries (per-shard shared phases, fan-out + reassembly)
    // ------------------------------------------------------------------

    /// Bulk point lookups: routed to the owning shards, executed per shard
    /// through [`GpuLsm::lookup`] (each shard searches its sub-batch in the
    /// callers' order), reassembled in input order.  The shards run at the
    /// same time when the call's (key, level) searches reach the pool's
    /// cutoff (see the module docs).
    pub fn lookup(&self, queries: &[Key]) -> Vec<Option<Value>> {
        self.lookup_with(queries, ConcurrentGpuLsm::lookup)
    }

    /// Warp-style bulk lookups: routed to the owning shards, executed per
    /// shard through [`GpuLsm::bulk_get`] (each shard sorts its sub-batch
    /// first), reassembled in input order; the shards run at the same
    /// time by the same rule as [`ShardedLsm::lookup`].  Results are
    /// identical to [`ShardedLsm::lookup`].
    pub fn bulk_get(&self, queries: &[Key]) -> Vec<Option<Value>> {
        self.lookup_with(queries, ConcurrentGpuLsm::bulk_get)
    }

    /// Shared fan-out of the point lookups: route, resolve each shard's
    /// sub-batch with `resolve`, reassemble in input order.
    fn lookup_with(
        &self,
        queries: &[Key],
        resolve: impl Fn(&ConcurrentGpuLsm, &[Key]) -> Vec<Option<Value>> + Sync,
    ) -> Vec<Option<Value>> {
        let table = self.table_snapshot();
        let parts = table.router.split_lookups(queries);
        let routed: Vec<(usize, &RoutedLookups)> = parts
            .iter()
            .enumerate()
            .filter(|(_, (keys, _))| !keys.is_empty())
            .collect();
        let shard_answers = fan_out(
            &routed,
            |(s, (keys, _))| level_searches(&table.shards[*s], keys.len(), 1),
            |(s, (keys, positions))| (positions.as_slice(), resolve(&table.shards[*s], keys)),
        );
        let mut out = vec![None; queries.len()];
        for (positions, answers) in shard_answers {
            for (&pos, ans) in positions.iter().zip(answers) {
                out[pos] = ans;
            }
        }
        out
    }

    /// Bulk count queries: each interval is decomposed into per-shard
    /// sub-intervals; sub-counts are disjoint by construction (shards own
    /// disjoint key ranges) so they sum to the global answer.  The shards
    /// run at the same time by the rule of [`ShardedLsm::lookup`].
    pub fn count(&self, queries: &[(Key, Key)]) -> Vec<u32> {
        let table = self.table_snapshot();
        let (subs, by_shard) = intervals_with(&table, queries, ConcurrentGpuLsm::count);
        // Sub-queries come query-major and shard-ascending, and each
        // shard's answers in the order its sub-queries were emitted.
        let mut next = vec![0; by_shard.len()];
        let mut out = vec![0u32; queries.len()];
        for sub in &subs {
            out[sub.query] += by_shard[sub.shard][next[sub.shard]];
            next[sub.shard] += 1;
        }
        out
    }

    /// Bulk range queries: per-shard sub-results are concatenated in shard
    /// order per query, which yields each query's pairs globally sorted by
    /// key (the partition is by key range).  The shards run at the same
    /// time by the rule of [`ShardedLsm::lookup`].
    pub fn range(&self, queries: &[(Key, Key)]) -> RangeResult {
        let table = self.table_snapshot();
        let (subs, by_shard) = intervals_with(&table, queries, ConcurrentGpuLsm::range);
        let total = by_shard.iter().map(RangeResult::total_len).sum();
        let mut out = RangeResult {
            offsets: Vec::with_capacity(queries.len() + 1),
            keys: Vec::with_capacity(total),
            values: Vec::with_capacity(total),
        };
        out.offsets.push(0);
        // One pass over the sub-queries, which come query-major and
        // shard-ascending: a query's shard slices are appended in key
        // order, and its offset closes when the next query begins.
        let mut next = vec![0; by_shard.len()];
        for sub in &subs {
            while out.offsets.len() <= sub.query {
                out.offsets.push(out.keys.len());
            }
            let (keys, values) = by_shard[sub.shard].query(next[sub.shard]);
            next[sub.shard] += 1;
            out.keys.extend_from_slice(keys);
            out.values.extend_from_slice(values);
        }
        out.offsets.resize(queries.len() + 1, out.keys.len());
        out
    }

    /// Bulk successor queries (smallest valid key strictly greater than
    /// each query key).  The owning shard is asked first; if it has no
    /// successor the scan walks the higher shards in key order.
    pub fn successor(&self, queries: &[Key]) -> Vec<Option<(Key, Value)>> {
        let table = self.table_snapshot();
        queries
            .par_iter()
            .map(|&q| Self::successor_in(&table, q))
            .collect()
    }

    /// Bulk predecessor queries (largest valid key strictly smaller than
    /// each query key).
    pub fn predecessor(&self, queries: &[Key]) -> Vec<Option<(Key, Value)>> {
        let table = self.table_snapshot();
        queries
            .par_iter()
            .map(|&q| Self::predecessor_in(&table, q))
            .collect()
    }

    /// Successor of a single key across shards.
    ///
    /// Before a shard's levels are searched, its per-level min/max fences
    /// (aggregated by [`GpuLsm::max_resident_key`]) are consulted under the
    /// same read lock: a shard whose largest resident key is `<= probe` —
    /// in particular an empty shard — provably has no candidate and is
    /// skipped without any binary searches.
    pub fn successor_one(&self, query: Key) -> Option<(Key, Value)> {
        Self::successor_in(&self.table_snapshot(), query)
    }

    /// Predecessor of a single key across shards (fence-skipping the
    /// shards whose smallest resident key is `>= probe`, see
    /// [`ShardedLsm::successor_one`]).
    pub fn predecessor_one(&self, query: Key) -> Option<(Key, Value)> {
        Self::predecessor_in(&self.table_snapshot(), query)
    }

    fn successor_in(table: &RoutingTable, query: Key) -> Option<(Key, Value)> {
        let first = table.router.shard_of(query.min(MAX_KEY));
        for s in first..table.shards.len() {
            // For shards above the owner, any resident key is greater than
            // the query, so probing with the key just below the shard's
            // range yields the shard's smallest valid key.
            let probe = if s == first {
                query
            } else {
                table.router.shard_bounds(s).0 - 1
            };
            let found = table.shards[s].with_read(|lsm| {
                if lsm.max_resident_key().is_none_or(|max| max <= probe) {
                    return None; // no resident key can exceed the probe
                }
                lsm.successor_one(probe)
            });
            if found.is_some() {
                return found;
            }
        }
        None
    }

    fn predecessor_in(table: &RoutingTable, query: Key) -> Option<(Key, Value)> {
        let first = table.router.shard_of(query.min(MAX_KEY));
        for s in (0..=first).rev() {
            let probe = if s == first {
                query
            } else {
                // The key just above the shard's range: its predecessor is
                // the shard's largest valid key.
                table.router.shard_bounds(s).1 + 1
            };
            let found = table.shards[s].with_read(|lsm| {
                if lsm.min_resident_key().is_none_or(|min| min >= probe) {
                    return None; // no resident key can undercut the probe
                }
                lsm.predecessor_one(probe)
            });
            if found.is_some() {
                return found;
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Aggregated statistics: per-shard snapshots plus service totals.  The
    /// shards are scanned at the same time when their resident elements
    /// reach the pool's cutoff (see the module docs).
    pub fn stats(&self) -> ShardedStats {
        let table = self.table_snapshot();
        let per_shard = fan_out(
            &table.shards,
            // Resident elements, r · b: each shard's stats scan them.
            |s| s.num_batches() * self.batch_size,
            ConcurrentGpuLsm::stats,
        );
        let (splits, merges) = {
            let st = self.rebalance.lock();
            (st.splits, st.merges)
        };
        let mut agg = ShardedStats {
            total_elements: 0,
            valid_elements: 0,
            stale_elements: 0,
            occupied_levels: 0,
            memory_bytes: 0,
            filter_bytes: 0,
            fence_bytes: 0,
            filter_probes: 0,
            filter_skips: 0,
            merges: crate::stats::MergeCounters::default(),
            arena: crate::arena::ArenaStats::default(),
            update_ops: 0,
            lookup_ops: 0,
            epoch: table.epoch,
            rebalance_splits: splits,
            rebalance_merges: merges,
            admission_queued_batches: 0,
            admission_coalesced_batches: 0,
            admission_applied_batches: 0,
            admission_queue_wait: crate::latency::LatencySnapshot::default(),
            admission_apply: crate::latency::LatencySnapshot::default(),
            durability_degraded: false,
            durability_gc_failures: 0,
            per_shard: Vec::new(),
        };
        for s in &per_shard {
            agg.total_elements += s.total_elements;
            agg.valid_elements += s.valid_elements;
            agg.stale_elements += s.stale_elements;
            agg.occupied_levels += s.occupied_levels;
            agg.memory_bytes += s.memory_bytes;
            agg.filter_bytes += s.filter_bytes;
            agg.fence_bytes += s.fence_bytes;
            agg.filter_probes += s.filter_probes;
            agg.filter_skips += s.filter_skips;
            agg.merges.add(&s.merges);
            agg.arena.add(&s.arena);
            agg.update_ops += s.update_ops;
            agg.lookup_ops += s.lookup_ops;
        }
        agg.per_shard = per_shard;
        agg
    }

    /// Check every shard's structural invariants plus the sharding
    /// invariant: every non-placebo element resides in the shard that owns
    /// its key.  (Placebo padding elements are max-key tombstones by
    /// construction and are exempt — every shard pads with them.)
    pub fn check_invariants(&self) -> std::result::Result<(), InvariantViolation> {
        let table = self.table_snapshot();
        for (s, shard) in table.shards.iter().enumerate() {
            shard.with_read(|lsm| {
                lsm.check_invariants().map_err(|InvariantViolation(msg)| {
                    InvariantViolation(format!("shard {s}: {msg}"))
                })?;
                let (lo, hi) = table.router.shard_bounds(s);
                for (i, level) in lsm.levels().iter_occupied() {
                    for &enc in level.keys() {
                        let key = original_key(enc);
                        let placebo = key == MAX_KEY && is_tombstone(enc);
                        if !placebo && (key < lo || key > hi) {
                            return Err(InvariantViolation(format!(
                                "shard {s} level {i} holds key {key} outside its range [{lo}, {hi}]"
                            )));
                        }
                    }
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

/// Run `task` on every item of a shard fan-out and collect the results in
/// item order: at the same time when the items' summed `work` reaches the
/// pool's sequential cutoff, else one after another on the caller's
/// thread (see the module docs).  Each item counts at least one unit, its
/// shard's lock and call, so a cutoff of 1 (`LSM_PAR_CUTOFF=1`) sends
/// every multi-shard fan-out through the pool.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    work: impl Fn(&T) -> usize,
    task: impl Fn(&T) -> R + Sync + Send + Clone,
) -> Vec<R> {
    let work = items.iter().map(|item| work(item).max(1)).sum();
    items.par_iter().with_work(work).map(task).collect()
}

/// The level searches the device model books for `queries` sub-queries on
/// `shard`: `searches` per query and occupied level (the popcount of its
/// batch counter).
fn level_searches(shard: &ConcurrentGpuLsm, queries: usize, searches: usize) -> usize {
    queries * searches * shard.num_batches().count_ones() as usize
}

/// Shared fan-out of the interval queries: route `queries` to per-shard
/// sub-queries and answer each touched shard's list with `resolve`, stating
/// the device model's two bound searches per (sub-query, level) as the
/// call's work.
/// Returns the sub-queries as [`ShardRouter::split_intervals`] emits them
/// (query-major, shard-ascending) and one answer per shard, in shard
/// order (`R::default()` for a shard no query touched).
fn intervals_with<R: Default + Send>(
    table: &RoutingTable,
    queries: &[(Key, Key)],
    resolve: impl Fn(&ConcurrentGpuLsm, &[(Key, Key)]) -> R + Sync,
) -> (Vec<SubQuery>, Vec<R>) {
    let subs = table.router.split_intervals(queries);
    let mut per_shard: Vec<Vec<(Key, Key)>> = vec![Vec::new(); table.shards.len()];
    for sub in &subs {
        per_shard[sub.shard].push((sub.lo, sub.hi));
    }
    let routed: Vec<(usize, &Vec<(Key, Key)>)> = per_shard
        .iter()
        .enumerate()
        .filter(|(_, qs)| !qs.is_empty())
        .collect();
    let answers = fan_out(
        &routed,
        |(s, qs)| level_searches(&table.shards[*s], qs.len(), SEARCHES_PER_LEVEL),
        |(s, qs)| resolve(&table.shards[*s], qs),
    );
    let mut by_shard: Vec<R> = std::iter::repeat_with(R::default)
        .take(table.shards.len())
        .collect();
    for (&(s, _), answer) in routed.iter().zip(answers) {
        by_shard[s] = answer;
    }
    (subs, by_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RebalanceConfig;
    use gpu_sim::{Device, DeviceConfig};

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    fn sharded(batch_size: usize, num_shards: usize) -> ShardedLsm {
        ShardedLsm::new(device(), batch_size, num_shards).unwrap()
    }

    /// Keys that land in shard `s` of `n` shards: the shard's low bound
    /// plus small offsets.
    fn key_in(n: usize, s: usize, offset: u32) -> u32 {
        let router = ShardRouter::new(n).unwrap();
        router.shard_bounds(s).0 + offset
    }

    #[test]
    fn rejects_invalid_shard_counts_and_batch_sizes() {
        assert!(matches!(
            ShardedLsm::new(device(), 8, 3).unwrap_err(),
            LsmError::InvalidShardCount { num_shards: 3 }
        ));
        assert!(matches!(
            ShardedLsm::new(device(), 0, 2).unwrap_err(),
            LsmError::InvalidBatchSize { batch_size: 0 }
        ));
    }

    #[test]
    fn basic_crud_across_shards() {
        let lsm = sharded(8, 4);
        let keys: Vec<u32> = (0..4).map(|s| key_in(4, s, 7)).collect();
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k % 1000)).collect();
        lsm.insert(&pairs).unwrap();
        assert_eq!(
            lsm.lookup(&keys),
            pairs.iter().map(|&(_, v)| Some(v)).collect::<Vec<_>>()
        );
        lsm.delete(&[keys[2]]).unwrap();
        assert_eq!(lsm.lookup(&[keys[2]]), vec![None]);
        assert_eq!(lsm.count(&[(0, MAX_KEY)]), vec![3]);
        lsm.check_invariants().unwrap();
    }

    #[test]
    fn update_validation_mutates_nothing() {
        let lsm = sharded(2, 2);
        assert_eq!(
            lsm.update(&UpdateBatch::new()).unwrap_err(),
            LsmError::EmptyBatch
        );
        let err = lsm.insert(&[(1, 1), (2, 2), (3, 3)]).unwrap_err();
        assert!(matches!(err, LsmError::BatchTooLarge { .. }));
        let mut batch = UpdateBatch::new();
        batch.insert(1, 1).insert(MAX_KEY + 1, 0);
        assert_eq!(
            lsm.update(&batch).unwrap_err(),
            LsmError::KeyOutOfRange { key: MAX_KEY + 1 }
        );
        // Nothing was applied, not even the valid prefix.
        assert_eq!(lsm.stats().total_elements, 0);
        assert_eq!(lsm.lookup(&[1]), vec![None]);
    }

    #[test]
    fn cross_shard_range_concatenates_in_key_order() {
        let lsm = sharded(16, 4);
        // Three keys per shard, clustered at each shard's low boundary.
        let mut pairs = Vec::new();
        for s in 0..4 {
            for off in 0..3u32 {
                let k = key_in(4, s, off);
                pairs.push((k, s as u32 * 10 + off));
            }
        }
        lsm.insert(&pairs).unwrap();
        let result = lsm.range(&[(0, MAX_KEY)]);
        let (keys, values) = result.query(0);
        let mut expected = pairs.clone();
        expected.sort_unstable();
        assert_eq!(keys, expected.iter().map(|&(k, _)| k).collect::<Vec<_>>());
        assert_eq!(values, expected.iter().map(|&(_, v)| v).collect::<Vec<_>>());
    }

    #[test]
    fn single_shard_matches_plain_lsm_byte_for_byte() {
        let sharded = sharded(8, 1);
        let mut plain = GpuLsm::new(device(), 8).unwrap();
        let pairs: Vec<(u32, u32)> = (0..8).map(|i| (i * 1000, i)).collect();
        sharded.insert(&pairs).unwrap();
        plain.insert(&pairs).unwrap();
        sharded.delete(&[2000, 5000]).unwrap();
        plain.delete(&[2000, 5000]).unwrap();

        let lookups: Vec<u32> = (0..9000).step_by(500).collect();
        assert_eq!(sharded.lookup(&lookups), plain.lookup(&lookups));
        let intervals = vec![(0, 3500), (3500, 3500), (9000, 1), (0, MAX_KEY)];
        assert_eq!(sharded.count(&intervals), plain.count(&intervals));
        assert_eq!(sharded.range(&intervals), plain.range(&intervals));
        assert_eq!(sharded.successor(&[0, 2000]), plain.successor(&[0, 2000]));
        assert_eq!(
            sharded.predecessor(&[7000, 1]),
            plain.predecessor(&[7000, 1])
        );
    }

    #[test]
    fn successor_and_predecessor_cross_shard_boundaries() {
        let lsm = sharded(4, 4);
        // One key in shard 0 and one in shard 3; shards 1 and 2 are empty.
        let a = key_in(4, 0, 5);
        let b = key_in(4, 3, 9);
        lsm.insert(&[(a, 1), (b, 2)]).unwrap();
        assert_eq!(lsm.successor(&[a]), vec![Some((b, 2))]);
        assert_eq!(lsm.predecessor(&[b]), vec![Some((a, 1))]);
        assert_eq!(lsm.successor(&[b]), vec![None]);
        assert_eq!(lsm.predecessor(&[a]), vec![None]);
        // A query inside an empty middle shard sees across both boundaries.
        let mid = key_in(4, 1, 3);
        assert_eq!(lsm.successor(&[mid]), vec![Some((b, 2))]);
        assert_eq!(lsm.predecessor(&[mid]), vec![Some((a, 1))]);
    }

    #[test]
    fn cleanup_and_stats_aggregate_across_shards() {
        let lsm = sharded(4, 2);
        let low = key_in(2, 0, 1);
        let high = key_in(2, 1, 1);
        lsm.insert(&[(low, 1), (high, 2)]).unwrap();
        lsm.insert(&[(low, 3), (high + 1, 4)]).unwrap();
        lsm.delete(&[high]).unwrap();
        let stats = lsm.stats();
        assert_eq!(stats.per_shard.len(), 2);
        assert_eq!(stats.valid_elements, 2); // low (=3), high+1
        assert!(stats.stale_fraction() > 0.0);
        assert_eq!(stats.update_ops, 5);
        assert_eq!(stats.epoch, 0);
        let report = lsm.cleanup();
        assert_eq!(report.valid_elements, 2);
        let after = lsm.stats();
        assert_eq!(after.valid_elements, 2);
        assert!(after.total_elements <= stats.total_elements);
        assert_eq!(
            lsm.lookup(&[low, high, high + 1]),
            vec![Some(3), None, Some(4)]
        );
        lsm.check_invariants().unwrap();
    }

    #[test]
    fn span_calls_reach_the_pool_cutoff_from_two_occupied_levels() {
        // The pool's sequential cutoff when `LSM_PAR_CUTOFF` is unset.
        const CUTOFF: usize = 4096;
        let shard = ConcurrentGpuLsm::create(device(), 1).unwrap();
        let mut stated = Vec::new();
        for key in 0..3 {
            shard.insert(&[(key, key)]).unwrap();
            stated.push((
                shard.num_batches().count_ones(),
                level_searches(&shard, 4096, 1),
                level_searches(&shard, 1024, SEARCHES_PER_LEVEL),
            ));
        }
        // A 4096-key lookup reaches the cutoff at one occupied level, a
        // 1024-span count or range at two.
        assert_eq!(
            stated,
            [
                (1, CUTOFF, CUTOFF / 2),
                (1, CUTOFF, CUTOFF / 2),
                (2, 2 * CUTOFF, CUTOFF)
            ]
        );
    }

    #[test]
    fn bulk_build_distributes_by_key_range() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i * (MAX_KEY / 100), i)).collect();
        let lsm = ShardedLsm::bulk_build(device(), 16, 4, &pairs).unwrap();
        lsm.check_invariants().unwrap();
        let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
        assert_eq!(
            lsm.lookup(&keys),
            pairs.iter().map(|&(_, v)| Some(v)).collect::<Vec<_>>()
        );
        assert_eq!(lsm.count(&[(0, MAX_KEY)]), vec![100]);
        // Every shard received some of the evenly spread keys.
        assert!(lsm.stats().per_shard.iter().all(|s| s.total_elements > 0));
    }

    /// Every shard's lock-free batch-counter copy, which sizes the
    /// fan-outs, equals its counter: a stale copy would send large calls
    /// inline.
    fn assert_batch_copies_current(lsm: &ShardedLsm) {
        for shard in &lsm.table_snapshot().shards {
            assert_eq!(shard.num_batches(), shard.with_read(GpuLsm::num_batches));
        }
    }

    #[test]
    fn batch_counter_copies_follow_every_write_and_rebuild() {
        let lsm = sharded(4, 2);
        let keys: Vec<u32> = (0..8).map(|i| key_in(2, i % 2, i as u32)).collect();
        let mut batch = UpdateBatch::new();
        batch.insert(keys[0], 1).insert(keys[1], 2).delete(keys[2]);
        lsm.update(&batch).unwrap();
        assert_batch_copies_current(&lsm);
        let pairs: Vec<(u32, u32)> = keys[..4].iter().map(|&k| (k, k % 100)).collect();
        lsm.insert(&pairs).unwrap();
        assert_batch_copies_current(&lsm);
        lsm.delete(&keys[4..6]).unwrap();
        assert_batch_copies_current(&lsm);
        lsm.cleanup();
        assert_batch_copies_current(&lsm);
        lsm.insert(&pairs).unwrap();
        lsm.split_shard_at(0, keys[2]).unwrap();
        assert_batch_copies_current(&lsm);
        lsm.merge_shards(0).unwrap();
        assert_batch_copies_current(&lsm);

        let built = ShardedLsm::bulk_build(device(), 4, 2, &pairs).unwrap();
        assert_batch_copies_current(&built);

        // Crash recovery reassembles the service from recovered shards.
        let recovered: Vec<GpuLsm> = (0..2)
            .map(|s| {
                let mut shard = GpuLsm::new(device(), 4).unwrap();
                for i in 0..=s as u32 {
                    shard.insert(&[(key_in(2, s, i), i)]).unwrap();
                }
                shard
            })
            .collect();
        let config = lsm.config().clone();
        let restored = ShardedLsm::from_parts(
            device(),
            4,
            ShardRouter::new(2).unwrap(),
            config,
            recovered,
            3,
        )
        .unwrap();
        assert_batch_copies_current(&restored);
        let copies: Vec<usize> = restored
            .table_snapshot()
            .shards
            .iter()
            .map(ConcurrentGpuLsm::num_batches)
            .collect();
        assert_eq!(copies, vec![1, 2]);
    }

    #[test]
    fn clones_share_state() {
        let lsm = sharded(4, 2);
        let clone = lsm.clone();
        lsm.insert(&[(1, 10)]).unwrap();
        assert_eq!(clone.lookup(&[1]), vec![Some(10)]);
    }

    #[test]
    fn learned_router_service_answers_like_uniform() {
        let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i * 97, i)).collect();
        let learned = ShardedLsm::with_router(
            device(),
            16,
            ShardRouter::learned(vec![1_000, 5_000, 12_000]).unwrap(),
            LsmConfig::default(),
        )
        .unwrap();
        let uniform = sharded(16, 4);
        for chunk in pairs.chunks(16) {
            learned.insert(chunk).unwrap();
            uniform.insert(chunk).unwrap();
        }
        learned.check_invariants().unwrap();
        let keys: Vec<u32> = (0..220u32).map(|i| i * 97 + (i % 3)).collect();
        assert_eq!(learned.lookup(&keys), uniform.lookup(&keys));
        let intervals = [(0, 6_000), (5_000, MAX_KEY), (12_000, 11_000)];
        assert_eq!(learned.count(&intervals), uniform.count(&intervals));
        assert_eq!(learned.range(&intervals), uniform.range(&intervals));
        assert_eq!(
            learned.successor(&[0, 4_999, 19_000]),
            uniform.successor(&[0, 4_999, 19_000])
        );
    }

    #[test]
    fn split_preserves_visible_state_and_rebalances_ownership() {
        let lsm = sharded(8, 2);
        let keys: Vec<u32> = (0..40u32).map(|i| i * 13).collect();
        for chunk in keys.chunks(8) {
            let pairs: Vec<(u32, u32)> = chunk.iter().map(|&k| (k, k + 1)).collect();
            lsm.insert(&pairs).unwrap();
        }
        lsm.delete(&[keys[3], keys[7]]).unwrap();
        let before_lookup = lsm.lookup(&keys);
        let before_count = lsm.count(&[(0, MAX_KEY)]);
        let before_updates = lsm.stats().update_ops;
        assert_eq!(before_updates, 42);

        let split_key = lsm.split_shard(0).unwrap();
        assert_eq!(lsm.num_shards(), 3);
        assert_eq!(lsm.epoch(), 1);
        assert_eq!(
            lsm.stats().update_ops,
            before_updates,
            "split keeps counters"
        );
        let router = lsm.router();
        assert!(router.split_points().contains(&split_key));
        lsm.check_invariants().unwrap();
        // All data lived in shard 0 (keys < 2^30), so the fitted split key
        // must land inside the data, not at the range midpoint.
        assert!(split_key <= keys[39]);
        assert_eq!(lsm.lookup(&keys), before_lookup);
        assert_eq!(lsm.count(&[(0, MAX_KEY)]), before_count);

        // Merge the two halves back together; answers still unchanged.
        lsm.merge_shards(0).unwrap();
        assert_eq!(lsm.num_shards(), 2);
        assert_eq!(lsm.epoch(), 2);
        lsm.check_invariants().unwrap();
        assert_eq!(lsm.lookup(&keys), before_lookup);
        assert_eq!(lsm.count(&[(0, MAX_KEY)]), before_count);
        let stats = lsm.stats();
        assert_eq!(stats.rebalance_splits, 1);
        assert_eq!(stats.rebalance_merges, 1);
        assert_eq!(stats.update_ops, before_updates, "merge keeps counters");

        // Updates keep working against the new routing generation.
        lsm.insert(&[(split_key, 42)]).unwrap();
        assert_eq!(lsm.lookup(&[split_key]), vec![Some(42)]);
    }

    #[test]
    fn explicit_split_at_key_controls_the_boundary() {
        let lsm = sharded(4, 1);
        lsm.insert(&[(10, 1), (20, 2), (30, 3), (40, 4)]).unwrap();
        lsm.split_shard_at(0, 25).unwrap();
        assert_eq!(lsm.num_shards(), 2);
        assert_eq!(lsm.router().split_points(), vec![25]);
        // Left shard holds 10 and 20; right shard holds 30 and 40.
        let stats = lsm.stats();
        assert_eq!(stats.per_shard[0].valid_elements, 2);
        assert_eq!(stats.per_shard[1].valid_elements, 2);
        // The parent's 4 updates are split between the halves, not lost.
        assert_eq!(stats.update_ops, 4);
        assert_eq!(
            stats.per_shard[0].update_ops + stats.per_shard[1].update_ops,
            4
        );
        lsm.check_invariants().unwrap();
        // Invalid requests are rejected without mutating the table.
        assert!(lsm.split_shard_at(0, 0).is_err());
        assert!(lsm.split_shard_at(5, 100).is_err());
        assert_eq!(lsm.num_shards(), 2);
    }

    #[test]
    fn clones_observe_rebalances() {
        let lsm = sharded(4, 2);
        let clone = lsm.clone();
        lsm.insert(&[(1, 10), (2, 20)]).unwrap();
        lsm.split_shard_at(0, 2).unwrap();
        assert_eq!(clone.num_shards(), 3);
        assert_eq!(clone.epoch(), 1);
        assert_eq!(clone.lookup(&[1, 2]), vec![Some(10), Some(20)]);
        clone.merge_shards(0).unwrap();
        assert_eq!(lsm.num_shards(), 2);
        assert_eq!(lsm.stats().update_ops, 2, "split + merge keep counters");
    }

    #[test]
    fn hot_shard_detection_splits_under_skew() {
        let config = LsmConfig::default().rebalance(RebalanceConfig {
            enabled: true,
            min_ops: 64,
            hot_fraction: 0.5,
            cold_fraction: 0.0,
            max_shards: 8,
            min_shards: 1,
            check_interval: 4,
        });
        let lsm = ShardedLsm::with_config(device(), 16, 2, config).unwrap();
        // Every key lands in shard 0's low corner: shard 0 is hot.
        let mut last_updates = 0;
        for round in 0..8u32 {
            let pairs: Vec<(u32, u32)> = (0..16u32).map(|i| (round * 16 + i, i)).collect();
            lsm.insert(&pairs).unwrap();
            let updates = lsm.stats().update_ops;
            assert_eq!(updates, last_updates + 16, "round {round}: no update lost");
            last_updates = updates;
        }
        assert!(
            lsm.num_shards() > 2,
            "hot shard should have been split, still at {}",
            lsm.num_shards()
        );
        assert!(lsm.stats().rebalance_splits >= 1);
        lsm.check_invariants().unwrap();
        // The data survived the splits.
        assert_eq!(lsm.count(&[(0, MAX_KEY)]), vec![8 * 16]);
    }

    #[test]
    fn cold_shard_detection_merges_idle_pairs() {
        let config = LsmConfig::default().rebalance(RebalanceConfig {
            enabled: true,
            min_ops: 64,
            hot_fraction: 1.1, // never split
            cold_fraction: 0.2,
            max_shards: 8,
            min_shards: 2,
            check_interval: 4,
        });
        let lsm = ShardedLsm::with_config(device(), 16, 8, config).unwrap();
        // All traffic in the top shard; the bottom pairs go cold.
        let base = key_in(8, 7, 0);
        let mut last_updates = 0;
        for round in 0..8u32 {
            let pairs: Vec<(u32, u32)> = (0..16u32).map(|i| (base + round * 16 + i, i)).collect();
            lsm.insert(&pairs).unwrap();
            let updates = lsm.stats().update_ops;
            assert_eq!(updates, last_updates + 16, "round {round}: no update lost");
            last_updates = updates;
        }
        assert!(
            lsm.num_shards() < 8,
            "cold shards should have merged, still at {}",
            lsm.num_shards()
        );
        assert!(lsm.num_shards() >= 2, "min_shards must be respected");
        assert!(lsm.stats().rebalance_merges >= 1);
        lsm.check_invariants().unwrap();
        assert_eq!(lsm.count(&[(0, MAX_KEY)]), vec![8 * 16]);
    }
}
