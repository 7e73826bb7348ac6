//! Pipelined batch admission in front of the sharded service.
//!
//! [`crate::ShardedLsm`] removed the cross-shard serialization of updates,
//! but a writer still blocks for the whole carry chain of every batch it
//! applies.  [`AdmittedLsm`] decouples the two: writers **validate and
//! enqueue** batches (split per shard, bounded queues) and return
//! immediately; a background **applier** drains the queues, **coalesces**
//! adjacent batches headed for the same shard into fewer, fuller batches,
//! and applies them through the service.  A `b`-sized batch split over `k`
//! shards otherwise pads each `b/k`-op sub-batch back to a full `b`
//! elements inside the shard — coalescing recovers exactly that waste under
//! sustained traffic, on top of taking the carry chain off the writers'
//! critical path.
//!
//! ## Ordering and exactness
//!
//! Admission never reorders: sub-batches preserve within-batch op order
//! (the split is stable) and per-shard queues are FIFO, so cross-batch
//! order per key is intact.  Coalescing `w` adjacent batches replaces them
//! with batches that are *visibly equivalent* to applying the `w` batches
//! in sequence: for every key, the **last** batch touching it decides —
//! a batch containing any deletion of the key deletes it (rule 6 exactly:
//! the tombstone shadows same-batch insertions), otherwise the batch's
//! first insertion wins (rule 4 exactly).  Queries therefore return
//! byte-identical answers to the synchronous path; the physical layout may
//! differ (fewer resident batches, fewer stale elements — coalescing is
//! also a micro-cleanup).  With coalescing disabled (`LSM_ADMIT_COALESCE=0`)
//! even the physical per-shard layout is byte-identical to synchronous
//! [`crate::ShardedLsm::update`] calls.
//!
//! The fold makes one pass per batch over one map per window.  The map
//! (a std `HashMap` sized by the window's op count) takes a key to its
//! output slot and to the batch that last wrote that slot.  It hashes the
//! key with one folded multiply, seeded once per layer, where SipHash
//! would cost about as much as the apply itself; the seed is secret and
//! the output never depends on it (slots follow op order), and a window
//! whose keys all collided would still cost only O(b²).  A counting
//! pre-pass claims the batch's unseen keys, so the cut at `b` distinct
//! keys is decided before any slot changes; the deciding pass then writes
//! slots — a batch's first op on a key overwrites an older batch's slot, a
//! later deletion in the same batch overwrites it, a later insertion does
//! not.  That is two map operations and no allocation per op, and the
//! filled accumulator moves into the output batch uncopied.  The
//! read-your-writes overlay folds the pending batches through the same
//! pass without a cut, so the batch rules live in one function.
//!
//! ## Visibility
//!
//! The admitted view is eventually consistent: a query may miss batches
//! still in the queues.  [`AdmittedLsm::flush`] is the drain barrier
//! (returns once every previously enqueued batch is applied).  The
//! **read-your-writes** mode makes queued state visible without waiting:
//! point lookups overlay the pending per-shard queues (newest batch wins,
//! exactly the rules above) in front of the applied state, and interval /
//! order queries drain first.
//!
//! ## Rebalancing handoff
//!
//! The service can split and merge shards online (see
//! [`crate::ShardedLsm::split_shard`]); with an admission layer in front,
//! a rebalance must not strand or misroute queued batches.  The layer
//! therefore mirrors the service's routing table (router + per-shard
//! **stable queue ids** + epoch) inside its queue state and executes every
//! rebalance **on the applier thread** as an epoch-based handoff:
//!
//! 1. the affected shards' queues are drained inline (a *targeted* flush
//!    barrier — untouched shards keep queueing and applying),
//! 2. the service performs the structural split/merge (atomic table swap),
//! 3. the queue state is re-laid-out against the new table: surviving
//!    shard ids keep their queues and flush counters, replacement shards
//!    get fresh empty queues, and the mirrored router/epoch advance.
//!
//! Submitters route against the mirrored router under the queue lock, so a
//! batch is always enqueued consistently with one table generation; a
//! submitter sleeping on backpressure re-routes its remaining sub-batches
//! if the epoch moved while it slept.  Rebalances are requested with
//! [`AdmittedLsm::trigger_split`] / [`AdmittedLsm::trigger_merge`] (the
//! calls block until the applier has performed the handoff) or planned
//! automatically from hot-shard detection when the service was built with
//! [`crate::RebalanceConfig::enabled`].
//!
//! [`AdmittedLsm::flush`] stays correct across handoffs because barriers
//! wait on (queue id, enqueued count) pairs: a queue id that disappeared
//! was drained before removal, so its target is vacuously satisfied.
//!
//! ## Panic safety
//!
//! The applier runs arbitrary merge code; if it panics, the shared mutexes
//! it held are poisoned and the thread is gone.  Every lock acquisition in
//! this module recovers from poisoning (the queue state is a set of plain
//! counters and `VecDeque`s — there is no partially-applied invariant to
//! protect), the panic payload is captured, and every sleeping submitter /
//! flusher / rebalance requester is woken to observe the death.  From then
//! on [`AdmittedLsm::submit`] and [`AdmittedLsm::flush`] return
//! [`LsmError::ApplierPanicked`] instead of hanging or cascading the
//! panic, and dropping the last handle never double-panics (the join is
//! skipped while unwinding and its result is checked, not unwrapped).
//! The applier dies the same way, with the error as its payload, when its
//! thread cannot be spawned or when the service rejects a batch admission
//! validated (a broken invariant: the popped window can no longer apply,
//! so no flush barrier over it could ever complete).
//!
//! ## Durability
//!
//! Built through [`AdmittedLsm::open_durable`], the layer logs every
//! submitted batch to a write-ahead log *before* enqueueing it (same lock,
//! so log order equals admission order), and on open replays the WAL tail
//! through this very admission path, one record at a time.  A flush
//! barrier is a drain plus a WAL sync, whether or not other clients' work
//! is still queued.  A crash-consistent **checkpoint** (manifest +
//! immutable run files, see [`crate::wal`]) follows at an idle barrier
//! only once the log since the newest manifest has reached the bytes of
//! the run files that manifest references, and after every rebalance
//! epoch bump.  So the log after a barrier that skipped the checkpoint is
//! smaller than the last manifest's runs, checkpoints write about one byte
//! per logged byte, and a replay can span many barriers.  The default (no
//! durability) leaves the write path byte-identical to the in-memory
//! layer.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::batch::{Op, UpdateBatch};
use crate::cleanup::CleanupReport;
use crate::config::LsmConfig;
use crate::error::{LsmError, Result};
use crate::key::{Key, Value, MAX_KEY};
use crate::latency::{LatencyHistogram, LatencySnapshot};
use crate::level::Level;
use crate::lsm::GpuLsm;
use crate::range::RangeResult;
use crate::router::ShardRouter;
use crate::shard::{RebalanceAction, ShardedLsm, ShardedStats};
use crate::sync::lock_ignore_poison;
use crate::validate::InvariantViolation;
use crate::vfs::Vfs;
use crate::wal::{
    self, DegradeMode, DurabilityStats, RecoveryReport, RunMap, RunRef, SnapshotMeta, SnapshotRun,
    Wal,
};

// Every lock here is poison-tolerant: an applier panic must not turn every
// later `submit`/`flush`/`drop` into a cascading panic.  The guarded state
// stays structurally valid across an unwind (plain queues and counters),
// and the applier's death itself is surfaced as a typed error by the
// callers' liveness checks.

/// Condvar wait with the same poison recovery as [`lock_ignore_poison`].
fn wait_ignore_poison<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Bounded condvar wait with the same poison recovery; the caller rechecks
/// both its predicate and its own deadline after every wake, so the
/// timeout flag itself is not needed.
fn wait_timeout_ignore_poison<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    condvar
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// Default bound of each shard's admission queue, in batches.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Most batches the applier pulls from one shard's queue per drain step —
/// the coalescing window.
pub const COALESCE_WINDOW: usize = 16;

/// Tuning of one admission layer.  [`AdmittedLsm::new`] derives it from
/// the service's resolved [`crate::LsmConfig`] (explicit fields, then the
/// `LSM_ADMIT_*` / `LSM_*_TIMEOUT_MS` environment, then these defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Bound of each shard's queue, in batches; submitters block when the
    /// target shard's queue is full (backpressure).
    pub queue_capacity: usize,
    /// Whether the applier coalesces adjacent same-shard batches.
    pub coalesce: bool,
    /// Whether queries observe queued (not yet applied) state: lookups
    /// overlay the queues, interval/order queries drain first.
    pub read_your_writes: bool,
    /// Upper bound on a `submit`'s backpressure wait; past it the call
    /// returns [`LsmError::SubmitTimedOut`] with nothing admitted or
    /// logged, so an overloaded service sheds load instead of wedging its
    /// writers.  `None` (default) waits forever.
    pub submit_deadline: Option<Duration>,
    /// Upper bound on a `flush` drain-barrier wait; past it the call
    /// returns [`LsmError::FlushTimedOut`] (already-admitted batches still
    /// apply eventually).  `None` (default) waits forever.
    pub flush_deadline: Option<Duration>,
}

/// The constant defaults: [`DEFAULT_QUEUE_CAPACITY`] batches per shard,
/// coalescing on, no read-your-writes, no deadlines.
impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            coalesce: true,
            read_your_writes: false,
            submit_deadline: None,
            flush_deadline: None,
        }
    }
}

/// Lifetime admission counters (monotonic except the two depth gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Batches currently sitting in the per-shard queues.
    pub queued_batches: usize,
    /// Batches popped by the applier but not yet applied.
    pub in_flight_batches: usize,
    /// Whole batches accepted by [`AdmittedLsm::submit`].
    pub submitted_batches: u64,
    /// Operations across all submitted batches.
    pub submitted_ops: u64,
    /// Per-shard sub-batches enqueued (a batch spanning `k` shards counts
    /// `k` times).
    pub enqueued_sub_batches: u64,
    /// Batches the applier actually pushed into the shards.
    pub applied_batches: u64,
    /// Operations across all applied batches (after coalescing dropped
    /// superseded ops).
    pub applied_ops: u64,
    /// Sub-batches absorbed by coalescing (enqueued minus applied, counted
    /// as they happen).
    pub coalesced_batches: u64,
    /// Completed [`AdmittedLsm::flush`] barriers.
    pub flushes: u64,
    /// Rebalance handoffs (splits + merges) executed by the applier.
    pub rebalances: u64,
}

/// Per-operation latency attribution of the admission pipeline, split the
/// way a service needs it for SLO accounting: time a sub-batch spent
/// **waiting in its shard queue** (admission to applier pop — grows with
/// queue depth, the backpressure signal) versus time the applier spent
/// **applying** batches to the shards (the carry-chain cost itself).  Both
/// histograms record nanoseconds.
#[derive(Debug, Default)]
struct AdmissionLatency {
    queue_wait: LatencyHistogram,
    apply: LatencyHistogram,
}

/// Microsecond percentile summaries of the admission pipeline's two
/// latency components (see [`AdmittedLsm::latency_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionLatencyStats {
    /// Admission-to-pop wait per enqueued sub-batch.
    pub queue_wait: LatencySnapshot,
    /// Shard-apply time per batch the applier pushed (after coalescing).
    pub apply: LatencySnapshot,
}

/// A validated, shard-routed sub-batch plus the instant it was admitted —
/// the timestamp the applier turns into the queue-wait histogram.
#[derive(Debug)]
struct QueuedBatch {
    batch: UpdateBatch,
    admitted_at: Instant,
}

/// One shard's admission queue, identified by the shard's **stable id** so
/// a rebalance can re-layout the queue vector without losing queued work or
/// flush accounting for the shards it did not touch.
#[derive(Debug)]
struct ShardQueue {
    /// The service-assigned shard id this queue feeds (stable across
    /// rebalances that do not rebuild the shard).
    id: u64,
    /// FIFO of validated, shard-routed sub-batches.
    queue: VecDeque<QueuedBatch>,
    /// Batches the applier has popped but not yet applied — still pending,
    /// so the read-your-writes overlay must see them.  Populated only when
    /// read-your-writes is on (nothing else reads it).
    applying: Vec<UpdateBatch>,
    /// Lifetime batches enqueued (`submit` side of the flush barrier).
    enqueued_seq: u64,
    /// Lifetime batches fully applied.  The queue is FIFO, so
    /// `applied_seq >= e` proves the first `e` batches enqueued here are
    /// durable — what `flush` actually waits for.
    applied_seq: u64,
}

impl ShardQueue {
    fn new(id: u64) -> Self {
        ShardQueue {
            id,
            queue: VecDeque::new(),
            applying: Vec::new(),
            enqueued_seq: 0,
            applied_seq: 0,
        }
    }
}

/// A rebalance request for the applier to execute between drain windows.
#[derive(Debug, Clone, Copy)]
enum RebalanceCmd {
    /// Split shard `s` at a service-fitted key.
    Split(usize),
    /// Split shard `s` at an explicit key.
    SplitAt(usize, Key),
    /// Merge shards `s` and `s + 1`.
    Merge(usize),
    /// Run hot/cold-shard detection and execute its decision, if any.
    Plan,
}

/// Durability plumbing of one admitted service (attached only by
/// [`AdmittedLsm::open_durable`], once its replay is done).
#[derive(Debug)]
struct DurabilityState {
    config: wal::DurabilityConfig,
    /// The effective filesystem (the [`crate::vfs::Vfs`] seam).
    vfs: Arc<dyn Vfs>,
    /// The active WAL segment.  Locked after `state` (append happens under
    /// the state lock so log order equals admission order), never before.
    wal: Mutex<Wal>,
    /// WAL bytes logged since the newest manifest, over every segment
    /// since it (replayed ones included, and two after a snapshot that
    /// failed once it had rotated the log); reset only when a manifest is
    /// published.  A snapshot is due once it reaches `covered_bytes`.
    /// Both counters are read and written only under the queue state
    /// lock, which orders them, so `Relaxed` suffices.
    log_bytes: AtomicU64,
    /// Routing epoch captured by the last snapshot; a mismatch forces a
    /// snapshot even without new records (a split/merge changed the
    /// persistent layout).
    snapshot_epoch: AtomicU64,
    /// Sequence number of the active WAL segment: the newest manifest's,
    /// or a later one after a snapshot that failed once it had rotated the
    /// log (0 = none yet).  The next snapshot takes the number after it.
    manifest_seq: AtomicU64,
    /// Snapshots written by this process.
    snapshots: AtomicU64,
    /// Lifetime record / fsync / retry counters of retired (rotated-away)
    /// segments.
    retired_records: AtomicU64,
    retired_syncs: AtomicU64,
    retired_retries: AtomicU64,
    /// Run files referenced by the newest manifest, each with the id of
    /// the level it was written from.  The next snapshot carries a file
    /// over, without copying, encoding or hashing the level, while its
    /// `(shard, level)` slot still holds a level with that id.  Locked
    /// after `state`, like `wal`.
    prev_runs: Mutex<RunMap>,
    /// Bytes of the run files in `prev_runs` (0 without a manifest).
    covered_bytes: AtomicU64,
    /// Runs carried over unchanged instead of rewritten.
    runs_reused: AtomicU64,
    /// Garbage-collection removals that failed (surfaced, not swallowed).
    gc_failures: AtomicU64,
    /// Sticky health flag ([`DegradeMode::DegradeToVolatile`]): a
    /// persistent IO failure sealed the WAL; the pipeline keeps admitting
    /// in-memory and skips all further logging and snapshots.
    degraded: AtomicBool,
}

/// Everything the submitters, the applier and the queries share.
#[derive(Debug)]
struct Shared {
    service: ShardedLsm,
    config: AdmissionConfig,
    state: Mutex<QueueState>,
    /// Queue-wait and apply-time histograms (applier-written, low rate:
    /// one short lock per drained window).
    latency: Mutex<AdmissionLatency>,
    /// Applier waits here for queued work or rebalance requests.
    work: Condvar,
    /// Submitters wait here for queue space.
    space: Condvar,
    /// Flush barriers wait here for full drain.
    drained: Condvar,
    /// Rebalance requesters wait here for their request's result.
    rebalanced: Condvar,
    /// Why the applier died (its panic payload, or the error that killed
    /// it), set when it dies.
    applier_died: Mutex<Option<String>>,
    /// Keys of every coalescing fold's hash (see [`FoldHash`]).
    fold_hash: FoldHash,
    /// Test hook: the applier panics at its next scheduling point.
    panic_injected: AtomicBool,
    /// Test hook: the applier sleeps this many milliseconds (lock
    /// released) at its next scheduling point, consuming the value —
    /// deterministic backpressure for the deadline tests.
    stall_injected: AtomicU64,
    /// WAL + snapshot machinery; never set for in-memory layers, and set
    /// by [`AdmittedLsm::open_durable`] only after its replay, so a
    /// replayed record is not logged again and no barrier rotates away a
    /// segment still being replayed.
    durability: OnceLock<DurabilityState>,
    submitted_batches: AtomicU64,
    submitted_ops: AtomicU64,
    enqueued_sub_batches: AtomicU64,
    applied_batches: AtomicU64,
    applied_ops: AtomicU64,
    coalesced_batches: AtomicU64,
    flushes: AtomicU64,
    rebalances: AtomicU64,
}

impl Shared {
    /// The typed error to report if the applier thread has died.
    fn applier_failure(&self) -> Option<LsmError> {
        lock_ignore_poison(&self.applier_died)
            .as_ref()
            .map(|payload| LsmError::ApplierPanicked {
                payload: payload.clone(),
            })
    }
}

/// Record the applier's panic payload (see [`record_applier_death`]).
/// The caller must not hold the state lock.
fn record_applier_panic(shared: &Shared, payload: &(dyn std::any::Any + Send)) {
    let message = payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    record_applier_death(shared, &lock_ignore_poison(&shared.state), message);
}

/// Record why the applier died and wake **every** waiter class: blocked
/// submitters, flush barriers and rebalance requesters must observe the
/// death instead of sleeping forever on a condvar nobody will signal
/// again.  `_state` is the caller's proof that it holds the state lock:
/// every waiter checks [`Shared::applier_failure`] under that lock before
/// it parks, so a death published under it cannot fall between the check
/// and the park.
fn record_applier_death(shared: &Shared, _state: &QueueState, cause: String) {
    *lock_ignore_poison(&shared.applier_died) = Some(cause);
    shared.work.notify_all();
    shared.space.notify_all();
    shared.drained.notify_all();
    shared.rebalanced.notify_all();
}

#[derive(Debug)]
struct QueueState {
    /// One queue per shard, in shard order — the layout always mirrors
    /// `router` (and thereby the service's current routing table).
    queues: Vec<ShardQueue>,
    /// Mirror of the service's router: submitters route against this under
    /// the state lock so every enqueue is consistent with one table
    /// generation.
    router: ShardRouter,
    /// Mirror of the service's routing epoch; bumped by every handoff.
    /// Sleeping submitters use it to detect that their routing went stale.
    epoch: u64,
    /// Total batches across the queues.
    queued: usize,
    /// Total batches popped but not yet applied.
    in_flight: usize,
    /// Round-robin cursor so no shard's queue starves.
    next_shard: usize,
    /// Rebalance requests awaiting the applier.  `None` sequence numbers
    /// are fire-and-forget (auto-planned); `Some(seq)` has a caller
    /// blocked in [`AdmittedLsm`] waiting for `rebalance_results[seq]`.
    pending_rebalances: VecDeque<(Option<u64>, RebalanceCmd)>,
    /// Completed request results, keyed by sequence number, removed by the
    /// waiting caller.
    rebalance_results: HashMap<u64, Result<Option<RebalanceAction>>>,
    /// Next rebalance request sequence number.
    next_rebalance_seq: u64,
    /// Applied windows since the last automatic detection check.
    windows_since_check: u64,
    /// Set once, by the last handle's drop; the applier drains and exits.
    shutdown: bool,
}

/// Joins the applier thread when the last user handle drops (the applier
/// drains all queued work first, so dropping implies a final flush).
#[derive(Debug)]
struct Lifecycle {
    shared: Arc<Shared>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for Lifecycle {
    fn drop(&mut self) {
        lock_ignore_poison(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        // Never join while this thread is itself unwinding: any panic out
        // of a `Drop` during unwind aborts the process, and the join adds
        // nothing — the applier sees `shutdown`, drains and exits on its
        // own.
        if std::thread::panicking() {
            return;
        }
        if let Some(handle) = lock_ignore_poison(&self.handle).take() {
            if let Err(payload) = handle.join() {
                // The applier's catch-unwind wrapper normally records the
                // payload before the thread exits; this is the backstop
                // for panics outside it.  Check the result instead of
                // unwrapping — propagate the payload to any caller still
                // holding the service, never re-panic in teardown.
                record_applier_panic(&self.shared, payload.as_ref());
            }
        }
    }
}

/// A pipelined-admission handle over a [`ShardedLsm`].
///
/// Cloning is cheap; all clones share the queues, the applier and the
/// underlying service.  The applier thread shuts down (after draining)
/// when the last handle is dropped.
///
/// While an admission layer is attached, rebalance the service through
/// [`AdmittedLsm::trigger_split`] / [`AdmittedLsm::trigger_merge`] (or the
/// automatic planner), **not** by calling [`ShardedLsm::split_shard`]
/// directly on the wrapped service — the layer must drain the affected
/// queues first.
#[derive(Debug, Clone)]
pub struct AdmittedLsm {
    shared: Arc<Shared>,
    _lifecycle: Arc<Lifecycle>,
}

impl AdmittedLsm {
    /// Wrap `service` with the admission configuration its resolved
    /// [`crate::LsmConfig`] implies (see [`LsmConfig::admission`]): the
    /// environment was read when the service was built, not here.
    pub fn new(service: ShardedLsm) -> Self {
        let config = service.config().admission();
        Self::with_config(service, config)
    }

    /// Wrap `service` with an explicit admission configuration: wire up
    /// the queue state and spawn the applier behind a panic-capturing
    /// wrapper.
    pub fn with_config(service: ShardedLsm, config: AdmissionConfig) -> Self {
        let table = service.table_snapshot();
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(QueueState {
                queues: table.ids.iter().map(|&id| ShardQueue::new(id)).collect(),
                router: table.router.clone(),
                epoch: table.epoch,
                queued: 0,
                in_flight: 0,
                next_shard: 0,
                pending_rebalances: VecDeque::new(),
                rebalance_results: HashMap::new(),
                next_rebalance_seq: 0,
                windows_since_check: 0,
                shutdown: false,
            }),
            service,
            latency: Mutex::new(AdmissionLatency::default()),
            work: Condvar::new(),
            space: Condvar::new(),
            drained: Condvar::new(),
            rebalanced: Condvar::new(),
            applier_died: Mutex::new(None),
            fold_hash: FoldHash::random(),
            panic_injected: AtomicBool::new(false),
            stall_injected: AtomicU64::new(0),
            durability: OnceLock::new(),
            submitted_batches: AtomicU64::new(0),
            submitted_ops: AtomicU64::new(0),
            enqueued_sub_batches: AtomicU64::new(0),
            applied_batches: AtomicU64::new(0),
            applied_ops: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
        });
        let applier_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("lsm-admission".into())
            .spawn(move || {
                // Contain any applier panic: capture the payload, wake
                // every waiter, and let the thread exit cleanly so the
                // joining `Drop` can never double-panic.  The queue state
                // is poison-tolerant (see `lock_ignore_poison`).
                let run = std::panic::AssertUnwindSafe(|| applier_loop(&applier_shared));
                if let Err(payload) = std::panic::catch_unwind(run) {
                    record_applier_panic(&applier_shared, payload.as_ref());
                }
            });
        // A layer whose applier never started is born dead: every `submit`
        // and `flush` reports the spawn error instead of queueing work that
        // nothing would apply.
        let handle = match spawned {
            Ok(handle) => Some(handle),
            Err(e) => {
                let cause = format!("spawn admission applier: {e}");
                record_applier_death(&shared, &lock_ignore_poison(&shared.state), cause);
                None
            }
        };
        AdmittedLsm {
            _lifecycle: Arc::new(Lifecycle {
                shared: Arc::clone(&shared),
                handle: Mutex::new(handle),
            }),
            shared,
        }
    }

    /// Open — or crash-recover — a **durable** admitted service.
    ///
    /// `config.durability` must be set; its directory is created if
    /// missing.  An empty directory starts an empty service with
    /// `num_shards` uniform shards.  Otherwise the newest manifest that
    /// fully validates is loaded (corrupt newer ones are skipped and
    /// counted), the shards are rebuilt element-identical from its run
    /// files, and every WAL record of that generation and later is
    /// replayed **through the normal admission path** in log order, one
    /// record at a time — a torn or corrupt tail ends the replay and is
    /// physically truncated, never applied.  That replay spans every flush
    /// barrier since the manifest.  `num_shards` only applies to a fresh
    /// directory; a recovered service keeps the sharding (and routing
    /// epoch) of its manifest.
    ///
    /// Returns the recovered handle plus a [`RecoveryReport`] describing
    /// what was found.  On return the service is fully caught up (the
    /// replay has been flushed) and logging is live.
    pub fn open_durable(
        device: Arc<gpu_sim::Device>,
        batch_size: usize,
        num_shards: usize,
        config: LsmConfig,
    ) -> Result<(AdmittedLsm, RecoveryReport)> {
        let Some(dcfg) = config.durability.clone() else {
            return Err(LsmError::Durability {
                context: "open_durable requires LsmConfig::durability to be set".to_string(),
            });
        };
        // Resolved once, here: every shard of the recovered or the fresh
        // service is built with these settings.
        let config = config.resolve()?;
        let vfs = dcfg.vfs_impl();
        vfs.create_dir_all(&dcfg.dir)
            .map_err(|e| LsmError::Durability {
                context: format!("create durability dir {}: {e}", dcfg.dir.display()),
            })?;

        // A previous incarnation that degraded to volatile left a sticky
        // marker: report it, then clear it once this recovery succeeds.
        let prior_degraded = vfs
            .read_dir_names(&dcfg.dir)
            .map_err(|e| LsmError::Durability {
                context: format!("list durability dir {}: {e}", dcfg.dir.display()),
            })?
            .iter()
            .any(|name| name == wal::DEGRADED_MARKER);
        let mut report = RecoveryReport {
            prior_degraded,
            ..RecoveryReport::default()
        };
        let (service, base_seq, base_epoch, base_runs) =
            match wal::load_newest_snapshot(&vfs, &dcfg.dir)? {
                Some(snapshot) => {
                    if snapshot.batch_size != batch_size {
                        return Err(LsmError::Durability {
                            context: format!(
                                "manifest {} was written with batch size {}, not {batch_size}",
                                snapshot.seq, snapshot.batch_size
                            ),
                        });
                    }
                    report.manifest_seq = Some(snapshot.seq);
                    report.corrupt_manifests_skipped = snapshot.corrupt_skipped;
                    let router = ShardRouter::learned(snapshot.split_points.clone())?;
                    let mut run_refs = snapshot.run_refs;
                    let shards = snapshot
                        .shards
                        .into_iter()
                        .map(|levels| {
                            GpuLsm::from_levels(device.clone(), batch_size, levels, &config)
                        })
                        .collect::<Result<Vec<_>>>()?;
                    // Bind every loaded run to the level just built from
                    // it, so the next snapshot carries the file over for
                    // as long as that level stays in its slot.
                    for (s, lsm) in shards.iter().enumerate() {
                        for (i, level) in lsm.levels().iter_occupied() {
                            if let Some(run) = run_refs.get_mut(&(s, i)) {
                                run.level_id = level.id();
                            }
                        }
                    }
                    let epoch = snapshot.epoch;
                    let service = ShardedLsm::from_parts(
                        device,
                        batch_size,
                        router,
                        config.clone(),
                        shards,
                        epoch,
                    )?;
                    (service, snapshot.seq, epoch, run_refs)
                }
                None => {
                    let router = ShardRouter::new(num_shards)?;
                    let service = ShardedLsm::build(device, batch_size, router, config, None)?;
                    let epoch = service.epoch();
                    (service, 0, epoch, RunMap::new())
                }
            };

        // Replay the WAL tail before durability is attached: every segment
        // of the restored generation and later, ascending, one record at
        // a time.  (Generations older than the manifest linger only when
        // a crash interrupted garbage collection — replaying them over the
        // snapshot is idempotent, because per key the last record wins and
        // the snapshot already agrees with it.)
        let covered_bytes = wal::run_bytes(&base_runs);
        let lsm = Self::new(service);
        let mut log_bytes = 0;
        let mut active: Option<(u64, u64)> = None;
        for (seq, path) in wal::list_segments(&vfs, &dcfg.dir, base_seq)? {
            let (valid_len, torn_bytes) = wal::replay_segment(&vfs, &path, |batch, _| {
                // Replay ignores the configured deadlines: recovery must
                // not shed its own log.
                lsm.submit_with_deadline(&batch, None)?;
                report.replayed_batches += 1;
                Ok(())
            })?;
            report.torn_bytes += torn_bytes;
            log_bytes += valid_len;
            active = Some((seq, valid_len));
        }
        // Drain the replay before acknowledging recovery.  This barrier
        // neither syncs nor snapshots (durability is not attached yet), so
        // the WAL keeps covering the replayed records until a barrier's
        // trigger says otherwise.
        lsm.flush_with_deadline(None)?;
        // Resume appending to the newest segment (discarding its torn tail
        // for good), or start this generation's first segment.
        let (wal_writer, active_seq) = match active {
            Some((seq, valid_len)) => (
                Wal::open_append(
                    &vfs,
                    wal::segment_path(&dcfg.dir, seq),
                    dcfg.fsync_interval,
                    valid_len,
                    dcfg.retry,
                )?,
                seq,
            ),
            None => (
                Wal::create(
                    &vfs,
                    wal::segment_path(&dcfg.dir, base_seq),
                    dcfg.fsync_interval,
                    dcfg.retry,
                )?,
                base_seq,
            ),
        };
        let durability = DurabilityState {
            vfs,
            config: dcfg,
            wal: Mutex::new(wal_writer),
            log_bytes: AtomicU64::new(log_bytes),
            snapshot_epoch: AtomicU64::new(base_epoch),
            // The next snapshot must outnumber every existing segment, not
            // just the restored manifest (a corrupt newer manifest leaves
            // its segment behind).
            manifest_seq: AtomicU64::new(base_seq.max(active_seq)),
            snapshots: AtomicU64::new(0),
            retired_records: AtomicU64::new(0),
            retired_syncs: AtomicU64::new(0),
            retired_retries: AtomicU64::new(0),
            prev_runs: Mutex::new(base_runs),
            covered_bytes: AtomicU64::new(covered_bytes),
            runs_reused: AtomicU64::new(0),
            gc_failures: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        };
        if report.prior_degraded {
            // Recovery succeeded from the degraded generation's durable
            // prefix: this incarnation is healthy again.  A failed removal
            // keeps the marker (and the report flag) sticky.
            if durability
                .vfs
                .remove_file(&wal::degraded_marker_path(&durability.config.dir))
                .is_err()
            {
                durability.gc_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        if lsm.shared.durability.set(durability).is_err() {
            return Err(LsmError::Durability {
                context: "durability attached twice to one admission layer".to_string(),
            });
        }
        Ok((lsm, report))
    }

    /// The wrapped sharded service (answers reflect only *applied* state).
    pub fn service(&self) -> &ShardedLsm {
        &self.shared.service
    }

    /// The admission configuration in effect.
    pub fn config(&self) -> &AdmissionConfig {
        &self.shared.config
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Validate a mixed update batch and enqueue it, blocking while any
    /// target shard's queue is at capacity.  An invalid batch is rejected
    /// in full before anything is enqueued, exactly like the synchronous
    /// path.  Admission is all-or-nothing: the batch's sub-batches land in
    /// their queues in one critical section, so the WAL record written
    /// just before (when durability is on) has exactly the admission order
    /// of the whole batch.  Routing happens against the mirrored table
    /// under the queue lock and is recomputed after every backpressure
    /// wake, so a rebalance landing while the submitter sleeps re-routes
    /// the batch against the new table (per-key op order is unaffected:
    /// all ops on one key travel in one sub-batch).
    ///
    /// # Errors
    ///
    /// Besides batch validation, fails with
    /// [`LsmError::ApplierPanicked`] once the background applier has died
    /// (nothing is enqueued or logged in that case), with
    /// [`LsmError::SubmitTimedOut`] when a configured
    /// [`AdmissionConfig::submit_deadline`] expires on backpressure
    /// (nothing admitted or logged — a load-shedding caller can drop or
    /// retry), and with [`LsmError::Durability`] when the write-ahead log
    /// cannot be appended under [`DegradeMode::FailStop`] (the batch is
    /// then *not* admitted; under
    /// [`DegradeMode::DegradeToVolatile`] the pipeline instead seals the
    /// WAL, raises the sticky `DurabilityStats::degraded` flag, and admits the
    /// batch in-memory).
    pub fn submit(&self, batch: &UpdateBatch) -> Result<()> {
        self.submit_with_deadline(batch, self.shared.config.submit_deadline)
    }

    /// [`submit`](Self::submit) with an explicit deadline override
    /// (`None` = wait forever; recovery replay uses that).
    fn submit_with_deadline(&self, batch: &UpdateBatch, deadline: Option<Duration>) -> Result<()> {
        if batch.is_empty() {
            return Err(LsmError::EmptyBatch);
        }
        if batch.len() > self.shared.service.batch_size() {
            return Err(LsmError::BatchTooLarge {
                supplied: batch.len(),
                batch_size: self.shared.service.batch_size(),
            });
        }
        if let Some(op) = batch.ops().iter().find(|op| op.key() > MAX_KEY) {
            return Err(LsmError::KeyOutOfRange { key: op.key() });
        }
        let started = Instant::now();
        let enqueued;
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            loop {
                if let Some(err) = self.shared.applier_failure() {
                    return Err(err);
                }
                let parts = route_parts(&state.router, batch);
                let fits = parts
                    .iter()
                    .all(|(s, _)| state.queues[*s].queue.len() < self.shared.config.queue_capacity);
                if !fits {
                    state = match deadline {
                        None => wait_ignore_poison(&self.shared.space, state),
                        Some(limit) => {
                            let waited = started.elapsed();
                            if waited >= limit {
                                return Err(LsmError::SubmitTimedOut {
                                    waited_ms: waited.as_millis() as u64,
                                });
                            }
                            wait_timeout_ignore_poison(&self.shared.space, state, limit - waited)
                        }
                    };
                    continue;
                }
                // Log ahead of enqueue, under the same lock: WAL record
                // order is admission order.  A failed append admits
                // nothing under fail-stop (the writer rolled the file
                // back); under degrade-to-volatile the WAL is sealed at
                // the last durable boundary and admission continues
                // in-memory.
                if let Some(d) = self.shared.durability.get() {
                    if !d.degraded.load(Ordering::Relaxed) {
                        // Bind the result so the WAL guard drops before the
                        // degrade path re-locks it.
                        let appended = lock_ignore_poison(&d.wal).append(batch);
                        match appended {
                            Ok(()) => {
                                d.log_bytes
                                    .fetch_add(wal::record_len(batch), Ordering::Relaxed);
                            }
                            Err(e) => fail_or_degrade(d, e)?,
                        }
                    }
                }
                // The admission timestamp is taken *after* any
                // backpressure wait: queue-wait measures time spent in
                // the queue itself, while a blocked submit is visible to
                // the client's own clock.
                let admitted_at = Instant::now();
                enqueued = parts.len() as u64;
                for (s, part) in parts {
                    state.queues[s].queue.push_back(QueuedBatch {
                        batch: part,
                        admitted_at,
                    });
                    state.queued += 1;
                    state.queues[s].enqueued_seq += 1;
                }
                break;
            }
        }
        self.shared
            .submitted_batches
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .submitted_ops
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.shared
            .enqueued_sub_batches
            .fetch_add(enqueued, Ordering::Relaxed);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Enqueue key–value insertions (at most `b`).
    pub fn insert(&self, pairs: &[(Key, Value)]) -> Result<()> {
        self.submit(&UpdateBatch::from_pairs(pairs))
    }

    /// Enqueue deletions (at most `b`).
    pub fn delete(&self, keys: &[Key]) -> Result<()> {
        self.submit(&UpdateBatch::from_deletions(keys))
    }

    /// Drain barrier: returns once every batch enqueued **before the
    /// call** has been applied to the shards.  The wait is against
    /// per-queue (id, enqueued) pairs snapshotted at entry, so concurrent
    /// submitters can keep the queues busy without starving the barrier
    /// (each queue is FIFO, so `applied >= snapshot` proves the snapshot
    /// prefix is durable).  A queue id that disappears was drained by a
    /// rebalance handoff before removal, satisfying its target.
    ///
    /// With durability on, a completed barrier then syncs the write-ahead
    /// log, even while other clients' batches are still queued, so every
    /// batch it waited for is durable when it returns.  When the pipeline
    /// is idle, it also checkpoints — writes a crash-consistent snapshot
    /// and rotates the log — if the routing epoch moved or the log since
    /// the newest snapshot has reached the bytes of that snapshot's run
    /// files; otherwise the log keeps covering the drained batches, and
    /// recovery replays them.
    ///
    /// # Errors
    ///
    /// [`LsmError::ApplierPanicked`] once the background applier has died
    /// — even if the snapshotted targets were already met, because the
    /// barrier can no longer promise anything about applied state;
    /// [`LsmError::FlushTimedOut`] when a configured
    /// [`AdmissionConfig::flush_deadline`] expires before the drain
    /// (admitted batches still apply eventually); and
    /// [`LsmError::Durability`] when the log cannot be synced or the
    /// snapshot cannot be written under [`DegradeMode::FailStop`] (the
    /// drain itself still happened; the WAL keeps covering the drained
    /// records).
    pub fn flush(&self) -> Result<()> {
        self.flush_with_deadline(self.shared.config.flush_deadline)
    }

    /// [`flush`](Self::flush) with an explicit deadline override
    /// (`None` = wait forever; recovery replay uses that).
    fn flush_with_deadline(&self, deadline: Option<Duration>) -> Result<()> {
        let started = Instant::now();
        let mut state = lock_ignore_poison(&self.shared.state);
        let targets: Vec<(u64, u64)> = state
            .queues
            .iter()
            .map(|q| (q.id, q.enqueued_seq))
            .collect();
        loop {
            if let Some(err) = self.shared.applier_failure() {
                return Err(err);
            }
            let pending = targets.iter().any(|&(id, target)| {
                state
                    .queues
                    .iter()
                    .find(|q| q.id == id)
                    .is_some_and(|q| q.applied_seq < target)
            });
            if !pending {
                break;
            }
            state = match deadline {
                None => wait_ignore_poison(&self.shared.drained, state),
                Some(limit) => {
                    let waited = started.elapsed();
                    if waited >= limit {
                        return Err(LsmError::FlushTimedOut {
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                    wait_timeout_ignore_poison(&self.shared.drained, state, limit - waited)
                }
            };
        }
        sync_barrier(&self.shared, &state)?;
        drop(state);
        self.shared.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flush, then run the service's cleanup on every shard.
    ///
    /// # Errors
    ///
    /// Propagates the [`flush`](Self::flush) failure modes; cleanup runs
    /// only after a successful drain.
    pub fn cleanup(&self) -> Result<CleanupReport> {
        self.flush()?;
        Ok(self.shared.service.cleanup())
    }

    // ------------------------------------------------------------------
    // Rebalancing
    // ------------------------------------------------------------------

    /// Ask the applier to split shard `s` at a service-fitted key (see
    /// [`ShardedLsm::split_shard`]), draining the shard's queue first.
    /// Blocks until the handoff completes; returns the action taken.
    pub fn trigger_split(&self, s: usize) -> Result<Option<RebalanceAction>> {
        self.request_rebalance(RebalanceCmd::Split(s))
    }

    /// Ask the applier to split shard `s` at an explicit `key` (see
    /// [`ShardedLsm::split_shard_at`]), draining the shard's queue first.
    pub fn trigger_split_at(&self, s: usize, key: Key) -> Result<Option<RebalanceAction>> {
        self.request_rebalance(RebalanceCmd::SplitAt(s, key))
    }

    /// Ask the applier to merge shards `s` and `s + 1` (see
    /// [`ShardedLsm::merge_shards`]), draining both queues first.
    pub fn trigger_merge(&self, s: usize) -> Result<Option<RebalanceAction>> {
        self.request_rebalance(RebalanceCmd::Merge(s))
    }

    /// Ask the applier to run hot/cold-shard detection now and execute its
    /// decision, if any.  Returns the action taken (`Ok(None)` when no
    /// threshold tripped).
    pub fn trigger_rebalance_check(&self) -> Result<Option<RebalanceAction>> {
        self.request_rebalance(RebalanceCmd::Plan)
    }

    /// Enqueue a rebalance request and block until the applier executed it.
    fn request_rebalance(&self, cmd: RebalanceCmd) -> Result<Option<RebalanceAction>> {
        let mut state = lock_ignore_poison(&self.shared.state);
        if let Some(err) = self.shared.applier_failure() {
            return Err(err);
        }
        let seq = state.next_rebalance_seq;
        state.next_rebalance_seq += 1;
        state.pending_rebalances.push_back((Some(seq), cmd));
        self.shared.work.notify_all();
        loop {
            if let Some(result) = state.rebalance_results.remove(&seq) {
                return result;
            }
            if let Some(err) = self.shared.applier_failure() {
                return Err(err);
            }
            state = wait_ignore_poison(&self.shared.rebalanced, state);
        }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Bulk point lookups.  In read-your-writes mode the pending queues are
    /// overlaid in front of the applied state (newest pending batch wins);
    /// otherwise only applied state is visible.
    pub fn lookup(&self, queries: &[Key]) -> Vec<Option<Value>> {
        self.lookup_with(queries, ShardedLsm::lookup)
    }

    /// Warp-style bulk lookups — [`ShardedLsm::bulk_get`] behind the same
    /// read-your-writes overlay as [`AdmittedLsm::lookup`]; results are
    /// identical to it.
    pub fn bulk_get(&self, queries: &[Key]) -> Vec<Option<Value>> {
        self.lookup_with(queries, ShardedLsm::bulk_get)
    }

    /// Shared read path: overlay the pending queues (in read-your-writes
    /// mode), resolve the fall-through keys against the applied state with
    /// `resolve`.
    fn lookup_with(
        &self,
        queries: &[Key],
        resolve: impl Fn(&ShardedLsm, &[Key]) -> Vec<Option<Value>>,
    ) -> Vec<Option<Value>> {
        if !self.shared.config.read_your_writes {
            return resolve(&self.shared.service, queries);
        }
        // Decide what the pending (queued + in-flight) ops say about each
        // query under one short lock; undecided keys fall through to the
        // applied state.  Each touched shard's pending batches are folded
        // once, by the coalescer's own pass, so the lock is held for
        // O(pending ops + queries), not their product.  Routing uses the
        // mirrored router so the overlay matches the enqueue layout even
        // across rebalances.
        let mut answers: Vec<Option<Value>> = Vec::with_capacity(queries.len());
        let mut misses: Vec<usize> = Vec::new();
        let mut undecided: Vec<Key> = Vec::new();
        {
            let state = lock_ignore_poison(&self.shared.state);
            let mut folds: Vec<Option<Fold>> = (0..state.queues.len()).map(|_| None).collect();
            for &q in queries {
                let s = state.router.shard_of(q.min(MAX_KEY));
                let fold =
                    folds[s].get_or_insert_with(|| pending_fold(&state, s, self.shared.fold_hash));
                match fold.decision(q) {
                    Some(decided) => answers.push(decided),
                    None => {
                        misses.push(answers.len());
                        undecided.push(q);
                        answers.push(None);
                    }
                }
            }
        }
        let applied = resolve(&self.shared.service, &undecided);
        for (i, answer) in misses.into_iter().zip(applied) {
            answers[i] = answer;
        }
        answers
    }

    /// Bulk count queries (read-your-writes mode drains first).
    pub fn count(&self, queries: &[(Key, Key)]) -> Vec<u32> {
        if self.shared.config.read_your_writes {
            // Best-effort drain: with a dead applier the answer honestly
            // reflects applied state only, matching non-RYW mode.
            let _ = self.flush();
        }
        self.shared.service.count(queries)
    }

    /// Bulk range queries (read-your-writes mode drains first).
    pub fn range(&self, queries: &[(Key, Key)]) -> RangeResult {
        if self.shared.config.read_your_writes {
            // Best-effort drain: with a dead applier the answer honestly
            // reflects applied state only, matching non-RYW mode.
            let _ = self.flush();
        }
        self.shared.service.range(queries)
    }

    /// Bulk successor queries (read-your-writes mode drains first).
    pub fn successor(&self, queries: &[Key]) -> Vec<Option<(Key, Value)>> {
        if self.shared.config.read_your_writes {
            // Best-effort drain: with a dead applier the answer honestly
            // reflects applied state only, matching non-RYW mode.
            let _ = self.flush();
        }
        self.shared.service.successor(queries)
    }

    /// Bulk predecessor queries (read-your-writes mode drains first).
    pub fn predecessor(&self, queries: &[Key]) -> Vec<Option<(Key, Value)>> {
        if self.shared.config.read_your_writes {
            // Best-effort drain: with a dead applier the answer honestly
            // reflects applied state only, matching non-RYW mode.
            let _ = self.flush();
        }
        self.shared.service.predecessor(queries)
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Admission-layer counters and queue gauges.
    pub fn admission_stats(&self) -> AdmissionStats {
        let (queued, in_flight) = {
            let state = lock_ignore_poison(&self.shared.state);
            (state.queued, state.in_flight)
        };
        AdmissionStats {
            queued_batches: queued,
            in_flight_batches: in_flight,
            submitted_batches: self.shared.submitted_batches.load(Ordering::Relaxed),
            submitted_ops: self.shared.submitted_ops.load(Ordering::Relaxed),
            enqueued_sub_batches: self.shared.enqueued_sub_batches.load(Ordering::Relaxed),
            applied_batches: self.shared.applied_batches.load(Ordering::Relaxed),
            applied_ops: self.shared.applied_ops.load(Ordering::Relaxed),
            coalesced_batches: self.shared.coalesced_batches.load(Ordering::Relaxed),
            flushes: self.shared.flushes.load(Ordering::Relaxed),
            rebalances: self.shared.rebalances.load(Ordering::Relaxed),
        }
    }

    /// Microsecond percentile summaries of the pipeline's queue-wait and
    /// apply-time histograms.
    pub fn latency_stats(&self) -> AdmissionLatencyStats {
        let latency = lock_ignore_poison(&self.shared.latency);
        AdmissionLatencyStats {
            queue_wait: latency.queue_wait.snapshot_us(),
            apply: latency.apply.snapshot_us(),
        }
    }

    /// Clones of the full queue-wait and apply-time histograms (nanosecond
    /// samples), for callers that need quantiles beyond the snapshot.
    pub fn latency_histograms(&self) -> (LatencyHistogram, LatencyHistogram) {
        let latency = lock_ignore_poison(&self.shared.latency);
        (latency.queue_wait.clone(), latency.apply.clone())
    }

    /// The sharded service's statistics.  The admission layer's own
    /// counters are [`AdmittedLsm::admission_stats`],
    /// [`AdmittedLsm::latency_stats`] and [`AdmittedLsm::durability_stats`].
    pub fn stats(&self) -> ShardedStats {
        self.shared.service.stats()
    }

    /// Flush, then check every shard's invariants.
    pub fn check_invariants(&self) -> std::result::Result<(), InvariantViolation> {
        self.flush()
            .map_err(|e| InvariantViolation(format!("admission flush failed: {e}")))?;
        self.shared.service.check_invariants()
    }

    /// Durability counters, or `None` for an in-memory service.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let d = self.shared.durability.get()?;
        let (records, syncs, retries) = {
            let wal = lock_ignore_poison(&d.wal);
            (wal.records, wal.syncs, wal.retries)
        };
        Some(DurabilityStats {
            wal_records: d.retired_records.load(Ordering::Relaxed) + records,
            wal_syncs: d.retired_syncs.load(Ordering::Relaxed) + syncs,
            wal_retries: d.retired_retries.load(Ordering::Relaxed) + retries,
            snapshots: d.snapshots.load(Ordering::Relaxed),
            runs_reused: d.runs_reused.load(Ordering::Relaxed),
            gc_failures: d.gc_failures.load(Ordering::Relaxed),
            manifest_seq: d.manifest_seq.load(Ordering::Relaxed),
            degraded: d.degraded.load(Ordering::Relaxed),
        })
    }

    /// Test hook: make the applier thread panic at its next wakeup.
    #[doc(hidden)]
    pub fn inject_applier_panic(&self) {
        self.shared.panic_injected.store(true, Ordering::Relaxed);
        self.shared.work.notify_all();
    }

    /// Test hook: make the applier sleep `ms` milliseconds (locks
    /// released) at its next wakeup, before draining anything — a
    /// deterministic backpressure window for the deadline tests.
    #[doc(hidden)]
    pub fn inject_applier_stall(&self, ms: u64) {
        self.shared.stall_injected.store(ms, Ordering::Relaxed);
        self.shared.work.notify_all();
    }
}

/// Seal the WAL at the last durable record boundary, raise the sticky
/// degraded flag, and drop a best-effort on-disk marker for the next
/// recovery to report ([`DegradeMode::DegradeToVolatile`]).  Called with
/// the queue state lock held (the WAL lock nests inside it).
fn degrade_to_volatile(d: &DurabilityState) {
    {
        let mut wal = lock_ignore_poison(&d.wal);
        if !wal.is_sealed() {
            wal.seal();
        }
    }
    if !d.degraded.swap(true, Ordering::Relaxed) {
        let _ = d.vfs.write(
            &wal::degraded_marker_path(&d.config.dir),
            b"durability degraded: WAL sealed at last durable record\n",
        );
    }
}

/// A durability failure under [`wal::DurabilityConfig::degrade`]: fail-stop
/// returns it, degrade-to-volatile seals the WAL and carries on in memory.
/// Called with the queue state lock held.
fn fail_or_degrade(d: &DurabilityState, e: LsmError) -> Result<()> {
    match d.config.degrade {
        DegradeMode::FailStop => Err(e),
        DegradeMode::DegradeToVolatile => {
            degrade_to_volatile(d);
            Ok(())
        }
    }
}

/// The durable end of a flush barrier, called once its drain completed,
/// with the queue lock held: sync the active WAL segment, whether or not
/// other clients' batches are still queued, then snapshot if one is due.
fn sync_barrier(shared: &Shared, state: &QueueState) -> Result<()> {
    let Some(d) = shared.durability.get() else {
        return Ok(());
    };
    if d.degraded.load(Ordering::Relaxed) {
        // The WAL is sealed at its last durable record: nothing to sync.
        return Ok(());
    }
    let synced = lock_ignore_poison(&d.wal).sync();
    synced.or_else(|e| fail_or_degrade(d, e))?;
    maybe_snapshot(shared, state)
}

/// Snapshot when one is due: called after a barrier's WAL sync and after
/// every rebalance handoff, with the queue lock held.  A snapshot needs
/// durability attached and healthy and a fully idle pipeline (nothing
/// queued, in flight, or awaiting a rebalance), so that it is a
/// consistent cut.  It is due when the routing epoch moved (a split/merge
/// re-lays the shards even without new records) or when the log since
/// the newest manifest has reached the bytes of the run files that
/// manifest references: after a barrier that skips it, the log stays
/// smaller than those runs.  On success the WAL rotates to a fresh
/// segment keyed to the new manifest and older generations are
/// garbage-collected best-effort.
fn maybe_snapshot(shared: &Shared, state: &QueueState) -> Result<()> {
    let Some(d) = shared.durability.get() else {
        // In memory, or recovery replay in progress: then the WAL on disk
        // is still the only durable copy of the replayed records — don't
        // rotate it away.
        return Ok(());
    };
    let idle = state.queued == 0 && state.in_flight == 0 && state.pending_rebalances.is_empty();
    if !idle {
        return Ok(());
    }
    if d.degraded.load(Ordering::Relaxed) {
        // Degraded mode: the state being snapshotted includes batches that
        // were never logged, so a manifest would falsely claim durability
        // for them.  Keep serving from memory instead.
        return Ok(());
    }
    let log = d.log_bytes.load(Ordering::Relaxed);
    let due = d.snapshot_epoch.load(Ordering::Relaxed) != state.epoch
        || (log > 0 && log >= d.covered_bytes.load(Ordering::Relaxed));
    if !due {
        return Ok(());
    }
    snapshot_now(shared, d).or_else(|e| fail_or_degrade(d, e))
}

/// The snapshot body proper: sync the WAL, rotate to a fresh segment,
/// write the next manifest generation (carrying unchanged run files over),
/// and garbage-collect superseded generations.
fn snapshot_now(shared: &Shared, d: &DurabilityState) -> Result<()> {
    let seq = d.manifest_seq.load(Ordering::Relaxed) + 1;
    {
        let mut wal = lock_ignore_poison(&d.wal);
        // Everything logged so far must be on disk before the manifest can
        // supersede it (the manifest ends the previous generation).
        wal.sync()?;
        // Rotate before any run or manifest is written: a submit
        // acknowledged after this point logs to segment `seq`, which
        // recovery replays whichever manifest ends up newest, so a failure
        // below loses no acknowledged record.
        let fresh = Wal::create(
            &d.vfs,
            wal::segment_path(&d.config.dir, seq),
            d.config.fsync_interval,
            d.config.retry,
        )?;
        let old = std::mem::replace(&mut *wal, fresh);
        d.retired_records.fetch_add(old.records, Ordering::Relaxed);
        d.retired_syncs.fetch_add(old.syncs, Ordering::Relaxed);
        d.retired_retries.fetch_add(old.retries, Ordering::Relaxed);
    }
    // Segment `seq` exists now, so even if the rest fails the next
    // snapshot must take a later number: `Wal::create` truncates.
    d.manifest_seq.store(seq, Ordering::Relaxed);
    let table = shared.service.table_snapshot();
    let prev = lock_ignore_poison(&d.prev_runs).clone();
    let shards: Vec<Vec<(usize, SnapshotRun)>> = table
        .shards
        .iter()
        .enumerate()
        .map(|(s, shard)| {
            shard.with_read(|lsm| {
                lsm.levels()
                    .iter_occupied()
                    .map(|(i, level)| (i, snapshot_run(prev.get(&(s, i)), level)))
                    .collect()
            })
        })
        .collect();
    let (runs, reused) = wal::write_snapshot(
        &d.vfs,
        &d.config.dir,
        SnapshotMeta {
            seq,
            epoch: table.epoch,
            batch_size: shared.service.batch_size(),
        },
        &table.router.split_points(),
        &shards,
    )?;
    d.log_bytes.store(0, Ordering::Relaxed);
    d.snapshot_epoch.store(table.epoch, Ordering::Relaxed);
    d.snapshots.fetch_add(1, Ordering::Relaxed);
    d.runs_reused.fetch_add(reused, Ordering::Relaxed);
    let failures = wal::collect_garbage(&d.vfs, &d.config.dir, seq, &runs);
    d.gc_failures.fetch_add(failures, Ordering::Relaxed);
    d.covered_bytes
        .store(wal::run_bytes(&runs), Ordering::Relaxed);
    *lock_ignore_poison(&d.prev_runs) = runs;
    Ok(())
}

/// What a snapshot writes for `level`, given the run its slot referenced in
/// the previous generation: that run again if it was written from this very
/// level (same id, so same bytes), otherwise the level encoded as a run file.
fn snapshot_run(prev: Option<&RunRef>, level: &Level) -> SnapshotRun {
    match prev {
        Some(run) if run.level_id == level.id() => {
            debug_assert_eq!(
                (run.len, run.digest),
                (
                    level.len() as u64,
                    wal::run_digest(level.keys(), level.values())
                ),
                "level {} changed bytes under a carried id",
                level.id()
            );
            SnapshotRun::Carried(*run)
        }
        _ => SnapshotRun::fresh(level.id(), level.keys(), level.values()),
    }
}

/// Split a batch by shard and keep the non-empty parts in shard order.
fn route_parts(router: &ShardRouter, batch: &UpdateBatch) -> VecDeque<(usize, UpdateBatch)> {
    router
        .split_updates(batch)
        .into_iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .collect()
}

/// Fold shard `s`'s pending batches — in-flight first (older), then the
/// queue oldest-to-newest — through the coalescer's pass without a cut,
/// so [`Fold::decision`] answers with what applying them all would leave
/// visible.
fn pending_fold(state: &QueueState, s: usize, hash: FoldHash) -> Fold {
    let queue = &state.queues[s];
    let pending = queue
        .applying
        .iter()
        .chain(queue.queue.iter().map(|q| &q.batch));
    Fold::over(pending, usize::MAX, hash)
}

/// The background applier: drain queues round-robin, coalesce, apply;
/// execute rebalance handoffs between windows.
fn applier_loop(shared: &Arc<Shared>) {
    loop {
        // Pop one shard's coalescing window under the lock; rebalance
        // requests take priority and run entirely under the lock (they
        // are a barrier for the affected shards by design).  With
        // read-your-writes on, the popped batches stay visible to the
        // overlay via `applying` until they are applied; otherwise nothing
        // reads `applying` and the clone is skipped.
        let (shard, window) = {
            let mut state = lock_ignore_poison(&shared.state);
            loop {
                if shared.applier_failure().is_some() {
                    // A rebalance's drain lost its window (see
                    // `apply_window`); the requester has the error.
                    return;
                }
                if shared.panic_injected.swap(false, Ordering::Relaxed) {
                    // Test hook for the panic-safety tests, until a
                    // deterministic simulation harness replaces it.
                    #[allow(clippy::panic)]
                    {
                        panic!("injected applier panic (test hook)");
                    }
                }
                let stall = shared.stall_injected.swap(0, Ordering::Relaxed);
                if stall > 0 {
                    // Test hook: sleep with the lock released so submits
                    // can queue up against a provably idle applier.
                    drop(state);
                    std::thread::sleep(Duration::from_millis(stall));
                    state = lock_ignore_poison(&shared.state);
                    continue;
                }
                if let Some((seq, cmd)) = state.pending_rebalances.pop_front() {
                    let result = execute_rebalance(shared, &mut state, cmd);
                    if let Some(seq) = seq {
                        state.rebalance_results.insert(seq, result);
                        shared.rebalanced.notify_all();
                    }
                    continue;
                }
                if state.queued > 0 {
                    break;
                }
                if state.shutdown {
                    return; // queues fully drained: drop implies flush
                }
                state = wait_ignore_poison(&shared.work, state);
            }
            let num_shards = state.queues.len();
            let mut s = state.next_shard % num_shards;
            while state.queues[s].queue.is_empty() {
                s = (s + 1) % num_shards;
            }
            state.next_shard = (s + 1) % num_shards;
            let take = if shared.config.coalesce {
                COALESCE_WINDOW.min(state.queues[s].queue.len())
            } else {
                1
            };
            let window: Vec<QueuedBatch> = state.queues[s].queue.drain(..take).collect();
            state.queued -= take;
            state.in_flight += take;
            if shared.config.read_your_writes {
                state.queues[s].applying = window.iter().map(|q| q.batch.clone()).collect();
            }
            (s, window)
        };
        shared.space.notify_all();

        let taken = match apply_window(shared, shard, window) {
            Ok(taken) => taken,
            Err(cause) => {
                // The window will never apply, so no barrier over it can
                // complete: every caller must hear of the death.
                record_applier_death(shared, &lock_ignore_poison(&shared.state), cause);
                return;
            }
        };

        let mut state = lock_ignore_poison(&shared.state);
        state.queues[shard].applying.clear();
        state.in_flight -= taken;
        state.queues[shard].applied_seq += taken as u64;
        // Every completed window can release a flush barrier (barriers
        // wait on per-queue epochs, not on full quiescence).
        shared.drained.notify_all();
        // Automatic hot/cold detection: piggybacked on the applier cadence
        // so it needs no extra thread and naturally sees applied traffic.
        let rebalance_cfg = &shared.service.config().rebalance;
        if rebalance_cfg.enabled {
            state.windows_since_check += 1;
            if state.windows_since_check >= rebalance_cfg.check_interval {
                state.windows_since_check = 0;
                // Planning failure (e.g. a lost race) is not fatal: the
                // next window plans again.
                let _ = execute_rebalance(shared, &mut state, RebalanceCmd::Plan);
            }
        }
    }
}

/// Coalesce (per config) and apply one popped window to `shard`, recording
/// the queue-wait and apply-time histograms and the lifetime counters.
/// Returns the number of batches consumed from the queue.
///
/// # Errors
///
/// Why the applier must die, if the service rejects a batch.  Admission
/// validated every sub-batch and coalescing keeps them non-empty and
/// within `b`, so this is a broken invariant, not bad input: the window
/// is lost, and the applier loop or the rebalance drain that called this
/// records the death (see [`record_applier_death`]), so that no one waits
/// on a barrier that can never complete.
fn apply_window(
    shared: &Shared,
    shard: usize,
    window: Vec<QueuedBatch>,
) -> std::result::Result<usize, String> {
    // Queue-wait ends when the applier takes ownership of the window.
    let popped_at = Instant::now();
    let mut waits_ns: Vec<u64> = Vec::with_capacity(window.len());
    let mut batches: Vec<UpdateBatch> = Vec::with_capacity(window.len());
    for q in window {
        let wait = popped_at.saturating_duration_since(q.admitted_at);
        waits_ns.push(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
        batches.push(q.batch);
    }

    let taken = batches.len();
    let to_apply = if shared.config.coalesce {
        coalesce_batches(&batches, shared.service.batch_size(), shared.fold_hash)
    } else {
        batches // replay mode applies the popped batch as-is
    };
    shared
        .coalesced_batches
        .fetch_add((taken - to_apply.len()) as u64, Ordering::Relaxed);
    let mut applies_ns: Vec<u64> = Vec::with_capacity(to_apply.len());
    for part in &to_apply {
        // The apply holds the service's table read lock so it cannot
        // interleave with a table swap.
        let apply_start = Instant::now();
        if let Err(e) = shared.service.apply_routed(shard, part) {
            return Err(format!("shard {shard} rejected a validated batch: {e}"));
        }
        applies_ns.push(u64::try_from(apply_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        shared.applied_batches.fetch_add(1, Ordering::Relaxed);
        shared
            .applied_ops
            .fetch_add(part.len() as u64, Ordering::Relaxed);
    }
    {
        // One short lock per window keeps recording off the hot loop.
        let mut latency = lock_ignore_poison(&shared.latency);
        for ns in waits_ns {
            latency.queue_wait.record(ns);
        }
        for ns in applies_ns {
            latency.apply.record(ns);
        }
    }
    Ok(taken)
}

/// Execute one rebalance handoff on the applier thread, with the queue
/// state lock held throughout: drain the affected shards' queues (a
/// targeted flush barrier), perform the structural change on the service,
/// then re-layout the queues against the new routing table.
fn execute_rebalance(
    shared: &Shared,
    state: &mut QueueState,
    cmd: RebalanceCmd,
) -> Result<Option<RebalanceAction>> {
    let action = match cmd {
        RebalanceCmd::Plan => match shared.service.plan_rebalance() {
            Some(action) => action,
            None => return Ok(None),
        },
        RebalanceCmd::Split(s) | RebalanceCmd::SplitAt(s, _) => RebalanceAction::Split(s),
        RebalanceCmd::Merge(s) => RebalanceAction::Merge(s),
    };
    let affected: Vec<usize> = match action {
        RebalanceAction::Split(s) => vec![s],
        RebalanceAction::Merge(s) => vec![s, s + 1],
    };
    if let Some(&bad) = affected.iter().find(|&&s| s >= state.queues.len()) {
        return Err(LsmError::InvalidRebalance {
            reason: format!("shard {bad} out of range for {} shards", state.queues.len()),
        });
    }
    // Targeted drain: every batch admitted for the affected shards must be
    // applied before the rebuild snapshots their contents.  A failed apply
    // kills the applier (see `apply_window`), and the requester hears of
    // the death, not of a rejected request.
    for &s in &affected {
        if state.queues[s].queue.is_empty() {
            continue;
        }
        let drained: Vec<QueuedBatch> = state.queues[s].queue.drain(..).collect();
        state.queued -= drained.len();
        let taken = match apply_window(shared, s, drained) {
            Ok(taken) => taken,
            Err(cause) => {
                record_applier_death(shared, state, cause.clone());
                return Err(LsmError::ApplierPanicked { payload: cause });
            }
        };
        state.queues[s].applied_seq += taken as u64;
    }
    match cmd {
        RebalanceCmd::SplitAt(s, key) => shared.service.split_shard_at(s, key)?,
        RebalanceCmd::Split(s) => {
            shared.service.split_shard(s)?;
        }
        RebalanceCmd::Merge(s) => shared.service.merge_shards(s)?,
        RebalanceCmd::Plan => shared.service.apply_rebalance(action)?,
    }
    // Re-layout against the new table: surviving ids keep their queues and
    // flush counters, replacement shards start fresh.  The dropped queues
    // were just drained, so no admitted batch is lost.
    let table = shared.service.table_snapshot();
    let mut old: HashMap<u64, ShardQueue> = state.queues.drain(..).map(|q| (q.id, q)).collect();
    state.queues = table
        .ids
        .iter()
        .map(|&id| old.remove(&id).unwrap_or_else(|| ShardQueue::new(id)))
        .collect();
    debug_assert!(old.values().all(|q| q.queue.is_empty()));
    state.router = table.router.clone();
    state.epoch = table.epoch;
    state.queued = state.queues.iter().map(|q| q.queue.len()).sum();
    state.next_shard %= state.queues.len().max(1);
    shared.rebalances.fetch_add(1, Ordering::Relaxed);
    // Wake sleeping submitters (they must re-route) and flush barriers
    // (drained ids satisfy their targets).
    shared.space.notify_all();
    shared.drained.notify_all();
    // The routing epoch moved: persist the new shard layout if the
    // pipeline happens to be idle (otherwise the epoch check makes the
    // next idle flush barrier snapshot it).
    maybe_snapshot(shared, state)?;
    Ok(Some(action))
}

/// Replace a run of adjacent batches with visibly equivalent coalesced
/// batches of at most `batch_size` ops each: for every key the **last**
/// batch touching it decides (a deletion anywhere in that batch deletes,
/// otherwise its first insertion wins), and a new output batch starts
/// whenever the accumulated distinct keys would exceed `batch_size` —
/// so each output batch is exactly equivalent to a contiguous sub-run.
/// `hash` keys the fold's map; the output does not depend on it.
fn coalesce_batches(window: &[UpdateBatch], batch_size: usize, hash: FoldHash) -> Vec<UpdateBatch> {
    Fold::over(window, batch_size, hash).finish()
}

/// A claimed slot's `batch` until the deciding pass of the batch that
/// claimed it writes the slot.
const UNWRITTEN: u32 = u32::MAX;

/// Odd multiplier of [`FoldHasher`] (the golden ratio's 64-bit fraction).
/// A fixed constant, not a random one: some random odd multipliers pile
/// strided keys up (`i << 11` at half load read a mean linear probe of 84
/// entries under one), which this one does not.
const FOLD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed of a [`FoldHasher`], drawn once per layer.
#[derive(Debug, Clone, Copy)]
struct FoldHash {
    seed: u64,
}

impl FoldHash {
    /// A fresh seed from std's randomly keyed `RandomState`.
    fn random() -> Self {
        FoldHash {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for FoldHash {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { hash: self.seed }
    }
}

/// A folded-multiply hasher: each word is xor-ed into the state, which is
/// multiplied by [`FOLD_MULTIPLIER`] into 128 bits and folded back by
/// xor-ing the product's two halves.  The high half carries every key bit
/// into the low bits that pick a bucket, so keys that differ only in their
/// high bits (`slot << 7`, say) still spread, at one multiply per 31-bit
/// key instead of SipHash's rounds.
///
/// This is not a keyed pseudo-random function.  It resists chosen keys
/// because the seed is secret and per layer and the fold's output never
/// reveals it (slots follow op order, not hash order), so a client cannot
/// test which keys collide.  The worst case is bounded all the same: the
/// map only ever holds one window's keys, so a window whose keys all
/// collided would cost O((2b)²) probes instead of O(b).
#[derive(Debug)]
struct FoldHasher {
    hash: u64,
}

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(FOLD_MULTIPLIER);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

/// A key's entry in a [`Fold`]'s map.  `u32` holds both indices: a slot
/// indexes distinct 31-bit keys, and a fold spans one window or one shard's
/// pending queue, far below `u32::MAX` batches.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index of the key's op in the output batch being filled.
    slot: u32,
    /// Index, within the fold, of the batch that last wrote the slot.
    batch: u32,
}

/// A run of one shard's adjacent batches folded into visibly equivalent
/// batches (see [`coalesce_batches`]), one pass per batch over one map.
#[derive(Debug)]
struct Fold {
    map: HashMap<Key, Slot, FoldHash>,
    /// The output batch being filled: one op per distinct key, in order of
    /// first appearance.
    acc: Vec<Op>,
    /// Output batches already cut.
    out: Vec<UpdateBatch>,
    /// Most distinct keys an output batch takes (`usize::MAX`: no cut).
    limit: usize,
    /// Batches folded so far.
    batches: u32,
}

impl Fold {
    /// Fold `batches`, oldest first, cutting an output batch before it
    /// would exceed `limit` distinct keys.
    fn over<'a, I>(batches: I, limit: usize, hash: FoldHash) -> Fold
    where
        I: IntoIterator<Item = &'a UpdateBatch>,
        I::IntoIter: Clone,
    {
        let batches = batches.into_iter();
        let (ops, longest) = batches.clone().fold((0, 0), |(ops, longest), b| {
            (ops + b.len(), longest.max(b.len()))
        });
        // The map holds the accumulator's keys plus one batch's at most.
        let keys = ops.min(limit.max(longest).saturating_add(longest));
        let mut fold = Fold {
            map: HashMap::with_capacity_and_hasher(keys, hash),
            acc: Vec::with_capacity(ops.min(limit)),
            out: Vec::new(),
            limit,
            batches: 0,
        };
        for batch in batches {
            fold.push(batch.ops());
        }
        fold
    }

    /// Fold one batch in: the counting pre-pass decides the cut, then the
    /// deciding pass writes its ops' slots.
    fn push(&mut self, ops: &[Op]) {
        let batch = self.batches;
        self.batches += 1;
        let fresh = self.claim_new_keys(ops);
        if !self.acc.is_empty() && self.acc.len() + fresh > self.limit {
            let capacity = self.acc.capacity();
            let full = std::mem::replace(&mut self.acc, Vec::with_capacity(capacity));
            self.out.push(UpdateBatch::from_ops(full));
            self.map.clear();
            self.claim_new_keys(ops);
        }
        for &op in ops {
            // The pre-pass claimed every key, so this only looks it up.
            let entry = self.map.entry(op.key()).or_insert(Slot {
                slot: self.acc.len() as u32,
                batch: UNWRITTEN,
            });
            let slot = entry.slot as usize;
            if entry.batch != batch {
                // The batch's first op on the key replaces whatever an
                // older batch left there (rule 3: the newest batch wins).
                entry.batch = batch;
                if slot == self.acc.len() {
                    self.acc.push(op);
                } else {
                    self.acc[slot] = op;
                }
            } else if let Op::Delete(_) = op {
                // Within one batch a deletion shadows the insertions
                // (rule 6), and the first insertion wins over later ones
                // (rule 4), which therefore write nothing.
                self.acc[slot] = op;
            }
        }
    }

    /// The counting pre-pass: claim the keys of `ops` the map has not
    /// seen, each with the next free slot in order of first appearance,
    /// and return how many there were.
    fn claim_new_keys(&mut self, ops: &[Op]) -> usize {
        let mut fresh = 0;
        for op in ops {
            if let Entry::Vacant(vacant) = self.map.entry(op.key()) {
                vacant.insert(Slot {
                    slot: (self.acc.len() + fresh) as u32,
                    batch: UNWRITTEN,
                });
                fresh += 1;
            }
        }
        fresh
    }

    /// What applying every folded batch leaves visible for `key`:
    /// `Some(Some(v))` inserted, `Some(None)` deleted, `None` untouched.
    /// Complete only for a fold without a cut, whose every key is still
    /// in the map.
    fn decision(&self, key: Key) -> Option<Option<Value>> {
        self.map
            .get(&key)
            .map(|entry| match self.acc[entry.slot as usize] {
                Op::Insert(_, v) => Some(v),
                Op::Delete(_) => None,
            })
    }

    /// The output batches, the one being filled last.
    fn finish(mut self) -> Vec<UpdateBatch> {
        if !self.acc.is_empty() {
            self.out.push(UpdateBatch::from_ops(self.acc));
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpu_sim::{Device, DeviceConfig};

    use super::*;
    use crate::config::{LsmConfig, RebalanceConfig};

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    fn admitted(batch_size: usize, shards: usize, config: AdmissionConfig) -> AdmittedLsm {
        AdmittedLsm::with_config(
            ShardedLsm::new(device(), batch_size, shards).unwrap(),
            config,
        )
    }

    fn config(coalesce: bool, ryw: bool) -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: 8,
            coalesce,
            read_your_writes: ryw,
            submit_deadline: None,
            flush_deadline: None,
        }
    }

    #[test]
    fn submit_flush_query_round_trip() {
        let lsm = admitted(8, 2, config(true, false));
        lsm.insert(&[(1, 10), (1 << 30, 20)]).unwrap();
        lsm.delete(&[1 << 30]).unwrap();
        lsm.flush().unwrap();
        assert_eq!(lsm.lookup(&[1, 1 << 30]), vec![Some(10), None]);
        let stats = lsm.admission_stats();
        assert_eq!(stats.submitted_batches, 2);
        assert_eq!(stats.queued_batches, 0);
        assert!(stats.applied_batches >= 1);
        lsm.check_invariants().unwrap();
    }

    #[test]
    fn validation_rejects_before_enqueueing() {
        let lsm = admitted(2, 2, config(true, false));
        assert_eq!(
            lsm.submit(&UpdateBatch::new()).unwrap_err(),
            LsmError::EmptyBatch
        );
        assert!(matches!(
            lsm.insert(&[(1, 1), (2, 2), (3, 3)]).unwrap_err(),
            LsmError::BatchTooLarge { .. }
        ));
        let mut batch = UpdateBatch::new();
        batch.insert(MAX_KEY + 1, 0);
        assert_eq!(
            lsm.submit(&batch).unwrap_err(),
            LsmError::KeyOutOfRange { key: MAX_KEY + 1 }
        );
        lsm.flush().unwrap();
        assert_eq!(lsm.admission_stats().submitted_batches, 0);
        assert_eq!(lsm.stats().total_elements, 0);
    }

    #[test]
    fn read_your_writes_sees_queued_state() {
        let lsm = admitted(4, 1, config(true, true));
        // Stall nothing: even before any flush, the overlay answers.
        lsm.insert(&[(5, 50), (6, 60)]).unwrap();
        assert_eq!(lsm.lookup(&[5, 6, 7]), vec![Some(50), Some(60), None]);
        lsm.delete(&[5]).unwrap();
        assert_eq!(lsm.lookup(&[5]), vec![None]);
        lsm.insert(&[(5, 51)]).unwrap();
        assert_eq!(lsm.lookup(&[5]), vec![Some(51)]);
        // Interval queries drain first in this mode.
        assert_eq!(lsm.count(&[(0, 100)]), vec![2]);
        assert_eq!(lsm.admission_stats().queued_batches, 0);
    }

    #[test]
    fn coalescing_preserves_rules_4_and_6() {
        // Same submissions through a coalescing and a replaying layer must
        // give identical answers (insert-after-delete, delete-after-insert,
        // duplicate inserts across and within batches).
        let a = admitted(8, 1, config(true, false));
        let b = admitted(8, 1, config(false, false));
        for lsm in [&a, &b] {
            lsm.insert(&[(1, 1), (2, 1), (3, 1)]).unwrap();
            lsm.delete(&[2]).unwrap();
            lsm.insert(&[(2, 7), (4, 7)]).unwrap();
            let mut mixed = UpdateBatch::new();
            mixed.insert(5, 9).delete(3).insert(5, 8).delete(5);
            lsm.submit(&mixed).unwrap();
            lsm.insert(&[(5, 42)]).unwrap();
            lsm.flush().unwrap();
        }
        let queries: Vec<u32> = (0..8).collect();
        assert_eq!(a.lookup(&queries), b.lookup(&queries));
        assert_eq!(a.count(&[(0, 100)]), b.count(&[(0, 100)]));
        assert_eq!(a.range(&[(0, 100)]), b.range(&[(0, 100)]));
        // The coalescing side actually coalesced something.
        assert!(a.admission_stats().coalesced_batches > 0);
        assert_eq!(b.admission_stats().coalesced_batches, 0);
    }

    #[test]
    fn coalesce_batches_respects_capacity_and_semantics() {
        let mut b1 = UpdateBatch::new();
        b1.insert(1, 10).insert(2, 20).delete(3);
        let mut b2 = UpdateBatch::new();
        b2.insert(3, 30).delete(1).insert(4, 40);
        let out = coalesce_batches(&[b1.clone(), b2.clone()], 8, FoldHash::random());
        assert_eq!(out.len(), 1);
        let ops = out[0].ops();
        // Last batch wins per key: 1 deleted, 3 re-inserted; 2 and 4 kept.
        assert!(ops.contains(&Op::Delete(1)));
        assert!(ops.contains(&Op::Insert(2, 20)));
        assert!(ops.contains(&Op::Insert(3, 30)));
        assert!(ops.contains(&Op::Insert(4, 40)));
        assert_eq!(ops.len(), 4);
        // A tight capacity splits instead of overflowing.
        let out = coalesce_batches(&[b1, b2], 3, FoldHash::random());
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|b| b.len() <= 3));
    }

    #[test]
    fn resolve_batch_applies_rule_6() {
        let mut batch = UpdateBatch::new();
        batch
            .insert(7, 1)
            .insert(7, 2)
            .delete(8)
            .insert(8, 3)
            .delete(7);
        let resolved = vec![Op::Delete(7), Op::Delete(8)];
        assert_eq!(resolve_batch(&batch), resolved);
        assert_eq!(
            coalesce_batches(std::slice::from_ref(&batch), 8, FoldHash::random()),
            vec![UpdateBatch::from_ops(resolved)]
        );
        // The read-your-writes overlay reads the same decisions.
        let fold = Fold::over([&batch], usize::MAX, FoldHash::random());
        assert_eq!(fold.decision(7), Some(None));
        assert_eq!(fold.decision(8), Some(None));
        assert_eq!(fold.decision(9), None);
        assert_eq!(fold.decision(Key::MAX), None);
    }

    /// The coalescer before the one-pass fold, kept as its reference: each
    /// batch resolved into one op per key through a hash map, then folded
    /// into the accumulator through a second one.
    fn reference_coalesce(window: &[UpdateBatch], batch_size: usize) -> Vec<UpdateBatch> {
        let mut out = Vec::new();
        let mut acc: Vec<Op> = Vec::new();
        let mut index: HashMap<Key, usize> = HashMap::new();
        for batch in window {
            let resolved = resolve_batch(batch);
            let new_keys = resolved
                .iter()
                .filter(|op| !index.contains_key(&op.key()))
                .count();
            if !acc.is_empty() && acc.len() + new_keys > batch_size {
                out.push(UpdateBatch::from_ops(std::mem::take(&mut acc)));
                index.clear();
            }
            for op in resolved {
                match index.entry(op.key()) {
                    std::collections::hash_map::Entry::Occupied(slot) => acc[*slot.get()] = op,
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(acc.len());
                        acc.push(op);
                    }
                }
            }
        }
        if !acc.is_empty() {
            out.push(UpdateBatch::from_ops(acc));
        }
        out
    }

    /// One batch reduced to a single op per key, in order of first
    /// appearance: any deletion of a key shadows the batch's insertions of
    /// it (rule 6), among insertions the first wins (rule 4).
    fn resolve_batch(batch: &UpdateBatch) -> Vec<Op> {
        let mut order: Vec<Key> = Vec::with_capacity(batch.len());
        let mut decision: HashMap<Key, Op> = HashMap::with_capacity(batch.len());
        for op in batch.ops() {
            match decision.entry(op.key()) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    order.push(op.key());
                    slot.insert(*op);
                }
                std::collections::hash_map::Entry::Occupied(mut slot) => {
                    if matches!(op, Op::Delete(_)) {
                        slot.insert(Op::Delete(op.key()));
                    }
                }
            }
        }
        order.into_iter().map(|k| decision[&k]).collect()
    }

    /// A hash seed drawn from a test's seeded generator.
    fn fold_keys(rng: &mut rand::rngs::StdRng) -> FoldHash {
        use rand::Rng;
        FoldHash { seed: rng.gen() }
    }

    #[test]
    fn coalesce_batches_matches_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xC0A1_E5CE);
        for round in 0..3000usize {
            let b = [1usize, 2, 3, 5, 8, 64][round % 6];
            // A narrow domain, so keys repeat within and across batches;
            // shifted, the keys differ only in their high bits.
            let domain = rng.gen_range(1..=(4 * b).min(256) as u32);
            let shift = [0u32, 7, 11, 23][rng.gen_range(0..4usize)];
            let window: Vec<UpdateBatch> = (0..rng.gen_range(1..=16usize))
                .map(|_| {
                    let mut batch = UpdateBatch::new();
                    for _ in 0..rng.gen_range(1..=b) {
                        let key = rng.gen_range(0..domain) << shift;
                        if rng.gen_bool(0.3) {
                            batch.delete(key);
                        } else {
                            batch.insert(key, rng.gen());
                        }
                    }
                    batch
                })
                .collect();
            assert_eq!(
                coalesce_batches(&window, b, fold_keys(&mut rng)),
                reference_coalesce(&window, b),
                "round {round}: b {b}, window {window:?}"
            );
        }

        // Exactly `b` distinct keys stay one batch even when the second
        // batch repeats its new keys; one more new key splits.
        let b = 8;
        let mut first = UpdateBatch::new();
        for k in 0..4 {
            first.insert(k << 27, k);
        }
        let mut second = UpdateBatch::new();
        for k in 4..8 {
            second.insert(k << 27, k).delete(k << 27);
        }
        let window = [first.clone(), second.clone()];
        let out = coalesce_batches(&window, b, FoldHash::random());
        assert_eq!(out, reference_coalesce(&window, b));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), b);
        second.insert(8 << 27, 8);
        let window = [first, second];
        let out = coalesce_batches(&window, b, FoldHash::random());
        assert_eq!(out, reference_coalesce(&window, b));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn fold_hash_spreads_strided_keys() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // 2b keys for b = 4096 in patterns a hash that keeps the low bits
        // would pile up: strides of high bits (the benchmark's keys are
        // `slot << 7..11`), multiples of the table size, and multiples of
        // the golden ratio.  Each set goes into a linear-probing table kept
        // at most half full, under several seeds; a random hash would read a
        // mean probe of 1.5.
        let n: Key = 8192;
        let sets: Vec<Vec<Key>> = vec![
            (0..n).collect(),
            (0..n).map(|i| i << 7).collect(),
            (0..n).map(|i| i << 11).collect(),
            (0..n).map(|i| i << 14).collect(),
            (0..n).map(|i| i << 18).collect(),
            (0..n)
                .map(|i| i.wrapping_mul(0x9E37_79B9) & MAX_KEY)
                .collect(),
        ];
        let mut rng = StdRng::seed_from_u64(0xF01D_4A54);
        for round in 0..8 {
            let hash = fold_keys(&mut rng);
            for (set, keys) in sets.iter().enumerate() {
                let mask = (2 * keys.len()).next_power_of_two() - 1;
                let mut taken = vec![false; mask + 1];
                let (mut probes, mut longest) = (0usize, 0usize);
                for &key in keys {
                    let mut i = hash.hash_one(key) as usize & mask;
                    let mut run = 1;
                    while taken[i] {
                        i = (i + 1) & mask;
                        run += 1;
                    }
                    taken[i] = true;
                    probes += run;
                    longest = longest.max(run);
                }
                let mean = probes as f64 / keys.len() as f64;
                assert!(
                    mean <= 3.0 && longest <= 64,
                    "round {round}, set {set}: mean probe {mean}, longest {longest}"
                );
            }
        }
    }

    #[test]
    fn rejected_window_stops_the_applier_with_a_typed_error() {
        let lsm = admitted(4, 2, config(true, false));
        // Park the applier, queue a sub-batch for shard 1, then take shard
        // 1 away behind the layer's back: the validated sub-batch can no
        // longer apply.
        lsm.inject_applier_stall(500);
        lsm.insert(&[(1 << 30, 1)]).unwrap();
        lsm.service().merge_shards(0).unwrap();
        let err = lsm.flush().unwrap_err();
        assert!(
            matches!(&err, LsmError::ApplierPanicked { payload } if payload.contains("rejected a validated batch")),
            "{err}"
        );
        assert!(matches!(
            lsm.insert(&[(1, 1)]),
            Err(LsmError::ApplierPanicked { .. })
        ));
    }

    #[test]
    fn rejected_rebalance_drain_reaches_the_requester() {
        let lsm = admitted(4, 2, config(true, false));
        lsm.inject_applier_stall(500);
        lsm.insert(&[(1 << 30, 1)]).unwrap();
        lsm.service().merge_shards(0).unwrap();
        // The split drains shard 1's queue first; its failed apply kills
        // the applier, and the requester hears of the lost window, not of
        // a rejected request.
        let err = lsm.trigger_split(1).unwrap_err();
        assert!(
            matches!(&err, LsmError::ApplierPanicked { payload } if payload.contains("rejected a validated batch")),
            "{err}"
        );
        assert!(matches!(lsm.flush(), Err(LsmError::ApplierPanicked { .. })));
    }

    #[test]
    fn barrier_syncs_the_log_with_work_still_queued() {
        let dir = std::env::temp_dir().join(format!(
            "gpu-lsm-admission-busy-barrier-{}",
            std::process::id()
        ));
        let config =
            LsmConfig::default().durability(wal::DurabilityConfig::new(&dir).fsync_interval(8));
        let (lsm, _) = AdmittedLsm::open_durable(device(), 4, 2, config).unwrap();
        // Park the applier so the batch stays queued while the barrier
        // runs; its record is the first of eight per fsync, so unsynced.
        lsm.inject_applier_stall(500);
        lsm.insert(&[(1, 10)]).unwrap();
        let Some(d) = lsm.shared.durability.get() else {
            panic!("open_durable attached no durability");
        };
        {
            let state = lock_ignore_poison(&lsm.shared.state);
            assert_eq!(state.queued, 1);
            assert!(!lock_ignore_poison(&d.wal).is_synced());
            sync_barrier(&lsm.shared, &state).unwrap();
            assert!(lock_ignore_poison(&d.wal).is_synced());
        }
        assert_eq!(lsm.durability_stats().unwrap().snapshots, 0);
        lsm.flush().unwrap();
        drop(lsm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backpressure_blocks_then_drains() {
        let lsm = admitted(
            4,
            1,
            AdmissionConfig {
                queue_capacity: 2,
                coalesce: true,
                read_your_writes: false,
                submit_deadline: None,
                flush_deadline: None,
            },
        );
        // Many more batches than the queue holds: submitters must block on
        // backpressure and still drain to a consistent end state.
        for i in 0..64u32 {
            lsm.insert(&[(i % 16, i)]).unwrap();
        }
        lsm.flush().unwrap();
        let got = lsm.lookup(&(0..16u32).collect::<Vec<_>>());
        for (k, v) in got.into_iter().enumerate() {
            // Key k was last written by batch 48 + k.
            assert_eq!(v, Some(48 + k as u32), "key {k}");
        }
    }

    #[test]
    fn submit_and_flush_deadlines_time_out_then_recover() {
        let lsm = admitted(
            4,
            1,
            AdmissionConfig {
                queue_capacity: 1,
                coalesce: true,
                read_your_writes: false,
                submit_deadline: Some(Duration::from_millis(40)),
                flush_deadline: Some(Duration::from_millis(40)),
            },
        );
        // Park the applier (lock released) so the queue provably backs up.
        lsm.inject_applier_stall(500);
        std::thread::sleep(Duration::from_millis(30));
        lsm.insert(&[(1, 1)]).unwrap(); // fills the capacity-1 queue
        assert!(matches!(
            lsm.insert(&[(2, 2)]).unwrap_err(),
            LsmError::SubmitTimedOut { .. }
        ));
        assert!(matches!(
            lsm.flush().unwrap_err(),
            LsmError::FlushTimedOut { .. }
        ));
        // Once the stall expires the admitted batch still applies; the
        // timed-out one was never admitted.
        std::thread::sleep(Duration::from_millis(550));
        lsm.flush().unwrap();
        assert_eq!(lsm.lookup(&[1, 2]), vec![Some(1), None]);
    }

    #[test]
    fn drop_drains_pending_work() {
        let service = ShardedLsm::new(device(), 4, 2).unwrap();
        {
            let lsm = AdmittedLsm::with_config(service.clone(), config(true, false));
            for i in 0..20u32 {
                lsm.insert(&[(i, i), ((1 << 30) + i, i)]).unwrap();
            }
            // No flush: dropping the last handle must drain the queues.
        }
        assert_eq!(
            service.lookup(&[19, (1 << 30) + 19]),
            vec![Some(19), Some(19)]
        );
    }

    #[test]
    fn clones_share_queues_and_counters() {
        let lsm = admitted(4, 1, config(true, false));
        let clone = lsm.clone();
        lsm.insert(&[(1, 1)]).unwrap();
        clone.flush().unwrap();
        assert_eq!(clone.lookup(&[1]), vec![Some(1)]);
        assert_eq!(clone.admission_stats().submitted_batches, 1);
    }

    #[test]
    fn triggered_split_and_merge_preserve_admitted_state() {
        let lsm = admitted(8, 1, config(true, false));
        for i in 0..8u32 {
            lsm.insert(&[(i * 100, i), (i * 100 + 1, i)]).unwrap();
        }
        // Split mid-stream, without flushing first: the handoff drains the
        // affected queue itself.
        let action = lsm.trigger_split_at(0, 350).unwrap();
        assert_eq!(action, Some(RebalanceAction::Split(0)));
        assert_eq!(lsm.service().num_shards(), 2);
        assert_eq!(lsm.admission_stats().rebalances, 1);
        // Traffic keeps flowing on both sides of the new boundary.
        lsm.insert(&[(349, 99), (351, 99)]).unwrap();
        lsm.flush().unwrap();
        let keys: Vec<u32> = (0..8).map(|i| i * 100).collect();
        assert_eq!(
            lsm.lookup(&keys),
            (0..8).map(Some).collect::<Vec<Option<u32>>>()
        );
        assert_eq!(lsm.lookup(&[349, 351]), vec![Some(99), Some(99)]);
        lsm.check_invariants().unwrap();
        // Merge back; answers unchanged.
        let action = lsm.trigger_merge(0).unwrap();
        assert_eq!(action, Some(RebalanceAction::Merge(0)));
        assert_eq!(lsm.service().num_shards(), 1);
        lsm.flush().unwrap();
        assert_eq!(
            lsm.lookup(&keys),
            (0..8).map(Some).collect::<Vec<Option<u32>>>()
        );
        // Invalid requests surface the service's error to the caller.
        assert!(lsm.trigger_merge(5).is_err());
        assert!(lsm.trigger_split_at(0, 0).is_err());
        lsm.check_invariants().unwrap();
    }

    #[test]
    fn auto_rebalance_splits_hot_shard_behind_admission() {
        let lsm_config = LsmConfig::default().rebalance(RebalanceConfig {
            enabled: true,
            min_ops: 32,
            hot_fraction: 0.5,
            cold_fraction: 0.0,
            max_shards: 4,
            min_shards: 1,
            check_interval: 1,
        });
        let service = ShardedLsm::with_config(device(), 16, 1, lsm_config).unwrap();
        let lsm = AdmittedLsm::with_config(service, config(true, false));
        for round in 0..16u32 {
            let pairs: Vec<(u32, u32)> = (0..16u32).map(|i| (round * 16 + i, i)).collect();
            lsm.insert(&pairs).unwrap();
        }
        lsm.flush().unwrap();
        assert!(
            lsm.service().num_shards() > 1,
            "hot shard should have been split behind admission, still at {}",
            lsm.service().num_shards()
        );
        assert!(lsm.stats().rebalance_splits >= 1);
        lsm.check_invariants().unwrap();
        assert_eq!(lsm.count(&[(0, MAX_KEY)]), vec![256]);
    }
}
