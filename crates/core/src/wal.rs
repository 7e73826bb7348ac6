//! Durability: write-ahead log, crash-consistent snapshots, recovery.
//!
//! The paper treats the fixed-size batch as the atomic unit of mutation
//! (§III-A rule 1), which makes it the natural WAL record: one submitted
//! [`UpdateBatch`] becomes one length + checksum framed record, appended
//! to the active segment *before* the batch is enqueued for admission.
//! Because per-key resolution is last-writer-wins, replaying a suffix of
//! already-applied records on top of a snapshot is idempotent — recovery
//! never needs to know exactly where the crash fell inside the suffix.
//!
//! Levels are immutable sorted runs, so a crash-consistent snapshot is a
//! **manifest** (router split points, epoch, batch size, per-shard level
//! list with run checksums) plus one **run file** per occupied level.
//! Snapshots are *incremental*, decided by level identity: every level
//! gets a process-wide id when it is built, and a level has no mutators,
//! so a `(shard, level)` slot that still holds the level (by id) its run
//! file was written from keeps referencing that file.  Such a carried
//! level is not copied, encoded or hashed; a checkpoint only pays for the
//! levels built since the previous one, each encoded in one pass straight
//! from the level's arrays under the shard's read lock.
//! Ids live in memory only: recovery binds each loaded run to the level it
//! builds from it.  The on-disk format (per-run file sequence numbers,
//! lengths and digests) and the load-time checksum of every run file are
//! the same whether a run was carried or written.
//!
//! Checksums: every WAL record payload, run file and manifest carries the
//! same 64-bit digest.  It reads its input as little-endian 8-byte words,
//! feeds them round-robin to four interleaved FNV-1a-style lanes (xor,
//! multiply by the FNV prime, rotate), then folds the lanes, the byte
//! length and the tail of fewer than 32 bytes into one state.  Four lanes
//! keep four multiplies in flight, where byte-at-a-time FNV-1a waits on
//! one dependent multiply per byte.
//!
//! Format 3 (`MANIFEST_VERSION` 3, record magic `"WAL3"`) introduced that
//! digest.  Its record, run and manifest byte layouts and sizes are those
//! of format 2, which checksummed byte-wise with FNV-1a; only the checksum
//! values differ.  Recovery therefore refuses a format-2 directory — a
//! manifest whose header names another version, or a segment whose first
//! frame carries the format-2 record magic `"WALR"` — with a typed
//! [`LsmError::Durability`] naming the version, before it changes any
//! file.  Read as format 3, such a manifest would fail its checksum and be
//! skipped, and such a segment would be truncated as a torn tail: the
//! directory's whole log would be dropped without a word.
//!
//! A flush barrier of the admission layer drains the queues and syncs the
//! active WAL segment: the sync is what makes an acknowledged batch
//! durable, since recovery replays it.  A **checkpoint** (a snapshot) runs
//! at an idle barrier only when the routing epoch moved (a shard split or
//! merge, which checkpoints at once) or when the log written since the
//! newest manifest has reached the bytes of the run files that manifest
//! references (0 without one) — the log-size trigger of ARIES-style
//! checkpointing and of Raft's log compaction.  Two bounds follow: after a
//! barrier that skips the checkpoint the log is smaller than the last
//! manifest's runs, so recovery replays at most that much plus the tail no
//! barrier synced; and checkpoints write about one byte per logged byte
//! in steady state, on a doubling schedule while the structure only
//! grows.  A checkpoint first rotates the WAL to a fresh segment keyed by
//! the new sequence number, then writes the runs and the manifest, and
//! last garbage-collects the superseded generation (sparing carried-over
//! runs).  Rotating first means a record
//! acknowledged after a failed snapshot sits in a segment that recovery
//! replays whichever manifest is newest, and the manifest's directory
//! sync also persists the new segment's entry.  Manifests become visible
//! via an atomic tmp-write + rename, so a torn manifest write can never
//! shadow a valid older one.
//!
//! Every filesystem operation goes through the [`crate::vfs::Vfs`] seam.
//! Transient IO errors on append/fsync are retried per [`RetryPolicy`];
//! persistent failure is governed by [`DegradeMode`] — fail stop, or seal
//! the WAL at the last durable boundary and keep serving in memory with a
//! sticky `DurabilityStats::degraded` health flag.
//!
//! Recovery ([`crate::AdmittedLsm::open_durable`]) loads the newest
//! manifest that validates (checksums of the manifest and of every run
//! file), rebuilds the shards from the runs byte-for-byte, then replays
//! every WAL segment of that generation and later **through the normal
//! admission path** in log order, decoding and submitting one record at a
//! time.  That replay spans every barrier since the manifest.  A torn or
//! corrupt tail record ends the replay of its segment: the valid prefix is
//! kept, the tail is truncated, never applied.
//!
//! Fsync batching: [`DurabilityConfig::fsync_interval`] groups `n` record
//! appends per `fsync`, amortizing the sync the same way coalescing
//! amortizes apply cost, and every flush barrier syncs the rest.  A crash
//! may lose at most the un-synced suffix of records — each of which was
//! never acknowledged as durable.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::batch::UpdateBatch;
use crate::error::{LsmError, Result};
use crate::key::{is_tombstone, original_key, EncodedKey, Key, Value};
use crate::vfs::{RealVfs, Vfs, VfsFile};

/// Default number of WAL record appends grouped per `fsync`.
pub const DEFAULT_FSYNC_INTERVAL: usize = 8;

/// Magic prefix of every WAL record frame (`"WAL3"`).
const RECORD_MAGIC: u32 = 0x5741_4C33;
/// Record magic of format 2 (`"WALR"`), whose checksums were byte-wise
/// FNV-1a: recovery refuses a segment that starts with it.
const RECORD_MAGIC_V2: u32 = 0x5741_4C52;
/// Magic prefix of a manifest file (`"MANI"`).
const MANIFEST_MAGIC: u32 = 0x4D41_4E49;
/// Magic prefix of a run file (`"RUNF"`).
const RUN_MAGIC: u32 = 0x5255_4E46;
/// Manifest format version (v2 added per-run file sequence numbers for
/// incremental snapshots; v3 the word-wise digest).
const MANIFEST_VERSION: u32 = 3;
/// Upper bound on one record's payload, so a corrupt length field cannot
/// drive a gigantic allocation before the checksum gets a chance to fail.
const MAX_RECORD_PAYLOAD: usize = 1 << 26;
/// Bytes of a record frame's header: magic, payload length, digest.
const RECORD_HEADER: usize = 16;

/// Name of the sticky marker file written (best-effort) when the pipeline
/// degrades to volatile; reported and cleared by the next successful
/// recovery so operators can tell a degraded generation from a clean one.
pub(crate) const DEGRADED_MARKER: &str = "DEGRADED";

/// Bounded retry-with-backoff for transient durability IO errors
/// (`ENOSPC` racing a cleaner, `EINTR`, a hiccuping fsync).  The sleep
/// doubles per retry and is capped, so a permanent failure surfaces
/// quickly instead of hanging the admission lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per IO operation (minimum 1 = no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles each further retry (capped
    /// at 64x).  `Duration::ZERO` retries immediately.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_micros(100),
        }
    }
}

impl RetryPolicy {
    /// Build a policy from raw attempts + backoff.
    pub fn new(attempts: u32, backoff: Duration) -> Self {
        RetryPolicy {
            attempts: attempts.max(1),
            backoff,
        }
    }

    /// No retries: every IO error is immediately fatal to its operation.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// Sleep before retry number `retry_index` (0-based).
    fn pause(&self, retry_index: u32) {
        if !self.backoff.is_zero() {
            std::thread::sleep(self.backoff * (1u32 << retry_index.min(6)));
        }
    }
}

/// What the durability pipeline does when an append/fsync error persists
/// past the retry budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradeMode {
    /// Surface a typed `LsmError::Durability` from `submit` — the
    /// pipeline refuses to acknowledge writes it cannot log.
    #[default]
    FailStop,
    /// Seal the WAL at the last durable record boundary, set the sticky
    /// `DurabilityStats::degraded` health flag, and keep admitting in-memory so
    /// reads and writes continue while operators alarm on the flag.  The
    /// durable prefix remains exactly recoverable.
    DegradeToVolatile,
}

/// Durability knobs carried by [`crate::LsmConfig`]; `None` there (the
/// default) keeps the structure purely in-memory.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments, manifests and run files.
    /// Created on open if missing.  One directory per service.
    pub dir: PathBuf,
    /// Record appends grouped per `fsync` (minimum 1 = sync every record).
    /// A crash loses at most the un-synced suffix.
    pub fsync_interval: usize,
    /// Retry budget for transient append/fsync errors.
    pub retry: RetryPolicy,
    /// Behavior once the retry budget is exhausted.
    pub degrade: DegradeMode,
    /// Filesystem implementation; `None` uses [`RealVfs`].  Tests inject
    /// [`crate::vfs::FaultVfs`] here.
    pub vfs: Option<Arc<dyn Vfs>>,
}

impl PartialEq for DurabilityConfig {
    fn eq(&self, other: &Self) -> bool {
        let same_vfs = match (&self.vfs, &other.vfs) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.dir == other.dir
            && self.fsync_interval == other.fsync_interval
            && self.retry == other.retry
            && self.degrade == other.degrade
            && same_vfs
    }
}

impl DurabilityConfig {
    /// Durability under `dir` with the default fsync batching.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync_interval: DEFAULT_FSYNC_INTERVAL,
            retry: RetryPolicy::default(),
            degrade: DegradeMode::default(),
            vfs: None,
        }
    }

    /// Set the fsync batching interval (clamped to a minimum of 1).
    pub fn fsync_interval(mut self, records: usize) -> Self {
        self.fsync_interval = records.max(1);
        self
    }

    /// Set the transient-IO retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the persistent-failure behavior.
    pub fn degrade(mut self, degrade: DegradeMode) -> Self {
        self.degrade = degrade;
        self
    }

    /// Route all filesystem operations through `vfs` (a test seam).
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// The effective filesystem implementation.
    pub(crate) fn vfs_impl(&self) -> Arc<dyn Vfs> {
        self.vfs.clone().unwrap_or_else(|| Arc::new(RealVfs))
    }
}

/// Lifetime durability counters (see [`crate::AdmittedLsm::durability_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended (one per submitted batch).
    pub wal_records: u64,
    /// `fsync` calls issued on WAL segments.
    pub wal_syncs: u64,
    /// Transient IO errors absorbed by retry (appends + syncs).
    pub wal_retries: u64,
    /// Snapshots (manifest + runs) written.
    pub snapshots: u64,
    /// Run files carried over unchanged from the previous generation
    /// instead of being rewritten (incremental snapshots).
    pub runs_reused: u64,
    /// Garbage-collection removals (or whole sweeps) that failed.
    pub gc_failures: u64,
    /// Sequence number of the newest durable manifest (0 = none yet).  A
    /// snapshot that fails after rotating the WAL still advances it, to the
    /// number of the segment it rotated to.
    pub manifest_seq: u64,
    /// Sticky health flag: the pipeline hit a persistent IO failure under
    /// [`DegradeMode::DegradeToVolatile`] and is no longer logging.
    pub degraded: bool,
}

/// What [`crate::AdmittedLsm::open_durable`] found and replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the manifest restored from (`None` = fresh dir).
    pub manifest_seq: Option<u64>,
    /// WAL records replayed through the admission path.
    pub replayed_batches: u64,
    /// Bytes of torn / corrupt WAL tail truncated (never replayed).
    pub torn_bytes: u64,
    /// Newer manifests skipped because they failed validation.
    pub corrupt_manifests_skipped: u64,
    /// A previous incarnation degraded to volatile before this recovery
    /// (its `DEGRADED` marker was found, reported, and cleared).
    pub prior_degraded: bool,
}

// ----------------------------------------------------------------------
// Checksums and little-endian framing helpers
// ----------------------------------------------------------------------

/// FNV-1a's 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Starting states of the digest's lanes, distinct so that a word moved
/// to another lane changes the result.
const LANE_SEEDS: [u64; 4] = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];

/// One FNV-1a step over a 64-bit word, then a rotation.  A multiply only
/// carries a difference toward the high bits, so without the rotation a
/// flip of a word's top bit would stay in its lane's top bit, and two such
/// flips in one lane would cancel.
fn fnv_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// The 64-bit checksum of WAL record payloads, run files and manifests:
/// little-endian 8-byte words go round-robin to four FNV-1a-style lanes,
/// then the lanes, the byte length and the tail of fewer than 32 bytes
/// (its last partial word zero-padded) are folded into one state.  Cheap,
/// dependency-free, and plenty for torn-write and bit-rot detection (this
/// is not an adversarial setting).
fn digest(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes = LANE_SEEDS;
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = fnv_step(*lane, u64::from_le_bytes(*word));
        }
    }
    let (words, rest) = tail.as_chunks::<8>();
    let mut last = [0u8; 8];
    for (byte, &b) in last.iter_mut().zip(rest) {
        *byte = b;
    }
    lanes
        .into_iter()
        .chain([bytes.len() as u64])
        .chain(words.iter().map(|&w| u64::from_le_bytes(w)))
        .chain([u64::from_le_bytes(last)])
        .fold(FNV_OFFSET, fnv_step)
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> LsmError {
    LsmError::Durability {
        context: format!("{context} {}: {e}", path.display()),
    }
}

fn corrupt(context: &str, path: &Path) -> LsmError {
    LsmError::Durability {
        context: format!("{context} {}", path.display()),
    }
}

/// The refusal of a file written in another format version.
fn unsupported_format(kind: &str, path: &Path, version: u32) -> LsmError {
    LsmError::Durability {
        context: format!(
            "{kind} {} is in format version {version}; this build reads only format version \
             {MANIFEST_VERSION}",
            path.display()
        ),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian `u32`s, decoded in one pass (a trailing partial word is
/// ignored; callers pass whole words).
fn get_words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .as_chunks::<4>()
        .0
        .iter()
        .map(|&w| u32::from_le_bytes(w))
        .collect()
}

/// A little-endian cursor over a byte slice; `None` means truncated input.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// The bytes not consumed yet.
    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.rest().get(..n)?;
        self.pos += n;
        Some(slice)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let array = *self.rest().first_chunk::<N>()?;
        self.pos += N;
        Some(array)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

// ----------------------------------------------------------------------
// File naming
// ----------------------------------------------------------------------

/// `wal-<seq>.log`: the segment receiving records while manifest `seq` is
/// the newest durable snapshot.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq}.log"))
}

fn manifest_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("MANIFEST-{seq}"))
}

fn run_file_name(seq: u64, shard: usize, level: usize) -> String {
    format!("run-{seq}-{shard}-{level}.bin")
}

fn run_path(dir: &Path, seq: u64, shard: usize, level: usize) -> PathBuf {
    dir.join(run_file_name(seq, shard, level))
}

/// Path of the sticky degradation marker.
pub(crate) fn degraded_marker_path(dir: &Path) -> PathBuf {
    dir.join(DEGRADED_MARKER)
}

/// Parse `prefix<seq>suffix` file names back to their sequence number.
fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Durability of the rename/create itself: sync the directory entry.
fn sync_dir(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<()> {
    vfs.sync_dir(dir)
        .map_err(|e| io_err("sync directory", dir, e))
}

// ----------------------------------------------------------------------
// WAL records
// ----------------------------------------------------------------------

/// Frame one batch: `magic | payload_len | digest(payload) | payload`,
/// payload = the ops as `(encoded_key, value)` pairs.  The encoded key
/// carries the tombstone bit, so the op kind round-trips exactly.
///
/// Frames into a caller-provided scratch buffer (cleared first) with the
/// checksum patched in after the payload is in place, so the writer's
/// steady state allocates nothing per record — no intermediate payload
/// vector, no fresh frame vector.
fn encode_record_into(batch: &UpdateBatch, out: &mut Vec<u8>) {
    out.clear();
    put_u32(out, RECORD_MAGIC);
    put_u32(out, (batch.len() * 8) as u32);
    put_u64(out, 0); // checksum placeholder, patched below
    out.extend(batch.ops().iter().flat_map(|op| {
        let (k, v) = op.encode();
        (u64::from(k) | u64::from(v) << 32).to_le_bytes()
    }));
    let checksum = digest(out.get(RECORD_HEADER..).unwrap_or_default());
    if let Some(slot) = out.get_mut(8..RECORD_HEADER) {
        slot.copy_from_slice(&checksum.to_le_bytes());
    }
}

/// Bytes `batch` takes in the log: its frame header plus 8 per op.
pub(crate) fn record_len(batch: &UpdateBatch) -> u64 {
    (RECORD_HEADER + 8 * batch.len()) as u64
}

/// Decode a record payload in one pass over its 8-byte pairs.
fn decode_payload(payload: &[u8]) -> UpdateBatch {
    let pairs = payload.as_chunks::<8>().0;
    let mut batch = UpdateBatch::with_capacity(pairs.len());
    for &pair in pairs {
        let pair = u64::from_le_bytes(pair);
        let (k, v) = (pair as u32, (pair >> 32) as u32);
        if is_tombstone(k) {
            batch.delete(original_key(k));
        } else {
            batch.insert(original_key(k), v);
        }
    }
    batch
}

/// Outcome of scanning one WAL segment front to back.
#[derive(Debug)]
pub struct SegmentScan {
    /// The decoded records of the valid prefix, in append order.
    pub records: Vec<UpdateBatch>,
    /// Byte offset just past each valid record (parallel to `records`) —
    /// the legal truncation points of this segment.
    pub record_ends: Vec<u64>,
    /// Length of the valid prefix; equals the file length iff the tail is
    /// clean.
    pub valid_len: u64,
    /// Bytes past the valid prefix (torn or corrupt tail).
    pub torn_bytes: u64,
}

/// Scan a segment, stopping at the first frame that is short, has a bad
/// magic, an oversized or misaligned length, a checksum mismatch, or an
/// empty payload.  Everything after that point is tail, not data.
///
/// # Errors
///
/// [`LsmError::Durability`] when the segment cannot be read, or when its
/// first frame carries the format-2 record magic: that segment holds
/// records this build cannot verify, not a torn tail.
pub fn scan_segment(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<SegmentScan> {
    let (mut records, mut record_ends) = (Vec::new(), Vec::new());
    let (valid_len, torn_bytes) = replay_segment(vfs, path, |batch, end| {
        records.push(batch);
        record_ends.push(end);
        Ok(())
    })?;
    Ok(SegmentScan {
        records,
        record_ends,
        valid_len,
        torn_bytes,
    })
}

/// [`scan_segment`] without collecting: hand the valid prefix's records to
/// `visit` front to back, one decoded batch at a time with the byte offset
/// just past it, so the caller holds the segment's bytes and one record.
/// Returns the length of the valid prefix and the bytes past it.
///
/// # Errors
///
/// Those of [`scan_segment`], and an error from `visit`, which ends the
/// scan.
pub(crate) fn replay_segment(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    mut visit: impl FnMut(UpdateBatch, u64) -> Result<()>,
) -> Result<(u64, u64)> {
    let bytes = vfs
        .read(path)
        .map_err(|e| io_err("read segment", path, e))?;
    if bytes.first_chunk::<4>() == Some(&RECORD_MAGIC_V2.to_le_bytes()) {
        return Err(unsupported_format("segment", path, 2));
    }
    let mut cur = Cursor::new(&bytes);
    let mut valid_len = 0;
    loop {
        let header = (cur.u32(), cur.u32(), cur.u64());
        let (Some(magic), Some(len), Some(checksum)) = header else {
            break;
        };
        let len = len as usize;
        if magic != RECORD_MAGIC || len == 0 || !len.is_multiple_of(8) || len > MAX_RECORD_PAYLOAD {
            break;
        }
        let Some(payload) = cur.take(len) else {
            break;
        };
        if digest(payload) != checksum {
            break;
        }
        valid_len = cur.pos as u64;
        visit(decode_payload(payload), valid_len)?;
    }
    Ok((valid_len, bytes.len() as u64 - valid_len))
}

/// The active WAL segment: an append-only record writer with grouped
/// `fsync`, bounded retry on transient IO errors, and write-failure
/// containment (a failed append truncates the file back to the last good
/// record boundary so later records stay readable).
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Bytes known to hold whole, well-formed records.
    valid_len: u64,
    /// Bytes known to be on stable storage (`<= valid_len`).
    synced_len: u64,
    fsync_interval: usize,
    /// Records appended since the last `fsync`.
    unsynced: usize,
    retry: RetryPolicy,
    /// Lifetime records appended through this writer.
    pub(crate) records: u64,
    /// Lifetime `fsync` calls issued by this writer.
    pub(crate) syncs: u64,
    /// Lifetime transient-error retries (appends + syncs).
    pub(crate) retries: u64,
    /// Set when a failed append could not be rolled back; all later
    /// appends are refused (the segment's tail state is unknown).
    broken: bool,
    /// Set by [`Wal::seal`]: the pipeline degraded to volatile and this
    /// segment refuses further appends.
    sealed: bool,
    /// Reusable frame buffer for [`Wal::append`]: every record is encoded
    /// into this scratch, so steady-state appends allocate nothing.
    scratch: Vec<u8>,
}

impl Wal {
    /// Create (truncate) a fresh segment at `path`.
    pub fn create(
        vfs: &Arc<dyn Vfs>,
        path: PathBuf,
        fsync_interval: usize,
        retry: RetryPolicy,
    ) -> Result<Self> {
        let file = vfs
            .open_write(&path, true)
            .map_err(|e| io_err("create segment", &path, e))?;
        Ok(Wal {
            file,
            path,
            valid_len: 0,
            synced_len: 0,
            fsync_interval: fsync_interval.max(1),
            unsynced: 0,
            retry,
            records: 0,
            syncs: 0,
            retries: 0,
            broken: false,
            sealed: false,
            scratch: Vec::new(),
        })
    }

    /// Re-open an existing segment for appending, physically truncating it
    /// to `valid_len` first (recovery discards the torn tail for good).
    pub fn open_append(
        vfs: &Arc<dyn Vfs>,
        path: PathBuf,
        fsync_interval: usize,
        valid_len: u64,
        retry: RetryPolicy,
    ) -> Result<Self> {
        let mut file = vfs
            .open_write(&path, false)
            .map_err(|e| io_err("open segment", &path, e))?;
        file.set_len(valid_len)
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err("truncate segment", &path, e))?;
        file.seek_start(valid_len)
            .map_err(|e| io_err("seek segment", &path, e))?;
        Ok(Wal {
            file,
            path,
            valid_len,
            synced_len: valid_len,
            fsync_interval: fsync_interval.max(1),
            unsynced: 0,
            retry,
            records: 0,
            syncs: 0,
            retries: 0,
            broken: false,
            sealed: false,
            scratch: Vec::new(),
        })
    }

    /// Append one batch as a framed record, syncing every
    /// `fsync_interval`-th append.  Transient write errors are rolled back
    /// and retried per the [`RetryPolicy`]; an error return means the
    /// record is *not* in the log (a rejected submit can never replay).
    pub fn append(&mut self, batch: &UpdateBatch) -> Result<()> {
        if self.broken {
            return Err(corrupt(
                "segment writer disabled after failed append",
                &self.path,
            ));
        }
        if self.sealed {
            return Err(corrupt("segment sealed after degradation", &self.path));
        }
        // Frame into the writer's scratch: no per-record allocation.  The
        // buffer is taken out and handed back around the IO so error paths
        // cannot leak it.
        let mut record = std::mem::take(&mut self.scratch);
        encode_record_into(batch, &mut record);
        let result = self.append_record(&record);
        self.scratch = record;
        result
    }

    /// Write one already-framed record, retrying transient errors and
    /// rolling the file back to the last good boundary on failure.
    fn append_record(&mut self, record: &[u8]) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            match self.file.write_all(record) {
                Ok(()) => break,
                Err(e) => {
                    // Roll the file back to the last good boundary so a
                    // partial frame cannot sit in front of a retried or
                    // future record.
                    if self.file.set_len(self.valid_len).is_err()
                        || self.file.seek_start(self.valid_len).is_err()
                    {
                        self.broken = true;
                        return Err(io_err("append record to", &self.path, e));
                    }
                    attempt += 1;
                    if attempt >= self.retry.attempts.max(1) {
                        return Err(io_err("append record to", &self.path, e));
                    }
                    self.retries += 1;
                    self.retry.pause(attempt - 1);
                }
            }
        }
        self.valid_len += record.len() as u64;
        self.records += 1;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_interval {
            if let Err(e) = self.sync() {
                // The sync failure fails this append, so the caller will
                // reject the submit — roll the record back out of the log
                // so it can never replay.
                let rollback = self.valid_len - record.len() as u64;
                if self.file.set_len(rollback).is_err() || self.file.seek_start(rollback).is_err() {
                    self.broken = true;
                } else {
                    self.valid_len = rollback;
                    self.records -= 1;
                    self.unsynced -= 1;
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Force the segment to stable storage now, retrying transient errors.
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        let mut attempt = 0u32;
        loop {
            match self.file.sync_data() {
                Ok(()) => break,
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.retry.attempts.max(1) {
                        return Err(io_err("sync segment", &self.path, e));
                    }
                    self.retries += 1;
                    self.retry.pause(attempt - 1);
                }
            }
        }
        self.unsynced = 0;
        self.syncs += 1;
        self.synced_len = self.valid_len;
        Ok(())
    }

    /// Seal the segment at the last durable record boundary
    /// ([`DegradeMode::DegradeToVolatile`]): truncate the un-synced suffix
    /// — records that were never acknowledged as durable — and refuse all
    /// later appends.  Best-effort: the storage is already failing, so IO
    /// errors here are swallowed (recovery's scan tolerates whatever tail
    /// remains).  Returns the durable boundary.
    pub(crate) fn seal(&mut self) -> u64 {
        if !self.sealed {
            self.sealed = true;
            if self.file.set_len(self.synced_len).is_ok() {
                let _ = self.file.sync_all();
                self.valid_len = self.synced_len;
                self.unsynced = 0;
            }
        }
        self.synced_len
    }

    /// Whether [`Wal::seal`] has been called.
    pub(crate) fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Whether every record appended so far is on stable storage.
    #[cfg(test)]
    pub(crate) fn is_synced(&self) -> bool {
        self.synced_len == self.valid_len
    }
}

// ----------------------------------------------------------------------
// Snapshots: manifest + run files
// ----------------------------------------------------------------------

/// What a snapshot writes for one occupied `(shard, level)` slot.
#[derive(Debug)]
pub(crate) enum SnapshotRun {
    /// The slot still holds the level the previous generation's run file
    /// was written from (same [`crate::level::Level`] id, hence the same
    /// bytes): the manifest references that file again.
    Carried(RunRef),
    /// Any other level: its run file, encoded while the shard was read,
    /// to be checksummed and written as this generation's run file.
    Fresh { id: u64, len: u64, bytes: Vec<u8> },
}

impl SnapshotRun {
    /// Encode the level with id `id` and arrays `keys`/`values` as a fresh
    /// run file, in one pass over each array.
    pub(crate) fn fresh(id: u64, keys: &[EncodedKey], values: &[Value]) -> Self {
        SnapshotRun::Fresh {
            id,
            len: keys.len() as u64,
            bytes: encode_run(keys, values),
        }
    }
}

/// A run file referenced by a manifest: which generation physically wrote
/// it (`file_seq` — older than the manifest's own seq when the run was
/// carried over), plus the length and digest the manifest records for it.
/// `level_id` lives in memory only: the id of the level the file was
/// written from, which decides whether the next snapshot carries the file
/// over.  Runs loaded from disk start at 0, an id no level has, until
/// recovery binds them to the levels it builds from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunRef {
    pub level_id: u64,
    pub file_seq: u64,
    pub len: u64,
    pub digest: u64,
}

/// One level read back from its run file: `(level index, encoded keys,
/// values)`.
pub(crate) type LevelDump = (usize, Vec<EncodedKey>, Vec<Value>);

/// Live run files keyed by `(shard, level)`.
pub(crate) type RunMap = HashMap<(usize, usize), RunRef>;

/// Identity of a snapshot generation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnapshotMeta {
    pub seq: u64,
    pub epoch: u64,
    pub batch_size: usize,
}

/// A validated snapshot loaded back from disk.
#[derive(Debug)]
pub(crate) struct LoadedSnapshot {
    pub seq: u64,
    pub epoch: u64,
    pub batch_size: usize,
    pub split_points: Vec<Key>,
    /// Per shard, its occupied levels, smallest index first.
    pub shards: Vec<Vec<LevelDump>>,
    /// The run files this manifest references, not yet bound to levels
    /// (`level_id` 0).
    pub run_refs: RunMap,
    /// Newer manifests skipped because they failed validation.
    pub corrupt_skipped: u64,
}

/// Bytes of the run file of `len` elements: a 16-byte header (magic,
/// reserved word, length), then 4 per key and 4 per value.
fn run_file_len(len: u64) -> u64 {
    16 + 8 * len
}

/// Bytes of the run files `runs` references: what a log since their
/// manifest is measured against before the next checkpoint.
pub(crate) fn run_bytes(runs: &RunMap) -> u64 {
    runs.values().map(|run| run_file_len(run.len)).sum()
}

/// A run file: `magic | reserved | len | keys | values`, all little-endian.
fn encode_run(keys: &[EncodedKey], values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(run_file_len(keys.len() as u64) as usize);
    put_u32(&mut out, RUN_MAGIC);
    put_u32(&mut out, 0); // reserved
    put_u64(&mut out, keys.len() as u64);
    out.extend(keys.iter().flat_map(|k| k.to_le_bytes()));
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    out
}

/// The digest a manifest records for the run file of these arrays.
pub(crate) fn run_digest(keys: &[EncodedKey], values: &[Value]) -> u64 {
    digest(&encode_run(keys, values))
}

fn decode_run(bytes: &[u8], path: &Path) -> Result<(Vec<EncodedKey>, Vec<Value>)> {
    let mut cur = Cursor::new(bytes);
    let header = (cur.u32(), cur.u32(), cur.u64());
    let (Some(RUN_MAGIC), Some(_), Some(len)) = header else {
        return Err(corrupt("bad run header in", path));
    };
    let array_bytes = usize::try_from(len)
        .ok()
        .and_then(|len| len.checked_mul(4))
        .ok_or_else(|| corrupt("oversized run in", path))?;
    let keys = cur
        .take(array_bytes)
        .ok_or_else(|| corrupt("truncated run keys in", path))?;
    let values = cur
        .take(array_bytes)
        .ok_or_else(|| corrupt("truncated run values in", path))?;
    if !cur.rest().is_empty() {
        return Err(corrupt("trailing bytes in run", path));
    }
    Ok((get_words(keys), get_words(values)))
}

/// Write snapshot generation `meta.seq` from `shards` (per shard, its
/// occupied levels smallest index first): every [`SnapshotRun::Fresh`]
/// run file (synced), then the manifest via tmp-write + fsync + atomic
/// rename + dir sync.  A [`SnapshotRun::Carried`] run writes nothing; the
/// manifest references the earlier generation's file.  Only the rename
/// makes the generation visible, so a crash anywhere in here leaves the
/// previous generation authoritative.  Returns the new generation's run
/// map and how many runs were carried.
pub(crate) fn write_snapshot(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    meta: SnapshotMeta,
    split_points: &[Key],
    shards: &[Vec<(usize, SnapshotRun)>],
) -> Result<(RunMap, u64)> {
    let mut runs = RunMap::new();
    let mut reused = 0u64;
    let mut manifest = Vec::new();
    put_u32(&mut manifest, MANIFEST_MAGIC);
    put_u32(&mut manifest, MANIFEST_VERSION);
    put_u64(&mut manifest, meta.seq);
    put_u64(&mut manifest, meta.epoch);
    put_u64(&mut manifest, meta.batch_size as u64);
    put_u32(&mut manifest, split_points.len() as u32);
    for &p in split_points {
        put_u32(&mut manifest, p);
    }
    put_u32(&mut manifest, shards.len() as u32);
    for (s, levels) in shards.iter().enumerate() {
        put_u32(&mut manifest, levels.len() as u32);
        for (i, run) in levels {
            let run_ref = match run {
                SnapshotRun::Carried(r) => {
                    reused += 1;
                    *r
                }
                SnapshotRun::Fresh { id, len, bytes } => {
                    let path = run_path(dir, meta.seq, s, *i);
                    vfs.write(&path, bytes)
                        .map_err(|e| io_err("write run", &path, e))?;
                    vfs.sync_file(&path)
                        .map_err(|e| io_err("sync run", &path, e))?;
                    RunRef {
                        level_id: *id,
                        file_seq: meta.seq,
                        len: *len,
                        digest: digest(bytes),
                    }
                }
            };
            runs.insert((s, *i), run_ref);
            put_u32(&mut manifest, *i as u32);
            put_u64(&mut manifest, run_ref.file_seq);
            put_u64(&mut manifest, run_ref.len);
            put_u64(&mut manifest, run_ref.digest);
        }
    }
    let trailer = digest(&manifest);
    put_u64(&mut manifest, trailer);

    let tmp = dir.join(format!("MANIFEST-{}.tmp", meta.seq));
    let path = manifest_path(dir, meta.seq);
    vfs.write(&tmp, &manifest)
        .map_err(|e| io_err("write manifest", &tmp, e))?;
    vfs.sync_file(&tmp)
        .map_err(|e| io_err("sync manifest", &tmp, e))?;
    vfs.rename(&tmp, &path)
        .map_err(|e| io_err("publish manifest", &path, e))?;
    sync_dir(vfs, dir)?;
    Ok((runs, reused))
}

/// Refuse a manifest whose header names another format version: its
/// checksums cannot be verified here, so it is neither data nor corrupt.
fn check_manifest_version(bytes: &[u8], path: &Path) -> Result<()> {
    let mut cur = Cursor::new(bytes);
    match (cur.u32(), cur.u32()) {
        (Some(MANIFEST_MAGIC), Some(version)) if version != MANIFEST_VERSION => {
            Err(unsupported_format("manifest", path, version))
        }
        _ => Ok(()),
    }
}

/// Parse and fully validate one manifest generation (its file `bytes`),
/// loading its runs.
fn load_manifest(vfs: &Arc<dyn Vfs>, dir: &Path, seq: u64, bytes: &[u8]) -> Result<LoadedSnapshot> {
    let path = manifest_path(dir, seq);
    let Some((body, trailer)) = bytes.split_last_chunk::<8>() else {
        return Err(corrupt("short manifest", &path));
    };
    if digest(body) != u64::from_le_bytes(*trailer) {
        return Err(corrupt("manifest checksum mismatch in", &path));
    }
    let mut cur = Cursor::new(body);
    let header = (cur.u32(), cur.u32(), cur.u64(), cur.u64(), cur.u64());
    let (Some(MANIFEST_MAGIC), Some(MANIFEST_VERSION), Some(file_seq), Some(epoch), Some(bs)) =
        header
    else {
        return Err(corrupt("bad manifest header in", &path));
    };
    if file_seq != seq {
        return Err(corrupt("manifest sequence mismatch in", &path));
    }
    let nsplit = cur
        .u32()
        .ok_or_else(|| corrupt("truncated manifest", &path))?;
    let mut split_points = Vec::with_capacity(nsplit as usize);
    for _ in 0..nsplit {
        split_points.push(
            cur.u32()
                .ok_or_else(|| corrupt("truncated manifest", &path))?,
        );
    }
    let nshards = cur
        .u32()
        .ok_or_else(|| corrupt("truncated manifest", &path))?;
    let mut shards = Vec::with_capacity(nshards as usize);
    let mut run_refs = RunMap::new();
    for s in 0..nshards as usize {
        let nlevels = cur
            .u32()
            .ok_or_else(|| corrupt("truncated manifest", &path))?;
        let mut levels = Vec::with_capacity(nlevels as usize);
        for _ in 0..nlevels {
            let entry = (cur.u32(), cur.u64(), cur.u64(), cur.u64());
            let (Some(i), Some(run_seq), Some(len), Some(checksum)) = entry else {
                return Err(corrupt("truncated manifest", &path));
            };
            let rpath = run_path(dir, run_seq, s, i as usize);
            let run = vfs
                .read(&rpath)
                .map_err(|e| io_err("read run", &rpath, e))?;
            if digest(&run) != checksum {
                return Err(corrupt("run checksum mismatch in", &rpath));
            }
            let (keys, values) = decode_run(&run, &rpath)?;
            if keys.len() as u64 != len {
                return Err(corrupt("run length mismatch in", &rpath));
            }
            run_refs.insert(
                (s, i as usize),
                RunRef {
                    level_id: 0,
                    file_seq: run_seq,
                    len,
                    digest: checksum,
                },
            );
            levels.push((i as usize, keys, values));
        }
        shards.push(levels);
    }
    if cur.pos != body.len() {
        return Err(corrupt("trailing bytes in manifest", &path));
    }
    Ok(LoadedSnapshot {
        seq,
        epoch,
        batch_size: bs as usize,
        split_points,
        shards,
        run_refs,
        corrupt_skipped: 0,
    })
}

/// All manifest sequence numbers present in `dir`, descending.
fn manifest_seqs(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<Vec<u64>> {
    let mut seqs: Vec<u64> = vfs
        .read_dir_names(dir)
        .map_err(|e| io_err("list durability dir", dir, e))?
        .iter()
        .filter_map(|name| parse_seq(name, "MANIFEST-", ""))
        .collect();
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(seqs)
}

/// Load the newest manifest that fully validates, skipping (and counting)
/// unreadable or corrupt newer ones.  `Ok(None)` means no usable snapshot
/// exists.  A manifest of another format version is an error, not a skip.
pub(crate) fn load_newest_snapshot(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
) -> Result<Option<LoadedSnapshot>> {
    let mut skipped = 0u64;
    for seq in manifest_seqs(vfs, dir)? {
        let path = manifest_path(dir, seq);
        let Ok(bytes) = vfs.read(&path) else {
            skipped += 1;
            continue;
        };
        check_manifest_version(&bytes, &path)?;
        match load_manifest(vfs, dir, seq, &bytes) {
            Ok(mut snapshot) => {
                snapshot.corrupt_skipped = skipped;
                return Ok(Some(snapshot));
            }
            Err(_) => skipped += 1,
        }
    }
    Ok(None)
}

/// WAL segments with sequence number `>= min_seq`, ascending — the replay
/// order (older generations first, records within a segment in append
/// order).
pub(crate) fn list_segments(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    min_seq: u64,
) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments: Vec<(u64, PathBuf)> = vfs
        .read_dir_names(dir)
        .map_err(|e| io_err("list durability dir", dir, e))?
        .iter()
        .filter_map(|name| {
            let seq = parse_seq(name, "wal-", ".log")?;
            (seq >= min_seq).then(|| (seq, segment_path(dir, seq)))
        })
        .collect();
    segments.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(segments)
}

/// Remove everything belonging to generations older than `keep_seq` (plus
/// stray `.tmp` manifests), *except* run files the live manifest still
/// references — incremental snapshots carry runs across generations.
/// Failures no longer vanish: the returned count feeds
/// [`DurabilityStats::gc_failures`] so operators can alarm on a disk that
/// refuses deletes.  The stale files themselves stay harmless (older
/// manifests are shadowed, older segments replay idempotently) and are
/// retried by the next snapshot's sweep.
pub(crate) fn collect_garbage(vfs: &Arc<dyn Vfs>, dir: &Path, keep_seq: u64, live: &RunMap) -> u64 {
    let live_names: HashSet<String> = live
        .iter()
        .map(|(&(s, i), r)| run_file_name(r.file_seq, s, i))
        .collect();
    let names = match vfs.read_dir_names(dir) {
        Ok(names) => names,
        Err(_) => return 1, // the whole sweep failed
    };
    let mut failures = 0u64;
    for name in names {
        let stale = name.ends_with(".tmp")
            || parse_seq(&name, "MANIFEST-", "").is_some_and(|s| s < keep_seq)
            || parse_seq(&name, "wal-", ".log").is_some_and(|s| s < keep_seq)
            || (!live_names.contains(&name)
                && name
                    .strip_prefix("run-")
                    .and_then(|rest| rest.split('-').next())
                    .and_then(|s| s.parse::<u64>().ok())
                    .is_some_and(|s| s < keep_seq));
        if stale && vfs.remove_file(&dir.join(&name)).is_err() {
            failures += 1;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{Fault, FaultOp, FaultVfs};
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gpu-lsm-wal-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn real() -> Arc<dyn Vfs> {
        Arc::new(RealVfs)
    }

    fn batch(ops: &[(u32, Option<u32>)]) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        for &(k, v) in ops {
            match v {
                Some(v) => b.insert(k, v),
                None => b.delete(k),
            };
        }
        b
    }

    fn meta(seq: u64, epoch: u64, batch_size: usize) -> SnapshotMeta {
        SnapshotMeta {
            seq,
            epoch,
            batch_size,
        }
    }

    #[test]
    fn records_round_trip_including_tombstones() {
        let dir = temp_dir("roundtrip");
        let vfs = real();
        let path = segment_path(&dir, 0);
        let b1 = batch(&[(1, Some(10)), (2, None), (3, Some(30))]);
        let b2 = batch(&[(2, Some(20))]);
        let mut wal = Wal::create(&vfs, path.clone(), 1, RetryPolicy::none()).unwrap();
        wal.append(&b1).unwrap();
        wal.append(&b2).unwrap();
        assert_eq!(wal.records, 2);
        assert_eq!(wal.syncs, 2); // interval 1 syncs every record
        let scan = scan_segment(&vfs, &path).unwrap();
        assert_eq!(scan.records, vec![b1, b2]);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.record_ends.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_batching_groups_appends() {
        let dir = temp_dir("fsync");
        let vfs = real();
        let mut wal = Wal::create(&vfs, segment_path(&dir, 0), 4, RetryPolicy::none()).unwrap();
        for i in 0..10u32 {
            wal.append(&batch(&[(i, Some(i))])).unwrap();
        }
        assert_eq!(wal.syncs, 2); // after records 4 and 8
        wal.sync().unwrap();
        assert_eq!(wal.syncs, 3);
        wal.sync().unwrap(); // nothing new: no extra fsync
        assert_eq!(wal.syncs, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_skipped() {
        let dir = temp_dir("torn");
        let vfs = real();
        let path = segment_path(&dir, 0);
        let mut wal = Wal::create(&vfs, path.clone(), 1, RetryPolicy::none()).unwrap();
        wal.append(&batch(&[(1, Some(1))])).unwrap();
        wal.append(&batch(&[(2, Some(2))])).unwrap();
        drop(wal);
        let clean = scan_segment(&vfs, &path).unwrap();
        // Cut mid-way through the second record: only the first survives.
        let cut = (clean.record_ends[0] + clean.record_ends[1]) / 2;
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let scan = scan_segment(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, clean.record_ends[0]);
        assert_eq!(scan.torn_bytes, cut - clean.record_ends[0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_checksum_truncates_from_that_record() {
        let dir = temp_dir("corrupt");
        let vfs = real();
        let path = segment_path(&dir, 0);
        let mut wal = Wal::create(&vfs, path.clone(), 1, RetryPolicy::none()).unwrap();
        for i in 0..3u32 {
            wal.append(&batch(&[(i, Some(i))])).unwrap();
        }
        drop(wal);
        let clean = scan_segment(&vfs, &path).unwrap();
        // Flip one payload byte inside the second record.
        let mut bytes = fs::read(&path).unwrap();
        let offset = clean.record_ends[0] as usize + 17;
        bytes[offset] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_append_and_sync_faults_are_retried_invisibly() {
        let dir = temp_dir("retry");
        let path = segment_path(&dir, 0);
        let fault = FaultVfs::scripted(vec![
            Fault::transient(FaultOp::Append, 1, std::io::ErrorKind::StorageFull),
            Fault::transient(FaultOp::Sync, 1, std::io::ErrorKind::Other),
            Fault::short_write(FaultOp::Append, 3, 5),
        ]);
        let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
        let retry = RetryPolicy::new(3, Duration::ZERO);
        let mut wal = Wal::create(&vfs, path.clone(), 1, retry).unwrap();
        for i in 0..4u32 {
            wal.append(&batch(&[(i, Some(i))])).unwrap();
        }
        assert!(
            wal.retries >= 3,
            "all three faults absorbed: {}",
            wal.retries
        );
        assert_eq!(wal.records, 4);
        // The log is byte-clean despite the torn intermediate write.
        let scan = scan_segment(&real(), &path).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.torn_bytes, 0);
        assert!(fault.injected_faults() >= 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_retry_fails_the_append_and_rolls_back() {
        let dir = temp_dir("exhaust");
        let path = segment_path(&dir, 0);
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::scripted(vec![Fault::transient(
            FaultOp::Append,
            1,
            std::io::ErrorKind::StorageFull,
        )]));
        let mut wal = Wal::create(&vfs, path.clone(), 1, RetryPolicy::none()).unwrap();
        wal.append(&batch(&[(1, Some(1))])).unwrap();
        let err = wal.append(&batch(&[(2, Some(2))])).unwrap_err();
        assert!(matches!(err, LsmError::Durability { .. }));
        // The writer survives the failure and the log stays clean.
        wal.append(&batch(&[(3, Some(3))])).unwrap();
        let scan = scan_segment(&real(), &path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_interval_sync_rolls_back_the_record_and_seal_truncates() {
        let dir = temp_dir("sealsync");
        let path = segment_path(&dir, 0);
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::scripted(vec![Fault::permanent(
            FaultOp::Sync,
            0,
            std::io::ErrorKind::Other,
        )]));
        let mut wal = Wal::create(&vfs, path.clone(), 2, RetryPolicy::none()).unwrap();
        wal.append(&batch(&[(1, Some(1))])).unwrap(); // below interval: no sync yet
        let err = wal.append(&batch(&[(2, Some(2))])).unwrap_err();
        assert!(matches!(err, LsmError::Durability { .. }));
        // The rejected record was rolled back; the acked one remains.
        let scan = scan_segment(&real(), &path).unwrap();
        assert_eq!(scan.records.len(), 1);
        // Sealing truncates to the durable boundary: nothing was synced.
        assert_eq!(wal.seal(), 0);
        assert!(wal.is_sealed());
        assert!(wal.append(&batch(&[(3, Some(3))])).is_err());
        let scan = scan_segment(&real(), &path).unwrap();
        assert_eq!(scan.records.len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh run for level slot `level` (the level id is irrelevant to
    /// the writer beyond being recorded).
    fn fresh(level: usize, keys: Vec<u32>, values: Vec<u32>) -> (usize, SnapshotRun) {
        let id = 100 + level as u64;
        (level, SnapshotRun::fresh(id, &keys, &values))
    }

    /// The file names in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn snapshot_round_trips_and_newest_valid_wins() {
        let dir = temp_dir("snapshot");
        let vfs = real();
        let shard = vec![fresh(0, vec![2, 5, 9, 12], vec![1, 2, 3, 4])];
        write_snapshot(&vfs, &dir, meta(1, 0, 4), &[], &[shard]).unwrap();
        let shard2 = vec![fresh(1, vec![2, 5, 9, 12, 14, 17, 21, 25], vec![0; 8])];
        write_snapshot(&vfs, &dir, meta(2, 3, 4), &[1000], &[shard2, vec![]]).unwrap();
        let loaded = load_newest_snapshot(&vfs, &dir).unwrap().unwrap();
        assert_eq!(loaded.seq, 2);
        assert_eq!(loaded.epoch, 3);
        assert_eq!(loaded.batch_size, 4);
        assert_eq!(loaded.split_points, vec![1000]);
        assert_eq!(loaded.shards.len(), 2);
        assert_eq!(loaded.shards[0][0].0, 1);
        assert_eq!(loaded.shards[0][0].1.len(), 8);
        assert_eq!(loaded.corrupt_skipped, 0);
        assert_eq!(loaded.run_refs[&(0, 1)].file_seq, 2);
        assert_eq!(
            loaded.run_refs[&(0, 1)].level_id,
            0,
            "loaded runs are unbound"
        );

        // Corrupt the newest manifest: recovery falls back to seq 1.
        let mut bytes = fs::read(manifest_path(&dir, 2)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(manifest_path(&dir, 2), &bytes).unwrap();
        let loaded = load_newest_snapshot(&vfs, &dir).unwrap().unwrap();
        assert_eq!(loaded.seq, 1);
        assert_eq!(loaded.corrupt_skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unchanged_runs_are_reused_across_generations() {
        let dir = temp_dir("incremental");
        let vfs = real();
        let (stable_keys, stable_values) = (vec![2u32, 5, 9, 12], vec![1u32, 2, 3, 4]);
        let gen1 = [vec![
            fresh(0, stable_keys.clone(), stable_values.clone()),
            fresh(1, vec![14, 17], vec![7, 8]),
        ]];
        let (runs1, reused1) = write_snapshot(&vfs, &dir, meta(1, 0, 2), &[], &gen1).unwrap();
        assert_eq!(reused1, 0);
        let stable = runs1[&(0, 0)];
        assert_eq!(stable.level_id, 100);
        assert_eq!(stable.digest, run_digest(&stable_keys, &stable_values));

        // Generation 2: level 0 carried by reference, level 1 changed.  The
        // carried entry writes no file and keeps generation 1's file_seq.
        let gen2 = [vec![
            (0, SnapshotRun::Carried(stable)),
            fresh(1, vec![14, 17, 21, 25], vec![7, 8, 9, 10]),
        ]];
        let (runs2, reused2) = write_snapshot(&vfs, &dir, meta(2, 0, 2), &[], &gen2).unwrap();
        assert_eq!(reused2, 1);
        assert_eq!(runs2[&(0, 0)], stable, "level 0 carried over as is");
        assert_eq!(runs2[&(0, 1)].file_seq, 2, "level 1 rewritten");
        assert_eq!(
            listing(&dir),
            [
                "MANIFEST-1",
                "MANIFEST-2",
                "run-1-0-0.bin",
                "run-1-0-1.bin",
                "run-2-0-1.bin"
            ],
            "only the changed run was written"
        );
        // GC of generation 1 must spare the carried-over run.
        assert_eq!(collect_garbage(&vfs, &dir, 2, &runs2), 0);
        assert_eq!(
            listing(&dir),
            ["MANIFEST-2", "run-1-0-0.bin", "run-2-0-1.bin"]
        );
        // And the surviving generation still loads in full.
        let loaded = load_newest_snapshot(&vfs, &dir).unwrap().unwrap();
        assert_eq!(loaded.seq, 2);
        assert_eq!(loaded.shards[0][0].1, stable_keys);
        assert_eq!(loaded.run_refs[&(0, 0)].file_seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_collection_keeps_current_generation() {
        let dir = temp_dir("gc");
        let vfs = real();
        let shard = || vec![fresh(0, vec![3], vec![7])];
        write_snapshot(&vfs, &dir, meta(1, 0, 1), &[], &[shard()]).unwrap();
        let (runs2, _) = write_snapshot(&vfs, &dir, meta(2, 0, 1), &[], &[shard()]).unwrap();
        drop(Wal::create(&vfs, segment_path(&dir, 1), 1, RetryPolicy::none()).unwrap());
        drop(Wal::create(&vfs, segment_path(&dir, 2), 1, RetryPolicy::none()).unwrap());
        assert_eq!(collect_garbage(&vfs, &dir, 2, &runs2), 0);
        assert!(!manifest_path(&dir, 1).exists());
        assert!(!segment_path(&dir, 1).exists());
        assert!(!run_path(&dir, 1, 0, 0).exists());
        assert!(manifest_path(&dir, 2).exists());
        assert!(segment_path(&dir, 2).exists());
        assert!(run_path(&dir, 2, 0, 0).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_failures_are_counted_not_swallowed() {
        let dir = temp_dir("gcfail");
        let vfs = real();
        let shard = || vec![fresh(0, vec![3], vec![7])];
        write_snapshot(&vfs, &dir, meta(1, 0, 1), &[], &[shard()]).unwrap();
        let (runs2, _) = write_snapshot(&vfs, &dir, meta(2, 0, 1), &[], &[shard()]).unwrap();
        let faulty: Arc<dyn Vfs> = Arc::new(FaultVfs::scripted(vec![Fault::permanent(
            FaultOp::Remove,
            0,
            std::io::ErrorKind::PermissionDenied,
        )]));
        let failures = collect_garbage(&faulty, &dir, 2, &runs2);
        assert!(
            failures >= 2,
            "manifest-1 and run-1 both failed: {failures}"
        );
        assert!(manifest_path(&dir, 1).exists(), "nothing actually removed");
        // A healthy sweep afterwards drains the backlog.
        assert_eq!(collect_garbage(&vfs, &dir, 2, &runs2), 0);
        assert!(!manifest_path(&dir, 1).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The digest written the plain way: the words of the whole 32-byte
    /// blocks in order, word `i` to lane `i % 4`; then the lanes, the
    /// length, the tail's whole words and its zero-padded last partial
    /// word, each through the same xor-multiply-rotate step.
    fn reference_digest(bytes: &[u8]) -> u64 {
        let step =
            |state: u64, word: u64| (state ^ word).wrapping_mul(0x100_0000_01b3).rotate_left(29);
        let word = |le: &[u8]| le.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
        let whole = bytes.len() / 32 * 32;
        let mut lanes = [0u64; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = 0xcbf2_9ce4_8422_2325 ^ i as u64;
        }
        for (i, w) in bytes[..whole].chunks(8).enumerate() {
            lanes[i % 4] = step(lanes[i % 4], word(w));
        }
        let tail = bytes[whole..].chunks_exact(8);
        let last = word(tail.remainder());
        let mut state = 0xcbf2_9ce4_8422_2325;
        for w in lanes
            .into_iter()
            .chain([bytes.len() as u64])
            .chain(tail.map(word))
            .chain([last])
        {
            state = step(state, w);
        }
        state
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn digest_matches_its_plain_reference_at_every_tail_shape() {
        // Pinned too: the digest is part of the on-disk format.
        let vectors = [
            (0, 0x31fb_583c_52e5_d223u64),
            (1, 0x8dfb_5060_72e5_c1f6),
            (7, 0xdd1f_6db8_6fa3_26e0),
            (8, 0xae66_8c1e_466d_b893),
            (31, 0x61d4_d58b_1934_44a8),
            (32, 0x03aa_a955_f1c0_3330),
            (33, 0x5faa_8d82_d1c0_1743),
            (4101, 0x0285_66b2_1940_33ce),
        ];
        for (len, pinned) in vectors {
            let bytes = pattern(len);
            assert_eq!(digest(&bytes), reference_digest(&bytes), "length {len}");
            assert_eq!(digest(&bytes), pinned, "length {len}");
        }
    }

    #[test]
    fn digest_changes_with_every_bit_flip_lane_swap_and_dropped_byte() {
        let bytes = pattern(1024);
        let base = digest(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(digest(&flipped), base, "flip of bit {bit}");
        }
        // Words 0 and 1 of a block feed lanes 0 and 1.
        let mut swapped = bytes.clone();
        let (first, second) = swapped[64..80].split_at_mut(8);
        first.swap_with_slice(second);
        assert_ne!(digest(&swapped), base, "words swapped across lanes");
        assert_ne!(digest(&bytes[..1023]), base, "last byte dropped");
        // A zero last byte in the tail's partial word: without it the
        // zero-padded word reads the same, so only the length differs.
        let mut zero_last = pattern(1029);
        zero_last[1028] = 0;
        assert_ne!(
            digest(&zero_last[..1028]),
            digest(&zero_last),
            "last zero byte dropped"
        );
        // Words 0 and 4 both feed lane 0: flipping the top bit of each
        // cancels unless the step carries top bits back down.
        let mut twice = bytes;
        twice[7] ^= 0x80;
        twice[32 + 7] ^= 0x80;
        assert_ne!(digest(&twice), base, "two top-bit flips in one lane");
    }

    #[test]
    fn record_and_run_layouts_keep_their_sizes() {
        let mut record = Vec::new();
        encode_record_into(
            &batch(&[(1, Some(10)), (2, None), (3, Some(30))]),
            &mut record,
        );
        assert_eq!(record.len(), 16 + 3 * 8);
        assert_eq!(
            record_len(&batch(&[(1, Some(10)), (2, None), (3, Some(30))])),
            record.len() as u64
        );
        assert_eq!(record[..4], RECORD_MAGIC.to_le_bytes());
        assert_eq!(record[8..16], digest(&record[16..]).to_le_bytes());
        let run = encode_run(&[3, 5, 9], &[30, 50, 90]);
        assert_eq!(run.len(), 16 + 3 * 8);
        assert_eq!(run_file_len(3), run.len() as u64);
        assert_eq!(
            decode_run(&run, Path::new("run")).unwrap(),
            (vec![3, 5, 9], vec![30, 50, 90])
        );
        assert!(decode_run(&run[..run.len() - 1], Path::new("run")).is_err());
        let mut long = run.clone();
        long.push(0);
        assert!(decode_run(&long, Path::new("run")).is_err());
    }

    #[test]
    fn open_append_truncates_the_torn_tail_physically() {
        let dir = temp_dir("reopen");
        let vfs = real();
        let path = segment_path(&dir, 0);
        let mut wal = Wal::create(&vfs, path.clone(), 1, RetryPolicy::none()).unwrap();
        wal.append(&batch(&[(1, Some(1))])).unwrap();
        let keep = wal.valid_len;
        drop(wal);
        // Simulate a torn write after the good record.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        drop(f);
        let mut wal = Wal::open_append(&vfs, path.clone(), 1, keep, RetryPolicy::none()).unwrap();
        wal.append(&batch(&[(2, Some(2))])).unwrap();
        drop(wal);
        let scan = scan_segment(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
