//! Virtual filesystem seam for the durability pipeline.
//!
//! Every syscall the write-ahead log and snapshot machinery issue goes
//! through the [`Vfs`] trait: open, append, truncate, sync, rename,
//! directory sync, remove, and directory listing.  [`RealVfs`] is the
//! zero-cost default that forwards straight to `std::fs`.  [`FaultVfs`]
//! is a deterministic test implementation that injects transient and
//! permanent errors — `ENOSPC`, `EIO`, failed `fsync`, failed `rename`,
//! torn short-writes — at chosen operation counts (a *script*) or at
//! seeded pseudo-random points, extending the recovery harness's
//! kill-at-arbitrary-point discipline to injected IO faults.
//!
//! The seam exists so the chaos harness
//! (`crates/core/tests/fault_injection.rs`) can prove, differentially
//! against the `BTreeMap` model, that the pipeline *retries* transient
//! faults invisibly, *fails stop* or *degrades to volatile* on permanent
//! ones (per [`crate::wal::DegradeMode`]), and that a degraded pipeline's
//! durable prefix still recovers exactly.

// IO errors reach this module from the filesystem: none of it may panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::sync::lock_ignore_poison;

/// An open, writable file handle produced by [`Vfs::open_write`].
pub trait VfsFile: Send + Debug {
    /// Append the whole buffer at the current position.
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Truncate (or extend) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Move the write position to `pos` bytes from the start.
    fn seek_start(&mut self, pos: u64) -> io::Result<()>;
    /// `fdatasync`: flush file contents to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// `fsync`: flush contents and metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem operations the durability pipeline performs.  All paths
/// are absolute (the caller joins against the durability directory).
pub trait Vfs: Send + Sync + Debug {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create (truncate) a file and write `bytes` to it.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Open a file for writing: `truncate` starts it empty, otherwise the
    /// existing contents are kept (append-style reopen).
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>>;
    /// `fsync` an already-written file by path.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) of a directory's entries.
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// `fsync` the directory entry itself (durability of renames/creates).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Create the directory and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

// ----------------------------------------------------------------------
// RealVfs: the std::fs passthrough
// ----------------------------------------------------------------------

/// The production [`Vfs`]: every operation forwards to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

#[derive(Debug)]
struct RealFile(File);

impl VfsFile for RealFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_start(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

// ----------------------------------------------------------------------
// FaultVfs: deterministic fault injection
// ----------------------------------------------------------------------

/// The operation classes [`FaultVfs`] counts and can fault independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// [`Vfs::open_write`] (segment create / reopen).
    Open,
    /// [`Vfs::read`] (segment scan, manifest and run loads).
    Read,
    /// [`Vfs::write`] (whole-file writes: runs, tmp manifests, markers).
    Write,
    /// [`VfsFile::write_all`] (WAL record appends).
    Append,
    /// [`VfsFile::set_len`] (rollback / truncation).
    SetLen,
    /// Any sync: [`VfsFile::sync_data`], [`VfsFile::sync_all`],
    /// [`Vfs::sync_file`].
    Sync,
    /// [`Vfs::rename`] (manifest publication).
    Rename,
    /// [`Vfs::remove_file`] (garbage collection).
    Remove,
    /// [`Vfs::read_dir_names`] (manifest/segment discovery).
    ReadDir,
    /// [`Vfs::sync_dir`].
    DirSync,
    /// [`Vfs::create_dir_all`].
    CreateDir,
}

const NUM_OPS: usize = 11;

impl FaultOp {
    fn index(self) -> usize {
        match self {
            FaultOp::Open => 0,
            FaultOp::Read => 1,
            FaultOp::Write => 2,
            FaultOp::Append => 3,
            FaultOp::SetLen => 4,
            FaultOp::Sync => 5,
            FaultOp::Rename => 6,
            FaultOp::Remove => 7,
            FaultOp::ReadDir => 8,
            FaultOp::DirSync => 9,
            FaultOp::CreateDir => 10,
        }
    }
}

/// How a scripted fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail exactly the matching occurrence with this error kind; the next
    /// attempt (a retry) succeeds.
    Transient(io::ErrorKind),
    /// Fail the matching occurrence **and every later one** of the same
    /// operation class — a dead disk, not a hiccup.
    Permanent(io::ErrorKind),
    /// Write only the first `n` bytes of the buffer, then fail once — a
    /// torn write.  Only meaningful for [`FaultOp::Append`] /
    /// [`FaultOp::Write`]; on other ops it behaves like a transient error.
    ShortWrite(usize),
}

/// One scripted fault: fire when the `nth` occurrence (0-based, counted
/// per operation class) of `op` happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The operation class to fault.
    pub op: FaultOp,
    /// 0-based occurrence index within that class.
    pub nth: u64,
    /// Transient, permanent, or torn.
    pub kind: FaultKind,
}

impl Fault {
    /// A transient fault (fails once, retry succeeds).
    pub fn transient(op: FaultOp, nth: u64, kind: io::ErrorKind) -> Self {
        Fault {
            op,
            nth,
            kind: FaultKind::Transient(kind),
        }
    }
    /// A permanent fault (fails from `nth` onwards).
    pub fn permanent(op: FaultOp, nth: u64, kind: io::ErrorKind) -> Self {
        Fault {
            op,
            nth,
            kind: FaultKind::Permanent(kind),
        }
    }
    /// A torn short-write of `bytes` bytes at occurrence `nth`.
    pub fn short_write(op: FaultOp, nth: u64, bytes: usize) -> Self {
        Fault {
            op,
            nth,
            kind: FaultKind::ShortWrite(bytes),
        }
    }
}

#[derive(Debug)]
struct FaultState {
    counts: [u64; NUM_OPS],
    script: Vec<Fault>,
    /// xorshift64* state + period for seeded transient faults (`None` =
    /// script-only).  Roughly one op in `period` faults.
    seeded: Option<(u64, u64)>,
    injected: u64,
}

enum Decision {
    Pass,
    Fail(io::Error),
    Short(usize, io::Error),
}

impl FaultState {
    fn decide(&mut self, op: FaultOp) -> Decision {
        let i = op.index();
        let occurrence = self.counts[i];
        self.counts[i] += 1;
        for fault in &self.script {
            if fault.op != op {
                continue;
            }
            let (fires, error) = match fault.kind {
                FaultKind::Transient(kind) => (
                    occurrence == fault.nth,
                    io::Error::new(kind, "injected transient fault"),
                ),
                FaultKind::Permanent(kind) => (
                    occurrence >= fault.nth,
                    io::Error::new(kind, "injected permanent fault"),
                ),
                FaultKind::ShortWrite(n) => {
                    if occurrence == fault.nth {
                        self.injected += 1;
                        return Decision::Short(
                            n,
                            io::Error::new(io::ErrorKind::WriteZero, "injected torn write"),
                        );
                    }
                    (false, io::Error::other("unreachable"))
                }
            };
            if fires {
                self.injected += 1;
                return Decision::Fail(error);
            }
        }
        if let Some((state, period)) = &mut self.seeded {
            // xorshift64*: deterministic per construction seed and op
            // sequence (durability ops are serialized under the WAL lock).
            let mut x = *state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *state = x;
            if x.wrapping_mul(0x2545_F491_4F6C_DD1D) % *period == 0 {
                self.injected += 1;
                return Decision::Fail(io::Error::other("injected seeded transient fault"));
            }
        }
        Decision::Pass
    }
}

/// A deterministic fault-injecting [`Vfs`] wrapping an inner
/// implementation ([`RealVfs`] by default).  Cloning shares the fault
/// state, so file handles and the vfs draw from one operation counter
/// sequence.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    /// Counters, the script and the seeded generator's state: every field
    /// holds a valid value after each store, so a lock recovered from
    /// poisoning (`lock_ignore_poison`) still reads a consistent state.
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// Script-driven faults over [`RealVfs`].
    pub fn scripted(script: Vec<Fault>) -> Self {
        Self::new(Arc::new(RealVfs), script, None)
    }

    /// Seeded pseudo-random transient faults over [`RealVfs`]: roughly one
    /// operation in `period` fails once with a retryable error.
    pub fn seeded(seed: u64, period: u64) -> Self {
        Self::new(
            Arc::new(RealVfs),
            Vec::new(),
            Some((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1, period.max(1))),
        )
    }

    /// Full control: explicit inner vfs, script, and optional seeded mode.
    pub fn new(inner: Arc<dyn Vfs>, script: Vec<Fault>, seeded: Option<(u64, u64)>) -> Self {
        FaultVfs {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                counts: [0; NUM_OPS],
                script,
                seeded,
                injected: 0,
            })),
        }
    }

    /// Total faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        lock_ignore_poison(&self.state).injected
    }

    /// Operations of class `op` observed so far (including faulted ones).
    pub fn op_count(&self, op: FaultOp) -> u64 {
        lock_ignore_poison(&self.state).counts[op.index()]
    }

    fn gate(&self, op: FaultOp) -> io::Result<()> {
        match lock_ignore_poison(&self.state).decide(op) {
            Decision::Pass => Ok(()),
            Decision::Fail(e) => Err(e),
            // Short writes only make sense against a buffer; path-level
            // ops treat them as plain failures.
            Decision::Short(_, e) => Err(e),
        }
    }
}

#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFile {
    fn gate(&self, op: FaultOp) -> io::Result<()> {
        match lock_ignore_poison(&self.state).decide(op) {
            Decision::Pass => Ok(()),
            Decision::Fail(e) | Decision::Short(_, e) => Err(e),
        }
    }
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        match lock_ignore_poison(&self.state).decide(FaultOp::Append) {
            Decision::Pass => self.inner.write_all(bytes),
            Decision::Fail(e) => Err(e),
            Decision::Short(n, e) => {
                // Torn write: part of the frame lands on disk, then the
                // device gives up.  The caller sees the error with the
                // partial bytes already durable-in-page-cache.
                self.inner.write_all(&bytes[..n.min(bytes.len())])?;
                Err(e)
            }
        }
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.gate(FaultOp::SetLen)?;
        self.inner.set_len(len)
    }
    fn seek_start(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_start(pos)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.gate(FaultOp::Sync)?;
        self.inner.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.gate(FaultOp::Sync)?;
        self.inner.sync_all()
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.gate(FaultOp::Read)?;
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match lock_ignore_poison(&self.state).decide(FaultOp::Write) {
            Decision::Pass => self.inner.write(path, bytes),
            Decision::Fail(e) => Err(e),
            Decision::Short(n, e) => {
                self.inner.write(path, &bytes[..n.min(bytes.len())])?;
                Err(e)
            }
        }
    }
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        self.gate(FaultOp::Open)?;
        let inner = self.inner.open_write(path, truncate)?;
        Ok(Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.gate(FaultOp::Sync)?;
        self.inner.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(FaultOp::Rename)?;
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate(FaultOp::Remove)?;
        self.inner.remove_file(path)
    }
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.gate(FaultOp::ReadDir)?;
        self.inner.read_dir_names(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.gate(FaultOp::DirSync)?;
        self.inner.sync_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.gate(FaultOp::CreateDir)?;
        self.inner.create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gpu-lsm-vfs-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_vfs_round_trips() {
        let dir = temp_dir("real");
        let vfs = RealVfs;
        let path = dir.join("a.bin");
        vfs.write(&path, b"hello").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        let mut f = vfs.open_write(&path, false).unwrap();
        f.seek_start(5).unwrap();
        f.write_all(b" world").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        vfs.rename(&path, &dir.join("b.bin")).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert!(vfs.read_dir_names(&dir).unwrap().contains(&"b.bin".into()));
        vfs.remove_file(&dir.join("b.bin")).unwrap();
        assert!(vfs.read_dir_names(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_fault_fires_exactly_once() {
        let dir = temp_dir("transient");
        let vfs = FaultVfs::scripted(vec![Fault::transient(
            FaultOp::Write,
            1,
            io::ErrorKind::StorageFull,
        )]);
        let path = dir.join("x");
        vfs.write(&path, b"0").unwrap(); // occurrence 0: passes
        let err = vfs.write(&path, b"1").unwrap_err(); // occurrence 1: faults
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        vfs.write(&path, b"2").unwrap(); // occurrence 2: retry succeeds
        assert_eq!(vfs.injected_faults(), 1);
        assert_eq!(vfs.op_count(FaultOp::Write), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn permanent_fault_fires_forever() {
        let dir = temp_dir("permanent");
        let vfs = FaultVfs::scripted(vec![Fault::permanent(
            FaultOp::Sync,
            2,
            io::ErrorKind::Other,
        )]);
        let path = dir.join("x");
        vfs.write(&path, b"data").unwrap();
        vfs.sync_file(&path).unwrap(); // 0
        vfs.sync_file(&path).unwrap(); // 1
        for _ in 0..3 {
            assert!(vfs.sync_file(&path).is_err()); // 2, 3, 4: all fail
        }
        assert_eq!(vfs.injected_faults(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_tears_the_frame() {
        let dir = temp_dir("short");
        let vfs = FaultVfs::scripted(vec![Fault::short_write(FaultOp::Append, 1, 3)]);
        let path = dir.join("x");
        let mut f = vfs.open_write(&path, true).unwrap();
        f.write_all(b"aaaa").unwrap(); // occurrence 0: full write
        let err = f.write_all(b"bbbb").unwrap_err(); // occurrence 1: torn
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        f.write_all(b"cc").unwrap(); // occurrence 2: fine again
        drop(f);
        // Exactly 3 of the 4 torn bytes landed between the good writes.
        assert_eq!(RealVfs.read(&path).unwrap(), b"aaaabbbcc");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_faults_are_deterministic_and_transient() {
        let runs: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let dir = temp_dir("seeded");
                let vfs = FaultVfs::seeded(42, 3);
                let path = dir.join("x");
                let outcomes = (0..64)
                    .map(|i| vfs.write(&path, &[i]).is_ok())
                    .collect::<Vec<_>>();
                assert!(vfs.injected_faults() > 0, "period 3 over 64 ops must fire");
                std::fs::remove_dir_all(&dir).unwrap();
                outcomes
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed, same fault sequence");
        assert!(runs[0].iter().any(|ok| !ok));
        assert!(runs[0].iter().any(|ok| *ok));
    }
}
