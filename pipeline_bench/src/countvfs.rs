//! A `Vfs` that forwards to `RealVfs`, counts bytes and syncs, and records
//! a `vfs.*` span around every call — the durability layer's view of the
//! filesystem, measured without touching the library.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpu_lsm::{RealVfs, Vfs, VfsFile};

use crate::trace::Tracer;

/// Lifetime filesystem counters.
#[derive(Debug, Default)]
pub struct VfsCounters {
    /// Bytes appended to WAL segments.
    pub log_bytes: AtomicU64,
    /// Bytes written as whole files (run files, manifests, markers).
    pub snapshot_bytes: AtomicU64,
    /// Run files written.
    pub run_files: AtomicU64,
    /// Syncs of WAL segments.
    pub wal_syncs: AtomicU64,
    /// Bytes read (recovery).
    pub read_bytes: AtomicU64,
}

/// A plain copy of [`VfsCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsTotals {
    /// See [`VfsCounters::log_bytes`].
    pub log_bytes: u64,
    /// See [`VfsCounters::snapshot_bytes`].
    pub snapshot_bytes: u64,
    /// See [`VfsCounters::run_files`].
    pub run_files: u64,
    /// See [`VfsCounters::wal_syncs`].
    pub wal_syncs: u64,
    /// See [`VfsCounters::read_bytes`].
    pub read_bytes: u64,
}

impl VfsTotals {
    fn zip(self, other: VfsTotals, f: impl Fn(u64, u64) -> u64) -> VfsTotals {
        VfsTotals {
            log_bytes: f(self.log_bytes, other.log_bytes),
            snapshot_bytes: f(self.snapshot_bytes, other.snapshot_bytes),
            run_files: f(self.run_files, other.run_files),
            wal_syncs: f(self.wal_syncs, other.wal_syncs),
            read_bytes: f(self.read_bytes, other.read_bytes),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: VfsTotals) -> VfsTotals {
        self.zip(earlier, |a, b| a - b)
    }

    /// Both sets of counts together.
    pub fn plus(self, other: VfsTotals) -> VfsTotals {
        self.zip(other, |a, b| a + b)
    }
}

impl VfsCounters {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// The counters now.
    pub fn totals(&self) -> VfsTotals {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        VfsTotals {
            log_bytes: load(&self.log_bytes),
            snapshot_bytes: load(&self.snapshot_bytes),
            run_files: load(&self.run_files),
            wal_syncs: load(&self.wal_syncs),
            read_bytes: load(&self.read_bytes),
        }
    }
}

/// The counting wrapper around [`RealVfs`].
#[derive(Debug)]
pub struct CountingVfs {
    tracer: Arc<Tracer>,
    counters: Arc<VfsCounters>,
}

impl CountingVfs {
    /// Wrap the real filesystem.
    pub fn new(tracer: Arc<Tracer>, counters: Arc<VfsCounters>) -> Self {
        CountingVfs { tracer, counters }
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    tracer: Arc<Tracer>,
    counters: Arc<VfsCounters>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        let _s = self.tracer.span("vfs.append", 0);
        VfsCounters::add(&self.counters.log_bytes, bytes.len() as u64);
        self.inner.write_all(bytes)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let _s = self.tracer.span("vfs.set_len", 0);
        self.inner.set_len(len)
    }
    fn seek_start(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_start(pos)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        let _s = self.tracer.span("vfs.wal_sync", 0);
        VfsCounters::add(&self.counters.wal_syncs, 1);
        self.inner.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let _s = self.tracer.span("vfs.wal_sync", 0);
        VfsCounters::add(&self.counters.wal_syncs, 1);
        self.inner.sync_all()
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let _s = self.tracer.span("vfs.read", 0);
        let bytes = RealVfs.read(path)?;
        VfsCounters::add(&self.counters.read_bytes, bytes.len() as u64);
        Ok(bytes)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let _s = self.tracer.span("vfs.write", 0);
        VfsCounters::add(&self.counters.snapshot_bytes, bytes.len() as u64);
        let is_run = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("run-"));
        if is_run {
            VfsCounters::add(&self.counters.run_files, 1);
        }
        RealVfs.write(path, bytes)
    }
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        let _s = self.tracer.span("vfs.open", 0);
        Ok(Box::new(CountingFile {
            inner: RealVfs.open_write(path, truncate)?,
            tracer: Arc::clone(&self.tracer),
            counters: Arc::clone(&self.counters),
        }))
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let _s = self.tracer.span("vfs.sync_file", 0);
        RealVfs.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _s = self.tracer.span("vfs.rename", 0);
        RealVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let _s = self.tracer.span("vfs.remove", 0);
        RealVfs.remove_file(path)
    }
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let _s = self.tracer.span("vfs.read_dir", 0);
        RealVfs.read_dir_names(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let _s = self.tracer.span("vfs.sync_dir", 0);
        RealVfs.sync_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let _s = self.tracer.span("vfs.create_dir", 0);
        RealVfs.create_dir_all(dir)
    }
}
