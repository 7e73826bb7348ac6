//! Spans recorded around every call the benchmark makes into a layer.
//!
//! A span has an id, a parent, a request id, a thread, a name and a
//! start/end in nanoseconds since the tracer was created.  Spans are kept
//! in memory and written as JSONL at the end.  The parent is found through
//! a per-thread stack of open spans: the WAL appends run inside `submit`
//! and the snapshot writes inside `flush`, on the caller's thread, so the
//! counting filesystem's spans nest under the call that caused them.
//! Spans inside the library (per-shard fan-out, coalescing) are not
//! recorded.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Request id shared by the spans of one request (batch or call).
    pub req: u64,
    /// Small per-process thread number.
    pub thread: u32,
    /// Layer boundary name, e.g. `submit` or `vfs.wal_sync`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Records spans when enabled; a disabled tracer only hands out inert
/// guards, so end-to-end runs pay one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores spans.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        SpanGuard(Some(Open {
            tracer: self,
            span: Span {
                id,
                parent,
                req,
                thread: THREAD.with(|t| *t),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            },
        }))
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write the recorded spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.thread, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    span: Span,
}

/// Closes its span on drop.
pub struct SpanGuard<'a>(Option<Open<'a>>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut open) = self.0.take() {
            open.span.end_ns = open.tracer.now_ns();
            OPEN.with(|stack| stack.borrow_mut().pop());
            if let Ok(mut spans) = open.tracer.spans.lock() {
                spans.push(open.span);
            }
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children are clipped to the parent and their
/// overlaps counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.dur() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            thread: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_clipped_and_merged_children() {
        let spans = vec![
            span(1, 0, "commit_window", 0, 100),
            span(2, 1, "submit", 10, 30),
            span(3, 2, "vfs.append", 12, 20),
            span(4, 1, "flush", 40, 90),
            // Overlaps flush and sticks out past the window: counted once,
            // clipped to [40, 100].
            span(5, 1, "vfs.sync_dir", 80, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 60);
        assert_eq!(st[&2], 20 - 8);
        assert_eq!(st[&3], 8);
        assert_eq!(st[&4], 50);
    }

    #[test]
    fn shares_of_a_properly_nested_window_sum_to_its_wall_time() {
        let spans = vec![
            span(1, 0, "commit_window", 1_000, 9_000),
            span(2, 1, "submit", 1_100, 2_000),
            span(3, 2, "vfs.append", 1_200, 1_900),
            span(4, 1, "submit", 2_100, 3_000),
            span(5, 1, "flush", 3_000, 8_800),
            span(6, 5, "vfs.write", 4_000, 6_000),
            span(7, 5, "vfs.sync_file", 6_000, 7_000),
        ];
        let total: u64 = self_times(&spans).values().sum();
        assert_eq!(total, 8_000);
    }

    #[test]
    fn guards_nest_through_the_thread_stack() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("commit_window", 7);
            let _inner = tracer.span("submit", 7);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(Tracer::new(false).span("x", 0).0.is_none());
    }
}
