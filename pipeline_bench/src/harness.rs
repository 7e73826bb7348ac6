//! Measurement machinery shared by the workloads: the explicit service
//! configuration, timed commit windows and query calls, modelled device
//! cost, correctness checks, and the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use gpu_lsm::{AdmittedLsm, Key, LsmConfig, RangeResult, RebalanceConfig, UpdateBatch, Value};
use gpu_sim::metrics::KernelMetricsSnapshot;
use gpu_sim::Device;

use crate::gen;
use crate::metrics::{quantile, Better, Calls, Report};
use crate::model::{self, Model};
use crate::trace::{self, Span, Tracer};

/// Shards of every service (uniform at the start).
pub const SHARDS: usize = 4;
/// Bloom filter bits per key (process-wide setting, set explicitly).
pub const BLOOM_BITS: u32 = 8;
/// Admission queue bound per shard, in batches.
pub const QUEUE_CAPACITY: usize = 64;
/// WAL records per fsync (the library default, stated explicitly).
pub const FSYNC_INTERVAL: usize = 8;
/// Submit and flush deadlines: a stall past this counts as a failure
/// instead of hanging the run.
pub const DEADLINE: Duration = Duration::from_secs(60);
/// Work below which the worker pool runs a parallel loop inline
/// (process-wide).  Left unset, the pool calibrates it from wall-clock
/// timings once per process; on the 2-vCPU virtual machine the bounds were
/// set on, 12 processes calibrated anywhere from 2048 to 5886, and runs
/// then differed in which calls went parallel.
pub const PAR_CUTOFF: usize = 4096;

const MB: f64 = (1 << 20) as f64;

/// The knobs the workloads depend on, set explicitly.  The process refuses
/// to run with `LSM_*` variables set, so nothing else falls back to the
/// environment and every other setting is the library default.
pub fn lsm_config(rebalance: bool) -> LsmConfig {
    LsmConfig::default()
        .bloom_bits(BLOOM_BITS)
        .par_cutoff(PAR_CUTOFF)
        .admit_queue_capacity(QUEUE_CAPACITY)
        .admit_coalesce(true)
        .submit_timeout(DEADLINE)
        .flush_timeout(DEADLINE)
        .rebalance(RebalanceConfig {
            enabled: rebalance,
            ..RebalanceConfig::default()
        })
}

/// The effective settings printed with every result.
pub fn settings(
    b: usize,
    fsync: Option<usize>,
    rebalance: bool,
    clients: usize,
) -> Vec<(&'static str, String)> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("b", b.to_string()),
        ("shards", SHARDS.to_string()),
        (
            "fsync_interval",
            fsync.map_or("null".into(), |f| f.to_string()),
        ),
        ("coalesce", "true".into()),
        ("rebalance", rebalance.to_string()),
        ("bloom_bits", BLOOM_BITS.to_string()),
        ("par_cutoff", PAR_CUTOFF.to_string()),
        ("queue_capacity", QUEUE_CAPACITY.to_string()),
        ("clients", clients.to_string()),
        ("available_parallelism", threads.to_string()),
    ]
}

/// Error mapper naming the step that failed.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Nanoseconds of a duration.
pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Remove a directory tree; a missing one is fine.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Run fixed-size epochs until the next one would end past `seconds`
/// (always at least one).  Every epoch does the same amount of work, so
/// what a run measures does not depend on how far it got in the time.
/// Before each epoch, while no service is alive, the host reference task
/// is timed.  The peak RSS is read after the first epoch: later epochs
/// repeat its work, and in them the process's peak only grows by what the
/// allocator kept from the services before (by up to 50 MB, differing from
/// run to run), while the first epoch's peak varies by a few percent at
/// most.
pub fn epochs(
    seconds: f64,
    reference_log2: u32,
    mut epoch: impl FnMut(u64) -> Result<(), String>,
) -> Result<EpochSummary, String> {
    let mut reference = HostReference::new(reference_log2);
    let mut times = Vec::new();
    let mut first_peak_mb = 0.0;
    let start = Instant::now();
    let mut n = 0;
    loop {
        let t = Instant::now();
        times.push(reference.time());
        epoch(n)?;
        if n == 0 {
            first_peak_mb =
                crate::metrics::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        }
        n += 1;
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            return Ok(EpochSummary {
                ref_ms: median_s(&mut times) * 1e3,
                reference_mb: reference.resident_bytes() as f64 / MB,
                first_peak_mb,
            });
        }
    }
}

/// The nominal reference time the wall-clock end-to-end metrics are
/// reported at: the median of 287 reference timings in 30 runs of 30 s
/// (ten per workload) on the 2-vCPU virtual machine the bounds were set
/// on.  Any fixed value would do; it sets the scale of the reported values,
/// not their spread.
pub const NOMINAL_REF_MS: f64 = 180.0;

/// A fixed task, written here and independent of the code under test, that
/// tracks the host's speed: a pointer chase through a 32 MiB table and a
/// sort of 2^18 integers — the service's own mix of memory and compute —
/// on the calling thread.  The host is a shared virtual machine whose speed
/// drifts by tens of percent over minutes, and every part of a run slows
/// together.  One thread, not one per core: a second thread made the
/// corrected values spread more on 16 of 21 (workload, metric) pairs over
/// ten runs each, and doubled the reference time whenever another process
/// held a core, which the mostly single-threaded service barely felt.
///
/// Its buffers are allocated once and stay resident, so the peak RSS can
/// be corrected exactly.
struct HostReference {
    /// A single cycle through every slot (Sattolo's shuffle), so a chase
    /// visits the whole table.
    chain: Vec<u32>,
    /// Refilled and sorted every timing.
    scratch: Vec<u64>,
}

impl HostReference {
    fn new(log2: u32) -> Self {
        let n = 1usize << log2;
        let mut chain: Vec<u32> = (0..n as u32).collect();
        let mut rng = gen::Rng::for_item(0, 0, 0);
        for i in (1..n).rev() {
            chain.swap(i, rng.below(i as u64) as usize);
        }
        HostReference {
            chain,
            scratch: vec![0; n / 32],
        }
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&self.chain[..]) + std::mem::size_of_val(&self.scratch[..])
    }

    fn time(&mut self) -> Duration {
        let t = Instant::now();
        let mut p = 0;
        for _ in 0..self.chain.len() / 8 {
            p = self.chain[p as usize];
        }
        for (i, x) in self.scratch.iter_mut().enumerate() {
            *x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(p);
        }
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch[..]);
        t.elapsed()
    }
}

/// What [`epochs`] measured besides the workload's own metrics.
#[derive(Debug, Clone, Copy)]
pub struct EpochSummary {
    /// Median reference time over the run's epochs.
    pub ref_ms: f64,
    /// Memory the reference task keeps resident for the whole run.
    pub reference_mb: f64,
    /// Peak RSS of the process at the end of the first epoch.
    pub first_peak_mb: f64,
}

impl EpochSummary {
    /// Report the peak RSS and take the reference task back out of the
    /// end-to-end metrics: scale each wall-clock one to the nominal host
    /// speed (rates up and times down when the host ran slow), keeping its
    /// raw value, and subtract the reference task's memory from the peak.
    pub fn report(&self, r: &mut Report) {
        r.set("peak_rss_mb", self.first_peak_mb);
        let slowdown = self.ref_ms / NOMINAL_REF_MS;
        for d in crate::metrics::END_TO_END {
            let Some(v) = r.values.get_mut(d.name) else {
                continue;
            };
            r.raw.insert(d.name, *v);
            *v = match (d.name, d.better) {
                ("peak_rss_mb", _) => *v - self.reference_mb,
                (_, Better::Higher) => *v * slowdown,
                (_, Better::Lower) => *v / slowdown,
            };
        }
        r.set("bench.host_ref_ms", self.ref_ms);
    }
}

/// Median of a set of durations, in seconds.
pub fn median_s(v: &mut [Duration]) -> f64 {
    v.sort_unstable();
    v.get(v.len() / 2).map_or(0.0, Duration::as_secs_f64)
}

// ----------------------------------------------------------------------
// Modelled device cost
// ----------------------------------------------------------------------

/// Per-kernel traffic counters of the device model at one moment.
struct DeviceMark(BTreeMap<String, KernelMetricsSnapshot>);

impl DeviceMark {
    /// Mark the counters now.
    fn now(device: &Device) -> Self {
        DeviceMark(device.metrics().snapshot())
    }

    /// Modelled seconds and scattered transactions of the traffic that the
    /// kernels accepted by `keep` recorded since the mark.
    fn since(&self, device: &Device, keep: impl Fn(&str) -> bool) -> (f64, u64) {
        let mut seconds = 0.0;
        let mut txn = 0;
        for (name, now) in device.metrics().snapshot() {
            if !keep(&name) {
                continue;
            }
            let was = self.0.get(&name).copied().unwrap_or_default();
            let delta = KernelMetricsSnapshot {
                launches: now.launches - was.launches,
                coalesced_read_bytes: now.coalesced_read_bytes - was.coalesced_read_bytes,
                coalesced_write_bytes: now.coalesced_write_bytes - was.coalesced_write_bytes,
                scattered_read_bytes: now.scattered_read_bytes - was.scattered_read_bytes,
                scattered_write_bytes: now.scattered_write_bytes - was.scattered_write_bytes,
                scattered_transactions: now.scattered_transactions - was.scattered_transactions,
            };
            seconds += device.cost_model().estimate_kernel(&delta).total_seconds;
            txn += delta.scattered_transactions;
        }
        (seconds, txn)
    }
}

/// The write path's kernels: carry-chain merges, batch sorts, fence and
/// filter maintenance.  (Query kernels have other names, so a concurrent
/// reader's traffic is not counted.)
fn is_compaction_kernel(name: &str) -> bool {
    name == "merge"
        || name.starts_with("radix_")
        || name == "lsm_fence_merge"
        || name == "lsm_accel_build"
}

// ----------------------------------------------------------------------
// Timed calls
// ----------------------------------------------------------------------

/// Submit-to-flush accounting of a writer.
#[derive(Debug, Default)]
pub struct Commits {
    /// Per batch: start of its `submit` to the return of the flush that
    /// covers it.
    lat_ns: Vec<u64>,
    /// Wall time inside commit windows.
    busy_ns: u64,
    /// Ops admitted.
    pub ops: u64,
    /// Batches admitted.
    pub batches: u64,
    /// Ops whose submit or covering flush failed.
    failed_ops: u64,
    /// Modelled device time of the write-path kernels (traced runs).
    modelled_s: f64,
}

impl Commits {
    /// Submit `batches` back to back, then flush: one commit window.
    /// Returns which batches were admitted (those the model must apply).
    pub fn group(
        &mut self,
        lsm: &AdmittedLsm,
        tracer: &Tracer,
        device: &Device,
        req: u64,
        batches: &[UpdateBatch],
    ) -> Vec<bool> {
        let mark = tracer.enabled().then(|| DeviceMark::now(device));
        let window = tracer.span("commit_window", req);
        let t0 = Instant::now();
        let mut starts = Vec::with_capacity(batches.len());
        let mut admitted = Vec::with_capacity(batches.len());
        let mut ops = 0;
        for batch in batches {
            let start = Instant::now();
            let ok = {
                let _s = tracer.span("submit", req);
                lsm.submit(batch).is_ok()
            };
            admitted.push(ok);
            if ok {
                starts.push(start);
                ops += batch.len() as u64;
            } else {
                self.failed_ops += batch.len() as u64;
            }
        }
        let flushed = {
            let _s = tracer.span("flush", req);
            lsm.flush().is_ok()
        };
        let end = Instant::now();
        drop(window);
        self.busy_ns += ns(end - t0);
        self.lat_ns.extend(starts.iter().map(|&s| ns(end - s)));
        self.ops += ops;
        self.batches += starts.len() as u64;
        if !flushed {
            self.failed_ops += ops;
        }
        if let Some(mark) = mark {
            self.modelled_s += mark.since(device, is_compaction_kernel).0;
        }
        admitted
    }

    /// Update throughput and commit latency.
    fn metrics(&self, r: &mut Report) {
        r.set(
            "update_mops",
            ratio(self.ops as f64 * 1e3, self.busy_ns as f64),
        );
        let mut lat = self.lat_ns.clone();
        r.set("commit_p50_us", quantile(&mut lat, 0.50) as f64 / 1e3);
        r.set("commit_p99_us", quantile(&mut lat, 0.99) as f64 / 1e3);
    }
}

/// The measured calls of one epoch.
pub struct Segment<'a> {
    /// The writer's commit windows.
    pub commits: Commits,
    /// The reader's query calls.
    pub reads: Reads<'a>,
}

impl<'a> Segment<'a> {
    /// An empty segment; see [`Reads::new`] for `probe_calls`.
    pub fn new(tracer: &'a Tracer, device: &'a Device, probe_calls: u64) -> Self {
        Segment {
            commits: Commits::default(),
            reads: Reads::new(tracer, device, probe_calls),
        }
    }
}

/// Set every metric of the calls to its median over the segments, which
/// all do the same work, so a burst of host noise in one segment does not
/// move the run's result; count the attempted and failed operations of all
/// of them.
pub fn report_segments(r: &mut Report, segments: &[Segment]) {
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for seg in segments {
        let mut one = Report::default();
        seg.commits.metrics(&mut one);
        seg.reads.metrics(&mut one);
        for (name, v) in one.values {
            values.entry(name).or_default().push(v);
        }
        r.attempted += seg.commits.ops + seg.commits.failed_ops + seg.reads.items();
        r.failed += seg.commits.failed_ops;
    }
    for (name, mut v) in values {
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        r.set(
            name,
            if v.len() % 2 == 1 {
                v[mid]
            } else {
                (v[mid - 1] + v[mid]) / 2.0
            },
        );
    }
}

/// Modelled write-path device time per applied batch over all segments.
pub fn modelled_us_per_batch(segments: &[Segment]) -> f64 {
    let seconds: f64 = segments.iter().map(|s| s.commits.modelled_s).sum();
    let batches: u64 = segments.iter().map(|s| s.commits.batches).sum();
    ratio(seconds * 1e6, batches as f64)
}

/// Modelled device cost of the probed calls.
#[derive(Debug, Default)]
struct Modelled {
    lookup_s: f64,
    lookup_q: u64,
    lookup_txn: u64,
    count_s: f64,
    count_q: u64,
    range_s: f64,
    range_q: u64,
    range_elements: u64,
}

/// The API call that answers a workload's point lookups.
pub type LookupEngine = fn(&AdmittedLsm, &[Key]) -> Vec<Option<Value>>;

/// Timed query calls of one client.
pub struct Reads<'a> {
    tracer: &'a Tracer,
    device: &'a Device,
    /// Calls of each kind to measure on the device model (traced runs).
    probe_calls: u64,
    lookup: Calls,
    count: Calls,
    range: Calls,
    modelled: Modelled,
}

impl<'a> Reads<'a> {
    /// A client whose first `probe_calls` calls of each kind also measure
    /// their modelled device cost when tracing (the device must then be
    /// idle apart from these calls).
    pub fn new(tracer: &'a Tracer, device: &'a Device, probe_calls: u64) -> Self {
        Reads {
            tracer,
            device,
            probe_calls: if tracer.enabled() { probe_calls } else { 0 },
            lookup: Calls::default(),
            count: Calls::default(),
            range: Calls::default(),
            modelled: Modelled::default(),
        }
    }

    fn timed<R>(
        tracer: &Tracer,
        name: &'static str,
        req: u64,
        calls: &mut Calls,
        items: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let _s = tracer.span(name, req);
        let t = Instant::now();
        let out = std::hint::black_box(f());
        calls.record(ns(t.elapsed()), items);
        out
    }

    fn mark(&self, calls: &Calls) -> Option<DeviceMark> {
        ((calls.ns.len() as u64) < self.probe_calls).then(|| DeviceMark::now(self.device))
    }

    /// A timed point-lookup call through `engine`: `AdmittedLsm::lookup`
    /// (which picks per-key searches or the sorted bulk engine by sub-batch
    /// size) or `AdmittedLsm::bulk_get` (always the bulk engine).
    pub fn lookup(
        &mut self,
        lsm: &AdmittedLsm,
        engine: LookupEngine,
        req: u64,
        keys: &[Key],
    ) -> Vec<Option<Value>> {
        let mark = self.mark(&self.lookup);
        let out = Self::timed(
            self.tracer,
            "lookup",
            req,
            &mut self.lookup,
            keys.len(),
            || engine(lsm, keys),
        );
        if let Some(mark) = mark {
            let (s, txn) = mark.since(self.device, |_| true);
            self.modelled.lookup_s += s;
            self.modelled.lookup_txn += txn;
            self.modelled.lookup_q += keys.len() as u64;
        }
        out
    }

    /// A timed `count` call.
    pub fn count(&mut self, lsm: &AdmittedLsm, req: u64, spans: &[(Key, Key)]) -> Vec<u32> {
        let mark = self.mark(&self.count);
        let out = Self::timed(
            self.tracer,
            "count",
            req,
            &mut self.count,
            spans.len(),
            || lsm.count(spans),
        );
        if let Some(mark) = mark {
            self.modelled.count_s += mark.since(self.device, |_| true).0;
            self.modelled.count_q += spans.len() as u64;
        }
        out
    }

    /// A timed `range` call.
    pub fn range(&mut self, lsm: &AdmittedLsm, req: u64, spans: &[(Key, Key)]) -> RangeResult {
        let mark = self.mark(&self.range);
        let out = Self::timed(
            self.tracer,
            "range",
            req,
            &mut self.range,
            spans.len(),
            || lsm.range(spans),
        );
        if let Some(mark) = mark {
            self.modelled.range_s += mark.since(self.device, |_| true).0;
            self.modelled.range_q += spans.len() as u64;
            self.modelled.range_elements += out.total_len() as u64;
        }
        out
    }

    /// Query throughput, and per-call latency (a per-layer metric: the
    /// time spent in the query engines).
    fn metrics(&self, r: &mut Report) {
        r.set("lookup_mqps", self.lookup.mrate());
        r.set("count_mqps", self.count.mrate());
        r.set("range_mqps", self.range.mrate());
        r.set("lookup.call_p50_us", self.lookup.quantile_us(0.50));
        r.set("lookup.call_p99_us", self.lookup.quantile_us(0.99));
        r.set("range.call_p50_us", self.range.quantile_us(0.50));
        r.set("range.call_p99_us", self.range.quantile_us(0.99));
    }

    /// Items carried by all calls so far.
    pub fn items(&self) -> u64 {
        self.lookup.items + self.count.items + self.range.items
    }

    /// The modelled-cost metrics of the probed calls (traced runs).
    pub fn report_modelled(&self, r: &mut Report) {
        let m = &self.modelled;
        let per_q = |s: f64, q: u64| ratio(s * 1e9, q as f64);
        r.set(
            "lookup.modelled_ns_per_query",
            per_q(m.lookup_s, m.lookup_q),
        );
        r.set(
            "lookup.scattered_txn_per_query",
            ratio(m.lookup_txn as f64, m.lookup_q as f64),
        );
        r.set("count.modelled_ns_per_query", per_q(m.count_s, m.count_q));
        r.set("range.modelled_ns_per_query", per_q(m.range_s, m.range_q));
        r.set(
            "range.elements_per_query",
            ratio(m.range_elements as f64, m.range_q as f64),
        );
    }
}

// ----------------------------------------------------------------------
// Correctness
// ----------------------------------------------------------------------

/// Wrong answers of one round of calls, against the model.
pub fn mismatches(
    model: &Model,
    keys: &[Key],
    lookups: &[Option<Value>],
    spans: &[(Key, Key)],
    counts: &[u32],
    ranges: &RangeResult,
) -> u64 {
    model::lookup_mismatches(model, keys, lookups)
        + model::count_mismatches(model, spans, counts)
        + model::range_mismatches(model, spans, ranges)
}

/// Compare the whole state with the model through count and range calls
/// over a partition of the key space.  Returns (calls' items, failures).
pub fn verify_full_state(lsm: &AdmittedLsm, model: &Model, spans_log2: u32) -> (u64, u64) {
    let spans = gen::partition_spans(1 << spans_log2);
    let mut failed = 0;
    for chunk in spans.chunks(64) {
        failed += model::count_mismatches(model, chunk, &lsm.count(chunk));
        failed += model::range_mismatches(model, chunk, &lsm.range(chunk));
    }
    (2 * spans.len() as u64, failed)
}

// ----------------------------------------------------------------------
// Layer metrics
// ----------------------------------------------------------------------

/// Admission, router, compaction and arena metrics of one service.
pub fn write_path_layers(r: &mut Report, lsm: &AdmittedLsm) {
    let stats = lsm.stats();
    let adm = lsm.admission_stats();
    let (queue_wait, apply) = lsm.latency_histograms();
    r.set("admission.queue_wait_p99_us", queue_wait.p99() as f64 / 1e3);
    r.set("admission.apply_p50_us", apply.p50() as f64 / 1e3);
    r.set("admission.apply_p99_us", apply.p99() as f64 / 1e3);
    r.set(
        "admission.coalesce_ratio",
        ratio(adm.enqueued_sub_batches as f64, adm.applied_batches as f64),
    );
    let ops: Vec<f64> = stats
        .per_shard
        .iter()
        .map(|s| s.update_ops as f64)
        .collect();
    let mean = ops.iter().sum::<f64>() / ops.len().max(1) as f64;
    r.set(
        "router.update_imbalance",
        ratio(ops.iter().copied().fold(0.0, f64::max), mean),
    );
    r.set("router.rebalances", adm.rebalances as f64);
    let m = stats.merges;
    r.set(
        "compaction.carry_steps_per_batch",
        ratio(m.carry_merge_steps as f64, adm.applied_batches as f64),
    );
    r.set(
        "compaction.fence_merge_ratio",
        ratio(
            m.fence_merges as f64,
            (m.fence_merges + m.fence_rebuilds) as f64,
        ),
    );
    r.set(
        "compaction.filter_rehash_ratio",
        ratio(
            m.filter_rehashes as f64,
            (m.filter_rehashes + m.filter_rebuilds) as f64,
        ),
    );
    r.set(
        "arena.high_water_mb",
        stats.arena.high_water_bytes as f64 / MB,
    );
    r.set(
        "arena.recycle_ratio",
        ratio(
            stats.arena.recycled_regions as f64,
            stats.arena.reserved_regions as f64,
        ),
    );
}

/// Level metrics of the resident state.
pub fn level_layers(r: &mut Report, lsm: &AdmittedLsm) {
    let stats = lsm.stats();
    r.set(
        "level.filter_skip_ratio",
        ratio(stats.filter_skips as f64, stats.filter_probes as f64),
    );
    r.set(
        "level.occupied_per_shard",
        ratio(stats.occupied_levels as f64, stats.per_shard.len() as f64),
    );
    r.set(
        "level.accel_mb",
        (stats.filter_bytes + stats.fence_bytes) as f64 / MB,
    );
    r.set(
        "level.space_amp",
        ratio(stats.total_elements as f64, stats.valid_elements as f64),
    );
}

/// The in-memory workloads have no log.
pub fn no_wal(r: &mut Report) {
    for name in [
        "wal.log_bytes_per_user_byte",
        "wal.snapshot_bytes_per_user_byte",
        "wal.fsyncs_per_batch",
        "wal.fsync_share",
        "wal.append_share",
        "wal.snapshot_share",
        "wal.runs_reused_ratio",
        "wal.recovery_mb_per_s",
        "wal.replayed_batches",
    ] {
        r.set(name, 0.0);
    }
}

/// Per-layer metrics derived from the recorded spans: submit and flush
/// latency, and each layer's self-time share of the commit windows.  The
/// spans of one thread nest, so the self times in a window add up to its
/// wall time; filesystem calls made on another thread (the applier) have
/// no enclosing call and are reported as `wal.unattributed_share`.
fn span_layers(r: &mut Report, spans: &[Span], measured_ns: u64) {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let self_ns = trace::self_times(spans);
    let ancestor = |mut id: u64, name: &str| -> Option<u64> {
        while let Some(s) = by_id.get(&id) {
            if s.name == name {
                return Some(id);
            }
            id = s.parent;
        }
        None
    };
    let durations = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    };
    let mut submits = durations("submit");
    let mut flushes = durations("flush");
    r.set(
        "admission.submit_p99_us",
        quantile(&mut submits, 0.99) as f64 / 1e3,
    );
    r.set(
        "admission.flush_wait_p50_us",
        quantile(&mut flushes, 0.50) as f64 / 1e3,
    );
    r.set(
        "admission.flush_wait_p99_us",
        quantile(&mut flushes, 0.99) as f64 / 1e3,
    );
    let flush_total: u64 = flushes.iter().sum();

    let (mut vfs_ns, mut unattributed_ns) = (0, 0);
    for s in spans.iter().filter(|s| s.name.starts_with("vfs.")) {
        vfs_ns += s.dur();
        if s.parent == 0 {
            unattributed_ns += s.dur();
        }
    }
    r.set(
        "wal.unattributed_share",
        ratio(unattributed_ns as f64, vfs_ns as f64),
    );

    let mut windows_total = 0;
    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut under_flush_vfs = 0;
    for s in spans {
        let Some(w) = ancestor(s.id, "commit_window") else {
            continue;
        };
        if w == s.id {
            windows_total += s.dur();
        }
        let own = self_ns[&s.id];
        let layer = match s.name {
            "commit_window" => "client",
            "vfs.wal_sync" => "fsync",
            "vfs.append" => "append",
            other if other.starts_with("vfs.") => "other_vfs",
            other => other,
        };
        *layer_ns.entry(layer).or_default() += own;
        if s.name.starts_with("vfs.") && ancestor(s.id, "flush").is_some() {
            under_flush_vfs += own;
        }
    }
    let share = |layer: &str| {
        ratio(
            layer_ns.get(layer).copied().unwrap_or(0) as f64,
            windows_total as f64,
        )
    };
    r.set("commit.client_share", share("client"));
    r.set("commit.submit_share", share("submit"));
    r.set("commit.flush_share", share("flush"));
    r.set("wal.fsync_share", share("fsync"));
    r.set("wal.append_share", share("append"));
    r.set(
        "wal.snapshot_share",
        ratio(under_flush_vfs as f64, flush_total as f64),
    );
    r.set(
        "bench.trace_overhead_share",
        ratio(spans.len() as f64 * span_cost_ns(), measured_ns as f64),
    );
}

/// Cost of recording one span, measured on a throwaway tracer.
fn span_cost_ns() -> f64 {
    let tracer = Tracer::new(true);
    let n = 20_000;
    let t = Instant::now();
    for i in 0..n {
        let _s = tracer.span("calibrate", i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Share of the per-shard lookup executions of the whole run that took the
/// sorted bulk engine (`lsm_lookup_bulk` when `lookup`'s size dispatch
/// chose it, `lsm_bulk_get` from `bulk_get`) rather than one search per
/// key (`lsm_lookup`).
fn bulk_launch_share(device: &Device) -> f64 {
    let kernels = device.metrics().snapshot();
    let launches = |name: &str| kernels.get(name).map_or(0, |k| k.launches) as f64;
    let bulk = launches("lsm_lookup_bulk") + launches("lsm_bulk_get");
    ratio(bulk, bulk + launches("lsm_lookup"))
}

/// The span- and device-derived metrics of a traced run.
pub fn finish(r: &mut Report, tracer: &Tracer, device: &Device, measured_ns: u64) {
    if tracer.enabled() {
        span_layers(r, &tracer.spans(), measured_ns);
        r.set("lookup.bulk_launch_share", bulk_launch_share(device));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_to_the_nominal_host_and_keeps_raw_values() {
        let mut r = Report::default();
        r.set("update_mops", 1.0);
        r.set("commit_p50_us", 100.0);
        r.set("lookup.call_p50_us", 7.0);
        // The host ran at half the nominal speed.
        let summary = EpochSummary {
            ref_ms: 2.0 * NOMINAL_REF_MS,
            reference_mb: 32.0,
            first_peak_mb: 200.0,
        };
        summary.report(&mut r);
        assert_eq!(r.values["update_mops"], 2.0);
        assert_eq!(r.values["commit_p50_us"], 50.0);
        assert_eq!(r.values["peak_rss_mb"], 168.0);
        assert_eq!(
            r.values["lookup.call_p50_us"], 7.0,
            "per-layer values stay raw"
        );
        assert_eq!(r.values["bench.host_ref_ms"], 2.0 * NOMINAL_REF_MS);
        assert_eq!(
            (
                r.raw["update_mops"],
                r.raw["commit_p50_us"],
                r.raw["peak_rss_mb"]
            ),
            (1.0, 100.0, 200.0)
        );
        assert!(!r.raw.contains_key("lookup.call_p50_us"));
    }
}
