//! Mixed update/query workload driver with per-operation latency capture.
//!
//! The paper's experiments drive one structure from one host thread, one
//! phase at a time.  A serving system sees the opposite: many client
//! threads issuing update batches and query batches concurrently, with the
//! readers not waiting for the writers.  This module drives any
//! [`LsmBackend`] (the single-lock [`ConcurrentGpuLsm`], the sharded
//! [`ShardedLsm`] or the pipelined [`AdmittedLsm`]) with exactly that
//! traffic shape and reports sustained throughput **and per-operation
//! latency percentiles** (p50/p99/p999 for update, lookup, count and range
//! requests), so shard-scaling experiments and the CI gates can measure
//! service-level behaviour rather than single-phase kernel rates.
//!
//! Two client disciplines are supported:
//!
//! * **Open loop** (default): writers apply their update batches as fast
//!   as the backend admits them, and readers issue query rounds
//!   continuously until every writer has drained — load is injected
//!   regardless of how the service keeps up, which is what exposes
//!   saturation behaviour.
//! * **Closed loop** ([`MixedWorkloadConfig::closed_loop`]): every client
//!   sleeps a per-request *think time* between operations and each writer
//!   bounds its *outstanding* (admitted but not yet applied) batches with
//!   a periodic flush barrier — the discipline real clients follow, and
//!   the one that actually exercises admission backpressure instead of
//!   instantly filling the queues.
//!
//! Every client thread records latencies into its own
//! [`LatencyHistogram`]s (no shared state on the request path); the driver
//! merges them into the report after the run.  All workload generation is
//! seeded per thread, so two runs against the same backend replay
//! identical operation streams.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gpu_lsm::{
    AdmittedLsm, ConcurrentGpuLsm, Key, LatencyHistogram, LatencySnapshot, RangeResult, ShardedLsm,
    UpdateBatch, Value, MAX_KEY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distributions::ZipfKeys;

/// A thread-safe LSM service a mixed workload can be driven against.
///
/// Both the single-lock wrapper and the sharded service implement this, so
/// experiments can compare them under identical traffic.
pub trait LsmBackend: Clone + Send + Sync + 'static {
    /// Short label for reports.
    fn label(&self) -> String;
    /// Apply one mixed update batch: a query sees the touched state before
    /// or after it, never part of it.
    /// Pipelined backends may only *admit* the batch here; `flush` is the
    /// completion barrier.
    fn apply(&self, batch: &UpdateBatch) -> gpu_lsm::Result<()>;
    /// Bulk point lookups.
    fn lookup(&self, keys: &[Key]) -> Vec<Option<Value>>;
    /// Bulk count queries.
    fn count(&self, intervals: &[(Key, Key)]) -> Vec<u32>;
    /// Bulk range queries.
    fn range(&self, intervals: &[(Key, Key)]) -> RangeResult;
    /// Wait until every previously applied batch is durable in the
    /// structure (no-op for synchronous backends).  The driver calls this
    /// once the writers drain, so admitted throughput counts finished
    /// work, not queued work.
    fn flush(&self) {}
}

impl LsmBackend for ConcurrentGpuLsm {
    fn label(&self) -> String {
        "concurrent-lsm".to_string()
    }
    fn apply(&self, batch: &UpdateBatch) -> gpu_lsm::Result<()> {
        self.update(batch)
    }
    fn lookup(&self, keys: &[Key]) -> Vec<Option<Value>> {
        ConcurrentGpuLsm::lookup(self, keys)
    }
    fn count(&self, intervals: &[(Key, Key)]) -> Vec<u32> {
        ConcurrentGpuLsm::count(self, intervals)
    }
    fn range(&self, intervals: &[(Key, Key)]) -> RangeResult {
        ConcurrentGpuLsm::range(self, intervals)
    }
}

impl LsmBackend for ShardedLsm {
    fn label(&self) -> String {
        match self.router().kind() {
            gpu_lsm::RouterKind::Learned => {
                format!("sharded-lsm x{} learned", self.num_shards())
            }
            gpu_lsm::RouterKind::Uniform => format!("sharded-lsm x{}", self.num_shards()),
        }
    }
    fn apply(&self, batch: &UpdateBatch) -> gpu_lsm::Result<()> {
        self.update(batch)
    }
    fn lookup(&self, keys: &[Key]) -> Vec<Option<Value>> {
        ShardedLsm::lookup(self, keys)
    }
    fn count(&self, intervals: &[(Key, Key)]) -> Vec<u32> {
        ShardedLsm::count(self, intervals)
    }
    fn range(&self, intervals: &[(Key, Key)]) -> RangeResult {
        ShardedLsm::range(self, intervals)
    }
}

impl LsmBackend for AdmittedLsm {
    fn label(&self) -> String {
        format!(
            "admitted-lsm x{}{}",
            self.service().num_shards(),
            if self.config().read_your_writes {
                " ryw"
            } else {
                ""
            }
        )
    }
    fn apply(&self, batch: &UpdateBatch) -> gpu_lsm::Result<()> {
        self.submit(batch)
    }
    fn lookup(&self, keys: &[Key]) -> Vec<Option<Value>> {
        AdmittedLsm::lookup(self, keys)
    }
    fn count(&self, intervals: &[(Key, Key)]) -> Vec<u32> {
        AdmittedLsm::count(self, intervals)
    }
    fn range(&self, intervals: &[(Key, Key)]) -> RangeResult {
        AdmittedLsm::range(self, intervals)
    }
    fn flush(&self) {
        AdmittedLsm::flush(self).expect("admission pipeline failed during flush");
    }
}

/// Shape of a mixed concurrent run.
#[derive(Debug, Clone)]
pub struct MixedWorkloadConfig {
    /// Concurrent writer (update) threads; must be at least 1.
    pub writer_threads: usize,
    /// Concurrent reader (query) threads.
    pub reader_threads: usize,
    /// Update batches each writer applies.
    pub batches_per_writer: usize,
    /// Operations per update batch (the service's fixed `b`).
    pub batch_size: usize,
    /// Fraction of each batch that is deletions of previously usable keys.
    pub delete_fraction: f64,
    /// Point lookups per reader iteration.
    pub lookups_per_round: usize,
    /// Interval queries per reader iteration (each span is issued once as
    /// a count and once as a range query).
    pub intervals_per_round: usize,
    /// Width of generated query intervals (upper ends are clamped to the
    /// 31-bit key domain at generation).
    pub interval_width: u32,
    /// Keys are drawn from `0..key_domain`.
    pub key_domain: u32,
    /// Zipf skew exponent for generated keys (`0.0` = uniform).  When
    /// positive, writer batch keys and reader lookup keys are drawn from a
    /// [`ZipfKeys`] sampler over the key domain (rank 0 = key 0 is the
    /// hottest), concentrating traffic on low keys — the workload shape the
    /// learned shard router and the rebalancer are built for.
    pub zipf_theta: f64,
    /// Master seed; every thread derives its own stream from it.
    pub seed: u64,
    /// Closed-loop client discipline: think time between requests and a
    /// bounded outstanding-batch window per writer (see the module docs).
    /// Open loop when `false` (the two knobs below are then ignored).
    pub closed_loop: bool,
    /// Closed loop: microseconds each client sleeps between requests
    /// (default 0).
    pub think_time_us: u64,
    /// Closed loop: a writer issues a flush barrier whenever this many of
    /// its batches may still be unapplied, bounding its outstanding work
    /// (0 = unbounded; default 4).
    pub max_outstanding: usize,
}

impl Default for MixedWorkloadConfig {
    fn default() -> Self {
        MixedWorkloadConfig {
            writer_threads: 2,
            reader_threads: 2,
            batches_per_writer: 16,
            batch_size: 256,
            delete_fraction: 0.2,
            lookups_per_round: 256,
            intervals_per_round: 16,
            interval_width: 1 << 12,
            key_domain: 1 << 20,
            zipf_theta: 0.0,
            seed: 0x5EED_CAFE,
            closed_loop: false,
            think_time_us: 0,
            max_outstanding: 4,
        }
    }
}

/// Per-operation-type latency histograms of one run (nanosecond samples).
///
/// One *sample* is one service request as a client experiences it: an
/// update-batch submission (including any admission backpressure block),
/// or one bulk lookup / count / range call.  Merging is bucket-wise, so
/// per-thread recordings fold together in any order.
#[derive(Debug, Clone, Default)]
pub struct MixedLatencies {
    /// Update-batch submission latency per batch.
    pub update: LatencyHistogram,
    /// Bulk point-lookup call latency per round.
    pub lookup: LatencyHistogram,
    /// Bulk count call latency per round.
    pub count: LatencyHistogram,
    /// Bulk range call latency per round.
    pub range: LatencyHistogram,
}

impl MixedLatencies {
    /// Fold another thread's recordings into this one.
    pub fn merge(&mut self, other: &MixedLatencies) {
        self.update.merge(&other.update);
        self.lookup.merge(&other.lookup);
        self.count.merge(&other.count);
        self.range.merge(&other.range);
    }

    /// Microsecond percentile summaries, one per op type, in reporting
    /// order: update, lookup, count, range.
    pub fn snapshots_us(&self) -> [(&'static str, LatencySnapshot); 4] {
        [
            ("update", self.update.snapshot_us()),
            ("lookup", self.lookup.snapshot_us()),
            ("count", self.count.snapshot_us()),
            ("range", self.range.snapshot_us()),
        ]
    }
}

/// What a mixed run did and how fast.
#[derive(Debug, Clone)]
pub struct MixedWorkloadReport {
    /// Backend label the run was driven against.
    pub backend: String,
    /// Update batches applied (writers × batches each).
    pub update_batches: usize,
    /// Total update operations applied.
    pub update_ops: usize,
    /// Point lookups answered.
    pub lookups: usize,
    /// Count queries answered.
    pub count_queries: usize,
    /// Range queries answered.
    pub range_queries: usize,
    /// Total elements returned by range queries.
    pub range_elements: usize,
    /// Wall-clock seconds until the writers drained **and** the backend's
    /// flush barrier returned — the update-throughput denominator.  The
    /// readers' final post-flush round happens after this point, so it
    /// cannot deflate the update rate.
    pub update_elapsed_seconds: f64,
    /// Wall-clock seconds for the whole run (readers included).
    pub elapsed_seconds: f64,
    /// Update throughput in M operations/s (over `update_elapsed_seconds`).
    pub update_rate_m: f64,
    /// Query throughput (lookups + counts + ranges) in M queries/s (over
    /// `elapsed_seconds`, the span queries were actually issued in).
    pub query_rate_m: f64,
    /// Per-operation-type latency histograms, merged over every client.
    pub latency: MixedLatencies,
}

impl MixedWorkloadReport {
    /// Count plus range queries (the old opaque combined counter).
    pub fn interval_queries(&self) -> usize {
        self.count_queries + self.range_queries
    }
}

/// Generate one writer batch: distinct keys, a `delete_fraction` of them
/// deletions, the rest insertions.  Distinct keys keep per-batch semantics
/// order-independent, so differential checks against a sequential model
/// stay exact.
pub fn generate_update_batch(
    rng: &mut StdRng,
    batch_size: usize,
    key_domain: u32,
    delete_fraction: f64,
) -> UpdateBatch {
    let mut batch = UpdateBatch::with_capacity(batch_size);
    let mut used = std::collections::HashSet::with_capacity(batch_size * 2);
    while used.len() < batch_size {
        let key = rng.gen_range(0..key_domain);
        if !used.insert(key) {
            continue;
        }
        if rng.gen_bool(delete_fraction) {
            batch.delete(key);
        } else {
            batch.insert(key, rng.gen::<u32>());
        }
    }
    batch
}

/// Generate one writer batch whose keys come from a [`ZipfKeys`] sampler
/// (skewed popularity) while keeping the distinct-keys-per-batch contract
/// of [`generate_update_batch`].  Because a skewed sampler re-draws hot
/// keys constantly, the rejection loop falls back to uniform keys over the
/// sampler's universe once it has discarded `64 × batch_size` duplicates,
/// so degenerate configurations (tiny hot set, large batch) still
/// terminate.
pub fn generate_zipf_update_batch(
    keys: &mut ZipfKeys,
    rng: &mut StdRng,
    batch_size: usize,
    delete_fraction: f64,
) -> UpdateBatch {
    let mut batch = UpdateBatch::with_capacity(batch_size);
    let mut used = std::collections::HashSet::with_capacity(batch_size * 2);
    let mut rejects = 0usize;
    while used.len() < batch_size {
        let key = if rejects <= 64 * batch_size {
            keys.sample()
        } else {
            rng.gen_range(0..keys.universe())
        };
        if !used.insert(key) {
            rejects += 1;
            continue;
        }
        if rng.gen_bool(delete_fraction) {
            batch.delete(key);
        } else {
            batch.insert(key, rng.gen::<u32>());
        }
    }
    batch
}

/// Generate one reader round's interval spans.  Upper ends are clamped to
/// [`MAX_KEY`] **at generation**: the key domain is 31-bit, so
/// `lo + interval_width` can otherwise exceed it and silently rely on
/// downstream clamping (which a differential harness comparing count
/// against range must not assume).
pub fn generate_query_spans(
    rng: &mut StdRng,
    num_spans: usize,
    key_domain: u32,
    interval_width: u32,
) -> Vec<(Key, Key)> {
    (0..num_spans)
        .map(|_| {
            let lo = rng.gen_range(0..key_domain).min(MAX_KEY);
            (lo, lo.saturating_add(interval_width).min(MAX_KEY))
        })
        .collect()
}

/// Sleep the configured closed-loop think time (no-op in open loop).
fn think(config: &MixedWorkloadConfig) {
    if config.closed_loop && config.think_time_us > 0 {
        std::thread::sleep(Duration::from_micros(config.think_time_us));
    }
}

/// Drive `backend` with the configured concurrent mixed traffic and report
/// sustained service throughput plus per-operation latency percentiles.
pub fn run_mixed_workload<B: LsmBackend>(
    backend: &B,
    config: &MixedWorkloadConfig,
) -> MixedWorkloadReport {
    assert!(config.writer_threads >= 1, "need at least one writer");
    assert!(config.batch_size >= 1, "need a positive batch size");
    let writers_done = AtomicBool::new(false);
    let start = Instant::now();

    // (lookups, counts, ranges, range elements, latencies) per reader.
    type ReaderTally = (usize, usize, usize, usize, MixedLatencies);
    let mut latency = MixedLatencies::default();
    let mut reader_tallies: Vec<ReaderTally> = Vec::new();
    let mut update_elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for w in 0..config.writer_threads {
            let backend = backend.clone();
            let config = config.clone();
            writer_handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(config.seed ^ (0xA110 + w as u64));
                let mut zipf = (config.zipf_theta > 0.0).then(|| {
                    ZipfKeys::new(
                        config.key_domain,
                        config.zipf_theta,
                        config.seed ^ (0x21F_0000 + w as u64),
                    )
                });
                let mut recorded = LatencyHistogram::new();
                for n in 1..=config.batches_per_writer {
                    let batch = match zipf.as_mut() {
                        Some(z) => generate_zipf_update_batch(
                            z,
                            &mut rng,
                            config.batch_size,
                            config.delete_fraction,
                        ),
                        None => generate_update_batch(
                            &mut rng,
                            config.batch_size,
                            config.key_domain,
                            config.delete_fraction,
                        ),
                    };
                    let issued = Instant::now();
                    backend.apply(&batch).expect("valid generated batch");
                    recorded.record_duration(issued.elapsed());
                    // Closed loop: bound this writer's outstanding batches.
                    // The barrier waits for everything admitted before it,
                    // so after it at most 0 of this writer's batches are
                    // unapplied — a window of `max_outstanding`.
                    if config.closed_loop
                        && config.max_outstanding > 0
                        && n % config.max_outstanding == 0
                    {
                        backend.flush();
                    }
                    think(&config);
                }
                recorded
            }));
        }

        let mut reader_handles = Vec::new();
        for r in 0..config.reader_threads {
            let backend = backend.clone();
            let config = config.clone();
            let writers_done = &writers_done;
            reader_handles.push(scope.spawn(move || -> ReaderTally {
                let mut rng = StdRng::seed_from_u64(config.seed ^ (0xBEAD + r as u64));
                let mut zipf = (config.zipf_theta > 0.0).then(|| {
                    ZipfKeys::new(
                        config.key_domain,
                        config.zipf_theta,
                        config.seed ^ (0x21F_8000 + r as u64),
                    )
                });
                let mut lookups = 0usize;
                let mut counts = 0usize;
                let mut ranges = 0usize;
                let mut range_elements = 0usize;
                let mut recorded = MixedLatencies::default();
                // Keep issuing query rounds until the writers have drained
                // — checking for shutdown only *after* a full round, so
                // every reader observes the structure at least once even
                // when the writers drain before it is scheduled.
                loop {
                    let keys: Vec<Key> = match zipf.as_mut() {
                        Some(z) => z.sample_batch(config.lookups_per_round),
                        None => (0..config.lookups_per_round)
                            .map(|_| rng.gen_range(0..config.key_domain))
                            .collect(),
                    };
                    let issued = Instant::now();
                    let answers = backend.lookup(&keys);
                    recorded.lookup.record_duration(issued.elapsed());
                    assert_eq!(answers.len(), keys.len());
                    lookups += keys.len();
                    think(&config);

                    let spans = generate_query_spans(
                        &mut rng,
                        config.intervals_per_round,
                        config.key_domain,
                        config.interval_width,
                    );
                    let issued = Instant::now();
                    let count_answers = backend.count(&spans);
                    recorded.count.record_duration(issued.elapsed());
                    assert_eq!(count_answers.len(), spans.len());
                    counts += spans.len();
                    think(&config);

                    let issued = Instant::now();
                    let range_answers = backend.range(&spans);
                    recorded.range.record_duration(issued.elapsed());
                    // Counts and ranges see different states under
                    // concurrent updates, but both answer every query.
                    assert_eq!(range_answers.num_queries(), spans.len());
                    range_elements += range_answers.total_len();
                    ranges += spans.len();
                    think(&config);

                    if writers_done.load(Ordering::Acquire) {
                        break;
                    }
                }
                (lookups, counts, ranges, range_elements, recorded)
            }));
        }

        for h in writer_handles {
            latency.update.merge(&h.join().expect("writer thread"));
        }
        // Pipelined backends drain their admission queues here, so the
        // reported rate is for *applied* batches; synchronous backends
        // return immediately.
        backend.flush();
        // Snapshot the update denominator *now*: every update op is
        // durable, and the readers' final post-flush round (below) must
        // not count against update throughput.
        update_elapsed = start.elapsed();
        writers_done.store(true, Ordering::Release);
        for h in reader_handles {
            reader_tallies.push(h.join().expect("reader thread"));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let update_elapsed = update_elapsed.as_secs_f64();

    let update_batches = config.writer_threads * config.batches_per_writer;
    let update_ops = update_batches * config.batch_size;
    let lookups: usize = reader_tallies.iter().map(|t| t.0).sum();
    let count_queries: usize = reader_tallies.iter().map(|t| t.1).sum();
    let range_queries: usize = reader_tallies.iter().map(|t| t.2).sum();
    let range_elements: usize = reader_tallies.iter().map(|t| t.3).sum();
    for (_, _, _, _, recorded) in &reader_tallies {
        latency.merge(recorded);
    }
    let queries = lookups + count_queries + range_queries;
    MixedWorkloadReport {
        backend: backend.label(),
        update_batches,
        update_ops,
        lookups,
        count_queries,
        range_queries,
        range_elements,
        update_elapsed_seconds: update_elapsed,
        elapsed_seconds: elapsed,
        update_rate_m: update_ops as f64 / update_elapsed / 1.0e6,
        query_rate_m: queries as f64 / elapsed / 1.0e6,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use gpu_sim::{Device, DeviceConfig};

    fn small_config() -> MixedWorkloadConfig {
        MixedWorkloadConfig {
            writer_threads: 2,
            reader_threads: 2,
            batches_per_writer: 4,
            batch_size: 64,
            delete_fraction: 0.25,
            lookups_per_round: 64,
            intervals_per_round: 4,
            interval_width: 1 << 8,
            key_domain: 1 << 12,
            zipf_theta: 0.0,
            seed: 7,
            closed_loop: false,
            think_time_us: 0,
            max_outstanding: 0,
        }
    }

    #[test]
    fn drives_the_concurrent_wrapper() {
        let device = Arc::new(Device::new(DeviceConfig::small()));
        let backend = ConcurrentGpuLsm::create(device, 64).unwrap();
        let report = run_mixed_workload(&backend, &small_config());
        assert_eq!(report.backend, "concurrent-lsm");
        assert_eq!(report.update_batches, 8);
        assert_eq!(report.update_ops, 8 * 64);
        assert!(report.lookups > 0, "readers issued at least one round");
        assert!(report.elapsed_seconds > 0.0);
        assert!(report.update_elapsed_seconds > 0.0);
        assert!(report.update_elapsed_seconds <= report.elapsed_seconds);
        assert!(report.update_rate_m > 0.0);
        assert!(report.query_rate_m > 0.0);
        // Every op type recorded as many samples as it answered requests.
        assert_eq!(report.latency.update.count(), 8);
        assert_eq!(report.latency.lookup.count() as usize * 64, report.lookups);
        assert_eq!(
            report.latency.count.count() as usize * 4,
            report.count_queries
        );
        assert_eq!(
            report.latency.range.count() as usize * 4,
            report.range_queries
        );
    }

    #[test]
    fn drives_the_sharded_service_and_state_is_consistent() {
        let device = Arc::new(Device::new(DeviceConfig::small()));
        let backend = ShardedLsm::new(device, 64, 4).unwrap();
        let report = run_mixed_workload(&backend, &small_config());
        assert_eq!(report.backend, "sharded-lsm x4");
        assert_eq!(report.update_ops, 8 * 64);
        // Counts and ranges are reported separately and issued pairwise.
        assert_eq!(report.count_queries, report.range_queries);
        assert_eq!(report.interval_queries(), 2 * report.count_queries);
        // After the run the structure satisfies its invariants and the
        // service-wide count is bounded by the key domain.
        backend.check_invariants().unwrap();
        let total = backend.count(&[(0, gpu_lsm::MAX_KEY)])[0];
        assert!(total as usize <= 1 << 12);
    }

    #[test]
    fn drives_the_admitted_service_and_drains_it() {
        let device = Arc::new(Device::new(DeviceConfig::small()));
        let backend = AdmittedLsm::new(ShardedLsm::new(device, 64, 4).unwrap());
        let report = run_mixed_workload(&backend, &small_config());
        assert_eq!(report.backend, "admitted-lsm x4");
        assert_eq!(report.update_ops, 8 * 64);
        // The driver's flush barrier ran: nothing is still queued, and the
        // applied state satisfies the invariants.
        assert_eq!(backend.admission_stats().queued_batches, 0);
        backend.check_invariants().unwrap();
        assert!(backend.count(&[(0, gpu_lsm::MAX_KEY)])[0] as usize <= 1 << 12);
        assert!(report.lookups > 0);
        // The admission layer attributed queue-wait and apply time to
        // every batch it saw.
        let stats = backend.latency_stats();
        let admission = backend.admission_stats();
        assert_eq!(stats.queue_wait.count, admission.enqueued_sub_batches);
        assert_eq!(stats.apply.count, admission.applied_batches);
        assert!(stats.apply.count > 0);
    }

    /// A backend wrapper whose query surface is artificially slow — the
    /// regression shape for the update-rate accounting fix: the readers'
    /// final post-flush round must not land in the update denominator.
    #[derive(Clone)]
    struct SlowReads {
        inner: ConcurrentGpuLsm,
        delay: Duration,
    }

    impl LsmBackend for SlowReads {
        fn label(&self) -> String {
            "slow-reads".to_string()
        }
        fn apply(&self, batch: &UpdateBatch) -> gpu_lsm::Result<()> {
            self.inner.update(batch)
        }
        fn lookup(&self, keys: &[Key]) -> Vec<Option<Value>> {
            std::thread::sleep(self.delay);
            self.inner.lookup(keys)
        }
        fn count(&self, intervals: &[(Key, Key)]) -> Vec<u32> {
            std::thread::sleep(self.delay);
            self.inner.count(intervals)
        }
        fn range(&self, intervals: &[(Key, Key)]) -> RangeResult {
            std::thread::sleep(self.delay);
            self.inner.range(intervals)
        }
    }

    #[test]
    fn slow_readers_do_not_deflate_update_rate() {
        let device = Arc::new(Device::new(DeviceConfig::small()));
        let backend = SlowReads {
            inner: ConcurrentGpuLsm::create(device, 64).unwrap(),
            delay: Duration::from_millis(25),
        };
        let mut config = small_config();
        config.writer_threads = 1;
        config.reader_threads = 1;
        let report = run_mixed_workload(&backend, &config);
        // The reader's final round alone costs >= 3 * 25 ms after the
        // update denominator was snapshotted.
        assert!(
            report.elapsed_seconds >= report.update_elapsed_seconds + 0.05,
            "final reader round must fall outside the update window \
             (update {}s, total {}s)",
            report.update_elapsed_seconds,
            report.elapsed_seconds,
        );
        // The reported rate is computed over the update window, not the
        // whole run (the pre-fix behaviour).
        let expected = report.update_ops as f64 / report.update_elapsed_seconds / 1.0e6;
        assert!((report.update_rate_m - expected).abs() < 1e-9);
        let deflated = report.update_ops as f64 / report.elapsed_seconds / 1.0e6;
        assert!(report.update_rate_m > deflated);
    }

    #[test]
    fn generated_spans_are_clamped_to_the_key_domain() {
        let mut rng = StdRng::seed_from_u64(99);
        // A domain reaching the 31-bit edge plus the widest possible
        // interval: every generated span must stay inside [0, MAX_KEY].
        let spans = generate_query_spans(&mut rng, 512, MAX_KEY, u32::MAX);
        for &(lo, hi) in &spans {
            assert!(lo <= hi);
            assert!(hi <= MAX_KEY);
        }
        // Wide spans over a near-edge domain actually touch the edge.
        assert!(spans.iter().any(|&(_, hi)| hi == MAX_KEY));
    }

    #[test]
    fn quiescent_counts_match_ranges_on_domain_edge_spans() {
        let device = Arc::new(Device::new(DeviceConfig::small()));
        let backend = ShardedLsm::new(device, 64, 2).unwrap();
        // Populate keys hugging the top of the 31-bit domain, then go
        // quiescent: with no concurrent writers, count and range answer
        // over the same state, so count(span) == range(span) length per
        // query — including spans clamped at MAX_KEY.
        let pairs: Vec<(Key, Value)> = (0..64u32).map(|i| (MAX_KEY - 2 * i, i)).collect();
        backend.insert(&pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut spans = generate_query_spans(&mut rng, 64, MAX_KEY, 1 << 10);
        spans.push((MAX_KEY - 200, MAX_KEY));
        spans.push((MAX_KEY, MAX_KEY));
        let counts = backend.count(&spans);
        let ranges = backend.range(&spans);
        assert_eq!(ranges.num_queries(), spans.len());
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(c as usize, ranges.len(i), "span {:?}", spans[i]);
        }
        // The edge-hugging keys are actually found.
        assert!(counts.last().copied().unwrap() >= 1);
    }

    #[test]
    fn closed_loop_exercises_admission_and_reports_percentiles() {
        let device = Arc::new(Device::new(DeviceConfig::small()));
        let backend = AdmittedLsm::new(ShardedLsm::new(device, 64, 2).unwrap());
        let mut config = small_config();
        config.closed_loop = true;
        config.think_time_us = 200;
        config.max_outstanding = 2;
        config.batches_per_writer = 6;
        let report = run_mixed_workload(&backend, &config);
        assert_eq!(report.update_ops, 2 * 6 * 64);
        // Percentiles are ordered and populated for every op type.
        for (op, snap) in report.latency.snapshots_us() {
            assert!(snap.count > 0, "{op} recorded no samples");
            assert!(snap.p50_us <= snap.p99_us, "{op}");
            assert!(snap.p99_us <= snap.p999_us, "{op}");
            assert!(snap.p999_us <= snap.max_us.max(snap.p999_us), "{op}");
        }
        // The writers' periodic barriers showed up as flushes beyond the
        // driver's single final one.
        assert!(backend.admission_stats().flushes > 1);
        backend.check_invariants().unwrap();
    }

    #[test]
    fn zipf_batches_are_distinct_keyed_and_skewed() {
        let mut zipf = ZipfKeys::new(1 << 16, 0.99, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut hot = 0usize;
        for _ in 0..8 {
            let batch = generate_zipf_update_batch(&mut zipf, &mut rng, 128, 0.2);
            assert_eq!(batch.len(), 128);
            let keys: std::collections::HashSet<Key> =
                batch.ops().iter().map(|op| op.key()).collect();
            assert_eq!(keys.len(), 128, "keys must stay distinct per batch");
            hot += keys.iter().filter(|&&k| k < 1 << 10).count();
        }
        // Under theta ≈ 1 the hottest 1/64th of the domain draws far more
        // than its uniform share (~16 of 1024 keys) — expect ~half.
        assert!(hot > 8 * 32, "zipf batches should be hot-key heavy: {hot}");
    }

    #[test]
    fn zipf_workload_drives_the_sharded_service() {
        let device = Arc::new(Device::new(DeviceConfig::small()));
        let backend = ShardedLsm::new(device, 64, 4).unwrap();
        let mut config = small_config();
        config.zipf_theta = 0.99;
        let report = run_mixed_workload(&backend, &config);
        assert_eq!(report.update_ops, 8 * 64);
        assert!(report.lookups > 0);
        backend.check_invariants().unwrap();
    }

    #[test]
    fn workload_generation_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let ba = generate_update_batch(&mut a, 32, 1000, 0.3);
        let bb = generate_update_batch(&mut b, 32, 1000, 0.3);
        assert_eq!(ba, bb);
        assert_eq!(ba.len(), 32);
        let sa = generate_query_spans(&mut a, 8, 1000, 50);
        let sb = generate_query_spans(&mut b, 8, 1000, 50);
        assert_eq!(sa, sb);
    }
}
