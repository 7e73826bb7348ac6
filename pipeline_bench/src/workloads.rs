//! The three closed-loop workloads, each driving the public `AdmittedLsm`
//! API with zero think time.
//!
//! * `ingest_durable` — one writer on a durable service: every write-path
//!   step runs (validate/route, WAL append, grouped fsync, queue wait,
//!   coalesce, carry merge, snapshot at the barrier); then a restart and a
//!   full read-back of the recovered state.
//! * `read_bulk` — one client on a bulk-built store: large `bulk_get`,
//!   count and range calls with a trickle of updates, so the sorted bulk
//!   lookup engine, filters and fences do almost all the work.
//! * `mixed_zipf` — a writer and a reader at once over a zipf-skewed
//!   domain, with rebalancing on: small query calls, which `lookup` answers
//!   with one search per key, coalescing and the rebalancer under skew, and
//!   both clients contending with the applier for the cores.
//!
//! The level structure of an LSM depends on how many batches it has taken
//! (a binary counter), so a workload that ran "as far as it got" in the
//! time would measure a different structure on every run.  Every workload
//! therefore repeats fixed-size epochs, each on a freshly built service,
//! until the run's time is used; each epoch is one segment of
//! [`harness::report_segments`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpu_lsm::{
    AdmittedLsm, DurabilityConfig, Key, RangeResult, ShardedLsm, UpdateBatch, Value, Vfs,
};
use gpu_sim::Device;

use crate::countvfs::{CountingVfs, VfsCounters, VfsTotals};
use crate::gen::{self, mix, stream, Domain, Rng, Zipf};
use crate::harness::{
    self, epochs, err, lsm_config, mismatches, ns, ratio, remove_dir, settings, verify_full_state,
    Reads, Segment, FSYNC_INTERVAL, SHARDS,
};
use crate::metrics::Report;
use crate::model::{self, Model};
use crate::trace::Tracer;

/// Zipf exponent of `mixed_zipf`.
pub const ZIPF_THETA: f64 = 0.99;

/// Sizes of the three workloads.  `full` is what the benchmark runs;
/// `tiny` keeps the same shape for the smoke tests.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Batch size `b` of `ingest_durable`.
    pub ingest_b: usize,
    /// Key domain of `ingest_durable`.
    pub ingest_domain: Domain,
    /// Durable batches written during each epoch's set-up.
    pub ingest_prefill_batches: u64,
    /// Batches each epoch ingests under measurement.
    pub ingest_batches: u64,
    /// Batches per flush barrier.
    pub ingest_group: usize,
    /// Batches submitted without a flush before the restart.
    pub ingest_tail: u64,
    /// Lookup calls of each read-back.
    pub readback_calls: u64,
    /// Keys per read-back lookup call.  `lookup` may hand a shard's
    /// sub-batch to the bulk engine from 256 keys on, at a threshold it
    /// calibrates per process; sub-batches well below 256 keep every run on
    /// the per-key path.
    pub readback_keys: usize,
    /// The read-back's count/range spans partition the key space into
    /// `2^readback_spans_log2` pieces.
    pub readback_spans_log2: u32,
    /// Spans per read-back count/range call.
    pub readback_spans_per_call: usize,
    /// Batch size of `read_bulk`.
    pub bulk_b: usize,
    /// Key domain of `read_bulk` (exactly half its slots are resident).
    pub bulk_domain: Domain,
    /// Keys per `bulk_get` call.
    pub bulk_lookup_keys: usize,
    /// Spans per count/range call.
    pub bulk_spans: usize,
    /// Slots per span (expected resident keys: half of it).
    pub bulk_span_slots: u64,
    /// Query rounds per epoch.
    pub bulk_rounds: u64,
    /// Rounds between trickle batches.
    pub bulk_trickle_every: u64,
    /// Batch size of `mixed_zipf`.
    pub mixed_b: usize,
    /// Zipf domain of `mixed_zipf`.
    pub mixed_domain: Domain,
    /// Uniform batches loaded during each epoch's set-up.
    pub mixed_preload_batches: u64,
    /// Zipf batches the writer submits per epoch.
    pub mixed_batches: u64,
    /// Writer batches per flush barrier.
    pub mixed_group: usize,
    /// Keys per reader lookup call; about nine in ten fall in the hottest
    /// shard, still below the 256 at which `lookup` may switch engines.
    pub reader_keys: usize,
    /// Spans per reader count/range call.
    pub reader_spans: usize,
    /// Slots per reader span.
    pub reader_span_slots: u64,
    /// Calls of each kind whose modelled device cost is measured (traced
    /// runs, device otherwise idle).
    pub modelled_calls: u64,
    /// `2^n` spans used to verify a final state.
    pub verify_spans_log2: u32,
    /// `2^n` slots in the host reference task's table.
    pub reference_log2: u32,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            ingest_b: 4096,
            ingest_domain: Domain { slots_log2: 24 },
            ingest_prefill_batches: 128,
            ingest_batches: 192,
            ingest_group: 8,
            ingest_tail: 16,
            readback_calls: 512,
            readback_keys: 512,
            readback_spans_log2: 12,
            readback_spans_per_call: 16,
            bulk_b: 4096,
            bulk_domain: Domain { slots_log2: 23 },
            bulk_lookup_keys: 4096,
            bulk_spans: 1024,
            bulk_span_slots: 16,
            bulk_rounds: 256,
            // A trickle batch every 8 rounds gave each epoch ~60 ms of
            // commit time, a quarter of it in one deep merge, and per-epoch
            // update rates from 0.7 to 2.5 Mops/s within one run; every 2
            // rounds gives ~280 ms and rates within about a tenth.
            bulk_trickle_every: 2,
            mixed_b: 1024,
            mixed_domain: Domain { slots_log2: 20 },
            mixed_preload_batches: 512,
            mixed_batches: 1024,
            // The rebalance planner runs every 16 applier windows.  With at
            // most 16 batches per barrier a barrier yields one window per
            // shard, so with 8 shards every other commit would pay for the
            // planner and the median latency would flip between two modes.
            mixed_group: 32,
            reader_keys: 256,
            reader_spans: 64,
            reader_span_slots: 64,
            modelled_calls: 32,
            verify_spans_log2: 14,
            reference_log2: 23,
        }
    }

    /// Small sizes with the same shape, for tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Scale {
            ingest_b: 256,
            ingest_domain: Domain { slots_log2: 14 },
            ingest_prefill_batches: 4,
            ingest_batches: 16,
            ingest_group: 8,
            ingest_tail: 16,
            readback_calls: 8,
            readback_keys: 64,
            readback_spans_log2: 6,
            readback_spans_per_call: 16,
            bulk_b: 256,
            bulk_domain: Domain { slots_log2: 13 },
            bulk_lookup_keys: 128,
            bulk_spans: 32,
            bulk_span_slots: 16,
            bulk_rounds: 8,
            bulk_trickle_every: 4,
            mixed_b: 256,
            mixed_domain: Domain { slots_log2: 12 },
            mixed_preload_batches: 8,
            mixed_batches: 16,
            mixed_group: 8,
            reader_keys: 64,
            reader_spans: 16,
            reader_span_slots: 64,
            modelled_calls: 4,
            verify_spans_log2: 6,
            reference_log2: 10,
        }
    }
}

/// What a workload run needs.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the run.
    pub seconds: f64,
    /// Span recorder (disabled for end-to-end runs).
    pub tracer: Arc<Tracer>,
    /// Workload sizes.
    pub scale: Scale,
    /// Directory for durable state; removed by the caller.
    pub work_dir: PathBuf,
}

/// The workload names, in run order.
pub const WORKLOADS: &[&str] = &["ingest_durable", "read_bulk", "mixed_zipf"];

/// Run one workload by name.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "ingest_durable" => ingest_durable(ctx),
        "read_bulk" => read_bulk(ctx),
        "mixed_zipf" => mixed_zipf(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

// ----------------------------------------------------------------------
// ingest_durable
// ----------------------------------------------------------------------

/// Half live keys (drawn from `live`), half keys the model says are absent.
fn readback_keys(
    seed: u64,
    call: u64,
    n: usize,
    live: &[Key],
    model: &Model,
    domain: Domain,
) -> Vec<Key> {
    let mut rng = Rng::for_item(seed, stream::LOOKUP, call);
    (0..n)
        .map(|i| {
            if i % 2 == 0 && !live.is_empty() {
                return live[rng.below(live.len() as u64) as usize];
            }
            loop {
                let key = domain.key(rng.below(domain.slots()));
                if model.get(key).is_none() {
                    return key;
                }
            }
        })
        .collect()
}

fn ingest_durable(ctx: &Ctx) -> Result<Report, String> {
    let s = &ctx.scale;
    let domain = s.ingest_domain;
    let tracer = &*ctx.tracer;
    let device = Arc::new(Device::k40c());
    let counters = Arc::new(VfsCounters::default());
    let vfs: Arc<dyn Vfs> = Arc::new(CountingVfs::new(
        Arc::clone(&ctx.tracer),
        Arc::clone(&counters),
    ));
    let mut r = Report {
        workload: "ingest_durable",
        settings: settings(s.ingest_b, Some(FSYNC_INTERVAL), false, 1),
        ..Report::default()
    };
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let mut wal = VfsTotals::default();
    let mut runs_reused = 0;
    let (mut recovery_s, mut recovery_bytes) = (0.0, 0);
    let start = Instant::now();

    let summary = epochs(ctx.seconds, s.reference_log2, |epoch| {
        let seed = mix(ctx.seed, epoch);
        let first = epoch == 0;
        let mut seg = Segment::new(tracer, &device, if first { s.modelled_calls } else { 0 });
        let dir = ctx.work_dir.join(format!("ingest_durable-{epoch}"));
        let config = lsm_config(false).durability(
            DurabilityConfig::new(&dir)
                .fsync_interval(FSYNC_INTERVAL)
                .vfs(Arc::clone(&vfs)),
        );
        let open = || {
            AdmittedLsm::open_durable(Arc::clone(&device), s.ingest_b, SHARDS, config.clone())
                .map_err(err("open_durable"))
        };
        let batch = |seq: u64| gen::uniform_batch(seed, stream::BATCH, seq, s.ingest_b, domain);
        let mut model = Model::new(domain);

        // Set-up: open a fresh directory and make the prefill durable.
        let prefill: Vec<UpdateBatch> = (1..=s.ingest_prefill_batches).map(batch).collect();
        prefill.iter().for_each(|b| model.apply(b));
        let t = Instant::now();
        let lsm = {
            let _s = tracer.span("setup", epoch);
            let (lsm, _) = open()?;
            for group in prefill.chunks(s.ingest_group) {
                for b in group {
                    lsm.submit(b).map_err(err("prefill submit"))?;
                }
                lsm.flush().map_err(err("prefill flush"))?;
            }
            lsm
        };
        setups.push(t.elapsed());

        // Measured: groups of batches, each closed by a flush barrier.
        let vfs0 = counters.totals();
        let reused0 = lsm.durability_stats().map_or(0, |d| d.runs_reused);
        let mut seq = s.ingest_prefill_batches;
        for group in 0..s.ingest_batches.div_ceil(s.ingest_group as u64) {
            let batches: Vec<UpdateBatch> = (0..s.ingest_group)
                .map(|_| {
                    seq += 1;
                    batch(seq)
                })
                .collect();
            let admitted = seg.commits.group(&lsm, tracer, &device, group, &batches);
            for (b, ok) in batches.iter().zip(admitted) {
                if ok {
                    model.apply(b);
                }
            }
        }
        wal = wal.plus(counters.totals().since(vfs0));
        runs_reused += lsm.durability_stats().map_or(0, |d| d.runs_reused) - reused0;
        if tracer.enabled() && first {
            harness::write_path_layers(&mut r, &lsm);
        }

        // Acknowledged but never flushed: the restart must replay these.
        for _ in 0..s.ingest_tail {
            seq += 1;
            let b = batch(seq);
            r.attempted += b.len() as u64;
            let submitted = {
                let _s = tracer.span("submit", seq);
                lsm.submit(&b)
            };
            match submitted {
                Ok(()) => model.apply(&b),
                Err(_) => r.failed += b.len() as u64,
            }
        }
        drop(lsm);
        let read0 = counters.totals().read_bytes;
        let t = Instant::now();
        let (lsm, recovery) = {
            let _s = tracer.span("open_durable", epoch);
            open()?
        };
        recovery_s += t.elapsed().as_secs_f64();
        recovery_bytes += counters.totals().read_bytes - read0;

        // Read-back of the recovered state: sampled lookups, then count
        // and range over a partition of the key space, which together
        // check every key.
        let live: Vec<Key> = model.pairs().iter().map(|&(k, _)| k).collect();
        for call in 0..s.readback_calls {
            let keys = readback_keys(seed, call, s.readback_keys, &live, &model, domain);
            let answers = seg.reads.lookup(&lsm, AdmittedLsm::lookup, call, &keys);
            r.failed += model::lookup_mismatches(&model, &keys, &answers);
        }
        let spans = gen::partition_spans(1 << s.readback_spans_log2);
        for (call, chunk) in spans.chunks(s.readback_spans_per_call).enumerate() {
            let counts = seg.reads.count(&lsm, call as u64, chunk);
            let ranges = seg.reads.range(&lsm, call as u64, chunk);
            r.failed += model::count_mismatches(&model, chunk, &counts)
                + model::range_mismatches(&model, chunk, &ranges);
        }
        if tracer.enabled() && first {
            r.set("wal.replayed_batches", recovery.replayed_batches as f64);
            seg.reads.report_modelled(&mut r);
            harness::level_layers(&mut r, &lsm);
        }
        drop(lsm);
        segments.push(seg);
        remove_dir(&dir)
    })?;
    let measured_ns = ns(start.elapsed());

    r.set("setup_s", harness::median_s(&mut setups));
    harness::report_segments(&mut r, &segments);
    if tracer.enabled() {
        r.set(
            "compaction.modelled_us_per_batch",
            harness::modelled_us_per_batch(&segments),
        );
        let ops: u64 = segments.iter().map(|seg| seg.commits.ops).sum();
        let batches: u64 = segments.iter().map(|seg| seg.commits.batches).sum();
        let user_bytes = (ops * 8) as f64;
        r.set(
            "wal.log_bytes_per_user_byte",
            ratio(wal.log_bytes as f64, user_bytes),
        );
        r.set(
            "wal.snapshot_bytes_per_user_byte",
            ratio(wal.snapshot_bytes as f64, user_bytes),
        );
        r.set(
            "wal.fsyncs_per_batch",
            ratio(wal.wal_syncs as f64, batches as f64),
        );
        r.set(
            "wal.runs_reused_ratio",
            ratio(runs_reused as f64, (runs_reused + wal.run_files) as f64),
        );
        r.set(
            "wal.recovery_mb_per_s",
            ratio(recovery_bytes as f64 / (1 << 20) as f64, recovery_s),
        );
    }
    harness::finish(&mut r, tracer, &device, measured_ns);
    summary.report(&mut r);
    Ok(r)
}

// ----------------------------------------------------------------------
// read_bulk
// ----------------------------------------------------------------------

/// Half keys the model holds, half keys it does not.
fn half_resident_keys(seed: u64, round: u64, n: usize, model: &Model, domain: Domain) -> Vec<Key> {
    let mut rng = Rng::for_item(seed, stream::LOOKUP, round);
    (0..n)
        .map(|i| loop {
            let key = domain.key(rng.below(domain.slots()));
            if model.get(key).is_some() == (i % 2 == 0) {
                return key;
            }
        })
        .collect()
}

/// One query round — a `bulk_get`, a count and a range call — checked
/// against the model every eighth round.  Returns the wrong answers found.
///
/// The lookups go through `bulk_get`, the API for large batches, rather
/// than `lookup`: a shard's ~1024-key sub-batch against its ~2^20 resident
/// keys sits below the crossover `lookup` calibrates per process, so
/// `lookup` would answer with per-key searches and the bulk engine would
/// run in no workload.
fn bulk_round(
    reads: &mut Reads,
    lsm: &AdmittedLsm,
    seed: u64,
    s: &Scale,
    model: &Model,
    round: u64,
) -> u64 {
    let keys = half_resident_keys(seed, round, s.bulk_lookup_keys, model, s.bulk_domain);
    let spans = gen::uniform_spans(seed, round, s.bulk_spans, s.bulk_span_slots, s.bulk_domain);
    let lookups = reads.lookup(lsm, AdmittedLsm::bulk_get, round, &keys);
    let counts = reads.count(lsm, round, &spans);
    let ranges = reads.range(lsm, round, &spans);
    if round.is_multiple_of(8) {
        mismatches(model, &keys, &lookups, &spans, &counts, &ranges)
    } else {
        0
    }
}

fn read_bulk(ctx: &Ctx) -> Result<Report, String> {
    let s = &ctx.scale;
    let domain = s.bulk_domain;
    let tracer = &*ctx.tracer;
    let device = Arc::new(Device::k40c());
    let mut r = Report {
        workload: "read_bulk",
        settings: settings(s.bulk_b, None, false, 1),
        ..Report::default()
    };
    let config = lsm_config(false);
    // Bulk build takes no config: install the process-wide knobs first.
    config.apply_process_overrides();
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let start = Instant::now();

    let summary = epochs(ctx.seconds, s.reference_log2, |epoch| {
        let seed = mix(ctx.seed, epoch);
        let first = epoch == 0;
        // Exactly one slot of every pair is resident, so each uniform shard
        // holds exactly half its slots and bulk-builds into full levels.
        let mut model = Model::new(domain);
        let base = mix(seed, stream::BASE);
        for pair in 0..domain.slots() / 2 {
            let key = domain.key(2 * pair + (mix(base, pair) & 1));
            model.set(key, gen::value_for(key, 0));
        }
        let pairs = model.pairs();
        let t = Instant::now();
        let lsm = {
            let _s = tracer.span("setup", epoch);
            let service = ShardedLsm::bulk_build(Arc::clone(&device), s.bulk_b, SHARDS, &pairs)
                .map_err(err("bulk_build"))?;
            AdmittedLsm::with_config(service, config.admission())
        };
        setups.push(t.elapsed());
        drop(pairs);

        // The first epoch's first calls also measure their modelled device
        // cost: the same counts on every run with this seed.
        let mut seg = Segment::new(tracer, &device, if first { s.modelled_calls } else { 0 });
        let mut trickled = 0;
        for round in 0..s.bulk_rounds {
            r.failed += bulk_round(&mut seg.reads, &lsm, seed, s, &model, round);
            if round % s.bulk_trickle_every == s.bulk_trickle_every - 1 {
                trickled += 1;
                let b = gen::uniform_batch(seed, stream::BATCH, trickled, s.bulk_b, domain);
                if seg
                    .commits
                    .group(&lsm, tracer, &device, trickled, std::slice::from_ref(&b))[0]
                {
                    model.apply(&b);
                }
            }
        }
        if first {
            let (checked, failed) = verify_full_state(&lsm, &model, s.verify_spans_log2);
            r.attempted += checked;
            r.failed += failed;
            if tracer.enabled() {
                seg.reads.report_modelled(&mut r);
                harness::write_path_layers(&mut r, &lsm);
                harness::level_layers(&mut r, &lsm);
            }
        }
        segments.push(seg);
        Ok(())
    })?;
    let measured_ns = ns(start.elapsed());

    r.set("setup_s", harness::median_s(&mut setups));
    harness::report_segments(&mut r, &segments);
    if tracer.enabled() {
        r.set(
            "compaction.modelled_us_per_batch",
            harness::modelled_us_per_batch(&segments),
        );
        harness::no_wal(&mut r);
    }
    harness::finish(&mut r, tracer, &device, measured_ns);
    summary.report(&mut r);
    Ok(r)
}

// ----------------------------------------------------------------------
// mixed_zipf
// ----------------------------------------------------------------------

/// What a concurrent reader can check without a consistent snapshot:
/// every value belongs to its key and was written by a submitted batch,
/// range answers are sorted, inside their span and on the key grid, and a
/// count never exceeds the keys its span can hold.
fn plausibility_failures(
    domain: Domain,
    max_seq: u64,
    keys: &[Key],
    lookups: &[Option<Value>],
    spans: &[(Key, Key)],
    counts: &[u32],
    ranges: &RangeResult,
) -> u64 {
    let value_ok = |k: Key, v: Value| v & 0xFF == gen::tag(k) && gen::seq_of(v) <= max_seq;
    let on_grid = |k: Key| k == domain.key(domain.slot(k) as u64);
    let mut failed = keys
        .iter()
        .zip(lookups)
        .filter(|(&k, a)| a.is_some_and(|v| !value_ok(k, v)))
        .count() as u64;
    if ranges.num_queries() != spans.len()
        || counts.len() != spans.len()
        || lookups.len() != keys.len()
    {
        return failed + spans.len() as u64;
    }
    for (q, &(lo, hi)) in spans.iter().enumerate() {
        let capacity = domain.slot(hi) - domain.slot(lo) + 1;
        failed += u64::from(counts[q] as usize > capacity);
        let (ks, vs) = ranges.query(q);
        let sorted = ks.windows(2).all(|w| w[0] < w[1]);
        let inside = ks
            .iter()
            .zip(vs)
            .all(|(&k, &v)| lo <= k && k <= hi && on_grid(k) && value_ok(k, v));
        failed += u64::from(!(sorted && inside));
    }
    failed
}

/// One reader round — a lookup, a count and a range call — checked every
/// eighth round.  Returns the failures found.
fn reader_round(
    reads: &mut Reads,
    lsm: &AdmittedLsm,
    seed: u64,
    s: &Scale,
    zipf: &Zipf,
    call: u64,
    max_seq: &AtomicU64,
) -> u64 {
    let domain = s.mixed_domain;
    let keys = gen::zipf_keys(seed, call, s.reader_keys, domain, zipf);
    let spans = gen::uniform_spans(seed, call, s.reader_spans, s.reader_span_slots, domain);
    let lookups = reads.lookup(lsm, AdmittedLsm::lookup, call, &keys);
    let counts = reads.count(lsm, call, &spans);
    let ranges = reads.range(lsm, call, &spans);
    if !call.is_multiple_of(8) {
        return 0;
    }
    let seen = max_seq.load(Ordering::SeqCst);
    plausibility_failures(domain, seen, &keys, &lookups, &spans, &counts, &ranges)
}

fn mixed_zipf(ctx: &Ctx) -> Result<Report, String> {
    let s = &ctx.scale;
    let domain = s.mixed_domain;
    let tracer = &*ctx.tracer;
    let device = Arc::new(Device::k40c());
    let zipf = Zipf::new(domain.slots() as usize, ZIPF_THETA);
    let mut r = Report {
        workload: "mixed_zipf",
        settings: settings(s.mixed_b, None, true, 2),
        ..Report::default()
    };
    r.settings.push(("zipf_theta", ZIPF_THETA.to_string()));
    let config = lsm_config(true);
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let start = Instant::now();

    let summary = epochs(ctx.seconds, s.reference_log2, |epoch| {
        let seed = mix(ctx.seed, epoch);
        let mut commits = harness::Commits::default();
        let preload: Vec<UpdateBatch> = (1..=s.mixed_preload_batches)
            .map(|seq| gen::uniform_batch(seed, stream::BATCH, seq, s.mixed_b, domain))
            .collect();
        let mut model = Model::new(domain);
        preload.iter().for_each(|b| model.apply(b));
        let t = Instant::now();
        let lsm = {
            let _s = tracer.span("setup", epoch);
            let service =
                ShardedLsm::with_config(Arc::clone(&device), s.mixed_b, SHARDS, config.clone())
                    .map_err(err("sharded service"))?;
            let lsm = AdmittedLsm::new(service);
            for group in preload.chunks(s.mixed_group) {
                for b in group {
                    lsm.submit(b).map_err(err("preload submit"))?;
                }
                lsm.flush().map_err(err("preload flush"))?;
            }
            lsm
        };
        setups.push(t.elapsed());

        let writer_done = AtomicBool::new(false);
        let max_seq = AtomicU64::new(s.mixed_preload_batches);
        let reader = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut reads = Reads::new(tracer, &device, 0);
                let mut failed = 0;
                // At least one round, however quick the writer.
                for call in 0.. {
                    failed += reader_round(&mut reads, &lsm, seed, s, &zipf, call, &max_seq);
                    if writer_done.load(Ordering::SeqCst) {
                        break;
                    }
                }
                (reads, failed)
            });
            let mut seq = s.mixed_preload_batches;
            for group in 0..s.mixed_batches.div_ceil(s.mixed_group as u64) {
                let batches: Vec<UpdateBatch> = (0..s.mixed_group)
                    .map(|_| {
                        seq += 1;
                        gen::zipf_batch(seed, seq, s.mixed_b, domain, &zipf)
                    })
                    .collect();
                max_seq.store(seq, Ordering::SeqCst);
                let admitted = commits.group(&lsm, tracer, &device, group, &batches);
                for (b, ok) in batches.iter().zip(admitted) {
                    if ok {
                        model.apply(b);
                    }
                }
            }
            writer_done.store(true, Ordering::SeqCst);
            reader.join()
        });
        let (reads, reader_failed) = reader.map_err(|_| "reader thread panicked".to_string())?;
        r.failed += reader_failed;

        let (checked, failed) = verify_full_state(&lsm, &model, s.verify_spans_log2);
        r.attempted += checked;
        r.failed += failed;
        if tracer.enabled() && epoch == 0 {
            // Modelled query cost, measured once the writer is done so the
            // device model sees only the probe calls.
            let mut probe = Reads::new(tracer, &device, s.modelled_calls);
            for call in 0..s.modelled_calls {
                r.failed += reader_round(&mut probe, &lsm, seed, s, &zipf, call, &max_seq);
            }
            probe.report_modelled(&mut r);
            r.attempted += probe.items();
            harness::write_path_layers(&mut r, &lsm);
            harness::level_layers(&mut r, &lsm);
        }
        segments.push(Segment { commits, reads });
        Ok(())
    })?;
    let measured_ns = ns(start.elapsed());

    r.set("setup_s", harness::median_s(&mut setups));
    harness::report_segments(&mut r, &segments);
    if tracer.enabled() {
        r.set(
            "compaction.modelled_us_per_batch",
            harness::modelled_us_per_batch(&segments),
        );
        harness::no_wal(&mut r);
    }
    harness::finish(&mut r, tracer, &device, measured_ns);
    summary.report(&mut r);
    Ok(r)
}
