//! The CI bench-regression suite: a small, fixed workload whose throughput
//! is recorded as `BENCH_ci.json` on every CI run and compared against the
//! committed `BENCH_baseline.json`.
//!
//! The suite deliberately over-weights *small* inputs (batches of at most
//! 4Ki elements): those are the regime where fixed per-call costs — thread
//! spawning, radix histogram passes, per-kernel bookkeeping — dominate, so
//! they are the first numbers to move when dispatch overhead regresses.
//! Most metrics are rates in M elements/s (higher is better); metrics
//! named `*_us` are latencies in microseconds (lower is better), and the
//! comparator gates them in the right direction.
//!
//! The JSON schema is intentionally flat so the comparator does not need a
//! real JSON parser (the serde stand-in has no `Deserialize` runtime):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "repeats": 5,
//!   "metrics": { "lsm_insert_b1k": 12.34, ... }
//! }
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use gpu_lsm::{AdmittedLsm, GpuLsm, ShardedLsm};
use gpu_primitives::{merge::merge_by, radix_sort::sort_pairs};
use gpu_sim::Device;
use lsm_workloads::{
    missing_lookups, range_queries_with_expected_width, run_mixed_workload, unique_random_pairs,
    MixedWorkloadConfig,
};

use crate::measure::{elements_per_sec_m, harmonic_mean, time_once};

/// Schema version stamped into the JSON output.
pub const SCHEMA_VERSION: u32 = 1;

/// Workload seed; fixed so baseline and CI runs measure identical inputs.
pub const CI_SEED: u64 = 0xC1_BE7C;

/// How many times each metric is measured; the **median** run is reported.
/// The median damps both slow outliers (scheduler noise on shared CI
/// runners) and fast outliers (frequency bursts), either of which would
/// make a best-of or worst-of gate flaky.
pub const CI_REPEATS: usize = 5;

/// One measured throughput metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (JSON key).
    pub name: String,
    /// Throughput in M elements/s; higher is better.
    pub rate: f64,
}

fn ci_device() -> Arc<Device> {
    Arc::new(Device::k40c())
}

/// Harmonic-mean per-batch insert rate for inserting `num_batches` batches
/// of `batch_size` into an empty LSM.
fn lsm_insert_rate(batch_size: usize, num_batches: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(batch_size * num_batches, CI_SEED);
    let mut lsm = GpuLsm::new(device, batch_size).expect("valid batch size");
    let mut rates = Vec::with_capacity(num_batches);
    for chunk in pairs.chunks(batch_size) {
        let (_, elapsed) = time_once(|| lsm.insert(chunk).expect("insert"));
        rates.push(elements_per_sec_m(batch_size, elapsed));
    }
    harmonic_mean(&rates)
}

/// Harmonic-mean per-batch insert rate of the *sharded* service on one
/// host thread: each batch pays the router's split pass plus one sub-batch
/// insert per touched shard.  At `num_shards = 1` this is the sharding
/// layer's pure overhead over `lsm_insert_*`; at higher shard counts it
/// additionally tracks the split/fan-out cost the shard-scaling experiment
/// relies on (the parallel win itself needs multiple cores and threads,
/// which CI runners don't reliably have — rates here are single-threaded
/// on purpose so the gate stays stable).
fn sharded_insert_rate(num_shards: usize, batch_size: usize, num_batches: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(batch_size * num_batches, CI_SEED ^ 0x5AAD);
    let lsm = ShardedLsm::new(device, batch_size, num_shards).expect("valid shard count");
    let mut rates = Vec::with_capacity(num_batches);
    for chunk in pairs.chunks(batch_size) {
        let (_, elapsed) = time_once(|| lsm.insert(chunk).expect("insert"));
        rates.push(elements_per_sec_m(batch_size, elapsed));
    }
    harmonic_mean(&rates)
}

/// Steady-state carry-chain insert rate: bulk-prefill `prefill` batches
/// (occupying every level below the first empty one), then time the next
/// `timed` inserts, which run real merge cascades — including the deep
/// carry right after the prefill — through a ~`prefill · b`-element
/// structure.  This isolates the carry chain (merges + incremental
/// fence/filter maintenance) from the empty-structure regime
/// `lsm_insert_*` measures.
fn carry_merge_rate(batch_size: usize, prefill: usize, timed: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(batch_size * (prefill + timed), CI_SEED ^ 0xCA44);
    let mut lsm =
        GpuLsm::bulk_build(device, batch_size, &pairs[..batch_size * prefill]).expect("bulk build");
    let mut rates = Vec::with_capacity(timed);
    for chunk in pairs[batch_size * prefill..].chunks(batch_size) {
        let (_, elapsed) = time_once(|| lsm.insert(chunk).expect("insert"));
        rates.push(elements_per_sec_m(batch_size, elapsed));
    }
    harmonic_mean(&rates)
}

/// Admitted (pipelined) insert rate on one submitter thread: submit
/// `num_batches` quarter-size batches through the admission queue of a
/// 4-shard service and include the final drain barrier, so the rate counts
/// *applied* work.  Queue handoff plus coalescing (sub-batches merge into
/// fuller shard batches) is what this measures against `sharded_insert_*`.
fn admitted_insert_rate(batch_size: usize, num_batches: usize) -> f64 {
    let device = ci_device();
    let submit_size = batch_size / 4;
    let pairs = unique_random_pairs(submit_size * num_batches, CI_SEED ^ 0xAD41);
    let lsm = AdmittedLsm::new(ShardedLsm::new(device, batch_size, 4).expect("valid shards"));
    let (_, elapsed) = time_once(|| {
        for chunk in pairs.chunks(submit_size) {
            lsm.insert(chunk).expect("submit");
        }
        lsm.flush().expect("admission pipeline alive");
    });
    elements_per_sec_m(submit_size * num_batches, elapsed)
}

/// Tail latency of the admitted write path: p99 of the admission applier's
/// per-batch **apply time** (µs) under a closed-loop workload against a
/// 4-shard admitted service.  Lower is better — the comparator treats
/// `*_us` metrics as such (see [`lower_is_better`]).  The apply component
/// is gated (rather than queue wait or client-observed submit time)
/// because it is the compute cost of the carry chain itself: it regresses
/// when the write path slows down, while queue wait mostly tracks workload
/// shape and scheduler noise.  The run is shaped for repeatability, not
/// load: one writer, no readers, and a one-outstanding-batch window, so
/// the loop fully serializes generate → submit → apply — nothing preempts
/// the applier mid-apply, coalesce windows stay uniform, and the p99
/// tracks the deepest carry in a deterministic batch stream instead of
/// whichever coalesced mega-batch the scheduler happened to form.  (The
/// multi-client saturation shape lives in the stress job's closed-loop
/// tests; a latency *gate* needs the repeatable shape.)
fn admitted_p99_us() -> f64 {
    let device = ci_device();
    let lsm = AdmittedLsm::new(ShardedLsm::new(device, 1 << 10, 4).expect("valid shards"));
    let config = MixedWorkloadConfig {
        writer_threads: 1,
        reader_threads: 0,
        batches_per_writer: 64,
        batch_size: 1 << 10,
        delete_fraction: 0.2,
        lookups_per_round: 0,
        intervals_per_round: 0,
        interval_width: 1 << 12,
        key_domain: 1 << 20,
        zipf_theta: 0.0,
        seed: CI_SEED ^ 0x1A7,
        closed_loop: true,
        think_time_us: 0,
        max_outstanding: 1,
    };
    let report = run_mixed_workload(&lsm, &config);
    debug_assert!(report.latency.update.count() > 0);
    let (_, apply) = lsm.latency_histograms();
    apply.p99() as f64 / 1_000.0
}

/// Rate of radix-sorting `n` random key–value pairs.
fn sort_pairs_rate(n: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(n, CI_SEED ^ 0x50);
    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let values: Vec<u32> = pairs.iter().map(|&(_, v)| v).collect();
    let mut k = keys.clone();
    let mut v = values.clone();
    let (_, elapsed) = time_once(|| sort_pairs(&device, &mut k, &mut v));
    elements_per_sec_m(n, elapsed)
}

/// Rate of merging two sorted runs of `n / 2` keys each.
fn merge_rate(n: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(n, CI_SEED ^ 0x4D);
    let mut a: Vec<u32> = pairs[..n / 2].iter().map(|&(k, _)| k).collect();
    let mut b: Vec<u32> = pairs[n / 2..].iter().map(|&(k, _)| k).collect();
    a.sort_unstable();
    b.sort_unstable();
    let (out, elapsed) = time_once(|| merge_by(&device, &a, &b, |x, y| x < y));
    assert_eq!(out.len(), n);
    elements_per_sec_m(n, elapsed)
}

/// Rate of looking up `n` present keys in an LSM of `8 * n` elements.
fn lookup_rate(n: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(8 * n, CI_SEED ^ 0x10);
    let lsm = GpuLsm::bulk_build(device, n, &pairs).expect("bulk build");
    let queries: Vec<u32> = pairs.iter().take(n).map(|&(k, _)| k).collect();
    let (_, elapsed) = time_once(|| lsm.lookup(&queries));
    elements_per_sec_m(n, elapsed)
}

/// Rate of looking up `n` *absent* keys in a multi-level LSM of `11 n`
/// elements (11 batches occupy levels 0, 1 and 3).  Misses are the
/// query-path worst case — every occupied level is probed — so this is the
/// metric per-level filters and fences exist to move.
fn lookup_miss_rate(n: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(11 * n, CI_SEED ^ 0x11);
    let lsm = GpuLsm::bulk_build(device, n, &pairs).expect("bulk build");
    let resident: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let queries = missing_lookups(&resident, n, CI_SEED ^ 0x31);
    let (_, elapsed) = time_once(|| lsm.lookup(&queries));
    elements_per_sec_m(n, elapsed)
}

/// Rate of `num_queries` warp-style bulk lookups ([`GpuLsm::bulk_get`])
/// against a multi-level LSM of 11 · 8Ki elements, queries drawn from the
/// resident keys.  The bulk path sorts the queries, then searches each
/// level in lockstep lane groups; with this many queries every sorted
/// group is denser than the fence samples, so its lanes share one window
/// found by two fence descents — this metric gates the sort plus that
/// dense-group search.
fn bulk_get_rate(num_queries: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(11 << 13, CI_SEED ^ 0xB6);
    let lsm = GpuLsm::bulk_build(device, 1 << 13, &pairs).expect("bulk build");
    let queries: Vec<u32> = pairs
        .iter()
        .cycle()
        .take(num_queries)
        .map(|&(k, _)| k)
        .collect();
    let (_, elapsed) = time_once(|| lsm.bulk_get(&queries));
    elements_per_sec_m(num_queries, elapsed)
}

/// Rate of `num_queries` count queries (expected width L = 8, the paper's
/// Table IV small-interval case) against a multi-level LSM of 11 · 4Ki
/// elements.  Rates are in M queries/s.
fn count_rate(num_queries: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(11 << 12, CI_SEED ^ 0xC0);
    let lsm = GpuLsm::bulk_build(device, 1 << 12, &pairs).expect("bulk build");
    let queries = range_queries_with_expected_width(pairs.len(), 8, num_queries, CI_SEED ^ 0xC1);
    let (_, elapsed) = time_once(|| lsm.count(&queries));
    elements_per_sec_m(num_queries, elapsed)
}

/// Rate of `num_queries` range queries over the same workload as
/// [`count_rate`] (stages 1–4 shared, plus the compaction stage 5).
fn range_rate(num_queries: usize) -> f64 {
    let device = ci_device();
    let pairs = unique_random_pairs(11 << 12, CI_SEED ^ 0xD0);
    let lsm = GpuLsm::bulk_build(device, 1 << 12, &pairs).expect("bulk build");
    let queries = range_queries_with_expected_width(pairs.len(), 8, num_queries, CI_SEED ^ 0xD1);
    let (_, elapsed) = time_once(|| lsm.range(&queries));
    elements_per_sec_m(num_queries, elapsed)
}

/// Run one measurement of every metric in the suite.
fn measure_once() -> Vec<Metric> {
    let m = |name: &str, rate: f64| Metric {
        name: name.to_string(),
        rate,
    };
    vec![
        // Small-batch insertion — the headline numbers the pool + radix
        // fast paths exist for.
        m("lsm_insert_b1k", lsm_insert_rate(1 << 10, 32)),
        m("lsm_insert_b4k", lsm_insert_rate(1 << 12, 16)),
        // Primitive building blocks at small and moderate sizes.
        m("sort_pairs_2k", sort_pairs_rate(1 << 11)),
        m("sort_pairs_64k", sort_pairs_rate(1 << 16)),
        m("merge_64k", merge_rate(1 << 16)),
        m("lookup_4k", lookup_rate(1 << 12)),
        // Query-path coverage beyond the single hit metric: all-miss
        // lookups (the filter/fence showcase) and small-interval
        // count/range queries (fence-clamped candidate gathering).
        m("lookup_miss_4k", lookup_miss_rate(1 << 12)),
        // Warp-style bulk execution: 100k sorted queries in shared-descent
        // groups (the paper's "PCIe tax" amortization argument).
        m("bulk_get_100k", bulk_get_rate(100_000)),
        m("count_1k", count_rate(1 << 10)),
        m("range_1k", range_rate(1 << 10)),
        // Sharded-service insert path: shards=1 tracks the routing layer's
        // overhead, shards=4 the split/fan-out cost as shards multiply.
        m("sharded_insert_s1", sharded_insert_rate(1, 1 << 10, 16)),
        m("sharded_insert_s4", sharded_insert_rate(4, 1 << 10, 16)),
        // Write-path restructuring coverage: steady-state carries through a
        // ~128Ki structure (planner/executor + incremental fence/filter
        // maintenance) and pipelined admission incl. the drain barrier.
        m("carry_merge_128k", carry_merge_rate(1 << 11, 63, 32)),
        m("admitted_insert_4k", admitted_insert_rate(1 << 12, 16)),
        // Tail latency of the admitted write path under a closed-loop
        // driver — the one lower-is-better metric in the suite.
        m("admitted_p99_us", admitted_p99_us()),
    ]
}

/// Run the full suite: `repeats` measurements per metric, median kept.
pub fn run_suite(repeats: usize) -> Vec<Metric> {
    let repeats = repeats.max(1);
    let mut samples: Vec<Vec<f64>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for round in 0..repeats {
        for (slot, fresh) in measure_once().into_iter().enumerate() {
            if round == 0 {
                names.push(fresh.name);
                samples.push(vec![fresh.rate]);
            } else {
                debug_assert_eq!(names[slot], fresh.name);
                samples[slot].push(fresh.rate);
            }
        }
    }
    names
        .into_iter()
        .zip(samples)
        .map(|(name, mut rates)| {
            rates.sort_unstable_by(f64::total_cmp);
            Metric {
                name,
                rate: rates[rates.len() / 2],
            }
        })
        .collect()
}

/// Render a metric set as the flat JSON document described in the module
/// docs.
pub fn to_json(metrics: &[Metric], repeats: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"repeats\": {repeats},");
    let _ = writeln!(out, "  \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}\": {:.4}{}", m.name, m.rate, comma);
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Parse the `"metrics"` object of a document produced by [`to_json`].
///
/// This is a deliberately minimal scanner for the flat schema above, not a
/// general JSON parser: it looks for the `"metrics"` key and then reads
/// `"name": number` pairs until the closing brace.
pub fn parse_metrics(json: &str) -> Result<Vec<Metric>, String> {
    let start = json
        .find("\"metrics\"")
        .ok_or_else(|| "no \"metrics\" key".to_string())?;
    let body = &json[start..];
    let open = body.find('{').ok_or("no opening brace after \"metrics\"")?;
    let close = body[open..]
        .find('}')
        .ok_or("no closing brace for \"metrics\"")?;
    let inner = &body[open + 1..open + close];
    let mut metrics = Vec::new();
    for entry in inner.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("bad metric entry: {entry:?}"))?;
        let name = name.trim().trim_matches('"');
        let rate: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("bad metric value for {name:?}: {value:?}"))?;
        metrics.push(Metric {
            name: name.to_string(),
            rate,
        });
    }
    if metrics.is_empty() {
        return Err("empty \"metrics\" object".to_string());
    }
    Ok(metrics)
}

/// Outcome of comparing a current run against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Metric name.
    pub name: String,
    /// Baseline rate (M elements/s).
    pub baseline: f64,
    /// Current rate (M elements/s).
    pub current: f64,
    /// `current / baseline`; below `1 - tolerance` is a regression for
    /// throughput metrics, above `1 + tolerance` for latency (`*_us`)
    /// metrics.
    pub ratio: f64,
    /// Whether this metric regressed beyond the tolerance.
    pub regressed: bool,
}

/// Whether a metric is latency-like: for `*_us` metrics **smaller** values
/// are better, so the gate fails when the value *grows* past the
/// tolerance instead of when it shrinks.
pub fn lower_is_better(name: &str) -> bool {
    name.ends_with("_us")
}

/// Compare current metrics against a baseline with a relative `tolerance`
/// (0.2 = fail when a throughput metric loses more than 20 %, or a
/// latency (`*_us`) metric grows by more than 20 %).  Only metrics present
/// on *both* sides are compared — use [`unmatched`] to surface the rest —
/// so the suite can grow without breaking older baselines.
pub fn compare(baseline: &[Metric], current: &[Metric], tolerance: f64) -> Vec<Comparison> {
    let mut out = Vec::new();
    for b in baseline {
        if let Some(c) = current.iter().find(|c| c.name == b.name) {
            let ratio = if b.rate > 0.0 {
                c.rate / b.rate
            } else {
                f64::INFINITY
            };
            let regressed = if lower_is_better(&b.name) {
                ratio > 1.0 + tolerance
            } else {
                ratio < 1.0 - tolerance
            };
            out.push(Comparison {
                name: b.name.clone(),
                baseline: b.rate,
                current: c.rate,
                ratio,
                regressed,
            });
        }
    }
    out
}

/// Names present in exactly one of the two metric sets (first the ones
/// only in `baseline`, then the ones only in `current`).  The gate warns
/// about these instead of silently losing coverage when a metric is
/// renamed or removed.
pub fn unmatched(baseline: &[Metric], current: &[Metric]) -> Vec<String> {
    let mut names = Vec::new();
    for b in baseline {
        if !current.iter().any(|c| c.name == b.name) {
            names.push(format!("{} (baseline only)", b.name));
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.name == c.name) {
            names.push(format!("{} (current only)", c.name));
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, rate: f64) -> Metric {
        Metric {
            name: name.to_string(),
            rate,
        }
    }

    #[test]
    fn json_round_trips() {
        let metrics = vec![metric("a", 12.5), metric("b", 0.125)];
        let json = to_json(&metrics, 3);
        let parsed = parse_metrics(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "a");
        assert!((parsed[0].rate - 12.5).abs() < 1e-9);
        assert!((parsed[1].rate - 0.125).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_metrics("{}").is_err());
        assert!(parse_metrics("{\"metrics\": {}}").is_err());
        assert!(parse_metrics("{\"metrics\": {\"a\": \"fast\"}}").is_err());
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let baseline = vec![metric("a", 100.0), metric("b", 100.0), metric("c", 100.0)];
        let current = vec![
            metric("a", 85.0),  // -15 %: within a 20 % tolerance
            metric("b", 75.0),  // -25 %: regression
            metric("c", 140.0), // improvement
        ];
        let report = compare(&baseline, &current, 0.2);
        assert_eq!(report.len(), 3);
        assert!(!report[0].regressed);
        assert!(report[1].regressed);
        assert!(!report[2].regressed);
    }

    #[test]
    fn latency_metrics_regress_in_the_opposite_direction() {
        assert!(lower_is_better("admitted_p99_us"));
        assert!(!lower_is_better("lsm_insert_b1k"));
        let baseline = vec![metric("tail_us", 100.0), metric("rate", 100.0)];
        // Latency shrinking is an improvement, not a regression.
        let faster = vec![metric("tail_us", 60.0), metric("rate", 100.0)];
        assert!(compare(&baseline, &faster, 0.2)
            .iter()
            .all(|c| !c.regressed));
        // Latency growing past tolerance fails; a rate growing never does.
        let slower = vec![metric("tail_us", 130.0), metric("rate", 180.0)];
        let report = compare(&baseline, &slower, 0.2);
        assert!(report[0].regressed);
        assert!(!report[1].regressed);
        // Growth within tolerance passes.
        let ok = vec![metric("tail_us", 115.0), metric("rate", 100.0)];
        assert!(compare(&baseline, &ok, 0.2).iter().all(|c| !c.regressed));
    }

    #[test]
    fn compare_skips_unmatched_metrics_and_unmatched_reports_them() {
        let baseline = vec![metric("gone", 10.0), metric("both", 10.0)];
        let current = vec![metric("new", 10.0), metric("both", 10.0)];
        assert_eq!(compare(&baseline, &current, 0.2).len(), 1);
        let missing = unmatched(&baseline, &current);
        assert_eq!(
            missing,
            vec![
                "gone (baseline only)".to_string(),
                "new (current only)".to_string()
            ]
        );
        assert!(unmatched(&baseline, &baseline).is_empty());
    }

    #[test]
    fn suite_runs_and_produces_positive_rates() {
        // One repeat keeps this test cheap; it exercises every metric once.
        let metrics = run_suite(1);
        assert_eq!(metrics.len(), 15);
        for m in &metrics {
            assert!(m.rate > 0.0, "metric {} must be positive", m.name);
        }
        // Names are unique (the comparator matches by name).
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len());
    }
}
