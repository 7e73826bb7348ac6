//! Metric definitions, sample summaries and the result lines a run prints.
//!
//! The tables here are the benchmark's contract: `BENCHMARK.json` at the
//! repository root lists the same names, units, directions and bounds (a
//! test checks that they agree), and `compare` judges regressions with
//! these bounds.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughputs, useful-work ratios).
    Higher,
    /// Smaller is better (latencies, sizes, waste).
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the base median by which the
    /// metric may worsen before a change counts as a regression.  Zero for
    /// per-layer metrics, which have no bound.
    pub bound: f64,
    /// Per-layer metrics: the end-to-end metric this layer metric should
    /// move, and on which workload.  Empty for end-to-end metrics.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the service sees, measured with tracing off.  Every
/// workload reports every one of them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("update_mops", "Mops/s", Higher, 0.20),
    e2e("commit_p50_us", "us", Lower, 0.20),
    e2e("commit_p99_us", "us", Lower, 0.20),
    e2e("lookup_mqps", "Mq/s", Higher, 0.20),
    e2e("count_mqps", "Mq/s", Higher, 0.20),
    e2e("range_mqps", "Mq/s", Higher, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.20),
];

/// Metrics of single layers, from a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer(
        "admission.submit_p99_us",
        "us",
        Lower,
        "commit_p99_us on ingest_durable",
    ),
    layer(
        "admission.flush_wait_p50_us",
        "us",
        Lower,
        "commit_p50_us on ingest_durable",
    ),
    layer(
        "admission.flush_wait_p99_us",
        "us",
        Lower,
        "commit_p99_us on ingest_durable",
    ),
    layer(
        "admission.queue_wait_p99_us",
        "us",
        Lower,
        "commit_p99_us on mixed_zipf",
    ),
    layer(
        "admission.apply_p50_us",
        "us",
        Lower,
        "update_mops on mixed_zipf",
    ),
    layer(
        "admission.apply_p99_us",
        "us",
        Lower,
        "commit_p99_us on mixed_zipf",
    ),
    layer(
        "admission.coalesce_ratio",
        "ratio",
        Higher,
        "update_mops on mixed_zipf",
    ),
    layer(
        "commit.client_share",
        "ratio",
        Lower,
        "commit_p50_us on all workloads",
    ),
    layer(
        "commit.submit_share",
        "ratio",
        Lower,
        "commit_p50_us on ingest_durable",
    ),
    layer(
        "commit.flush_share",
        "ratio",
        Lower,
        "commit_p50_us on mixed_zipf",
    ),
    layer(
        "wal.log_bytes_per_user_byte",
        "ratio",
        Lower,
        "update_mops on ingest_durable",
    ),
    layer(
        "wal.snapshot_bytes_per_user_byte",
        "ratio",
        Lower,
        "update_mops on ingest_durable",
    ),
    layer(
        "wal.fsyncs_per_batch",
        "count",
        Lower,
        "commit_p99_us on ingest_durable",
    ),
    layer(
        "wal.fsync_share",
        "ratio",
        Lower,
        "commit_p99_us on ingest_durable",
    ),
    layer(
        "wal.append_share",
        "ratio",
        Lower,
        "commit_p50_us on ingest_durable",
    ),
    layer(
        "wal.snapshot_share",
        "ratio",
        Lower,
        "commit_p50_us on ingest_durable",
    ),
    layer(
        "wal.unattributed_share",
        "ratio",
        Lower,
        "none: filesystem time outside every benchmark call, which the shares miss",
    ),
    layer(
        "wal.runs_reused_ratio",
        "ratio",
        Higher,
        "update_mops on ingest_durable",
    ),
    layer(
        "wal.recovery_mb_per_s",
        "MB/s",
        Higher,
        "none: recovery speed on ingest_durable",
    ),
    layer(
        "wal.replayed_batches",
        "count",
        Lower,
        "none: recovery work on ingest_durable",
    ),
    layer(
        "router.update_imbalance",
        "ratio",
        Lower,
        "update_mops on mixed_zipf",
    ),
    layer(
        "router.rebalances",
        "count",
        Lower,
        "commit_p99_us on mixed_zipf",
    ),
    layer(
        "compaction.carry_steps_per_batch",
        "count",
        Lower,
        "update_mops on mixed_zipf and ingest_durable",
    ),
    layer(
        "compaction.fence_merge_ratio",
        "ratio",
        Higher,
        "update_mops on mixed_zipf and ingest_durable",
    ),
    layer(
        "compaction.filter_rehash_ratio",
        "ratio",
        Higher,
        "update_mops on mixed_zipf and ingest_durable",
    ),
    layer(
        "compaction.modelled_us_per_batch",
        "model_us",
        Lower,
        "update_mops on mixed_zipf and ingest_durable",
    ),
    layer(
        "arena.high_water_mb",
        "MB",
        Lower,
        "peak_rss_mb on all workloads",
    ),
    layer(
        "arena.recycle_ratio",
        "ratio",
        Higher,
        "update_mops on mixed_zipf and ingest_durable",
    ),
    layer(
        "level.filter_skip_ratio",
        "ratio",
        Higher,
        "lookup_mqps on read_bulk",
    ),
    layer(
        "level.occupied_per_shard",
        "count",
        Lower,
        "lookup_mqps on read_bulk",
    ),
    layer("level.accel_mb", "MB", Lower, "peak_rss_mb on read_bulk"),
    layer(
        "level.space_amp",
        "ratio",
        Lower,
        "peak_rss_mb on ingest_durable and mixed_zipf",
    ),
    layer(
        "lookup.call_p50_us",
        "us",
        Lower,
        "lookup_mqps on read_bulk",
    ),
    layer(
        "lookup.call_p99_us",
        "us",
        Lower,
        "lookup_mqps on mixed_zipf",
    ),
    layer("range.call_p50_us", "us", Lower, "range_mqps on read_bulk"),
    layer("range.call_p99_us", "us", Lower, "range_mqps on mixed_zipf"),
    layer(
        "lookup.bulk_launch_share",
        "ratio",
        Higher,
        "lookup_mqps on read_bulk: per-shard lookups run by the sorted bulk engine",
    ),
    layer(
        "lookup.modelled_ns_per_query",
        "model_ns",
        Lower,
        "lookup_mqps on read_bulk",
    ),
    layer(
        "lookup.scattered_txn_per_query",
        "count",
        Lower,
        "lookup_mqps on read_bulk",
    ),
    layer(
        "count.modelled_ns_per_query",
        "model_ns",
        Lower,
        "count_mqps on read_bulk",
    ),
    layer(
        "range.modelled_ns_per_query",
        "model_ns",
        Lower,
        "range_mqps on read_bulk",
    ),
    layer(
        "range.elements_per_query",
        "count",
        Higher,
        "none: guard, changes only if the workload changed",
    ),
    layer(
        "bench.host_ref_ms",
        "ms",
        Lower,
        "none: host speed; wall-clock end-to-end metrics are reported at 180 ms, with the raw value beside them",
    ),
    layer(
        "bench.trace_overhead_share",
        "ratio",
        Lower,
        "none: cost of tracing itself",
    ),
];

/// Look up a metric definition by name in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The value at quantile `q` of `samples` (nearest rank; sorts in place).
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Latency samples of one kind of call, in nanoseconds, plus the items
/// (keys, spans or ops) the calls carried.
#[derive(Debug, Clone, Default)]
pub struct Calls {
    /// Per-call wall time.
    pub ns: Vec<u64>,
    /// Items carried by all calls.
    pub items: u64,
}

impl Calls {
    /// Record one call.
    pub fn record(&mut self, ns: u64, items: usize) {
        self.ns.push(ns);
        self.items += items as u64;
    }

    /// Items per second of call time, in millions.
    pub fn mrate(&self) -> f64 {
        let busy: u64 = self.ns.iter().sum();
        if busy == 0 {
            0.0
        } else {
            self.items as f64 * 1e3 / busy as f64
        }
    }

    /// Quantile `q` of the per-call latency, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&mut self.ns.clone(), q) as f64 / 1e3
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Effective settings, printed ahead of the result.
    pub settings: Vec<(&'static str, String)>,
    /// Metric values by name (end-to-end always, per-layer when traced).
    pub values: BTreeMap<&'static str, f64>,
    /// End-to-end values as measured, before the host-speed correction.
    pub raw: BTreeMap<&'static str, f64>,
    /// Operations and queries attempted.
    pub attempted: u64,
    /// Failed submits/flushes (their ops) and wrong answers.
    pub failed: u64,
}

impl Report {
    /// Set a metric; the name must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "undefined metric {name}");
        self.values.insert(name, value);
    }

    /// The settings line (JSON), which `compare` uses to find the workload.
    pub fn settings_line(&self, seed: u64, seconds: f64, traced: bool) -> String {
        let settings: Vec<String> = self
            .settings
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{traced},\"settings\":{{{}}}}}",
            self.workload,
            settings.join(",")
        )
    }

    /// The final result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or(f64::NAN);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", d.name, v, d.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// Human-readable lines `workload metric value unit`, one per metric
    /// measured, with every digit of the value (`compare` reads them back).
    /// An end-to-end line ends with `raw` and the value before the
    /// host-speed correction; a per-layer line names the end-to-end metric
    /// it should move.
    pub fn human_lines(&self) -> Vec<String> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|d| {
                let v = self.values.get(d.name)?;
                let line = format!(
                    "{:<16} {:<36} {:>20} {:<8}",
                    self.workload, d.name, v, d.unit
                );
                Some(match self.raw.get(d.name) {
                    Some(raw) => format!("{line} raw {raw}"),
                    None if d.moves.is_empty() => line,
                    None => format!("{line} moves {}", d.moves),
                })
            })
            .collect()
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the peak-RSS mark so a workload run after another in one process
/// reports its own peak.  Best effort: kernels without `clear_refs` keep
/// the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.20));
        assert!(PER_LAYER.iter().all(|d| !d.moves.is_empty()));
    }

    #[test]
    fn result_line_lists_exactly_the_selected_table() {
        let mut r = Report {
            workload: "w",
            attempted: 3,
            ..Report::default()
        };
        r.set("update_mops", 1.5);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\":", d.name)));
        }
        assert!(!line.contains("admission."));
    }
}
