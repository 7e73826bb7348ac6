//! `compare`: two sets of saved runs, one verdict per (workload, metric).
//!
//! For every end-to-end metric the verdict follows the measuring rules the
//! benchmark was built for: a side whose quartile spread is wider than the
//! metric's bound makes the metric `unresolved` (unless every new run beats
//! every base run); otherwise a median worse by more than the bound is a
//! `REGRESSION`; a gain is claimed (`improved`) only when the new side wins
//! at least nine tenths of the run pairs and the medians differ by more
//! than the base side's own quartile spread.  Per-layer metrics have no
//! bound and are listed for information.

use std::collections::BTreeMap;

use crate::metrics::{def, Better, MetricDef};

/// One saved run of one workload: its metric values and failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// End-to-end values before the host-speed correction, by name.
    pub raw: BTreeMap<String, f64>,
    /// Failures the run reported.
    pub failed: u64,
}

/// Parse a run's saved standard output: one `workload metric value unit`
/// line per metric (end-to-end lines end with `raw VALUE`), each
/// workload's lines followed by its result line, which gives the failure
/// count.  A `--workload all` output holds one run per workload.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs: Vec<Run> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("{\"correct\":") {
            let failed = rest
                .split_once("\"failed\":")
                .and_then(|(_, f)| f.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|f| f.parse().ok())
                .ok_or("result line without a failure count")?;
            runs.last_mut()
                .ok_or("result line before any metric")?
                .failed = failed;
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, name, value, ..] = fields[..] else {
            continue;
        };
        if def(name).is_none() {
            continue;
        }
        let number = |v: &str| v.parse::<f64>().map_err(|e| format!("{name}: {e}"));
        let value = number(value)?;
        let raw = match fields[3..] {
            [_unit, "raw", raw, ..] => Some(number(raw)?),
            _ => None,
        };
        let new_run = runs
            .last()
            .is_none_or(|r| r.workload != workload || r.metrics.contains_key(name));
        if new_run {
            runs.push(Run {
                workload: workload.to_string(),
                ..Run::default()
            });
        }
        if let Some(run) = runs.last_mut() {
            run.metrics.insert(name.to_string(), value);
            if let Some(raw) = raw {
                run.raw.insert(name.to_string(), raw);
            }
        }
    }
    if runs.is_empty() {
        return Err("no metric lines".into());
    }
    Ok(runs)
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// New beats base by the gain rule.
    Improved,
    /// Within the bound, no gain claimed.
    Unchanged,
    /// New median worse than base by more than the bound.
    Regression,
    /// A side's spread exceeds the bound: no claim either way.
    Unresolved,
    /// Per-layer metric: no bound, no verdict.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Judge one metric from its base and new runs (runs paired by position).
pub fn judge(d: &MetricDef, base: &[f64], new: &[f64]) -> Verdict {
    if d.bound == 0.0 {
        return Verdict::Info;
    }
    let (b1, bm, b3) = quartiles(base);
    let (n1, nm, n3) = quartiles(new);
    let better = |x: f64, y: f64| match d.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let spread = |lo: f64, hi: f64, med: f64| {
        if med == 0.0 {
            0.0
        } else {
            (hi - lo) / med.abs()
        }
    };
    if spread(b1, b3, bm) > d.bound || spread(n1, n3, nm) > d.bound {
        let all_better = new.iter().all(|&x| base.iter().all(|&y| better(x, y)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse = match d.better {
        Better::Higher => (bm - nm) / bm.abs(),
        Better::Lower => (nm - bm) / bm.abs(),
    };
    if worse > d.bound {
        return Verdict::Regression;
    }
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|(&b, &n)| better(n, b)).count();
    let gain = pairs > 0 && wins * 10 >= pairs * 9 && (nm - bm).abs() > (b3 - b1);
    if gain {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `compare BASE... --vs NEW...`: print the table; `Ok(true)` when no
/// end-to-end metric regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--vs")
        .ok_or("usage: pipeline_bench compare BASE_RUN... --vs NEW_RUN...")?;
    let load = |paths: &[String]| -> Result<Vec<Run>, String> {
        let mut runs = Vec::new();
        for p in paths {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            runs.extend(parse_runs(&text).map_err(|e| format!("{p}: {e}"))?);
        }
        Ok(runs)
    };
    let (base, new) = (load(&args[..split])?, load(&args[split + 1..])?);
    if base.is_empty() || new.is_empty() {
        return Err("both sides need at least one run".into());
    }
    let (table, ok) = render(&base, &new);
    print!("{table}");
    Ok(ok)
}

/// Change of the median from `base` to `new`, in percent.
fn change_pct(base: &[f64], new: &[f64]) -> f64 {
    let (bm, nm) = (quartiles(base).1, quartiles(new).1);
    if bm == 0.0 {
        0.0
    } else {
        (nm - bm) / bm.abs() * 100.0
    }
}

/// The comparison table, and whether no end-to-end metric regressed.  The
/// verdict judges the host-corrected values; `raw` is the change of the
/// values as measured.
pub fn render(base: &[Run], new: &[Run]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<36} {:>28} {:>28} {:>8} {:>8}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "raw"
    );
    let mut ok = true;
    let workloads: std::collections::BTreeSet<&str> =
        base.iter().map(|r| r.workload.as_str()).collect();
    for w in workloads {
        let pick = |runs: &[Run], name: &str, raw: bool| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| if raw { &r.raw } else { &r.metrics }.get(name).copied())
                .collect()
        };
        let side = |runs: &[Run], name: &str| pick(runs, name, false);
        let names: std::collections::BTreeSet<&String> = base
            .iter()
            .filter(|r| r.workload == w)
            .flat_map(|r| r.metrics.keys())
            .collect();
        for name in names {
            let (b, n) = (side(base, name), side(new, name));
            let Some(d) = def(name) else { continue };
            if n.is_empty() {
                continue;
            }
            let verdict = judge(d, &b, &n);
            ok &= verdict != Verdict::Regression;
            let (b1, bm, b3) = quartiles(&b);
            let (n1, nm, n3) = quartiles(&n);
            let (braw, nraw) = (pick(base, name, true), pick(new, name, true));
            let raw = if braw.is_empty() || nraw.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}%", change_pct(&braw, &nraw))
            };
            out += &format!(
                "{w:<16} {name:<36} {:>28} {:>28} {:>7.1}% {raw:>8}  {}\n",
                format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
                format!("{nm:.4} [{n1:.4}, {n3:.4}]"),
                change_pct(&b, &n),
                verdict.label()
            );
        }
        let failed = |runs: &[Run]| {
            runs.iter()
                .filter(|r| r.workload == w)
                .map(|r| r.failed)
                .sum::<u64>()
        };
        let (bf, nf) = (failed(base), failed(new));
        out += &format!("{w:<16} {:<36} {bf:>28} {nf:>28}\n", "failed (sum)");
        ok &= nf <= bf;
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    fn throughput() -> &'static MetricDef {
        def("update_mops").unwrap()
    }

    fn latency() -> &'static MetricDef {
        def("commit_p50_us").unwrap()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_pair_rules() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        // Same distribution: unchanged.
        assert_eq!(judge(throughput(), &base, &base), Verdict::Unchanged);
        // Throughput down 30% (bound 20%): regression.
        let slow: Vec<f64> = base.iter().map(|x| x * 0.7).collect();
        assert_eq!(judge(throughput(), &base, &slow), Verdict::Regression);
        // Latency up 30% is a regression, down 30% an improvement.
        let up: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        assert_eq!(judge(latency(), &base, &up), Verdict::Regression);
        assert_eq!(judge(latency(), &base, &slow), Verdict::Improved);
        // 5% faster in every pair, beyond the base spread: improved.
        let fast: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(throughput(), &base, &fast), Verdict::Improved);
        // A side spread wider than the bound: unresolved...
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0,
        ];
        assert_eq!(judge(throughput(), &base, &noisy), Verdict::Unresolved);
        // ...unless every new run beats every base run.
        let noisy_fast: Vec<f64> = noisy.iter().map(|x| x + 200.0).collect();
        assert_eq!(judge(throughput(), &base, &noisy_fast), Verdict::Improved);
        // Per-layer metrics carry no bound.
        let layer = def("wal.fsync_share").unwrap();
        assert_eq!(judge(layer, &base, &slow), Verdict::Info);
    }

    /// The standard output of one run, as `main` prints it, on a host
    /// running `slowdown` times slower than nominal.
    fn output(workload: &'static str, update_mops: f64, slowdown: f64, failed: u64) -> String {
        let mut r = crate::metrics::Report {
            workload,
            failed,
            ..Default::default()
        };
        r.set("update_mops", update_mops);
        r.set("lookup.call_p50_us", 3.0);
        let summary = crate::harness::EpochSummary {
            ref_ms: slowdown * crate::harness::NOMINAL_REF_MS,
            reference_mb: 0.0,
            first_peak_mb: 100.0,
        };
        summary.report(&mut r);
        let mut out = r.human_lines().join("\n");
        out += &format!("\n{}\n", r.settings_line(1, 10.0, false));
        out + &r.result_line(false)
    }

    #[test]
    fn runs_parse_and_render() {
        let parse = |v: f64, slowdown: f64| {
            parse_runs(&output("read_bulk", v, slowdown, 0))
                .unwrap()
                .remove(0)
        };
        let nominal = |v| parse(v, 1.0);
        let base: Vec<Run> = [1.0, 1.01, 0.99].into_iter().map(nominal).collect();
        assert_eq!(base[0].workload, "read_bulk");
        assert_eq!(base[1].metrics["update_mops"], 1.01);
        assert_eq!(base[1].raw["update_mops"], 1.01);
        assert_eq!(base[1].metrics["lookup.call_p50_us"], 3.0);
        let (table, ok) = render(&base, &base);
        assert!(ok && table.contains("unchanged"));
        let slow: Vec<Run> = [0.5, 0.51, 0.49].into_iter().map(nominal).collect();
        let (table, ok) = render(&base, &slow);
        assert!(!ok && table.contains("REGRESSION"));
        // Half the raw speed on a host running at half speed: the verdict
        // follows the corrected values, and the raw change shows beside it.
        let slow_host: Vec<Run> = [0.5, 0.505, 0.495]
            .into_iter()
            .map(|v| parse(v, 2.0))
            .collect();
        assert_eq!(slow_host[0].metrics["update_mops"], 1.0);
        let (table, ok) = render(&base, &slow_host);
        let row = table.lines().find(|l| l.contains("update_mops")).unwrap();
        assert!(
            ok && row.contains("unchanged") && row.contains("-50.0%"),
            "{row}"
        );
    }

    #[test]
    fn one_output_of_several_workloads_gives_one_run_each() {
        let text =
            output("ingest_durable", 0.6, 1.0, 2) + "\n" + &output("mixed_zipf", 0.8, 1.0, 0);
        let runs = parse_runs(&text).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            (runs[0].workload.as_str(), runs[0].failed),
            ("ingest_durable", 2)
        );
        assert_eq!(runs[1].metrics["update_mops"], 0.8);
        assert!(parse_runs("no metrics here\n").is_err());
    }
}
