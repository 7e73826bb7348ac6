//! `pipeline_bench` — end-to-end benchmark of the admitted GPU LSM service,
//! with a traced per-layer breakdown.
//!
//! ```text
//! pipeline_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//! pipeline_bench compare BASE_RUN... --vs NEW_RUN...
//! ```
//!
//! A run prints one line per metric, a JSON settings line, and as its last
//! line a JSON result with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`).  See README.md next to this crate.

mod compare;
mod countvfs;
mod gen;
mod harness;
mod metrics;
mod model;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use trace::Tracer;
use workloads::{Ctx, Scale, WORKLOADS};

const USAGE: &str = "usage: pipeline_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]\n       pipeline_bench compare BASE_RUN... --vs NEW_RUN...";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workloads = match WORKLOADS.iter().find(|&&w| w == v) {
                    Some(&w) => vec![w],
                    None if v == "all" => WORKLOADS.to_vec(),
                    None => {
                        return Err(format!(
                            "unknown workload {v:?}; expected one of {WORKLOADS:?} or all"
                        ))
                    }
                };
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// The benchmark sets every knob explicitly; an `LSM_*` variable would
/// silently change what is measured through the library's fallbacks.
fn lsm_env_vars() -> Vec<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("LSM_"))
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = lsm_env_vars();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: the benchmark configures every knob itself",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let work_dir = PathBuf::from(".pipeline_bench_work").join(std::process::id().to_string());
    let outcome = run(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".pipeline_bench_work");
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run the selected workloads; `Ok(false)` when any answer was wrong.
fn run(args: &Args, work_dir: &std::path::Path) -> Result<bool, String> {
    let mut correct = true;
    for (i, &workload) in args.workloads.iter().enumerate() {
        if i > 0 {
            metrics::reset_peak_rss();
        }
        let tracer = Arc::new(Tracer::new(args.trace));
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            tracer: Arc::clone(&tracer),
            scale: Scale::full(),
            work_dir: work_dir.to_path_buf(),
        };
        let report = workloads::run(workload, &ctx)?;
        let table = if args.trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        let missing: Vec<&str> = table
            .iter()
            .filter(|d| !report.values.contains_key(d.name))
            .map(|d| d.name)
            .collect();
        if !missing.is_empty() {
            return Err(format!("{workload} did not measure {}", missing.join(", ")));
        }
        if let Some(path) = &args.trace_out {
            let path = if args.workloads.len() > 1 {
                path.with_extension(format!("{workload}.jsonl"))
            } else {
                path.clone()
            };
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        for line in report.human_lines() {
            println!("{line}");
        }
        println!(
            "{}",
            report.settings_line(args.seed, args.seconds, args.trace)
        );
        println!("{}", report.result_line(args.trace));
        correct &= report.failed == 0;
    }
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "read_bulk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads, vec!["read_bulk"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(parse_args(&[]).unwrap().workloads, WORKLOADS.to_vec());
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    /// BENCHMARK.json at the repository root (one `"key": value` per line)
    /// lists the workloads in run order and exactly the metrics this binary
    /// reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let field = |key: &str| -> Vec<String> {
            let prefix = format!("\"{key}\": ");
            text.lines()
                .filter_map(|l| l.trim().strip_prefix(prefix.as_str()))
                .map(|v| v.trim_end_matches(',').trim_matches('"').to_string())
                .collect()
        };
        let metrics = || END_TO_END.iter().chain(PER_LAYER);
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(metrics().map(|d| d.name))
            .collect();
        assert_eq!(field("name"), names);
        let units: Vec<&str> = metrics().map(|d| d.unit).collect();
        assert_eq!(field("unit"), units);
        let better: Vec<&str> = metrics().map(|d| d.better.as_str()).collect();
        assert_eq!(field("better"), better);
        let bounds: Vec<f64> = field("bound").iter().map(|b| b.parse().unwrap()).collect();
        let expected: Vec<f64> = END_TO_END.iter().map(|d| d.bound).collect();
        assert_eq!(bounds, expected);
    }

    fn smoke(workload: &str, trace: bool) {
        let work_dir = std::env::temp_dir().join(format!(
            "pipeline_bench_test_{}_{workload}_{trace}",
            std::process::id()
        ));
        let ctx = Ctx {
            seed: 3,
            seconds: 0.05,
            tracer: Arc::new(Tracer::new(trace)),
            scale: Scale::tiny(),
            work_dir: work_dir.clone(),
        };
        let report = workloads::run(workload, &ctx).unwrap();
        let _ = std::fs::remove_dir_all(&work_dir);
        assert_eq!(report.failed, 0, "{workload}: {:?}", report.values);
        assert!(report.attempted > 0);
        let table = if trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        for d in table {
            assert!(
                report.values.contains_key(d.name),
                "{workload} lacks {}",
                d.name
            );
        }
        for d in metrics::END_TO_END {
            assert!(
                report.values[d.name] > 0.0,
                "{workload}: {} is {}",
                d.name,
                report.values[d.name]
            );
        }
    }

    #[test]
    fn smoke_ingest_durable() {
        smoke("ingest_durable", false);
        smoke("ingest_durable", true);
    }

    #[test]
    fn smoke_read_bulk() {
        smoke("read_bulk", true);
    }

    #[test]
    fn smoke_mixed_zipf() {
        smoke("mixed_zipf", true);
    }
}
