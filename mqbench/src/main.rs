//! mqbench: the MobiQuery reproduction's benchmark.
//!
//! ```text
//! mqbench --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--workload`, runs that workload in this process, prints every
//! metric with its unit, and ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics`. Without it, runs every workload, each in its own
//! child process, one after another. `--trace 1` reports the per-layer
//! metrics instead of the end-to-end ones and writes the spans to
//! `mqbench-out/`. `--smoke` shrinks every workload to a few seconds. See
//! README.md.

mod bench;
mod churn;
mod figures;
mod heap;
mod load;
mod service;
mod stats;
mod trace;

use bench::{Options, Report, Workload};
use mobiquery_repro::mobiquery::sim::FaultConfig;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = [
    "service_shared",
    "service_faults",
    "churn_100k",
    "figures_event",
];

/// The workload `name` at full or smoke size. At full size one pass takes
/// 8–13 s on one core; smoke sizes a fraction of a second. Both give every
/// pass at least 100 unit operations.
fn workload(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    let nodes = |full| if smoke { 1_000 } else { full };
    let faults = FaultConfig::new(0.2).with_burst(4.0).with_crash_rate(0.001);
    let (qps, max_lifetime) = if smoke { (5.0, 5) } else { (25.0, 60) };
    Some(match name {
        "service_shared" => Box::new(service::Service::new(
            "service_shared",
            nodes(100_000),
            qps,
            max_lifetime,
            None,
            seed,
        )),
        "service_faults" => Box::new(service::Service::new(
            "service_faults",
            nodes(20_000),
            qps,
            max_lifetime,
            Some(faults),
            seed,
        )),
        "churn_100k" => Box::new(churn::Churn {
            nodes: nodes(100_000),
            periods: 100,
            seed,
        }),
        "figures_event" => Box::new(if smoke {
            figures::Figures::new(seed, &[3.0, 9.0], 20.0)
        } else {
            figures::Figures::new(seed, &[3.0, 6.0, 9.0, 12.0, 15.0], 400.0)
        }),
        _ => return None,
    })
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: mqbench --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--smoke]";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("one of {}", WORKLOADS.join(", "))));
                }
                out.workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    out.seed = seed.ok_or("--seed is required")?;
    Ok(out)
}

fn run_one(name: &str, args: &Args, spans_out: Option<PathBuf>) -> Report {
    let w = workload(name, args.seed, args.smoke).expect("parse accepts only known workloads");
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        spans_out,
    };
    bench::run(w.as_ref(), &opts)
}

/// Runs every workload in its own child process, one at a time, so each
/// reports its own peak memory and none inherits another's heap.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("mqbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(raw)
            .args(["--workload", name])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("mqbench: {name} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("mqbench: cannot start {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.clone() else {
        return run_all(&raw);
    };
    let spans_out = args
        .trace
        .then(|| PathBuf::from(format!("mqbench-out/spans-{name}-seed{}.jsonl", args.seed)));
    let report = run_one(&name, &args, spans_out);
    print!("{}", report.render());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every metric listed under `section` in
    /// BENCHMARK.json. The file is flat enough to read by splitting on its
    /// objects.
    fn declared(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("field present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn smoke(name: &str, seed: u64, trace: bool) -> Report {
        let args = Args {
            workload: Some(name.to_string()),
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
        };
        run_one(name, &args, None)
    }

    fn assert_declared_metrics(report: &Report, section: &str) {
        let line = report.json();
        for (name, unit) in declared(section) {
            let m = report
                .metric(&name)
                .unwrap_or_else(|| panic!("{}: {name} not reported", report.workload));
            assert_eq!(m.unit, unit, "{}: unit of {name}", report.workload);
            assert!(
                m.value.is_finite(),
                "{}: {name} = {}",
                report.workload,
                m.value
            );
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert_eq!(report.metrics.len(), declared(section).len());
    }

    #[test]
    fn smoke_runs_report_every_declared_metric_and_repeat_their_digest() {
        for name in WORKLOADS {
            let first = smoke(name, 3, false);
            assert_eq!(first.op_failure_ratio(), 0.0, "{:?}", first.errors);
            assert!(first.correct() && first.attempted > 0);
            assert_declared_metrics(&first, "end_to_end");
            for m in &first.metrics {
                assert!(m.value > 0.0, "{name}: end-to-end {} is 0", m.name);
            }
            assert!(first.render().contains("; p90 "));
            let second = smoke(name, 3, false);
            assert_eq!(first.digest, second.digest, "{name}: digest differs");
            let other = smoke(name, 4, false);
            assert_ne!(first.digest, other.digest, "{name}: seed ignored");
        }
    }

    #[test]
    fn traced_smoke_runs_report_every_per_layer_metric() {
        for name in WORKLOADS {
            let report = smoke(name, 3, true);
            assert_eq!(report.op_failure_ratio(), 0.0, "{:?}", report.errors);
            assert!(report.traced_passes >= 1 && report.passes > report.traced_passes);
            assert_declared_metrics(&report, "per_layer");
            assert!(!report.layer_table.is_empty());
        }
    }

    #[test]
    fn the_json_line_has_exactly_the_result_keys() {
        let report = smoke("churn_100k", 5, false);
        let line = report.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains(", \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
        assert!(line.ends_with("}}}"));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let parsed = parse(&args(
            "--workload churn_100k --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("churn_100k"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3.0, true));
        assert!(parse(&args("--seed 1 --smoke")).unwrap().smoke);
        assert!(parse(&args("--workload nope --seed 1")).is_err());
        assert!(parse(&args("--seconds 3")).is_err(), "seed is required");
        assert!(parse(&args("--seed 1 --trace 2")).is_err());
        assert!(parse(&args("--seed 1 --seconds -1")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--seed 1 --jobs 4")).is_err());
    }
}
