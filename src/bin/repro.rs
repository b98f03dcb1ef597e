//! `repro` — regenerate the MobiQuery paper's figures and analytical tables.
//!
//! ```text
//! repro [options] <fig4|fig5|fig6|fig7|fig8|analysis|all>
//! ```
//!
//! Full mode uses the paper's settings (200 nodes, 450 m field, 400–500 s
//! runs); `--quick` runs a scaled-down variant that preserves the qualitative
//! comparisons and finishes in seconds. Trials fan out across worker threads
//! (`--jobs`); per-trial seeds are derived from the plan coordinates, so the
//! output is byte-identical whatever the job count — CI diffs `--jobs 1`
//! against `--jobs 4` to enforce exactly that.

// The bench document's `steady_allocs_per_period` needs a counting global
// allocator, and `GlobalAlloc` is an unsafe trait; this binary is its own
// crate root, so the allow is scoped to exactly this file.
#![allow(unsafe_code)]

use mobiquery::config::Scheme;
use mobiquery::sim::{FaultConfig, TreeSharing};
use mobiquery_experiments::runner::trial_seed;
use mobiquery_experiments::{
    analysis_tables, churn, fig4, fig5, fig6, fig7, fig8, multiuser, resilience, scale,
    ExperimentConfig,
};
use mobiquery_service::load::run_load;
use mobiquery_service::serve::run_serve;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wsn_metrics::JsonValue;
use wsn_sim::pool;

const USAGE: &str = "usage: repro [options] <fig4|fig5|fig6|fig7|fig8|analysis|multiuser|all>
       repro [options] --churn-rate R churn
       repro [options] --fault-loss R [--fault-burst L] resilience
       repro serve --periods N [service options]
       repro load --qps Q --duration N [service options]

Regenerates the MobiQuery paper's evaluation figures as tables/series, runs
the node-churn sweep (`churn`), the fault-injection resilience sweep
(`resilience`), or the long-lived query service (`serve`/`load`, see
`repro serve --help`).

Options:
  --quick            use the scaled-down scenario (fast, same qualitative shape)
  --runs N           topologies averaged per data point (default 3 full / 1 quick)
  --jobs N           worker threads for the trial fan-out (default: all cores);
                     results are byte-identical for every N
  --users N          largest fleet of the multiuser sweep (default 8 quick /
                     64 full); the sweep ladders up to N in powers of two, the
                     bench multiuser ladder is capped at N, and every trial
                     cross-checks shared flood trees against the naive
                     one-tree-per-user reference
  --churn-rate R     fraction of alive nodes killed (and replaced by joins) at
                     every period boundary, 0 < R < 1; required by the `churn`
                     target. Every trial repairs the backbone incrementally
                     and asserts the result is identical to a full priority
                     re-election; deployments up to 200000 nodes additionally
                     cross-check every single batch
  --fault-loss R     stationary per-node link-loss probability, 0 <= R < 1;
                     required by the `resilience` target, which sweeps the
                     ladder R/4, R/2, R with protocol recovery on and off on
                     identical seeded fault schedules
  --fault-burst L    mean bad-state dwell of the Gilbert-Elliott loss chain,
                     in query periods (L >= 1, default 4)
  --format FMT       output format: text (default) or json
  --out PATH         write the output to PATH instead of stdout
  --bench PATH       time every requested target serial (--jobs 1) vs parallel,
                     verify both give identical results, and write the timings
                     as JSON to PATH (the BENCH_repro.json trajectory format);
                     not combinable with --out/--format
  --scale N1,N2,...  with --bench: also sweep deployment sizes (e.g.
                     1000,2000,5000,10000,20000 at constant density), timing a
                     full run of both schemes per size (setup, split into its
                     phases, and the event loop), recorded in the bench
                     document's \"scale\" section; the largest size
                     also hosts the shared-vs-naive multi-user tree sweep in
                     the \"multiuser\" section and the incremental-repair
                     \"churn\" section. With the `churn` target: the deployment
                     sizes to churn (default 20000, quick 5000). With the
                     `resilience` target: the deployment sizes to fault
                     (default 10000, quick 2000)
  -h, --help         print this help and exit";

const SERVICE_USAGE: &str = "usage: repro serve --periods N [service options]
       repro load --qps Q --duration N [service options]

Runs the long-lived query service on one deployment.

`serve` submits a single resident query and streams its per-period results;
`load` drives the service with a deterministic open-loop arrival schedule
(exponential inter-arrivals, seed-derived) and reports per-query success and
p50/p99 first-result latency in periods. Both resolve one period boundary at
a time on the calling thread and emit deterministic JSON: the bytes are stable
for a fixed seed, from run to run and process to process.

Service options:
  --periods N        (serve) periods to serve, at the scenario's query period
  --qps Q            (load) offered load, queries per second (> 0)
  --duration N       (load) service horizon in periods
  --nodes N          deployment size, scaled at constant density (default:
                     the quick/full base scenario, e.g. --nodes 1000)
  --naive            one tree per query instead of shared flood trees
  --quick            use the quick base scenario and seed
  --fault-loss R     serve/load under a seeded fault schedule with stationary
                     per-node link loss R, 0 <= R < 1 (0 = no faults); the
                     report gains nonzero retry/deadline-miss/degraded counts
  --fault-burst L    mean bad-state dwell of the loss chain in periods
                     (L >= 1, default 4); needs --fault-loss
  --no-recovery      disarm install retries and tree repair under faults
                     (the degradation baseline); needs --fault-loss
  --out PATH         write the JSON to PATH instead of stdout
  -h, --help         print this help and exit";

const ALL_TARGETS: [&str; 7] = [
    "analysis",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "multiuser",
];

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

/// Parameters of the `churn` target: the deployment sizes to churn and the
/// per-boundary death/join rate.
struct ChurnSpec {
    scales: Vec<usize>,
    rate: f64,
}

/// Parameters of the `resilience` target: the deployment sizes to fault and
/// the fault profile whose loss tops the swept ladder.
struct FaultSpec {
    scales: Vec<usize>,
    config: FaultConfig,
}

/// Churn rates of the `--bench` churn section: low enough that incremental
/// repair must beat full re-election, plus heavier rates that trace where
/// the advantage erodes. Fixed so the committed trajectory stays comparable
/// across bench invocations.
const BENCH_CHURN_RATES: [f64; 3] = [0.001, 0.01, 0.05];

/// Fleet size of the bench churn section (small and fixed: the section
/// measures repair, not the multi-user economics the multiuser section owns).
const BENCH_CHURN_USERS: usize = 4;

/// Loss ladder of the `--bench` resilience section. Fixed so the committed
/// trajectory stays comparable across bench invocations; `check_bench.py`
/// requires recovery-on to beat recovery-off at every one of these rates.
const BENCH_FAULT_LOSSES: [f64; 4] = [0.05, 0.1, 0.2, 0.4];

/// Deployment size of the bench resilience section — fixed and independent
/// of `--scale`, like the reference service load, so the committed
/// degradation curve stays comparable across bench invocations.
const BENCH_FAULT_NODES: usize = 1000;

/// Fleet size of the bench resilience section.
const BENCH_FAULT_USERS: usize = 4;

/// Counts heap allocations so the bench document can prove the stepped
/// engine's warm loop is allocation-free (the `steady_allocs_per_period`
/// field, asserted `== 0` by `scripts/check_bench.py`). Counting is a single
/// relaxed atomic increment over the system allocator — noise-level overhead
/// for every other mode of the binary.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter increment,
// which cannot affect allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per warm period boundary of the steady-state probe
/// ([`mobiquery_repro::steady`]): steps every measurable warm boundary and
/// returns the *maximum* per-boundary allocation count — the number the
/// committed trajectory pins at exactly zero.
fn steady_allocs_per_period() -> u64 {
    let mut sim = mobiquery_repro::steady::warmed_sim(24, 4, 11);
    let mut worst = 0u64;
    while sim.next_boundary() + 2 <= sim.max_k() {
        let before = ALLOCS.load(Ordering::Relaxed);
        sim.step_period()
            .expect("the steady probe steps cleanly by construction");
        worst = worst.max(ALLOCS.load(Ordering::Relaxed) - before);
    }
    sim.run_to_end()
        .expect("the steady probe steps cleanly by construction");
    let out = sim.finish();
    assert!(
        out.logs.iter().all(|log| log.len() == 24),
        "the steady probe must resolve every period"
    );
    worst
}

fn bad_usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn bad_service_usage() -> ExitCode {
    eprintln!("{SERVICE_USAGE}");
    ExitCode::FAILURE
}

/// The `repro serve` / `repro load` subcommands.
fn service_main(kind: &str, mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut periods: Option<u64> = None;
    let mut qps: Option<f64> = None;
    let mut duration: Option<u64> = None;
    let mut nodes: Option<usize> = None;
    let mut sharing = TreeSharing::Shared;
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut fault_loss: Option<f64> = None;
    let mut fault_burst: Option<f64> = None;
    let mut no_recovery = false;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--periods" if kind == "serve" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => periods = Some(n),
                _ => return bad_service_usage(),
            },
            "--qps" if kind == "load" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(q) if q.is_finite() && q > 0.0 => qps = Some(q),
                _ => return bad_service_usage(),
            },
            "--duration" if kind == "load" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => duration = Some(n),
                _ => return bad_service_usage(),
            },
            "--nodes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => nodes = Some(n),
                _ => return bad_service_usage(),
            },
            "--naive" => sharing = TreeSharing::Naive,
            "--quick" => quick = true,
            "--fault-loss" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r.is_finite() && (0.0..1.0).contains(&r) => fault_loss = Some(r),
                _ => return bad_service_usage(),
            },
            "--fault-burst" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(l) if l.is_finite() && l >= 1.0 => fault_burst = Some(l),
                _ => return bad_service_usage(),
            },
            "--no-recovery" => no_recovery = true,
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => return bad_service_usage(),
            },
            "--help" | "-h" => {
                println!("{SERVICE_USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("repro {kind}: unexpected argument {other}\n");
                return bad_service_usage();
            }
        }
    }

    if (fault_burst.is_some() || no_recovery) && fault_loss.is_none() {
        eprintln!("repro {kind}: --fault-burst/--no-recovery need --fault-loss\n");
        return bad_service_usage();
    }
    let fault = fault_loss.map(|loss| {
        let mut config = FaultConfig::new(loss).with_recovery(!no_recovery);
        if let Some(burst) = fault_burst {
            config = config.with_burst(burst);
        }
        config
    });

    let config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    };
    let scenario = match nodes {
        Some(n) => scale::scale_scenario(n, Scheme::JustInTime, config.base_seed),
        None => config.base_scenario(),
    };
    let body = match kind {
        "serve" => {
            let Some(periods) = periods else {
                eprintln!("repro serve: --periods is required\n");
                return bad_service_usage();
            };
            match run_serve(scenario, periods, sharing, fault) {
                Ok(report) => report.to_json(),
                Err(e) => {
                    eprintln!("repro serve: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => {
            let (Some(qps), Some(duration)) = (qps, duration) else {
                eprintln!("repro load: --qps and --duration are required\n");
                return bad_service_usage();
            };
            match run_load(scenario, qps, duration, sharing, fault) {
                Ok(outcome) => outcome.report.to_json(),
                Err(e) => {
                    eprintln!("repro load: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let doc = JsonValue::object()
        .with("schema", "mobiquery-repro/service/v1")
        .with("mode", if quick { "quick" } else { "full" })
        .with("base_seed", config.base_seed)
        .with(kind, body);
    emit(&doc.to_pretty_string(), out_path.as_deref())
}

/// Renders one target as display text.
fn target_text(
    name: &str,
    config: &ExperimentConfig,
    churn_spec: Option<&ChurnSpec>,
    fault_spec: Option<&FaultSpec>,
) -> Option<String> {
    let out = match name {
        "churn" => {
            let spec = churn_spec?;
            format!("{}\n", churn::run(config, &spec.scales, spec.rate))
        }
        "resilience" => {
            let spec = fault_spec?;
            format!("{}\n", resilience::run(config, &spec.scales, spec.config))
        }
        "fig4" => format!("{}\n", fig4::run(config)),
        "fig5" => {
            let out = fig5::run(config);
            format!(
                "{}\n{}\nsteady-state mean fidelity: MQ-JIT {:.3}, MQ-GP {:.3}\n",
                out.jit,
                out.greedy,
                out.jit_steady_state_mean(10),
                out.greedy_steady_state_mean(10)
            )
        }
        "fig6" => format!("{}\n", fig6::run(config)),
        "fig7" => format!("{}\n", fig7::run(config)),
        "fig8" => format!("{}\n", fig8::run(config)),
        "multiuser" => format!("{}\n", multiuser::run(config)),
        "analysis" => {
            let mut s = String::new();
            for table in analysis_tables::run() {
                s.push_str(&format!("{table}\n"));
            }
            s
        }
        _ => return None,
    };
    Some(out)
}

/// Renders one target as a JSON value.
fn target_json(
    name: &str,
    config: &ExperimentConfig,
    churn_spec: Option<&ChurnSpec>,
    fault_spec: Option<&FaultSpec>,
) -> Option<JsonValue> {
    let out = match name {
        "churn" => {
            let spec = churn_spec?;
            churn::run_json(config, &spec.scales, spec.rate)
        }
        "resilience" => {
            let spec = fault_spec?;
            resilience::run_json(config, &spec.scales, spec.config)
        }
        "fig4" => fig4::run_json(config),
        "fig5" => fig5::run_json(config),
        "fig6" => fig6::run_json(config),
        "fig7" => fig7::run_json(config),
        "fig8" => fig8::run_json(config),
        "multiuser" => multiuser::run_json(config),
        "analysis" => analysis_tables::run_json(),
        _ => return None,
    };
    Some(out)
}

/// The `--format json` document for a list of targets. Deliberately excludes
/// the job count and any timing: the bytes must be identical for every
/// `--jobs N`.
fn results_json(
    targets: &[String],
    config: &ExperimentConfig,
    churn_spec: Option<&ChurnSpec>,
    fault_spec: Option<&FaultSpec>,
) -> Option<JsonValue> {
    let mut results = JsonValue::object();
    for target in targets {
        results = results.with(
            target.as_str(),
            target_json(target, config, churn_spec, fault_spec)?,
        );
    }
    Some(
        JsonValue::object()
            .with("schema", "mobiquery-repro/results/v1")
            .with("mode", if config.quick { "quick" } else { "full" })
            .with("runs", config.runs)
            .with("base_seed", config.base_seed)
            .with("results", results),
    )
}

/// The `--bench` document: per-target wall-clock, serial vs parallel, plus a
/// determinism cross-check that both job counts produced identical results,
/// and (when `--scale` is given) the deployment-size sweep.
fn bench_json(
    targets: &[String],
    config: &ExperimentConfig,
    scales: &[usize],
    churn_spec: Option<&ChurnSpec>,
    fault_spec: Option<&FaultSpec>,
) -> Option<JsonValue> {
    let mut figures = Vec::new();
    for target in targets {
        let serial_config = config.with_jobs(1);
        let start = Instant::now();
        let serial = target_json(target, &serial_config, churn_spec, fault_spec)?;
        let serial_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let parallel = target_json(target, config, churn_spec, fault_spec)?;
        let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            serial, parallel,
            "{target}: --jobs 1 and --jobs {} disagree",
            config.jobs
        );
        eprintln!(
            "bench {target}: serial {serial_ms:.0} ms, parallel {parallel_ms:.0} ms \
             ({:.2}x, {} jobs)",
            serial_ms / parallel_ms.max(1e-9),
            config.jobs
        );
        figures.push(
            JsonValue::object()
                .with("name", target.as_str())
                .with("serial_ms", round_ms(serial_ms))
                .with("parallel_ms", round_ms(parallel_ms))
                .with("speedup", round_ms(serial_ms / parallel_ms.max(1e-9))),
        );
    }
    let scale = if scales.is_empty() {
        JsonValue::Array(Vec::new())
    } else {
        scale::run(scales, config.base_seed)
    };
    // The shared-vs-naive tree sweep rides on the largest requested scale:
    // that is where the one-tree-per-user baseline hurts most and where the
    // committed trajectory must show trees_built(shared) < trees_built(naive).
    let multiuser = match scales.iter().max() {
        None => JsonValue::Array(Vec::new()),
        Some(&nodes) => {
            // `--users` is the documented fleet ceiling: drop the ladder's
            // fixed rungs above it instead of silently simulating a fleet
            // the user asked not to pay for.
            let mut ladder: Vec<usize> = [1, 10, 100, config.users]
                .into_iter()
                .filter(|&u| u >= 1 && u <= config.users)
                .collect();
            ladder.sort_unstable();
            ladder.dedup();
            let base_seed = config.base_seed;
            multiuser::bench_sweep(
                |point| {
                    scale::scale_scenario(
                        nodes,
                        mobiquery::config::Scheme::JustInTime,
                        trial_seed(base_seed, point as usize, 0),
                    )
                },
                &ladder,
            )
        }
    };
    // The incremental-repair section rides on the largest requested scale
    // too: that is where full re-election hurts most and where the committed
    // trajectory must show mean_repair_ms ≪ full_ccp_ms at low rates.
    let churn_section = match scales.iter().max() {
        None => JsonValue::Array(Vec::new()),
        Some(&nodes) => churn::bench_sweep(
            nodes,
            &BENCH_CHURN_RATES,
            BENCH_CHURN_USERS,
            config.base_seed,
        ),
    };
    // The zero-alloc proof is a scale-independent fixture.
    let steady_allocs = steady_allocs_per_period();
    eprintln!("steady state: {steady_allocs} allocations per warm period");
    // The fixed reference load of the bench trajectory: 4 queries/s for 40
    // periods against a 1000-node deployment, through the stepped service
    // engine. Scale-independent of --scale so the committed numbers stay
    // comparable across bench invocations.
    let service = {
        let scenario = scale::scale_scenario(1000, Scheme::JustInTime, config.base_seed);
        run_load(scenario, 4.0, 40, TreeSharing::Shared, None)
            .expect("the reference service load must run")
            .report
            .to_json()
    };
    // The resilience degradation curve: a fixed 1000-node deployment under
    // the fixed loss ladder, recovery on vs off on identical schedules.
    // `check_bench.py` holds recovery-on to strictly higher mean delivery at
    // every nonzero loss — the whole point of the retry/repair machinery.
    let resilience_section = resilience::bench_sweep(
        BENCH_FAULT_NODES,
        &BENCH_FAULT_LOSSES,
        BENCH_FAULT_USERS,
        config.base_seed,
    );
    Some(
        JsonValue::object()
            .with("schema", "mobiquery-repro/bench/v10")
            .with("mode", if config.quick { "quick" } else { "full" })
            .with("runs", config.runs)
            .with("users", config.users)
            // Per-figure speedup numbers are only interpretable relative to
            // the host: on a 1-core container the parallel path is pure
            // overhead and speedup < 1 is expected.
            .with("host_cores", pool::available_jobs())
            .with("parallel_jobs", config.jobs)
            .with("figures", figures)
            .with("steady_allocs_per_period", steady_allocs)
            .with("scale", scale)
            .with("multiuser", multiuser)
            .with("churn", churn_section)
            .with("service", service)
            .with("resilience", resilience_section),
    )
}

fn round_ms(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn emit(content: &str, out_path: Option<&str>) -> ExitCode {
    match out_path {
        None => {
            print!("{content}");
            ExitCode::SUCCESS
        }
        Some(path) => {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("repro: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut runs: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut users: Option<usize> = None;
    let mut format: Option<Format> = None;
    let mut out_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut scales: Vec<usize> = Vec::new();
    let mut churn_rate: Option<f64> = None;
    let mut fault_loss: Option<f64> = None;
    let mut fault_burst: Option<f64> = None;
    let mut targets: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    // `serve` / `load` are subcommands with their own option set.
    if let Some(kind) = args.peek().filter(|a| a == &"serve" || a == &"load") {
        let kind = kind.clone();
        args.next();
        return service_main(&kind, args);
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--runs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => runs = Some(n),
                None => return bad_usage(),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => return bad_usage(),
            },
            "--users" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => users = Some(n),
                _ => return bad_usage(),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Some(Format::Text),
                Some("json") => format = Some(Format::Json),
                _ => return bad_usage(),
            },
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => return bad_usage(),
            },
            "--bench" => match args.next() {
                Some(path) => bench_path = Some(path),
                None => return bad_usage(),
            },
            "--churn-rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r.is_finite() && r > 0.0 && r < 1.0 => churn_rate = Some(r),
                _ => return bad_usage(),
            },
            "--fault-loss" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r.is_finite() && (0.0..1.0).contains(&r) => fault_loss = Some(r),
                _ => return bad_usage(),
            },
            "--fault-burst" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(l) if l.is_finite() && l >= 1.0 => fault_burst = Some(l),
                _ => return bad_usage(),
            },
            "--scale" => {
                let parsed: Option<Vec<usize>> = args
                    .next()
                    .map(|list| {
                        list.split(',')
                            .map(|n| n.trim().parse::<usize>().ok().filter(|&n| n > 0))
                            .collect()
                    })
                    .unwrap_or(None);
                match parsed {
                    Some(list) if !list.is_empty() => scales = list,
                    _ => return bad_usage(),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("repro: unknown option {other}\n");
                return bad_usage();
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        return bad_usage();
    }

    let mut config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    };
    if let Some(n) = runs {
        config.runs = n.max(1);
    }
    config = config.with_jobs(jobs.unwrap_or_else(pool::available_jobs));
    if let Some(n) = users {
        config = config.with_users(n);
    }

    // `all` deliberately excludes `churn` and `resilience`: the figures
    // reproduce the paper's static evaluation; churn and fault injection are
    // explicit opt-ins with their own required rate parameters.
    let expanded: Vec<String> = if targets.iter().any(|t| t == "all") {
        ALL_TARGETS.iter().map(|s| s.to_string()).collect()
    } else {
        targets
    };
    if let Some(bad) = expanded.iter().find(|t| {
        !ALL_TARGETS.contains(&t.as_str()) && t.as_str() != "churn" && t.as_str() != "resilience"
    }) {
        eprintln!("repro: unknown target {bad}\n");
        return bad_usage();
    }
    let churn_requested = expanded.iter().any(|t| t == "churn");
    if churn_requested && churn_rate.is_none() {
        eprintln!("repro: the churn target requires --churn-rate\n");
        return bad_usage();
    }
    let resilience_requested = expanded.iter().any(|t| t == "resilience");
    if resilience_requested && fault_loss.is_none() {
        eprintln!("repro: the resilience target requires --fault-loss\n");
        return bad_usage();
    }
    if fault_burst.is_some() && fault_loss.is_none() {
        eprintln!("repro: --fault-burst needs --fault-loss\n");
        return bad_usage();
    }
    let churn_spec = churn_rate.map(|rate| ChurnSpec {
        scales: if scales.is_empty() {
            vec![if quick { 5_000 } else { 20_000 }]
        } else {
            scales.clone()
        },
        rate,
    });
    let fault_spec = fault_loss.map(|loss| {
        let mut config = FaultConfig::new(loss);
        if let Some(burst) = fault_burst {
            config = config.with_burst(burst);
        }
        FaultSpec {
            scales: if scales.is_empty() {
                vec![if quick { 2_000 } else { 10_000 }]
            } else {
                scales.clone()
            },
            config,
        }
    });

    if let Some(path) = bench_path {
        // --bench is its own output mode: it writes the timing document to
        // its PATH and nothing else, so combining it with --out/--format
        // would silently drop those — reject instead.
        if out_path.is_some() || format.is_some() {
            eprintln!("repro: --bench cannot be combined with --out or --format\n");
            return bad_usage();
        }
        let Some(doc) = bench_json(
            &expanded,
            &config,
            &scales,
            churn_spec.as_ref(),
            fault_spec.as_ref(),
        ) else {
            return bad_usage();
        };
        return emit(&doc.to_pretty_string(), Some(&path));
    }
    if !scales.is_empty() && !churn_requested && !resilience_requested {
        eprintln!(
            "repro: --scale requires --bench, the churn target or the resilience target \
             (the sweep lands in the bench document)\n"
        );
        return bad_usage();
    }

    let content = match format.unwrap_or(Format::Text) {
        Format::Json => {
            match results_json(&expanded, &config, churn_spec.as_ref(), fault_spec.as_ref()) {
                Some(doc) => doc.to_pretty_string(),
                None => return bad_usage(),
            }
        }
        Format::Text => {
            let mut s = String::new();
            for target in &expanded {
                match target_text(target, &config, churn_spec.as_ref(), fault_spec.as_ref()) {
                    Some(text) => s.push_str(&text),
                    None => return bad_usage(),
                }
            }
            s
        }
    };
    emit(&content, out_path.as_deref())
}
