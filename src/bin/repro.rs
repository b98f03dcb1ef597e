//! `repro` — regenerate the MobiQuery paper's figures and analytical tables,
//! run the churn and fault-injection sweeps, or run the query service.
//!
//! ```text
//! repro [options] <fig4|fig5|fig6|fig7|fig8|analysis|multiuser|churn|resilience|all>
//! repro <serve|load> [service options]
//! ```
//!
//! One parser reads every mode's options, and one table (`TARGETS`) names
//! every batch target with its run function; each run returns the target's
//! text and JSON renderings of one computation.
//!
//! Full mode uses the paper's settings (200 nodes, 450 m field, 400–500 s
//! runs); `--quick` runs a scaled-down variant that preserves the qualitative
//! comparisons and finishes in seconds. Every target runs its trials in plan
//! order on the calling thread; per-trial seeds are derived from the plan
//! coordinates, so the output is a pure function of the options.

use mobiquery::config::Scheme;
use mobiquery::sim::{ChurnConfig, FaultConfig, TreeSharing};
use mobiquery_experiments::{
    analysis_tables, best_of, churn, fig4, fig5, fig6, fig7, fig8, multiuser, resilience, round2,
    scale, ExperimentConfig, Report,
};
use mobiquery_service::load::run_load;
use mobiquery_service::serve::run_serve;
use std::process::ExitCode;
use std::str::FromStr;
use wsn_metrics::JsonValue;

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
  --bench PATH       time every requested target once and write the timings
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

/// Every batch target, once. `all` stands for those with `in_all`, in table
/// order: the figures and tables that reproduce the paper's static
/// evaluation. Churn and fault injection are explicit opt-ins with their own
/// required rate.
const TARGETS: [Target; 9] = [
    Target::in_all("analysis", |_, _| analysis_tables::run()),
    Target::in_all("fig4", |config, _| fig4::run(config)),
    Target::in_all("fig5", |config, _| fig5::run(config)),
    Target::in_all("fig6", |config, _| fig6::run(config)),
    Target::in_all("fig7", |config, _| fig7::run(config)),
    Target::in_all("fig8", |config, _| fig8::run(config)),
    Target::in_all("multiuser", |config, _| multiuser::run(config)),
    Target::opt_in("churn", "--churn-rate", |config, cli| {
        let churn = cli.churn.expect("the churn target requires --churn-rate");
        churn::run(config, &cli.scales_or(5_000, 20_000), churn.rate)
    }),
    Target::opt_in("resilience", "--fault-loss", |config, cli| {
        let fault = cli
            .fault
            .expect("the resilience target requires --fault-loss");
        resilience::run(config, &cli.scales_or(2_000, 10_000), fault)
    }),
];

/// One row of [`TARGETS`].
struct Target {
    name: &'static str,
    /// Whether `all` runs the target.
    in_all: bool,
    /// The rate option the target cannot run without. These targets are the
    /// deployment-size sweeps, the only ones `--scale` sizes outside
    /// `--bench`.
    requires: Option<&'static str>,
    run: RunTarget,
}

/// Runs a target under a configuration and the parsed options.
type RunTarget = fn(&ExperimentConfig, &Cli) -> Report;

impl Target {
    /// A target that `all` runs and that needs no option of its own.
    const fn in_all(name: &'static str, run: RunTarget) -> Self {
        Target {
            name,
            in_all: true,
            requires: None,
            run,
        }
    }

    /// A target that runs only when named, and only with the option `flag`.
    const fn opt_in(name: &'static str, flag: &'static str, run: RunTarget) -> Self {
        Target {
            name,
            in_all: false,
            requires: Some(flag),
            run,
        }
    }
}

/// `repro`'s modes: the batch targets, or one of the service subcommands.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Batch,
    Serve,
    Load,
}

impl Mode {
    /// The name error messages start with.
    fn prog(self) -> &'static str {
        match self {
            Mode::Batch => "repro",
            Mode::Serve => "repro serve",
            Mode::Load => "repro load",
        }
    }

    /// What `--help` prints and every usage error ends with.
    fn usage(self) -> &'static str {
        match self {
            Mode::Batch => USAGE,
            Mode::Serve | Mode::Load => SERVICE_USAGE,
        }
    }
}

/// Every mode's options, parsed and checked; each mode leaves the options it
/// does not take at their defaults.
#[derive(Default)]
struct Cli {
    /// `--quick`, `--runs` and `--users` applied to the quick or full
    /// configuration.
    config: ExperimentConfig,
    out: Option<String>,
    /// `--fault-loss`, `--fault-burst` and `--no-recovery`, validated.
    fault: Option<FaultConfig>,
    format: Option<String>,
    bench: Option<String>,
    scales: Vec<usize>,
    /// `--churn-rate`, validated.
    churn: Option<ChurnConfig>,
    targets: Vec<String>,
    periods: Option<u64>,
    qps: Option<f64>,
    duration: Option<u64>,
    nodes: Option<usize>,
}

impl Cli {
    /// Whether the rate option `flag`, which some target requires, was given.
    fn has(&self, flag: &str) -> bool {
        match flag {
            "--churn-rate" => self.churn.is_some(),
            "--fault-loss" => self.fault.is_some(),
            _ => unreachable!("no target requires {flag}"),
        }
    }

    /// The `--scale` deployment sizes, or the sweep's default size for the
    /// quick or full configuration.
    fn scales_or(&self, quick: usize, full: usize) -> Vec<usize> {
        if self.scales.is_empty() {
            vec![if self.config.quick { quick } else { full }]
        } else {
            self.scales.clone()
        }
    }
}

/// Why `repro` stops before running anything.
enum Stop {
    /// `--help`: print the mode's usage on stdout and succeed.
    Help,
    /// A usage error: print the reason, if there is one, and the mode's usage
    /// on stderr, and fail.
    Usage(Option<String>),
}

/// A usage error with its reason.
fn usage(why: impl Into<String>) -> Stop {
    Stop::Usage(Some(why.into()))
}

/// Takes the value after an option and parses it, accepting it only if
/// `accept` holds.
fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    accept: impl FnOnce(&T) -> bool,
) -> Result<T, Stop> {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(accept)
        .ok_or(Stop::Usage(None))
}

/// Parses every mode's options in one pass. A mode rejects the options it
/// does not take; the rate options are checked by their configs' own
/// `validate`.
fn parse(mode: Mode, mut args: impl Iterator<Item = String>) -> Result<Cli, Stop> {
    let (batch, service, prog) = (mode == Mode::Batch, mode != Mode::Batch, mode.prog());
    let mut cli = Cli::default();
    let (mut quick, mut runs, mut users) = (false, None, None);
    let (mut fault_loss, mut fault_burst, mut no_recovery) = (None, None, false);
    let mut churn_rate = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => cli.out = Some(value(&mut args, |_: &String| true)?),
            "--fault-loss" => fault_loss = Some(value(&mut args, |_: &f64| true)?),
            "--fault-burst" => fault_burst = Some(value(&mut args, |_: &f64| true)?),
            "--no-recovery" if service => no_recovery = true,
            "--nodes" if service => cli.nodes = Some(value(&mut args, |&n: &usize| n >= 1)?),
            "--periods" if mode == Mode::Serve => {
                cli.periods = Some(value(&mut args, |&n: &u64| n >= 1)?);
            }
            "--qps" if mode == Mode::Load => {
                cli.qps = Some(value(&mut args, |q: &f64| q.is_finite() && *q > 0.0)?);
            }
            "--duration" if mode == Mode::Load => {
                cli.duration = Some(value(&mut args, |&n: &u64| n >= 1)?);
            }
            "--runs" if batch => runs = Some(value(&mut args, |&n: &u64| n >= 1)?),
            "--users" if batch => users = Some(value(&mut args, |&n: &usize| n >= 1)?),
            "--format" if batch => {
                cli.format = Some(value(&mut args, |f: &String| f == "text" || f == "json")?);
            }
            "--bench" if batch => cli.bench = Some(value(&mut args, |_: &String| true)?),
            "--churn-rate" if batch => churn_rate = Some(value(&mut args, |_: &f64| true)?),
            "--scale" if batch => {
                cli.scales = value(&mut args, |_: &String| true)?
                    .split(',')
                    .map(|n| n.trim().parse().ok().filter(|&n: &usize| n > 0))
                    .collect::<Option<_>>()
                    .ok_or(Stop::Usage(None))?;
            }
            "--help" | "-h" => return Err(Stop::Help),
            other if service => return Err(usage(format!("{prog}: unexpected argument {other}"))),
            other if other.starts_with('-') => {
                return Err(usage(format!("repro: unknown option {other}")));
            }
            other => cli.targets.push(other.to_string()),
        }
    }

    if let Some(loss) = fault_loss {
        let mut fault = FaultConfig::new(loss).with_recovery(!no_recovery);
        if let Some(burst) = fault_burst {
            fault = fault.with_burst(burst);
        }
        fault
            .validate()
            .map_err(|e| usage(format!("{prog}: {e}")))?;
        cli.fault = Some(fault);
    } else if fault_burst.is_some() || no_recovery {
        let flag = if no_recovery {
            "--no-recovery"
        } else {
            "--fault-burst"
        };
        return Err(usage(format!("{prog}: {flag} needs --fault-loss")));
    }
    if let Some(rate) = churn_rate {
        // Each churn trial sets its own `verify` by deployment size.
        let churn = ChurnConfig {
            rate,
            verify: false,
        };
        churn
            .validate()
            .map_err(|e| usage(format!("{prog}: {e}")))?;
        cli.churn = Some(churn);
    }

    let mut config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    };
    if let Some(n) = runs {
        config.runs = n;
    }
    if let Some(n) = users {
        config = config.with_users(n);
    }
    cli.config = config;
    Ok(cli)
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

/// The `repro serve` / `repro load` subcommands.
fn run_service(mode: Mode, cli: &Cli) -> Result<ExitCode, Stop> {
    let config = &cli.config;
    let scenario = match cli.nodes {
        Some(n) => scale::scale_scenario(n, Scheme::JustInTime, config.base_seed),
        None => config.base_scenario(),
    };
    let (kind, body) = if mode == Mode::Serve {
        let periods = cli
            .periods
            .ok_or_else(|| usage("repro serve: --periods is required"))?;
        let report = run_serve(scenario, periods, cli.fault);
        ("serve", report.map(|report| report.to_json()))
    } else {
        let (Some(qps), Some(duration)) = (cli.qps, cli.duration) else {
            return Err(usage("repro load: --qps and --duration are required"));
        };
        let outcome = run_load(scenario, qps, duration, TreeSharing::Shared, cli.fault);
        ("load", outcome.map(|outcome| outcome.report.to_json()))
    };
    let body = match body {
        Ok(body) => body,
        Err(e) => {
            eprintln!("repro {kind}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let doc = JsonValue::object()
        .with("schema", "mobiquery-repro/service/v1")
        .with("mode", if config.quick { "quick" } else { "full" })
        .with("base_seed", config.base_seed)
        .with(kind, body);
    Ok(emit(&doc.to_pretty_string(), cli.out.as_deref()))
}

/// A batch run: the named targets, as text, as JSON or timed for the bench.
fn run_batch(cli: &Cli) -> Result<ExitCode, Stop> {
    if cli.targets.is_empty() {
        return Err(Stop::Usage(None));
    }
    // `all` expands in place; each target runs once, in order of first
    // mention.
    let mut targets: Vec<&Target> = Vec::new();
    for name in &cli.targets {
        let named: Vec<&Target> = TARGETS
            .iter()
            .filter(|t| t.name == name || (name == "all" && t.in_all))
            .collect();
        if named.is_empty() {
            return Err(usage(format!("repro: unknown target {name}")));
        }
        for target in named {
            if !targets.iter().any(|t| t.name == target.name) {
                targets.push(target);
            }
        }
    }
    for target in &targets {
        if let Some(flag) = target.requires.filter(|flag| !cli.has(flag)) {
            let name = target.name;
            return Err(usage(format!("repro: the {name} target requires {flag}")));
        }
    }

    let config = &cli.config;
    if let Some(path) = &cli.bench {
        // --bench is its own output mode: it writes the timing document to
        // its PATH and nothing else, so combining it with --out/--format
        // would silently drop those — reject instead.
        if cli.out.is_some() || cli.format.is_some() {
            return Err(usage(
                "repro: --bench cannot be combined with --out or --format",
            ));
        }
        let doc = bench_json(&targets, cli);
        return Ok(emit(&doc.to_pretty_string(), Some(path)));
    }
    if !cli.scales.is_empty() && targets.iter().all(|t| t.requires.is_none()) {
        return Err(usage(
            "repro: --scale requires --bench, the churn target or the resilience target \
             (the sweep lands in the bench document)",
        ));
    }

    let reports = targets.iter().map(|t| (t.name, (t.run)(config, cli)));
    let content = if cli.format.as_deref() == Some("json") {
        // Deliberately excludes any timing: the bytes are a pure function of
        // the options.
        let mut results = JsonValue::object();
        for (name, report) in reports {
            results = results.with(name, report.json);
        }
        JsonValue::object()
            .with("schema", "mobiquery-repro/results/v1")
            .with("mode", if config.quick { "quick" } else { "full" })
            .with("runs", config.runs)
            .with("base_seed", config.base_seed)
            .with("results", results)
            .to_pretty_string()
    } else {
        reports.map(|(_, report)| report.text).collect()
    };
    Ok(emit(&content, cli.out.as_deref()))
}

/// The `--bench` document: per-target wall-clock and (when `--scale` is
/// given) the deployment-size sweep.
fn bench_json(targets: &[&Target], cli: &Cli) -> JsonValue {
    let (config, scales) = (&cli.config, &cli.scales);
    let mut figures = Vec::new();
    for target in targets {
        let (_, serial_ms) = best_of(1, || (), |()| (target.run)(config, cli));
        eprintln!("bench {}: serial {serial_ms:.0} ms", target.name);
        figures.push(
            JsonValue::object()
                .with("name", target.name)
                .with("serial_ms", round2(serial_ms)),
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
            eprintln!("multiuser bench: {nodes} nodes, fleets {ladder:?}, shared vs naive");
            let scenario = scale::scale_scenario(nodes, Scheme::JustInTime, config.base_seed);
            multiuser::run_bench(config, &scenario, &ladder)
        }
    };
    // The incremental-repair section rides on the largest requested scale
    // too: that is where full re-election hurts most and where the committed
    // trajectory must show mean_repair_ms ≪ full_ccp_ms at low rates.
    let churn_section = match scales.iter().max() {
        None => JsonValue::Array(Vec::new()),
        Some(&nodes) => {
            eprintln!("churn bench: {nodes} nodes at rates {BENCH_CHURN_RATES:?}");
            churn::run_bench(
                &config.with_users(BENCH_CHURN_USERS),
                &[nodes],
                &BENCH_CHURN_RATES,
            )
        }
    };
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
    eprintln!("resilience bench: {BENCH_FAULT_NODES} nodes at losses {BENCH_FAULT_LOSSES:?}");
    // `FaultConfig::new` gives the default profile (burst 4, no crashes);
    // the sweep sets each rung's loss and recovery flag.
    let resilience_section = resilience::run_bench(
        &config.with_users(BENCH_FAULT_USERS),
        &[BENCH_FAULT_NODES],
        &BENCH_FAULT_LOSSES,
        FaultConfig::new(0.0),
    );
    JsonValue::object()
        .with("schema", "mobiquery-repro/bench/v11")
        .with("mode", if config.quick { "quick" } else { "full" })
        .with("runs", config.runs)
        .with("users", config.users)
        // Timings are only comparable between documents from the same host.
        .with(
            "host_cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("figures", figures)
        .with("scale", scale)
        .with("multiuser", multiuser)
        .with("churn", churn_section)
        .with("service", service)
        .with("resilience", resilience_section)
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
    let mut args = std::env::args().skip(1).peekable();
    let mode = match args.peek().map(String::as_str) {
        Some("serve") => Mode::Serve,
        Some("load") => Mode::Load,
        _ => Mode::Batch,
    };
    if mode != Mode::Batch {
        args.next();
    }
    let run = parse(mode, args).and_then(|cli| match mode {
        Mode::Batch => run_batch(&cli),
        Mode::Serve | Mode::Load => run_service(mode, &cli),
    });
    match run {
        Ok(code) => code,
        Err(Stop::Help) => {
            println!("{}", mode.usage());
            ExitCode::SUCCESS
        }
        Err(Stop::Usage(why)) => {
            if let Some(why) = why {
                eprintln!("{why}\n");
            }
            eprintln!("{}", mode.usage());
            ExitCode::FAILURE
        }
    }
}
