//! The measurement loop shared by every workload, and the metrics it
//! reports.
//!
//! A run builds the workload's engine a few times to time set-up, then runs
//! one pass over the workload's inputs. A pass is repeated, over the same
//! inputs, only while less than `--seconds` of run time has been measured,
//! and every repeat must produce the same output digest. With `--trace 1`,
//! four passes run and the middle two are traced; they give the per-layer
//! metrics, and the difference between traced and untraced passes is the
//! tracing overhead.

use crate::heap;
use crate::stats::{self, Digest};
use crate::trace::{self, Tracer};
use mobiquery_repro::mobiquery::config::Scenario;
use mobiquery_repro::mobiquery::SetupBreakdown;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

/// Engine constructions per run whose median is `setup_s`.
pub const SETUP_SAMPLES: usize = 5;
/// Passes of a traced run: untraced, traced, traced, untraced.
pub const TRACED_RUN_PASSES: usize = 4;

/// A `paper_default` scenario with `nodes` at the paper's density (200
/// nodes in a 450 m square), `periods` query periods and `seed`.
pub fn scenario(nodes: usize, periods: u64, seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_node_count(nodes)
        .with_region_side(450.0 * (nodes as f64 / 200.0).sqrt())
        .with_duration_secs(periods as f64 * period_s())
        .with_seed(seed)
}

/// The query period every workload keeps: the paper's.
pub fn period_s() -> f64 {
    Scenario::paper_default().query.period.as_secs_f64()
}

/// API calls and output checks attempted and failed in a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one API call; an `Err` counts as failed and is returned.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            self.failed += 1;
            let msg = format!("{what}: {e}");
            self.errors.push(msg.clone());
            msg
        })
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

/// What a pass hands to the harness besides its timings.
#[derive(Debug)]
pub struct PassCtx<'a> {
    pub tracer: &'a mut Tracer,
    pub tally: &'a mut Tally,
    /// The workload's root span.
    pub root: u32,
    pub pass: u64,
}

/// Per-layer counters and timers of one pass. Counts are deterministic in
/// the seed; fields a workload does not exercise stay zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    pub installs: u64,
    pub resolves: u64,
    pub standing_peak: u64,
    /// Per boundary: step time without churn repair and apply (ms), and the
    /// results it resolved.
    pub boundaries: Vec<(f64, u64)>,
    pub trees_built: u64,
    pub shared_hits: u64,
    pub peak_live_trees: u64,
    pub retries: u64,
    pub install_failures: u64,
    pub trees_rebuilt: u64,
    pub naive_fallbacks: u64,
    pub repair_ms: f64,
    pub churn_apply_ms: f64,
    pub churn_batches: u64,
    pub evaluated: u64,
    pub flips: u64,
    pub dirty_cells: u64,
    pub full_election_ms: f64,
    pub events: u64,
    pub frames_sent: u64,
    pub frames_lost: u64,
    pub sim_trees_built: u64,
    pub service_calls: u64,
}

/// One pass over the workload's fixed inputs.
#[derive(Debug)]
pub struct Pass {
    /// Engine construction time of this pass.
    pub setup_s: f64,
    /// The timed run phase.
    pub run_s: f64,
    /// Latency of each unit operation (a period boundary, or one
    /// event-driven simulation), in ms.
    pub op_ms: Vec<f64>,
    pub digest: Digest,
    pub layers: Layers,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// What one unit operation is, for the printed report.
    fn op(&self) -> &'static str;
    /// Builds the engines of one pass without running them; returns their
    /// construction time in seconds.
    fn setup_only(&self, tally: &mut Tally) -> Result<f64, String>;
    fn pass(&self, ctx: &mut PassCtx) -> Result<Pass, String>;
    /// `Simulation::setup_breakdown` summed over the workload's scenarios.
    fn breakdown(&self, tally: &mut Tally) -> Result<SetupBreakdown, String>;
}

/// How a run is measured.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or provenance, printed beside the value.
    pub note: String,
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub op: &'static str,
    pub seed: u64,
    pub passes: usize,
    pub traced_passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub digest: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Per-layer (spans, busy ms, self ms) of the traced passes.
    pub layer_table: Vec<(&'static str, usize, f64, f64)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn op_failure_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let mode = if self.traced_passes > 0 {
            format!(
                "traced run, {} of {} passes traced",
                self.traced_passes, self.passes
            )
        } else {
            format!("{} passes", self.passes)
        };
        let _ = writeln!(
            s,
            "== {} (seed {}, {mode}; op = {})",
            self.workload, self.seed, self.op
        );
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<28} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        if !self.layer_table.is_empty() {
            let _ = writeln!(
                s,
                "  {:<22} {:>9} {:>12} {:>12}",
                "layer", "spans", "busy ms", "self ms"
            );
            for (layer, n, busy, own) in &self.layer_table {
                let _ = writeln!(s, "  {layer:<22} {n:>9} {busy:>12.3} {own:>12.3}");
            }
        }
        let _ = writeln!(
            s,
            "  digest {:#018x}  attempted {}  failed {}  op_failure_ratio {}",
            self.digest,
            self.attempted,
            self.failed,
            self.op_failure_ratio()
        );
        for e in &self.errors {
            let _ = writeln!(s, "  FAILED: {e}");
        }
        s
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// every metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB. Printed beside the
/// heap peak; see `heap` for why it is not the metric.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("{what} panicked: {msg}"))
    })
}

/// Measures `w` under `opts`.
pub fn run(w: &dyn Workload, opts: &Options) -> Report {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut report = Report {
        workload: w.name(),
        op: w.op(),
        seed: opts.seed,
        passes: 0,
        traced_passes: 0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        digest: 0,
        metrics: Vec::new(),
        layer_table: Vec::new(),
    };
    let outcome = guarded(w.name(), || {
        measure(w, opts, &mut tracer, &mut tally, &mut report)
    });
    if let Err(e) = outcome {
        // A failed call already counted itself; a panic or harness error
        // has not.
        if !tally.errors.contains(&e) {
            tally.attempted += 1;
            tally.failed += 1;
            tally.errors.push(e);
        }
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.errors = tally.errors;
    report
}

fn measure(
    w: &dyn Workload,
    opts: &Options,
    tracer: &mut Tracer,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 1..SETUP_SAMPLES {
        setups.push(w.setup_only(tally)?);
    }

    tracer.set_enabled(opts.trace);
    let root = tracer.open("workload", trace::NONE, opts.seed);
    let min_passes = if opts.trace { TRACED_RUN_PASSES } else { 1 };
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut run_total = 0.0;
    let mut peak = (0.0, 0.0);
    while passes.len() < min_passes || run_total < opts.seconds {
        // Untraced, traced, traced, untraced, ...: neither kind always runs
        // first, so warm-up and drift cancel in the overhead estimate.
        let on = opts.trace && matches!(passes.len() % 4, 1 | 2);
        tracer.set_enabled(on);
        let mut ctx = PassCtx {
            tracer: &mut *tracer,
            tally: &mut *tally,
            root,
            pass: passes.len() as u64,
        };
        let pass = w.pass(&mut ctx)?;
        if let Some((_, first)) = passes.first() {
            tally.check(pass.digest == first.digest, || {
                format!(
                    "pass {} digest {:#018x} differs from pass 0's {:#018x}",
                    passes.len(),
                    pass.digest.value(),
                    first.digest.value()
                )
            });
        } else {
            // Later passes repeat the same allocations.
            peak = (heap::peak_mb(), peak_rss_mb()?);
        }
        run_total += pass.run_s;
        setups.push(pass.setup_s);
        passes.push((on, pass));
    }
    tracer.set_enabled(opts.trace);
    tracer.close(root);

    report.passes = passes.len();
    report.traced_passes = passes.iter().filter(|(on, _)| *on).count();
    report.digest = passes[0].1.digest.value();
    if opts.trace {
        let breakdown = w.breakdown(tally)?;
        let spans = tracer.spans();
        tally.check(trace::well_nested(spans), || {
            "spans are not well nested".to_string()
        });
        if let Some(path) = &opts.spans_out {
            trace::write_jsonl(path, w.name(), spans)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        report.layer_table = trace::layer_table(spans);
        report.metrics = per_layer(&passes, spans, &breakdown);
    } else {
        report.metrics = end_to_end(&passes, &setups, peak)?;
    }
    Ok(())
}

/// The op latency percentiles pool the ops of every pass. The p90 is
/// printed beside the p50 but is not a metric: a tight latency
/// distribution's tail mostly measures the host.
fn end_to_end(
    passes: &[(bool, Pass)],
    setups: &[f64],
    (peak_heap, peak_rss): (f64, f64),
) -> Result<Vec<Metric>, String> {
    let runs: Vec<f64> = passes.iter().map(|(_, p)| p.run_s).collect();
    let ops = stats::sorted(passes.iter().flat_map(|(_, p)| p.op_ms.clone()).collect());
    let pct = |p| stats::percentile(&ops, p).map_err(|e| e.to_string());
    Ok(vec![
        Metric {
            name: "setup_s",
            value: stats::median(setups),
            unit: "s",
            note: format!("median of n={} constructions", setups.len()),
        },
        Metric {
            name: "run_s",
            value: stats::median(&runs),
            unit: "s",
            note: format!("median of n={} passes", runs.len()),
        },
        Metric {
            name: "op_ms_p50",
            value: pct(50.0)?,
            unit: "ms",
            note: format!("n={}; p90 {:.3} ms", ops.len(), pct(90.0)?),
        },
        Metric {
            name: "peak_heap_mb",
            value: peak_heap,
            unit: "MiB",
            note: format!("after the set-up samples and the first pass; VmHWM {peak_rss:.3} MiB"),
        },
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(
    passes: &[(bool, Pass)],
    spans: &[trace::Span],
    breakdown: &SetupBreakdown,
) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes
        .iter()
        .filter(|(on, _)| *on)
        .map(|(_, p)| p)
        .collect();
    let plain: Vec<f64> = passes
        .iter()
        .filter(|(on, _)| !*on)
        .map(|(_, p)| p.run_s)
        .collect();
    let traced_run: Vec<f64> = traced.iter().map(|p| p.run_s).collect();
    // Counts repeat exactly across passes; timers are summed over the
    // traced ones.
    let l = &traced[0].layers;
    let sum = |f: &dyn Fn(&Layers) -> f64| traced.iter().map(|p| f(&p.layers)).sum::<f64>();

    // Self time per layer inside the run phases; only traced passes
    // recorded spans.
    let own = trace::self_ms(spans);
    let in_run: Vec<bool> = spans
        .iter()
        .map(|s| s.parent != trace::NONE && spans[s.parent as usize - 1].name == "run")
        .collect();
    let busy = |layer: &str| -> f64 {
        spans
            .iter()
            .zip(&own)
            .zip(&in_run)
            .filter(|((s, _), run)| **run && trace::layer_of(s.name) == layer)
            .map(|((_, ms), _)| ms)
            .sum::<f64>()
    };
    let runs = spans.iter().zip(&own).filter(|(s, _)| s.name == "run");
    let (run_ms, harness_ms) = runs.fold((0.0, 0.0), |(t, h), (s, own)| (t + s.ms(), h + own));
    let repair_ms = sum(&|l| l.repair_ms);
    let churn_apply_ms = sum(&|l| l.churn_apply_ms);
    let service_ms = busy("mobiquery-service");
    let stepped_ms = busy("SteppedSim") - repair_ms - churn_apply_ms;
    let sim_ms = busy("Simulation+wsn-sim");
    let pct = |ms: f64| ratio(100.0 * ms, run_ms);

    let step_ms: f64 = traced
        .iter()
        .flat_map(|p| p.layers.boundaries.iter().map(|b| b.0))
        .sum();
    let step_resolves: f64 = traced
        .iter()
        .flat_map(|p| p.layers.boundaries.iter().map(|b| b.1 as f64))
        .sum();
    // Cost per resolve in the last third of boundaries over the first
    // third: above 1 when per-query work grows with the standing set.
    let thirds = {
        let costs: Vec<f64> = l
            .boundaries
            .iter()
            .enumerate()
            .filter(|(_, b)| b.1 > 0)
            .map(|(i, _)| {
                let ms: f64 = traced.iter().map(|p| p.layers.boundaries[i].0).sum();
                ms / (traced.len() as f64 * l.boundaries[i].1 as f64)
            })
            .collect();
        let third = costs.len() / 3;
        if third == 0 {
            0.0
        } else {
            ratio(
                stats::median(&costs[costs.len() - third..]),
                stats::median(&costs[..third]),
            )
        }
    };
    let realtime = if l.service_calls > 0 {
        ratio(l.resolves as f64, stats::median(&plain)) * period_s()
    } else {
        0.0
    };
    let overhead = 100.0 * (ratio(stats::median(&traced_run), stats::median(&plain)) - 1.0);
    let batches = traced.len() as f64 * l.churn_batches as f64;
    let full_ms = ratio(sum(&|l| l.full_election_ms), traced.len() as f64);

    let m = |name, value: f64, unit, note: &str| Metric {
        name,
        // An empty float sum is -0.0; print it as 0.
        value: value + 0.0,
        unit,
        note: note.to_string(),
    };
    let n = format!("{} traced passes", traced.len());
    vec![
        m(
            "stepped.resolves_per_s",
            ratio(step_resolves * 1e3, step_ms),
            "1/s",
            "results per second of step_period, churn excluded",
        ),
        m(
            "stepped.resolve_cost_growth",
            thirds,
            "ratio",
            "cost per result, last third / first third of boundaries",
        ),
        m(
            "stepped.installs",
            l.installs as f64,
            "count",
            "query-period installs",
        ),
        m(
            "stepped.resolves",
            l.resolves as f64,
            "count",
            "query-period results",
        ),
        m(
            "stepped.standing_peak",
            l.standing_peak as f64,
            "count",
            "most queries standing at once",
        ),
        m(
            "net.trees_built",
            l.trees_built as f64,
            "count",
            "flood trees built",
        ),
        m(
            "net.tree_reuse_ratio",
            ratio(l.shared_hits as f64, l.installs as f64),
            "ratio",
            "installs served by a standing tree",
        ),
        m("net.peak_live_trees", l.peak_live_trees as f64, "count", ""),
        m("fault.retries", l.retries as f64, "count", ""),
        m(
            "fault.install_failures",
            l.install_failures as f64,
            "count",
            "",
        ),
        m("fault.trees_rebuilt", l.trees_rebuilt as f64, "count", ""),
        m(
            "fault.naive_fallbacks",
            l.naive_fallbacks as f64,
            "count",
            "",
        ),
        m(
            "setup.neighbor_ms",
            breakdown.neighbor_ms,
            "ms",
            "Simulation::setup_breakdown",
        ),
        m(
            "setup.ccp_ms",
            breakdown.ccp_ms,
            "ms",
            "Simulation::setup_breakdown",
        ),
        m(
            "setup.plan_ms",
            breakdown.plan_ms,
            "ms",
            "Simulation::setup_breakdown",
        ),
        m(
            "churn.evaluated",
            l.evaluated as f64,
            "count",
            "repair evaluations",
        ),
        m(
            "churn.flip_yield",
            ratio(l.flips as f64, l.evaluated as f64),
            "ratio",
            "(promoted + demoted) / evaluated",
        ),
        m("churn.dirty_cells", l.dirty_cells as f64, "count", ""),
        m(
            "churn.repair_vs_full",
            ratio(ratio(repair_ms, batches), full_ms),
            "ratio",
            "mean repair per batch / one full election",
        ),
        m("sim.events", l.events as f64, "count", ""),
        m(
            "sim.events_per_s",
            ratio(
                sum(&|l| l.events as f64),
                traced.iter().map(|p| p.run_s).sum(),
            ),
            "1/s",
            "events per second of Simulation::run",
        ),
        m("sim.frames_sent", l.frames_sent as f64, "count", ""),
        m(
            "sim.frame_loss_ratio",
            ratio(l.frames_lost as f64, l.frames_sent as f64),
            "ratio",
            "",
        ),
        m("sim.trees_built", l.sim_trees_built as f64, "count", ""),
        m(
            "service.calls",
            l.service_calls as f64,
            "count",
            "submit + poll + retire + finish",
        ),
        m(
            "service.realtime_capacity",
            realtime,
            "count",
            "results per second x period: queries servable at real-time pace",
        ),
        m("busy.service_pct", pct(service_ms), "%", &n),
        m("busy.stepped_pct", pct(stepped_ms), "%", &n),
        m("busy.repair_pct", pct(repair_ms), "%", &n),
        m("busy.churn_apply_pct", pct(churn_apply_ms), "%", &n),
        m("busy.sim_pct", pct(sim_ms), "%", &n),
        m("busy.harness_pct", pct(harness_ms), "%", &n),
        m(
            "host.trace_overhead_pct",
            overhead,
            "%",
            "median traced / untraced run_s - 1",
        ),
    ]
}
