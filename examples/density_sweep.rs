//! Density sweep: build a custom `TrialPlan` and run it, exactly as the
//! figure modules do internally.
//!
//! The sweep asks a deployment question the paper doesn't plot directly —
//! how does the success ratio change with the *density* of the deployment? —
//! and runs all (node count × replicate) trials in plan order. Per-trial
//! seeds are derived from the plan coordinates, so every rerun prints
//! identical numbers.
//!
//! ```text
//! cargo run --release --example density_sweep
//! ```

use mobiquery_repro::experiments::runner::TrialPlan;
use mobiquery_repro::experiments::ExperimentConfig;
use mobiquery_repro::metrics::Table;

fn main() {
    let config = ExperimentConfig {
        runs: 2,
        ..ExperimentConfig::quick()
    };

    let node_counts = [60, 90, 120];
    let mut plan = TrialPlan::new();
    for &nodes in &node_counts {
        plan.push_point(&config, config.base_scenario().with_node_count(nodes));
    }
    println!(
        "running {} trials ({} points x {} replicates)...",
        plan.trial_count(),
        plan.point_count(),
        config.runs
    );

    let summaries = plan.run_summaries(|out| out.success_ratio);

    let mut table = Table::with_columns(
        "Success ratio vs deployment density (MQ-JIT, quick scenario)",
        &["nodes", "success ratio", "ci95"],
    );
    for (&nodes, summary) in node_counts.iter().zip(&summaries) {
        table.push_row(vec![
            nodes.to_string(),
            format!("{:.4}", summary.mean()),
            format!("{:.4}", summary.ci95()),
        ]);
    }
    println!("{table}");
}
