//! Density sweep: a custom sweep built the way the figure modules build
//! theirs, one `summarize` call per point.
//!
//! The sweep asks a deployment question the paper doesn't plot directly —
//! how does the success ratio change with the *density* of the deployment? —
//! and runs every (node count × replicate) trial. Each trial's seed derives
//! from its point and replicate numbers, so every rerun prints identical
//! numbers.
//!
//! ```text
//! cargo run --release --example density_sweep
//! ```

use mobiquery_repro::experiments::runner::summarize;
use mobiquery_repro::experiments::ExperimentConfig;
use mobiquery_repro::metrics::Table;

fn main() {
    let config = ExperimentConfig {
        runs: 2,
        ..ExperimentConfig::quick()
    };

    let node_counts = [60, 90, 120];
    println!(
        "running {} trials ({} points x {} replicates)...",
        node_counts.len() * config.runs as usize,
        node_counts.len(),
        config.runs
    );

    let mut table = Table::with_columns(
        "Success ratio vs deployment density (MQ-JIT, quick scenario)",
        &["nodes", "success ratio", "ci95"],
    );
    for (point, &nodes) in node_counts.iter().enumerate() {
        let scenario = config.base_scenario().with_node_count(nodes);
        let summary = summarize(&config, point, &scenario, |out| out.success_ratio);
        table.push_row(vec![
            nodes.to_string(),
            format!("{:.4}", summary.mean()),
            format!("{:.4}", summary.ci95()),
        ]);
    }
    println!("{table}");
}
