//! The `--scale` sweep: does the per-query hot path stay flat as the
//! deployment grows from hundreds to tens of thousands of nodes?
//!
//! Per deployment size, at constant node density (the paper's 200 nodes per
//! 450 m × 450 m field), the end-to-end wall-clock of a full simulation run
//! (setup and event loop timed separately, with setup further broken down
//! into `neighbor_ms` / `ccp_ms` / `plan_ms`) for both the just-in-time
//! prefetching scheme and the No-Prefetching baseline — the numbers the
//! spatial-index and coverage-raster work are meant to keep from growing
//! superlinearly.
//!
//! Results feed the `scale` section of the bench document
//! (`BENCH_repro.json`). Timings are machine-dependent by nature;
//! unlike `--format json` output they are a trajectory snapshot, not a
//! determinism artifact.

use crate::runner::BASE_SEED;
use crate::{best_of, round2};
use mobiquery::config::{Scenario, Scheme};
use mobiquery::sim::Simulation;
use wsn_metrics::JsonValue;

/// Density-preserving scenario for a deployment of `nodes` nodes: the region
/// side grows with √nodes so radio degree, backbone fraction and query-area
/// population stay at the paper's values while the network scales.
pub fn scale_scenario(nodes: usize, scheme: Scheme, seed: u64) -> Scenario {
    let side = 450.0 * (nodes as f64 / 200.0).sqrt();
    Scenario::paper_default()
        .with_node_count(nodes)
        .with_region_side(side)
        .with_duration_secs(60.0)
        .with_scheme(scheme)
        .with_seed(seed)
}

/// Wall-clock of one scheme at one scale: build and run split out — with the
/// setup side broken down into its phases — plus the event count as a sanity
/// anchor that the run actually did protocol work. The run phase is
/// best-of-3 (the event loop is deterministic, so repeats do identical work
/// and the minimum is the least-noisy estimate); setup is timed once, its
/// regression bound has order-of-magnitude headroom.
fn timed_run(nodes: usize, scheme: Scheme, seed: u64) -> JsonValue {
    let scenario = scale_scenario(nodes, scheme, seed);
    let build =
        || Simulation::new(scenario.clone()).expect("scale scenarios are valid by construction");
    let (sim, setup_ms) = best_of(1, || (), |()| build());
    let phases = sim.setup_breakdown();
    // The first run reuses the simulation whose set-up was just timed.
    let mut first = Some(sim);
    let (out, run_ms) = best_of(3, || first.take().unwrap_or_else(build), Simulation::run);
    JsonValue::object()
        .with("setup_ms", round2(setup_ms))
        .with(
            "setup",
            JsonValue::object()
                .with("neighbor_ms", round2(phases.neighbor_ms))
                .with("ccp_ms", round2(phases.ccp_ms))
                .with("plan_ms", round2(phases.plan_ms)),
        )
        .with("run_ms", round2(run_ms))
        .with("events", out.events_processed)
        .with(
            "events_per_sec",
            round2(out.events_processed as f64 / (run_ms / 1e3).max(1e-9)),
        )
        .with("trees_built", out.trees_built)
        .with("backbone", out.backbone_count)
}

/// Runs the sweep over `scales` deployment sizes, each seeded
/// [`BASE_SEED`], and returns the `scale` array of the bench document.
pub fn run(scales: &[usize]) -> JsonValue {
    let mut entries = Vec::new();
    for &nodes in scales {
        let side = 450.0 * (nodes as f64 / 200.0).sqrt();
        eprintln!("scale {nodes}: running jit + np");
        entries.push(
            JsonValue::object()
                .with("nodes", nodes)
                .with("region_side_m", round2(side))
                .with("jit", timed_run(nodes, Scheme::JustInTime, BASE_SEED))
                .with("np", timed_run(nodes, Scheme::None, BASE_SEED)),
        );
    }
    JsonValue::Array(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_scenario_preserves_density() {
        let small = scale_scenario(200, Scheme::JustInTime, 1);
        let big = scale_scenario(800, Scheme::JustInTime, 1);
        let density = |s: &Scenario| s.node_count as f64 / (s.region_side_m * s.region_side_m);
        assert!((density(&small) - density(&big)).abs() < 1e-12);
        assert_eq!(big.region_side_m, 900.0);
    }

    #[test]
    fn sweep_produces_one_entry_per_scale() {
        let doc = run(&[200]);
        let JsonValue::Array(entries) = doc else {
            panic!("scale sweep must be an array");
        };
        assert_eq!(entries.len(), 1);
        let text = entries[0].to_string();
        assert!(text.contains("\"jit\""));
        assert!(text.contains("\"np\""));
        // The setup breakdown must be present for every scheme.
        for field in ["\"setup\"", "\"neighbor_ms\"", "\"ccp_ms\"", "\"plan_ms\""] {
            assert_eq!(
                text.matches(field).count(),
                2,
                "{field} must appear once per scheme"
            );
        }
    }
}
