//! Steady-state fixture for the zero-allocation proof.
//!
//! The stepped engine's warm loop is designed to allocate nothing: tree
//! buffers are recycled through the cache, the resolve scratch (area nodes,
//! relay index) is reused across boundaries, logs are pre-reserved at
//! admission, and hash maps keep their capacity. Proving that needs a run
//! whose *workload* is also steady: this module builds one — full-window
//! users on a deployment whose query radius equals the region side, so every
//! install snaps to the single quantized-lattice cell and no new `TreeKey`
//! (hence no fresh flood tree or cost memo entry) can appear after the first
//! boundary.
//!
//! The `zero_alloc` integration test drives it under a counting
//! `#[global_allocator]` and asserts the warm per-boundary delta is exactly
//! zero.

use mobiquery::config::{Scenario, Scheme};
use mobiquery::sim::{QuerySet, SteppedSim, TreeSharing, UserQuery};
use wsn_mobility::fleet_member;

/// Boundaries stepped before measuring. The first boundary builds the one
/// shared tree and every pool; a few more let hash maps and scratch buffers
/// reach their high-water marks.
pub const WARM_BOUNDARIES: u64 = 8;

/// The probe scenario: small deployment, query radius = region side.
pub fn scenario(periods: u64, seed: u64) -> Scenario {
    let side = 300.0;
    let mut scenario = Scenario::paper_default()
        .with_node_count(80)
        .with_region_side(side)
        .with_scheme(Scheme::JustInTime)
        .with_seed(seed);
    // One lattice cell for the whole region: installs can never discover a
    // new tree key mid-run, which is what pins the steady state.
    scenario.query.radius_m = side;
    let period_s = scenario.query.period.as_secs_f64();
    scenario.with_duration_secs(periods as f64 * period_s)
}

/// A stepped sim of `users` full-window users over [`scenario`], warmed
/// through [`WARM_BOUNDARIES`] so every buffer is at capacity. The caller
/// steps the remaining boundaries and watches its allocator counter.
pub fn warmed_sim(periods: u64, users: usize, seed: u64) -> SteppedSim {
    let scenario = scenario(periods, seed);
    let max_k = scenario.query.result_count();
    let fleet: Vec<UserQuery> = (0..users)
        .map(|index| {
            let m = fleet_member(
                &scenario.motion,
                scenario.profile_source,
                index,
                scenario.seed,
            );
            UserQuery {
                user: index,
                seed: m.seed,
                motion: m.motion,
                profiles: m.profiles,
                first_k: 1,
                last_k: max_k,
            }
        })
        .collect();
    let set = QuerySet::from_users(fleet, max_k).expect("full windows are valid");
    let mut sim =
        SteppedSim::new(scenario, set, TreeSharing::Shared).expect("the probe scenario is valid");
    assert!(
        sim.max_k() > WARM_BOUNDARIES + 2,
        "probe run too short to have a steady state"
    );
    for _ in 0..WARM_BOUNDARIES {
        sim.step_period().expect("warm-up boundaries step cleanly");
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_runs_to_completion_and_resolves_every_period() {
        let mut sim = warmed_sim(16, 3, 11);
        sim.run_to_end().unwrap();
        let out = sim.finish();
        assert_eq!(out.users, 3);
        for log in &out.logs {
            assert_eq!(log.len() as u64, 16);
        }
    }
}
