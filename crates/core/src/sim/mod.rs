//! The MobiQuery protocol simulation.
//!
//! [`Simulation`] builds a complete scenario — random node deployment, CCP
//! backbone election, neighbour tables, the shared wireless channel, the
//! user's ground-truth motion and the motion-profile stream — seeds its
//! event queue with query deadlines and profile deliveries, pops and handles
//! events up to the end of the query lifetime and distils a
//! [`SimulationOutput`] with the paper's metrics (success ratio, per-period
//! fidelity, per-sleeping-node power, prefetch length, channel loss).
//!
//! Every run is a pure function of its [`Scenario`] (including the seed), so
//! figures are reproducible bit for bit.

mod churn;
mod deploy;
mod event;
mod multi;
mod output;
mod state;
mod stepped;
mod world;

pub use churn::{ChurnBatchPlan, ChurnConfig};
pub use deploy::priority_for;
pub use event::SimEvent;
pub use multi::{MultiUserOutput, QueryRow, QuerySet, RunCounters, TreeSharing, UserQuery};
pub use output::SimulationOutput;
pub use stepped::{SimOptions, SteppedSim};
pub use wsn_net::{Blackout, FaultConfig, FaultError, FaultPlan};

use crate::config::{Scenario, Scheme};
use crate::error::ConfigError;
use deploy::Deployment;
use std::time::Instant;
use world::SimWorld;
use wsn_net::{NodeId, RadioState, SleepSchedule};
use wsn_power::EnergyLedger;
use wsn_sim::{Duration, EventQueue, SimRng, SimTime};

/// Wall-clock breakdown of the setup phases of [`Simulation::new`], in
/// milliseconds.
///
/// Deployment setup used to dwarf the event loop at scale (~50× at 20 000
/// nodes before the coverage raster), so the scale benchmarks record where
/// setup time actually goes instead of a single opaque `setup_ms`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupBreakdown {
    /// Node placement, the all-nodes and backbone spatial grids, and the
    /// backbone neighbour table (the table and the backbone grid are built
    /// just after the election, since they only need the backbone, but their
    /// cost is accounted here).
    pub neighbor_ms: f64,
    /// CCP backbone election: the coverage-raster build and the greedy
    /// demotion pass.
    pub ccp_ms: f64,
    /// Everything downstream of the substrate: mobility and motion-profile
    /// generation, channel and world assembly, and event seeding.
    pub plan_ms: f64,
}

/// A fully constructed simulation, ready to run: the protocol world and its
/// pending events.
#[derive(Debug)]
pub struct Simulation {
    world: SimWorld,
    queue: EventQueue<SimEvent>,
    setup: SetupBreakdown,
}

impl Simulation {
    /// Builds the deployment and protocol state for `scenario`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the scenario fails validation, or
    /// when more than [`wsn_power::MAX_COVERAGE_COUNT`] nodes cover one
    /// coverage sample point of the backbone election.
    pub fn new(scenario: Scenario) -> Result<Self, ConfigError> {
        scenario.validate()?;
        let mut rng = SimRng::seed_from_u64(scenario.seed);
        let ms_since = |start: Instant| start.elapsed().as_secs_f64() * 1e3;

        // --- Deployment substrate (shared with the multi-user path) ------
        let (deployment, _) = Deployment::build(&scenario, &mut rng, false)?;
        let (neighbor_ms, ccp_ms) = (deployment.neighbor_ms, deployment.ccp_ms);
        let phase_start = Instant::now();

        // --- Mobility and motion profiles --------------------------------
        let mut motion_rng = rng.fork(3);
        let motion = wsn_mobility::UserMotion::generate(&scenario.motion, &mut motion_rng);
        let mut profile_rng = rng.fork(4);
        let profiles = scenario.profile_source.profiles(&motion, &mut profile_rng);

        // --- World ---------------------------------------------------------
        let world_rng = rng.fork(5);
        let world = SimWorld::new(scenario, deployment, world_rng, motion, profiles);
        let queue = Self::seed_events(&world);
        let setup = SetupBreakdown {
            neighbor_ms,
            ccp_ms,
            plan_ms: ms_since(phase_start),
        };
        Ok(Simulation {
            world,
            queue,
            setup,
        })
    }

    /// The initial events: one deadline per query, profile deliveries for
    /// the prefetching schemes, and per-period broadcasts for the NP
    /// baseline.
    fn seed_events(world: &SimWorld) -> EventQueue<SimEvent> {
        let mut queue = EventQueue::new();
        let scenario = &world.scenario;
        let period = scenario.query.period;
        for k in 1..=scenario.query.result_count() {
            let deadline = SimTime::ZERO + period * k;
            queue.schedule_at(deadline, SimEvent::QueryDeadline { k });
            if scenario.scheme == Scheme::None {
                queue.schedule_at(deadline - period, SimEvent::NpLaunch { k });
            }
        }
        if scenario.scheme != Scheme::None {
            for (index, profile) in world.profiles.iter().enumerate() {
                queue.schedule_at(profile.generated_at, SimEvent::ProfileDelivered(index));
            }
        }
        queue
    }

    /// Wall-clock breakdown of the setup phases [`Simulation::new`] just ran
    /// (a timing observation, not part of the deterministic simulation
    /// state).
    pub fn setup_breakdown(&self) -> SetupBreakdown {
        self.setup
    }

    /// Runs the simulation to the end of the query lifetime and produces the
    /// aggregated output.
    pub fn run(mut self) -> SimulationOutput {
        let lifetime = self.world.scenario.query.lifetime;
        self.run_until(SimTime::from_secs_f64(lifetime.as_secs_f64() + 1.0));
        self.build_output()
    }

    /// Pops and handles every event due at or before `horizon`.
    fn run_until(&mut self, horizon: SimTime) {
        while self.queue.peek_time().is_some_and(|t| t <= horizon) {
            let Some(scheduled) = self.queue.pop() else {
                break;
            };
            self.world
                .handle(scheduled.time, scheduled.event, &mut self.queue);
        }
    }

    fn build_output(self) -> SimulationOutput {
        let peak_pending = self.queue.peak_len();
        let overflow_pops = self.queue.overflow_pops();
        let world = self.world;
        let scenario = &world.scenario;
        let duration_s = scenario.query.lifetime.as_secs_f64();
        let schedule = scenario.sleep_schedule();

        // Per-sleeping-node power: the baseline duty-cycle pattern plus the
        // extra activity charged during the run.
        let node_count = world.deployment.positions.len();
        let mut with_query = EnergyLedger::new(node_count, scenario.radio.power);
        let mut baseline = EnergyLedger::new(node_count, scenario.radio.power);
        let sleeping: Vec<NodeId> = world.deployment.plan.sleeping_nodes().collect();
        for &node in &sleeping {
            let (base_idle, base_sleep) = baseline_split(&schedule, duration_s);
            baseline.record(node, RadioState::Idle, Duration::from_secs_f64(base_idle));
            baseline.record(node, RadioState::Sleep, Duration::from_secs_f64(base_sleep));

            let tx = world.activity.tx_s[node.index()].min(duration_s);
            let rx = world.activity.rx_s[node.index()].min(duration_s);
            let extra = world.activity.extra_awake_s[node.index()]
                .min(duration_s - base_idle.min(duration_s));
            let idle = (base_idle + extra - tx - rx).max(0.0);
            let sleep = (duration_s - base_idle - extra).max(0.0);
            with_query.record(node, RadioState::Transmit, Duration::from_secs_f64(tx));
            with_query.record(node, RadioState::Receive, Duration::from_secs_f64(rx));
            with_query.record(node, RadioState::Idle, Duration::from_secs_f64(idle));
            with_query.record(node, RadioState::Sleep, Duration::from_secs_f64(sleep));
        }
        let mean_sleeping_power_w = with_query.mean_power_w(sleeping.iter().copied());
        let baseline_sleeping_power_w = baseline.mean_power_w(sleeping.iter().copied());

        let success_ratio = world.log.success_ratio(scenario.fidelity_threshold);
        let mean_fidelity = world.log.fidelity_summary().mean();
        let mean_prefetch_length = if world.prefetch_len_samples.is_empty() {
            0.0
        } else {
            world.prefetch_len_samples.iter().sum::<usize>() as f64
                / world.prefetch_len_samples.len() as f64
        };

        SimulationOutput {
            scheme: scenario.scheme,
            success_ratio,
            mean_fidelity,
            mean_sleeping_power_w,
            baseline_sleeping_power_w,
            backbone_count: world.deployment.plan.backbone_count(),
            node_count,
            frames_sent: world.channel.frames_sent(),
            frames_lost: world.channel.frames_lost(),
            trees_built: world.trees_built,
            max_prefetch_length: world.max_prefetch_len,
            mean_prefetch_length,
            events_processed: world.events_by_kind.iter().sum(),
            events_by_kind: world.events_by_kind,
            peak_pending,
            overflow_pops,
            query_log: world.log,
        }
    }
}

/// Splits the run duration of an idle duty-cycled node into (idle, sleep)
/// seconds according to its periodic schedule.
fn baseline_split(schedule: &SleepSchedule, duration_s: f64) -> (f64, f64) {
    let idle = duration_s * schedule.duty_cycle();
    (idle, (duration_s - idle).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately small scenario so unit tests stay fast; integration
    /// tests and benches exercise the paper-scale settings.
    fn small_scenario(scheme: Scheme, sleep_s: f64, seed: u64) -> Scenario {
        Scenario::paper_default()
            .with_node_count(80)
            .with_region_side(300.0)
            .with_duration_secs(60.0)
            .with_sleep_period_secs(sleep_s)
            .with_scheme(scheme)
            .with_seed(seed)
    }

    #[test]
    fn simulation_runs_and_scores_every_query() {
        let out = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 1))
            .unwrap()
            .run();
        assert_eq!(out.query_log.len(), 30, "one record per period");
        assert!(out.trees_built > 0);
        assert!(out.events_processed > 100);
        assert!(out.backbone_count > 0 && out.backbone_count < out.node_count);
    }

    #[test]
    fn event_counts_per_kind_sum_to_events_processed() {
        // Greedy prefetching with the predictor: every event kind but the NP
        // broadcast occurs, and replaced generations add stale events.
        let scenario = small_scenario(Scheme::Greedy, 9.0, 4)
            .with_predictor(8.0, 5.0)
            .with_motion_change_interval(20.0);
        let out = Simulation::new(scenario).unwrap().run();
        assert_eq!(out.events_by_kind.iter().sum::<u64>(), out.events_processed);
        let count = |name: &str| {
            let kind = SimEvent::KINDS.iter().position(|&n| n == name).unwrap();
            out.events_by_kind[kind]
        };
        assert_eq!(count("QueryDeadline"), out.query_log.len() as u64);
        assert_eq!(count("NpLaunch"), 0);
        for name in SimEvent::KINDS.iter().filter(|&&n| n != "NpLaunch") {
            assert!(count(name) > 0, "no {name} event in a greedy run");
        }
        assert!(
            out.peak_pending >= out.query_log.len(),
            "every deadline is seeded up front"
        );
        assert!(out.overflow_pops > 0 && out.overflow_pops < out.events_processed);
    }

    #[test]
    fn invalid_scenario_is_rejected() {
        let bad = Scenario::paper_default().with_node_count(0);
        assert!(Simulation::new(bad).is_err());
    }

    #[test]
    fn identical_seeds_give_identical_results() {
        let a = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 7))
            .unwrap()
            .run();
        let b = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 7))
            .unwrap()
            .run();
        assert_eq!(a.query_log, b.query_log);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert!((a.mean_sleeping_power_w - b.mean_sleeping_power_w).abs() < 1e-12);
    }

    #[test]
    fn jit_prefetching_beats_no_prefetching() {
        let jit = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 3))
            .unwrap()
            .run();
        let np = Simulation::new(small_scenario(Scheme::None, 9.0, 3))
            .unwrap()
            .run();
        assert!(
            jit.mean_fidelity > np.mean_fidelity + 0.1,
            "JIT fidelity {} should clearly beat NP {}",
            jit.mean_fidelity,
            np.mean_fidelity
        );
        assert!(jit.success_ratio >= np.success_ratio);
    }

    #[test]
    fn sleeping_power_stays_between_sleep_and_idle_and_above_baseline() {
        let out = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 5))
            .unwrap()
            .run();
        assert!(out.mean_sleeping_power_w >= out.baseline_sleeping_power_w - 1e-9);
        assert!(out.mean_sleeping_power_w > 0.13 && out.mean_sleeping_power_w < 0.83);
        assert!(out.query_power_overhead_w() < 0.1);
    }

    #[test]
    fn jit_keeps_a_bounded_number_of_trees_ahead() {
        let out = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 9))
            .unwrap()
            .run();
        let params = small_scenario(Scheme::JustInTime, 9.0, 9).analysis_params();
        let bound = crate::analysis::prefetch_length_jit(&params) as usize;
        // Eq. 12 bounds the trees standing at once, the current query's
        // included, so at most PLjit − 1 stand ahead of it.
        assert!(
            out.max_prefetch_length < bound,
            "observed prefetch length {} must stay below the Eq. 12 bound {}",
            out.max_prefetch_length,
            bound
        );
    }

    #[test]
    fn greedy_builds_trees_far_ahead_of_the_user() {
        let jit = Simulation::new(small_scenario(Scheme::JustInTime, 9.0, 11))
            .unwrap()
            .run();
        let gp = Simulation::new(small_scenario(Scheme::Greedy, 9.0, 11))
            .unwrap()
            .run();
        assert!(
            gp.max_prefetch_length > jit.max_prefetch_length,
            "greedy ({}) should hold more future trees than JIT ({})",
            gp.max_prefetch_length,
            jit.max_prefetch_length
        );
    }
}
