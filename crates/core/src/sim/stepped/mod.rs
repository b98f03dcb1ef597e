//! The stepped multi-user engine: one period boundary at a time.
//!
//! [`SteppedSim`] walks period boundaries under caller control, so a
//! long-lived service can [`SteppedSim::admit`] and
//! [`SteppedSim::retire_at`] users between steps while batch callers just
//! [`SteppedSim::run_to_end`] and [`SteppedSim::finish`].
//!
//! **Boundary semantics.** [`SteppedSim::step_period`] processes boundary
//! `b` (at `now = b·T`) in a fixed order: the churn batch, the fault step,
//! the installs of period `b+1` (one period ahead of its deadline), then
//! the resolves of period `b`. Installing before resolving is what hands a
//! standing tree from period to period instead of freeing and rebuilding it
//! (temporal tree sharing). Boundary 0 only installs; the final boundary
//! `max_k` only resolves.
//!
//! The engine is split by layer: this module walks the boundaries and admits
//! and retires users; [`query`] holds the standing queries, the tree layer
//! and scoring; [`fault`] the fault schedule, install retries and tree
//! repair; and [`crate::sim::churn`] the churn batch step.

mod fault;
mod query;

use crate::config::Scenario;
use crate::error::ConfigError;
use crate::sim::churn::{full_election, initial_priorities, ChurnConfig, ChurnState};
use crate::sim::deploy::Deployment;
use crate::sim::multi::{MultiUserOutput, QuerySet, TreeSharing, UserQuery};
use fault::FaultState;
use query::{ActiveQuery, ScoreScratch, Trees};
use std::collections::HashMap;
use wsn_metrics::{summarize_users, ChurnBatch, FaultBatch, QueryLog};
use wsn_net::{Channel, FaultConfig, SleepSchedule};
use wsn_sim::{SimRng, SimTime};

/// The optional behaviours of one [`SteppedSim`] run. They compose: a run
/// may churn, inject faults, both or neither (the default).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimOptions {
    /// Node churn: every boundary `1 ≤ b < max_k` kills and joins
    /// `floor(rate × alive)` nodes (a pure function of the scenario seed and
    /// the boundary) and repairs the backbone incrementally instead of
    /// re-electing it.
    pub churn: Option<ChurnConfig>,
    /// Deterministic fault injection: a seeded [`wsn_net::FaultPlan`]
    /// (bursty per-node link loss, optional region blackout, mid-period
    /// crashes) advances at every boundary, installs walk an ack/retry
    /// state machine, and — when `recovery` is on — the trees that hold a
    /// crash victim are rebuilt around it or degraded to naive per-user
    /// trees; every other tree keeps standing.
    pub faults: Option<FaultConfig>,
}

/// The stepped multi-user simulation: owns one deployment and walks period
/// boundaries under caller control, admitting and retiring users between
/// steps.
///
/// Boundaries run `0..=max_k`. Boundary `b` (time `b·T`) installs period
/// `b+1` (when `b < max_k`) and then resolves period `b` (when `b ≥ 1`).
#[derive(Debug)]
pub struct SteppedSim {
    scenario: Scenario,
    /// The substrate. A static run never changes it; churn rewrites the
    /// slots a batch kills and refills, in place.
    deployment: Deployment,
    schedule: SleepSchedule,
    channel: Channel,
    query_set: QuerySet,
    /// Per-user query logs, index = fleet index.
    logs: Vec<QueryLog>,
    sharing: TreeSharing,
    trees: Trees,
    /// The queries standing in the network, by `(user, period)`.
    active: HashMap<(u32, u64), ActiveQuery>,
    installs: u64,
    /// Churn mode, when enabled via [`SimOptions::churn`].
    churn: Option<ChurnState>,
    /// Fault-injection mode, when enabled via [`SimOptions::faults`].
    fault: Option<FaultState>,
    next_boundary: u64,
    events_processed: u64,
    /// Recycled scoring buffers for the resolve loop — reused across
    /// boundaries so the warm steady state allocates nothing.
    scratch: ScoreScratch,
}

impl SteppedSim {
    /// A plain run: [`SteppedSim::with_options`] with no churn and no
    /// faults.
    ///
    /// # Errors
    ///
    /// Everything [`SteppedSim::with_options`] rejects.
    pub fn new(
        scenario: Scenario,
        query_set: QuerySet,
        sharing: TreeSharing,
    ) -> Result<Self, ConfigError> {
        Self::with_options(scenario, query_set, sharing, SimOptions::default())
    }

    /// A churned run: [`SteppedSim::with_options`] with only `churn` set.
    ///
    /// # Errors
    ///
    /// Everything [`SteppedSim::with_options`] rejects.
    pub fn with_churn(
        scenario: Scenario,
        query_set: QuerySet,
        sharing: TreeSharing,
        churn: ChurnConfig,
    ) -> Result<Self, ConfigError> {
        let options = SimOptions {
            churn: Some(churn),
            ..SimOptions::default()
        };
        Self::with_options(scenario, query_set, sharing, options)
    }

    /// Builds the deployment substrate (identical to the single-user
    /// [`crate::sim::Simulation`]: same RNG forks, same priority-order
    /// backbone) and takes ownership of `query_set` — which may be empty: a
    /// service starts idle and [`SteppedSim::admit`]s users at runtime.
    ///
    /// `options` layers churn and fault injection on the run; see
    /// [`SimOptions`]. Both compose, and neither changes the deployment, so
    /// a churn rate whose every batch is empty, or a zero-rate fault config,
    /// leaves the output byte-identical to the plain engine.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the scenario, churn rate or fault
    /// config fails validation, or the query set's period horizon disagrees
    /// with the scenario's.
    pub fn with_options(
        scenario: Scenario,
        query_set: QuerySet,
        sharing: TreeSharing,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        scenario.validate()?;
        if let Some(churn) = &options.churn {
            churn.validate()?;
        }
        // Churn refills the slots it frees, so the slot count never outgrows
        // the initial deployment and a plan over `node_count` slots fits.
        let slots = scenario.node_count;
        let fault = options
            .faults
            .map(|config| FaultState::new(config, scenario.seed, slots))
            .transpose()?;
        if query_set.max_k() != scenario.query.result_count() {
            return Err(ConfigError::new(format!(
                "query set spans {} periods but the scenario serves {}",
                query_set.max_k(),
                scenario.query.result_count()
            )));
        }
        let mut rng = SimRng::seed_from_u64(scenario.seed);
        let (deployment, repairable) =
            Deployment::build(&scenario, &mut rng, options.churn.is_some())?;
        // Churn keeps the election's raster as its repairable backbone;
        // every other run dropped it inside `Deployment::build`.
        let churn = options
            .churn
            .zip(repairable)
            .map(|(config, backbone)| ChurnState::new(config, backbone, scenario.seed, slots));
        let channel = Channel::new(scenario.radio, scenario.mac);
        let sleeper_wake_s = channel
            .tx_duration(scenario.messages.setup_bytes)
            .as_secs_f64()
            + 0.010;
        Ok(SteppedSim {
            schedule: scenario.sleep_schedule(),
            channel,
            scenario,
            deployment,
            logs: query_set.users().iter().map(Self::new_log).collect(),
            query_set,
            sharing,
            trees: Trees::new(sleeper_wake_s),
            active: HashMap::new(),
            installs: 0,
            churn,
            fault,
            next_boundary: 0,
            events_processed: 0,
            scratch: ScoreScratch::default(),
        })
    }

    /// An empty log with room for every period of `user`'s window.
    fn new_log(user: &UserQuery) -> QueryLog {
        let mut log = QueryLog::new();
        log.reserve(user.query_count() as usize);
        log
    }

    /// The deadline of period `k`, `k·T`.
    fn deadline(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.scenario.query.period * k
    }

    /// The query set as it currently stands (admissions included).
    pub fn query_set(&self) -> &QuerySet {
        &self.query_set
    }

    /// The scenario the deployment was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Per-user query logs, index = fleet index. Grows as boundaries resolve.
    pub fn logs(&self) -> &[QueryLog] {
        &self.logs
    }

    /// The next boundary [`SteppedSim::step_period`] will process
    /// (`0..=max_k`); the earliest period a new admission can first be active
    /// in is `next_boundary() + 1`.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// The last boundary of the run (= the scenario's period count).
    pub fn max_k(&self) -> u64 {
        self.query_set.max_k()
    }

    /// Per-boundary churn records so far (empty in a static run, and in a
    /// churn run before boundary 1).
    pub fn churn_log(&self) -> &[ChurnBatch] {
        self.churn.as_ref().map_or(&[], |c| c.log.as_slice())
    }

    /// Per-boundary fault records so far (one per boundary stepped in fault
    /// mode, empty otherwise). Every field is deterministic in the seed.
    pub fn fault_log(&self) -> &[FaultBatch] {
        self.fault.as_ref().map_or(&[], |f| f.log.as_slice())
    }

    /// The current backbone membership as ascending slot indices — the
    /// deterministic digest the churn golden pins and the churn sweep
    /// compares against [`SteppedSim::reference_reelection`].
    pub fn backbone_slots(&self) -> Vec<u32> {
        self.deployment
            .plan
            .backbone_nodes()
            .map(|n| n.index() as u32)
            .collect()
    }

    /// Runs a full from-scratch priority election over the current nodes
    /// and returns its backbone as ascending slot indices. In every run this
    /// must equal [`SteppedSim::backbone_slots`]: a static run elected
    /// exactly this at setup, and a churned run's incremental repair lands
    /// on it (repair ≡ re-election). Callers time this call to measure what
    /// the incremental repair saves.
    pub fn reference_reelection(&self) -> Vec<u32> {
        let positions = &self.deployment.positions;
        let roles = match &self.churn {
            Some(churn) => full_election(&self.scenario, positions, &churn.priority),
            // A static run's slots still hold their initial uids.
            None => {
                let priority = initial_priorities(self.scenario.seed, positions.len());
                full_election(&self.scenario, positions, &priority)
            }
        };
        roles
            .iter()
            .enumerate()
            .filter_map(|(s, r)| r.is_backbone().then_some(s as u32))
            .collect()
    }

    /// `true` once every boundary has been stepped.
    pub fn is_finished(&self) -> bool {
        self.next_boundary > self.max_k()
    }

    /// Admits a user at runtime. The user must pass [`QuerySet`]'s
    /// admission rule (its fleet index equals the current fleet size, and
    /// its window lies in `1..=max_k`), and its window must start after
    /// every period already installed — `first_k > next_boundary()` — so the
    /// admission behaves exactly like a user that had been in the set from
    /// the start.
    ///
    /// Returns the admitted fleet index.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an out-of-order fleet index, a window
    /// outside `1..=max_k`, or a `first_k` that is already installed.
    pub fn admit(&mut self, user: UserQuery) -> Result<usize, ConfigError> {
        if user.first_k <= self.next_boundary {
            return Err(ConfigError::new(format!(
                "user {} first period {} is already installed (next boundary {})",
                user.user, user.first_k, self.next_boundary
            )));
        }
        let index = self.query_set.push(user)?;
        self.logs
            .push(Self::new_log(&self.query_set.users()[index]));
        Ok(index)
    }

    /// Shrinks `user`'s lifetime window to end at `last_k`, clamped so that
    /// periods already installed (and the window's first period) still
    /// resolve — an install standing in the network cannot be recalled, only
    /// left to retire at its deadline.
    ///
    /// Returns the effective last period after clamping.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an unknown fleet index.
    pub fn retire_at(&mut self, user: usize, last_k: u64) -> Result<u64, ConfigError> {
        let Some(uq) = self.query_set.users().get(user) else {
            return Err(ConfigError::new(format!(
                "unknown fleet index {user} (fleet size {})",
                self.query_set.len()
            )));
        };
        let installed_up_to = self.next_boundary.min(uq.last_k);
        let effective = last_k.max(uq.first_k).max(installed_up_to).min(uq.last_k);
        self.query_set.set_last_k(user, effective);
        Ok(effective)
    }

    /// Processes the next period boundary: the churn batch and the fault
    /// step, then installs period `b+1` (except at the final boundary) and
    /// resolves period `b` (except at boundary 0). Returns the boundary
    /// processed.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the run is already finished, a churn
    /// batch fails verification, or a tree cache invariant is violated (a
    /// poisoned run — do not step further).
    pub fn step_period(&mut self) -> Result<u64, ConfigError> {
        let b = self.next_boundary;
        let max_k = self.max_k();
        if b > max_k {
            return Err(ConfigError::new(format!(
                "stepped past the final boundary {max_k}"
            )));
        }
        // Churn fires before the boundary's installs, so period `b+1` floods
        // over the post-batch topology (the final boundary only resolves, so
        // a batch there would repair a backbone nobody queries again). A
        // batch that changed the topology retires every tree key minted
        // before it.
        if let Some(churn) = &mut self.churn {
            if (1..max_k).contains(&b) && churn.step(&self.scenario, &mut self.deployment, b)? {
                self.trees.bump_epoch();
            }
        }
        // Faults advance at every boundary: the batch struck during the
        // window this boundary closes (scored by the resolves below) and is
        // what this boundary's installs must get through.
        if let Some(fault) = &mut self.fault {
            fault.step(b, &mut self.trees, &mut self.active, &self.deployment)?;
        }
        if b < max_k {
            self.install(self.deadline(b), b + 1)?;
            self.events_processed += 1;
        }
        if b >= 1 {
            self.resolve(b)?;
        }
        if let Some(fault) = &mut self.fault {
            fault.flush();
        }
        self.next_boundary = b + 1;
        Ok(b)
    }

    /// Runs every remaining boundary.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SteppedSim::step_period`] error.
    pub fn run_to_end(&mut self) -> Result<(), ConfigError> {
        while !self.is_finished() {
            self.step_period()?;
        }
        Ok(())
    }

    /// Consumes the finished run and aggregates its [`MultiUserOutput`].
    ///
    /// # Panics
    ///
    /// Panics when called before the final boundary was stepped, or when a
    /// query install leaked past the last resolve (refcount discipline).
    pub fn finish(self) -> MultiUserOutput {
        assert!(
            self.is_finished(),
            "finish() before the final boundary was stepped"
        );
        // Refcount discipline: every install was released at its resolve.
        assert_eq!(self.trees.standing(), 0, "trees leaked past the last query");
        assert!(
            self.active.is_empty(),
            "queries left unresolved at the end of the run"
        );
        MultiUserOutput {
            users: self.query_set.len(),
            sharing: self.sharing,
            per_user: summarize_users(&self.logs, self.scenario.fidelity_threshold),
            installs: self.installs,
            trees_built: self.trees.built(),
            shared_hits: self.trees.shared_hits(),
            peak_live_trees: self.trees.peak_standing(),
            node_wake_seconds: self.trees.node_wake_seconds,
            events_processed: self.events_processed,
            backbone_count: self.deployment.plan.backbone_count(),
            node_count: self.deployment.positions.len(),
            logs: self.logs,
        }
    }
}

/// The small scenario the stepped engine's unit tests run: 80 nodes on a
/// 300 m side for 40 s of MQ-JIT.
#[cfg(test)]
pub(crate) fn small_scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_node_count(80)
        .with_region_side(300.0)
        .with_duration_secs(40.0)
        .with_scheme(crate::config::Scheme::JustInTime)
        .with_seed(seed)
}

/// A plain run of [`small_scenario`] with `users` generated users.
#[cfg(test)]
pub(crate) fn stepped(seed: u64, users: usize, sharing: TreeSharing) -> SteppedSim {
    let scenario = small_scenario(seed);
    let set = QuerySet::generate(&scenario, users);
    SteppedSim::new(scenario, set, sharing).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_mobility::{fleet_member, ProfileSource};

    #[test]
    fn boundary_count_and_event_accounting() {
        let mut sim = stepped(3, 4, TreeSharing::Shared);
        let max_k = sim.max_k();
        let total_queries = sim.query_set().total_queries();
        let mut boundaries = 0u64;
        while !sim.is_finished() {
            assert_eq!(sim.step_period().unwrap(), boundaries);
            boundaries += 1;
        }
        assert_eq!(boundaries, max_k + 1, "boundaries 0..=max_k");
        assert!(sim.step_period().is_err(), "stepping past the end errors");
        let out = sim.finish();
        assert_eq!(out.events_processed, max_k + total_queries);
    }

    #[test]
    fn logs_grow_as_boundaries_resolve() {
        let mut sim = stepped(5, 1, TreeSharing::Shared);
        sim.step_period().unwrap(); // boundary 0: install only
        assert_eq!(sim.logs()[0].len(), 0);
        sim.step_period().unwrap(); // boundary 1: resolves period 1
        assert_eq!(sim.logs()[0].len(), 1);
        assert_eq!(sim.logs()[0].records()[0].seq, 1);
    }

    #[test]
    fn runtime_admission_equals_static_membership() {
        // A fleet whose windows open in fleet order, so each user can be
        // admitted at the latest legal boundary (`first_k - 1`) while keeping
        // admission order = fleet order (the per-query RNG streams are keyed
        // by fleet index, so indices must match the static run).
        let scenario = small_scenario(9);
        let max_k = scenario.query.result_count();
        let windows = [(1, max_k), (1, 6), (3, 9), (4, max_k), (7, 12)];
        let users: Vec<UserQuery> = windows
            .iter()
            .enumerate()
            .map(|(index, &(first_k, last_k))| {
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
                    first_k,
                    last_k,
                }
            })
            .collect();
        let set = QuerySet::from_users(users.clone(), max_k).unwrap();
        let mut static_sim = SteppedSim::new(scenario.clone(), set, TreeSharing::Shared).unwrap();
        static_sim.run_to_end().unwrap();
        let static_out = static_sim.finish();

        let empty = QuerySet::from_users(vec![], max_k).unwrap();
        let mut sim = SteppedSim::new(scenario, empty, TreeSharing::Shared).unwrap();
        let mut pending = users.into_iter().peekable();
        while !sim.is_finished() {
            let b = sim.next_boundary();
            while pending.peek().is_some_and(|u| u.first_k == b + 1) {
                sim.admit(pending.next().unwrap()).unwrap();
            }
            sim.step_period().unwrap();
        }
        assert!(pending.next().is_none(), "every user was admitted");
        let dynamic_out = sim.finish();
        assert_eq!(
            dynamic_out, static_out,
            "runtime admissions diverged from static membership"
        );
    }

    #[test]
    fn admission_rejects_out_of_order_and_installed_windows() {
        let mut sim = stepped(2, 2, TreeSharing::Shared);
        let scenario = small_scenario(2);
        let member = fleet_member(&scenario.motion, ProfileSource::Oracle, 9, scenario.seed);
        let make = |user, first_k, last_k| UserQuery {
            user,
            seed: member.seed,
            motion: member.motion.clone(),
            profiles: member.profiles.clone(),
            first_k,
            last_k,
        };
        assert!(sim.admit(make(5, 2, 3)).is_err(), "index gap rejected");
        assert!(sim.admit(make(2, 0, 3)).is_err(), "zero first_k rejected");
        assert!(
            sim.admit(make(2, 3, sim.max_k() + 1)).is_err(),
            "window past max_k rejected"
        );
        sim.step_period().unwrap(); // installs period 1
        assert!(
            sim.admit(make(2, 1, 3)).is_err(),
            "first period already installed"
        );
        assert!(sim.admit(make(2, 2, 3)).is_ok(), "future window admitted");
    }

    #[test]
    fn retire_clamps_to_installed_periods() {
        let mut sim = stepped(4, 1, TreeSharing::Shared);
        assert!(sim.retire_at(3, 5).is_err(), "unknown user");
        sim.step_period().unwrap(); // boundary 0: period 1 installed
        sim.step_period().unwrap(); // boundary 1: period 2 installed
                                    // Periods 1..=2 are standing; retiring "now" keeps them resolvable.
        assert_eq!(sim.retire_at(0, 0).unwrap(), 2);
        assert_eq!(sim.query_set().users()[0].last_k, 2);
        // Retiring later than the current window is a no-op shrink.
        assert_eq!(sim.retire_at(0, 99).unwrap(), 2);
        sim.run_to_end().unwrap();
        let out = sim.finish();
        assert_eq!(out.logs[0].len(), 2, "exactly the installed periods score");
    }
}
