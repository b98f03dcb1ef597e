//! # mobiquery-service
//!
//! The long-lived query service over the MobiQuery reproduction: one
//! deployment, many clients, queries arriving and retiring at runtime.
//!
//! A batch trial runs a fixed [`QuerySet`] through
//! [`mobiquery::sim::SteppedSim`] to completion; the daemon shape is —
//! a resident process that owns the deployment and serves queries as they
//! arrive. [`ServiceSim`] is that daemon's core, structured like the
//! embedded-DB split of the related `spatio` repo: the engine is a library
//! (`submit`/`retire`/`poll` are plain method calls), and transports can be
//! layered on without touching simulation code.
//!
//! * [`ServiceSim::submit`] admits a [`QuerySpec`] for the next period
//!   boundary and returns a [`QueryId`].
//! * [`ServiceSim::poll`] drains the results scored since the last poll out
//!   of the engine.
//! * [`ServiceSim::retire`] ends a query's lifetime early — clamped so
//!   installs already standing in the network still resolve.
//! * [`ServiceSim::step_period`] advances one period boundary; admissions
//!   and retirements take effect exactly at boundaries, mapping one-to-one
//!   onto `wsn_net::TreeCache` refcount acquire/release.
//!
//! Everything stays deterministic: client `n` maps to fleet index `n`, so a
//! service run is bit-identical to the same schedule replayed as a static
//! [`QuerySet`] — the reference-equivalence suite pins this. The [`load`]
//! module drives the service with an open-loop arrival schedule and reports
//! tail latency; [`serve`] streams one resident query's per-period results.
//!
//! **What a resident service holds.** A fixed-size row per query ever
//! submitted (its window and whether it was retired); each standing query's
//! trajectory and profiles, until its last period has resolved; and each
//! query's results until its client polls them. So a client that polls
//! after every boundary leaves the service holding state in proportion to
//! the queries standing, not to how many it has served.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod serve;

use mobiquery::config::Scenario;
use mobiquery::error::ConfigError;
use mobiquery::query::QuerySpec;
use mobiquery::sim::{
    FaultConfig, QuerySet, RunCounters, SimOptions, SteppedSim, TreeSharing, UserQuery,
};
use std::error::Error;
use std::fmt;
use wsn_metrics::{FaultBatch, QueryLog, QueryRecord};
use wsn_mobility::fleet_member;

/// Opaque handle a client holds for a submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// The raw index (= fleet index of the query's service user).
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// An error returned by the service's client API.
///
/// Client mistakes (an unknown id, a double retire) are plain error values —
/// the daemon answers them and keeps serving; they never reach the tree
/// cache, whose own `wsn_net::TreeCacheError` now also
/// surfaces as an error instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The scenario, query spec or engine state was invalid.
    Config(ConfigError),
    /// No query with this id was ever submitted.
    UnknownQuery(QueryId),
    /// The query was already retired by an earlier call.
    AlreadyRetired(QueryId),
    /// The service has no period left to first-install a new query in.
    HorizonExhausted,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "{e}"),
            ServiceError::UnknownQuery(id) => write!(f, "unknown query id {id}"),
            ServiceError::AlreadyRetired(id) => write!(f, "query {id} was already retired"),
            ServiceError::HorizonExhausted => {
                write!(
                    f,
                    "service horizon exhausted: no period left to serve a new query"
                )
            }
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}

/// One period's outcome for a submitted query, as returned by
/// [`ServiceSim::poll`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodResult {
    /// The period index `k` (1-based, deadline `k·T`).
    pub period: u64,
    /// Whether a result was delivered by the deadline at all.
    pub delivered: bool,
    /// Fraction of the nodes in the query area that contributed.
    pub fidelity: f64,
    /// Delivered, on time, and above the scenario's fidelity threshold.
    pub succeeded: bool,
    /// Number of contributing nodes.
    pub contributing: usize,
    /// Number of nodes in the query area at the deadline.
    pub nodes_in_area: usize,
}

impl PeriodResult {
    fn from_record(record: &QueryRecord, threshold: f64) -> Self {
        PeriodResult {
            period: record.seq,
            delivered: record.met_deadline(),
            fidelity: record.fidelity(),
            succeeded: record.succeeded(threshold),
            contributing: record.contributing_nodes,
            nodes_in_area: record.nodes_in_area,
        }
    }
}

/// The service user behind query `index`: fleet member `index` of the
/// scenario's fleet, active in `first_k..=last_k`. A batch replay regenerates
/// it bit for bit.
fn service_user(scenario: &Scenario, index: usize, first_k: u64, last_k: u64) -> UserQuery {
    let member = fleet_member(
        &scenario.motion,
        scenario.profile_source,
        index,
        scenario.seed,
    );
    UserQuery {
        user: index,
        seed: member.seed,
        motion: member.motion,
        profiles: member.profiles,
        first_k,
        last_k,
    }
}

/// The long-lived query service: a deployment plus the stepped multi-user
/// engine, fronted by an in-process client API.
///
/// The service starts idle. Each [`ServiceSim::submit`] maps the client to
/// the next fleet index — so a finished service run equals a batch
/// [`SteppedSim`] walk over [`ServiceSim::query_set`] — and
/// each [`ServiceSim::step_period`] installs the next period's trees
/// (acquiring `wsn_net::TreeCache` references) and
/// resolves the previous period's queries (releasing them).
#[derive(Debug)]
pub struct ServiceSim {
    stepped: SteppedSim,
    /// Whether each query, by id (= fleet index), was retired by its client.
    retired: Vec<bool>,
}

impl ServiceSim {
    /// Builds the deployment for `scenario` and starts an idle service.
    ///
    /// The scenario's query spec defines the service's fixed period, area
    /// radius and horizon (`scenario.query.result_count()` periods); every
    /// submitted spec must agree on period and radius.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] when the scenario fails validation
    /// or its deployment fails to build, like [`SteppedSim::with_options`]
    /// (more than `wsn_power::MAX_COVERAGE_COUNT` nodes covering one
    /// coverage sample point).
    pub fn new(scenario: Scenario, sharing: TreeSharing) -> Result<Self, ServiceError> {
        Self::open(scenario, sharing, None)
    }

    /// [`ServiceSim::new`] with deterministic fault injection enabled: the
    /// service walks the same boundaries under a seeded fault schedule
    /// (see [`SimOptions::faults`]). A config with zero loss, no crashes and
    /// no blackout serves byte-identically to [`ServiceSim::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] when the scenario or fault config
    /// fails validation.
    pub fn with_faults(
        scenario: Scenario,
        sharing: TreeSharing,
        fault: FaultConfig,
    ) -> Result<Self, ServiceError> {
        Self::open(scenario, sharing, Some(fault))
    }

    /// The one constructor behind [`ServiceSim::new`] and
    /// [`ServiceSim::with_faults`]: an idle service, faulted when `faults`
    /// is set.
    pub(crate) fn open(
        scenario: Scenario,
        sharing: TreeSharing,
        faults: Option<FaultConfig>,
    ) -> Result<Self, ServiceError> {
        let horizon = scenario.query.result_count();
        let empty = QuerySet::from_users(Vec::new(), horizon)?;
        let options = SimOptions {
            faults,
            ..SimOptions::default()
        };
        Ok(ServiceSim {
            stepped: SteppedSim::with_options(scenario, empty, sharing, options)?,
            retired: Vec::new(),
        })
    }

    /// Admits a query starting at the next period boundary.
    ///
    /// The spec's lifetime is translated to whole periods and clamped to the
    /// service horizon; its period and radius must match the deployment's
    /// (one shared lattice is what makes tree sharing sound).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] for an invalid or mismatched spec,
    /// [`ServiceError::HorizonExhausted`] when no period is left to serve.
    pub fn submit(&mut self, spec: &QuerySpec) -> Result<QueryId, ServiceError> {
        spec.validate()?;
        let scenario = self.stepped.scenario();
        if spec.period != scenario.query.period {
            return Err(ConfigError::new(format!(
                "spec period {:?} differs from the service period {:?}",
                spec.period, scenario.query.period
            ))
            .into());
        }
        if spec.radius_m != scenario.query.radius_m {
            return Err(ConfigError::new(format!(
                "spec radius {} m differs from the service radius {} m",
                spec.radius_m, scenario.query.radius_m
            ))
            .into());
        }
        let first_k = self.stepped.next_boundary() + 1;
        if first_k > self.stepped.max_k() {
            return Err(ServiceError::HorizonExhausted);
        }
        let lifetime_periods = spec.lifetime.as_micros() / spec.period.as_micros();
        // At least one period (validated); a longer lifetime saturates.
        let last_k = first_k
            .saturating_add(lifetime_periods - 1)
            .min(self.stepped.max_k());

        let index = self.retired.len();
        let user = service_user(self.stepped.scenario(), index, first_k, last_k);
        self.stepped.admit(user)?;
        self.retired.push(false);
        Ok(QueryId(index as u64))
    }

    /// Retires a query now: its window is cut at the last period already
    /// installed (standing installs still resolve — a tree reference in the
    /// network cannot be recalled, only released at its deadline).
    ///
    /// Returns the effective last period of the query.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownQuery`] / [`ServiceError::AlreadyRetired`] for
    /// client mistakes — both leave the service running.
    pub fn retire(&mut self, id: QueryId) -> Result<u64, ServiceError> {
        let user = id.0 as usize;
        match self.retired.get(user) {
            None => return Err(ServiceError::UnknownQuery(id)),
            Some(true) => return Err(ServiceError::AlreadyRetired(id)),
            Some(false) => {}
        }
        let effective = self.stepped.retire_at(user, self.stepped.next_boundary())?;
        self.retired[user] = true;
        Ok(effective)
    }

    /// Drains the results scored for `id` since the last poll, in period
    /// order, out of the service. An empty vector means no new period
    /// resolved yet; once the query's last result has been polled, the
    /// service keeps nothing of it but its row.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownQuery`] for an id never issued. Polling a
    /// retired query is fine — its remaining results stay readable.
    pub fn poll(&mut self, id: QueryId) -> Result<Vec<PeriodResult>, ServiceError> {
        let threshold = self.stepped.scenario().fidelity_threshold;
        let log = self.drain(id)?;
        Ok(log
            .records()
            .iter()
            .map(|r| PeriodResult::from_record(r, threshold))
            .collect())
    }

    /// [`ServiceSim::poll`]'s records, before they become results.
    pub(crate) fn drain(&mut self, id: QueryId) -> Result<QueryLog, ServiceError> {
        self.stepped
            .drain_log(id.0 as usize)
            .ok_or(ServiceError::UnknownQuery(id))
    }

    /// Advances one period boundary: installs next period's query trees,
    /// then scores the previous period's queries. Returns the boundary
    /// processed.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] when the run is already finished or an
    /// engine invariant is violated.
    pub fn step_period(&mut self) -> Result<u64, ServiceError> {
        Ok(self.stepped.step_period()?)
    }

    /// `true` once the final boundary has been stepped.
    pub fn is_finished(&self) -> bool {
        self.stepped.is_finished()
    }

    /// The next boundary [`ServiceSim::step_period`] will process.
    pub fn next_boundary(&self) -> u64 {
        self.stepped.next_boundary()
    }

    /// The service horizon in periods.
    pub fn max_k(&self) -> u64 {
        self.stepped.max_k()
    }

    /// The scenario the deployment was built from.
    pub fn scenario(&self) -> &Scenario {
        self.stepped.scenario()
    }

    /// Number of queries submitted so far.
    pub fn queries_submitted(&self) -> usize {
        self.retired.len()
    }

    /// Per-boundary fault records so far (empty without fault injection).
    pub fn fault_log(&self) -> &[FaultBatch] {
        self.stepped.fault_log()
    }

    /// The realized query set — the exact static [`QuerySet`] that, run
    /// through a batch [`SteppedSim`] walk, replays this service run bit for
    /// bit. The service no longer holds the trajectories of queries that
    /// ended, so this rebuilds every user from its row through
    /// [`fleet_member`], as [`ServiceSim::submit`] built it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] only if a row broke the admission rule
    /// [`ServiceSim::submit`] already checked.
    pub fn query_set(&self) -> Result<QuerySet, ServiceError> {
        let scenario = self.stepped.scenario();
        let users = self
            .stepped
            .rows()
            .iter()
            .enumerate()
            .map(|(index, row)| service_user(scenario, index, row.first_k, row.last_k))
            .collect();
        Ok(QuerySet::from_users(users, self.max_k())?)
    }

    /// Ends the service and returns the engine's counters. At the horizon
    /// it first checks that every tree was released; before it, it returns
    /// the counters so far, and the queries still standing end with it.
    ///
    /// # Panics
    ///
    /// At the horizon, panics when a tree or query leaked past the last
    /// resolve (the engine's refcount discipline).
    pub fn finish(self) -> RunCounters {
        self.stepped.into_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiquery::config::Scheme;
    use wsn_sim::{Duration, SimTime};

    fn small_scenario(seed: u64) -> Scenario {
        Scenario::paper_default()
            .with_node_count(80)
            .with_region_side(300.0)
            .with_duration_secs(40.0)
            .with_scheme(Scheme::JustInTime)
            .with_seed(seed)
    }

    fn spec_for(scenario: &Scenario, lifetime_periods: u64) -> QuerySpec {
        let mut spec = scenario.query.clone();
        spec.lifetime = spec.period * lifetime_periods;
        spec
    }

    #[test]
    fn a_result_delivered_after_its_deadline_is_not_delivered() {
        let on_time = QueryRecord {
            seq: 3,
            deadline: SimTime::from_secs(6),
            delivered_at: Some(SimTime::from_secs(6)),
            contributing_nodes: 10,
            nodes_in_area: 10,
        };
        let late = QueryRecord {
            delivered_at: Some(SimTime::from_secs(7)),
            ..on_time
        };
        assert!(PeriodResult::from_record(&on_time, 0.95).delivered);
        let result = PeriodResult::from_record(&late, 0.95);
        assert!(!result.delivered && !result.succeeded);
    }

    #[test]
    fn submit_step_poll_round_trip() {
        let scenario = small_scenario(3);
        let mut svc = ServiceSim::new(scenario.clone(), TreeSharing::Shared).unwrap();
        let id = svc.submit(&spec_for(&scenario, 5)).unwrap();
        assert_eq!(svc.poll(id).unwrap(), vec![], "nothing scored yet");
        svc.step_period().unwrap(); // boundary 0: installs period 1
        assert_eq!(svc.poll(id).unwrap(), vec![], "period 1 not resolved yet");
        svc.step_period().unwrap(); // boundary 1: resolves period 1
        let results = svc.poll(id).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].period, 1);
        assert!(results[0].delivered);
        assert_eq!(svc.poll(id).unwrap(), vec![], "poll drains");
        for _ in 0..4 {
            svc.step_period().unwrap();
        }
        let rest = svc.poll(id).unwrap();
        assert_eq!(rest.len(), 4, "5-period lifetime yields 5 results total");
        assert_eq!(rest.last().unwrap().period, 5);
    }

    #[test]
    fn client_mistakes_are_errors_not_crashes() {
        let scenario = small_scenario(5);
        let mut svc = ServiceSim::new(scenario.clone(), TreeSharing::Shared).unwrap();
        let bogus = QueryId(7);
        assert_eq!(svc.poll(bogus), Err(ServiceError::UnknownQuery(bogus)));
        assert_eq!(svc.retire(bogus), Err(ServiceError::UnknownQuery(bogus)));

        let id = svc.submit(&spec_for(&scenario, 8)).unwrap();
        svc.step_period().unwrap();
        svc.step_period().unwrap();
        let last = svc.retire(id).unwrap();
        assert_eq!(last, 2, "installed periods keep resolving");
        assert_eq!(svc.retire(id), Err(ServiceError::AlreadyRetired(id)));
        // The service keeps serving after every error above.
        let id2 = svc.submit(&spec_for(&scenario, 2)).unwrap();
        while !svc.is_finished() {
            svc.step_period().unwrap();
        }
        assert_eq!(svc.poll(id).unwrap().len(), 2);
        assert_eq!(svc.poll(id2).unwrap().len(), 2);
        let out = svc.finish();
        assert_eq!(out.users, 2);
    }

    #[test]
    fn an_early_finish_returns_the_counters_so_far() {
        let scenario = small_scenario(6);
        let mut svc = ServiceSim::new(scenario.clone(), TreeSharing::Shared).unwrap();
        svc.submit(&spec_for(&scenario, 6)).unwrap();
        for _ in 0..3 {
            svc.step_period().unwrap();
        }
        let counters = svc.finish();
        assert_eq!(counters.users, 1);
        assert_eq!(
            counters.installs, 3,
            "boundaries 0..=2 installed periods 1..=3"
        );
        assert_eq!(
            counters.events_processed, 5,
            "three installing boundaries and two resolves"
        );
    }

    #[test]
    fn mismatched_specs_are_rejected() {
        let scenario = small_scenario(1);
        let mut svc = ServiceSim::new(scenario.clone(), TreeSharing::Shared).unwrap();
        let mut wrong_period = spec_for(&scenario, 4);
        wrong_period.period = Duration::from_secs(3);
        wrong_period.lifetime = Duration::from_secs(12);
        assert!(matches!(
            svc.submit(&wrong_period),
            Err(ServiceError::Config(_))
        ));
        let mut wrong_radius = spec_for(&scenario, 4);
        wrong_radius.radius_m += 1.0;
        assert!(matches!(
            svc.submit(&wrong_radius),
            Err(ServiceError::Config(_))
        ));
        let mut invalid = spec_for(&scenario, 4);
        invalid.radius_m = -1.0;
        assert!(matches!(svc.submit(&invalid), Err(ServiceError::Config(_))));
        assert_eq!(svc.queries_submitted(), 0);
    }

    #[test]
    fn horizon_exhaustion_is_reported() {
        let scenario = small_scenario(2);
        let mut svc = ServiceSim::new(scenario.clone(), TreeSharing::Shared).unwrap();
        while !svc.is_finished() {
            svc.step_period().unwrap();
        }
        assert_eq!(
            svc.submit(&spec_for(&scenario, 1)),
            Err(ServiceError::HorizonExhausted)
        );
    }

    #[test]
    fn lifetime_clamps_to_the_horizon() {
        let scenario = small_scenario(4);
        let mut svc = ServiceSim::new(scenario.clone(), TreeSharing::Shared).unwrap();
        let id = svc.submit(&spec_for(&scenario, 10_000)).unwrap();
        while !svc.is_finished() {
            svc.step_period().unwrap();
        }
        let results = svc.poll(id).unwrap();
        assert_eq!(results.len() as u64, svc.max_k(), "clamped to the horizon");

        // A 1 µs period makes the longest lifetime nearly `u64::MAX` periods,
        // so the window's end must saturate, not overflow.
        let mut scenario = small_scenario(4);
        scenario.query.period = Duration::from_micros(1);
        scenario.query.freshness = Duration::from_micros(1);
        scenario.query.lifetime = Duration::from_micros(8);
        let mut svc = ServiceSim::new(scenario.clone(), TreeSharing::Shared).unwrap();
        svc.step_period().unwrap();
        let mut spec = scenario.query.clone();
        spec.lifetime = Duration::MAX;
        let id = svc.submit(&spec).unwrap();
        while !svc.is_finished() {
            svc.step_period().unwrap();
        }
        let periods: Vec<u64> = svc.poll(id).unwrap().iter().map(|r| r.period).collect();
        assert_eq!(
            periods,
            (2..=8).collect::<Vec<_>>(),
            "clamped to the horizon"
        );
    }
}
