//! Model-based test of the service's client API.
//!
//! Random sequences of submit, retire, poll, step and finish run against a
//! [`ServiceSim`] and, call by call, against [`Model`]: a few lines of
//! bookkeeping that say what each call must return. The sequences include
//! the calls a client gets wrong — ids the service never issued, a second
//! retire, a spec that does not match the deployment, submits once no
//! period is left, steps past the horizon — and each must come back as its
//! named [`ServiceError`] while the service keeps serving.
//!
//! A sequence that does not end in `finish` is then stepped to the horizon
//! and drained, and every result each query was handed is compared with a
//! batch replay of [`ServiceSim::query_set`], field by field.

use mobiquery::config::{Scenario, Scheme};
use mobiquery::query::QuerySpec;
use mobiquery::sim::{RunCounters, SteppedSim, TreeSharing};
use mobiquery_service::{PeriodResult, QueryId, ServiceError, ServiceSim};
use proptest::prelude::*;

/// The service horizon, in periods.
const PERIODS: u64 = 8;

/// The ids a sequence addresses: the service's own, in submission order,
/// and past them ids it never issued.
const IDS: usize = 12;

fn scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_node_count(60)
        .with_region_side(300.0)
        .with_scheme(Scheme::JustInTime)
        .with_duration_secs(2.0 * PERIODS as f64)
        .with_seed(seed)
}

fn spec(scenario: &Scenario, lifetime_periods: u64) -> QuerySpec {
    let mut spec = scenario.query.clone();
    spec.lifetime = spec.period * lifetime_periods;
    spec
}

#[derive(Debug, Clone)]
enum Op {
    /// Submit a query for this many periods; past the horizon included.
    Submit(u64),
    /// Submit a spec whose radius differs from the deployment's.
    SubmitMismatched,
    Poll(usize),
    Retire(usize),
    Step,
    Finish,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => Just(Op::Step),
        5 => (1..PERIODS + 4).prop_map(Op::Submit),
        1 => Just(Op::SubmitMismatched),
        5 => (0..IDS).prop_map(Op::Poll),
        3 => (0..IDS).prop_map(Op::Retire),
        1 => Just(Op::Finish),
    ]
}

/// What a client may expect of one query.
#[derive(Debug)]
struct ModelQuery {
    first_k: u64,
    /// The window's last period: clamped to the horizon, then cut by a
    /// retire.
    last_k: u64,
    /// The next period a poll must hand out.
    next_k: u64,
    retired: bool,
}

/// The service's contract, written as plainly as possible.
#[derive(Debug, Default)]
struct Model {
    queries: Vec<ModelQuery>,
    /// The next boundary to step. Boundary `b` installs period `b + 1` and
    /// resolves period `b`, so periods up to it are installed and periods
    /// before it have resolved.
    next_boundary: u64,
}

impl Model {
    /// A query's first period is the next one not yet installed.
    fn submit(&mut self, lifetime: u64) -> Result<u64, ServiceError> {
        let first_k = self.next_boundary + 1;
        if first_k > PERIODS {
            return Err(ServiceError::HorizonExhausted);
        }
        self.queries.push(ModelQuery {
            first_k,
            last_k: (first_k + lifetime - 1).min(PERIODS),
            next_k: first_k,
            retired: false,
        });
        Ok(self.queries.len() as u64 - 1)
    }

    /// A retire cuts the window after the last period already installed:
    /// an installed period still resolves.
    fn retire(&mut self, index: usize, id: QueryId) -> Result<u64, ServiceError> {
        let next_boundary = self.next_boundary;
        let query = self
            .queries
            .get_mut(index)
            .ok_or(ServiceError::UnknownQuery(id))?;
        if query.retired {
            return Err(ServiceError::AlreadyRetired(id));
        }
        query.retired = true;
        query.last_k = next_boundary.max(query.first_k).min(query.last_k);
        Ok(query.last_k)
    }

    /// A poll hands out every resolved period of the window it has not
    /// handed out yet, in order.
    fn poll(&mut self, index: usize, id: QueryId) -> Result<Vec<u64>, ServiceError> {
        let resolved = self.next_boundary.saturating_sub(1);
        let query = self
            .queries
            .get_mut(index)
            .ok_or(ServiceError::UnknownQuery(id))?;
        let due: Vec<u64> = (query.next_k..=query.last_k.min(resolved)).collect();
        query.next_k += due.len() as u64;
        Ok(due)
    }

    /// Steps one boundary; `None` past the horizon.
    fn step(&mut self) -> Option<u64> {
        (self.next_boundary <= PERIODS).then(|| {
            self.next_boundary += 1;
            self.next_boundary - 1
        })
    }

    /// Queries installed so far, and the engine's events: one per boundary
    /// that installs, and one per query resolved.
    fn installs_and_events(&self) -> (u64, u64) {
        let periods_in = |up_to: u64| -> u64 {
            self.queries
                .iter()
                .map(|q| (q.last_k.min(up_to) + 1).saturating_sub(q.first_k))
                .sum()
        };
        let installing_boundaries = self.next_boundary.min(PERIODS);
        let resolved = periods_in(self.next_boundary.saturating_sub(1));
        (
            periods_in(self.next_boundary),
            installing_boundaries + resolved,
        )
    }
}

fn check_counters(counters: &RunCounters, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(counters.users, model.queries.len());
    prop_assert_eq!(
        (counters.installs, counters.events_processed),
        model.installs_and_events()
    );
    Ok(())
}

proptest! {
    /// Every call returns what the model says, and a run that reaches the
    /// horizon hands each query exactly what a batch replay records.
    #[test]
    fn the_service_answers_every_call_as_the_model_does(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let scenario = scenario(seed);
        let threshold = scenario.fidelity_threshold;
        let mut svc = ServiceSim::new(scenario.clone(), TreeSharing::Shared).unwrap();
        // `QueryId` has no public constructor, so the ids this service never
        // issued are ones another service did.
        let mut other = ServiceSim::new(scenario.clone(), TreeSharing::Shared).unwrap();
        let foreign: Vec<QueryId> = (0..IDS)
            .map(|_| other.submit(&scenario.query).unwrap())
            .collect();
        let mut model = Model::default();
        let mut ids: Vec<QueryId> = Vec::new();
        let mut handed: Vec<Vec<PeriodResult>> = Vec::new();
        let id_at = |ids: &[QueryId], index: usize| ids.get(index).copied().unwrap_or(foreign[index]);

        for op in ops {
            match op {
                Op::Submit(lifetime) => {
                    let got = svc.submit(&spec(&scenario, lifetime));
                    prop_assert_eq!(got.clone().map(QueryId::index), model.submit(lifetime));
                    if let Ok(id) = got {
                        ids.push(id);
                        handed.push(Vec::new());
                    }
                }
                Op::SubmitMismatched => {
                    let mut wrong = spec(&scenario, 2);
                    wrong.radius_m += 1.0;
                    prop_assert!(matches!(svc.submit(&wrong), Err(ServiceError::Config(_))));
                }
                Op::Poll(index) => {
                    let id = id_at(&ids, index);
                    let got = svc.poll(id);
                    let periods = got
                        .as_ref()
                        .map(|results| results.iter().map(|r| r.period).collect::<Vec<_>>())
                        .map_err(Clone::clone);
                    prop_assert_eq!(periods, model.poll(index, id));
                    if let Ok(results) = got {
                        handed[index].extend(results);
                    }
                }
                Op::Retire(index) => {
                    let id = id_at(&ids, index);
                    prop_assert_eq!(svc.retire(id), model.retire(index, id));
                }
                Op::Step => match model.step() {
                    Some(b) => prop_assert_eq!(svc.step_period(), Ok(b)),
                    None => prop_assert!(matches!(svc.step_period(), Err(ServiceError::Config(_)))),
                },
                Op::Finish => {
                    // An early finish returns the counters so far.
                    return check_counters(&svc.finish(), &model);
                }
            }
            prop_assert_eq!(svc.queries_submitted(), model.queries.len());
            prop_assert_eq!(svc.next_boundary(), model.next_boundary);
        }

        // Step to the horizon and drain every query; a drained query then
        // polls empty.
        while model.step().is_some() {
            svc.step_period().unwrap();
        }
        for (index, &id) in ids.iter().enumerate() {
            let results = svc.poll(id).unwrap();
            let periods: Vec<u64> = results.iter().map(|r| r.period).collect();
            prop_assert_eq!(Ok(periods), model.poll(index, id));
            handed[index].extend(results);
            prop_assert_eq!(svc.poll(id), Ok(Vec::new()));
        }

        // Everything handed out is what a batch replay of the realized set
        // records, and so are the counters.
        let mut batch =
            SteppedSim::new(scenario, svc.query_set().unwrap(), TreeSharing::Shared).unwrap();
        batch.run_to_end().unwrap();
        let replay = batch.finish();
        prop_assert_eq!(handed.len(), replay.logs.len());
        for (results, log) in handed.iter().zip(&replay.logs) {
            prop_assert_eq!(results.len(), log.len());
            for (r, record) in results.iter().zip(log.records()) {
                prop_assert_eq!(
                    (r.period, r.delivered, r.fidelity, r.succeeded),
                    (record.seq, record.met_deadline(), record.fidelity(), record.succeeded(threshold))
                );
                prop_assert_eq!(
                    (r.contributing, r.nodes_in_area),
                    (record.contributing_nodes, record.nodes_in_area)
                );
            }
        }
        let counters = svc.finish();
        check_counters(&counters, &model)?;
        prop_assert_eq!(
            (counters.trees_built, counters.shared_hits, counters.peak_live_trees),
            (replay.trees_built, replay.shared_hits, replay.peak_live_trees)
        );
        prop_assert_eq!(counters.node_wake_seconds, replay.node_wake_seconds);
    }
}
