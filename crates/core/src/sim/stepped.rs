//! The stepped multi-user engine: one period boundary at a time.
//!
//! The multi-user world used to run through the discrete-event engine in one
//! run-to-completion call, which made runtime admission impossible: the
//! whole [`QuerySet`] had to exist before the first event fired.
//! [`SteppedSim`] replaces the event queue with an explicit walk over period
//! boundaries — boundary `b` performs exactly what the event engine
//! performed at instant `b·T`, in the same order — so a long-lived service
//! can [`SteppedSim::admit`] and [`SteppedSim::retire_at`] users between
//! steps while batch callers just [`SteppedSim::run_to_end`] and
//! [`SteppedSim::finish`].
//!
//! **Boundary semantics.** The event engine seeded every `PeriodInstall`
//! upfront, giving installs lower sequence numbers than any `QueryResolve`
//! scheduled during the run; at the shared instant `k·T` the installs for
//! period `k+1` therefore fired before period `k`'s resolves (temporal tree
//! sharing — a tree handed from period to period is never freed and rebuilt).
//! [`SteppedSim::step_period`] reproduces that order literally: boundary `b`
//! first installs period `b+1` (at `now = b·T`, one period ahead of its
//! deadline), then resolves period `b`. Boundary 0 only installs; the final
//! boundary `max_k` only resolves. Per-boundary work and all RNG streams are
//! bit-identical to the retired event loop, which the pinned golden multiuser
//! JSON asserts.

use crate::config::Scenario;
use crate::error::ConfigError;
use crate::sim::churn::{ChurnBatchPlan, ChurnConfig};
use crate::sim::deploy::{priority_for, Deployment};
use crate::sim::multi::{MultiUserOutput, QuerySet, TreeSharing, UserQuery};
use std::collections::HashMap;
use std::time::Instant;
use wsn_geom::{Circle, Point, StripIndex};
use wsn_metrics::{summarize_users, ChurnBatch, FaultBatch, QueryLog, QueryRecord};
use wsn_net::{
    Channel, FaultConfig, FaultPlan, FloodScratch, FloodTree, NeighborTable, NodeId, NodeRole,
    SleepSchedule, TreeCache, TreeCacheError, TreeHandle, TreeKey,
};
use wsn_power::{elect_backbone_priority, RepairableBackbone};
use wsn_sim::{mix_seed, SimRng, SimTime};

/// Stream tag for per-query scoring draws (loss, wake jitter).
pub(crate) const QUERY_STREAM: u64 = 0x5EED_0000_0000_0003;

/// Retries an install may burn beyond its first attempt when recovery is on.
const MAX_INSTALL_RETRIES: u32 = 3;
/// First retry waits this fraction of a period; each further retry doubles it.
const INSTALL_BACKOFF_FRAC: f64 = 0.05;
/// Energy one install retransmission costs the collector, in joules.
const RETRY_ENERGY_J: f64 = 0.002;

fn cache_error(e: TreeCacheError) -> ConfigError {
    ConfigError::new(format!("tree cache invariant violated: {e}"))
}

/// A query currently standing in the network.
#[derive(Debug)]
struct ActiveQuery {
    center: Point,
    installed_at: SimTime,
    tree: QueryTree,
}

/// The one tree a standing query holds.
#[derive(Debug)]
enum QueryTree {
    /// A reference-counted handle into the shared [`TreeCache`].
    Shared(TreeHandle),
    /// A tree of the query's own: every tree in [`TreeSharing::Naive`] mode,
    /// and a shared query's fallback after its root crashed. Boxed, so the
    /// map of standing queries keeps small entries.
    Naive(Box<FloodTree>),
}

impl QueryTree {
    /// The flood tree this reference stands for.
    fn get<'a>(&'a self, cache: &'a TreeCache) -> Result<&'a FloodTree, ConfigError> {
        match self {
            QueryTree::Shared(handle) => cache.tree(*handle).map_err(cache_error),
            QueryTree::Naive(tree) => Ok(tree),
        }
    }
}

/// Recycled buffers for scoring one query: the nodes in the user's actual
/// area and the query tree's members indexed for relay lookups.
/// [`SteppedSim`] reuses one across boundaries, so the warm loop allocates
/// nothing.
#[derive(Debug, Default)]
struct ScoreScratch {
    /// `(node, position)` of every node in the area, ascending by node.
    nodes_in_area: Vec<(NodeId, Point)>,
    relays: StripIndex,
}

/// The optional behaviours of one [`SteppedSim`] run. They compose: a run
/// may churn, inject faults, both or neither (the default).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimOptions {
    /// Node churn: every boundary `1 ≤ b < max_k` kills and joins
    /// `floor(rate × alive)` nodes (a pure function of the scenario seed and
    /// the boundary) and repairs the backbone incrementally instead of
    /// re-electing it.
    pub churn: Option<ChurnConfig>,
    /// Deterministic fault injection: a seeded [`FaultPlan`] (bursty
    /// per-node link loss, optional region blackout, mid-period crashes)
    /// advances at every boundary, installs walk an ack/retry state machine,
    /// and — when `recovery` is on — poisoned trees are rebuilt or degraded
    /// to naive per-user trees. In naive sharing mode `peak_live_trees`
    /// keeps its analytic all-installs-stand value even though failed
    /// installs stand no tree, so read it as an upper bound under faults.
    pub faults: Option<FaultConfig>,
}

/// Everything churn mode adds to the world: the repairable backbone, each
/// slot's election priority, the topology epoch (bumped per batch so
/// [`TreeKey`]s from different topologies never share a cached tree) and the
/// per-batch log.
#[derive(Debug)]
struct ChurnState {
    config: ChurnConfig,
    backbone: RepairableBackbone,
    /// Election priority of the node in each slot: [`priority_for`] of its
    /// uid. Slot `s` starts with uid `s`; a joiner takes `next_uid`.
    priority: Vec<u64>,
    next_uid: u64,
    epoch: u32,
    log: Vec<ChurnBatch>,
}

impl ChurnState {
    /// Gives `slot` to a node joining at `pos`: a fresh uid, and the
    /// priority derived from it — never the priority of the node that left
    /// the slot — and records the join for the next repair.
    fn join(&mut self, seed: u64, slot: usize, pos: Point) {
        self.priority[slot] = priority_for(seed, self.next_uid);
        self.next_uid += 1;
        self.backbone.note_join((self.priority[slot], slot), pos);
    }
}

/// Everything fault mode adds to the world: the seeded fault schedule, the
/// crashes in force around the current boundary, the recovery epoch (bumped
/// per crash batch so rebuilt trees never share a poisoned key) and the
/// per-boundary log.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// This boundary's crash victims as `(slot, in-period fraction)`,
    /// ascending by slot; cleared (rebooted) at the next boundary.
    crashed: Vec<(usize, f64)>,
    /// Dense mirror of `crashed` for O(1) membership tests in scoring.
    is_crashed: Vec<bool>,
    /// Fault epochs folded into every [`TreeKey`] alongside the churn epoch.
    epoch: u32,
    log: Vec<FaultBatch>,
    /// The current boundary's record: the faults that struck, and the
    /// install and repair counters accumulated until
    /// [`MultiUserWorld::flush_fault_batch`] pushes it onto `log`.
    pending: FaultBatch,
}

impl FaultState {
    fn new(plan: FaultPlan, slots: usize) -> Self {
        FaultState {
            plan,
            crashed: Vec::new(),
            is_crashed: vec![false; slots],
            epoch: 0,
            log: Vec::new(),
            pending: FaultBatch::default(),
        }
    }

    /// Walks the install ack/retry state machine for `(user, k)`: each
    /// attempt fails outright while the collector is crashed, bad-channel or
    /// blacked out, and otherwise fails with the configured loss probability
    /// drawn from the dedicated per-(user, period) install stream. Recovery
    /// retries up to [`MAX_INSTALL_RETRIES`] times behind exponential
    /// backoff; without recovery the first loss is final. Returns the
    /// backoff accumulated before the attempt that got through, in seconds,
    /// or `None` when every attempt was lost. At loss 0 with no forced
    /// faults this draws zero random numbers and returns `Some(0.0)` — the
    /// rate-0 byte-identity hinge.
    fn install_outcome(
        &mut self,
        user: u32,
        k: u64,
        collector: usize,
        collector_pos: Point,
        boundary: u64,
        period_s: f64,
    ) -> Option<f64> {
        let forced = self.is_crashed[collector]
            || self.plan.link_bad(collector)
            || self.plan.blacked_out(boundary, collector_pos);
        let loss = self.plan.config().loss;
        let attempts = if self.plan.config().recovery {
            1 + MAX_INSTALL_RETRIES
        } else {
            1
        };
        let mut rng = SimRng::seed_from_u64(self.plan.install_seed(user, k));
        let mut delay_s = 0.0;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.pending.retries += 1;
                self.pending.retry_energy_j += RETRY_ENERGY_J;
                delay_s += INSTALL_BACKOFF_FRAC * period_s * f64::from(1u32 << (attempt - 1));
            }
            self.pending.install_attempts += 1;
            if !forced && !rng.gen_bool(loss) {
                return Some(delay_s);
            }
        }
        self.pending.install_failures += 1;
        None
    }

    /// The instant `slot` crashed, in seconds, if it crashed this window
    /// (`deadline` closes the window, which opened one period earlier).
    fn crash_instant(&self, slot: usize, deadline_s: f64, period_s: f64) -> Option<f64> {
        if !self.is_crashed[slot] {
            return None;
        }
        let frac = self
            .crashed
            .iter()
            .find(|&&(s, _)| s == slot)
            .map(|&(_, f)| f)
            .unwrap_or(0.0);
        Some(deadline_s - (1.0 - frac) * period_s)
    }

    /// Whether a crashed ancestor strictly above `node` severs its path to
    /// the collector (recovery-off trees keep such poisoned paths; recovery
    /// rebuilds around them).
    fn severed(&self, tree: &FloodTree, node: NodeId) -> bool {
        let mut cur = node;
        while let Some(parent) = tree.parent_of(cur) {
            if self.is_crashed[parent.index()] {
                return true;
            }
            cur = parent;
        }
        false
    }
}

/// The multi-user protocol world, stepped one period boundary at a time.
#[derive(Debug)]
struct MultiUserWorld {
    scenario: Scenario,
    /// The substrate. A static run never changes it; churn rewrites the
    /// slots a batch kills and refills, in place.
    deployment: Deployment,
    schedule: SleepSchedule,
    channel: Channel,
    query_set: QuerySet,
    sharing: TreeSharing,
    cache: TreeCache,
    naive_scratch: FloodScratch,
    /// Trees built outside the cache: every naive-mode tree, plus shared
    /// queries' fallbacks after a root crash.
    naive_built: u64,
    active: HashMap<(u32, u64), ActiveQuery>,
    /// Wake-up cost of each distinct tree, memoised by construction key so
    /// both sharing modes charge bit-identical costs.
    tree_cost: HashMap<TreeKey, f64>,
    logs: Vec<QueryLog>,
    installs: u64,
    /// Sleeping-node wake seconds actually paid under the selected mode.
    node_wake_seconds: f64,
    /// Sleeping-node wake seconds the naive one-tree-per-user baseline would
    /// pay for the same installs (equal to `node_wake_seconds` in naive mode).
    node_wake_seconds_naive: f64,
    /// Churn mode, when enabled via [`SimOptions::churn`].
    churn: Option<ChurnState>,
    /// Fault-injection mode, when enabled via [`SimOptions::faults`].
    fault: Option<FaultState>,
}

impl MultiUserWorld {
    fn deadline(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.scenario.query.period * k
    }

    /// The pickup point for `(user, k)` predicted from the profiles delivered
    /// by `now`: the qualifying profile with the latest `effective_from` not
    /// exceeding the deadline, falling back to ground truth when none has
    /// been delivered yet.
    fn predicted_pickup(user: &UserQuery, now: SimTime, deadline: SimTime) -> Point {
        let mut best = None;
        for profile in &user.profiles {
            if profile.generated_at <= now && profile.effective_from <= deadline {
                best = Some(profile);
            }
        }
        match best {
            Some(profile) => profile.predicted_position(deadline),
            None => user.motion.position_at(deadline),
        }
    }

    /// Snaps a predicted pickup point to the centre of its lattice cell (side
    /// `Rq`), clamped into the region. Queries in the same cell share a
    /// collector and a tree; the naive mode uses the same snapped centre, so
    /// its trees are bit-identical to the shared ones.
    fn quantized_center(&self, p: Point) -> Point {
        let cell = self.scenario.query.radius_m;
        let region = self.scenario.region();
        let snap = |v: f64, lo: f64, hi: f64| {
            (((v - lo) / cell).floor() * cell + lo + cell / 2.0).clamp(lo, hi)
        };
        Point::new(
            snap(p.x, region.min_x, region.max_x),
            snap(p.y, region.min_y, region.max_y),
        )
    }

    /// The epoch folded into every [`TreeKey`]: churn batches and fault
    /// recovery each bump their own monotone counter, and the sum is still
    /// monotone — a key minted before any bump can never be re-minted after.
    fn tree_epoch(&self) -> u32 {
        self.churn.as_ref().map_or(0, |c| c.epoch) + self.fault.as_ref().map_or(0, |f| f.epoch)
    }

    /// Installs period `k`'s queries for every user active in `k`, one period
    /// ahead of the deadline (`now = (k-1)·T`). Under fault injection each
    /// install first walks the ack/retry machine: a lost install is retried
    /// behind exponential backoff (recovery on) or abandoned (recovery off),
    /// and a successful retry's backoff delays `installed_at` — pushing
    /// duty-cycled wake-ups later, the fidelity price of recovery.
    fn handle_period_install(&mut self, now: SimTime, k: u64) -> Result<(), ConfigError> {
        let deadline = self.deadline(k);
        let period_s = self.scenario.query.period.as_secs_f64();
        for index in 0..self.query_set.users().len() {
            if !self.query_set.users()[index].active_in(k) {
                continue;
            }
            let user = index as u32;
            let pickup = {
                let uq = &self.query_set.users()[index];
                Self::predicted_pickup(uq, now, deadline)
            };
            let center = self.quantized_center(pickup);
            let Some(collector) = self.deployment.nearest_collector(center, None) else {
                continue; // no backbone at all: the resolve records a miss
            };
            let key = TreeKey::new(collector, center, self.deployment.tree_radius())
                .with_epoch(self.tree_epoch());
            self.installs += 1;

            let mut installed_at = now;
            if let Some(fault) = &mut self.fault {
                let collector_pos = self.deployment.positions[collector.index()];
                let outcome = fault.install_outcome(
                    user,
                    k,
                    collector.index(),
                    collector_pos,
                    k - 1,
                    period_s,
                );
                let Some(delay_s) = outcome else {
                    continue; // no tree stands; the resolve records a miss
                };
                if delay_s > 0.0 {
                    installed_at = SimTime::from_secs_f64(now.as_secs_f64() + delay_s);
                }
            }

            let naive = self.sharing == TreeSharing::Naive;
            let (tree, cost) = self.stand_tree(key, naive, None)?;
            self.node_wake_seconds_naive += cost;
            self.active.insert(
                (user, k),
                ActiveQuery {
                    center,
                    installed_at,
                    tree,
                },
            );
        }
        Ok(())
    }

    /// Stands a tree for `key` over the tree area minus `excluded`: acquired
    /// through the cache, or — with `naive` — built as a tree of the query's
    /// own. A tree this call builds charges its wake-up cost to the selected
    /// mode. Returns the tree with that cost, which the caller charges to
    /// the naive baseline when the install is one the baseline pays for.
    ///
    /// The cost is computed once per distinct key and then served from the
    /// memo (outside crash repair, tree content is a pure function of the
    /// key, so the first computation stands for every later install of the
    /// key; see the `multi` module docs for the exception): every
    /// duty-cycled node in the key's area with an in-tree relay in range
    /// pays one buffered setup reception plus the nominal wake-up it takes
    /// to forward its reading.
    fn stand_tree(
        &mut self,
        key: TreeKey,
        naive: bool,
        excluded: Option<&[bool]>,
    ) -> Result<(QueryTree, f64), ConfigError> {
        let deployment = &self.deployment;
        let (tree, built) = if naive {
            let tree =
                deployment.flood_tree(&mut self.naive_scratch, key.root(), key.center(), excluded);
            self.naive_built += 1;
            (QueryTree::Naive(Box::new(tree)), true)
        } else {
            let (handle, built) = deployment.acquire_tree(&mut self.cache, key, excluded);
            (QueryTree::Shared(handle), built)
        };
        let flood = tree.get(&self.cache)?;
        let cost = *self.tree_cost.entry(key).or_insert_with(|| {
            let per_sleeper_s = self
                .channel
                .tx_duration(self.scenario.messages.setup_bytes)
                .as_secs_f64()
                + 0.010;
            let mut relays = StripIndex::new();
            deployment.index_relays(&mut relays, flood);
            let mut cost = 0.0;
            for _ in deployment.sleeper_relays(key.center(), &relays) {
                cost += per_sleeper_s;
            }
            cost
        });
        if built {
            self.node_wake_seconds += cost;
        }
        Ok((tree, cost))
    }

    /// Lets go of a standing query's tree: a shared reference is released,
    /// an own tree's buffers go back to the scratch.
    fn drop_tree(&mut self, tree: QueryTree) -> Result<(), ConfigError> {
        match tree {
            QueryTree::Shared(handle) => {
                self.cache.release(handle).map_err(cache_error)?;
            }
            QueryTree::Naive(tree) => self.naive_scratch.recycle(*tree),
        }
        Ok(())
    }

    /// The per-reading loss probability of period `k`: contention among
    /// every user active in `k`. It is the same for every query of the
    /// period, so a boundary computes it once, not once per result.
    fn loss_probability(&self, k: u64) -> f64 {
        let concurrency = self.query_set.active_users(k);
        self.scenario
            .mac
            .loss_probability(concurrency.saturating_sub(1))
    }

    /// Scores query `(user, k)` at its deadline — the read-only half of a
    /// resolve. `loss_p` is the period's [`Self::loss_probability`].
    /// `scratch` is caller-provided and recycled (cleared here), so the
    /// steady-state loop performs no heap allocation. It takes `&self` only,
    /// so scoring cannot touch the tree cache or the logs: every change a
    /// resolve makes is [`Self::apply_resolve`]'s. Every RNG draw comes from
    /// the dedicated per-`(user, k)` stream, so a score does not depend on
    /// which queries were scored before it.
    fn score_query(
        &self,
        user: u32,
        k: u64,
        loss_p: f64,
        scratch: &mut ScoreScratch,
    ) -> Result<QueryRecord, ConfigError> {
        let deadline = self.deadline(k);
        let uq = &self.query_set.users()[user as usize];
        let actual = uq.motion.position_at(deadline);
        let area = Circle::new(actual, self.scenario.query.radius_m);
        let nodes_in_area = &mut scratch.nodes_in_area;
        nodes_in_area.clear();
        nodes_in_area.extend(
            self.deployment
                .all_nodes_grid
                .query_range_with_pos(area.center, area.radius)
                .map(|(i, p)| (NodeId(i), p)),
        );
        // Sort so every scoring draw below happens in one deterministic order
        // whatever the grid's internal iteration order.
        nodes_in_area.sort_unstable_by_key(|&(node, _)| node);

        let Some(aq) = self.active.get(&(user, k)) else {
            return Ok(QueryRecord::missed(k, deadline, nodes_in_area.len()));
        };
        let mut rng = SimRng::seed_from_u64(mix_seed(
            self.scenario.seed,
            &[QUERY_STREAM, user as u64, k],
        ));
        let tree = aq.tree.get(&self.cache)?;
        self.deployment.index_relays(&mut scratch.relays, tree);
        let contributing = self.count_contributing(tree, scratch, aq, loss_p, &mut rng, k);
        Ok(QueryRecord {
            seq: k,
            deadline,
            delivered_at: Some(deadline),
            contributing_nodes: contributing,
            nodes_in_area: scratch.nodes_in_area.len(),
        })
    }

    /// The mutating half of a resolve: retires `(user, k)`'s tree reference
    /// and logs its record. Applied in fleet order, right after the query is
    /// scored, so cache refcounts and logs evolve in one fixed order.
    fn apply_resolve(&mut self, user: u32, k: u64, record: QueryRecord) -> Result<(), ConfigError> {
        if let Some(aq) = self.active.remove(&(user, k)) {
            self.drop_tree(aq.tree)?;
        }
        self.logs[user as usize].push(record);
        Ok(())
    }

    /// Scores one query against its installed tree, whose members
    /// `scratch.relays` indexes. Deterministic given the tree *content* —
    /// both sharing modes build bit-identical trees, iterate the same sorted
    /// `scratch.nodes_in_area` and draw from the same per-query stream, so
    /// they count the same contributors.
    ///
    /// Under fault injection, contributions are additionally lost to faults
    /// in force around boundary `k`: bad-channel nodes and nodes inside a
    /// blackout disk never deliver, crashed nodes only deliver readings
    /// scheduled *before* their mid-period crash instant, and a crashed
    /// ancestor severs every descendant still routed through it (which a
    /// recovery rebuild repairs). All fault checks are pure lookups against
    /// state precomputed serially at the boundary — no RNG — so they cannot
    /// perturb any draw stream: at fault rate 0 none of them ever fires and
    /// the count is bit-identical to a fault-free run.
    fn count_contributing(
        &self,
        tree: &FloodTree,
        scratch: &ScoreScratch,
        aq: &ActiveQuery,
        loss_p: f64,
        rng: &mut SimRng,
        k: u64,
    ) -> usize {
        let (scenario, plan, schedule) = (&self.scenario, &self.deployment.plan, &self.schedule);
        let fault = self.fault.as_ref();
        let deadline = self.deadline(k);
        let period_s = scenario.query.period.as_secs_f64();
        let deadline_s = deadline.as_secs_f64();
        let hop_s = self
            .channel
            .tx_duration(scenario.messages.setup_bytes)
            .as_secs_f64()
            + 0.001;
        let comm_range = scenario.radio.comm_range_m;
        let window_s = schedule.active_window().as_secs_f64();
        // Every duty-cycled node wakes at the first active window after the
        // install reached the area.
        let wake_s = schedule.next_awake_instant(aq.installed_at).as_secs_f64();
        let mut contributing = 0;
        for &(node, pos) in &scratch.nodes_in_area {
            if plan.is_backbone(node) {
                // Backbone: reached by the setup flood if in the tree and the
                // flood's per-hop latency fits the one-period install lead.
                let Some(depth) = tree.depth_of(node) else {
                    continue;
                };
                if let Some(f) = fault {
                    // Backbone readings land at the deadline, which every
                    // mid-window crash precedes — a crashed backbone node
                    // (or a crashed relay above it) contributes nothing.
                    if f.is_crashed[node.index()]
                        || f.plan.link_bad(node.index())
                        || f.plan.blacked_out(k, pos)
                        || f.severed(tree, node)
                    {
                        continue;
                    }
                }
                if depth as f64 * hop_s <= period_s && !rng.gen_bool(loss_p) {
                    contributing += 1;
                }
            } else {
                // Duty-cycled: needs its nearest in-tree relay in range and
                // an active window (plus delivery jitter) before the deadline.
                if let Some(f) = fault {
                    if f.plan.link_bad(node.index()) || f.plan.blacked_out(k, pos) {
                        continue;
                    }
                }
                let Some((relay, _)) = scratch.relays.nearest_within(pos, comm_range) else {
                    continue;
                };
                let jitter = rng.gen_range_f64(0.0, window_s * 0.5);
                let delivered = SimTime::from_secs_f64(wake_s + jitter);
                if let Some(f) = fault {
                    // A reading delivered after its node or relay crashed —
                    // or relayed through a severed path — is lost.
                    let d = delivered.as_secs_f64();
                    let lost = f
                        .crash_instant(node.index(), deadline_s, period_s)
                        .is_some_and(|c| d > c)
                        || f.crash_instant(relay, deadline_s, period_s)
                            .is_some_and(|c| d > c)
                        || f.severed(tree, NodeId(relay));
                    if lost {
                        continue;
                    }
                }
                if delivered <= deadline && !rng.gen_bool(loss_p) {
                    contributing += 1;
                }
            }
        }
        contributing
    }

    /// Applies the seed-derived churn batch for `boundary` and repairs the
    /// backbone incrementally. Deaths go first, then the same number of joins
    /// refill the freed slots, so the population and the slot count stay
    /// fixed; the repair then promotes/demotes only the perturbed nodes, the
    /// backbone grid is patched from the flip log, the neighbour table is
    /// patched around the dead backbone slots and the flipped ones, and the
    /// topology epoch is bumped so no tree built before the batch is ever
    /// shared after it. An empty batch (`floor(rate × alive) = 0`) changes
    /// no topology: it is still logged, but the table and the epoch stay as
    /// they are, so standing trees keep being handed over instead of rebuilt.
    ///
    /// # Errors
    ///
    /// With verification on, returns a [`ConfigError`] when the repaired
    /// roles are not bit-identical to a full priority re-election, or the
    /// patched neighbour table differs from one built from scratch.
    fn apply_churn_batch(&mut self, boundary: u64) -> Result<(), ConfigError> {
        let Some(mut churn) = self.churn.take() else {
            return Ok(());
        };
        let result = self.churn_step(boundary, &mut churn);
        self.churn = Some(churn);
        result
    }

    fn churn_step(&mut self, boundary: u64, churn: &mut ChurnState) -> Result<(), ConfigError> {
        let apply_start = Instant::now();
        let (region, seed) = (self.scenario.region(), self.scenario.seed);
        let d = &mut self.deployment;
        let plan = ChurnBatchPlan::generate(seed, boundary, churn.config.rate, d.positions.len());
        let deaths = plan.deaths.len();
        let mut rng = plan.rng;
        // Slots that left or joined the backbone: the neighbour table is
        // patched around exactly these.
        let mut changed = Vec::new();
        for &s in &plan.deaths {
            let node = NodeId(s);
            d.all_nodes_grid.remove(s);
            let role = d.plan.role(node);
            if role.is_backbone() {
                d.backbone_grid.remove(s);
                changed.push(s);
            }
            churn.backbone.note_death(d.positions[s], role);
            d.plan.set_role(node, NodeRole::DutyCycled);
        }
        // Joins refill the freed slots, last-drawn first, each at a uniform
        // position; no slot array ever grows.
        for &s in plan.deaths.iter().rev() {
            let p = Point::new(
                rng.gen_range_f64(region.min_x, region.max_x),
                rng.gen_range_f64(region.min_y, region.max_y),
            );
            d.positions[s] = p;
            d.all_nodes_grid.insert(s, p);
            churn.join(seed, s, p);
        }
        let apply_grid_ms = apply_start.elapsed().as_secs_f64() * 1e3;

        let repair_start = Instant::now();
        let stats = churn.backbone.repair(
            &d.positions,
            &churn.priority,
            d.plan.roles_mut(),
            &d.all_nodes_grid,
        );
        let repair_ms = repair_start.elapsed().as_secs_f64() * 1e3;

        let apply_start = Instant::now();
        for &(slot, now_backbone) in &stats.flips {
            let s = slot as usize;
            if now_backbone {
                d.backbone_grid.insert(s, d.positions[s]);
            } else {
                d.backbone_grid.remove(s);
            }
            changed.push(s);
        }
        if deaths > 0 {
            d.neighbors.patch(&d.backbone_grid, &changed);
            churn.epoch += 1;
        }
        let apply_ms = apply_grid_ms + apply_start.elapsed().as_secs_f64() * 1e3;

        let verified = if churn.config.verify {
            let reference = self.full_election(&churn.priority);
            let d = &self.deployment;
            if reference.as_slice() != d.plan.roles() {
                return Err(ConfigError::new(format!(
                    "incremental repair diverged from full re-election at boundary {boundary}"
                )));
            }
            let rebuilt = NeighborTable::build_among(
                &d.positions,
                region,
                self.scenario.radio.comm_range_m,
                |i| reference[i].is_backbone(),
            );
            if rebuilt != d.neighbors {
                return Err(ConfigError::new(format!(
                    "patched neighbour table diverged from a rebuild at boundary {boundary}"
                )));
            }
            Some(true)
        } else {
            None
        };
        churn.log.push(ChurnBatch {
            boundary,
            deaths,
            joins: deaths,
            candidates: stats.candidates,
            evaluated: stats.evaluated,
            promoted: stats.promoted,
            demoted: stats.demoted,
            dirty_cells: stats.dirty_cells,
            apply_ms,
            repair_ms,
            verified,
        });
        Ok(())
    }

    /// A from-scratch priority election over every slot under `priority` —
    /// the backbone the incremental repair must land on.
    fn full_election(&self, priority: &[u64]) -> Vec<NodeRole> {
        let slots: Vec<usize> = (0..self.deployment.positions.len()).collect();
        elect_backbone_priority(
            &self.deployment.positions,
            priority,
            &slots,
            self.scenario.region(),
            &self.scenario.ccp,
        )
    }

    /// Advances the fault schedule across `boundary` (a no-op without fault
    /// mode): last boundary's crash victims reboot, the per-node channel
    /// chains step, this boundary's victims strike, and — when recovery is
    /// armed and anything crashed — the epoch bumps and every standing tree
    /// gets a health check.
    fn apply_fault_batch(&mut self, boundary: u64) -> Result<(), ConfigError> {
        let Some(mut fault) = self.fault.take() else {
            return Ok(());
        };
        let result = self.fault_step(boundary, &mut fault);
        self.fault = Some(fault);
        result
    }

    fn fault_step(&mut self, boundary: u64, fault: &mut FaultState) -> Result<(), ConfigError> {
        for &(slot, _) in &fault.crashed {
            fault.is_crashed[slot] = false;
        }
        let batch = fault.plan.advance(boundary);
        fault.crashed.clear();
        fault
            .crashed
            .extend(batch.crashes.iter().map(|c| (c.slot, c.frac)));
        for &(slot, _) in &fault.crashed {
            fault.is_crashed[slot] = true;
        }
        fault.pending.boundary = boundary;
        fault.pending.link_bad = fault.plan.bad_count();
        fault.pending.crashes = fault.crashed.len();
        fault.pending.blackout = batch.blackout;
        if !fault.crashed.is_empty() && fault.plan.config().recovery {
            fault.epoch += 1;
            self.fault_repair_trees(fault)?;
        }
        Ok(())
    }

    /// The per-boundary tree health check: every standing query whose tree
    /// contains a crash victim is poisoned. A poisoned query lets go of its
    /// tree and re-roots: at its old root if that survived, else at the
    /// nearest live backbone node; with no live root in reach it is dropped
    /// (an install failure). A shared query that kept its root re-acquires
    /// through the cache under the bumped epoch with the victims excluded
    /// (re-homing their descendants; a rebuild). A shared query whose root
    /// crashed degrades to a tree of its own (a naive fallback), and a naive
    /// query rebuilds its own tree the same way (a rebuild). Keys are
    /// visited in sorted order so cache bookkeeping — and therefore every
    /// output byte — is independent of hash-map iteration order.
    fn fault_repair_trees(&mut self, fault: &mut FaultState) -> Result<(), ConfigError> {
        if self.active.is_empty() {
            return Ok(());
        }
        let mut standing: Vec<(u32, u64)> = self.active.keys().copied().collect();
        standing.sort_unstable();
        let epoch = self.churn.as_ref().map_or(0, |c| c.epoch) + fault.epoch;
        let excluded = Some(fault.is_crashed.as_slice());
        for id in standing {
            let old_root = {
                let tree = self.active[&id].tree.get(&self.cache)?;
                if !fault.crashed.iter().any(|&(s, _)| tree.contains(NodeId(s))) {
                    continue;
                }
                tree.root()
            };
            let Some(mut aq) = self.active.remove(&id) else {
                continue;
            };
            let shared = matches!(aq.tree, QueryTree::Shared(_));
            self.drop_tree(aq.tree)?;
            let root = if fault.is_crashed[old_root.index()] {
                self.deployment.nearest_collector(aq.center, excluded)
            } else {
                Some(old_root)
            };
            let Some(root) = root else {
                // Every backbone node near the centre is down: nothing can
                // stand in for the tree this period.
                fault.pending.install_failures += 1;
                continue;
            };
            let key =
                TreeKey::new(root, aq.center, self.deployment.tree_radius()).with_epoch(epoch);
            let naive = !shared || root != old_root;
            aq.tree = self.stand_tree(key, naive, excluded)?.0;
            if shared && naive {
                fault.pending.naive_fallbacks += 1;
            } else {
                fault.pending.trees_rebuilt += 1;
            }
            self.active.insert(id, aq);
        }
        Ok(())
    }

    /// Closes the boundary's fault record and starts the next one (a no-op
    /// without fault mode).
    fn flush_fault_batch(&mut self) {
        if let Some(fault) = &mut self.fault {
            fault.log.push(std::mem::take(&mut fault.pending));
        }
    }
}

/// The stepped multi-user simulation: owns one deployment and walks period
/// boundaries under caller control, admitting and retiring users between
/// steps.
///
/// Boundaries run `0..=max_k`. Boundary `b` (time `b·T`) installs period
/// `b+1` (when `b < max_k`) and then resolves period `b` (when `b ≥ 1`) —
/// exactly the order the retired event loop processed the instant `b·T` in,
/// so a full walk is bit-identical to the old run-to-completion engine.
#[derive(Debug)]
pub struct SteppedSim {
    world: MultiUserWorld,
    next_boundary: u64,
    events_processed: u64,
    /// Recycled scoring buffers for the resolve loop — reused across
    /// boundaries so the warm steady state allocates nothing.
    resolve_scratch: ScoreScratch,
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
        let fault = match options.faults {
            Some(config) => {
                let plan = FaultPlan::new(config, scenario.seed, slots)
                    .map_err(|e| ConfigError::new(format!("invalid fault config: {e}")))?;
                Some(FaultState::new(plan, slots))
            }
            None => None,
        };
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
            .map(|(config, backbone)| ChurnState {
                config,
                backbone,
                priority: (0..slots as u64)
                    .map(|uid| priority_for(scenario.seed, uid))
                    .collect(),
                next_uid: slots as u64,
                epoch: 0,
                log: Vec::new(),
            });
        let world = MultiUserWorld {
            schedule: scenario.sleep_schedule(),
            channel: Channel::new(scenario.radio, scenario.mac),
            scenario,
            deployment,
            logs: query_set
                .users()
                .iter()
                .map(|uq| {
                    let mut log = QueryLog::new();
                    log.reserve((uq.last_k - uq.first_k + 1) as usize);
                    log
                })
                .collect(),
            query_set,
            sharing,
            cache: TreeCache::new(),
            naive_scratch: FloodScratch::new(),
            naive_built: 0,
            active: HashMap::new(),
            tree_cost: HashMap::new(),
            installs: 0,
            node_wake_seconds: 0.0,
            node_wake_seconds_naive: 0.0,
            churn,
            fault,
        };
        Ok(SteppedSim {
            world,
            next_boundary: 0,
            events_processed: 0,
            resolve_scratch: ScoreScratch::default(),
        })
    }

    /// The query set as it currently stands (admissions included).
    pub fn query_set(&self) -> &QuerySet {
        &self.world.query_set
    }

    /// The scenario the deployment was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.world.scenario
    }

    /// Per-user query logs, index = fleet index. Grows as boundaries resolve.
    pub fn logs(&self) -> &[QueryLog] {
        &self.world.logs
    }

    /// The next boundary [`SteppedSim::step_period`] will process
    /// (`0..=max_k`); the earliest period a new admission can first be active
    /// in is `next_boundary() + 1`.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// The last boundary of the run (= the scenario's period count).
    pub fn max_k(&self) -> u64 {
        self.world.query_set.max_k()
    }

    /// Per-boundary churn records so far (empty in a static run, and in a
    /// churn run before boundary 1).
    pub fn churn_log(&self) -> &[ChurnBatch] {
        self.world.churn.as_ref().map_or(&[], |c| c.log.as_slice())
    }

    /// Per-boundary fault records so far (one per boundary stepped in fault
    /// mode, empty otherwise). Every field is deterministic in the seed.
    pub fn fault_log(&self) -> &[FaultBatch] {
        self.world.fault.as_ref().map_or(&[], |f| f.log.as_slice())
    }

    /// The current backbone membership as ascending slot indices — the
    /// deterministic digest the CI churn gate compares across `--jobs`
    /// settings and against [`SteppedSim::reference_reelection`].
    pub fn backbone_slots(&self) -> Vec<u32> {
        self.world
            .deployment
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
        let world = &self.world;
        let roles = match &world.churn {
            Some(churn) => world.full_election(&churn.priority),
            // A static run's slots still hold their initial uids.
            None => {
                let slots = world.deployment.positions.len() as u64;
                let priority: Vec<u64> = (0..slots)
                    .map(|uid| priority_for(world.scenario.seed, uid))
                    .collect();
                world.full_election(&priority)
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

    /// Admits a user at runtime. The user's fleet index must equal the
    /// current fleet size (admission order is identity, as in a static
    /// [`QuerySet`]), and its window must start after every period already
    /// installed — `first_k > next_boundary()` — so the admission behaves
    /// exactly like a user that had been in the set from the start.
    ///
    /// Returns the admitted fleet index.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an out-of-order fleet index, a window
    /// outside `1..=max_k`, or a `first_k` that is already installed.
    pub fn admit(&mut self, user: UserQuery) -> Result<usize, ConfigError> {
        let index = self.world.query_set.len();
        if user.user != index {
            return Err(ConfigError::new(format!(
                "admission out of order: user index {} but fleet size {}",
                user.user, index
            )));
        }
        if user.first_k < 1 || user.first_k > user.last_k || user.last_k > self.max_k() {
            return Err(ConfigError::new(format!(
                "user {} window [{}, {}] outside 1..={}",
                user.user,
                user.first_k,
                user.last_k,
                self.max_k()
            )));
        }
        if user.first_k <= self.next_boundary {
            return Err(ConfigError::new(format!(
                "user {} first period {} is already installed (next boundary {})",
                user.user, user.first_k, self.next_boundary
            )));
        }
        let window = (user.last_k - user.first_k + 1) as usize;
        self.world.query_set.push(user);
        let mut log = QueryLog::new();
        log.reserve(window);
        self.world.logs.push(log);
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
        let Some(uq) = self.world.query_set.users().get(user) else {
            return Err(ConfigError::new(format!(
                "unknown fleet index {user} (fleet size {})",
                self.world.query_set.len()
            )));
        };
        let installed_up_to = self.next_boundary.min(uq.last_k);
        let effective = last_k.max(uq.first_k).max(installed_up_to).min(uq.last_k);
        self.world.query_set.set_last_k(user, effective);
        Ok(effective)
    }

    /// Processes the next period boundary: installs period `b+1` (except at
    /// the final boundary) then resolves period `b` (except at boundary 0).
    /// Returns the boundary processed.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the run is already finished or a tree
    /// cache invariant is violated (a poisoned world — do not step further).
    pub fn step_period(&mut self) -> Result<u64, ConfigError> {
        let b = self.next_boundary;
        let max_k = self.max_k();
        if b > max_k {
            return Err(ConfigError::new(format!(
                "stepped past the final boundary {max_k}"
            )));
        }
        let now = SimTime::ZERO + self.world.scenario.query.period * b;
        // Churn fires before the boundary's installs, so period `b+1` floods
        // over the post-batch topology (the final boundary only resolves, so
        // a batch there would repair a backbone nobody queries again).
        if b >= 1 && b < max_k {
            self.world.apply_churn_batch(b)?;
        }
        // Faults advance at every boundary: the batch struck during the
        // window this boundary closes (scored by the resolves below) and is
        // what this boundary's installs must get through.
        self.world.apply_fault_batch(b)?;
        if b < max_k {
            self.world.handle_period_install(now, b + 1)?;
            self.events_processed += 1;
        }
        if b >= 1 {
            let loss_p = self.world.loss_probability(b);
            // One recycled scratch buffer, zero allocations once warm. On
            // error the scratch is dropped, but an erroring step poisons the
            // world anyway.
            let mut scratch = std::mem::take(&mut self.resolve_scratch);
            for index in 0..self.world.query_set.users().len() {
                if !self.world.query_set.users()[index].active_in(b) {
                    continue;
                }
                let record = self
                    .world
                    .score_query(index as u32, b, loss_p, &mut scratch)?;
                self.world.apply_resolve(index as u32, b, record)?;
                self.events_processed += 1;
            }
            self.resolve_scratch = scratch;
        }
        self.world.flush_fault_batch();
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
        let events_processed = self.events_processed;
        let world = self.world;
        // Refcount discipline: every install was released at its resolve.
        assert_eq!(
            world.cache.live_trees(),
            0,
            "shared trees leaked past the last query"
        );
        assert!(
            world.active.is_empty(),
            "queries left unresolved at the end of the run"
        );
        let trees_built = match world.sharing {
            // Fault recovery can degrade shared queries to naive fallback
            // trees; count those builds too (naive_built is 0 fault-free).
            TreeSharing::Shared => world.cache.trees_built() + world.naive_built,
            TreeSharing::Naive => world.naive_built,
        };
        let peak_live_trees = match world.sharing {
            TreeSharing::Shared => world.cache.peak_live_trees(),
            // The naive baseline keeps one tree per in-flight install; its
            // peak equals the largest per-period batch (installs overlap one
            // period at the k·T handover).
            TreeSharing::Naive => (1..=world.query_set.max_k())
                .map(|k| {
                    world.query_set.active_users(k)
                        + world
                            .query_set
                            .active_users(k + 1)
                            .min(if k == world.query_set.max_k() {
                                0
                            } else {
                                usize::MAX
                            })
                })
                .max()
                .unwrap_or(0),
        };
        MultiUserOutput {
            users: world.query_set.len(),
            sharing: world.sharing,
            per_user: summarize_users(&world.logs, world.scenario.fidelity_threshold),
            installs: world.installs,
            trees_built,
            shared_hits: world.cache.shared_hits(),
            peak_live_trees,
            node_wake_seconds: world.node_wake_seconds,
            node_wake_seconds_naive: world.node_wake_seconds_naive,
            events_processed,
            backbone_count: world.deployment.plan.backbone_count(),
            node_count: world.deployment.positions.len(),
            logs: world.logs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use wsn_mobility::{fleet_member, ProfileSource};
    use wsn_net::Blackout;

    fn small_scenario(seed: u64) -> Scenario {
        Scenario::paper_default()
            .with_node_count(80)
            .with_region_side(300.0)
            .with_duration_secs(40.0)
            .with_scheme(Scheme::JustInTime)
            .with_seed(seed)
    }

    fn stepped(seed: u64, users: usize, sharing: TreeSharing) -> SteppedSim {
        let scenario = small_scenario(seed);
        let set = QuerySet::generate(&scenario, users);
        SteppedSim::new(scenario, set, sharing).unwrap()
    }

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

    fn churned(seed: u64, rate: f64, verify: bool) -> SteppedSim {
        let scenario = small_scenario(seed);
        let set = QuerySet::generate(&scenario, 3);
        SteppedSim::with_churn(
            scenario,
            set,
            TreeSharing::Shared,
            ChurnConfig { rate, verify },
        )
        .unwrap()
    }

    #[test]
    fn with_churn_rejects_bad_rates() {
        let scenario = small_scenario(1);
        for rate in [0.0, -0.1, 1.0, f64::NAN, f64::INFINITY] {
            let set = QuerySet::generate(&scenario, 1);
            let churn = ChurnConfig { rate, verify: true };
            assert!(
                SteppedSim::with_churn(scenario.clone(), set, TreeSharing::Shared, churn).is_err(),
                "rate {rate} must be rejected"
            );
        }
    }

    #[test]
    fn churn_walk_verifies_repair_at_every_boundary() {
        // `verify: true` makes every boundary cross-check the incremental
        // repair against a full priority re-election, so a clean run_to_end
        // IS the equivalence assertion — for every batch in the schedule.
        let mut sim = churned(11, 0.1, true);
        let max_k = sim.max_k();
        sim.run_to_end().unwrap();
        let log = sim.churn_log();
        assert_eq!(
            log.len(),
            (max_k - 1) as usize,
            "one batch per 1 ≤ b < max_k"
        );
        assert!(log.iter().all(|b| b.verified == Some(true)));
        assert!(log.iter().all(|b| b.deaths == b.joins));
        assert!(
            log.iter().any(|b| b.deaths > 0),
            "a 10% rate on 80 nodes must actually churn"
        );
    }

    #[test]
    fn joiners_refill_the_last_drawn_slot_first_with_fresh_priorities() {
        // A joiner is a new node: slots are refilled in reverse draw order
        // (the last death's slot takes the first fresh uid) and each gets
        // the priority of its fresh uid, never its predecessor's.
        let mut sim = churned(11, 0.1, false);
        let (seed, slots) = (sim.scenario().seed, sim.scenario().node_count);
        sim.step_period().unwrap(); // boundary 0: installs only
        sim.step_period().unwrap(); // boundary 1: the first batch
        let deaths = ChurnBatchPlan::generate(seed, 1, 0.1, slots).deaths;
        assert_eq!(deaths.len(), 8, "floor(0.1 × 80)");
        let churn = sim.world.churn.as_ref().unwrap();
        for (i, &slot) in deaths.iter().rev().enumerate() {
            assert_eq!(churn.priority[slot], priority_for(seed, (slots + i) as u64));
            assert_ne!(
                churn.priority[slot],
                priority_for(seed, slot as u64),
                "slot {slot} inherited its predecessor's priority"
            );
        }
        assert_eq!(churn.next_uid, (slots + deaths.len()) as u64);
    }

    #[test]
    fn light_churn_verifies_the_spliced_neighbour_table() {
        // Two deaths per batch on 320 nodes (the small scenario's density on
        // four times the area) change too few of the ~100 backbone slots
        // for `NeighborTable::patch` to fall back to a rebuild, so it
        // splices, and `verify: true` compares every spliced table with a
        // rebuild. A batch changes at most `deaths + promoted + demoted`
        // backbone slots, so that sum at most an eighth of the members
        // proves the batch spliced.
        let scenario = small_scenario(14)
            .with_node_count(320)
            .with_region_side(600.0);
        let set = QuerySet::generate(&scenario, 3);
        let churn = ChurnConfig {
            rate: 0.008,
            verify: true,
        };
        let mut sim = SteppedSim::with_churn(scenario, set, TreeSharing::Shared, churn).unwrap();
        let mut spliced = 0;
        while !sim.is_finished() {
            sim.step_period().unwrap();
            let Some(batch) = sim.churn_log().last() else {
                continue;
            };
            let flips = batch.promoted + batch.demoted;
            let members = sim.backbone_slots().len();
            if flips > 0 && (batch.deaths + flips) * 8 <= members {
                spliced += 1;
            }
        }
        let log = sim.churn_log();
        assert!(log
            .iter()
            .all(|b| b.deaths == 2 && b.verified == Some(true)));
        assert!(spliced >= 10, "only {spliced} batches provably spliced");
    }

    #[test]
    fn backbone_matches_reference_after_the_walk() {
        let mut sim = churned(12, 0.05, false);
        sim.run_to_end().unwrap();
        let repaired = sim.backbone_slots();
        assert!(!repaired.is_empty());
        assert_eq!(repaired, sim.reference_reelection());
    }

    #[test]
    fn churn_schedule_is_deterministic_in_the_seed() {
        let walk = |seed| {
            let mut sim = churned(seed, 0.08, false);
            sim.run_to_end().unwrap();
            let deaths: Vec<usize> = sim.churn_log().iter().map(|b| b.deaths).collect();
            (deaths, sim.backbone_slots())
        };
        assert_eq!(walk(21), walk(21), "same seed, same schedule and backbone");
        assert_ne!(
            walk(21).1,
            walk(22).1,
            "different seeds churn different nodes"
        );
    }

    #[test]
    fn static_runs_have_no_churn_log() {
        let mut sim = stepped(6, 2, TreeSharing::Shared);
        sim.run_to_end().unwrap();
        assert!(sim.churn_log().is_empty());
    }

    #[test]
    fn churned_query_logs_stay_deterministic() {
        let run = || {
            let mut sim = churned(13, 0.05, false);
            sim.run_to_end().unwrap();
            sim.finish()
        };
        assert_eq!(run(), run());
    }

    fn fault_options(fault: FaultConfig) -> SimOptions {
        SimOptions {
            faults: Some(fault),
            ..SimOptions::default()
        }
    }

    fn faulted(seed: u64, users: usize, sharing: TreeSharing, fault: FaultConfig) -> SteppedSim {
        let scenario = small_scenario(seed);
        let set = QuerySet::generate(&scenario, users);
        SteppedSim::with_options(scenario, set, sharing, fault_options(fault)).unwrap()
    }

    fn mean_fidelity(out: &MultiUserOutput) -> f64 {
        let total: f64 = out.per_user.iter().map(|u| u.mean_fidelity).sum();
        total / out.per_user.len() as f64
    }

    #[test]
    fn fault_options_reject_bad_configs() {
        let scenario = small_scenario(1);
        for config in [
            FaultConfig::new(-0.1),
            FaultConfig::new(1.0),
            FaultConfig::new(f64::NAN),
            FaultConfig::new(0.1).with_burst(0.5),
            FaultConfig::new(0.1).with_crash_rate(1.5),
        ] {
            let set = QuerySet::generate(&scenario, 1);
            let options = fault_options(config);
            assert!(
                SteppedSim::with_options(scenario.clone(), set, TreeSharing::Shared, options)
                    .is_err(),
                "{config:?} must be rejected"
            );
        }
    }

    #[test]
    fn zero_rate_faults_are_byte_identical_to_no_faults() {
        // A loss-0, crash-0, no-blackout plan draws zero randomness and gates
        // nothing, so the whole run — logs, energy, tree accounting — must be
        // exactly what the fault-free engine produces.
        for sharing in [TreeSharing::Shared, TreeSharing::Naive] {
            let mut plain = stepped(7, 5, sharing);
            plain.run_to_end().unwrap();
            let mut inert = faulted(7, 5, sharing, FaultConfig::new(0.0));
            inert.run_to_end().unwrap();
            assert!(inert.fault_log().iter().all(|b| {
                b.link_bad == 0
                    && b.crashes == 0
                    && !b.blackout
                    && b.retries == 0
                    && b.install_failures == 0
            }));
            assert_eq!(inert.finish(), plain.finish(), "{sharing:?} diverged");
        }
    }

    #[test]
    fn fault_schedule_is_deterministic_in_the_seed() {
        let walk = |seed| {
            let mut sim = faulted(seed, 3, TreeSharing::Shared, FaultConfig::new(0.3));
            sim.run_to_end().unwrap();
            sim.fault_log().to_vec()
        };
        assert_eq!(walk(31), walk(31), "same seed, same fault schedule");
        let bad = |log: Vec<FaultBatch>| log.iter().map(|b| b.link_bad).collect::<Vec<_>>();
        assert_ne!(
            bad(walk(31)),
            bad(walk(32)),
            "seeds differ, schedules differ"
        );
    }

    #[test]
    fn recovery_beats_no_recovery_under_loss() {
        let run = |recovery| {
            let config = FaultConfig::new(0.3).with_recovery(recovery);
            let mut sim = faulted(7, 6, TreeSharing::Shared, config);
            sim.run_to_end().unwrap();
            sim.finish()
        };
        let on = run(true);
        let off = run(false);
        // The 80-node unit scenario never clears the paper's 95% fidelity
        // bar, so compare delivered fidelity: a failed install zeroes the
        // whole period, and retries turn a ~loss failure rate into ~loss^4.
        assert!(
            mean_fidelity(&on) > mean_fidelity(&off),
            "retry/repair must buy fidelity: on={} off={}",
            mean_fidelity(&on),
            mean_fidelity(&off)
        );
    }

    #[test]
    fn crashes_trigger_tree_repair() {
        let config = FaultConfig::new(0.05).with_crash_rate(0.05);
        let mut sim = faulted(7, 5, TreeSharing::Shared, config);
        sim.run_to_end().unwrap();
        let log = sim.fault_log().to_vec();
        assert!(
            log.iter().any(|b| b.crashes > 0),
            "5% of 80 nodes must crash"
        );
        assert!(
            log.iter()
                .any(|b| b.trees_rebuilt > 0 || b.naive_fallbacks > 0),
            "crashes into standing trees must force repairs"
        );
        sim.finish(); // refcount discipline still holds after repairs
    }

    #[test]
    fn blackout_fails_installs_inside_the_window() {
        let scenario = small_scenario(7);
        // Cover the whole region for the middle of the run: every install
        // whose collector sits anywhere is forced to fail, recovery or not.
        let blackout = Blackout {
            center: wsn_geom::Point::new(150.0, 150.0),
            radius_m: 500.0,
            from: 2,
            until: 5,
        };
        let config = FaultConfig::new(0.0).with_blackout(blackout);
        let set = QuerySet::generate(&scenario, 4);
        let options = fault_options(config);
        let mut sim =
            SteppedSim::with_options(scenario, set, TreeSharing::Shared, options).unwrap();
        sim.run_to_end().unwrap();
        let log = sim.fault_log().to_vec();
        assert_eq!(
            log.iter().filter(|b| b.blackout).count(),
            3,
            "half-open window [2,5) covers three boundaries"
        );
        assert!(
            log.iter()
                .filter(|b| b.blackout)
                .all(|b| b.install_failures > 0),
            "a region-wide blackout must fail that boundary's installs"
        );
        sim.finish();
    }
}
