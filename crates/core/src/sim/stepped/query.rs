//! Standing queries, the tree layer under them, and scoring.
//!
//! Boundary `b` installs period `b+1` ([`SteppedSim::install`]) and resolves
//! period `b` ([`SteppedSim::resolve`]). An install predicts each active
//! user's pickup point, snaps it to its lattice cell, picks the nearest
//! collector and stands a tree there through [`Trees`]; the query then
//! stands in the user's slot for its period until its resolve scores it
//! against that tree and lets the tree go. [`Trees`] is the tree layer: the
//! shared [`TreeCache`], the trees queries own, the memoised wake-up cost of
//! each install key, the wake-second total and the one epoch folded into
//! every [`TreeKey`].

use super::SteppedSim;
use crate::error::ConfigError;
use crate::sim::deploy::Deployment;
use crate::sim::multi::{query_slot, LiveUser, TreeSharing};
use std::collections::HashMap;
use wsn_geom::{Circle, Point, StripIndex};
use wsn_metrics::QueryRecord;
use wsn_net::{FloodScratch, FloodTree, NodeId, TreeCache, TreeCacheError, TreeHandle, TreeKey};
use wsn_sim::{mix_seed, SimRng, SimTime};

/// Stream tag for per-query scoring draws (loss, wake jitter).
const QUERY_STREAM: u64 = 0x5EED_0000_0000_0003;

fn cache_error(e: TreeCacheError) -> ConfigError {
    ConfigError::new(format!("tree cache invariant violated: {e}"))
}

/// A query currently standing in the network, held in its user's slot for
/// its period ([`LiveUser::queries`]).
#[derive(Debug)]
pub(crate) struct ActiveQuery {
    pub(super) center: Point,
    installed_at: SimTime,
    pub(super) tree: QueryTree,
}

/// The one tree a standing query holds.
#[derive(Debug)]
pub(super) enum QueryTree {
    /// A reference-counted handle into the shared [`TreeCache`].
    Shared(TreeHandle),
    /// A tree of the query's own: every tree in [`TreeSharing::Naive`] mode,
    /// and a shared query's fallback after its root crashed. Boxed, so each
    /// user's query slots stay small.
    Naive(Box<FloodTree>),
}

/// Recycled buffers for scoring one query: the nodes in the user's actual
/// area and the query tree's members indexed for relay lookups.
/// [`SteppedSim`] reuses one across boundaries, so the warm loop allocates
/// nothing.
#[derive(Debug, Default)]
pub(super) struct ScoreScratch {
    /// `(node, position)` of every node in the area, ascending by node.
    nodes_in_area: Vec<(NodeId, Point)>,
    relays: StripIndex,
}

/// The tree layer: every tree a standing query holds, how many stand at
/// once, what each costs the sleeping nodes, and the epoch that keys them.
#[derive(Debug)]
pub(super) struct Trees {
    /// Folded into every [`TreeKey`]. Only a churn batch that changes the
    /// topology bumps it ([`Trees::bump_epoch`]), so a key minted before the
    /// batch can never be minted after it. Crashes leave it alone: installs
    /// flood over crashed nodes too, and repair keys carry a repair marker.
    epoch: u32,
    cache: TreeCache,
    naive_scratch: FloodScratch,
    /// Trees built outside the cache: every naive-mode tree, plus shared
    /// queries' fallbacks after a root crash.
    naive_built: u64,
    /// Trees standing now: each distinct tree in the cache, plus each tree
    /// a query owns. [`Trees::stand`] raises it when it builds a tree and
    /// [`Trees::release`] lowers it when a tree goes.
    standing: usize,
    /// The most trees that stood at once.
    peak_standing: usize,
    /// Wake-up cost of each install key of the current epoch, so a key's
    /// cost is computed once however often its tree is rebuilt. Repair keys
    /// never enter it, and an epoch bump clears it, so it holds at most one
    /// entry per (collector, cell) pair of the current topology.
    cost: HashMap<TreeKey, f64>,
    /// Recycled relay index for computing a new tree's wake-up cost.
    relays: StripIndex,
    /// What one duty-cycled node served by a tree pays: one buffered setup
    /// reception plus the nominal wake-up it takes to forward its reading.
    sleeper_wake_s: f64,
    /// Sleeping-node wake seconds paid for every tree built.
    pub(super) node_wake_seconds: f64,
}

impl Trees {
    pub(super) fn new(sleeper_wake_s: f64) -> Self {
        Trees {
            epoch: 0,
            cache: TreeCache::new(),
            naive_scratch: FloodScratch::new(),
            naive_built: 0,
            standing: 0,
            peak_standing: 0,
            cost: HashMap::new(),
            relays: StripIndex::new(),
            sleeper_wake_s,
            node_wake_seconds: 0.0,
        }
    }

    /// The topology epoch every key is minted in.
    pub(super) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Retires every key minted so far, after a churn batch changed the
    /// topology, and with them the memoised costs no later key can match.
    /// `clear` keeps the memo's capacity, so the warm loop allocates nothing.
    pub(super) fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.cost.clear();
    }

    /// The flood tree `tree` stands for.
    pub(super) fn get<'a>(&'a self, tree: &'a QueryTree) -> Result<&'a FloodTree, ConfigError> {
        match tree {
            QueryTree::Shared(handle) => self.cache.tree(*handle).map_err(cache_error),
            QueryTree::Naive(tree) => Ok(tree),
        }
    }

    /// Stands a tree for `key` over the tree area minus `excluded`: acquired
    /// through the cache, or — with `naive` — built as a tree of the query's
    /// own. A tree this call builds is charged its wake-up cost.
    pub(super) fn stand(
        &mut self,
        deployment: &Deployment,
        key: TreeKey,
        naive: bool,
        excluded: Option<&[bool]>,
    ) -> Result<QueryTree, ConfigError> {
        let (tree, built) = if naive {
            let tree =
                deployment.flood_tree(&mut self.naive_scratch, key.root(), key.center(), excluded);
            self.naive_built += 1;
            (QueryTree::Naive(Box::new(tree)), true)
        } else {
            let (handle, built) = deployment.acquire_tree(&mut self.cache, key, excluded);
            (QueryTree::Shared(handle), built)
        };
        if built {
            self.node_wake_seconds += self.wake_cost(deployment, key, &tree)?;
            self.standing += 1;
            self.peak_standing = self.peak_standing.max(self.standing);
        }
        Ok(tree)
    }

    /// The wake-up cost of `tree`, just built for `key`: every duty-cycled
    /// node in the key's area with an in-tree relay in range pays
    /// [`Trees::sleeper_wake_s`]. An install key fixes its tree's content,
    /// so its cost is memoised; a repair's is computed from its tree.
    fn wake_cost(
        &mut self,
        deployment: &Deployment,
        key: TreeKey,
        tree: &QueryTree,
    ) -> Result<f64, ConfigError> {
        if let Some(&cost) = self.cost.get(&key) {
            return Ok(cost);
        }
        // On error the index is dropped, but an erroring step poisons the
        // run anyway.
        let mut relays = std::mem::take(&mut self.relays);
        deployment.index_relays(&mut relays, self.get(tree)?);
        let mut cost = 0.0;
        for _ in deployment.sleeper_relays(key.center(), &relays) {
            cost += self.sleeper_wake_s;
        }
        self.relays = relays;
        if !key.is_repair() {
            self.cost.insert(key, cost);
        }
        Ok(cost)
    }

    /// Lets go of a standing query's tree: a shared reference is released,
    /// and the tree goes with its last one; an own tree's buffers go back
    /// to the scratch.
    pub(super) fn release(&mut self, tree: QueryTree) -> Result<(), ConfigError> {
        let gone = match tree {
            QueryTree::Shared(handle) => self.cache.release(handle).map_err(cache_error)?,
            QueryTree::Naive(tree) => {
                self.naive_scratch.recycle(*tree);
                true
            }
        };
        if gone {
            self.standing -= 1;
        }
        Ok(())
    }

    /// Trees that still stand.
    pub(super) fn standing(&self) -> usize {
        self.standing
    }

    /// The most trees that stood at once.
    pub(super) fn peak_standing(&self) -> usize {
        self.peak_standing
    }

    /// Trees built: the cache's builds (none in naive mode) plus the trees
    /// queries own (every naive-mode tree, and the fallbacks fault recovery
    /// gives shared queries).
    pub(super) fn built(&self) -> u64 {
        self.cache.trees_built() + self.naive_built
    }

    /// Cache acquisitions served by an existing tree.
    pub(super) fn shared_hits(&self) -> u64 {
        self.cache.shared_hits()
    }
}

impl SteppedSim {
    /// The pickup point for `(user, k)` predicted from the profiles delivered
    /// by `now`: the qualifying profile with the latest `effective_from` not
    /// exceeding the deadline, falling back to ground truth when none has
    /// been delivered yet.
    fn predicted_pickup(user: &LiveUser, now: SimTime, deadline: SimTime) -> Point {
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

    /// Installs period `k`'s queries for every user active in `k`, in fleet
    /// order, one period ahead of the deadline (`now = (k-1)·T`). Under fault
    /// injection each install first walks the ack/retry machine: a lost
    /// install is retried behind exponential backoff (recovery on) or
    /// abandoned (recovery off), and a successful retry's backoff delays
    /// `installed_at` — pushing duty-cycled wake-ups later, the fidelity
    /// price of recovery.
    pub(super) fn install(&mut self, now: SimTime, k: u64) -> Result<(), ConfigError> {
        let deadline = self.deadline(k);
        let period_s = self.scenario.query.period.as_secs_f64();
        for i in 0..self.fleet.live().len() {
            let uq = &self.fleet.live()[i];
            if !self.fleet.rows()[uq.user].active_in(k) {
                continue;
            }
            let user = uq.user as u32;
            let center = self.quantized_center(Self::predicted_pickup(uq, now, deadline));
            let Some(collector) = self.deployment.nearest_collector(center, None) else {
                continue; // no backbone at all: the resolve records a miss
            };
            let key = TreeKey::new(collector, center, self.deployment.tree_radius())
                .with_epoch(self.trees.epoch());
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
            let tree = self.trees.stand(&self.deployment, key, naive, None)?;
            self.fleet.live_mut()[i].queries[query_slot(k)] = Some(ActiveQuery {
                center,
                installed_at,
                tree,
            });
        }
        Ok(())
    }

    /// Resolves period `k`: scores every query active in it at its deadline,
    /// lets its tree go and logs its record, in fleet order, so cache
    /// refcounts and logs evolve in one fixed order. Then the users whose
    /// last period was `k` let go of their trajectories.
    pub(super) fn resolve(&mut self, k: u64) -> Result<(), ConfigError> {
        let loss_p = self.loss_probability(k);
        // One recycled scratch buffer, zero allocations once warm. On error
        // the scratch is dropped, but an erroring step poisons the run
        // anyway.
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..self.fleet.live().len() {
            let uq = &self.fleet.live()[i];
            if !self.fleet.rows()[uq.user].active_in(k) {
                continue;
            }
            let record = self.score_query(uq, k, loss_p, &mut scratch)?;
            let uq = &mut self.fleet.live_mut()[i];
            if let Some(aq) = uq.queries[query_slot(k)].take() {
                self.trees.release(aq.tree)?;
            }
            self.logs[uq.user].push(record);
            self.events_processed += 1;
        }
        self.scratch = scratch;
        self.fleet.release_through(k);
        Ok(())
    }

    /// The per-reading loss probability of period `k`: contention among
    /// every user active in `k`. It is the same for every query of the
    /// period, so a boundary computes it once, not once per result.
    fn loss_probability(&self, k: u64) -> f64 {
        let concurrency = self.fleet.active_users(k);
        self.scenario
            .mac
            .loss_probability(concurrency.saturating_sub(1))
    }

    /// Scores `uq`'s query of period `k` at its deadline — the read-only half
    /// of a resolve. `loss_p` is the period's [`Self::loss_probability`].
    /// `scratch` is caller-provided and recycled (cleared here), so the
    /// steady-state loop performs no heap allocation. It takes `&self` only,
    /// so scoring cannot touch the tree cache or the logs. Every RNG draw
    /// comes from the dedicated per-`(user, k)` stream, so a score does not
    /// depend on which queries were scored before it.
    fn score_query(
        &self,
        uq: &LiveUser,
        k: u64,
        loss_p: f64,
        scratch: &mut ScoreScratch,
    ) -> Result<QueryRecord, ConfigError> {
        let deadline = self.deadline(k);
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

        let Some(aq) = &uq.queries[query_slot(k)] else {
            return Ok(QueryRecord::missed(k, deadline, nodes_in_area.len()));
        };
        let mut rng = SimRng::seed_from_u64(mix_seed(
            self.scenario.seed,
            &[QUERY_STREAM, uq.user as u64, k],
        ));
        let tree = self.trees.get(&aq.tree)?;
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

    /// Scores one query against its installed tree, whose members
    /// `scratch.relays` indexes. Deterministic given the tree *content* —
    /// both sharing modes build bit-identical trees, iterate the same sorted
    /// `scratch.nodes_in_area` and draw from the same per-query stream, so
    /// they count the same contributors.
    ///
    /// Under fault injection, contributions are additionally lost to the
    /// faults in force around boundary `k` (see the fault module's lookups).
    /// Every fault check is a pure lookup against state computed serially at
    /// the boundary — no RNG — so it cannot perturb any draw stream: at
    /// fault rate 0 none of them ever fires and the count is bit-identical
    /// to a fault-free run.
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
                if fault.is_some_and(|f| f.loses_backbone_reading(tree, node, pos, k)) {
                    continue;
                }
                if depth as f64 * hop_s <= period_s && !rng.gen_bool(loss_p) {
                    contributing += 1;
                }
            } else {
                // Duty-cycled: needs its nearest in-tree relay in range and
                // an active window (plus delivery jitter) before the deadline.
                if fault.is_some_and(|f| f.silences(node, pos, k)) {
                    continue;
                }
                let Some((relay, _)) = scratch.relays.nearest_within(pos, comm_range) else {
                    continue;
                };
                let jitter = rng.gen_range_f64(0.0, window_s * 0.5);
                let delivered = SimTime::from_secs_f64(wake_s + jitter);
                let d = delivered.as_secs_f64();
                if fault.is_some_and(|f| {
                    f.loses_relayed_reading(tree, node, relay, d, deadline_s, period_s)
                }) {
                    continue;
                }
                if delivered <= deadline && !rng.gen_bool(loss_p) {
                    contributing += 1;
                }
            }
        }
        contributing
    }
}

#[cfg(test)]
mod tests {
    use super::QueryTree;
    use crate::sim::churn::ChurnConfig;
    use crate::sim::multi::{QuerySet, TreeSharing};
    use crate::sim::stepped::{small_scenario, SimOptions, SteppedSim};
    use wsn_net::{FaultConfig, TreeHandle, TreeKey};

    #[test]
    fn the_tree_ledger_balances_at_every_boundary() {
        let options = SimOptions {
            churn: Some(ChurnConfig {
                rate: 0.05,
                verify: false,
            }),
            faults: Some(FaultConfig::new(0.1).with_crash_rate(0.05)),
        };
        for seed in [3, 7, 11] {
            for sharing in [TreeSharing::Shared, TreeSharing::Naive] {
                let scenario = small_scenario(seed);
                let set = QuerySet::generate(&scenario, 8);
                let mut sim = SteppedSim::with_options(scenario, set, sharing, options).unwrap();
                while !sim.is_finished() {
                    let b = sim.step_period().unwrap();
                    let at = format!("seed {seed}, {sharing:?}, boundary {b}");
                    // Each cached tree's holders, and the trees queries own.
                    let mut holders: Vec<(TreeHandle, u32)> = Vec::new();
                    let mut owned = 0;
                    for aq in sim.standing_queries() {
                        match aq.tree {
                            QueryTree::Shared(handle) => {
                                match holders.iter_mut().find(|(h, _)| *h == handle) {
                                    Some((_, n)) => *n += 1,
                                    None => holders.push((handle, 1)),
                                }
                            }
                            QueryTree::Naive(_) => owned += 1,
                        }
                    }
                    let cache = &sim.trees.cache;
                    for &(handle, n) in &holders {
                        assert_eq!(cache.refs(handle), n, "{at}: refcount against holders");
                    }
                    // Every held handle is live, so equal counts leave no
                    // cached tree without a holder.
                    assert_eq!(cache.live_trees(), holders.len(), "{at}: unheld tree");
                    assert_eq!(
                        sim.trees.standing(),
                        cache.live_trees() + owned,
                        "{at}: standing trees against cached plus owned"
                    );
                }
                sim.finish();
            }
        }
    }

    #[test]
    fn the_memo_holds_only_install_keys_of_the_current_epoch() {
        let churn = Some(ChurnConfig {
            rate: 0.05,
            verify: false,
        });
        let faults = Some(FaultConfig::new(0.05).with_crash_rate(0.05));
        for (churn, faults) in [(churn, None), (None, faults), (churn, faults)] {
            let scenario = small_scenario(7);
            let set = QuerySet::generate(&scenario, 6);
            let options = SimOptions { churn, faults };
            let sharing = TreeSharing::Shared;
            let mut sim = SteppedSim::with_options(scenario, set, sharing, options).unwrap();
            sim.run_to_end().unwrap();
            let trees = &sim.trees;
            assert_eq!(trees.epoch() > 0, churn.is_some());
            let current = |k: &TreeKey| k.epoch() == trees.epoch() && !k.is_repair();
            assert!(
                !trees.cost.is_empty() && trees.cost.keys().all(current),
                "{options:?}: the memo kept a repair key or an older epoch's"
            );
        }
    }
}
