//! Fault injection in the stepped engine: the seeded fault schedule, the
//! install ack/retry machine, the crash lookups scoring consults, and the
//! boundary step that reboots, strikes and repairs the trees crashes poison.

use super::query::{QueryTree, Trees};
use crate::error::ConfigError;
use crate::sim::deploy::Deployment;
use crate::sim::multi::LiveUser;
use wsn_geom::Point;
use wsn_metrics::FaultBatch;
use wsn_net::{FaultConfig, FaultPlan, FloodTree, NodeId, TreeKey};
use wsn_sim::SimRng;

/// Retries an install may burn beyond its first attempt when recovery is on.
const MAX_INSTALL_RETRIES: u32 = 3;
/// First retry waits this fraction of a period; each further retry doubles it.
const INSTALL_BACKOFF_FRAC: f64 = 0.05;
/// Energy one install retransmission costs the collector, in joules.
const RETRY_ENERGY_J: f64 = 0.002;

/// Everything fault mode adds to a stepped run: the seeded fault schedule,
/// the crashes in force around the current boundary and the per-boundary
/// log.
#[derive(Debug)]
pub(super) struct FaultState {
    plan: FaultPlan,
    /// This boundary's crash victims as `(slot, in-period fraction)`,
    /// ascending by slot; cleared (rebooted) at the next boundary.
    crashed: Vec<(usize, f64)>,
    /// Dense mirror of `crashed` for O(1) membership tests in scoring.
    is_crashed: Vec<bool>,
    pub(super) log: Vec<FaultBatch>,
    /// The current boundary's record: the faults that struck, and the
    /// install and repair counters accumulated until [`FaultState::flush`]
    /// pushes it onto `log`.
    pending: FaultBatch,
}

impl FaultState {
    /// Faults over `slots` slots of a deployment seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `config` fails validation.
    pub(super) fn new(config: FaultConfig, seed: u64, slots: usize) -> Result<Self, ConfigError> {
        let plan = FaultPlan::new(config, seed, slots)
            .map_err(|e| ConfigError::new(format!("invalid fault config: {e}")))?;
        Ok(FaultState {
            plan,
            crashed: Vec::new(),
            is_crashed: vec![false; slots],
            log: Vec::new(),
            pending: FaultBatch::default(),
        })
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
    pub(super) fn install_outcome(
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

    /// Whether the reading of backbone `node` at `pos`, due at period `k`'s
    /// deadline, is lost: its channel is bad, it sits in the blackout, or it
    /// or a relay above it crashed. Backbone readings land at the deadline,
    /// which every mid-window crash precedes.
    pub(super) fn loses_backbone_reading(
        &self,
        tree: &FloodTree,
        node: NodeId,
        pos: Point,
        k: u64,
    ) -> bool {
        self.is_crashed[node.index()]
            || self.plan.link_bad(node.index())
            || self.plan.blacked_out(k, pos)
            || self.severed(tree, node)
    }

    /// Whether duty-cycled `node` at `pos` delivers nothing in period `k`:
    /// its channel is bad or it sits in the blackout.
    pub(super) fn silences(&self, node: NodeId, pos: Point, k: u64) -> bool {
        self.plan.link_bad(node.index()) || self.plan.blacked_out(k, pos)
    }

    /// Whether a duty-cycled `node`'s reading, delivered through `relay` at
    /// `delivered_s`, is lost: it arrived after its node or relay crashed in
    /// the window `deadline_s` closes, or the relay's path to the collector
    /// is severed.
    pub(super) fn loses_relayed_reading(
        &self,
        tree: &FloodTree,
        node: NodeId,
        relay: usize,
        delivered_s: f64,
        deadline_s: f64,
        period_s: f64,
    ) -> bool {
        let crashed_before = |slot| {
            self.crash_instant(slot, deadline_s, period_s)
                .is_some_and(|c| delivered_s > c)
        };
        crashed_before(node.index()) || crashed_before(relay) || self.severed(tree, NodeId(relay))
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

    /// Advances the fault schedule across `boundary`: last boundary's crash
    /// victims reboot, the per-node channel chains step, this boundary's
    /// victims strike, and — when recovery is armed and anything crashed —
    /// every standing tree gets a health check; a tree that holds no victim
    /// keeps standing, and the boundary's installs can still join it.
    pub(super) fn step(
        &mut self,
        boundary: u64,
        trees: &mut Trees,
        live: &mut [LiveUser],
        deployment: &Deployment,
    ) -> Result<(), ConfigError> {
        for &(slot, _) in &self.crashed {
            self.is_crashed[slot] = false;
        }
        let batch = self.plan.advance(boundary);
        self.crashed.clear();
        self.crashed
            .extend(batch.crashes.iter().map(|c| (c.slot, c.frac)));
        for &(slot, _) in &self.crashed {
            self.is_crashed[slot] = true;
        }
        self.pending.boundary = boundary;
        self.pending.link_bad = self.plan.bad_count();
        self.pending.crashes = self.crashed.len();
        self.pending.blackout = batch.blackout;
        if !self.crashed.is_empty() && self.plan.config().recovery {
            self.repair_trees(trees, live, deployment)?;
        }
        Ok(())
    }

    /// The per-boundary tree health check: every standing query whose tree
    /// contains a crash victim is poisoned. A poisoned query lets go of its
    /// tree and re-roots: at its old root if that survived, else at the
    /// nearest live backbone node; with no live root in reach it is dropped
    /// (an install failure). A shared query that kept its root re-acquires
    /// through the cache with the victims excluded (re-homing their
    /// descendants; a rebuild), under a repair key: poisoned queries with one
    /// root and cell share the rebuilt tree, and no install can join it. The
    /// queries standing here all resolve at this boundary, so no repaired
    /// tree outlives it, and each user holds at most one of them. A shared
    /// query whose root crashed degrades to a tree of its own (a naive
    /// fallback), and a naive query rebuilds its own tree the same way (a
    /// rebuild). Users are visited in fleet order, so cache bookkeeping, and
    /// so every output byte, follows the `(user, period)` order.
    fn repair_trees(
        &mut self,
        trees: &mut Trees,
        live: &mut [LiveUser],
        deployment: &Deployment,
    ) -> Result<(), ConfigError> {
        let excluded = Some(self.is_crashed.as_slice());
        for slot in live.iter_mut().flat_map(|u| &mut u.queries) {
            let Some(mut aq) = slot.take() else {
                continue;
            };
            let old_root = {
                let tree = trees.get(&aq.tree)?;
                if !self.crashed.iter().any(|&(s, _)| tree.contains(NodeId(s))) {
                    *slot = Some(aq);
                    continue;
                }
                tree.root()
            };
            let shared = matches!(aq.tree, QueryTree::Shared(_));
            trees.release(aq.tree)?;
            let root = if self.is_crashed[old_root.index()] {
                deployment.nearest_collector(aq.center, excluded)
            } else {
                Some(old_root)
            };
            let Some(root) = root else {
                // Every backbone node near the centre is down: nothing can
                // stand in for the tree this period.
                self.pending.install_failures += 1;
                continue;
            };
            let key = TreeKey::new(root, aq.center, deployment.tree_radius())
                .with_epoch(trees.epoch())
                .with_repair();
            let naive = !shared || root != old_root;
            aq.tree = trees.stand(deployment, key, naive, excluded)?;
            if shared && naive {
                self.pending.naive_fallbacks += 1;
            } else {
                self.pending.trees_rebuilt += 1;
            }
            *slot = Some(aq);
        }
        Ok(())
    }

    /// Closes the boundary's record and starts the next one.
    pub(super) fn flush(&mut self) {
        self.log.push(std::mem::take(&mut self.pending));
    }
}

#[cfg(test)]
mod tests {
    use super::QueryTree;
    use crate::sim::multi::{MultiUserOutput, QuerySet, TreeSharing};
    use crate::sim::stepped::{small_scenario, stepped, SimOptions, SteppedSim};
    use wsn_metrics::FaultBatch;
    use wsn_net::{Blackout, FaultConfig};

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
    fn failed_installs_stand_no_tree() {
        // Without recovery a lost install stands nothing, so a lossy naive
        // run's peak of standing trees falls below the fault-free peak of
        // the same schedule, where every install stands its own tree.
        let peak = |mut sim: SteppedSim| {
            sim.run_to_end().unwrap();
            sim.finish().peak_live_trees
        };
        let lossy_config = FaultConfig::new(0.3).with_recovery(false);
        let lossy = peak(faulted(7, 6, TreeSharing::Naive, lossy_config));
        let plain = peak(stepped(7, 6, TreeSharing::Naive));
        assert!(
            lossy < plain,
            "failed installs counted as standing trees: lossy {lossy}, fault-free {plain}"
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
    fn a_crash_rebuilds_only_the_trees_it_poisons() {
        let config = FaultConfig::new(0.0).with_crash_rate(0.03);
        let mut sim = faulted(7, 8, TreeSharing::Shared, config);
        let (mut joined, mut poisoned) = (0, 0);
        while sim.next_boundary() < sim.max_k() {
            // The queries of the period this boundary resolves, none of them
            // repaired yet: the cell each serves, and its tree.
            let mut standing = Vec::new();
            for aq in sim.standing_queries() {
                let QueryTree::Shared(handle) = aq.tree else {
                    panic!("an install in shared mode stands a shared tree");
                };
                let members = sim.trees.get(&aq.tree).unwrap().order().to_vec();
                standing.push((aq.center, handle, members));
            }
            let b = sim.step_period().unwrap();
            let crashed = &sim.fault.as_ref().unwrap().is_crashed;
            for (center, handle, members) in standing {
                if members.iter().any(|n| crashed[n.index()]) {
                    poisoned += 1;
                    continue;
                }
                // The tree held no victim, so it kept standing, and every
                // install in its cell minted its key and joined it.
                for aq in sim.standing_queries().filter(|aq| aq.center == center) {
                    joined += 1;
                    assert!(
                        matches!(aq.tree, QueryTree::Shared(h) if h == handle),
                        "boundary {b}: an install rebuilt a tree no crash touched"
                    );
                }
            }
        }
        assert!(
            joined > 0 && poisoned > 0,
            "joined {joined}, poisoned {poisoned}"
        );
        sim.run_to_end().unwrap();
        sim.finish();
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
