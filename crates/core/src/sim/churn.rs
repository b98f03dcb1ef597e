//! Node churn: seed-derived schedules and the stepped engine's batch step.
//!
//! Churn mode kills and joins a deterministic batch of nodes at every period
//! boundary. Each batch is a pure function of `(scenario seed, boundary)` —
//! its own RNG stream, independent of every other stream in the simulation —
//! so the schedule is identical whatever admission pattern drives the engine,
//! which is what lets CI `cmp` churn outputs byte-for-byte across processes
//! and `tests/golden/churn_quick.json` pin them.
//!
//! A batch kills `floor(rate × n)` distinct nodes of the `n` slots (a
//! partial Fisher–Yates draw over `0..n`) and joins the same number of fresh
//! nodes at uniform positions. Deaths are applied before joins, and the
//! joiners refill exactly the slots the batch just freed, last-drawn first,
//! so every slot holds a live node between batches and arbitrarily long runs
//! never grow past the initial slot count.
//!
//! [`ChurnState`] applies each batch to the stepped engine's deployment and
//! repairs the backbone incrementally instead of re-electing it.

use crate::config::Scenario;
use crate::error::ConfigError;
use crate::sim::deploy::{election_error, priority_for, Deployment};
use std::time::Instant;
use wsn_geom::Point;
use wsn_metrics::ChurnBatch;
use wsn_net::{NeighborTable, NodeId, NodeRole};
use wsn_power::{elect_backbone_priority, RepairableBackbone};
use wsn_sim::{mix_seed, SimRng};

/// Stream tag for the per-boundary churn batches.
const CHURN_STREAM: u64 = 0x5EED_0000_0000_0005;

/// Churn-mode parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Fraction of the live population killed (and re-joined) per period
    /// boundary. Must be finite and strictly positive.
    pub rate: f64,
    /// When `true`, every batch's incremental repair is checked bit-identical
    /// against a full re-election, and the patched backbone neighbour table
    /// against one built from scratch (CI uses this; large-scale benches turn
    /// it off because the reference election is the thing being avoided).
    pub verify: bool,
}

impl ChurnConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `rate` is not finite, not positive, or
    /// at least 1 (a batch may not kill the entire population).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.rate.is_finite() || self.rate <= 0.0 || self.rate >= 1.0 {
            return Err(ConfigError::new(format!(
                "churn rate must be in (0, 1), got {}",
                self.rate
            )));
        }
        Ok(())
    }
}

/// One boundary's deaths, as slot indices. Join positions are drawn from the
/// same stream by the caller after the deaths are applied.
#[derive(Debug, Clone)]
pub struct ChurnBatchPlan {
    /// The batch's RNG stream, positioned after the death draw; the caller
    /// draws join positions from it.
    pub rng: SimRng,
    /// Slots to kill, in draw order.
    pub deaths: Vec<usize>,
}

impl ChurnBatchPlan {
    /// Plans the batch for `boundary`: draws `floor(rate × slots)` distinct
    /// victims from the slots `0..slots`.
    pub fn generate(seed: u64, boundary: u64, rate: f64, slots: usize) -> Self {
        let mut rng = SimRng::seed_from_u64(mix_seed(seed, &[CHURN_STREAM, boundary]));
        let count = (rate * slots as f64).floor() as usize;
        // Partial Fisher–Yates: after i swaps, pool[..i] is a uniform
        // i-subset in uniform order.
        let mut pool: Vec<usize> = (0..slots).collect();
        for i in 0..count {
            let j = rng.gen_range_usize(i, pool.len());
            pool.swap(i, j);
        }
        pool.truncate(count);
        ChurnBatchPlan { rng, deaths: pool }
    }
}

/// Each slot's initial election priority: slot `s` starts with uid `s`.
pub(crate) fn initial_priorities(seed: u64, slots: usize) -> Vec<u64> {
    (0..slots as u64)
        .map(|uid| priority_for(seed, uid))
        .collect()
}

/// A from-scratch priority election over every slot of `positions` under
/// `priority`: the backbone the incremental repair must land on.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the election's coverage counts would
/// overflow, like [`Deployment::build`].
pub(crate) fn full_election(
    scenario: &Scenario,
    positions: &[Point],
    priority: &[u64],
) -> Result<Vec<NodeRole>, ConfigError> {
    let slots: Vec<usize> = (0..positions.len()).collect();
    elect_backbone_priority(
        positions,
        priority,
        &slots,
        scenario.region(),
        &scenario.ccp,
    )
    .map_err(election_error)
}

/// Everything churn mode adds to a stepped run: the repairable backbone,
/// each slot's election priority and the per-batch log.
#[derive(Debug)]
pub(crate) struct ChurnState {
    config: ChurnConfig,
    backbone: RepairableBackbone,
    /// Election priority of the node in each slot: [`priority_for`] of its
    /// uid. Slot `s` starts with uid `s`; a joiner takes `next_uid`.
    pub(crate) priority: Vec<u64>,
    pub(crate) next_uid: u64,
    pub(crate) log: Vec<ChurnBatch>,
}

impl ChurnState {
    /// Churn over `slots` slots of a deployment seeded with `seed`, whose
    /// election left `backbone` behind.
    pub(crate) fn new(
        config: ChurnConfig,
        backbone: RepairableBackbone,
        seed: u64,
        slots: usize,
    ) -> Self {
        ChurnState {
            config,
            backbone,
            priority: initial_priorities(seed, slots),
            next_uid: slots as u64,
            log: Vec::new(),
        }
    }

    /// Gives `slot` to a node joining at `pos`: a fresh uid, and the
    /// priority derived from it — never the priority of the node that left
    /// the slot — and records the join for the next repair.
    fn join(&mut self, seed: u64, slot: usize, pos: Point) {
        self.priority[slot] = priority_for(seed, self.next_uid);
        self.next_uid += 1;
        self.backbone.note_join((self.priority[slot], slot), pos);
    }

    /// Applies the seed-derived churn batch for `boundary` to `d` and
    /// repairs the backbone incrementally. Deaths go first, then the same
    /// number of joins refill the freed slots, so the population and the
    /// slot count stay fixed; the repair then promotes/demotes only the
    /// perturbed nodes, the backbone grid is patched from the flip log and
    /// the neighbour table is patched around the dead backbone slots and the
    /// flipped ones.
    ///
    /// Returns whether the batch changed the topology. An empty batch
    /// (`floor(rate × alive) = 0`) does not: it is still logged, but the
    /// table stays as it is, and the caller keeps the tree epoch, so
    /// standing trees keep being handed over instead of rebuilt.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a promotion would overflow the
    /// repair's backbone coverage counts. With verification on, also when
    /// the full re-election's counts would overflow, when the repaired
    /// roles are not bit-identical to it, or when the patched neighbour
    /// table differs from one built from scratch.
    pub(crate) fn step(
        &mut self,
        scenario: &Scenario,
        d: &mut Deployment,
        boundary: u64,
    ) -> Result<bool, ConfigError> {
        let apply_start = Instant::now();
        let (region, seed) = (scenario.region(), scenario.seed);
        let plan = ChurnBatchPlan::generate(seed, boundary, self.config.rate, d.positions.len());
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
            self.backbone.note_death(d.positions[s], role);
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
            self.join(seed, s, p);
        }
        let apply_grid_ms = apply_start.elapsed().as_secs_f64() * 1e3;

        let repair_start = Instant::now();
        let stats = self
            .backbone
            .repair(
                &d.positions,
                &self.priority,
                d.plan.roles_mut(),
                &d.all_nodes_grid,
            )
            .map_err(|e| {
                ConfigError::new(format!(
                    "backbone repair failed at boundary {boundary}: {e}"
                ))
            })?;
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
        }
        let apply_ms = apply_grid_ms + apply_start.elapsed().as_secs_f64() * 1e3;

        let verified = if self.config.verify {
            let reference = full_election(scenario, &d.positions, &self.priority)?;
            if reference.as_slice() != d.plan.roles() {
                return Err(ConfigError::new(format!(
                    "incremental repair diverged from full re-election at boundary {boundary}"
                )));
            }
            let rebuilt = NeighborTable::build_among(
                &d.positions,
                region,
                scenario.radio.comm_range_m,
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
        self.log.push(ChurnBatch {
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
        Ok(deaths > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::multi::{QuerySet, TreeSharing};
    use crate::sim::stepped::{small_scenario, stepped, SteppedSim};

    #[test]
    fn rejects_bad_rates() {
        for rate in [0.0, -0.5, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            let cfg = ChurnConfig { rate, verify: true };
            assert!(cfg.validate().is_err(), "rate {rate} must be rejected");
        }
        let ok = ChurnConfig {
            rate: 0.05,
            verify: false,
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn batch_is_deterministic_and_distinct() {
        let a = ChurnBatchPlan::generate(7, 3, 0.1, 200);
        let b = ChurnBatchPlan::generate(7, 3, 0.1, 200);
        assert_eq!(a.deaths, b.deaths, "same (seed, boundary) same batch");
        assert_eq!(a.deaths.len(), 20, "floor(0.1 × 200)");
        let mut sorted = a.deaths.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "victims are distinct");
        assert!(sorted.iter().all(|s| *s < 200));
        let c = ChurnBatchPlan::generate(7, 4, 0.1, 200);
        assert_ne!(a.deaths, c.deaths, "each boundary draws its own stream");
    }

    #[test]
    fn small_populations_round_down_to_zero() {
        let plan = ChurnBatchPlan::generate(1, 1, 0.1, 9);
        assert!(plan.deaths.is_empty(), "floor(0.9) = 0 deaths");
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
        let scenario = small_scenario(11);
        let (seed, slots) = (scenario.seed, scenario.node_count);
        let mut rng = SimRng::seed_from_u64(seed);
        let (mut deployment, backbone) = Deployment::build(&scenario, &mut rng, true).unwrap();
        let config = ChurnConfig {
            rate: 0.1,
            verify: false,
        };
        let mut churn = ChurnState::new(config, backbone.unwrap(), seed, slots);
        assert!(churn.step(&scenario, &mut deployment, 1).unwrap());
        let deaths = ChurnBatchPlan::generate(seed, 1, 0.1, slots).deaths;
        assert_eq!(deaths.len(), 8, "floor(0.1 × 80)");
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
}
