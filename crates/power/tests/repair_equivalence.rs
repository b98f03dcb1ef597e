//! Property-based equality contract between the incremental backbone repair
//! and the full priority re-election it replaces.
//!
//! [`wsn_power::RepairableBackbone`] re-elects only over the lattice cells
//! whose coverage a churn batch changed; these properties pin it
//! byte-identical — same role for every slot, never merely "the same
//! backbone size" — to [`wsn_power::elect_backbone_priority`] run from
//! scratch over the surviving deployment, across random churn schedules:
//! deaths and joins in every ratio, slot recycling through a free list,
//! multiple consecutive batches, deaths and joins interleaved within a batch
//! (including a joiner that dies again and whose slot re-joins under a new
//! key), varying coverage degrees and lattice spacings, and the
//! drain-to-empty and repopulate edge cases.

use proptest::prelude::*;
use proptest::TestCaseResult;
use wsn_geom::{Point, Rect, SpatialGrid};
use wsn_net::NodeRole;
use wsn_power::ccp::elect_backbone_priority;
use wsn_power::{CcpConfig, RepairableBackbone};
use wsn_sim::SimRng;

/// A slotted deployment under churn: alive slots, a free list of dead slots
/// for recycling, and the alive-only spatial grid the repair queries.
struct ChurnWorld {
    positions: Vec<Point>,
    priority: Vec<u64>,
    alive: Vec<usize>,
    free: Vec<usize>,
    grid: SpatialGrid,
    region: Rect,
    side: f64,
}

impl ChurnWorld {
    fn new(n: usize, side: f64, rng: &mut SimRng) -> Self {
        let region = Rect::square(side);
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)))
            .collect();
        let priority: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut grid = SpatialGrid::new(region, 50.0).unwrap();
        for (s, &p) in positions.iter().enumerate() {
            grid.insert(s, p);
        }
        ChurnWorld {
            positions,
            priority,
            alive: (0..n).collect(),
            free: Vec::new(),
            grid,
            region,
            side,
        }
    }

    fn kill(
        &mut self,
        rng: &mut SimRng,
        backbone: &mut RepairableBackbone,
        roles: &mut [NodeRole],
    ) {
        let pick = rng.gen_range_usize(0, self.alive.len());
        self.kill_at(pick, backbone, roles);
    }

    /// Kills the node at index `pick` of the alive list.
    fn kill_at(&mut self, pick: usize, backbone: &mut RepairableBackbone, roles: &mut [NodeRole]) {
        let s = self.alive.swap_remove(pick);
        self.grid.remove(s);
        backbone.note_death(self.positions[s], roles[s]);
        roles[s] = NodeRole::DutyCycled;
        self.free.push(s);
    }

    /// Joins a node at a fresh position, recycling a dead slot when one is
    /// free (like the simulation's free list) or appending a new one.
    /// Returns the slot.
    fn join(
        &mut self,
        rng: &mut SimRng,
        backbone: &mut RepairableBackbone,
        roles: &mut Vec<NodeRole>,
    ) -> usize {
        let p = Point::new(
            rng.gen_range_f64(0.0, self.side),
            rng.gen_range_f64(0.0, self.side),
        );
        self.join_at(p, rng, backbone, roles)
    }

    /// Joins a node at `p` under a fresh priority; see [`Self::join`].
    fn join_at(
        &mut self,
        p: Point,
        rng: &mut SimRng,
        backbone: &mut RepairableBackbone,
        roles: &mut Vec<NodeRole>,
    ) -> usize {
        let pri = rng.next_u64();
        let s = match self.free.pop() {
            Some(s) => {
                self.positions[s] = p;
                self.priority[s] = pri;
                s
            }
            None => {
                self.positions.push(p);
                self.priority.push(pri);
                roles.push(NodeRole::DutyCycled);
                self.positions.len() - 1
            }
        };
        roles[s] = NodeRole::DutyCycled;
        self.alive.push(s);
        self.grid.insert(s, p);
        backbone.note_join((pri, s), p);
        s
    }

    fn reference_roles(&self, config: &CcpConfig) -> Vec<NodeRole> {
        let mut alive = self.alive.clone();
        alive.sort_unstable();
        elect_backbone_priority(&self.positions, &self.priority, &alive, self.region, config)
            .unwrap()
    }
}

/// Runs `batches` random churn batches, asserting after each one that the
/// repaired roles equal a from-scratch priority election over the survivors.
fn assert_schedule_equivalent(
    seed: u64,
    n: usize,
    side: f64,
    batches: usize,
    deaths_per_batch: usize,
    joins_per_batch: usize,
    config: &CcpConfig,
) -> TestCaseResult {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut w = ChurnWorld::new(n, side, &mut rng);
    let (mut backbone, mut roles) =
        RepairableBackbone::new(&w.positions, &w.priority, &w.alive, w.region, config).unwrap();
    prop_assert_eq!(&roles, &w.reference_roles(config), "initial election");
    for batch in 0..batches {
        for _ in 0..deaths_per_batch.min(w.alive.len()) {
            w.kill(&mut rng, &mut backbone, &mut roles);
        }
        for _ in 0..joins_per_batch {
            w.join(&mut rng, &mut backbone, &mut roles);
        }
        let stats = backbone
            .repair(&w.positions, &w.priority, &mut roles, &w.grid)
            .unwrap();
        prop_assert_eq!(
            stats.promoted + stats.demoted,
            stats.flips.len(),
            "flip log and counters disagree"
        );
        prop_assert_eq!(&roles, &w.reference_roles(config), "after batch {}", batch);
    }
    Ok(())
}

/// Runs `batches` batches of `ops` randomly interleaved deaths and joins,
/// asserting repair ≡ re-election after each. Every batch also joins a node,
/// kills it again later in the same batch and re-joins its slot (the free
/// list is LIFO) at the same spot under a fresh key, so the first join's
/// recorded key is stale — and names a slot that is alive right where the
/// join happened — by the time the batch is repaired.
fn assert_interleaved_equivalent(
    seed: u64,
    n: usize,
    batches: usize,
    ops: usize,
    config: &CcpConfig,
) -> TestCaseResult {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut w = ChurnWorld::new(n, 200.0, &mut rng);
    let (mut backbone, mut roles) =
        RepairableBackbone::new(&w.positions, &w.priority, &w.alive, w.region, config).unwrap();
    for batch in 0..batches {
        let stale = w.join(&mut rng, &mut backbone, &mut roles);
        for _ in 0..ops {
            if rng.gen_range_usize(0, 2) == 0 && !w.alive.is_empty() {
                w.kill(&mut rng, &mut backbone, &mut roles);
            } else {
                w.join(&mut rng, &mut backbone, &mut roles);
            }
        }
        // The early joiner dies (unless a random kill got it first) and its
        // slot is the next one recycled.
        let spot = w.positions[stale];
        if let Some(pick) = w.alive.iter().position(|&s| s == stale) {
            w.kill_at(pick, &mut backbone, &mut roles);
        }
        w.join_at(spot, &mut rng, &mut backbone, &mut roles);
        let stats = backbone
            .repair(&w.positions, &w.priority, &mut roles, &w.grid)
            .unwrap();
        prop_assert_eq!(
            stats.promoted + stats.demoted,
            stats.flips.len(),
            "flip log and counters disagree"
        );
        prop_assert_eq!(&roles, &w.reference_roles(config), "after batch {}", batch);
    }
    Ok(())
}

proptest! {
    /// Byte-identical membership across random churn schedules mixing
    /// deaths, joins and slot recycling over several batches.
    #[test]
    fn repair_matches_full_reelection(
        seed in any::<u64>(),
        n in 1usize..90,
        side in 80.0f64..300.0,
        batches in 1usize..4,
        deaths in 0usize..8,
        joins in 0usize..8,
    ) {
        assert_schedule_equivalent(seed, n, side, batches, deaths, joins, &CcpConfig::default())?;
    }

    /// Deaths and joins interleaved within each batch, with a joiner killed
    /// in its own batch and its slot re-joined under a new key: the stale
    /// join must not leave the repair short of the re-election.
    #[test]
    fn interleaved_churn_with_stale_join_keys_matches(
        seed in any::<u64>(),
        n in 1usize..70,
        batches in 1usize..4,
        ops in 0usize..10,
        coverage_degree in 1usize..3,
    ) {
        let config = CcpConfig {
            coverage_degree,
            ..CcpConfig::default()
        };
        assert_interleaved_equivalent(seed, n, batches, ops, &config)?;
    }

    /// The lemma behind the seeding rules' treatment of sleepers: the nodes
    /// active at a duty-cycled node's step already k-cover its disk and are
    /// active at every earlier step too, so its death alone flips no role.
    #[test]
    fn a_sleeper_death_alone_flips_no_role(
        seed in any::<u64>(),
        n in 2usize..90,
        coverage_degree in 1usize..4,
        pick in any::<u64>(),
    ) {
        let config = CcpConfig {
            coverage_degree,
            ..CcpConfig::default()
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let mut w = ChurnWorld::new(n, 180.0, &mut rng);
        let before = w.reference_roles(&config);
        let sleepers: Vec<usize> = (0..w.alive.len())
            .filter(|&i| !before[w.alive[i]].is_backbone())
            .collect();
        prop_assume!(!sleepers.is_empty());
        let i = sleepers[(pick % sleepers.len() as u64) as usize];
        let s = w.alive.swap_remove(i);
        w.grid.remove(s);
        let mut after = w.reference_roles(&config);
        after[s] = before[s];
        prop_assert_eq!(after, before, "killing sleeper {} flipped a role", s);
    }

    /// Same contract at higher coverage degrees and other lattice spacings,
    /// where the fast-path threshold and span walking differ most.
    #[test]
    fn repair_matches_at_other_degrees_and_spacings(
        seed in any::<u64>(),
        n in 1usize..60,
        coverage_degree in 1usize..4,
        spacing in 2.0f64..11.0,
        deaths in 0usize..6,
        joins in 0usize..6,
    ) {
        let config = CcpConfig {
            sensing_range_m: 50.0,
            coverage_degree,
            sample_spacing_m: spacing,
        };
        assert_schedule_equivalent(seed, n, 180.0, 2, deaths, joins, &config)?;
    }

    /// Draining the deployment to (almost) empty and repopulating it from
    /// scratch exercises the empty-worklist, empty-alive and all-recycled
    /// regimes.
    #[test]
    fn drain_and_repopulate_matches(seed in any::<u64>(), n in 1usize..25) {
        let config = CcpConfig::default();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut w = ChurnWorld::new(n, 150.0, &mut rng);
        let (mut backbone, mut roles) = RepairableBackbone::new(
            &w.positions,
            &w.priority,
            &w.alive,
            w.region,
            &config,
        )
        .unwrap();
        // Drain everyone.
        while !w.alive.is_empty() {
            w.kill(&mut rng, &mut backbone, &mut roles);
        }
        backbone
            .repair(&w.positions, &w.priority, &mut roles, &w.grid)
            .unwrap();
        prop_assert!(roles.iter().all(|r| !r.is_backbone()), "empty world sleeps");
        // Repopulate entirely through recycled slots plus growth.
        for _ in 0..(n + 3) {
            w.join(&mut rng, &mut backbone, &mut roles);
        }
        backbone
            .repair(&w.positions, &w.priority, &mut roles, &w.grid)
            .unwrap();
        prop_assert_eq!(&roles, &w.reference_roles(&config), "after repopulation");
    }
}
