//! Incremental backbone repair under node churn.
//!
//! Re-running the full CCP election after every churn batch costs
//! O(n · disk-points) even when only a handful of nodes died or joined. The
//! [`RepairableBackbone`] instead re-evaluates **only the nodes whose role an
//! event can move**: each death or join marks the node's sensing disk in a
//! [`DirtyRegion`], each join (with the joiner's `(priority, slot)` election
//! key) or backbone death is kept as an event, and the repair seeds its
//! worklist with the overlapping nodes that the event's direction of change
//! can flip, promoting or demoting a handful of nodes instead of all n.
//!
//! ## Why repair ≡ full re-election, bit for bit
//!
//! The reference election ([`elect_backbone_priority`]) visits alive slots in
//! ascending `(priority, slot)` key order; a node demotes itself exactly when
//! the *other* nodes still active at its step `k`-cover its sensing disk.
//! Write `A(s)` for those active others: node `j ≠ s` is in `A(s)` iff
//! `key(j) > key(s)` (not yet demotable at `s`'s step) **or** `j` ended up
//! backbone (smaller-key survivors are final). Three facts make a local
//! repair exact:
//!
//! 1. **Locality.** A node's decision depends only on coverage counts at the
//!    lattice points of its own disk, i.e. on the members of `A(s)` whose
//!    disks share a lattice point with it. Such a member lies within `2r` of
//!    `s` (`seed_radius` adds slack), and when it dies or joins it marks its
//!    disk in the [`DirtyRegion`], so `s`'s disk touches a dirty cell.
//! 2. **Monotone key order.** The repair pops candidates from an ordered
//!    worklist in ascending key. When candidate `s` is evaluated, every node
//!    with a smaller key either was already re-evaluated (its role is final)
//!    or provably kept its old decision — so `s` can reconstruct `A(s)`
//!    exactly from the current roles. A flip of `s` can only matter to nodes
//!    at strictly later steps (earlier ones count `s` whatever its role), so
//!    every enqueued key exceeds the key being popped and no slot is ever
//!    evaluated twice.
//! 3. **Monotone coverage.** `s` stays active iff some lattice point of its
//!    disk is covered by fewer than `k` members of `A(s)`. Growing `A(s)` can
//!    therefore only demote `s`, and shrinking it can only promote `s`: a
//!    backbone node whose `A(s)` only shrank keeps its role, and so does a
//!    sleeper whose `A(s)` only grew. So each event or flip needs to seed
//!    only the nodes it moves in the one direction that can flip their
//!    *current* role:
//!    - a **join** `j` enters `A(s)` of every smaller-key `s`: it seeds
//!      itself (it has no old decision) and the smaller-key **backbone**
//!      nodes. It enters a larger-key `A(s)` only by ending up backbone,
//!      which is a promotion flip;
//!    - a **duty-cycled death** seeds nothing. Larger-key nodes never
//!      counted the sleeper `d`. For a smaller-key `s`, `A(d)` already
//!      `k`-covered `d`'s disk, and every member of `A(d)` is in `A(s)` too
//!      (a key above `d`'s is above `s`'s; backbone nodes count
//!      everywhere). So dropping `d` uncovers no point of `s`'s disk unless
//!      a member of `A(d)` covering it left as well: by a backbone death or
//!      a smaller-key demotion, which seed `s` themselves, or by another
//!      sleeper death — and the largest-key dead sleeper covering a point
//!      has no dead sleeper in its own `A`. The `repair_equivalence`
//!      proptests check this lemma directly;
//!    - a **backbone death** leaves every overlapping `A(s)`: it seeds every
//!      overlapping **duty-cycled** node;
//!    - a **flip** enqueues the larger-key neighbours that already hold its
//!      new role — a promotion grows their `A(s)` (backbone nodes), a
//!      demotion shrinks it (duty-cycled nodes).
//!
//!    Nodes not yet popped still hold their pre-batch roles, which are the
//!    roles these rules are stated in. An event keeps the position its node
//!    had when it happened, and a join its key, since a slot can die and be
//!    recycled within one batch. A node that joins and dies within one batch (its
//!    slot possibly re-joined under a new key) leaves a join whose effect
//!    its death cancels, so whatever the pair seeds is extra work, never a
//!    missed node.
//!
//! ## The backbone-count fast path
//!
//! Evaluating a candidate point by grid query costs ~disk-points × range
//! query; done naively, moderate churn rates make repair *slower* than the
//! full election. The repair therefore maintains a persistent
//! [`CoverageRaster`] counting coverage **by current-backbone alive nodes
//! only** (seeded by the initial election, patched on every death, join and
//! flip). At any point `p` of candidate `s`'s disk, every current-backbone
//! node `j ≠ s` is in `A(s)`, so `backbone_count(p) − (s is backbone)`
//! counts those members exactly: when it already reaches `k`, the point is
//! satisfied with no query at all. The check runs one lattice row of the
//! disk at a time: a row whose smallest count reaches `k + (s is backbone)`
//! settles all its points at once. Only the points such a row leaves short —
//! near the churn events, or a backbone node's own uncovered points — take
//! the exact grid query.
//!
//! [`elect_backbone_priority`]: crate::ccp::elect_backbone_priority

use std::collections::BTreeSet;

use wsn_geom::{Point, Rect, SpatialGrid};
use wsn_net::NodeRole;

use crate::ccp::{elect_backbone_priority_with_raster, CcpConfig};
use crate::raster::{CoverageOverflow, CoverageRaster, DirtyRegion};

/// A node's position in the election order: `(priority, slot)`, ascending.
type Key = (u64, usize);

/// Counters and role flips from one [`RepairableBackbone::repair`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Alive nodes seeded into the worklist: those near an event whose role
    /// the event can flip (the seeding rules in the module docs) and whose
    /// disks touch a dirty cell.
    pub candidates: usize,
    /// Total worklist pops (candidates plus flip-propagated re-evaluations).
    pub evaluated: usize,
    /// Nodes promoted to the backbone.
    pub promoted: usize,
    /// Nodes demoted to duty cycling.
    pub demoted: usize,
    /// Lattice cells that were dirty when the repair started.
    pub dirty_cells: usize,
    /// Every role change applied, as `(slot, is_now_backbone)` in evaluation
    /// order — lets callers patch their own backbone indexes incrementally.
    pub flips: Vec<(u32, bool)>,
}

/// A join or backbone death recorded since the last repair: the events
/// that seed the worklist, each by its rule (module docs, fact 3).
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A node joined at `pos` with election key `key` (as it was at the
    /// join): seeds the joiner itself and the smaller-key backbone nodes.
    Join { pos: Point, key: Key },
    /// A backbone node died at `pos`: seeds every overlapping duty-cycled
    /// node.
    BackboneDeath { pos: Point },
}

impl Event {
    fn pos(&self) -> Point {
        match *self {
            Event::Join { pos, .. } | Event::BackboneDeath { pos } => pos,
        }
    }

    /// Whether this event can flip the role of an overlapping alive node
    /// with election key `key` that currently holds the backbone role iff
    /// `backbone`.
    fn can_flip(&self, key: Key, backbone: bool) -> bool {
        match *self {
            Event::Join { key: joiner, .. } => key == joiner || (backbone && key < joiner),
            Event::BackboneDeath { .. } => !backbone,
        }
    }
}

/// A CCP backbone that absorbs node churn by incremental repair instead of
/// full re-election, while provably electing the same backbone.
///
/// ## Protocol
///
/// 1. [`RepairableBackbone::new`] runs the full priority election once and
///    returns the roles; the caller keeps the slot-indexed `roles` array.
/// 2. Per churn event, call [`note_death`](RepairableBackbone::note_death)
///    **after** removing the slot from the alive grid (passing the role the
///    node held), or [`note_join`](RepairableBackbone::note_join) **after**
///    inserting it (passing the joiner's `(priority, slot)` key). The caller
///    sets dead slots to [`NodeRole::DutyCycled`] and
///    starts joined slots as [`NodeRole::DutyCycled`] too — the repair
///    promotes them if the election would.
/// 3. After the batch, call [`repair`](RepairableBackbone::repair) with the
///    current slot arrays, the alive grid and the same `roles` array; it
///    applies promotions/demotions in place and returns [`RepairStats`].
///
/// The grid passed to `repair` must contain exactly the alive slots (it is
/// both the alive-set oracle and the spatial index), and `positions[s]` /
/// `priority[s]` must be stable for every alive slot between calls.
#[derive(Debug, Clone)]
pub struct RepairableBackbone {
    config: CcpConfig,
    /// Coverage counts over the **current backbone** only; see module docs.
    backbone: CoverageRaster,
    dirty: DirtyRegion,
    /// The joins and backbone deaths recorded since the last repair.
    events: Vec<Event>,
    /// Worklist seeding radius: a node whose disk overlaps an event's disk
    /// is within `2r` of the event centre (plus slack for the lattice
    /// epsilon), so querying this range around each event over-approximates
    /// the touched set cheaply before the exact `DirtyRegion` filter.
    seed_radius: f64,
}

impl RepairableBackbone {
    /// Runs the full priority election over the alive slots and returns the
    /// repairable backbone plus the elected slot-indexed roles (dead slots
    /// are [`NodeRole::DutyCycled`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoverageOverflow`] when the election does, like
    /// [`elect_backbone_priority`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid config, mismatched slot arrays or a repeated
    /// alive slot, like [`elect_backbone_priority`].
    ///
    /// [`elect_backbone_priority`]: crate::ccp::elect_backbone_priority
    pub fn new(
        positions: &[Point],
        priority: &[u64],
        alive_slots: &[usize],
        region: Rect,
        config: &CcpConfig,
    ) -> Result<(Self, Vec<NodeRole>), CoverageOverflow> {
        let (roles, backbone) =
            elect_backbone_priority_with_raster(positions, priority, alive_slots, region, config)?;
        let dirty = DirtyRegion::new(region, config.sensing_range_m, config.sample_spacing_m);
        let repairable = RepairableBackbone {
            config: *config,
            backbone,
            dirty,
            events: Vec::new(),
            seed_radius: 2.0 * config.sensing_range_m + 1.0,
        };
        Ok((repairable, roles))
    }

    /// Records the death of a node at `pos` that held `role`. Call after
    /// removing the slot from the alive grid and before setting its role to
    /// [`NodeRole::DutyCycled`].
    pub fn note_death(&mut self, pos: Point, role: NodeRole) {
        self.dirty.mark_disk(pos);
        // A sleeper's death alone flips no role (module docs, fact 3): it
        // leaves only its dirty marks.
        if role.is_backbone() {
            self.backbone.remove(pos);
            self.events.push(Event::BackboneDeath { pos });
        }
    }

    /// Records a node with election key `key = (priority, slot)` joining at
    /// `pos`. Call after inserting the slot into the alive grid; the caller
    /// starts the slot as [`NodeRole::DutyCycled`] (the repair promotes it
    /// if the election would keep it active).
    pub fn note_join(&mut self, key: (u64, usize), pos: Point) {
        self.dirty.mark_disk(pos);
        self.events.push(Event::Join { pos, key });
    }

    /// Re-elects the nodes the recorded events can flip, applying role
    /// changes to `roles` in place. After this call the backbone membership
    /// is bit-identical to [`elect_backbone_priority`] over the current alive
    /// slots (the equivalence the property tests pin).
    ///
    /// # Errors
    ///
    /// Returns [`CoverageOverflow`] when a promotion would leave more than
    /// [`MAX_COVERAGE_COUNT`](crate::raster::MAX_COVERAGE_COUNT) backbone
    /// nodes covering one sample point. `roles` and the backbone are then
    /// part-way repaired and must not be used further.
    ///
    /// [`elect_backbone_priority`]: crate::ccp::elect_backbone_priority
    pub fn repair(
        &mut self,
        positions: &[Point],
        priority: &[u64],
        roles: &mut [NodeRole],
        alive: &SpatialGrid,
    ) -> Result<RepairStats, CoverageOverflow> {
        let mut stats = RepairStats {
            dirty_cells: self.dirty.dirty_cells(),
            ..RepairStats::default()
        };
        // Seed: alive nodes near an event that the event can flip, keeping
        // only those whose disks touch a dirty cell.
        let mut worklist: BTreeSet<Key> = BTreeSet::new();
        for event in &self.events {
            for s in alive.query_range(event.pos(), self.seed_radius) {
                let key = (priority[s], s);
                if event.can_flip(key, roles[s].is_backbone())
                    && !worklist.contains(&key)
                    && self.dirty.touches(positions[s])
                {
                    worklist.insert(key);
                }
            }
        }
        stats.candidates = worklist.len();
        while let Some(key) = worklist.pop_first() {
            stats.evaluated += 1;
            let s = key.1;
            let pos = positions[s];
            let wants_backbone = self.needs_to_stay_active(key, pos, priority, roles, alive);
            if wants_backbone == roles[s].is_backbone() {
                continue;
            }
            if wants_backbone {
                self.backbone.add(pos)?;
                roles[s] = NodeRole::Backbone;
                stats.promoted += 1;
            } else {
                roles[s] = NodeRole::DutyCycled;
                self.backbone.remove(pos);
                stats.demoted += 1;
            }
            stats.flips.push((s as u32, wants_backbone));
            // Only nodes at strictly later election steps with overlapping
            // disks can see the flip, and of those only the ones it pushes
            // towards the other role: a promotion can demote backbone nodes,
            // a demotion can promote sleepers. Inserted keys always exceed
            // the popped key, so the ascending pop order never revisits a
            // slot.
            for j in alive.query_range(pos, self.seed_radius) {
                let later = (priority[j], j);
                if later > key && roles[j].is_backbone() == wants_backbone {
                    worklist.insert(later);
                }
            }
        }
        self.events.clear();
        self.dirty.clear();
        Ok(stats)
    }

    /// Whether the node `s` with election key `key = (priority, s)` at `pos`
    /// must stay active in the reference election: true iff some lattice
    /// point of its disk is not `k`-covered by `A(s)`, the nodes active at
    /// `s`'s election step (`key(j) > key(s)`, or `j` currently backbone).
    fn needs_to_stay_active(
        &self,
        key: Key,
        pos: Point,
        priority: &[u64],
        roles: &[NodeRole],
        alive: &SpatialGrid,
    ) -> bool {
        let k = self.config.coverage_degree;
        let own = u32::from(roles[key.1].is_backbone());
        // Backbone nodes other than s are all in A(s), so a backbone count
        // of k + own settles a point by itself. Compared in u32, where
        // `k + own` saturates only far above any count.
        let settled = u32::try_from(k).unwrap_or(u32::MAX).saturating_add(own);
        let Some(rows) = self.backbone.disk_rows(pos) else {
            // A disk covering no lattice point is vacuously covered.
            return false;
        };
        for (y, xs, counts) in rows {
            if counts
                .iter()
                .copied()
                .min()
                .is_some_and(|c| u32::from(c) >= settled)
            {
                continue;
            }
            for (&x, &backbone_count) in xs.iter().zip(counts) {
                let backbone_count = u32::from(backbone_count);
                debug_assert!(backbone_count >= own, "backbone raster out of sync");
                if backbone_count >= settled {
                    continue;
                }
                let active_others = alive
                    .query_range(Point::new(x, y), self.config.sensing_range_m)
                    .filter(|&j| j != key.1 && ((priority[j], j) > key || roles[j].is_backbone()))
                    .take(k)
                    .count();
                if active_others < k {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccp::elect_backbone_priority;

    /// Splitmix64, enough PRNG for deterministic test layouts.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn uniform(state: &mut u64, hi: f64) -> f64 {
        (mix(state) >> 11) as f64 / (1u64 << 53) as f64 * hi
    }

    struct World {
        positions: Vec<Point>,
        priority: Vec<u64>,
        alive: Vec<usize>,
        grid: SpatialGrid,
        region: Rect,
        config: CcpConfig,
    }

    fn seed_world(n: usize, side: f64, rng: &mut u64) -> World {
        let region = Rect::square(side);
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(uniform(rng, side), uniform(rng, side)))
            .collect();
        let priority: Vec<u64> = (0..n).map(|_| mix(rng)).collect();
        let mut grid = SpatialGrid::new(region, 50.0).unwrap();
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        World {
            positions,
            priority,
            alive: (0..n).collect(),
            grid,
            region,
            config: CcpConfig::default(),
        }
    }

    fn assert_equivalent(w: &World, roles: &[NodeRole], what: &str) {
        let reference =
            elect_backbone_priority(&w.positions, &w.priority, &w.alive, w.region, &w.config)
                .unwrap();
        assert_eq!(roles, reference.as_slice(), "{what}");
    }

    /// Nodes `(x, priority)` on a zero-height strip 300 m long: the lattice
    /// is one row every 5 m, so a 50 m sensing disk covers the points of the
    /// interval `[x - 50, x + 50]` and coverage reads like intervals.
    fn strip(nodes: &[(f64, u64)]) -> World {
        let region = Rect::new(0.0, 0.0, 300.0, 0.0);
        let positions: Vec<Point> = nodes.iter().map(|&(x, _)| Point::new(x, 0.0)).collect();
        let mut grid = SpatialGrid::new(region, 50.0).unwrap();
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        World {
            priority: nodes.iter().map(|&(_, pri)| pri).collect(),
            alive: (0..positions.len()).collect(),
            positions,
            grid,
            region,
            config: CcpConfig::default(),
        }
    }

    impl World {
        fn kill(&mut self, backbone: &mut RepairableBackbone, roles: &mut [NodeRole], s: usize) {
            self.alive.retain(|&a| a != s);
            self.grid.remove(s);
            backbone.note_death(self.positions[s], roles[s]);
            roles[s] = NodeRole::DutyCycled;
        }

        fn join(
            &mut self,
            backbone: &mut RepairableBackbone,
            roles: &mut Vec<NodeRole>,
            p: Point,
            pri: u64,
        ) -> usize {
            let s = self.positions.len();
            self.positions.push(p);
            self.priority.push(pri);
            roles.push(NodeRole::DutyCycled);
            self.alive.push(s);
            self.grid.insert(s, p);
            backbone.note_join((pri, s), p);
            s
        }

        fn repair(&self, backbone: &mut RepairableBackbone, roles: &mut [NodeRole]) -> RepairStats {
            backbone
                .repair(&self.positions, &self.priority, roles, &self.grid)
                .unwrap()
        }
    }

    fn elect(w: &World) -> (RepairableBackbone, Vec<NodeRole>) {
        RepairableBackbone::new(&w.positions, &w.priority, &w.alive, w.region, &w.config).unwrap()
    }

    #[test]
    fn a_larger_key_join_demotes_an_earlier_backbone_node() {
        // A lone node keeps its disk; a larger-key node joining on top of it
        // covers that disk at A's step, so A sleeps and the joiner stays.
        let mut w = strip(&[(50.0, 1)]);
        let (mut backbone, mut roles) = elect(&w);
        assert_eq!(roles, [NodeRole::Backbone]);
        w.join(&mut backbone, &mut roles, Point::new(50.0, 0.0), 2);
        let stats = w.repair(&mut backbone, &mut roles);
        assert_equivalent(&w, &roles, "after the join");
        assert_eq!(stats.flips, [(0, false), (1, true)]);
        assert_eq!((stats.candidates, stats.evaluated), (2, 2));
    }

    #[test]
    fn a_sleeper_death_alone_seeds_and_flips_nothing() {
        // Three colocated nodes: keys 1 and 2 sleep, key 3 stays. Killing
        // the key-2 sleeper dirties its disk but can flip nobody.
        let mut w = strip(&[(120.0, 1), (120.0, 2), (120.0, 3)]);
        let (mut backbone, mut roles) = elect(&w);
        let before = roles.clone();
        assert_eq!(before.iter().filter(|r| r.is_backbone()).count(), 1);
        w.kill(&mut backbone, &mut roles, 1);
        let stats = w.repair(&mut backbone, &mut roles);
        assert_equivalent(&w, &roles, "after the sleeper death");
        assert_eq!(roles, before);
        assert!(stats.dirty_cells > 0);
        assert_eq!((stats.candidates, stats.evaluated), (0, 0));
    }

    #[test]
    fn a_backbone_death_promotes_a_sleeper() {
        // Covered points: B 50..150, A 70..165, D and E 155..250. B keeps
        // 50..65, A sleeps under B + E, D sleeps under its twin E, E keeps
        // 170..250. B's death leaves A's 70..150 to nobody: A wakes. Its
        // promotion can only demote larger-key backbone nodes, so E is
        // re-checked (and stays) while the sleeper D, whose disk misses B's,
        // is never evaluated.
        let mut w = strip(&[(100.0, 1), (118.0, 2), (200.5, 4), (200.5, 5)]);
        let (mut backbone, mut roles) = elect(&w);
        use NodeRole::{Backbone as On, DutyCycled as Off};
        assert_eq!(roles, [On, Off, Off, On]);
        w.kill(&mut backbone, &mut roles, 0);
        let stats = w.repair(&mut backbone, &mut roles);
        assert_equivalent(&w, &roles, "after the backbone death");
        assert_eq!(roles, [Off, On, Off, On]);
        assert_eq!(stats.flips, [(1, true)]);
        assert_eq!((stats.candidates, stats.evaluated), (1, 2));
    }

    #[test]
    fn a_demotion_cascades_into_a_later_sleeper() {
        // Covered points: X 50..150, Y 90..190, Z 140..240; X keeps 50..85,
        // Y sleeps under X + Z, Z keeps 155..240. J joins at 30..130 with a
        // key between X's and Y's: X's disk is now covered and X sleeps, J
        // keeps 30..85, and Y — which relied on X — wakes for the gap at
        // 135 that nobody left covers.
        let mut w = strip(&[(100.0, 1), (140.0, 3), (190.0, 4)]);
        let (mut backbone, mut roles) = elect(&w);
        use NodeRole::{Backbone as On, DutyCycled as Off};
        assert_eq!(roles, [On, Off, On]);
        let j = w.join(&mut backbone, &mut roles, Point::new(80.0, 0.0), 2);
        let stats = w.repair(&mut backbone, &mut roles);
        assert_equivalent(&w, &roles, "after the cascade");
        assert_eq!(roles, [Off, On, On, On]);
        assert_eq!(stats.flips, [(0, false), (j as u32, true), (1, true)]);
        assert_eq!((stats.candidates, stats.evaluated), (2, 4));
    }

    #[test]
    fn repair_matches_reference_across_churn_batches() {
        let mut rng = 0x5eed_u64;
        let mut w = seed_world(120, 400.0, &mut rng);
        let (mut backbone, mut roles) =
            RepairableBackbone::new(&w.positions, &w.priority, &w.alive, w.region, &w.config)
                .unwrap();
        assert_equivalent(&w, &roles, "initial election");
        for batch in 0..6 {
            // Kill three random alive nodes.
            for _ in 0..3 {
                let pick = (mix(&mut rng) as usize) % w.alive.len();
                let s = w.alive.swap_remove(pick);
                w.grid.remove(s);
                backbone.note_death(w.positions[s], roles[s]);
                roles[s] = NodeRole::DutyCycled;
            }
            // Join three new ones (fresh slots, fresh priorities).
            for _ in 0..3 {
                let s = w.positions.len();
                let p = Point::new(uniform(&mut rng, 400.0), uniform(&mut rng, 400.0));
                let pri = mix(&mut rng);
                w.positions.push(p);
                w.priority.push(pri);
                roles.push(NodeRole::DutyCycled);
                w.alive.push(s);
                w.grid.insert(s, p);
                backbone.note_join((pri, s), p);
            }
            w.alive.sort_unstable();
            let stats = backbone
                .repair(&w.positions, &w.priority, &mut roles, &w.grid)
                .unwrap();
            assert!(stats.dirty_cells > 0, "batch {batch} marked nothing");
            assert_eq!(
                stats.promoted + stats.demoted,
                stats.flips.len(),
                "flip log and counters disagree"
            );
            assert_equivalent(&w, &roles, &format!("after batch {batch}"));
        }
    }

    #[test]
    fn repair_without_events_is_a_no_op() {
        let mut rng = 7_u64;
        let w = seed_world(40, 200.0, &mut rng);
        let (mut backbone, mut roles) =
            RepairableBackbone::new(&w.positions, &w.priority, &w.alive, w.region, &w.config)
                .unwrap();
        let before = roles.clone();
        let stats = backbone
            .repair(&w.positions, &w.priority, &mut roles, &w.grid)
            .unwrap();
        assert_eq!(stats, RepairStats::default());
        assert_eq!(roles, before);
    }

    #[test]
    fn death_of_sole_cover_promotes_a_sleeper() {
        // Two colocated nodes: the election keeps one (the smaller key) and
        // demotes the other. Killing the survivor must wake the sleeper.
        let region = Rect::square(100.0);
        let p = Point::new(50.0, 50.0);
        let positions = vec![p, p];
        let priority = vec![1, 2];
        let alive = vec![0, 1];
        let config = CcpConfig::default();
        let mut grid = SpatialGrid::new(region, 50.0).unwrap();
        grid.insert(0, p);
        grid.insert(1, p);
        let (mut backbone, mut roles) =
            RepairableBackbone::new(&positions, &priority, &alive, region, &config).unwrap();
        // Key order: node 0 first; node 1 still active covers its disk, so 0
        // sleeps and 1 (nobody left to cover it) stays.
        assert_eq!(roles, vec![NodeRole::DutyCycled, NodeRole::Backbone]);
        grid.remove(1);
        backbone.note_death(p, roles[1]);
        roles[1] = NodeRole::DutyCycled;
        let stats = backbone
            .repair(&positions, &priority, &mut roles, &grid)
            .unwrap();
        assert_eq!(roles, vec![NodeRole::Backbone, NodeRole::DutyCycled]);
        assert_eq!((stats.promoted, stats.demoted), (1, 0));
        assert_eq!(stats.flips, vec![(0, true)]);
    }

    #[test]
    fn join_on_top_of_backbone_matches_reference() {
        // A node joining on top of an existing backbone node adds coverage
        // that can let earlier-key incumbents demote themselves — a cascade
        // the repair must propagate exactly as the full election would.
        let mut rng = 99_u64;
        let mut w = seed_world(60, 250.0, &mut rng);
        let (mut backbone, mut roles) =
            RepairableBackbone::new(&w.positions, &w.priority, &w.alive, w.region, &w.config)
                .unwrap();
        let keeper = roles
            .iter()
            .position(|r| r.is_backbone())
            .expect("some backbone");
        let s = w.positions.len();
        w.positions.push(w.positions[keeper]);
        w.priority.push(u64::MAX); // evaluated last, after every incumbent
        roles.push(NodeRole::DutyCycled);
        w.alive.push(s);
        w.grid.insert(s, w.positions[keeper]);
        backbone.note_join((u64::MAX, s), w.positions[keeper]);
        backbone
            .repair(&w.positions, &w.priority, &mut roles, &w.grid)
            .unwrap();
        assert_equivalent(&w, &roles, "after colocated join");
    }
}
