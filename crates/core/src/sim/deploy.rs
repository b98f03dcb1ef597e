//! The deployment substrate both engines simulate over.
//!
//! [`Deployment::build`] is the setup phase of `Simulation::new` and of the
//! stepped multi-user engine: the same RNG fork order (placement = fork 1,
//! election = fork 2), the same all-nodes and backbone spatial grids, the
//! same priority-order CCP backbone and the same backbone-only neighbour
//! table, from the same scenario seed. Each engine owns one [`Deployment`]
//! whole; the rules of Section 4 that both engines apply to it — which
//! backbone nodes a query tree floods, which in-tree relay serves a
//! duty-cycled node, which backbone node collects a query — are written
//! here once.

use crate::config::Scenario;
use crate::error::ConfigError;
use std::time::Instant;
use wsn_geom::{Point, SpatialGrid, StripIndex};
use wsn_net::{FloodScratch, FloodTree, NeighborTable, NodeId, TreeCache, TreeHandle, TreeKey};
use wsn_power::{elect_backbone_priority, CoverageOverflow, PowerPlan, RepairableBackbone};
use wsn_sim::{mix_seed, SimRng};

/// Stream tag for per-node election priorities (keyed by uid).
const PRIORITY_STREAM: u64 = 0x5EED_0000_0000_0004;

/// The election priority of the node with unique id `uid` in a deployment
/// seeded with `seed` — a pure function, so an incremental repair and a
/// from-scratch re-election derive identical orderings. The initial node in
/// slot `s` has uid `s`; a node joining under churn gets a fresh uid, so it
/// never inherits the priority of the node whose slot it refills.
pub fn priority_for(seed: u64, uid: u64) -> u64 {
    mix_seed(seed, &[PRIORITY_STREAM, uid])
}

/// The [`ConfigError`] of a CCP election whose coverage counts would
/// overflow: more nodes cover one sample point than the raster counts.
pub(crate) fn election_error(e: CoverageOverflow) -> ConfigError {
    ConfigError::new(format!("CCP election failed: {e}"))
}

/// The substrate of one deployment: node positions, the all-nodes and
/// backbone spatial grids, the backbone neighbour table and the power plan,
/// indexed by slot. Static runs never change it; churn rewrites a slot's
/// position, role and grid entries in place, so the slot count stays fixed.
#[derive(Debug)]
pub(crate) struct Deployment {
    pub(crate) positions: Vec<Point>,
    pub(crate) all_nodes_grid: SpatialGrid,
    /// Backbone nodes only, for nearest-collector lookups.
    pub(crate) backbone_grid: SpatialGrid,
    pub(crate) neighbors: NeighborTable,
    pub(crate) plan: PowerPlan,
    /// The query radius `Rq`.
    query_radius_m: f64,
    /// The communication range `Rc`.
    comm_range_m: f64,
    /// Wall-clock spent on placement, the spatial grids and the neighbour
    /// table (a timing observation, not simulation state).
    pub(crate) neighbor_ms: f64,
    /// Wall-clock spent on the CCP backbone election.
    pub(crate) ccp_ms: f64,
}

impl Deployment {
    /// Builds the deployment for `scenario`, consuming forks 1 and 2 of the
    /// scenario's root RNG (the caller continues with fork 3 onwards).
    ///
    /// The backbone is elected by [`elect_backbone_priority`] in the stable
    /// order of [`priority_for`]`(seed, node)` — the order churn's
    /// incremental repair replays, so a churned run starts from exactly the
    /// backbone a static run uses. With `keep_repairable` the election's
    /// coverage raster is returned beside the deployment as a
    /// [`RepairableBackbone`] for churn to take; otherwise it is dropped
    /// before the neighbour table is built, so static setups never hold both
    /// at once.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the spatial grids cannot be built, or
    /// when more than [`wsn_power::MAX_COVERAGE_COUNT`] nodes cover one
    /// coverage sample point, which the election's 16-bit counts cannot
    /// hold.
    pub(crate) fn build(
        scenario: &Scenario,
        rng: &mut SimRng,
        keep_repairable: bool,
    ) -> Result<(Self, Option<RepairableBackbone>), ConfigError> {
        let region = scenario.region();
        let phase_start = Instant::now();
        let ms_since = |start: Instant| start.elapsed().as_secs_f64() * 1e3;

        // --- Deployment -------------------------------------------------
        let mut placement_rng = rng.fork(1);
        let positions: Vec<Point> = (0..scenario.node_count)
            .map(|_| {
                Point::new(
                    placement_rng.gen_range_f64(region.min_x, region.max_x),
                    placement_rng.gen_range_f64(region.min_y, region.max_y),
                )
            })
            .collect();
        let comm_range = scenario.radio.comm_range_m;
        let mut all_nodes_grid =
            SpatialGrid::new(region, comm_range).map_err(|e| ConfigError::new(e.to_string()))?;
        all_nodes_grid.reserve(positions.len());
        for (i, &p) in positions.iter().enumerate() {
            all_nodes_grid.insert(i, p);
        }
        let neighbor_grid_ms = ms_since(phase_start);

        // --- Power management (CCP backbone + PSM schedule) --------------
        let phase_start = Instant::now();
        // The priority election draws no randomness, but fork 2 stays
        // reserved for it so the motion and profile forks never move.
        let _ = rng.fork(2);
        // The priority and slot lists are scoped to the election so they are
        // freed before the neighbour table is built.
        let (roles, repairable) = {
            let priority: Vec<u64> = (0..positions.len() as u64)
                .map(|uid| priority_for(scenario.seed, uid))
                .collect();
            let alive: Vec<usize> = (0..positions.len()).collect();
            let ccp = &scenario.ccp;
            if keep_repairable {
                let (backbone, roles) =
                    RepairableBackbone::new(&positions, &priority, &alive, region, ccp)
                        .map_err(election_error)?;
                (roles, Some(backbone))
            } else {
                let roles = elect_backbone_priority(&positions, &priority, &alive, region, ccp)
                    .map_err(election_error)?;
                (roles, None)
            }
        };
        let ccp_ms = ms_since(phase_start);

        // The event loop only walks backbone adjacency (every flood and
        // routing hop filters on `is_backbone`), so the table is built among
        // the elected backbone — a fraction of the deployment — with results
        // identical to filtering the full table.
        let phase_start = Instant::now();
        let neighbors =
            NeighborTable::build_among(&positions, region, comm_range, |i| roles[i].is_backbone());
        let plan = PowerPlan::new(roles);
        // The backbone only changes under churn, which patches this grid
        // from its flip log, so one grid serves a whole run.
        let mut backbone_grid =
            SpatialGrid::new(region, comm_range).map_err(|e| ConfigError::new(e.to_string()))?;
        // Backbone ids range over every slot: size the id index once.
        backbone_grid.reserve(positions.len());
        for node in plan.backbone_nodes() {
            backbone_grid.insert(node.index(), positions[node.index()]);
        }
        let neighbor_ms = neighbor_grid_ms + ms_since(phase_start);
        let deployment = Deployment {
            positions,
            all_nodes_grid,
            backbone_grid,
            neighbors,
            plan,
            query_radius_m: scenario.query.radius_m,
            comm_range_m: comm_range,
            neighbor_ms,
            ccp_ms,
        };
        Ok((deployment, repairable))
    }

    /// How far from its centre a query tree reaches: `Rq + Rc`, one
    /// communication range beyond the query area, so that duty-cycled nodes
    /// at the area's edge still find an in-tree relay. Also the radius every
    /// [`TreeKey`] carries.
    pub(crate) fn tree_radius(&self) -> f64 {
        self.query_radius_m + self.comm_range_m
    }

    /// The flood-tree area: whether `node` is a backbone node within
    /// [`Deployment::tree_radius`] of `center` and not marked in `excluded`
    /// (the crashed slots a fault repair floods around).
    fn in_tree_area(&self, node: NodeId, center: Point, excluded: Option<&[bool]>) -> bool {
        self.plan.is_backbone(node)
            && !excluded.is_some_and(|e| e[node.index()])
            && self.positions[node.index()].distance_to(center) <= self.tree_radius()
    }

    /// Builds the BFS flood tree rooted at `root` over the tree area around
    /// `center`, out of `scratch`'s recycled buffers.
    pub(crate) fn flood_tree(
        &self,
        scratch: &mut FloodScratch,
        root: NodeId,
        center: Point,
        excluded: Option<&[bool]>,
    ) -> FloodTree {
        scratch.build(root, &self.neighbors, |n| {
            self.in_tree_area(n, center, excluded)
        })
    }

    /// Acquires the tree for `key` from `cache`, flooding it from the key's
    /// root over the tree area around the key's centre if no live tree has
    /// the key. The boolean is `true` when this call built the tree.
    pub(crate) fn acquire_tree(
        &self,
        cache: &mut TreeCache,
        key: TreeKey,
        excluded: Option<&[bool]>,
    ) -> (TreeHandle, bool) {
        cache.acquire(key, &self.neighbors, |n| {
            self.in_tree_area(n, key.center(), excluded)
        })
    }

    /// Indexes `tree`'s members at their slots' current positions for relay
    /// lookups, so a lookup scans the tree instead of the deployment. Under
    /// churn a batch refills every slot it frees before anything is indexed,
    /// so every member's position is current.
    pub(crate) fn index_relays(&self, relays: &mut StripIndex, tree: &FloodTree) {
        relays.rebuild(
            tree.order()
                .iter()
                .map(|n| (n.index(), self.positions[n.index()])),
        );
    }

    /// The duty-cycled nodes within `Rq` of `center` that have an in-tree
    /// relay within `Rc`, each paired with its nearest one (ties to the
    /// smallest id), in the all-nodes grid's range-query order: by grid
    /// cell, then by when each node was inserted into the grid (a churn
    /// joiner after the nodes already in its cell). `relays` indexes the
    /// tree's members ([`Deployment::index_relays`]).
    pub(crate) fn sleeper_relays<'a>(
        &'a self,
        center: Point,
        relays: &'a StripIndex,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        self.all_nodes_grid
            .query_range(center, self.query_radius_m)
            .map(NodeId)
            .filter(|&n| !self.plan.is_backbone(n))
            .filter_map(move |n| {
                relays
                    .nearest_within(self.positions[n.index()], self.comm_range_m)
                    .map(|(relay, _)| (n, NodeId(relay)))
            })
    }

    /// The backbone node nearest to `p` (ties to the smallest id), skipping
    /// the slots marked in `excluded`.
    pub(crate) fn nearest_collector(&self, p: Point, excluded: Option<&[bool]>) -> Option<NodeId> {
        self.backbone_grid
            .nearest_filtered(p, |i| !excluded.is_some_and(|e| e[i]))
            .map(|(i, _)| NodeId(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_is_a_pure_function_of_scenario_and_rng() {
        let scenario = Scenario::paper_default()
            .with_node_count(120)
            .with_region_side(350.0)
            .with_seed(9);
        let build = || {
            let mut rng = SimRng::seed_from_u64(scenario.seed);
            Deployment::build(&scenario, &mut rng, false).unwrap().0
        };
        let (a, b) = (build(), build());
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.plan.roles(), b.plan.roles());
        assert_eq!(a.backbone_grid.len(), a.plan.backbone_count());
        assert!(a.plan.backbone_count() > 0);
        assert!(a.plan.backbone_count() < scenario.node_count);
    }

    #[test]
    fn keeping_the_repairable_backbone_elects_the_same_roles() {
        let scenario = Scenario::paper_default()
            .with_node_count(120)
            .with_region_side(350.0)
            .with_seed(5);
        let build = |keep| {
            let mut rng = SimRng::seed_from_u64(scenario.seed);
            Deployment::build(&scenario, &mut rng, keep).unwrap()
        };
        let ((plain, none), (kept, some)) = (build(false), build(true));
        assert!(none.is_none());
        assert!(some.is_some());
        assert_eq!(plain.plan.roles(), kept.plan.roles());
    }

    #[test]
    fn rng_state_after_build_matches_two_manual_forks() {
        // The substrate must consume exactly forks 1 and 2: downstream
        // single-user streams (motion = fork 3, ...) depend on it.
        let scenario = Scenario::paper_default().with_node_count(60).with_seed(4);
        let mut rng = SimRng::seed_from_u64(scenario.seed);
        Deployment::build(&scenario, &mut rng, false).unwrap();
        let mut reference = SimRng::seed_from_u64(scenario.seed);
        let _ = reference.fork(1);
        let _ = reference.fork(2);
        assert_eq!(rng, reference);
    }
}
