//! CCP-style backbone election based on sensing-coverage redundancy.
//!
//! The Coverage Configuration Protocol (Wang, Xing et al., SenSys 2003 — by
//! the same group as the MobiQuery paper) lets a node sleep only when its
//! sensing area is already K-covered by active neighbours; when the
//! communication range is at least twice the sensing range, preserving
//! coverage also preserves connectivity, so the active nodes form a connected
//! backbone.
//!
//! MobiQuery only needs CCP for the backbone it produces, not for CCP's own
//! protocol dynamics, so we run the eligibility rule as a centralised greedy
//! pass at deployment time (documented substitution in `DESIGN.md`): nodes are
//! visited in a stable per-node priority order and put to sleep whenever the
//! remaining active nodes still cover their sensing disk. CCP's rule only
//! needs *some* visit order; a priority order keyed by per-node values is one
//! that survives churn, because the incremental repair can replay it locally.
//! Coverage of a disk is evaluated on a dense sample of points clipped to the
//! deployment region, which is exact up to the sampling resolution and
//! considerably more robust than the intersection-point rule in the presence
//! of region boundaries.
//!
//! Coverage is evaluated on the sample-point [`Lattice`] anchored at the
//! region origin. The production election, [`elect_backbone_priority`],
//! maintains an incremental [`CoverageRaster`] of per-point coverage counts
//! (built once, updated per demotion); the original per-point range-query
//! implementation is retained as [`elect_backbone_reference`] and
//! property-tested to produce bit-identical roles.

use crate::raster::{CoverageOverflow, CoverageRaster};
use wsn_geom::{Circle, Lattice, Point, Rect, SpatialGrid};
use wsn_net::NodeRole;

/// Parameters of the CCP-style election.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcpConfig {
    /// Sensing range of every node, in metres. Paper default: 50 m.
    pub sensing_range_m: f64,
    /// Required degree of coverage (K). The paper uses K = 1.
    pub coverage_degree: usize,
    /// Spacing of the sample lattice used for the coverage check, in metres.
    /// 5 m (a tenth of the sensing range) is ample for 50 m sensing disks.
    pub sample_spacing_m: f64,
}

impl CcpConfig {
    /// The evaluation settings of Section 6.1: 50 m sensing range, 1-coverage.
    pub fn paper_default() -> Self {
        CcpConfig {
            sensing_range_m: 50.0,
            coverage_degree: 1,
            sample_spacing_m: 5.0,
        }
    }
}

impl Default for CcpConfig {
    fn default() -> Self {
        CcpConfig::paper_default()
    }
}

/// Returns `true` when every sample point of `disk ∩ region` is within
/// `sensing_range` of at least `k` of the given active positions.
///
/// This is the reference coverage check: a spatial-grid range query per
/// sample point (short-circuited after `k` hits — dense cells hold far more
/// neighbours than the check needs). Sample points are enumerated through
/// the shared [`Lattice`] so the reference and the raster evaluate
/// predicates at bit-identical coordinates.
fn disk_covered(
    disk: Circle,
    lattice: &Lattice,
    active: &SpatialGrid,
    sensing_range: f64,
    k: usize,
) -> bool {
    // The lattice is anchored at the region origin so every coverage check
    // in a deployment evaluates the same global set of points. This makes the
    // greedy election's invariant exact on the lattice: if each removal keeps
    // the removed node's lattice points covered, the whole region's lattice
    // stays covered.
    let bb = disk.bounding_box();
    let Some((iy_lo, iy_hi)) = lattice.row_range(bb.min_y, bb.max_y) else {
        // The disk lies entirely outside the deployment region; nothing to cover.
        return true;
    };
    let Some((ix_lo, ix_hi)) = lattice.col_range(bb.min_x, bb.max_x) else {
        return true;
    };
    for iy in iy_lo..=iy_hi {
        for ix in ix_lo..=ix_hi {
            let p = lattice.point(ix, iy);
            if disk.contains(p) {
                let covers = active.query_range(p, sensing_range).take(k).count();
                if covers < k {
                    return false;
                }
            }
        }
    }
    true
}

/// Validates the election inputs shared by both implementations and returns
/// the initial roles: alive slots backbone, dead slots duty-cycled.
fn initial_roles(
    positions: &[Point],
    priority: &[u64],
    alive_slots: &[usize],
    config: &CcpConfig,
) -> Vec<NodeRole> {
    assert!(
        config.sensing_range_m > 0.0,
        "sensing range must be positive"
    );
    assert!(
        config.sample_spacing_m > 0.0,
        "sample spacing must be positive"
    );
    assert_eq!(positions.len(), priority.len(), "slot arrays must agree");
    let mut roles = vec![NodeRole::DutyCycled; positions.len()];
    for &s in alive_slots {
        assert!(
            !roles[s].is_backbone(),
            "slot {s} listed twice in alive_slots"
        );
        roles[s] = NodeRole::Backbone;
    }
    roles
}

/// The election's visit order: the alive slots in ascending
/// `(priority[slot], slot)` order.
fn priority_order(priority: &[u64], alive_slots: &[usize]) -> Vec<usize> {
    let mut order = alive_slots.to_vec();
    order.sort_unstable_by_key(|&s| (priority[s], s));
    order
}

/// Runs the CCP-style backbone election over a slotted, partially-alive
/// deployment in **stable priority order** — the one production election,
/// used at deployment time and as the full re-election of churn mode.
///
/// The alive slots are visited in ascending `(priority[slot], slot)` order. A
/// node is demoted to duty-cycled operation when the sensing disks of the
/// *other* currently-active nodes still provide `coverage_degree`-coverage of
/// its own sensing disk within the deployment region; otherwise it stays in
/// the backbone. The order is a pure function of per-node values, so after a
/// churn batch the incremental repair (`crate::repair`) can re-evaluate just
/// the perturbed nodes and provably land on the same backbone this full pass
/// elects — the equivalence the repair property tests pin.
///
/// Eligibility is served by an incremental [`CoverageRaster`]: per-point
/// coverage counts built once in O(n · disk-points), after which each
/// tentative demotion touches only the candidate's own disk points with O(1)
/// lookups. The result is bit-identical to [`elect_backbone_reference`] for
/// every input (property-tested).
///
/// `positions` and `priority` are slot-indexed (dead slots may hold stale
/// values); only the slots listed in `alive_slots` participate. Returns one
/// role per slot; dead slots come back [`NodeRole::DutyCycled`].
///
/// # Errors
///
/// Returns [`CoverageOverflow`] when more than
/// [`MAX_COVERAGE_COUNT`](crate::raster::MAX_COVERAGE_COUNT) alive nodes
/// cover one sample point, which needs more alive nodes than that.
///
/// # Panics
///
/// Panics if the config is invalid, a slot is listed twice or out of range.
pub fn elect_backbone_priority(
    positions: &[Point],
    priority: &[u64],
    alive_slots: &[usize],
    region: Rect,
    config: &CcpConfig,
) -> Result<Vec<NodeRole>, CoverageOverflow> {
    Ok(elect_backbone_priority_with_raster(positions, priority, alive_slots, region, config)?.0)
}

/// [`elect_backbone_priority`] plus the post-election coverage raster, whose
/// counts at that point are exactly "how many **backbone** nodes cover each
/// sample point" — the seed state of [`crate::repair::RepairableBackbone`].
pub(crate) fn elect_backbone_priority_with_raster(
    positions: &[Point],
    priority: &[u64],
    alive_slots: &[usize],
    region: Rect,
    config: &CcpConfig,
) -> Result<(Vec<NodeRole>, CoverageRaster), CoverageOverflow> {
    let mut roles = initial_roles(positions, priority, alive_slots, config);
    // Build bottom-to-top for memory locality, exactly like `build` (integer
    // adds commute, so counts do not depend on insertion order).
    let mut raster = CoverageRaster::new(region, config.sensing_range_m, config.sample_spacing_m);
    let mut by_y: Vec<usize> = alive_slots.to_vec();
    by_y.sort_unstable_by(|&a, &b| positions[a].y.total_cmp(&positions[b].y));
    for s in by_y {
        raster.add(positions[s])?;
    }
    for s in priority_order(priority, alive_slots) {
        if raster.try_demote(positions[s], config.coverage_degree) {
            roles[s] = NodeRole::DutyCycled;
        }
    }
    Ok((roles, raster))
}

/// The pre-raster election: the identical greedy pass in the identical
/// `(priority, slot)` order, but every eligibility check re-runs a grid
/// range query per sample point of the candidate's disk.
///
/// Kept as the executable specification of the election: the equivalence
/// property test (`raster_election_matches_reference` in
/// `tests/ccp_equivalence.rs`) and the unit test
/// `raster_election_is_bit_identical_to_reference` pin
/// [`elect_backbone_priority`]'s output byte-for-byte against this function
/// across seeds, densities and coverage degrees.
///
/// # Panics
///
/// Panics on the same inputs as [`elect_backbone_priority`].
pub fn elect_backbone_reference(
    positions: &[Point],
    priority: &[u64],
    alive_slots: &[usize],
    region: Rect,
    config: &CcpConfig,
) -> Vec<NodeRole> {
    let mut roles = initial_roles(positions, priority, alive_slots, config);
    if alive_slots.is_empty() {
        return roles;
    }
    let lattice = Lattice::new(region, config.sample_spacing_m).expect("validated spacing");
    // Grid of currently-active nodes, updated as nodes are demoted.
    let mut active = SpatialGrid::new(region, config.sensing_range_m)
        .expect("positive sensing range yields a valid grid");
    for &s in alive_slots {
        active.insert(s, positions[s]);
    }

    for s in priority_order(priority, alive_slots) {
        let p = positions[s];
        // Tentatively remove the node and test whether the rest still covers
        // its sensing disk.
        active.remove(s);
        let disk = Circle::new(p, config.sensing_range_m);
        if disk_covered(
            disk,
            &lattice,
            &active,
            config.sensing_range_m,
            config.coverage_degree,
        ) {
            roles[s] = NodeRole::DutyCycled;
        } else {
            active.insert(s, p);
        }
    }
    roles
}

/// Verifies that the nodes currently marked [`NodeRole::Backbone`] provide
/// `coverage_degree`-coverage of the whole deployment region.
///
/// Used by tests and by the simulation's self-checks; sampling resolution is
/// taken from `config.sample_spacing_m`.
///
/// # Errors
///
/// Returns [`CoverageOverflow`] when more than
/// [`MAX_COVERAGE_COUNT`](crate::raster::MAX_COVERAGE_COUNT) of the
/// positions cover one sample point.
pub fn backbone_covers_region(
    positions: &[Point],
    roles: &[NodeRole],
    region: Rect,
    config: &CcpConfig,
) -> Result<bool, CoverageOverflow> {
    if !(config.sensing_range_m > 0.0 && config.sample_spacing_m > 0.0) {
        return Ok(false);
    }
    // Two rasters over the same lattice: coverage by the backbone, and
    // coverage by the whole deployment. A lattice point only *requires*
    // k-coverage where the original deployment could provide any coverage at
    // all (the region corners of a random deployment may simply contain no
    // node).
    let backbone_positions: Vec<Point> = positions
        .iter()
        .zip(roles)
        .filter(|(_, r)| r.is_backbone())
        .map(|(&p, _)| p)
        .collect();
    let backbone = CoverageRaster::build(
        &backbone_positions,
        region,
        config.sensing_range_m,
        config.sample_spacing_m,
    )?;
    let all = CoverageRaster::build(
        positions,
        region,
        config.sensing_range_m,
        config.sample_spacing_m,
    )?;
    let lattice = *all.lattice();
    let k = u32::try_from(config.coverage_degree).unwrap_or(u32::MAX);
    for iy in 0..lattice.rows() {
        for ix in 0..lattice.cols() {
            if all.count(ix, iy) > 0 && backbone.count(ix, iy) < k {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_sim::SimRng;

    fn random_deployment(n: usize, side: f64, seed: u64) -> Vec<Point> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)))
            .collect()
    }

    /// Random per-node priorities drawn from `seed`, every slot alive.
    fn priorities(n: usize, seed: u64) -> (Vec<u64>, Vec<usize>) {
        let mut rng = SimRng::seed_from_u64(seed);
        ((0..n).map(|_| rng.next_u64()).collect(), (0..n).collect())
    }

    fn elect(positions: &[Point], region: Rect, cfg: &CcpConfig, seed: u64) -> Vec<NodeRole> {
        let (priority, alive) = priorities(positions.len(), seed);
        elect_backbone_priority(positions, &priority, &alive, region, cfg).unwrap()
    }

    #[test]
    fn dense_deployment_demotes_many_nodes() {
        let region = Rect::square(200.0);
        let positions = random_deployment(150, 200.0, 1);
        let roles = elect(&positions, region, &CcpConfig::paper_default(), 2);
        let backbone = roles.iter().filter(|r| r.is_backbone()).count();
        assert!(backbone < positions.len(), "some nodes must sleep");
        assert!(backbone > 0, "a backbone must remain");
        // In a deployment this dense most nodes are redundant.
        assert!(
            backbone < positions.len() / 2,
            "expected a small backbone, got {backbone}/{}",
            positions.len()
        );
    }

    #[test]
    fn backbone_preserves_coverage() {
        let region = Rect::square(300.0);
        let cfg = CcpConfig::paper_default();
        for seed in 0..3u64 {
            let positions = random_deployment(200, 300.0, seed * 7 + 1);
            let roles = elect(&positions, region, &cfg, seed);
            assert!(
                backbone_covers_region(&positions, &roles, region, &cfg).unwrap(),
                "backbone must cover the region (seed {seed})"
            );
        }
    }

    #[test]
    fn sparse_deployment_keeps_everyone_active() {
        // Nodes far apart: nobody is redundant.
        let region = Rect::square(450.0);
        let positions = vec![
            Point::new(50.0, 50.0),
            Point::new(250.0, 50.0),
            Point::new(50.0, 250.0),
            Point::new(250.0, 250.0),
        ];
        let roles = elect(&positions, region, &CcpConfig::paper_default(), 3);
        assert!(roles.iter().all(|r| r.is_backbone()));
    }

    #[test]
    fn colocated_nodes_reduce_to_one_active() {
        let region = Rect::square(100.0);
        let positions = vec![Point::new(50.0, 50.0); 5];
        let roles = elect(&positions, region, &CcpConfig::paper_default(), 4);
        let backbone = roles.iter().filter(|r| r.is_backbone()).count();
        assert_eq!(backbone, 1);
    }

    #[test]
    fn higher_coverage_degree_keeps_more_nodes() {
        let region = Rect::square(200.0);
        let positions = random_deployment(150, 200.0, 9);
        let cfg1 = CcpConfig::paper_default();
        let cfg2 = CcpConfig {
            coverage_degree: 2,
            ..cfg1
        };
        let b1 = elect(&positions, region, &cfg1, 5)
            .iter()
            .filter(|r| r.is_backbone())
            .count();
        let b2 = elect(&positions, region, &cfg2, 5)
            .iter()
            .filter(|r| r.is_backbone())
            .count();
        assert!(
            b2 >= b1,
            "2-coverage backbone ({b2}) must be at least as large as 1-coverage ({b1})"
        );
    }

    #[test]
    fn dead_slots_never_join_the_backbone() {
        let region = Rect::square(250.0);
        let positions = random_deployment(120, 250.0, 6);
        let (priority, _) = priorities(positions.len(), 6);
        let alive: Vec<usize> = (0..positions.len()).filter(|s| s % 3 != 0).collect();
        let cfg = CcpConfig::paper_default();
        let roles = elect_backbone_priority(&positions, &priority, &alive, region, &cfg).unwrap();
        assert!((0..positions.len())
            .filter(|s| s % 3 == 0)
            .all(|s| !roles[s].is_backbone()));
        let reference = elect_backbone_reference(&positions, &priority, &alive, region, &cfg);
        assert_eq!(roles, reference);
    }

    #[test]
    fn raster_election_is_bit_identical_to_reference() {
        let region = Rect::square(250.0);
        let cfg = CcpConfig::paper_default();
        for seed in 0..5u64 {
            let positions = random_deployment(180, 250.0, seed * 13 + 3);
            let (priority, alive) = priorities(positions.len(), seed + 100);
            let fast =
                elect_backbone_priority(&positions, &priority, &alive, region, &cfg).unwrap();
            let reference = elect_backbone_reference(&positions, &priority, &alive, region, &cfg);
            assert_eq!(fast, reference, "seed {seed}");
        }
    }

    #[test]
    fn empty_deployment_is_fine() {
        let roles = elect(&[], Rect::square(10.0), &CcpConfig::paper_default(), 1);
        assert!(roles.is_empty());
    }
}
