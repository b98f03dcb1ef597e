//! Property-based equality contract between the coverage-raster CCP election
//! and the retained per-point reference implementation.
//!
//! The incremental [`wsn_power::CoverageRaster`] replaced a per-sample-point
//! grid range query in the election; these properties pin
//! `elect_backbone_priority` and `elect_backbone_reference` byte-identical —
//! same roles for every slot, never merely "the same backbone size" — across
//! random priorities, alive subsets, deployment densities, lattice spacings
//! and coverage degrees, plus the colocated and sparse edge cases the unit
//! suite covers.

use proptest::prelude::*;
use wsn_geom::{Point, Rect};
use wsn_net::NodeRole;
use wsn_power::ccp::{
    backbone_covers_region, elect_backbone_priority, elect_backbone_reference, CcpConfig,
};
use wsn_sim::SimRng;

fn config(coverage_degree: usize, spacing: f64) -> CcpConfig {
    CcpConfig {
        sensing_range_m: 50.0,
        coverage_degree,
        sample_spacing_m: spacing,
    }
}

fn deployment(n: usize, side: f64, seed: u64) -> Vec<Point> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)))
        .collect()
}

/// Per-slot priorities drawn from `seed`; every slot alive unless
/// `dead_one_in` is nonzero, in which case every `dead_one_in`-th slot is dead.
fn slots(n: usize, seed: u64, dead_one_in: usize) -> (Vec<u64>, Vec<usize>) {
    let mut rng = SimRng::seed_from_u64(seed);
    let priority = (0..n).map(|_| rng.next_u64()).collect();
    let alive = (0..n)
        .filter(|s| dead_one_in == 0 || s % dead_one_in != 0)
        .collect();
    (priority, alive)
}

/// Asserts raster == reference for one deployment/config/priority draw,
/// returning the roles for any further checks.
fn assert_elections_identical(
    positions: &[Point],
    region: Rect,
    cfg: &CcpConfig,
    seed: u64,
    dead_one_in: usize,
) -> Result<Vec<NodeRole>, TestCaseError> {
    let (priority, alive) = slots(positions.len(), seed, dead_one_in);
    let fast = elect_backbone_priority(positions, &priority, &alive, region, cfg).unwrap();
    let reference = elect_backbone_reference(positions, &priority, &alive, region, cfg);
    prop_assert_eq!(&fast, &reference);
    Ok(fast)
}

proptest! {
    /// Byte-identical roles across random seeds, node counts, region sides,
    /// spacings, coverage degrees 1–3 and dead-slot patterns.
    #[test]
    fn raster_election_matches_reference(
        seed in any::<u64>(),
        n in 0usize..120,
        side in 60.0f64..320.0,
        spacing in 2.0f64..11.0,
        coverage_degree in 1usize..4,
        dead_one_in in 0usize..5,
    ) {
        let region = Rect::square(side);
        let positions = deployment(n, side, seed ^ 0x5eed);
        let cfg = config(coverage_degree, spacing);
        assert_elections_identical(&positions, region, &cfg, seed, dead_one_in)?;
    }

    /// Colocated stacks of nodes (exact duplicate positions) demote
    /// identically — the regime where per-point counts change by more than
    /// one per position and tie handling matters most.
    #[test]
    fn colocated_stacks_demote_identically(
        seed in any::<u64>(),
        stacks in 1usize..6,
        per_stack in 1usize..7,
        coverage_degree in 1usize..4,
    ) {
        let side = 150.0;
        let region = Rect::square(side);
        let anchors = deployment(stacks, side, seed ^ 0xface);
        let positions: Vec<Point> = anchors
            .iter()
            .flat_map(|&p| std::iter::repeat(p).take(per_stack))
            .collect();
        let cfg = config(coverage_degree, 5.0);
        assert_elections_identical(&positions, region, &cfg, seed, 0)?;
    }

    /// Sparse deployments (disks barely overlapping or fully disjoint,
    /// including disks clipped by or outside the region) agree too, and both
    /// implementations leave a region-covering backbone.
    #[test]
    fn sparse_deployments_agree_and_preserve_coverage(
        seed in any::<u64>(),
        n in 1usize..10,
        coverage_degree in 1usize..3,
    ) {
        let side = 600.0;
        let region = Rect::square(side);
        let positions = deployment(n, side, seed ^ 0xdead);
        let cfg = config(coverage_degree, 5.0);
        assert_elections_identical(&positions, region, &cfg, seed, 0)?;
        // Coverage preservation is the election's contract for the paper's
        // K = 1 (higher K may be unattainable in a sparse deployment no
        // matter who stays awake, which the region check reports as false).
        let cfg1 = config(1, 5.0);
        let roles = assert_elections_identical(&positions, region, &cfg1, seed, 0)?;
        prop_assert!(
            backbone_covers_region(&positions, &roles, region, &cfg1).unwrap(),
            "the elected backbone must keep covering the region"
        );
    }
}

/// The exact unit-test edge cases from `ccp::tests`, re-checked through the
/// equality contract: five colocated nodes reduce to one, and a sparse
/// four-node deployment keeps everyone active — identically in both paths.
#[test]
fn unit_edge_cases_agree() {
    let cfg = CcpConfig::paper_default();
    let elect = |positions: &[Point], region: Rect| {
        assert_elections_identical(positions, region, &cfg, 4, 0).expect("elections agree")
    };

    let colocated = vec![Point::new(50.0, 50.0); 5];
    let roles = elect(&colocated, Rect::square(100.0));
    assert_eq!(roles.iter().filter(|r| r.is_backbone()).count(), 1);

    let sparse = vec![
        Point::new(50.0, 50.0),
        Point::new(250.0, 50.0),
        Point::new(50.0, 250.0),
        Point::new(250.0, 250.0),
    ];
    let roles = elect(&sparse, Rect::square(450.0));
    assert!(roles.iter().all(|r| r.is_backbone()));
}
