//! Property-based equality contract between [`NeighborTable::patch`] and the
//! from-scratch [`NeighborTable::build_among`] it replaces under churn.
//!
//! Churn changes the backbone a few slots at a time: members die, sleepers
//! are promoted, members are demoted, and a dead slot is recycled at a new
//! position. The patch recomputes only the lists near those slots; these
//! properties pin the patched table equal — offsets, lists and order — to a
//! rebuild over the new member set, for random member sets, random changed
//! slots (repeats included) and random moves. Few changed slots among many
//! members make the patch splice the stale lists in; many make it rebuild.
//! Positions sit on a 6 m lattice with a 30 m range, so pairs exactly at
//! range (axis-aligned and 18-24-30 triangles) and colocated nodes are
//! common.

use proptest::prelude::*;
use proptest::TestCaseResult;
use wsn_geom::{Point, Rect, SpatialGrid};
use wsn_net::NeighborTable;
use wsn_sim::SimRng;

const COMM_RANGE: f64 = 30.0;

/// A uniform point of the 6 m lattice over the square of side `side`.
fn lattice_point(rng: &mut SimRng, side: f64) -> Point {
    let steps = (side / 6.0) as usize + 1;
    let mut step = || rng.gen_range_usize(0, steps) as f64 * 6.0;
    Point::new(step(), step())
}

fn members_grid(positions: &[Point], member: &[bool], side: f64, cell: f64) -> SpatialGrid {
    let mut grid = SpatialGrid::new(Rect::square(side), cell).unwrap();
    for (i, &p) in positions.iter().enumerate() {
        if member[i] {
            grid.insert(i, p);
        }
    }
    grid
}

fn table(positions: &[Point], member: &[bool], side: f64) -> NeighborTable {
    NeighborTable::build_among(positions, Rect::square(side), COMM_RANGE, |i| member[i])
}

/// Builds a table over a random member set, changes `batches` random sets of
/// slots, patches after each and compares against a rebuild.
fn assert_patch_matches_rebuild(
    seed: u64,
    n: usize,
    side: f64,
    batches: usize,
    changes: usize,
    cell: f64,
) -> TestCaseResult {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut positions: Vec<Point> = (0..n).map(|_| lattice_point(&mut rng, side)).collect();
    let mut member: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let mut patched = table(&positions, &member, side);
    for batch in 0..batches {
        let mut changed = Vec::new();
        for _ in 0..changes {
            let s = rng.gen_range_usize(0, n);
            changed.push(s);
            // Join, leave, or stay a member — the last models a member that
            // died and whose recycled slot was promoted again.
            member[s] = rng.gen_bool(0.5);
            if rng.gen_bool(0.5) {
                positions[s] = lattice_point(&mut rng, side);
            }
        }
        // Slots outside the member set on both sides may move unannounced
        // (a sleeper died and its slot re-joined as a sleeper).
        for s in 0..n {
            if !member[s] && !changed.contains(&s) && rng.gen_bool(0.2) {
                positions[s] = lattice_point(&mut rng, side);
            }
        }
        patched.patch(&members_grid(&positions, &member, side, cell), &changed);
        let rebuilt = table(&positions, &member, side);
        prop_assert!(
            patched == rebuilt,
            "batch {}: patched table differs from a rebuild (changed {:?})",
            batch,
            changed
        );
    }
    Ok(())
}

proptest! {
    /// The patched table equals a rebuild over the new member set, whatever
    /// the grid's cell size.
    #[test]
    fn patch_equals_build_among(
        seed in any::<u64>(),
        n in 1usize..120,
        batches in 1usize..4,
        changes in 0usize..8,
        cell in 10.0f64..70.0,
    ) {
        assert_patch_matches_rebuild(seed, n, 300.0, batches, changes, cell)?;
    }

    /// Dense fields, where most lists overlap a changed slot and most pairs
    /// sit at or within range.
    #[test]
    fn patch_equals_build_among_when_dense(seed in any::<u64>(), changes in 1usize..40) {
        assert_patch_matches_rebuild(seed, 150, 120.0, 2, changes, COMM_RANGE)?;
    }
}

#[test]
fn pairs_exactly_at_range_are_neighbours_after_a_patch() {
    // 0 and 1 are 30 m apart on the axis, 0 and 2 form an 18-24-30 triangle;
    // a line of twenty members far away keeps the two changed slots a small
    // share of the members, so their lists are spliced in.
    let mut positions = vec![
        Point::new(30.0, 30.0),
        Point::new(60.0, 30.0),
        Point::new(48.0, 54.0),
    ];
    positions.extend((0..20).map(|i| Point::new(i as f64 * 6.0, 110.0)));
    let mut member = vec![true; positions.len()];
    member[1] = false;
    member[2] = false;
    let mut patched = table(&positions, &member, 120.0);
    member[1] = true;
    member[2] = true;
    patched.patch(
        &members_grid(&positions, &member, 120.0, COMM_RANGE),
        &[1, 2],
    );
    assert_eq!(patched, table(&positions, &member, 120.0));
    let ids: Vec<usize> = patched
        .neighbors_of(wsn_net::NodeId(0))
        .iter()
        .map(|id| id.index())
        .collect();
    assert_eq!(ids, [1, 2]);
}
