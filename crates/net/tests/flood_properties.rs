//! Property-based tests for flood-tree construction and relay lookup.
//!
//! The dense, scratch-buffer [`FloodTree`] build replaced an earlier
//! `HashMap`-based implementation; these properties pin the equivalence: a
//! reference BFS over hash maps must agree with both the convenience
//! constructor and a long-lived, buffer-recycling [`FloodScratch`] on every
//! parent, hop count and the full discovery order. Relay lookups over a
//! tree's indexed members must agree with the deployment-wide grid walk
//! they replaced.

use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use wsn_geom::{Point, Rect, SpatialGrid, StripIndex};
use wsn_net::{FloodScratch, FloodTree, NeighborTable, NodeId};

/// The pre-optimization reference implementation: BFS over `HashMap`s.
#[allow(clippy::type_complexity)]
fn hashmap_reference_build(
    root: NodeId,
    neighbors: &NeighborTable,
    mut member: impl FnMut(NodeId) -> bool,
) -> (
    HashMap<NodeId, Option<NodeId>>,
    HashMap<NodeId, u32>,
    Vec<NodeId>,
) {
    let mut parent = HashMap::new();
    let mut hops = HashMap::new();
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    parent.insert(root, None);
    hops.insert(root, 0);
    order.push(root);
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let d = hops[&u];
        for &v in neighbors.neighbors_of(u) {
            if parent.contains_key(&v) || !member(v) {
                continue;
            }
            parent.insert(v, Some(u));
            hops.insert(v, d + 1);
            order.push(v);
            queue.push_back(v);
        }
    }
    (parent, hops, order)
}

fn deployment(coords: &[(f64, f64)]) -> (Vec<Point>, NeighborTable) {
    let positions: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let table = NeighborTable::build(&positions, Rect::square(450.0), 105.0);
    (positions, table)
}

fn assert_tree_matches_reference(
    tree: &FloodTree,
    root: NodeId,
    node_count: usize,
    parent: &HashMap<NodeId, Option<NodeId>>,
    hops: &HashMap<NodeId, u32>,
    order: &[NodeId],
) {
    assert_eq!(tree.order(), order, "BFS discovery order");
    assert_eq!(tree.root(), root);
    assert_eq!(tree.len(), order.len());
    for i in 0..node_count {
        let n = NodeId(i);
        assert_eq!(
            tree.contains(n),
            parent.contains_key(&n),
            "membership of {n}"
        );
        assert_eq!(
            tree.parent_of(n),
            parent.get(&n).copied().flatten(),
            "parent of {n}"
        );
        assert_eq!(tree.depth_of(n), hops.get(&n).copied(), "depth of {n}");
    }
}

proptest! {
    /// The dense build agrees with the HashMap reference on arbitrary random
    /// deployments and membership predicates.
    #[test]
    fn dense_build_matches_hashmap_reference(
        coords in proptest::collection::vec((0.0f64..450.0, 0.0f64..450.0), 2..60),
        root_pick in 0usize..60,
        member_mod in 1usize..4,
    ) {
        let (_, table) = deployment(&coords);
        let root = NodeId(root_pick % coords.len());
        let member = |n: NodeId| n.index() % member_mod != 1;
        let (parent, hops, order) = hashmap_reference_build(root, &table, member);
        let tree = FloodTree::build(root, &table, member);
        assert_tree_matches_reference(&tree, root, coords.len(), &parent, &hops, &order);
    }

    /// A single FloodScratch reused (with buffer recycling) across a sequence
    /// of builds over different roots and predicates yields exactly the same
    /// trees as fresh builds — reuse must never leak state between builds.
    #[test]
    fn scratch_reuse_is_stateless_across_builds(
        coords in proptest::collection::vec((0.0f64..450.0, 0.0f64..450.0), 2..40),
        roots in proptest::collection::vec(0usize..40, 1..6),
        member_mod in 1usize..4,
    ) {
        let (_, table) = deployment(&coords);
        let mut scratch = FloodScratch::new();
        let mut previous: Option<FloodTree> = None;
        for (i, &r) in roots.iter().enumerate() {
            // Vary the predicate per build so consecutive builds differ.
            let member = |n: NodeId| (n.index() + i) % member_mod != 1;
            if let Some(old) = previous.take() {
                scratch.recycle(old);
            }
            let root = NodeId(r % coords.len());
            let (parent, hops, order) = hashmap_reference_build(root, &table, member);
            let from_scratch = scratch.build(root, &table, member);
            assert_tree_matches_reference(
                &from_scratch, root, coords.len(), &parent, &hops, &order,
            );
            previous = Some(from_scratch);
        }
    }

    /// Indexing a tree's members gives every probe point the relay a walk of
    /// the all-nodes grid filtered on tree membership gives it: the same
    /// nearest member, the same smallest-id winner of an exact tie, and the
    /// same `None` when the nearest member is out of range.
    #[test]
    fn member_index_relay_matches_the_filtered_grid_walk(
        cells in proptest::collection::vec((0usize..16, 0usize..16), 2..60),
        root_pick in 0usize..60,
        member_mod in 1usize..4,
        range_pick in 0usize..4,
        free_range in 1.0f64..200.0,
    ) {
        // Nodes on a 30 m lattice and probes on a 15 m one make duplicate
        // positions, exactly equidistant members and members at exactly the
        // range common, so every tie-break and boundary case is exercised.
        let coords: Vec<(f64, f64)> = cells
            .iter()
            .map(|&(cx, cy)| (cx as f64 * 30.0, cy as f64 * 30.0))
            .collect();
        let (positions, table) = deployment(&coords);
        let root = NodeId(root_pick % coords.len());
        let tree = FloodTree::build(root, &table, |n| n.index() % member_mod != 1);
        let mut grid = SpatialGrid::new(Rect::square(450.0), 105.0).unwrap();
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        let mut relays = StripIndex::new();
        relays.rebuild(tree.order().iter().map(|n| (n.index(), positions[n.index()])));
        let range = [30.0, 60.0, 105.0, free_range][range_pick];
        for qx in 0..31 {
            for qy in 0..31 {
                let probe = Point::new(qx as f64 * 15.0, qy as f64 * 15.0);
                let walked = grid
                    .nearest_filtered(probe, |i| tree.contains(NodeId(i)))
                    .filter(|&(_, p)| p.distance_to(probe) <= range);
                prop_assert_eq!(
                    relays.nearest_within(probe, range),
                    walked,
                    "relay of {:?} within {}",
                    probe,
                    range
                );
            }
        }
    }
}
