//! Indexed vs linear per-query hot path at deployment scale.
//!
//! Benchmarks the two lookups a MobiQuery period performs, each in its
//! pre-optimization linear form and its indexed form, at 1k and 10k nodes
//! (constant density):
//!
//! * `nearest_backbone` — collector / proxy-attach selection: linear scan
//!   over every backbone node vs the backbone grid's expanding-ring search;
//! * `query_install` — flood-tree build plus parent assignment for every
//!   sleeping node in the query area: per-node scan over the whole tree vs
//!   a lookup over the tree's members indexed by position.
//!
//! Parent assignment alone is also timed in three flavours: the linear scan,
//! the all-nodes grid walk filtered on tree membership (the indexed form
//! before the members got their own index) and the member index.
//!
//! Every variant produces identical assignments (asserted once per
//! fixture); only the lookup strategy differs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wsn_geom::{Point, Rect, SpatialGrid, StripIndex};
use wsn_net::{FloodScratch, FloodTree, NeighborTable, NodeId};
use wsn_sim::SimRng;

/// Paper-default radio range and query radius.
const COMM_RANGE: f64 = 105.0;
const QUERY_RADIUS: f64 = 150.0;

struct Fixture {
    positions: Vec<Point>,
    backbone: Vec<NodeId>,
    is_backbone: Vec<bool>,
    neighbors: NeighborTable,
    all_grid: SpatialGrid,
    backbone_grid: SpatialGrid,
    pickup: Point,
    sleeping_in_area: Vec<NodeId>,
}

/// Uniform deployment at the paper's density with every third node acting as
/// backbone (about the fraction CCP elects).
fn fixture(nodes: usize, seed: u64) -> Fixture {
    let side = 450.0 * (nodes as f64 / 200.0).sqrt();
    let region = Rect::square(side);
    let mut rng = SimRng::seed_from_u64(seed);
    let positions: Vec<Point> = (0..nodes)
        .map(|_| Point::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)))
        .collect();
    let is_backbone: Vec<bool> = (0..nodes).map(|i| i % 3 == 0).collect();
    let backbone: Vec<NodeId> = (0..nodes).filter(|&i| is_backbone[i]).map(NodeId).collect();
    let neighbors = NeighborTable::build(&positions, region, COMM_RANGE);
    let mut all_grid = SpatialGrid::new(region, COMM_RANGE).unwrap();
    let mut backbone_grid = SpatialGrid::new(region, COMM_RANGE).unwrap();
    for (i, &p) in positions.iter().enumerate() {
        all_grid.insert(i, p);
        if is_backbone[i] {
            backbone_grid.insert(i, p);
        }
    }
    let pickup = Point::new(side / 2.0, side / 2.0);
    let sleeping_in_area: Vec<NodeId> = all_grid
        .query_range(pickup, QUERY_RADIUS)
        .filter(|&i| !is_backbone[i])
        .map(NodeId)
        .collect();
    Fixture {
        positions,
        backbone,
        is_backbone,
        neighbors,
        all_grid,
        backbone_grid,
        pickup,
        sleeping_in_area,
    }
}

/// The pre-index collector selection: scan every backbone node.
fn nearest_backbone_linear(f: &Fixture, p: Point) -> Option<NodeId> {
    f.backbone.iter().copied().min_by(|&a, &b| {
        f.positions[a.index()]
            .distance_sq_to(p)
            .total_cmp(&f.positions[b.index()].distance_sq_to(p))
    })
}

/// One query installation, linear flavour: fresh-scratch tree build plus a
/// whole-tree scan per sleeping node (what `install_query` used to do).
fn install_linear(f: &Fixture) -> (Option<NodeId>, usize) {
    let collector = nearest_backbone_linear(f, f.pickup);
    let root = collector.expect("fixture has backbone nodes");
    let relay = QUERY_RADIUS + COMM_RANGE;
    let tree = wsn_net::FloodTree::build(root, &f.neighbors, |n| {
        f.is_backbone[n.index()] && f.positions[n.index()].distance_to(f.pickup) <= relay
    });
    let mut assigned = 0;
    for &node in &f.sleeping_in_area {
        let pos = f.positions[node.index()];
        let parent = tree
            .order()
            .iter()
            .copied()
            .filter(|&b| f.positions[b.index()].distance_to(pos) <= COMM_RANGE)
            .min_by(|&a, &b| {
                f.positions[a.index()]
                    .distance_sq_to(pos)
                    .total_cmp(&f.positions[b.index()].distance_sq_to(pos))
            });
        if parent.is_some() {
            assigned += 1;
        }
    }
    (collector, assigned)
}

/// One query installation, indexed flavour: backbone-grid collector lookup,
/// scratch-buffer tree build, and parent assignment over the tree's members
/// indexed by position (what `install_query` does now).
fn install_indexed(
    f: &Fixture,
    scratch: &mut FloodScratch,
    relays: &mut StripIndex,
) -> (Option<NodeId>, usize) {
    let collector = f.backbone_grid.nearest(f.pickup).map(|(i, _)| NodeId(i));
    let root = collector.expect("fixture has backbone nodes");
    let relay = QUERY_RADIUS + COMM_RANGE;
    let tree = scratch.build(root, &f.neighbors, |n| {
        f.is_backbone[n.index()] && f.positions[n.index()].distance_to(f.pickup) <= relay
    });
    let assigned = assign_indexed(f, &tree, relays);
    scratch.recycle(tree);
    (collector, assigned)
}

/// Parent assignment over the all-nodes grid, filtered on tree membership.
fn assign_grid(f: &Fixture, tree: &FloodTree) -> usize {
    f.sleeping_in_area
        .iter()
        .filter(|node| {
            let pos = f.positions[node.index()];
            f.all_grid
                .nearest_filtered(pos, |i| tree.contains(NodeId(i)))
                .is_some_and(|(_, ppos)| ppos.distance_to(pos) <= COMM_RANGE)
        })
        .count()
}

/// Parent assignment over the tree's members indexed by position.
fn assign_indexed(f: &Fixture, tree: &FloodTree, relays: &mut StripIndex) -> usize {
    relays.rebuild(
        tree.order()
            .iter()
            .map(|n| (n.index(), f.positions[n.index()])),
    );
    f.sleeping_in_area
        .iter()
        .filter(|node| {
            relays
                .nearest_within(f.positions[node.index()], COMM_RANGE)
                .is_some()
        })
        .count()
}

fn bench_scales(c: &mut Criterion) {
    for nodes in [1_000usize, 10_000] {
        let f = fixture(nodes, 7);
        let mut scratch = FloodScratch::new();
        let mut relays = StripIndex::new();
        // Both flavours must agree before their timings mean anything.
        assert_eq!(
            install_linear(&f),
            install_indexed(&f, &mut scratch, &mut relays)
        );

        let mut group = c.benchmark_group(&format!("scale_{nodes}"));
        group.sample_size(20);
        group.bench_function(format!("nearest_backbone_linear_{nodes}"), |b| {
            b.iter(|| black_box(nearest_backbone_linear(&f, black_box(f.pickup))))
        });
        group.bench_function(format!("nearest_backbone_grid_{nodes}"), |b| {
            b.iter(|| black_box(f.backbone_grid.nearest(black_box(f.pickup))))
        });
        group.bench_function(format!("query_install_linear_{nodes}"), |b| {
            b.iter(|| black_box(install_linear(&f)))
        });
        group.bench_function(format!("query_install_indexed_{nodes}"), |b| {
            b.iter(|| black_box(install_indexed(&f, &mut scratch, &mut relays)))
        });

        // Parent assignment alone (tree prebuilt): the O(sleeping × tree)
        // scan vs the filtered grid walk vs the member index.
        let relay = QUERY_RADIUS + COMM_RANGE;
        let root = f.backbone_grid.nearest(f.pickup).map(|(i, _)| NodeId(i));
        let tree = scratch.build(root.unwrap(), &f.neighbors, |n| {
            f.is_backbone[n.index()] && f.positions[n.index()].distance_to(f.pickup) <= relay
        });
        assert_eq!(
            assign_grid(&f, &tree),
            assign_indexed(&f, &tree, &mut relays)
        );
        group.bench_function(format!("parent_assign_linear_{nodes}"), |b| {
            b.iter(|| {
                let mut assigned = 0;
                for &node in &f.sleeping_in_area {
                    let pos = f.positions[node.index()];
                    let parent = tree
                        .order()
                        .iter()
                        .copied()
                        .filter(|&p| f.positions[p.index()].distance_to(pos) <= COMM_RANGE)
                        .min_by(|&a, &b| {
                            f.positions[a.index()]
                                .distance_sq_to(pos)
                                .total_cmp(&f.positions[b.index()].distance_sq_to(pos))
                        });
                    if parent.is_some() {
                        assigned += 1;
                    }
                }
                black_box(assigned)
            })
        });
        group.bench_function(format!("parent_assign_grid_{nodes}"), |b| {
            b.iter(|| black_box(assign_grid(&f, &tree)))
        });
        group.bench_function(format!("parent_assign_indexed_{nodes}"), |b| {
            b.iter(|| black_box(assign_indexed(&f, &tree, &mut relays)))
        });
        scratch.recycle(tree);
        group.finish();
    }
}

criterion_group!(benches, bench_scales);
criterion_main!(benches);
