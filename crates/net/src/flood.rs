//! Bounded-area flooding and the query-tree structure it induces.
//!
//! Query dissemination in MobiQuery floods a setup message from the collector
//! node to every backbone node inside the query area; each node adopts the
//! first node it hears the message from as its parent, which yields a
//! breadth-first spanning tree rooted at the collector. Sleeping nodes later
//! attach to that tree as leaves.
//!
//! A fresh tree is built every query period, so this is one of the
//! simulator's innermost loops. The tree is therefore stored as dense,
//! index-linked `Vec`s (BFS order, parent slots, a CSR children layout and a
//! sorted id→slot table) rather than per-tree hash maps, and
//! [`FloodScratch`] lets a long-lived owner recycle both the BFS working
//! state and retired tree buffers so steady-state tree construction
//! allocates nothing.

use crate::neighbors::NeighborTable;
use crate::node::NodeId;

/// Sentinel slot meaning "no parent" (the root's slot entry).
const NO_PARENT: u32 = u32::MAX;

/// The spanning tree produced by flooding a message within a node subset.
///
/// Nodes are addressed externally by [`NodeId`] and internally by *slot*:
/// the node's index in BFS discovery order. Because a BFS parent finishes
/// discovering all of its children before the next parent starts, each
/// node's children occupy a contiguous run of the order, which is what makes
/// the CSR children layout possible without any per-node allocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FloodTree {
    /// Nodes in the order the flood reaches them (BFS order, root first).
    order: Vec<NodeId>,
    /// Slot of each node's parent, parallel to `order`; `NO_PARENT` for the
    /// root.
    parent_slot: Vec<u32>,
    /// Hop distance from the root, parallel to `order`.
    hop: Vec<u32>,
    /// CSR index: the children of the node at slot `i` are
    /// `order[children_start[i]..children_start[i + 1]]`.
    children_start: Vec<u32>,
    /// `(node, slot)` pairs sorted by node id, for O(log n) membership and
    /// parent/depth lookups.
    slots: Vec<(NodeId, u32)>,
}

impl FloodTree {
    /// Builds the BFS flood tree rooted at `root` over the subgraph induced by
    /// the nodes for which `member` returns `true`.
    ///
    /// `root` is always included even if `member(root)` is `false` (the
    /// collector may sit just outside the query area, within `Rp` of the
    /// pickup point).
    ///
    /// This convenience constructor allocates fresh scratch state per call;
    /// hot loops should hold a [`FloodScratch`] and call
    /// [`FloodScratch::build`] instead.
    pub fn build(
        root: NodeId,
        neighbors: &NeighborTable,
        member: impl FnMut(NodeId) -> bool,
    ) -> Self {
        FloodScratch::new().build(root, neighbors, member)
    }

    /// The root (collector) node.
    ///
    /// # Panics
    ///
    /// Panics on a default-constructed (empty) tree, which
    /// [`build`](Self::build) never produces.
    pub fn root(&self) -> NodeId {
        self.order[0]
    }

    /// Number of nodes reached by the flood (including the root).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` when only the root is in the tree.
    pub fn is_empty(&self) -> bool {
        self.order.len() <= 1
    }

    /// Nodes in the order the flood reaches them (BFS order, root first).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The slot of `node` (its index in BFS discovery order, root = 0), if
    /// reached. Slots are dense in `0..len()`, so per-member state can live
    /// in plain columns indexed by slot.
    pub fn slot(&self, node: NodeId) -> Option<usize> {
        self.slots
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| self.slots[i].1 as usize)
    }

    /// Returns `true` when `node` was reached by the flood.
    pub fn contains(&self, node: NodeId) -> bool {
        self.slot(node).is_some()
    }

    /// The parent of `node`, or `None` for the root or unreached nodes.
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        let slot = self.slot(node)?;
        match self.parent_slot[slot] {
            NO_PARENT => None,
            p => Some(self.order[p as usize]),
        }
    }

    /// Hop distance of `node` from the root, if reached.
    pub fn depth_of(&self, node: NodeId) -> Option<u32> {
        self.slot(node).map(|slot| self.hop[slot])
    }

    /// The maximum hop distance of any reached node (the tree's depth).
    pub fn depth(&self) -> u32 {
        // BFS discovers nodes in non-decreasing hop order, so the last node
        // is always a deepest one.
        self.hop.last().copied().unwrap_or(0)
    }

    /// The children of `node` in the tree, in ascending id order (the
    /// neighbour table is id-sorted, so BFS discovers them that way).
    ///
    /// Unreached nodes have no children.
    pub fn children_of(&self, node: NodeId) -> &[NodeId] {
        match self.slot(node) {
            None => &[],
            Some(slot) => &self.order[self.child_slots(slot)],
        }
    }

    /// The slots of the children of the member at `slot`: a BFS parent
    /// discovers all its children consecutively, so they are one run.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is not below [`len`](Self::len).
    pub fn child_slots(&self, slot: usize) -> std::ops::Range<usize> {
        self.children_start[slot] as usize..self.children_start[slot + 1] as usize
    }

    /// Empties the tree, keeping every buffer's capacity for reuse.
    fn clear(&mut self) {
        self.order.clear();
        self.parent_slot.clear();
        self.hop.clear();
        self.children_start.clear();
        self.slots.clear();
    }
}

/// Reusable working state for [`FloodTree`] construction: an epoch-marked
/// visited array sized to the deployment, plus a pool of retired tree
/// buffers.
///
/// One query period builds one tree; an owner that holds a `FloodScratch`
/// and [`recycle`](Self::recycle)s trees it no longer needs reaches a steady
/// state where tree construction performs no heap allocation at all.
#[derive(Debug, Default)]
pub struct FloodScratch {
    /// `mark[n] == epoch` iff node `n` is in the most recently built tree.
    mark: Vec<u64>,
    /// Current build generation; bumped once per [`build`](Self::build).
    epoch: u64,
    /// Retired trees whose buffers the next build reuses.
    pool: Vec<FloodTree>,
}

impl FloodScratch {
    /// Creates empty scratch state; buffers grow on first use.
    pub fn new() -> Self {
        FloodScratch::default()
    }

    /// Returns a no-longer-needed tree's buffers to the pool.
    pub fn recycle(&mut self, tree: FloodTree) {
        self.pool.push(tree);
    }

    /// Builds the BFS flood tree rooted at `root` over the subgraph induced
    /// by the nodes for which `member` returns `true`, reusing this scratch's
    /// buffers. Semantics are identical to [`FloodTree::build`].
    pub fn build(
        &mut self,
        root: NodeId,
        neighbors: &NeighborTable,
        mut member: impl FnMut(NodeId) -> bool,
    ) -> FloodTree {
        if self.mark.len() < neighbors.node_count() {
            self.mark.resize(neighbors.node_count(), 0);
        }
        self.epoch += 1;
        let epoch = self.epoch;

        let mut tree = self.pool.pop().unwrap_or_default();
        tree.clear();

        self.mark[root.index()] = epoch;
        tree.order.push(root);
        tree.parent_slot.push(NO_PARENT);
        tree.hop.push(0);

        // `order` doubles as the BFS queue: nodes are processed in the order
        // they were discovered, and each node's children are appended while
        // it is being processed, which yields the contiguous CSR runs.
        let mut head = 0;
        tree.children_start.push(1);
        while head < tree.order.len() {
            let u = tree.order[head];
            let d = tree.hop[head];
            for &v in neighbors.neighbors_of(u) {
                if self.mark[v.index()] == epoch || !member(v) {
                    continue;
                }
                self.mark[v.index()] = epoch;
                tree.order.push(v);
                tree.parent_slot.push(head as u32);
                tree.hop.push(d + 1);
            }
            tree.children_start.push(tree.order.len() as u32);
            head += 1;
        }

        tree.slots
            .extend(tree.order.iter().enumerate().map(|(i, &n)| (n, i as u32)));
        tree.slots.sort_unstable_by_key(|&(n, _)| n);
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::{Point, Rect};

    fn line_table(n: usize) -> NeighborTable {
        let positions: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        NeighborTable::build(&positions, Rect::square(2000.0), 105.0)
    }

    #[test]
    fn flood_reaches_connected_members() {
        let table = line_table(6);
        let tree = FloodTree::build(NodeId(0), &table, |_| true);
        assert_eq!(tree.len(), 6);
        assert_eq!(tree.depth(), 5);
        assert_eq!(tree.parent_of(NodeId(3)), Some(NodeId(2)));
        assert_eq!(tree.depth_of(NodeId(5)), Some(5));
        assert_eq!(tree.order()[0], NodeId(0));
        assert_eq!(tree.root(), NodeId(0));
    }

    #[test]
    fn slots_index_the_bfs_order() {
        let table = line_table(5);
        let tree = FloodTree::build(NodeId(2), &table, |n| n != NodeId(4));
        assert_eq!(tree.slot(NodeId(2)), Some(0));
        for (i, &n) in tree.order().iter().enumerate() {
            assert_eq!(tree.slot(n), Some(i));
            let children: Vec<NodeId> = tree.child_slots(i).map(|c| tree.order()[c]).collect();
            assert_eq!(children, tree.children_of(n));
        }
        assert_eq!(tree.slot(NodeId(4)), None);
    }

    #[test]
    fn membership_limits_the_flood() {
        let table = line_table(6);
        // Node 3 is excluded, so 4 and 5 are unreachable.
        let tree = FloodTree::build(NodeId(0), &table, |n| n != NodeId(3));
        assert_eq!(tree.len(), 3);
        assert!(!tree.contains(NodeId(4)));
        assert!(!tree.is_empty());
    }

    #[test]
    fn root_outside_membership_is_still_included() {
        let table = line_table(4);
        let tree = FloodTree::build(NodeId(0), &table, |n| n.index() >= 1);
        assert!(tree.contains(NodeId(0)));
        assert_eq!(tree.parent_of(NodeId(0)), None);
        assert_eq!(tree.len(), 4);
    }

    #[test]
    fn bfs_gives_shortest_hop_counts() {
        // 3x3 grid with 100 m spacing.
        let mut positions = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                positions.push(Point::new(x as f64 * 100.0, y as f64 * 100.0));
            }
        }
        let table = NeighborTable::build(&positions, Rect::square(450.0), 105.0);
        let tree = FloodTree::build(NodeId(0), &table, |_| true);
        // Opposite corner is 4 hops away on a 4-connected grid.
        assert_eq!(tree.depth_of(NodeId(8)), Some(4));
        assert_eq!(tree.depth_of(NodeId(4)), Some(2));
    }

    #[test]
    fn children_and_path_are_consistent() {
        let table = line_table(5);
        let tree = FloodTree::build(NodeId(2), &table, |_| true);
        assert_eq!(tree.children_of(NodeId(2)), [NodeId(1), NodeId(3)]);
        assert_eq!(tree.parent_of(NodeId(0)), Some(NodeId(1)));
        assert_eq!(tree.parent_of(NodeId(1)), Some(NodeId(2)));
        assert_eq!(tree.parent_of(NodeId(4)), Some(NodeId(3)));
        assert_eq!(tree.parent_of(NodeId(2)), None);
        // Every non-root node's parent is one hop shallower.
        for &n in tree.order() {
            if let Some(p) = tree.parent_of(n) {
                assert_eq!(tree.depth_of(n).unwrap(), tree.depth_of(p).unwrap() + 1);
            }
        }
    }

    #[test]
    fn unreached_node_has_no_path() {
        let table = line_table(4);
        let tree = FloodTree::build(NodeId(0), &table, |n| n.index() < 2);
        assert!(!tree.contains(NodeId(3)));
        assert_eq!(tree.depth_of(NodeId(3)), None);
        assert!(tree.children_of(NodeId(3)).is_empty());
    }

    #[test]
    fn every_child_run_is_sorted_and_complete() {
        let table = line_table(7);
        let tree = FloodTree::build(NodeId(3), &table, |_| true);
        // Union of all children plus the root is exactly the tree.
        let mut seen = vec![tree.root()];
        for &n in tree.order() {
            let children = tree.children_of(n);
            assert!(children.windows(2).all(|w| w[0] < w[1]), "children sorted");
            for &c in children {
                assert_eq!(tree.parent_of(c), Some(n));
                seen.push(c);
            }
        }
        seen.sort_unstable();
        let mut all = tree.order().to_vec();
        all.sort_unstable();
        assert_eq!(seen, all);
    }

    #[test]
    fn scratch_reuse_marks_and_recycling() {
        let table = line_table(6);
        let mut scratch = FloodScratch::new();
        let a = scratch.build(NodeId(0), &table, |n| n.index() < 3);
        assert!(a.contains(NodeId(2)));
        assert!(!a.contains(NodeId(4)));
        scratch.recycle(a);
        // The next build reuses the recycled buffers and resets the marks.
        let b = scratch.build(NodeId(5), &table, |n| n.index() >= 3);
        assert!(b.contains(NodeId(4)));
        assert!(!b.contains(NodeId(2)));
        assert_eq!(b.root(), NodeId(5));
        assert_eq!(b.len(), 3);
        assert_eq!(b.parent_of(NodeId(3)), Some(NodeId(4)));
    }
}
