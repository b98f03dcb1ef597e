//! Neighbour tables: which nodes are within communication range of which.

use crate::node::NodeId;
use wsn_geom::{Point, Rect, SpatialGrid};

/// A static neighbour table for a fixed deployment.
///
/// Sensor nodes do not move in MobiQuery (only the user does), so the
/// neighbour relation is computed once per topology and reused for the whole
/// simulation; when churn changes the member set, [`NeighborTable::patch`]
/// recomputes only the lists near the change.
///
/// ```
/// use wsn_net::NeighborTable;
/// use wsn_net::node::NodeId;
/// use wsn_geom::{Point, Rect};
///
/// let positions = vec![
///     Point::new(0.0, 0.0),
///     Point::new(50.0, 0.0),
///     Point::new(300.0, 300.0),
/// ];
/// let table = NeighborTable::build(&positions, Rect::square(450.0), 105.0);
/// assert!(table.are_neighbors(NodeId(0), NodeId(1)));
/// assert!(!table.are_neighbors(NodeId(0), NodeId(2)));
/// assert_eq!(table.degree(NodeId(2)), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborTable {
    /// CSR layout: the neighbours of node `i` are
    /// `flat[offsets[i]..offsets[i + 1]]`, sorted by id. One flat allocation
    /// instead of one `Vec` per node keeps construction cheap at tens of
    /// thousands of nodes and the flood/routing scans cache-friendly.
    offsets: Vec<usize>,
    flat: Vec<NodeId>,
    comm_range: f64,
}

impl NeighborTable {
    /// Builds the table for `positions` within `region`, connecting every
    /// pair of distinct nodes at most `comm_range` metres apart.
    ///
    /// # Panics
    ///
    /// Panics if `comm_range` is not strictly positive and finite.
    pub fn build(positions: &[Point], region: Rect, comm_range: f64) -> Self {
        Self::build_among(positions, region, comm_range, |_| true)
    }

    /// Builds the table restricted to the nodes for which `member` returns
    /// `true`: only member↔member pairs within `comm_range` become edges, and
    /// every non-member keeps an empty adjacency list (ids stay global, so
    /// lookups need no translation).
    ///
    /// The MobiQuery event loop only ever walks the adjacency of backbone
    /// nodes and filters every hop through an `is_backbone` check, so the
    /// simulation builds its table among the backbone — a fraction of the
    /// deployment — with results identical to filtering the full table.
    ///
    /// # Panics
    ///
    /// Panics if `comm_range` is not strictly positive and finite.
    pub fn build_among(
        positions: &[Point],
        region: Rect,
        comm_range: f64,
        mut member: impl FnMut(usize) -> bool,
    ) -> Self {
        let members: Vec<(u32, Point)> = positions
            .iter()
            .enumerate()
            .filter(|&(i, _)| member(i))
            .map(|(i, &p)| (i as u32, p))
            .collect();
        Self::from_members(positions.len(), &members, region, comm_range)
    }

    /// Builds the table over `n` slots from its members as `(id, position)`,
    /// in ascending id order.
    // Inlined into `build_among` as the build was before `patch` shared it:
    // called out of line, a 200-node build measured ~6% slower.
    #[inline]
    fn from_members(n: usize, members: &[(u32, Point)], region: Rect, comm_range: f64) -> Self {
        assert!(
            comm_range.is_finite() && comm_range > 0.0,
            "communication range must be positive"
        );
        debug_assert!(u32::try_from(n).is_ok(), "node ids fit in the edge buffer");
        // One range query per member collects every directed edge; a
        // counting scatter then groups edges by *target*. Because sources
        // are visited in ascending id order and the scatter is stable, every
        // adjacency list comes out sorted by id with no per-node sort — and
        // the range predicate is symmetric, so grouping by target yields
        // exactly the same lists as querying each node for its own
        // neighbours. Queries run against a transient flat cell index: its
        // row-contiguous layout scans each covered cell row as one slice,
        // which is what makes the 10⁵–10⁶-candidate sweep cache-friendly.
        let index = CellIndex::build(members, region, comm_range);
        let mut degree = vec![0usize; n];
        // Rough per-node degree guess to keep the edge buffer from
        // reallocating mid-collection; it grows if the deployment is denser.
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(members.len().saturating_mul(40));
        for &(i, p) in members {
            index.for_each_in_range(p, comm_range, |j| {
                if j != i {
                    edges.push((i, j));
                    degree[j as usize] += 1;
                }
            });
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut flat = vec![NodeId(0); acc];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for &(source, target) in &edges {
            let slot = &mut cursor[target as usize];
            flat[*slot] = NodeId(source as usize);
            *slot += 1;
        }
        NeighborTable {
            offsets,
            flat,
            comm_range,
        }
    }

    /// Brings a [`build_among`](Self::build_among) table up to date after
    /// the member set changed at the `changed` slots (a node joined or left
    /// the members; a slot may also have moved while it was not a member).
    ///
    /// `members` must hold exactly the new members at their positions. Only
    /// the lists that can differ are recomputed from it: those of the
    /// changed slots and of every node in range of one — the old
    /// neighbours, read from the table, and the new ones, queried at the
    /// slot's position. Every other list is copied as it is, so the result
    /// equals `build_among` over the new member set: the grid's range
    /// predicate is the one the build uses, and it is symmetric. Under heavy
    /// churn, when more than an eighth of the members changed, one rebuild
    /// from the grid's members is cheaper and runs instead: at the paper's
    /// density each changed slot stales ~4 lists, and querying stale lists
    /// one by one loses to a rebuild once about half the members are stale
    /// (measured at 10⁵ nodes on a 2-vCPU x86-64 host: a 1% batch patches in
    /// ~6 ms against a ~9 ms rebuild; at 5% most of the backbone is stale).
    ///
    /// # Panics
    ///
    /// Panics if a changed slot or a member id is not below
    /// [`node_count`](Self::node_count).
    pub fn patch(&mut self, members: &SpatialGrid, changed: &[usize]) {
        if changed.is_empty() {
            return;
        }
        let n = self.node_count();
        if changed.len() * 8 > members.len() {
            let mut all: Vec<(u32, Point)> = members.iter().map(|(i, p)| (i as u32, p)).collect();
            all.sort_unstable_by_key(|&(i, _)| i);
            *self = Self::from_members(n, &all, members.region(), self.comm_range);
            return;
        }
        let mut stale: Vec<usize> = Vec::new();
        for &c in changed {
            stale.push(c);
            stale.extend(self.neighbors_of(NodeId(c)).iter().map(|id| id.index()));
            if let Some(p) = members.position(c) {
                stale.extend(members.query_range(p, self.comm_range));
            }
        }
        stale.sort_unstable();
        stale.dedup();
        // Fresh lists of the stale nodes, concatenated; `ends[i]` closes
        // the list of `stale[i]`.
        let mut fresh: Vec<NodeId> = Vec::new();
        let mut ends = Vec::with_capacity(stale.len());
        for &a in &stale {
            if let Some(p) = members.position(a) {
                let start = fresh.len();
                fresh.extend(
                    members
                        .query_range(p, self.comm_range)
                        .filter(|&j| j != a)
                        .map(NodeId),
                );
                fresh[start..].sort_unstable();
            }
            ends.push(fresh.len());
        }
        // Splice: copy the runs of untouched lists between stale nodes in
        // one slice each, shifting their offsets. The new edge count is
        // exact, so the table holds no more memory than a rebuild would.
        let dropped: usize = stale.iter().map(|&a| self.degree(NodeId(a))).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut flat = Vec::with_capacity(self.flat.len() - dropped + fresh.len());
        let copy_run =
            |offsets: &mut Vec<usize>, flat: &mut Vec<NodeId>, from: usize, to: usize| {
                let (lo, base) = (self.offsets[from], flat.len());
                offsets.extend(self.offsets[from..to].iter().map(|&o| o - lo + base));
                flat.extend_from_slice(&self.flat[lo..self.offsets[to]]);
            };
        let (mut from, mut start) = (0, 0);
        for (&a, &end) in stale.iter().zip(&ends) {
            copy_run(&mut offsets, &mut flat, from, a);
            offsets.push(flat.len());
            flat.extend_from_slice(&fresh[start..end]);
            (from, start) = (a + 1, end);
        }
        copy_run(&mut offsets, &mut flat, from, n);
        offsets.push(flat.len());
        self.offsets = offsets;
        self.flat = flat;
    }

    /// Number of nodes covered by the table.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The communication range the table was built with.
    pub fn comm_range(&self) -> f64 {
        self.comm_range
    }

    /// The neighbours of `node`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors_of(&self, node: NodeId) -> &[NodeId] {
        &self.flat[self.offsets[node.index()]..self.offsets[node.index() + 1]]
    }

    /// Number of neighbours of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.offsets[node.index() + 1] - self.offsets[node.index()]
    }

    /// Returns `true` when `a` and `b` are within range of each other.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors_of(a).binary_search(&b).is_ok()
    }
}

/// Read-only flat cell index used once during table construction.
///
/// Same bucketing as [`wsn_geom::SpatialGrid`] (clamped position, `comm_range`-sized
/// cells, identical inclusion predicate), but stored as one id/position
/// array sorted by cell with per-cell offsets: the cells of one grid row are
/// adjacent, so a range query scans each covered cell row as a single
/// contiguous slice. Node ids within a cell stay in ascending order because
/// the counting scatter below is stable over the id-ordered input.
struct CellIndex {
    starts: Vec<u32>,
    items: Vec<(u32, Point)>,
    cols: usize,
    rows: usize,
    cell: f64,
    region: Rect,
}

impl CellIndex {
    fn build(members: &[(u32, Point)], region: Rect, cell: f64) -> Self {
        let cols = (region.width() / cell).ceil().max(1.0) as usize;
        let rows = (region.height() / cell).ceil().max(1.0) as usize;
        let index_of = |p: Point| {
            let clamped = region.clamp(p);
            let cx = (((clamped.x - region.min_x) / cell) as usize).min(cols - 1);
            let cy = (((clamped.y - region.min_y) / cell) as usize).min(rows - 1);
            cy * cols + cx
        };
        let mut starts = vec![0u32; cols * rows + 1];
        for &(_, p) in members {
            starts[index_of(p) + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut items = vec![(0u32, Point::new(0.0, 0.0)); members.len()];
        let mut cursor = starts.clone();
        for &(id, p) in members {
            let c = index_of(p);
            items[cursor[c] as usize] = (id, p);
            cursor[c] += 1;
        }
        CellIndex {
            starts,
            items,
            cols,
            rows,
            cell,
            region,
        }
    }

    /// Calls `visit` with the id of every item within `radius` of `center`
    /// (inclusive), under exactly the [`wsn_geom::SpatialGrid::query_range`] predicate.
    fn for_each_in_range(&self, center: Point, radius: f64, mut visit: impl FnMut(u32)) {
        let r = radius.max(0.0);
        let min_cx = ((((center.x - r - self.region.min_x) / self.cell)
            .floor()
            .max(0.0)) as usize)
            .min(self.cols - 1);
        let max_cx = (((center.x + r - self.region.min_x) / self.cell)
            .floor()
            .max(0.0) as usize)
            .min(self.cols - 1);
        let min_cy = ((((center.y - r - self.region.min_y) / self.cell)
            .floor()
            .max(0.0)) as usize)
            .min(self.rows - 1);
        let max_cy = (((center.y + r - self.region.min_y) / self.cell)
            .floor()
            .max(0.0) as usize)
            .min(self.rows - 1);
        let r_sq = r * r;
        for cy in min_cy..=max_cy {
            let row = cy * self.cols;
            let a = self.starts[row + min_cx] as usize;
            let b = self.starts[row + max_cx + 1] as usize;
            for &(id, p) in &self.items[a..b] {
                if center.distance_sq_to(p) <= r_sq + 1e-9 {
                    visit(id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_positions(n: usize, spacing: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn line_topology_has_expected_neighbors() {
        // Nodes every 100 m with a 105 m range: each node hears only its
        // immediate neighbours.
        let pos = line_positions(5, 100.0);
        let t = NeighborTable::build(&pos, Rect::square(450.0), 105.0);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.neighbors_of(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.neighbors_of(NodeId(2)), &[NodeId(1), NodeId(3)]);
        assert!(t.are_neighbors(NodeId(3), NodeId(4)));
        assert!(!t.are_neighbors(NodeId(0), NodeId(2)));
    }

    #[test]
    fn symmetry_of_neighbor_relation() {
        let pos = vec![
            Point::new(10.0, 10.0),
            Point::new(80.0, 40.0),
            Point::new(200.0, 200.0),
            Point::new(260.0, 240.0),
        ];
        let t = NeighborTable::build(&pos, Rect::square(450.0), 105.0);
        for a in 0..pos.len() {
            for b in 0..pos.len() {
                assert_eq!(
                    t.are_neighbors(NodeId(a), NodeId(b)),
                    t.are_neighbors(NodeId(b), NodeId(a))
                );
            }
        }
    }

    #[test]
    fn no_self_neighbors() {
        let pos = line_positions(4, 10.0);
        let t = NeighborTable::build(&pos, Rect::square(450.0), 105.0);
        for i in 0..4 {
            assert!(!t.neighbors_of(NodeId(i)).contains(&NodeId(i)));
        }
    }

    #[test]
    fn degrees_count_in_range_neighbours() {
        let pos = line_positions(3, 100.0);
        let t = NeighborTable::build(&pos, Rect::square(450.0), 105.0);
        let degrees = [0, 1, 2].map(|i| t.neighbors_of(NodeId(i)).len());
        assert_eq!(degrees, [1, 2, 1]);
        assert_eq!(t.comm_range(), 105.0);
    }

    #[test]
    #[should_panic]
    fn zero_range_panics() {
        let _ = NeighborTable::build(&[Point::ORIGIN], Rect::square(10.0), 0.0);
    }

    #[test]
    fn empty_deployment_is_fine() {
        let t = NeighborTable::build(&[], Rect::square(10.0), 50.0);
        assert_eq!(t.node_count(), 0);
    }
}
