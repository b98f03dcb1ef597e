//! Per-query protocol state.

use wsn_net::{FloodTree, NodeId};
use wsn_sim::SimTime;

/// "Not yet": the setup and ready-time columns hold this until the setup
/// message reaches the node.
const NOT_YET: SimTime = SimTime::MAX;

/// Everything the network remembers about one outstanding query (one pickup
/// point): the collector, the query tree, setup progress and the partial
/// aggregates flowing towards the collector.
///
/// This is exactly the state whose footprint the paper's storage-cost
/// analysis (Section 5.2) bounds: just-in-time prefetching keeps only a
/// handful of these alive at any instant, greedy prefetching keeps one per
/// remaining query period.
///
/// Tree members are addressed by their [`FloodTree::slot`], so their state
/// is a set of dense columns; the duty-cycled nodes that have a relay form
/// one id-sorted list with a parallel ready-time column. Nothing is sized to
/// the deployment, so a state costs what its area holds at any node count.
///
/// Events name their query by `k` alone. When a newer prefetch generation
/// replaces a standing state, the old tree's in-flight events act on the new
/// state, addressed by node id. For a node outside the new tree, a setup
/// arrival is recorded once on a side list (so the caller schedules its
/// relay broadcast and aggregation timeout once, as for a member), while
/// accumulating or forwarding an aggregate does nothing.
#[derive(Debug)]
pub(crate) struct QueryState {
    /// The prefetch-chain generation that installed this state.
    pub generation: u64,
    /// The collector node (root of the query tree).
    pub collector: NodeId,
    /// The query tree over backbone nodes in the (predicted) query area.
    pub tree: FloodTree,
    /// When each tree member received the setup message, by slot.
    setup_at: Vec<SimTime>,
    /// Nodes outside the tree that a replaced generation's flood reached.
    off_tree_setup: Vec<NodeId>,
    /// Whether each tree member has forwarded its aggregate, by slot.
    sent: Vec<bool>,
    /// Contributions accumulated at each tree member, by slot. A node may
    /// appear more than once; forwarding deduplicates.
    received: Vec<Vec<NodeId>>,
    /// `(node, relay)` for every duty-cycled node in the area that has a
    /// relay in the tree, sorted by node id.
    sleepers: Vec<(NodeId, NodeId)>,
    /// When each sleeper received the buffered setup, parallel to `sleepers`.
    sleeper_ready: Vec<SimTime>,
    /// Contributions that reached the collector. A node may appear more than
    /// once; scoring deduplicates.
    collector_received: Vec<NodeId>,
}

impl QueryState {
    /// The state installed when `collector` accepts the prefetch message (or
    /// the NP broadcast) at `now`; the collector holds the setup from then
    /// on. `sleepers` pairs each duty-cycled node of the area that has a
    /// relay with that relay, in any order.
    pub fn new(
        generation: u64,
        collector: NodeId,
        now: SimTime,
        tree: FloodTree,
        mut sleepers: Vec<(NodeId, NodeId)>,
    ) -> Self {
        let members = tree.len();
        sleepers.sort_unstable_by_key(|&(node, _)| node);
        let mut state = QueryState {
            generation,
            collector,
            tree,
            setup_at: vec![NOT_YET; members],
            off_tree_setup: Vec::new(),
            sent: vec![false; members],
            received: vec![Vec::new(); members],
            sleeper_ready: vec![NOT_YET; sleepers.len()],
            sleepers,
            collector_received: Vec::new(),
        };
        state.record_setup(collector, now);
        state
    }

    /// Records that `node` received the setup message at `now`. Returns
    /// `false`, and changes nothing, when the node already had it.
    pub fn record_setup(&mut self, node: NodeId, now: SimTime) -> bool {
        match self.tree.slot(node) {
            Some(slot) if self.setup_at[slot] == NOT_YET => {
                self.setup_at[slot] = now;
                true
            }
            Some(_) => false,
            None if self.off_tree_setup.contains(&node) => false,
            None => {
                self.off_tree_setup.push(node);
                true
            }
        }
    }

    /// When tree member `node` received the setup message; `None` before
    /// that, and for nodes outside the tree.
    pub fn setup_time(&self, node: NodeId) -> Option<SimTime> {
        let at = self.setup_at[self.tree.slot(node)?];
        (at != NOT_YET).then_some(at)
    }

    /// The children of tree member `node` that do not have the setup yet,
    /// in ascending id order; none for a node outside the tree.
    pub fn children_awaiting_setup(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let slots = self
            .tree
            .slot(node)
            .map_or(0..0, |slot| self.tree.child_slots(slot));
        slots
            .filter(|&child| self.setup_at[child] == NOT_YET)
            .map(|child| self.tree.order()[child])
    }

    /// Index of duty-cycled `node` in the sleeper list, if it has a relay in
    /// this query. The index addresses [`relay`](Self::relay),
    /// [`is_ready`](Self::is_ready) and [`mark_ready`](Self::mark_ready).
    pub fn sleeper(&self, node: NodeId) -> Option<usize> {
        self.sleepers.binary_search_by_key(&node, |&(n, _)| n).ok()
    }

    /// The relay of sleeper `i`.
    pub fn relay(&self, i: usize) -> NodeId {
        self.sleepers[i].1
    }

    /// Returns `true` when sleeper `i` has received the buffered setup.
    pub fn is_ready(&self, i: usize) -> bool {
        self.sleeper_ready[i] != NOT_YET
    }

    /// Records that sleeper `i` received the buffered setup at `at`.
    pub fn mark_ready(&mut self, i: usize, at: SimTime) {
        self.sleeper_ready[i] = at;
    }

    /// The duty-cycled nodes relayed by `parent` that still wait for the
    /// buffered setup, in ascending id order.
    pub fn waiting_sleepers_of(&self, parent: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.sleepers
            .iter()
            .zip(&self.sleeper_ready)
            .filter(move |&(&(_, relay), &ready)| relay == parent && ready == NOT_YET)
            .map(|(&(node, _), _)| node)
    }

    /// Records a partial aggregate arriving at `node`. Contributions reaching
    /// a member that already forwarded its aggregate are lost (the cost of
    /// the timeout scheme), as are those reaching a node outside the tree.
    pub fn accumulate(&mut self, node: NodeId, contributions: &[NodeId]) {
        if let Some(slot) = self.tree.slot(node) {
            if !self.sent[slot] {
                self.received[slot].extend_from_slice(contributions);
            }
        }
    }

    /// Marks tree member `node` as having forwarded its aggregate and moves
    /// what it accumulated into `out` (unsorted, possibly repeating a node).
    /// Returns `false`, and changes nothing, for a node outside the tree or
    /// one that already forwarded.
    pub fn take_aggregate(&mut self, node: NodeId, out: &mut Vec<NodeId>) -> bool {
        let Some(slot) = self.tree.slot(node) else {
            return false;
        };
        if self.sent[slot] {
            return false;
        }
        self.sent[slot] = true;
        out.append(&mut self.received[slot]);
        true
    }

    /// Records contributions that reached the collector.
    pub fn deliver_to_collector(&mut self, contributions: &[NodeId]) {
        self.collector_received.extend_from_slice(contributions);
    }

    /// How many of `nodes_in_area` reached the collector, each node counted
    /// once however many copies of its reading arrived.
    pub fn contributing(&mut self, nodes_in_area: &[NodeId]) -> usize {
        self.collector_received.sort_unstable();
        self.collector_received.dedup();
        nodes_in_area
            .iter()
            .filter(|n| self.collector_received.binary_search(n).is_ok())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::{Point, Rect};
    use wsn_net::NeighborTable;

    /// A line 0 — 1 — 2 at 50 m spacing: the tree rooted at 0 holds nodes 0
    /// and 1 (node 2 is excluded), and duty-cycled nodes 7, 4 and 9 sit
    /// under relays 1, 0 and 1.
    fn tiny_state() -> QueryState {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(100.0, 0.0),
        ];
        let table = NeighborTable::build(&positions, Rect::square(200.0), 105.0);
        let tree = FloodTree::build(NodeId(0), &table, |n| n != NodeId(2));
        let sleepers = vec![
            (NodeId(7), NodeId(1)),
            (NodeId(4), NodeId(0)),
            (NodeId(9), NodeId(1)),
        ];
        QueryState::new(1, NodeId(0), SimTime::from_secs(1), tree, sleepers)
    }

    #[test]
    fn setup_tracking() {
        // The collector holds the setup from the install on; a member's
        // first arrival is recorded and later ones are repeats.
        let mut s = tiny_state();
        assert_eq!(s.setup_time(NodeId(0)), Some(SimTime::from_secs(1)));
        assert!(!s.record_setup(NodeId(0), SimTime::from_secs(2)));
        assert_eq!(s.setup_time(NodeId(1)), None);
        assert!(s.record_setup(NodeId(1), SimTime::from_secs(2)));
        assert!(!s.record_setup(NodeId(1), SimTime::from_secs(3)));
        assert_eq!(s.setup_time(NodeId(1)), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn an_off_tree_setup_arrival_is_recorded_once() {
        // A replaced generation's flood reaching node 2, outside this tree:
        // the first arrival is new (its relay broadcast and timeout get
        // scheduled), every later one is a repeat.
        let mut s = tiny_state();
        assert!(s.record_setup(NodeId(2), SimTime::from_secs(2)));
        assert!(!s.record_setup(NodeId(2), SimTime::from_secs(3)));
        assert!(!s.record_setup(NodeId(2), SimTime::from_secs(4)));
        assert_eq!(s.setup_time(NodeId(2)), None, "no member state for it");
    }

    #[test]
    fn a_non_member_accumulates_and_forwards_nothing() {
        let mut s = tiny_state();
        s.record_setup(NodeId(2), SimTime::from_secs(2));
        s.accumulate(NodeId(2), &[NodeId(7), NodeId(9)]);
        let mut out = Vec::new();
        assert!(!s.take_aggregate(NodeId(2), &mut out));
        assert!(out.is_empty());
        // Nothing it was handed leaked into a member's aggregate.
        assert!(s.take_aggregate(NodeId(1), &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn accumulate_and_take() {
        // A member forwards once; what reaches it afterwards is lost.
        let mut s = tiny_state();
        s.accumulate(NodeId(1), &[NodeId(9), NodeId(7)]);
        s.accumulate(NodeId(1), &[NodeId(9)]);
        let mut out = Vec::new();
        assert!(s.take_aggregate(NodeId(1), &mut out));
        out.sort_unstable();
        assert_eq!(out, [NodeId(7), NodeId(9), NodeId(9)]);
        s.accumulate(NodeId(1), &[NodeId(4)]);
        let mut again = Vec::new();
        assert!(!s.take_aggregate(NodeId(1), &mut again));
        assert!(again.is_empty());
    }

    #[test]
    fn duplicate_contributions_count_once_at_the_collector() {
        let mut s = tiny_state();
        s.deliver_to_collector(&[NodeId(7), NodeId(9)]);
        s.deliver_to_collector(&[NodeId(9), NodeId(7), NodeId(1)]);
        s.deliver_to_collector(&[NodeId(7)]);
        let area = [NodeId(9), NodeId(1), NodeId(4), NodeId(7)];
        assert_eq!(s.contributing(&area), 3);
    }

    #[test]
    fn children_awaiting_setup_shrink_as_they_get_it() {
        let mut s = tiny_state();
        let awaiting = |s: &QueryState, n| s.children_awaiting_setup(n).collect::<Vec<_>>();
        assert_eq!(awaiting(&s, NodeId(0)), [NodeId(1)]);
        s.record_setup(NodeId(1), SimTime::from_secs(2));
        assert!(awaiting(&s, NodeId(0)).is_empty());
        assert!(awaiting(&s, NodeId(1)).is_empty(), "a leaf member");
        assert!(awaiting(&s, NodeId(2)).is_empty(), "outside the tree");
    }

    #[test]
    fn sleeper_lookups_miss_for_nodes_that_are_not_sleepers() {
        let s = tiny_state();
        let relay = |n| s.sleeper(n).map(|i| s.relay(i));
        assert_eq!(relay(NodeId(7)), Some(NodeId(1)));
        assert_eq!(relay(NodeId(4)), Some(NodeId(0)));
        assert_eq!(relay(NodeId(9)), Some(NodeId(1)));
        for node in [
            NodeId(0),
            NodeId(1),
            NodeId(2),
            NodeId(5),
            NodeId(8),
            NodeId(10),
        ] {
            assert_eq!(s.sleeper(node), None);
        }
    }

    #[test]
    fn waiting_sleepers_come_out_in_ascending_id_order() {
        let mut s = tiny_state();
        let waiting = |s: &QueryState| s.waiting_sleepers_of(NodeId(1)).collect::<Vec<_>>();
        assert_eq!(waiting(&s), [NodeId(7), NodeId(9)]);
        assert_eq!(
            s.waiting_sleepers_of(NodeId(0)).collect::<Vec<_>>(),
            [NodeId(4)]
        );
        let seven = s.sleeper(NodeId(7)).unwrap();
        assert!(!s.is_ready(seven));
        s.mark_ready(seven, SimTime::from_secs(2));
        assert!(s.is_ready(seven));
        assert_eq!(waiting(&s), [NodeId(9)]);
    }
}
