//! Geographic routing: greedy forwarding and area anycast.
//!
//! MobiQuery relays prefetch messages from one pickup point to the next with
//! an *area anycast* (the paper cites SPEED): the message is forwarded
//! greedily towards the pickup point's coordinates over the always-awake
//! backbone, and accepted by the first node within `Rp` of the target. That
//! node becomes the collector for the corresponding query area.

use crate::neighbors::NeighborTable;
use crate::node::NodeId;
use std::error::Error;
use std::fmt;
use wsn_geom::Point;

/// Why a route could not be completed.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// Greedy forwarding reached a node with no neighbour closer to the
    /// destination (a routing void) before entering the acceptance radius.
    Void {
        /// The node where forwarding stopped.
        stuck_at: NodeId,
        /// Distance from that node to the destination, in metres.
        remaining_m: f64,
    },
    /// The source node index was out of range of the topology.
    UnknownSource(NodeId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Void {
                stuck_at,
                remaining_m,
            } => write!(
                f,
                "greedy forwarding stuck at {stuck_at} with {remaining_m:.1} m remaining"
            ),
            RouteError::UnknownSource(id) => write!(f, "unknown source node {id}"),
        }
    }
}

impl Error for RouteError {}

/// A completed route: the sequence of nodes a message traverses.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePath {
    /// Nodes visited, starting with the source and ending with the node that
    /// accepted the message.
    pub hops: Vec<NodeId>,
    /// Distance from the final node to the geographic destination, in metres.
    pub final_distance_m: f64,
}

/// Chooses the next hop by greedy geographic forwarding.
///
/// Among `candidates` (typically the backbone neighbours of the current
/// node), returns the one closest to `destination` provided it is strictly
/// closer than the current node; `None` indicates a routing void.
pub fn greedy_next_hop(
    current: Point,
    destination: Point,
    candidates: impl IntoIterator<Item = (NodeId, Point)>,
) -> Option<NodeId> {
    let current_d = current.distance_sq_to(destination);
    let mut best: Option<(NodeId, f64)> = None;
    for (id, pos) in candidates {
        let d = pos.distance_sq_to(destination);
        if d + 1e-9 < current_d {
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((id, d)),
            }
        }
    }
    best.map(|(id, _)| id)
}

/// Routes a message from `source` towards the geographic point `destination`
/// by greedy forwarding over the nodes for which `eligible` returns `true`
/// (typically "is a backbone node"), accepting at the first node within
/// `accept_radius_m` of the destination.
///
/// # Errors
///
/// Returns [`RouteError::Void`] when greedy forwarding gets stuck outside the
/// acceptance radius, and [`RouteError::UnknownSource`] for an out-of-range
/// source id.
pub fn route_greedy(
    source: NodeId,
    destination: Point,
    accept_radius_m: f64,
    positions: &[Point],
    neighbors: &NeighborTable,
    mut eligible: impl FnMut(NodeId) -> bool,
) -> Result<RoutePath, RouteError> {
    if source.index() >= positions.len() {
        return Err(RouteError::UnknownSource(source));
    }
    let mut hops = vec![source];
    let mut current = source;
    loop {
        let current_pos = positions[current.index()];
        let dist = current_pos.distance_to(destination);
        if dist <= accept_radius_m {
            return Ok(RoutePath {
                hops,
                final_distance_m: dist,
            });
        }
        let next = greedy_next_hop(
            current_pos,
            destination,
            neighbors
                .neighbors_of(current)
                .iter()
                .copied()
                .filter(|&n| eligible(n))
                .map(|n| (n, positions[n.index()])),
        );
        match next {
            Some(n) => {
                hops.push(n);
                current = n;
            }
            None => {
                return Err(RouteError::Void {
                    stuck_at: current,
                    remaining_m: dist,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Rect;

    fn grid_topology() -> (Vec<Point>, NeighborTable) {
        // 5x5 grid, 100 m spacing, 105 m range => 4-connected grid.
        let mut positions = Vec::new();
        for y in 0..5 {
            for x in 0..5 {
                positions.push(Point::new(x as f64 * 100.0, y as f64 * 100.0));
            }
        }
        let table = NeighborTable::build(&positions, Rect::square(450.0), 105.0);
        (positions, table)
    }

    #[test]
    fn greedy_next_hop_picks_closest_progressing_candidate() {
        let current = Point::new(0.0, 0.0);
        let dst = Point::new(100.0, 0.0);
        let candidates = vec![
            (NodeId(1), Point::new(40.0, 0.0)),
            (NodeId(2), Point::new(60.0, 10.0)),
            (NodeId(3), Point::new(-20.0, 0.0)),
        ];
        assert_eq!(greedy_next_hop(current, dst, candidates), Some(NodeId(2)));
    }

    #[test]
    fn greedy_next_hop_none_when_no_progress() {
        let current = Point::new(0.0, 0.0);
        let dst = Point::new(10.0, 0.0);
        let candidates = vec![
            (NodeId(1), Point::new(-40.0, 0.0)),
            (NodeId(2), Point::new(0.0, 50.0)),
        ];
        assert_eq!(greedy_next_hop(current, dst, candidates), None);
    }

    #[test]
    fn route_across_grid_reaches_destination() {
        let (positions, table) = grid_topology();
        let path = route_greedy(
            NodeId(0),
            Point::new(400.0, 400.0),
            50.0,
            &positions,
            &table,
            |_| true,
        )
        .expect("route should exist");
        assert_eq!(path.hops.last(), Some(&NodeId(24)));
        assert_eq!(path.hops.len(), 9); // 4 east + 4 north in some order
        assert!(path.final_distance_m <= 50.0);
        // Path must be connected: every consecutive pair within range.
        for pair in path.hops.windows(2) {
            assert!(table.are_neighbors(pair[0], pair[1]));
        }
    }

    #[test]
    fn route_accepts_at_source_when_already_close() {
        let (positions, table) = grid_topology();
        let path = route_greedy(
            NodeId(12),
            Point::new(210.0, 210.0),
            50.0,
            &positions,
            &table,
            |_| true,
        )
        .unwrap();
        assert_eq!(path.hops, [NodeId(12)]);
    }

    #[test]
    fn route_fails_when_backbone_is_disconnected() {
        let (positions, table) = grid_topology();
        // Only allow the first column to relay: routing east immediately hits a void.
        let result = route_greedy(
            NodeId(0),
            Point::new(400.0, 0.0),
            30.0,
            &positions,
            &table,
            |n| n.index() % 5 == 0,
        );
        match result {
            Err(RouteError::Void { stuck_at, .. }) => assert_eq!(stuck_at.index() % 5, 0),
            other => panic!("expected a void, got {other:?}"),
        }
    }

    #[test]
    fn unknown_source_is_rejected() {
        let (positions, table) = grid_topology();
        let err = route_greedy(
            NodeId(99),
            Point::new(0.0, 0.0),
            10.0,
            &positions,
            &table,
            |_| true,
        )
        .unwrap_err();
        assert_eq!(err, RouteError::UnknownSource(NodeId(99)));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn hop_progress_is_monotone_toward_destination() {
        let (positions, table) = grid_topology();
        let dst = Point::new(390.0, 10.0);
        let path = route_greedy(NodeId(20), dst, 40.0, &positions, &table, |_| true).unwrap();
        let mut last = f64::INFINITY;
        for hop in &path.hops {
            let d = positions[hop.index()].distance_to(dst);
            assert!(d < last + 1e-9, "distance must shrink along the route");
            last = d;
        }
    }
}
