//! Events driving the protocol simulation.

use wsn_net::NodeId;

/// A discrete event in the MobiQuery protocol simulation.
///
/// Events carry the minimum state needed to resume the corresponding protocol
/// action; everything else lives in the per-query state tracked by the world.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A motion profile (by index into the pre-generated list) reaches the
    /// proxy and, through the query gateway, the network.
    ProfileDelivered(usize),

    /// A collector (or the proxy's attachment node) forwards the prefetch
    /// message for query `k` towards the k-th pickup point.
    PrefetchForward {
        /// Chain generation; stale generations are dropped (the cancel-message
        /// mechanism of Section 4.2).
        generation: u64,
        /// Query sequence number the prefetch message targets.
        k: u64,
        /// The node holding the prefetch message.
        from: NodeId,
    },

    /// One hop of the area anycast carrying the prefetch message for query `k`.
    PrefetchHop {
        /// Chain generation.
        generation: u64,
        /// Target query.
        k: u64,
        /// The greedy-forwarding route (source first, accepting node last).
        route: Vec<NodeId>,
        /// Index of the node currently holding the message.
        index: usize,
        /// Retransmission attempt for the current hop.
        attempt: u32,
    },

    /// The query-tree setup message is (re-)broadcast by a tree node to its
    /// children for query `k`.
    SetupBroadcast {
        /// Target query.
        k: u64,
        /// The broadcasting tree node.
        node: NodeId,
        /// Retransmission attempt.
        attempt: u32,
    },

    /// A backbone tree node receives the setup message for query `k`.
    SetupArrive {
        /// Target query.
        k: u64,
        /// The receiving node.
        node: NodeId,
    },

    /// A buffered setup message is delivered to a duty-cycled node during one
    /// of its active windows.
    SleepingDeliver {
        /// Target query.
        k: u64,
        /// The duty-cycled node being woken into the query.
        node: NodeId,
        /// Retransmission attempt.
        attempt: u32,
    },

    /// A duty-cycled leaf wakes at its scheduled reading time, samples its
    /// sensor and sends the reading to its parent.
    LeafSend {
        /// Target query.
        k: u64,
        /// The leaf node.
        node: NodeId,
    },

    /// A data frame (reading or partial aggregate) is transmitted from one
    /// node to another, with link-layer retransmission on loss.
    DataSend {
        /// Target query.
        k: u64,
        /// Sender.
        from: NodeId,
        /// Receiver (the sender's tree parent).
        to: NodeId,
        /// The node ids whose readings are aggregated in this frame.
        contributions: Vec<NodeId>,
        /// Retransmission attempt.
        attempt: u32,
    },

    /// A partial aggregate arrives at a tree node.
    DataArrive {
        /// Target query.
        k: u64,
        /// The receiving tree node.
        node: NodeId,
        /// The node ids whose readings are aggregated in this message.
        contributions: Vec<NodeId>,
    },

    /// A tree node's sub-deadline (Equation 1) fires: it forwards its partial
    /// aggregate to its parent regardless of missing children.
    AggregateSend {
        /// Target query.
        k: u64,
        /// The sending tree node.
        node: NodeId,
    },

    /// The user reaches the k-th pickup point: the result (whatever reached
    /// the collector) is handed over and the query is scored.
    QueryDeadline {
        /// Query sequence number.
        k: u64,
    },

    /// No-Prefetching baseline: the user broadcasts the query for result `k`
    /// into the network at the start of the period.
    NpLaunch {
        /// Query sequence number.
        k: u64,
    },
}

impl SimEvent {
    /// The names of the event kinds, indexed by [`SimEvent::kind`].
    pub const KINDS: [&'static str; 12] = [
        "ProfileDelivered",
        "PrefetchForward",
        "PrefetchHop",
        "SetupBroadcast",
        "SetupArrive",
        "SleepingDeliver",
        "LeafSend",
        "DataSend",
        "DataArrive",
        "AggregateSend",
        "QueryDeadline",
        "NpLaunch",
    ];

    /// This event's kind, as an index into [`SimEvent::KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            SimEvent::ProfileDelivered(_) => 0,
            SimEvent::PrefetchForward { .. } => 1,
            SimEvent::PrefetchHop { .. } => 2,
            SimEvent::SetupBroadcast { .. } => 3,
            SimEvent::SetupArrive { .. } => 4,
            SimEvent::SleepingDeliver { .. } => 5,
            SimEvent::LeafSend { .. } => 6,
            SimEvent::DataSend { .. } => 7,
            SimEvent::DataArrive { .. } => 8,
            SimEvent::AggregateSend { .. } => 9,
            SimEvent::QueryDeadline { .. } => 10,
            SimEvent::NpLaunch { .. } => 11,
        }
    }
}
