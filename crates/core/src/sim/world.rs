//! The protocol world: all MobiQuery logic reacting to simulation events.
//!
//! The world owns the deployment substrate ([`Deployment`]: node positions,
//! spatial grids, CCP backbone, neighbour table), the shared wireless
//! channel, the ground-truth user motion and the per-query protocol state,
//! and implements the MobiQuery behaviour described in Section 4 of the
//! paper:
//!
//! * the proxy / query gateway launching a prefetch chain whenever a motion
//!   profile arrives,
//! * area-anycast forwarding of the prefetch message between pickup points,
//!   with the just-in-time forwarding bound (Eq. 10) or greedy forwarding,
//! * query-tree setup by bounded flooding over the backbone, with buffered
//!   delivery to duty-cycled nodes during their active windows,
//! * data collection up the tree under the sub-deadline heuristic (Eq. 1),
//! * the No-Prefetching baseline, and
//! * scoring of every query (fidelity / deadline) against the user's *actual*
//!   position, which is what makes imperfect motion prediction cost fidelity.

use crate::collection::CollectionTiming;
use crate::config::{Scenario, Scheme};
use crate::prefetch::PrefetchTiming;
use crate::sim::deploy::Deployment;
use crate::sim::event::SimEvent;
use crate::sim::state::QueryState;
use wsn_geom::{Circle, Point, StripIndex};
use wsn_metrics::{QueryLog, QueryRecord};
use wsn_mobility::{MotionProfile, UserMotion};
use wsn_net::routing::{route_greedy, RouteError};
use wsn_net::{Channel, FloodScratch, NodeId, SleepSchedule};
use wsn_sim::{Duration, EventQueue, SimRng, SimTime};

/// Per-node energy bookkeeping for duty-cycled nodes (seconds in each state
/// beyond the baseline duty-cycle pattern), kept as three parallel per-node
/// columns (struct-of-arrays): the event loop touches one node across all
/// columns, but the Figure 8 aggregation scans whole columns, and flat
/// `Vec<f64>`s keep that scan sequential and the memory footprint exact at
/// the 10⁵–10⁶-node scales the churn benchmarks run at.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActivityLedger {
    /// Extra awake time caused by query participation (re-scheduled wake-ups).
    pub extra_awake_s: Vec<f64>,
    /// Time spent transmitting.
    pub tx_s: Vec<f64>,
    /// Time spent receiving query traffic.
    pub rx_s: Vec<f64>,
}

impl ActivityLedger {
    /// A ledger of zeroed columns for `node_count` nodes.
    pub fn with_nodes(node_count: usize) -> Self {
        ActivityLedger {
            extra_awake_s: vec![0.0; node_count],
            tx_s: vec![0.0; node_count],
            rx_s: vec![0.0; node_count],
        }
    }
}

/// The MobiQuery protocol world: the state [`super::Simulation`]'s events act on.
#[derive(Debug)]
pub(crate) struct SimWorld {
    pub(crate) scenario: Scenario,
    pub(crate) deployment: Deployment,
    /// Reusable flood-tree working state: after a few query periods, tree
    /// construction runs entirely out of recycled buffers.
    pub(crate) flood_scratch: FloodScratch,
    /// The members of the tree being installed, indexed for parent lookups;
    /// rebuilt into the same buffer at every install.
    relays: StripIndex,
    pub(crate) channel: Channel,
    pub(crate) rng: SimRng,
    pub(crate) motion: UserMotion,
    pub(crate) profiles: Vec<MotionProfile>,
    pub(crate) active_profile: Option<usize>,
    pub(crate) generation: u64,
    /// Per-query state by `k`, `None` before the first install of `k` and
    /// after its deadline. Grows on the first install of each `k`, so a
    /// built but not yet run simulation holds none of it.
    queries: Vec<Option<QueryState>>,
    pub(crate) timing: PrefetchTiming,
    pub(crate) collection: CollectionTiming,
    pub(crate) schedule: SleepSchedule,
    pub(crate) max_k: u64,
    pub(crate) log: QueryLog,
    pub(crate) activity: ActivityLedger,
    pub(crate) trees_built: u64,
    pub(crate) prefetch_len_samples: Vec<usize>,
    pub(crate) max_prefetch_len: usize,
    /// Number of buffered-frame deliveries offered to each power-save active
    /// window, indexed by window (one counter per sleep period of the run,
    /// grown on the first offer). Used by the PSM window-capacity model.
    window_offered: Vec<u32>,
    /// Events handled per kind, indexed like [`SimEvent::KINDS`].
    pub(crate) events_by_kind: [u64; SimEvent::KINDS.len()],
    /// Recycled `Vec<NodeId>` buffers for the per-message vectors the event
    /// loop used to allocate fresh — prefetch hop paths, data-frame
    /// contribution lists, broadcast fan-out and area scans. Vectors return
    /// here when their message dies, so the steady-state loop reuses warm
    /// capacity instead of hitting the allocator on every send.
    vec_pool: Vec<Vec<NodeId>>,
    /// How many times a pooled vector was handed back out (regression-tested:
    /// a steady-state run must actually recycle, not just pool-and-leak).
    pub(crate) vec_pool_reuses: u64,
}

impl SimWorld {
    /// Small processing gap between consecutive broadcast retries.
    const RETRY_GAP: Duration = Duration::from_millis(6);

    pub(crate) fn new(
        scenario: Scenario,
        deployment: Deployment,
        rng: SimRng,
        motion: UserMotion,
        profiles: Vec<MotionProfile>,
    ) -> Self {
        let timing = scenario.prefetch_timing();
        let collection = CollectionTiming {
            period: scenario.query.period,
            freshness: scenario.query.freshness,
            query_radius_m: scenario.query.radius_m,
            pickup_radius_m: scenario.pickup_radius_m,
        };
        let schedule = scenario.sleep_schedule();
        let max_k = scenario.query.result_count();
        let node_count = deployment.positions.len();
        debug_assert!(
            profiles
                .windows(2)
                .all(|w| w[0].effective_from <= w[1].effective_from),
            "profile sources deliver profiles sorted by effective_from"
        );
        SimWorld {
            channel: Channel::new(scenario.radio, scenario.mac),
            scenario,
            deployment,
            flood_scratch: FloodScratch::new(),
            relays: StripIndex::new(),
            rng,
            motion,
            profiles,
            active_profile: None,
            generation: 0,
            queries: Vec::new(),
            timing,
            collection,
            schedule,
            max_k,
            log: QueryLog::new(),
            activity: ActivityLedger::with_nodes(node_count),
            trees_built: 0,
            prefetch_len_samples: Vec::new(),
            max_prefetch_len: 0,
            window_offered: Vec::new(),
            events_by_kind: [0; SimEvent::KINDS.len()],
            vec_pool: Vec::new(),
            vec_pool_reuses: 0,
        }
    }

    /// Hands out a cleared buffer from the pool (or a fresh one the first few
    /// times, until the pool warms up).
    fn take_vec(&mut self) -> Vec<NodeId> {
        match self.vec_pool.pop() {
            Some(mut v) => {
                v.clear();
                self.vec_pool_reuses += 1;
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns a dead message's buffer to the pool. Zero-capacity vectors are
    /// dropped: pooling them would recycle nothing.
    fn recycle_vec(&mut self, v: Vec<NodeId>) {
        if v.capacity() > 0 {
            self.vec_pool.push(v);
        }
    }

    /// Index of the power-save active window containing (or starting at) `t`.
    fn window_index(&self, t: SimTime) -> usize {
        let window = t.as_micros() / self.schedule.period().as_micros().max(1);
        usize::try_from(window).expect("window indices of a run fit in usize")
    }

    /// Registers one buffered-frame delivery attempt offered to the window
    /// containing `t`.
    fn offer_to_window(&mut self, t: SimTime) {
        let idx = self.window_index(t);
        if self.window_offered.len() <= idx {
            self.window_offered.resize(idx + 1, 0);
        }
        self.window_offered[idx] += 1;
    }

    /// The probability that a buffered-frame delivery fails purely because its
    /// active window is oversubscribed (the 802.11 PSM bottleneck): zero while
    /// the offered load fits the window capacity, approaching one as the
    /// backlog grows far beyond it.
    fn window_overload_loss(&self, now: SimTime) -> f64 {
        let offered = self
            .window_offered
            .get(self.window_index(now))
            .copied()
            .unwrap_or(0);
        let capacity = self.scenario.psm_window_capacity.max(1);
        if offered <= capacity {
            0.0
        } else {
            1.0 - capacity as f64 / offered as f64
        }
    }

    fn position(&self, node: NodeId) -> Point {
        self.deployment.positions[node.index()]
    }

    /// The state of query `k`, if it is installed.
    fn query(&self, k: u64) -> Option<&QueryState> {
        self.queries.get(query_index(k))?.as_ref()
    }

    fn query_mut(&mut self, k: u64) -> Option<&mut QueryState> {
        self.queries.get_mut(query_index(k))?.as_mut()
    }

    /// The pickup point for query `k` as predicted by the motion profiles
    /// delivered so far.
    ///
    /// Among the delivered profiles, the one whose effective time is the
    /// latest not exceeding the query deadline is used; a profile delivered
    /// early (positive advance time) therefore does not override the profile
    /// describing the *current* leg until it actually takes effect.
    fn predicted_pickup(&self, k: u64) -> Point {
        let deadline = self.collection.deadline(k);
        match self.active_profile {
            Some(last) => {
                let idx = self.profile_in_force(last, deadline);
                self.profiles[idx].predicted_position(deadline)
            }
            None => self.motion.position_at(deadline),
        }
    }

    /// Index of the delivered profile in force at `deadline`: among indices
    /// `0..=last`, the one with the latest `effective_from` not exceeding the
    /// deadline (ties resolve to the highest index), or `last` when none
    /// qualifies yet. Profiles are delivered sorted by `effective_from`
    /// (asserted in [`SimWorld::new`]), so a binary search finds it.
    fn profile_in_force(&self, last: usize, deadline: SimTime) -> usize {
        match self.profiles[..=last].partition_point(|p| p.effective_from <= deadline) {
            0 => last,
            in_force => in_force - 1,
        }
    }

    fn deadline(&self, k: u64) -> SimTime {
        self.collection.deadline(k)
    }

    fn earliest_reading(&self, k: u64) -> SimTime {
        self.collection.leaf_reading_time(k)
    }

    /// Charges radio activity to a duty-cycled node (backbone nodes are
    /// always on and their power is not part of the Figure 8 metric).
    fn charge(&mut self, node: NodeId, extra_awake_s: f64, tx_s: f64, rx_s: f64) {
        if !self.deployment.plan.is_backbone(node) {
            let i = node.index();
            self.activity.extra_awake_s[i] += extra_awake_s;
            self.activity.tx_s[i] += tx_s;
            self.activity.rx_s[i] += rx_s;
        }
    }

    // ------------------------------------------------------------------
    // Profile handling and prefetch chain
    // ------------------------------------------------------------------

    fn handle_profile_delivered(
        &mut self,
        now: SimTime,
        index: usize,
        queue: &mut EventQueue<SimEvent>,
    ) {
        if self.scenario.scheme == Scheme::None {
            return; // the NP baseline ignores motion profiles entirely
        }
        self.active_profile = Some(index);
        self.generation += 1;
        let generation = self.generation;

        // The proxy attaches to the nearest backbone node and injects the
        // prefetch message for the next pending query.
        let user_pos = self.motion.position_at(now);
        let Some(attach) = self.deployment.nearest_collector(user_pos, None) else {
            return;
        };
        let period = self.timing.period.as_secs_f64();
        let k_start = ((now.as_secs_f64() / period).floor() as u64 + 1).min(self.max_k);
        if self.deadline(k_start) < now {
            return;
        }
        let send_at = self.timing.send_time(self.scenario.scheme, k_start, now);
        queue.schedule_at(
            send_at,
            SimEvent::PrefetchForward {
                generation,
                k: k_start,
                from: attach,
            },
        );
    }

    fn handle_prefetch_forward(
        &mut self,
        now: SimTime,
        generation: u64,
        k: u64,
        from: NodeId,
        queue: &mut EventQueue<SimEvent>,
    ) {
        if generation != self.generation || k > self.max_k {
            return; // cancelled by a newer motion profile
        }
        if now >= self.deadline(k) {
            // Too late for this pickup point; keep the chain alive.
            self.schedule_next_forward(now, generation, k, from, queue);
            return;
        }
        let target = self.predicted_pickup(k);
        let route = match route_greedy(
            from,
            target,
            self.scenario.pickup_radius_m,
            &self.deployment.positions,
            &self.deployment.neighbors,
            |n| self.deployment.plan.is_backbone(n),
        ) {
            Ok(path) => path.hops,
            Err(RouteError::Void { stuck_at, .. }) => {
                // Greedy forwarding got stuck (a routing void): the closest
                // reachable backbone node acts as the collector. The two-hop
                // path comes from the recycled pool, not a fresh allocation.
                let mut hops = self.take_vec();
                hops.push(from);
                if stuck_at != from {
                    hops.push(stuck_at);
                }
                hops
            }
            Err(RouteError::UnknownSource(_)) => return,
        };
        queue.schedule_at(
            now,
            SimEvent::PrefetchHop {
                generation,
                k,
                route,
                index: 0,
                attempt: 0,
            },
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors the fields of SimEvent::PrefetchHop
    fn handle_prefetch_hop(
        &mut self,
        now: SimTime,
        generation: u64,
        k: u64,
        route: Vec<NodeId>,
        index: usize,
        attempt: u32,
        queue: &mut EventQueue<SimEvent>,
    ) {
        if generation != self.generation {
            // Cancel message: stop relaying along the abandoned path.
            self.recycle_vec(route);
            return;
        }
        if index + 1 >= route.len() {
            let arrived_at = route[index];
            self.recycle_vec(route);
            self.prefetch_arrived(now, generation, k, arrived_at, queue);
            return;
        }
        let sender = route[index];
        let outcome = self.channel.transmit(
            self.position(sender),
            self.scenario.messages.prefetch_bytes,
            now,
            &mut self.rng,
        );
        if outcome.delivered || attempt >= self.scenario.max_retries {
            // After exhausting retries the hop is forced through: the prefetch
            // message is small, and a real deployment would keep retrying; the
            // contention cost of every attempt has already been charged.
            queue.schedule_at(
                now + outcome.delay,
                SimEvent::PrefetchHop {
                    generation,
                    k,
                    route,
                    index: index + 1,
                    attempt: 0,
                },
            );
        } else {
            queue.schedule_at(
                now + outcome.delay + Self::RETRY_GAP,
                SimEvent::PrefetchHop {
                    generation,
                    k,
                    route,
                    index,
                    attempt: attempt + 1,
                },
            );
        }
    }

    fn schedule_next_forward(
        &mut self,
        now: SimTime,
        generation: u64,
        k: u64,
        from: NodeId,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let next_k = k + 1;
        if next_k > self.max_k {
            return;
        }
        let send_at = self.timing.send_time(self.scenario.scheme, next_k, now);
        queue.schedule_at(
            send_at,
            SimEvent::PrefetchForward {
                generation,
                k: next_k,
                from,
            },
        );
    }

    fn prefetch_arrived(
        &mut self,
        now: SimTime,
        generation: u64,
        k: u64,
        collector: NodeId,
        queue: &mut EventQueue<SimEvent>,
    ) {
        // The collector relays the prefetch message onward regardless of
        // whether this particular query area still needs to be (re)built.
        self.schedule_next_forward(now, generation, k, collector, queue);

        if let Some(existing) = self.query(k) {
            if existing.generation >= generation {
                return;
            }
        }
        self.install_query(
            now,
            generation,
            k,
            collector,
            self.predicted_pickup(k),
            queue,
        );
    }

    /// Installs the query state for query `k` rooted at `collector` and starts
    /// query dissemination. Shared by the prefetching schemes and the NP
    /// baseline.
    fn install_query(
        &mut self,
        now: SimTime,
        generation: u64,
        k: u64,
        collector: NodeId,
        pickup: Point,
        queue: &mut EventQueue<SimEvent>,
    ) {
        if now >= self.deadline(k) {
            return;
        }
        // Built out of the recycled scratch buffers, so steady-state tree
        // construction allocates nothing.
        let tree = self
            .deployment
            .flood_tree(&mut self.flood_scratch, collector, pickup, None);
        // Assign every duty-cycled node in the (predicted) area a parent: its
        // nearest tree member within communication range — the relay rule
        // the stepped engine also charges and scores by. The lookup walks
        // the tree's own members, so it never touches the rest of the
        // deployment.
        self.deployment.index_relays(&mut self.relays, &tree);
        let sleepers = self
            .deployment
            .sleeper_relays(pickup, &self.relays)
            .collect();
        let state = QueryState::new(generation, collector, now, tree, sleepers);

        self.trees_built += 1;
        let i = query_index(k);
        if self.queries.len() <= i {
            self.queries.resize_with(i + 1, || None);
        }
        if let Some(stale) = self.queries[i].replace(state) {
            // A newer generation replaced this query's tree; reuse its
            // buffers for the next build.
            self.flood_scratch.recycle(stale.tree);
        }

        // The collector starts flooding the setup message immediately, and its
        // duty-cycled neighbours can be served from its own buffered copy.
        queue.schedule_at(
            now,
            SimEvent::SetupBroadcast {
                k,
                node: collector,
                attempt: 0,
            },
        );
        self.schedule_sleeping_deliveries(now, k, collector, queue);
    }

    // ------------------------------------------------------------------
    // Query dissemination
    // ------------------------------------------------------------------

    fn handle_setup_broadcast(
        &mut self,
        now: SimTime,
        k: u64,
        node: NodeId,
        attempt: u32,
        queue: &mut EventQueue<SimEvent>,
    ) {
        if self.query(k).is_none() || now >= self.deadline(k) {
            return;
        }
        let mut pending = self.take_vec();
        let state = self.query(k).expect("checked above");
        pending.extend(state.children_awaiting_setup(node));
        if pending.is_empty() {
            self.recycle_vec(pending);
            return;
        }
        let outcome = self.channel.transmit(
            self.position(node),
            self.scenario.messages.setup_bytes,
            now,
            &mut self.rng,
        );
        let loss_p = self.scenario.mac.loss_probability(outcome.contenders);
        let mut any_missed = false;
        for &child in &pending {
            if self.rng.gen_bool(loss_p) {
                any_missed = true;
            } else {
                queue.schedule_at(
                    now + outcome.delay,
                    SimEvent::SetupArrive { k, node: child },
                );
            }
        }
        self.recycle_vec(pending);
        if any_missed && attempt < self.scenario.max_retries {
            queue.schedule_at(
                now + outcome.delay + Self::RETRY_GAP,
                SimEvent::SetupBroadcast {
                    k,
                    node,
                    attempt: attempt + 1,
                },
            );
        }
    }

    fn handle_setup_arrive(
        &mut self,
        now: SimTime,
        k: u64,
        node: NodeId,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let deadline = self.deadline(k);
        let Some(state) = self.query_mut(k) else {
            return;
        };
        if now >= deadline || !state.record_setup(node, now) {
            return;
        }
        let collector = state.collector;
        let collector_pos = self.position(collector);
        let du = self
            .collection
            .sub_deadline(k, self.position(node).distance_to(collector_pos));
        let is_collector = node == collector;
        // Relay the flood onward and arm this node's aggregation timeout.
        queue.schedule_at(
            now + Duration::from_millis(1),
            SimEvent::SetupBroadcast {
                k,
                node,
                attempt: 0,
            },
        );
        if !is_collector {
            queue.schedule_at(du.max(now), SimEvent::AggregateSend { k, node });
        }
        self.schedule_sleeping_deliveries(now, k, node, queue);
    }

    /// Schedules buffered-setup delivery attempts for every duty-cycled node
    /// whose assigned parent is `parent` and which is not yet set up.
    fn schedule_sleeping_deliveries(
        &mut self,
        now: SimTime,
        k: u64,
        parent: NodeId,
        queue: &mut EventQueue<SimEvent>,
    ) {
        if self.query(k).is_none() {
            return;
        }
        let mut targets = self.take_vec();
        let state = self.query(k).expect("checked above");
        // In ascending id order, which fixes the order of the RNG draws below.
        targets.extend(state.waiting_sleepers_of(parent));
        if targets.is_empty() {
            self.recycle_vec(targets);
            return;
        }
        let window = self.schedule.active_window().as_secs_f64();
        for &node in &targets {
            // PSM buffering: the frame can only be handed over while the
            // duty-cycled node is awake, i.e. during an active window. The
            // attempt is jittered inside the window so that concurrent
            // deliveries (the contention greedy prefetching suffers from)
            // spread over the window rather than colliding at its first slot.
            let window_start = self.schedule.next_awake_instant(now);
            let jitter = Duration::from_secs_f64(self.rng.gen_range_f64(0.0, window * 0.5));
            let at = window_start + jitter;
            self.offer_to_window(at);
            queue.schedule_at(
                at,
                SimEvent::SleepingDeliver {
                    k,
                    node,
                    attempt: 0,
                },
            );
        }
        self.recycle_vec(targets);
    }

    fn handle_sleeping_deliver(
        &mut self,
        now: SimTime,
        k: u64,
        node: NodeId,
        attempt: u32,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let deadline = self.deadline(k);
        let earliest_reading = self.earliest_reading(k);
        let Some(state) = self.query(k) else {
            return;
        };
        let Some(sleeper) = state.sleeper(node) else {
            return;
        };
        if state.is_ready(sleeper) || now >= deadline {
            return;
        }
        let parent = state.relay(sleeper);
        let setup_bytes = self.scenario.messages.setup_bytes;
        let outcome = self
            .channel
            .transmit(self.position(parent), setup_bytes, now, &mut self.rng);
        // A buffered frame fails either through ordinary contention loss or
        // because its active window is oversubscribed (the PSM bottleneck
        // that greedy prefetching's concentrated setup runs into).
        let contention_loss = self.scenario.mac.loss_probability(outcome.contenders);
        let overload_loss = self.window_overload_loss(now);
        let loss_p = 1.0 - (1.0 - contention_loss) * (1.0 - overload_loss);
        let lost = self.rng.gen_bool(loss_p);
        let arrival = now + outcome.delay;
        if !lost {
            let airtime = self.channel.tx_duration(setup_bytes).as_secs_f64();
            self.charge(node, 0.0, 0.0, airtime);
            // The node re-schedules its wake-up for the earliest instant a
            // fresh reading can be taken (Section 4.3), or reads immediately
            // if it is already past that instant. The actual channel access is
            // staggered within the slack its parent's sub-deadline (Eq. 1)
            // leaves, so the simultaneous wake-up of every leaf in the area
            // does not collapse into a single collision burst.
            let reading_time = earliest_reading.max(arrival);
            let collector_pos = {
                let state = self.query(k).expect("state present");
                self.position(state.collector)
            };
            let parent_du = self
                .collection
                .sub_deadline(k, self.position(parent).distance_to(collector_pos));
            let slack = parent_du
                .saturating_since(reading_time)
                .as_secs_f64()
                .max(0.0);
            let jitter = Duration::from_secs_f64(
                self.rng.gen_range_f64(0.0, (slack * 0.5).clamp(1e-4, 0.25)),
            );
            let state = self.query_mut(k).expect("state present");
            state.mark_ready(sleeper, arrival);
            let send_time = reading_time + jitter;
            if send_time < deadline {
                queue.schedule_at(send_time, SimEvent::LeafSend { k, node });
            }
            return;
        }
        // Retry while the node is still awake in this window, otherwise defer
        // the buffered frame to the next active window. Give up once the
        // reading deadline can no longer be met.
        let retry_at = arrival + Self::RETRY_GAP;
        let (next_attempt_at, new_window) = match self.schedule.active_window_end(now) {
            Some(end) if retry_at < end => (retry_at, false),
            _ => {
                let next_window = self.schedule.next_wake(arrival);
                let window = self.schedule.active_window().as_secs_f64();
                let jitter = Duration::from_secs_f64(self.rng.gen_range_f64(0.0, window * 0.5));
                (next_window + jitter, true)
            }
        };
        if next_attempt_at < deadline {
            if new_window {
                self.offer_to_window(next_attempt_at);
            }
            queue.schedule_at(
                next_attempt_at,
                SimEvent::SleepingDeliver {
                    k,
                    node,
                    attempt: attempt + 1,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Data collection
    // ------------------------------------------------------------------

    fn handle_leaf_send(
        &mut self,
        now: SimTime,
        k: u64,
        node: NodeId,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let Some(state) = self.query(k) else {
            return;
        };
        let Some(sleeper) = state.sleeper(node) else {
            return;
        };
        let parent = state.relay(sleeper);
        if now >= self.deadline(k) {
            return;
        }
        // The leaf stays awake from its wake-up until the transmission ends,
        // then goes straight back to sleep (it is deliberately a leaf so this
        // is all the extra awake time it pays). A nominal 10 ms covers the
        // sensor reading plus the expected channel-access time; the
        // transmission itself is charged inside `send_data`.
        self.charge(node, 0.010, 0.0, 0.0);
        let mut contributions = self.take_vec();
        contributions.push(node);
        self.send_data(now, k, node, parent, contributions, 0, queue);
    }

    /// Transmits a data frame from `from` to `to` with link-layer
    /// retransmission (802.11-style unicast ARQ): on loss the frame is
    /// retried after a short gap, up to the configured retry budget, as long
    /// as the query deadline has not passed.
    #[allow(clippy::too_many_arguments)] // mirrors the fields of SimEvent::DataSend
    fn send_data(
        &mut self,
        now: SimTime,
        k: u64,
        from: NodeId,
        to: NodeId,
        contributions: Vec<NodeId>,
        attempt: u32,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let deadline = self.deadline(k);
        if now >= deadline || contributions.is_empty() {
            self.recycle_vec(contributions);
            return;
        }
        let data_bytes = self.scenario.messages.data_bytes;
        let outcome = self
            .channel
            .transmit(self.position(from), data_bytes, now, &mut self.rng);
        let airtime = self.channel.tx_duration(data_bytes).as_secs_f64();
        self.charge(from, outcome.delay.as_secs_f64(), airtime, 0.0);
        if outcome.delivered {
            queue.schedule_at(
                now + outcome.delay,
                SimEvent::DataArrive {
                    k,
                    node: to,
                    contributions,
                },
            );
        } else if attempt < self.scenario.max_retries {
            queue.schedule_at(
                now + outcome.delay + Self::RETRY_GAP,
                SimEvent::DataSend {
                    k,
                    from,
                    to,
                    contributions,
                    attempt: attempt + 1,
                },
            );
        }
        // After the retry budget is exhausted the frame (and the whole
        // subtree's contributions it carries) is lost — the congestion cost
        // the paper attributes to greedy prefetching.
    }

    fn handle_data_arrive(
        &mut self,
        now: SimTime,
        k: u64,
        node: NodeId,
        contributions: Vec<NodeId>,
    ) {
        let deadline = self.deadline(k);
        if let Some(state) = self.query_mut(k) {
            if node == state.collector {
                if now <= deadline {
                    state.deliver_to_collector(&contributions);
                }
            } else {
                state.accumulate(node, &contributions);
            }
        }
        self.recycle_vec(contributions);
    }

    fn handle_aggregate_send(
        &mut self,
        now: SimTime,
        k: u64,
        node: NodeId,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let deadline = self.deadline(k);
        let earliest_reading = self.earliest_reading(k);
        if now > deadline || self.query(k).is_none() {
            return;
        }
        let mut contributions = self.take_vec();
        let state = self.query_mut(k).expect("checked above");
        if !state.take_aggregate(node, &mut contributions) {
            self.recycle_vec(contributions);
            return;
        }
        // The node's own reading: available once both its setup arrived and
        // the freshness window opened.
        if let Some(setup_at) = state.setup_time(node) {
            if earliest_reading.max(setup_at) <= now {
                contributions.push(node);
            }
        }
        if contributions.is_empty() {
            self.recycle_vec(contributions);
            return;
        }
        contributions.sort_unstable();
        contributions.dedup();
        match state.tree.parent_of(node) {
            None => {
                // The collector: deliver locally.
                state.deliver_to_collector(&contributions);
                self.recycle_vec(contributions);
            }
            Some(parent) => self.send_data(now, k, node, parent, contributions, 0, queue),
        }
    }

    // ------------------------------------------------------------------
    // Scoring and the NP baseline
    // ------------------------------------------------------------------

    fn handle_query_deadline(&mut self, now: SimTime, k: u64) {
        let deadline = self.deadline(k);
        let actual_user = self.motion.position_at(deadline);
        let area = Circle::new(actual_user, self.scenario.query.radius_m);
        let mut nodes_in_area = self.take_vec();
        nodes_in_area.extend(
            self.deployment
                .all_nodes_grid
                .query_circle(area)
                .map(NodeId),
        );

        // Sample the prefetch length (trees standing for future queries).
        let ahead = self
            .queries
            .iter()
            .skip(query_index(k) + 1)
            .filter(|q| q.is_some())
            .count();
        self.prefetch_len_samples.push(ahead);
        self.max_prefetch_len = self.max_prefetch_len.max(ahead);

        let state = self.queries.get_mut(query_index(k)).and_then(Option::take);
        let record = match state {
            None => QueryRecord::missed(k, deadline, nodes_in_area.len()),
            Some(mut state) => {
                // The collector adds its own fresh reading as it hands the
                // result to the user.
                if let Some(setup_at) = state.setup_time(state.collector) {
                    if self.earliest_reading(k).max(setup_at) <= now {
                        state.deliver_to_collector(&[state.collector]);
                    }
                }
                let contributing = state.contributing(&nodes_in_area);
                let record = QueryRecord {
                    seq: k,
                    deadline,
                    delivered_at: Some(deadline),
                    contributing_nodes: contributing,
                    nodes_in_area: nodes_in_area.len(),
                };
                // The query is scored and gone; its tree's buffers feed the
                // next build.
                self.flood_scratch.recycle(state.tree);
                record
            }
        };
        self.recycle_vec(nodes_in_area);
        self.log.push(record);
    }

    fn handle_np_launch(&mut self, now: SimTime, k: u64, queue: &mut EventQueue<SimEvent>) {
        // The user broadcasts the query into the network at the start of the
        // period; the nearest backbone node acts as the collector for the
        // area around the user's position *at broadcast time*.
        let user_pos = self.motion.position_at(now);
        let Some(collector) = self.deployment.nearest_collector(user_pos, None) else {
            return;
        };
        self.install_query(now, 0, k, collector, user_pos, queue);
    }
}

/// Index of query `k` in [`SimWorld::queries`].
fn query_index(k: u64) -> usize {
    usize::try_from(k).expect("query numbers of a run fit in usize")
}

impl SimWorld {
    /// Handles one event due at `now`, scheduling its follow-ups on `queue`.
    pub(crate) fn handle(
        &mut self,
        now: SimTime,
        event: SimEvent,
        queue: &mut EventQueue<SimEvent>,
    ) {
        self.events_by_kind[event.kind()] += 1;
        match event {
            SimEvent::ProfileDelivered(index) => self.handle_profile_delivered(now, index, queue),
            SimEvent::PrefetchForward {
                generation,
                k,
                from,
            } => self.handle_prefetch_forward(now, generation, k, from, queue),
            SimEvent::PrefetchHop {
                generation,
                k,
                route,
                index,
                attempt,
            } => self.handle_prefetch_hop(now, generation, k, route, index, attempt, queue),
            SimEvent::SetupBroadcast { k, node, attempt } => {
                self.handle_setup_broadcast(now, k, node, attempt, queue)
            }
            SimEvent::SetupArrive { k, node } => self.handle_setup_arrive(now, k, node, queue),
            SimEvent::SleepingDeliver { k, node, attempt } => {
                self.handle_sleeping_deliver(now, k, node, attempt, queue)
            }
            SimEvent::LeafSend { k, node } => self.handle_leaf_send(now, k, node, queue),
            SimEvent::DataSend {
                k,
                from,
                to,
                contributions,
                attempt,
            } => self.send_data(now, k, from, to, contributions, attempt, queue),
            SimEvent::DataArrive {
                k,
                node,
                contributions,
            } => self.handle_data_arrive(now, k, node, contributions),
            SimEvent::AggregateSend { k, node } => self.handle_aggregate_send(now, k, node, queue),
            SimEvent::QueryDeadline { k } => self.handle_query_deadline(now, k),
            SimEvent::NpLaunch { k } => self.handle_np_launch(now, k, queue),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Scenario, Scheme};
    use crate::sim::Simulation;
    use wsn_sim::SimTime;

    #[test]
    fn hot_path_vectors_are_recycled() {
        // A steady-state run must actually reuse pooled buffers for its hop
        // paths and contribution lists — pool-and-never-take would silently
        // reintroduce the per-message allocations this pool removes.
        let scenario = Scenario::paper_default()
            .with_node_count(80)
            .with_region_side(300.0)
            .with_scheme(Scheme::JustInTime)
            .with_seed(11)
            .with_duration_secs(40.0);
        let mut sim = Simulation::new(scenario).unwrap();
        sim.run_until(SimTime::MAX);
        assert!(
            sim.world.vec_pool_reuses > 100,
            "expected the hot loop to recycle buffers, saw {} reuses",
            sim.world.vec_pool_reuses
        );
    }
}
