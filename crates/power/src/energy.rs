//! Per-node radio energy accounting.
//!
//! Figure 8 of the paper reports the *average power consumption per sleeping
//! node* under different sleep periods and advance times. The ledger in this
//! module integrates the time each node's radio spends in each state against
//! a [`RadioPowerProfile`], which is exactly how ns-2's energy model produces
//! those numbers.

use wsn_net::{NodeId, RadioPowerProfile, RadioState};
use wsn_sim::Duration;

/// Accumulated radio-state residency and energy for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeEnergy {
    /// Time spent transmitting.
    pub tx_time: Duration,
    /// Time spent receiving.
    pub rx_time: Duration,
    /// Time spent idle-listening.
    pub idle_time: Duration,
    /// Time spent asleep.
    pub sleep_time: Duration,
}

impl NodeEnergy {
    /// Total time accounted for.
    pub fn total_time(&self) -> Duration {
        self.tx_time + self.rx_time + self.idle_time + self.sleep_time
    }

    /// Energy in millijoules under the given power profile.
    pub fn energy_mj(&self, profile: &RadioPowerProfile) -> f64 {
        profile.energy_mj(RadioState::Transmit, self.tx_time)
            + profile.energy_mj(RadioState::Receive, self.rx_time)
            + profile.energy_mj(RadioState::Idle, self.idle_time)
            + profile.energy_mj(RadioState::Sleep, self.sleep_time)
    }

    /// Average power in watts over the accounted time (0 if nothing recorded).
    pub fn average_power_w(&self, profile: &RadioPowerProfile) -> f64 {
        let t = self.total_time().as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.energy_mj(profile) / t / 1000.0
        }
    }
}

/// Records how long every node's radio spends in each state.
///
/// ```
/// use wsn_power::EnergyLedger;
/// use wsn_net::{NodeId, RadioPowerProfile, RadioState};
/// use wsn_sim::Duration;
///
/// let mut ledger = EnergyLedger::new(2, RadioPowerProfile::IEEE_802_11);
/// ledger.record(NodeId(0), RadioState::Sleep, Duration::from_secs(9));
/// ledger.record(NodeId(0), RadioState::Idle, Duration::from_secs(1));
/// let p = ledger.average_power_w(NodeId(0));
/// assert!(p > 0.13 && p < 0.83, "between pure sleep and pure idle, got {p}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyLedger {
    profile: RadioPowerProfile,
    nodes: Vec<NodeEnergy>,
}

impl EnergyLedger {
    /// Creates a ledger for `node_count` nodes using the given power profile.
    pub fn new(node_count: usize, profile: RadioPowerProfile) -> Self {
        EnergyLedger {
            profile,
            nodes: vec![NodeEnergy::default(); node_count],
        }
    }

    /// Number of nodes tracked.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The power profile used for energy conversion.
    pub fn profile(&self) -> &RadioPowerProfile {
        &self.profile
    }

    /// Adds `time` spent in `state` to `node`'s account.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn record(&mut self, node: NodeId, state: RadioState, time: Duration) {
        let entry = &mut self.nodes[node.index()];
        match state {
            RadioState::Transmit => entry.tx_time += time,
            RadioState::Receive => entry.rx_time += time,
            RadioState::Idle => entry.idle_time += time,
            RadioState::Sleep => entry.sleep_time += time,
        }
    }

    /// The per-state residency of `node`.
    pub fn node(&self, node: NodeId) -> &NodeEnergy {
        &self.nodes[node.index()]
    }

    /// Total energy consumed by `node`, in millijoules.
    pub fn energy_mj(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].energy_mj(&self.profile)
    }

    /// Average power of `node` over its accounted time, in watts.
    pub fn average_power_w(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].average_power_w(&self.profile)
    }

    /// Mean of the average power over the given subset of nodes, in watts.
    ///
    /// This is the Figure 8 metric when the subset is "all sleeping (duty-
    /// cycled) nodes". Nodes with no accounted time are skipped.
    pub fn mean_power_w<I: IntoIterator<Item = NodeId>>(&self, nodes: I) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for id in nodes {
            let e = &self.nodes[id.index()];
            if e.total_time() > Duration::ZERO {
                sum += e.average_power_w(&self.profile);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(n: usize) -> EnergyLedger {
        EnergyLedger::new(n, RadioPowerProfile::IEEE_802_11)
    }

    #[test]
    fn pure_sleep_power_matches_profile() {
        let mut l = ledger(1);
        l.record(NodeId(0), RadioState::Sleep, Duration::from_secs(100));
        assert!((l.average_power_w(NodeId(0)) - 0.130).abs() < 1e-9);
        assert!((l.energy_mj(NodeId(0)) - 13_000.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_states_average_between_extremes() {
        let mut l = ledger(1);
        l.record(NodeId(0), RadioState::Sleep, Duration::from_secs(9));
        l.record(NodeId(0), RadioState::Idle, Duration::from_secs(1));
        let p = l.average_power_w(NodeId(0));
        // (9*130 + 1*830) / 10 = 200 mW
        assert!((p - 0.200).abs() < 1e-9);
    }

    #[test]
    fn unrecorded_node_has_zero_power() {
        let l = ledger(2);
        assert_eq!(l.average_power_w(NodeId(1)), 0.0);
        assert_eq!(l.energy_mj(NodeId(1)), 0.0);
    }

    #[test]
    fn mean_power_skips_untouched_nodes() {
        let mut l = ledger(3);
        l.record(NodeId(0), RadioState::Sleep, Duration::from_secs(10));
        l.record(NodeId(2), RadioState::Idle, Duration::from_secs(10));
        let mean = l.mean_power_w([NodeId(0), NodeId(1), NodeId(2)]);
        assert!((mean - (0.130 + 0.830) / 2.0).abs() < 1e-9);
        assert_eq!(l.mean_power_w([NodeId(1)]), 0.0);
    }

    #[test]
    fn longer_sleep_periods_lower_average_power() {
        // Emulate a duty-cycled node: 100 ms idle per period, rest asleep.
        let power_for_period = |period_s: f64| {
            let mut l = ledger(1);
            let cycles = 20;
            for _ in 0..cycles {
                l.record(NodeId(0), RadioState::Idle, Duration::from_millis(100));
                l.record(
                    NodeId(0),
                    RadioState::Sleep,
                    Duration::from_secs_f64(period_s - 0.1),
                );
            }
            l.average_power_w(NodeId(0))
        };
        let p3 = power_for_period(3.0);
        let p9 = power_for_period(9.0);
        let p15 = power_for_period(15.0);
        assert!(
            p3 > p9 && p9 > p15,
            "power must fall with sleep period: {p3} {p9} {p15}"
        );
        // All should sit between the sleep floor and idle ceiling.
        for p in [p3, p9, p15] {
            assert!(p > 0.130 && p < 0.830);
        }
    }

    #[test]
    fn total_time_sums_components() {
        let mut l = ledger(1);
        l.record(NodeId(0), RadioState::Transmit, Duration::from_millis(5));
        l.record(NodeId(0), RadioState::Receive, Duration::from_millis(10));
        l.record(NodeId(0), RadioState::Idle, Duration::from_millis(15));
        l.record(NodeId(0), RadioState::Sleep, Duration::from_millis(70));
        assert_eq!(l.node(NodeId(0)).total_time(), Duration::from_millis(100));
    }
}
