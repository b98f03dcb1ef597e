//! Radio configuration, states and power profiles.

use std::fmt;
use wsn_sim::Duration;

/// The operating state of a node's radio at a point in time.
///
/// Energy accounting integrates the time spent in each state against a
/// [`RadioPowerProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Actively transmitting a frame.
    Transmit,
    /// Actively receiving a frame.
    Receive,
    /// Radio on, listening but not transferring data.
    Idle,
    /// Radio off (power-save sleep).
    Sleep,
}

impl fmt::Display for RadioState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RadioState::Transmit => "tx",
            RadioState::Receive => "rx",
            RadioState::Idle => "idle",
            RadioState::Sleep => "sleep",
        };
        f.write_str(s)
    }
}

/// Power drawn by the radio in each state, in milliwatts.
///
/// The defaults are the Cabletron 802.11 card measurements the paper adopts
/// from Chen et al. (SPAN): 1400 mW transmit, 1000 mW receive, 830 mW idle and
/// 130 mW sleep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioPowerProfile {
    /// Transmit power draw (mW).
    pub tx_mw: f64,
    /// Receive power draw (mW).
    pub rx_mw: f64,
    /// Idle-listening power draw (mW).
    pub idle_mw: f64,
    /// Sleep power draw (mW).
    pub sleep_mw: f64,
}

impl RadioPowerProfile {
    /// The 802.11 (Cabletron) profile used in the paper's Section 6.4:
    /// 1400 / 1000 / 830 / 130 mW.
    pub const IEEE_802_11: RadioPowerProfile = RadioPowerProfile {
        tx_mw: 1400.0,
        rx_mw: 1000.0,
        idle_mw: 830.0,
        sleep_mw: 130.0,
    };

    /// Power draw (mW) in the given state.
    pub fn power_mw(&self, state: RadioState) -> f64 {
        match state {
            RadioState::Transmit => self.tx_mw,
            RadioState::Receive => self.rx_mw,
            RadioState::Idle => self.idle_mw,
            RadioState::Sleep => self.sleep_mw,
        }
    }

    /// Energy in millijoules consumed by spending `time` in `state`.
    pub fn energy_mj(&self, state: RadioState, time: Duration) -> f64 {
        self.power_mw(state) * time.as_secs_f64()
    }
}

impl Default for RadioPowerProfile {
    fn default() -> Self {
        RadioPowerProfile::IEEE_802_11
    }
}

/// Static radio parameters shared by every node in a deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioConfig {
    /// Communication range in metres (unit-disk model). Paper default: 105 m.
    pub comm_range_m: f64,
    /// Raw link bandwidth in bits per second. Paper default: 2 Mb/s.
    pub bandwidth_bps: f64,
    /// Power profile for energy accounting.
    pub power: RadioPowerProfile,
}

impl RadioConfig {
    /// The evaluation settings of Section 6.1: 105 m range, 2 Mb/s, 802.11 power.
    pub fn paper_default() -> Self {
        RadioConfig {
            comm_range_m: 105.0,
            bandwidth_bps: 2_000_000.0,
            power: RadioPowerProfile::IEEE_802_11,
        }
    }

    /// Time on air for a frame of `payload_bytes` application bytes plus
    /// `overhead_bytes` of header, at this radio's bandwidth.
    pub fn tx_duration(&self, payload_bytes: usize, overhead_bytes: usize) -> Duration {
        let bits = ((payload_bytes + overhead_bytes) * 8) as f64;
        Duration::from_secs_f64(bits / self.bandwidth_bps)
    }
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_power_profile_values() {
        let p = RadioPowerProfile::IEEE_802_11;
        assert_eq!(p.power_mw(RadioState::Transmit), 1400.0);
        assert_eq!(p.power_mw(RadioState::Receive), 1000.0);
        assert_eq!(p.power_mw(RadioState::Idle), 830.0);
        assert_eq!(p.power_mw(RadioState::Sleep), 130.0);
    }

    #[test]
    fn energy_scales_linearly_with_time() {
        let p = RadioPowerProfile::IEEE_802_11;
        let e1 = p.energy_mj(RadioState::Idle, Duration::from_secs(1));
        let e2 = p.energy_mj(RadioState::Idle, Duration::from_secs(2));
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
        assert!((e1 - 830.0).abs() < 1e-9);
    }

    #[test]
    fn sleep_is_cheapest_state() {
        let p = RadioPowerProfile::default();
        for s in [RadioState::Transmit, RadioState::Receive, RadioState::Idle] {
            assert!(p.power_mw(RadioState::Sleep) < p.power_mw(s));
        }
    }

    #[test]
    fn tx_duration_matches_bandwidth() {
        let cfg = RadioConfig::paper_default();
        // 250 bytes at 2 Mb/s = 1 ms.
        let d = cfg.tx_duration(226, 24);
        assert!((d.as_secs_f64() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn display_strings_are_nonempty() {
        for s in [
            RadioState::Transmit,
            RadioState::Receive,
            RadioState::Idle,
            RadioState::Sleep,
        ] {
            assert!(!format!("{s}").is_empty());
        }
    }
}
