//! The wireless channel: who can hear whom, and per-hop delivery outcomes.
//!
//! The channel combines the unit-disk connectivity model (two nodes can
//! communicate when they are within the radio's communication range) with the
//! MAC model's contention-dependent delay and loss. It is deliberately a thin,
//! deterministic-given-the-RNG component so the protocol simulation on top of
//! it stays easy to reason about.

use crate::mac::{ContentionTracker, MacConfig};
use crate::radio::RadioConfig;
use wsn_geom::Point;
use wsn_sim::{Duration, SimRng, SimTime};

/// The outcome of attempting one hop over the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopOutcome {
    /// Whether the frame was received (not lost to contention).
    pub delivered: bool,
    /// Time from the transmission decision until the receiver has the frame
    /// (backoff + airtime + processing). Valid even when the frame is lost —
    /// the channel is still occupied for that long.
    pub delay: Duration,
    /// Contention level observed when the frame was sent.
    pub contenders: usize,
}

/// The shared wireless medium.
///
/// ```
/// use wsn_net::{Channel, MacConfig, RadioConfig};
/// use wsn_net::node::NodeId;
/// use wsn_geom::Point;
/// use wsn_sim::{SimRng, SimTime};
///
/// let mut channel = Channel::new(RadioConfig::paper_default(), MacConfig::paper_default());
/// let mut rng = SimRng::seed_from_u64(7);
/// let hop = channel.transmit(
///     Point::new(0.0, 0.0), 60, SimTime::ZERO, &mut rng,
/// );
/// assert!(hop.delay.as_secs_f64() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    radio: RadioConfig,
    mac: MacConfig,
    contention: ContentionTracker,
    frames_sent: u64,
    frames_lost: u64,
}

impl Channel {
    /// Creates a channel with the given radio and MAC parameters.
    pub fn new(radio: RadioConfig, mac: MacConfig) -> Self {
        let tracker = ContentionTracker::new(mac.interference_range_m);
        Channel {
            radio,
            mac,
            contention: tracker,
            frames_sent: 0,
            frames_lost: 0,
        }
    }

    /// Airtime of a frame with `payload_bytes` of application payload.
    pub fn tx_duration(&self, payload_bytes: usize) -> Duration {
        self.radio.tx_duration(payload_bytes, self.mac.header_bytes)
    }

    /// Simulates one transmission attempt from a node at `position`
    /// starting at `now`, registering its channel occupancy and sampling the
    /// contention-dependent delay and loss.
    ///
    /// Broadcast and unicast are treated identically at this layer: the
    /// outcome describes whether *a* receiver in range gets the frame; the
    /// caller decides which nodes are in range and interested.
    pub fn transmit(
        &mut self,
        position: Point,
        payload_bytes: usize,
        now: SimTime,
        rng: &mut SimRng,
    ) -> HopOutcome {
        let contenders = self.contention.contenders(position, now);
        let mac_delay = self.mac.sample_hop_delay(contenders, rng);
        let airtime = self.tx_duration(payload_bytes);
        let start_tx = now + mac_delay;
        let end_tx = start_tx + airtime;
        self.contention.register(position, start_tx, end_tx);
        let lost = self.mac.sample_loss(contenders, rng);
        self.frames_sent += 1;
        if lost {
            self.frames_lost += 1;
        }
        HopOutcome {
            delivered: !lost,
            delay: mac_delay + airtime,
            contenders,
        }
    }

    /// Total frames sent through this channel.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Total frames lost to contention.
    pub fn frames_lost(&self) -> u64 {
        self.frames_lost
    }

    /// Fraction of frames lost so far (0 when nothing has been sent).
    pub fn loss_rate(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.frames_lost as f64 / self.frames_sent as f64
        }
    }

    /// Discards bookkeeping for transmissions that ended before `now`.
    pub fn prune(&mut self, now: SimTime) {
        self.contention.prune(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> Channel {
        Channel::new(RadioConfig::paper_default(), MacConfig::paper_default())
    }

    #[test]
    fn transmission_has_positive_delay() {
        let mut c = channel();
        let mut rng = SimRng::seed_from_u64(3);
        let hop = c.transmit(Point::new(10.0, 10.0), 60, SimTime::ZERO, &mut rng);
        assert!(hop.delay > Duration::ZERO);
        assert_eq!(hop.contenders, 0);
        assert_eq!(c.frames_sent(), 1);
    }

    #[test]
    fn concurrent_transmissions_raise_contention() {
        let mut c = channel();
        let mut rng = SimRng::seed_from_u64(4);
        let now = SimTime::ZERO;
        for i in 0..5 {
            c.transmit(Point::new(5.0 * i as f64, 0.0), 200, now, &mut rng);
        }
        // A sixth transmission in the same neighbourhood sees at least some of
        // the others still occupying the channel (CSMA backoff spreads them
        // out, so the exact count depends on the sampled backoffs).
        let hop = c.transmit(Point::new(10.0, 0.0), 200, now, &mut rng);
        assert!(
            hop.contenders >= 2,
            "expected contention, got {}",
            hop.contenders
        );
    }

    #[test]
    fn far_apart_transmissions_do_not_contend() {
        let mut c = channel();
        let mut rng = SimRng::seed_from_u64(5);
        let now = SimTime::ZERO;
        c.transmit(Point::new(0.0, 0.0), 200, now, &mut rng);
        let hop = c.transmit(Point::new(1000.0, 0.0), 200, now, &mut rng);
        assert_eq!(hop.contenders, 0);
    }

    #[test]
    fn loss_rate_increases_under_heavy_contention() {
        let mut quiet = channel();
        let mut busy = channel();
        let mut rng = SimRng::seed_from_u64(6);
        // Quiet: transmissions spaced far apart in time.
        for i in 0..300u64 {
            quiet.transmit(Point::new(0.0, 0.0), 60, SimTime::from_secs(i), &mut rng);
        }
        // Busy: many simultaneous transmissions in the same area.
        for i in 0..300u64 {
            busy.transmit(
                Point::new((i % 20) as f64, 0.0),
                60,
                SimTime::from_millis(i / 20),
                &mut rng,
            );
        }
        assert!(
            busy.loss_rate() > quiet.loss_rate(),
            "busy {} vs quiet {}",
            busy.loss_rate(),
            quiet.loss_rate()
        );
    }

    #[test]
    fn loss_rate_zero_before_any_traffic() {
        assert_eq!(channel().loss_rate(), 0.0);
    }
}
