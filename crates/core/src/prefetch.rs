//! Prefetching schemes and the just-in-time forwarding bound.
//!
//! Prefetching is what lets MobiQuery meet spatiotemporal constraints despite
//! duty cycles: a prefetch message travels ahead of the user from pickup
//! point to pickup point, carrying the query and motion profile, so the nodes
//! of each future query area can be woken just in time.
//!
//! The key design parameter derived in Section 5.1 is **when** the (k−1)-th
//! collector should forward the prefetch message to the k-th pickup point.
//! Equation 10:
//!
//! ```text
//! tsend(k−1) ≤ (k−1)·Tperiod − Tsleep − 2·Tfresh
//! ```
//!
//! **Which form of Equation 10 this is.** The paper writes the bound as
//! `(k−1)·Tperiod − Tsleep − Tfresh − 2·Tcomm`, with `Tcomm` a conservative
//! hop-plus-setup latency. This crate has no `Tcomm`: it budgets `2·Tfresh`
//! where the paper has `Tfresh + 2·Tcomm` (the two agree when
//! `Tcomm = Tfresh/2`), and does so in every form derived from the bound —
//! Equation 8 ([`PrefetchTiming::recv_bound_secs`]), Equation 10
//! ([`PrefetchTiming::jit_send_bound_secs`]) and Equation 16
//! ([`crate::analysis::warmup_interval_s`],
//! [`crate::analysis::zero_warmup_advance_s`]). The code's form is kept
//! because both engines will run it: the event engine does today, and the
//! stepped multi-user engine is to take its install instant from the same
//! [`PrefetchTiming`].
//!
//! Greedy prefetching forwards immediately instead; No-Prefetching is the
//! paper's baseline that broadcasts the query at the start of every period.

use std::fmt;
use wsn_sim::{Duration, SimTime};

/// The prefetching scheme run by the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchScheme {
    /// Just-in-time prefetching (MQ-JIT): hold the prefetch message and
    /// forward it at the Equation-10 bound.
    JustInTime,
    /// Greedy prefetching (MQ-GP): forward the prefetch message immediately.
    Greedy,
    /// No prefetching (NP): broadcast the query into the current area at the
    /// start of each period.
    None,
}

impl PrefetchScheme {
    /// Returns `true` when the scheme uses prefetch messages at all.
    pub fn uses_prefetching(self) -> bool {
        !matches!(self, PrefetchScheme::None)
    }

    /// Short display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchScheme::JustInTime => "MQ-JIT",
            PrefetchScheme::Greedy => "MQ-GP",
            PrefetchScheme::None => "NP",
        }
    }
}

impl fmt::Display for PrefetchScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The temporal parameters the forwarding bound depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchTiming {
    /// Query period `Tperiod`.
    pub period: Duration,
    /// Data freshness bound `Tfresh`.
    pub freshness: Duration,
    /// Duty-cycle sleep period `Tsleep`.
    pub sleep_period: Duration,
}

impl PrefetchTiming {
    /// The latest time the prefetch message for the k-th query (1-based) may
    /// be forwarded by the (k−1)-th collector so that the k-th deadline is
    /// still met — Equation 10, `tsend(k−1) ≤ (k−1)·Tperiod − Tsleep −
    /// 2·Tfresh`.
    ///
    /// The bound can be negative for small `k` (at the start of a query or
    /// right after a motion change); callers clamp to "now", which is exactly
    /// the greedy catch-up behaviour the paper prescribes during warm-up.
    pub fn jit_send_bound_secs(&self, k: u64) -> f64 {
        let k_minus_1 = k.saturating_sub(1) as f64;
        k_minus_1 * self.period.as_secs_f64()
            - self.sleep_period.as_secs_f64()
            - 2.0 * self.freshness.as_secs_f64()
    }

    /// [`Self::jit_send_bound_secs`] as a clamped simulation instant.
    pub fn jit_send_bound(&self, k: u64) -> SimTime {
        SimTime::from_secs_f64(self.jit_send_bound_secs(k))
    }

    /// The latest time the k-th collector must *receive* the prefetch message
    /// so the deadline can be met — Equation 8,
    /// `trecv(k) ≤ k·Tperiod − Tsleep − 2·Tfresh`.
    pub fn recv_bound_secs(&self, k: u64) -> f64 {
        k as f64 * self.period.as_secs_f64()
            - self.sleep_period.as_secs_f64()
            - 2.0 * self.freshness.as_secs_f64()
    }

    /// When the given scheme forwards the prefetch message for query `k`,
    /// given that the forwarding node is ready (has the message and the
    /// profile) at `ready_at`.
    ///
    /// * JIT: at the Equation-10 bound, but never before `ready_at` (greedy
    ///   catch-up during warm-up).
    /// * Greedy: immediately at `ready_at`.
    /// * None: not applicable (returns `ready_at`).
    pub fn send_time(&self, scheme: PrefetchScheme, k: u64, ready_at: SimTime) -> SimTime {
        match scheme {
            PrefetchScheme::JustInTime => ready_at.max(self.jit_send_bound(k)),
            PrefetchScheme::Greedy | PrefetchScheme::None => ready_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> PrefetchTiming {
        // The storage-cost example of Section 5.2: Tperiod = 10 s,
        // Tfresh = 5 s, Tsleep = 15 s.
        PrefetchTiming {
            period: Duration::from_secs(10),
            freshness: Duration::from_secs(5),
            sleep_period: Duration::from_secs(15),
        }
    }

    #[test]
    fn equation_10_bound_values() {
        let t = timing();
        // tsend(k-1) = (k-1)*10 - 15 - 10 = (k-1)*10 - 25.
        assert_eq!(t.jit_send_bound_secs(1), -25.0);
        assert_eq!(t.jit_send_bound_secs(3), -5.0);
        assert_eq!(t.jit_send_bound_secs(4), 5.0);
        assert_eq!(t.jit_send_bound_secs(10), 65.0);
    }

    #[test]
    fn recv_bound_is_one_period_after_send_bound() {
        let t = timing();
        for k in 1..20 {
            assert!(
                (t.recv_bound_secs(k) - (t.jit_send_bound_secs(k) + t.period.as_secs_f64())).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn negative_bounds_clamp_to_zero_instant() {
        let t = timing();
        assert_eq!(t.jit_send_bound(1), SimTime::ZERO);
        assert_eq!(t.jit_send_bound(4), SimTime::from_secs(5));
    }

    #[test]
    fn jit_never_sends_before_ready() {
        let t = timing();
        let ready = SimTime::from_secs(50);
        // Bound for k=4 is 5 s, which is before ready: catch up greedily.
        assert_eq!(t.send_time(PrefetchScheme::JustInTime, 4, ready), ready);
        // Bound for k=10 is 65 s, after ready: hold until the bound.
        assert_eq!(
            t.send_time(PrefetchScheme::JustInTime, 10, ready),
            SimTime::from_secs(65)
        );
    }

    #[test]
    fn greedy_sends_immediately() {
        let t = timing();
        let ready = SimTime::from_secs(12);
        assert_eq!(t.send_time(PrefetchScheme::Greedy, 10, ready), ready);
        assert_eq!(t.send_time(PrefetchScheme::None, 10, ready), ready);
    }

    #[test]
    fn jit_forwarding_interval_is_one_period_in_steady_state() {
        let t = timing();
        // Once past warm-up, consecutive send bounds are exactly Tperiod apart,
        // which is the observation behind the storage-cost analysis.
        for k in 5..15 {
            let gap = t.jit_send_bound_secs(k + 1) - t.jit_send_bound_secs(k);
            assert!((gap - t.period.as_secs_f64()).abs() < 1e-9);
        }
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(PrefetchScheme::JustInTime.label(), "MQ-JIT");
        assert_eq!(PrefetchScheme::Greedy.label(), "MQ-GP");
        assert_eq!(PrefetchScheme::None.label(), "NP");
        assert!(PrefetchScheme::JustInTime.uses_prefetching());
        assert!(!PrefetchScheme::None.uses_prefetching());
    }
}
