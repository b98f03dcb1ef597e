//! The closed-form analysis of Section 5.
//!
//! Every quantitative claim of the paper's analysis section is implemented
//! here so the benchmark harness can print the worked examples
//! (`vprfh ≈ 469 mph`, prefetch length 4 vs 58, interfering trees 4 vs 35,
//! `v* ≈ 131 mph`) and the integration tests can cross-check the simulator
//! against the bounds (storage cost, warm-up interval).

use wsn_geom::mps_to_mph;

/// Parameters shared by the Section 5 formulas. All times in seconds, all
/// distances in metres, all speeds in metres per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisParams {
    /// Query period `Tperiod` (s).
    pub period_s: f64,
    /// Data freshness bound `Tfresh` (s).
    pub freshness_s: f64,
    /// Duty-cycle sleep period `Tsleep` (s).
    pub sleep_s: f64,
    /// Query lifetime `Td` (s).
    pub lifetime_s: f64,
    /// User speed `vuser` (m/s).
    pub user_speed_mps: f64,
    /// Prefetch-message speed `vprfh` (m/s): distance between consecutive
    /// collectors over the communication delay between them.
    pub prefetch_speed_mps: f64,
    /// Query-area radius `Rq` (m).
    pub query_radius_m: f64,
    /// Communication range `Rc` (m).
    pub comm_range_m: f64,
}

impl AnalysisParams {
    /// The concrete example of Section 5.2: a human walking at 4 m/s issuing
    /// a query every 10 s for 600 s, with `Tfresh` = 5 s and `Tsleep` = 15 s.
    pub fn storage_example() -> Self {
        AnalysisParams {
            period_s: 10.0,
            freshness_s: 5.0,
            sleep_s: 15.0,
            lifetime_s: 600.0,
            user_speed_mps: 4.0,
            prefetch_speed_mps: prefetch_speed_mps(100.0, 5, 60, 5_000.0),
            query_radius_m: 150.0,
            comm_range_m: 105.0,
        }
    }

    /// The concrete example of Section 5.4: `Rc` = 50 m, `Rq` = 150 m,
    /// `Tsleep` = 9 s, `Tfresh` = 3 s, a query every 5 s, walking at 4 m/s.
    pub fn contention_example() -> Self {
        AnalysisParams {
            period_s: 5.0,
            freshness_s: 3.0,
            sleep_s: 9.0,
            lifetime_s: 600.0,
            user_speed_mps: 4.0,
            prefetch_speed_mps: prefetch_speed_mps(100.0, 5, 60, 5_000.0),
            query_radius_m: 150.0,
            comm_range_m: 50.0,
        }
    }
}

/// The speed of a prefetch message (Section 5.2's estimate): the distance
/// between two consecutive collector nodes divided by the multi-hop
/// communication delay between them.
///
/// `distance_m` — distance between the collectors; `hops` — number of hops;
/// `message_bytes` — prefetch message size; `effective_bandwidth_bps` — the
/// per-hop goodput after MAC/routing overhead (the paper uses 5 kb/s for a
/// 38.4 kb/s MICA2 radio).
pub fn prefetch_speed_mps(
    distance_m: f64,
    hops: u32,
    message_bytes: usize,
    effective_bandwidth_bps: f64,
) -> f64 {
    let per_hop_s = (message_bytes * 8) as f64 / effective_bandwidth_bps;
    let total_s = per_hop_s * hops as f64;
    if total_s <= 0.0 {
        f64::INFINITY
    } else {
        distance_m / total_s
    }
}

/// The paper's Section 5.2 worked estimate of `vprfh` in miles per hour
/// (≈ 469 mph): 100 m across 5 hops, a 60-byte message at 5 kb/s effective
/// bandwidth.
pub fn paper_prefetch_speed_mph() -> f64 {
    mps_to_mph(prefetch_speed_mps(100.0, 5, 60, 5_000.0))
}

/// Worst-case prefetch length (number of query trees set up ahead of the
/// user) under **greedy** prefetching — Equation 11:
/// `PLgp = ⌊Td/Tperiod⌋ − ⌊Td/Tperiod · vuser/vprfh⌋`.
pub fn prefetch_length_greedy(p: &AnalysisParams) -> u64 {
    let total = (p.lifetime_s / p.period_s).floor();
    let visited = (p.lifetime_s / p.period_s * p.user_speed_mps / p.prefetch_speed_mps).floor();
    (total - visited).max(0.0) as u64
}

/// Worst-case prefetch length under **just-in-time** prefetching —
/// Equation 12: `PLjit = ⌈(Tsleep + 2·Tfresh)/Tperiod⌉ + 1`.
pub fn prefetch_length_jit(p: &AnalysisParams) -> u64 {
    ((p.sleep_s + 2.0 * p.freshness_s) / p.period_s).ceil() as u64 + 1
}

/// The query-lifetime threshold of Equation 13 beyond which greedy
/// prefetching stores strictly more state than just-in-time prefetching:
/// `Td > (Tsleep + 2·Tfresh + Tperiod) / (1 − vuser/vprfh)`.
pub fn storage_crossover_lifetime_s(p: &AnalysisParams) -> f64 {
    let denom = 1.0 - p.user_speed_mps / p.prefetch_speed_mps;
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        (p.sleep_s + 2.0 * p.freshness_s + p.period_s) / denom
    }
}

/// Upper bound on the warm-up interval after a motion change — Equation 16
/// turned into a duration: `Tw = k·Tperiod` where
///
/// ```text
/// k ≤ ⌈ (Tsleep + 2·Tfresh − (1 − vuser/vprfh)·Ta) / (Tperiod·(1 − vuser/vprfh)) ⌉
/// ```
///
/// `advance_time_s` is `Ta` (may be negative). The result is clamped at zero:
/// a sufficiently early motion profile eliminates the warm-up entirely.
pub fn warmup_interval_s(p: &AnalysisParams, advance_time_s: f64) -> f64 {
    let ratio = 1.0 - p.user_speed_mps / p.prefetch_speed_mps;
    if ratio <= 0.0 {
        return f64::INFINITY;
    }
    let k =
        ((p.sleep_s + 2.0 * p.freshness_s - ratio * advance_time_s) / (p.period_s * ratio)).ceil();
    // `ceil` maps (−1, 0) to −0.0, and `f64::max` may return either zero, so
    // compare instead: a vanished warm-up is a positive zero in every build.
    if k > 0.0 {
        k * p.period_s
    } else {
        0.0
    }
}

/// The advance time beyond which the warm-up interval vanishes:
/// `Ta = (2·Tfresh + Tsleep) / (1 − vuser/vprfh)` (Section 5.3).
pub fn zero_warmup_advance_s(p: &AnalysisParams) -> f64 {
    let ratio = 1.0 - p.user_speed_mps / p.prefetch_speed_mps;
    if ratio <= 0.0 {
        f64::INFINITY
    } else {
        (2.0 * p.freshness_s + p.sleep_s) / ratio
    }
}

/// The approximation the paper derives for practical speeds
/// (`vprfh ≫ vuser`): `Tw ≈ Tsleep + 2·Tfresh − Ta`.
pub fn warmup_interval_approx_s(p: &AnalysisParams, advance_time_s: f64) -> f64 {
    (p.sleep_s + 2.0 * p.freshness_s - advance_time_s).max(0.0)
}

/// Number of pickup points whose roots lie close enough to interfere with a
/// given tree — Equation 17: `Ms = ⌈(4·Rq + 2·Rc)/(vuser·Tperiod)⌉`.
pub fn interference_span_trees(p: &AnalysisParams) -> u64 {
    ((4.0 * p.query_radius_m + 2.0 * p.comm_range_m) / (p.user_speed_mps * p.period_s)).ceil()
        as u64
}

/// Number of trees whose setup can overlap in time under **greedy**
/// prefetching — Equation 18 (upper bound):
/// `Mt−gp ≤ ⌈(Tsleep + Tfresh)·vprfh / (Tperiod·vuser)⌉`.
pub fn overlapping_setups_greedy(p: &AnalysisParams) -> u64 {
    (((p.sleep_s + p.freshness_s) * p.prefetch_speed_mps) / (p.period_s * p.user_speed_mps)).ceil()
        as u64
}

/// Number of trees whose setup can overlap in time under **just-in-time**
/// prefetching: `Mt−jit = ⌈Ttree/Tperiod⌉` with `Ttree ≤ Tsleep + Tfresh`.
pub fn overlapping_setups_jit(p: &AnalysisParams) -> u64 {
    ((p.sleep_s + p.freshness_s) / p.period_s).ceil() as u64
}

/// The interference length (number of trees interfering with a given tree's
/// setup) for greedy prefetching: `Mgp = min(Mt−gp, Ms)`.
pub fn interference_length_greedy(p: &AnalysisParams) -> u64 {
    overlapping_setups_greedy(p).min(interference_span_trees(p))
}

/// The interference length for just-in-time prefetching:
/// `Mjit = min(Mt−jit, Ms)`.
pub fn interference_length_jit(p: &AnalysisParams) -> u64 {
    overlapping_setups_jit(p).min(interference_span_trees(p))
}

/// The user-speed threshold `v* = (2·Rc + 4·Rq)/(Tsleep + Tfresh)` (Section
/// 5.4) below which just-in-time prefetching causes strictly less contention
/// than greedy prefetching. Returned in metres per second.
pub fn contention_speed_threshold_mps(p: &AnalysisParams) -> f64 {
    (2.0 * p.comm_range_m + 4.0 * p.query_radius_m) / (p.sleep_s + p.freshness_s)
}

// --- N-user extensions of the Eq. 17–18 contention closed forms -----------
//
// The paper derives the interference quantities for a single mobile user.
// With `n` independent users whose pickup points land in the same
// neighbourhood (the worst case the tree cache is built for), a naive
// one-tree-per-user deployment multiplies both the spatial span and the
// temporal overlap by `n`; a shared deployment collapses every user in a
// lattice cell onto one tree, so its interference stays at the single-user
// value whatever `n` is.

/// `n`-user extension of Equation 17: with `n` users sweeping pickup points
/// through the same neighbourhood, `Ms(n) = n · Ms`.
pub fn interference_span_trees_n(p: &AnalysisParams, n: u64) -> u64 {
    n * interference_span_trees(p)
}

/// `n`-user extension of Equation 18 for greedy prefetching:
/// `Mt−gp(n) ≤ n · Mt−gp` (each user's setups overlap independently).
pub fn overlapping_setups_greedy_n(p: &AnalysisParams, n: u64) -> u64 {
    n * overlapping_setups_greedy(p)
}

/// `n`-user extension of the just-in-time temporal overlap:
/// `Mt−jit(n) = n · Mt−jit`.
pub fn overlapping_setups_jit_n(p: &AnalysisParams, n: u64) -> u64 {
    n * overlapping_setups_jit(p)
}

/// `n`-user interference length for greedy prefetching without tree sharing:
/// `Mgp(n) = min(Mt−gp(n), Ms(n))`.
pub fn interference_length_greedy_n(p: &AnalysisParams, n: u64) -> u64 {
    overlapping_setups_greedy_n(p, n).min(interference_span_trees_n(p, n))
}

/// `n`-user interference length for just-in-time prefetching without tree
/// sharing: `Mjit(n) = min(Mt−jit(n), Ms(n))`.
pub fn interference_length_jit_n(p: &AnalysisParams, n: u64) -> u64 {
    overlapping_setups_jit_n(p, n).min(interference_span_trees_n(p, n))
}

/// Interference length for `n` just-in-time users multiplexed through the
/// shared tree cache: co-located users join one tree instead of building `n`,
/// so the interference stays at the single-user `Mjit` independent of `n`.
pub fn shared_interference_length_jit(p: &AnalysisParams) -> u64 {
    interference_length_jit(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vprfh_matches_the_papers_469_mph() {
        let mph = paper_prefetch_speed_mph();
        assert!(
            (mph - 466.0).abs() < 10.0,
            "expected roughly 469 mph as in the paper, got {mph:.1}"
        );
    }

    #[test]
    fn storage_example_matches_4_vs_58_trees() {
        let p = AnalysisParams::storage_example();
        // Eq. 12: ceil((15 + 10)/10) + 1 = 4.
        assert_eq!(prefetch_length_jit(&p), 4);
        // Eq. 11: 60 - floor(60 * 4/208.6) = 60 - 1 = 59; the paper quotes 58
        // (it floors the speed ratio slightly differently). Accept 58..=59.
        let gp = prefetch_length_greedy(&p);
        assert!(
            (58..=59).contains(&gp),
            "expected about 58 trees for greedy prefetching, got {gp}"
        );
        // The headline claim: greedy stores an order of magnitude more state.
        assert!(gp as f64 / prefetch_length_jit(&p) as f64 > 10.0);
    }

    #[test]
    fn storage_crossover_is_small_for_realistic_speeds() {
        let p = AnalysisParams::storage_example();
        let td = storage_crossover_lifetime_s(&p);
        // (15 + 10 + 10) / (1 - 4/208.6) ≈ 35.7 s — any realistic query
        // lifetime exceeds it.
        assert!(td > 30.0 && td < 40.0, "crossover {td}");
        assert!(p.lifetime_s > td);
    }

    #[test]
    fn contention_example_matches_4_vs_35_trees_and_131_mph() {
        let p = AnalysisParams::contention_example();
        // v* = (2*50 + 4*150)/(9+3) = 58.33 m/s ≈ 130.5 mph.
        let v_star = contention_speed_threshold_mps(&p);
        assert!(
            (mps_to_mph(v_star) - 131.0).abs() < 2.0,
            "v* = {} mph",
            mps_to_mph(v_star)
        );
        // Mjit = ceil((9+3)/5) = 3 … the paper rounds its prose to "about 4".
        let jit = interference_length_jit(&p);
        assert!((3..=4).contains(&jit), "Mjit = {jit}");
        // Ms = ceil((600+100)/20) = 35 = Mgp (Mt-gp is enormous).
        assert_eq!(interference_span_trees(&p), 35);
        assert_eq!(interference_length_greedy(&p), 35);
        assert!(interference_length_greedy(&p) > interference_length_jit(&p));
    }

    #[test]
    fn greedy_overlap_grows_with_prefetch_speed() {
        let mut p = AnalysisParams::contention_example();
        let slow = overlapping_setups_greedy(&p);
        p.prefetch_speed_mps *= 10.0;
        let fast = overlapping_setups_greedy(&p);
        assert!(fast > slow);
        // JIT overlap does not depend on the prefetch speed.
        assert_eq!(
            overlapping_setups_jit(&p),
            overlapping_setups_jit(&AnalysisParams::contention_example())
        );
    }

    #[test]
    fn warmup_interval_shrinks_with_advance_time_and_vanishes() {
        let p = AnalysisParams {
            period_s: 2.0,
            freshness_s: 1.0,
            sleep_s: 9.0,
            lifetime_s: 500.0,
            user_speed_mps: 4.0,
            prefetch_speed_mps: 200.0,
            query_radius_m: 150.0,
            comm_range_m: 105.0,
        };
        let w_late = warmup_interval_s(&p, -8.0);
        let w_zero = warmup_interval_s(&p, 0.0);
        let w_early = warmup_interval_s(&p, 6.0);
        assert!(w_late > w_zero && w_zero > w_early);
        // Approximation: Tw ≈ Tsleep + 2 Tfresh − Ta = 11 − Ta.
        assert!((warmup_interval_approx_s(&p, 0.0) - 11.0).abs() < 1e-9);
        assert!((w_zero - 11.0).abs() <= p.period_s + 1e-9);
        // Early enough profiles eliminate the warm-up (threshold ≈ 11.2 s).
        let threshold = zero_warmup_advance_s(&p);
        assert!((threshold - 11.0 / (1.0 - 4.0 / 200.0)).abs() < 1e-9);
        assert_eq!(warmup_interval_s(&p, threshold + 0.5), 0.0);
        // Ta = 12 s puts the bound's ceiling in (−1, 0): it must still print
        // as 0.0, never −0.0, in the warm-up table.
        assert!(warmup_interval_s(&p, 12.0).is_sign_positive());
    }

    #[test]
    fn warmup_approx_close_to_exact_for_fast_prefetch() {
        let p = AnalysisParams {
            prefetch_speed_mps: 10_000.0,
            ..AnalysisParams::contention_example()
        };
        for ta in [-10.0, -3.0, 0.0, 5.0, 12.0] {
            let exact = warmup_interval_s(&p, ta);
            let approx = warmup_interval_approx_s(&p, ta);
            assert!(
                (exact - approx).abs() <= p.period_s + 1e-6,
                "Ta={ta}: exact {exact} vs approx {approx}"
            );
        }
    }

    #[test]
    fn prefetch_speed_handles_degenerate_inputs() {
        assert!(prefetch_speed_mps(100.0, 0, 60, 5_000.0).is_infinite());
        assert!(prefetch_speed_mps(100.0, 5, 60, 5_000.0) > 0.0);
    }

    #[test]
    fn interference_length_never_exceeds_the_spatial_span() {
        let p = AnalysisParams::contention_example();
        assert!(interference_length_greedy(&p) <= interference_span_trees(&p));
        assert!(interference_length_jit(&p) <= interference_span_trees(&p));
    }

    #[test]
    fn n_user_forms_collapse_to_the_single_user_values_at_n_1() {
        let p = AnalysisParams::contention_example();
        assert_eq!(
            interference_span_trees_n(&p, 1),
            interference_span_trees(&p)
        );
        assert_eq!(
            overlapping_setups_greedy_n(&p, 1),
            overlapping_setups_greedy(&p)
        );
        assert_eq!(overlapping_setups_jit_n(&p, 1), overlapping_setups_jit(&p));
        assert_eq!(
            interference_length_greedy_n(&p, 1),
            interference_length_greedy(&p)
        );
        assert_eq!(
            interference_length_jit_n(&p, 1),
            interference_length_jit(&p)
        );
        assert_eq!(
            shared_interference_length_jit(&p),
            interference_length_jit(&p)
        );
    }

    #[test]
    fn naive_n_user_interference_grows_monotonically() {
        let p = AnalysisParams::contention_example();
        let mut prev_jit = 0;
        let mut prev_greedy = 0;
        for n in 1..=128 {
            let jit = interference_length_jit_n(&p, n);
            let greedy = interference_length_greedy_n(&p, n);
            assert!(jit > prev_jit, "jit interference must grow with n");
            assert!(greedy >= prev_greedy);
            assert!(jit <= interference_span_trees_n(&p, n));
            prev_jit = jit;
            prev_greedy = greedy;
        }
    }

    #[test]
    fn shared_trees_beat_the_naive_n_user_closed_form_for_n_above_1() {
        let p = AnalysisParams::contention_example();
        let shared = shared_interference_length_jit(&p);
        for n in [2, 10, 100, 250] {
            assert!(
                shared < interference_length_jit_n(&p, n),
                "sharing must cut interference at n={n}"
            );
        }
        // And the paper's single-user numbers still anchor the scale:
        // Mjit = 3, Ms = 35 in the contention example.
        assert_eq!(interference_length_jit_n(&p, 10), 30);
        assert_eq!(interference_length_jit_n(&p, 100), 300);
    }
}
