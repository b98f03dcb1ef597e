//! Per-boundary records of injected faults and protocol recovery.
//!
//! The fault-mode simulation advances a seeded fault schedule at every
//! period boundary (bursty link loss, mid-period crashes, blackouts) and —
//! with recovery armed — retries lost installs and repairs poisoned trees.
//! One [`FaultBatch`] captures what each boundary injected and what the
//! recovery machinery did about it; [`ResilienceSummary`] aggregates a run.
//! Every field is deterministic in the scenario seed (there are no
//! wall-clock timings here), so whole logs are compared byte-for-byte
//! against `tests/golden/resilience_quick.json`.

use crate::query::QueryLog;

/// What one boundary's fault batch injected and what recovery did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultBatch {
    /// Period boundary the batch fired at.
    pub boundary: u64,
    /// Node slots whose Gilbert–Elliott channel sits in the bad state after
    /// this boundary's transition.
    pub link_bad: usize,
    /// Nodes crashed mid-period by this batch (they reboot at the next
    /// boundary).
    pub crashes: usize,
    /// Whether the configured region blackout covers this boundary.
    pub blackout: bool,
    /// Install transmissions attempted at this boundary (first attempts and
    /// retries).
    pub install_attempts: u64,
    /// Install retransmissions (attempts beyond each install's first).
    pub retries: u64,
    /// Installs abandoned after exhausting every attempt — the query misses
    /// its whole period.
    pub install_failures: u64,
    /// Poisoned shared trees rebuilt around crashed nodes (recovery on).
    pub trees_rebuilt: u64,
    /// Poisoned trees degraded to per-user naive trees because their root
    /// crashed (recovery on).
    pub naive_fallbacks: u64,
    /// Energy drained by install retransmissions at this boundary, in
    /// joules. A deterministic sum of fixed per-retry costs.
    pub retry_energy_j: f64,
}

/// Aggregate of a run's [`FaultBatch`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceSummary {
    /// Number of fault batches applied (one per boundary).
    pub batches: usize,
    /// Sum over boundaries of bad-channel node counts (node-periods spent
    /// in the bad state).
    pub link_bad_node_periods: usize,
    /// Total mid-period crashes across the run.
    pub crashes: usize,
    /// Boundaries covered by a blackout window.
    pub blackout_boundaries: usize,
    /// Total install transmissions.
    pub install_attempts: u64,
    /// Total install retransmissions.
    pub retries: u64,
    /// Total abandoned installs.
    pub install_failures: u64,
    /// Total poisoned-tree rebuilds.
    pub trees_rebuilt: u64,
    /// Total naive-tree fallbacks.
    pub naive_fallbacks: u64,
    /// Total retransmission energy, in joules.
    pub retry_energy_j: f64,
}

impl ResilienceSummary {
    /// Aggregates a run's batch records (all fields zero for an empty run).
    pub fn from_batches(batches: &[FaultBatch]) -> Self {
        ResilienceSummary {
            batches: batches.len(),
            link_bad_node_periods: batches.iter().map(|b| b.link_bad).sum(),
            crashes: batches.iter().map(|b| b.crashes).sum(),
            blackout_boundaries: batches.iter().filter(|b| b.blackout).count(),
            install_attempts: batches.iter().map(|b| b.install_attempts).sum(),
            retries: batches.iter().map(|b| b.retries).sum(),
            install_failures: batches.iter().map(|b| b.install_failures).sum(),
            trees_rebuilt: batches.iter().map(|b| b.trees_rebuilt).sum(),
            naive_fallbacks: batches.iter().map(|b| b.naive_fallbacks).sum(),
            retry_energy_j: batches.iter().map(|b| b.retry_energy_j).sum(),
        }
    }

    /// Retransmissions paid per delivered result — the overhead recovery
    /// charges for the success it buys (0 when nothing was delivered).
    pub fn retries_per_delivered(&self, delivered: usize) -> f64 {
        if delivered == 0 {
            0.0
        } else {
            self.retries as f64 / delivered as f64
        }
    }
}

/// How long the service takes to climb back after faults knock a user's
/// results out: the lengths of maximal streaks of undelivered periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryLatency {
    /// Number of outages (maximal missed-period streaks) across all users.
    pub outages: usize,
    /// Mean outage length in periods (0 when there were no outages).
    pub mean_periods: f64,
    /// Longest outage in periods.
    pub max_periods: u64,
}

/// Scans per-user period logs for maximal runs of records that missed their
/// deadline. Each run is one outage and its length is the recovery latency
/// in periods — how long until the next delivered result. A streak still
/// open at the end of a user's window counts with its observed length (the
/// user never saw the service recover).
pub fn recovery_latency(logs: &[QueryLog]) -> RecoveryLatency {
    let mut outages = 0usize;
    let mut total = 0u64;
    let mut max = 0u64;
    for log in logs {
        let mut streak = 0u64;
        for record in log.records() {
            if record.met_deadline() {
                if streak > 0 {
                    outages += 1;
                    total += streak;
                    max = max.max(streak);
                    streak = 0;
                }
            } else {
                streak += 1;
            }
        }
        if streak > 0 {
            outages += 1;
            total += streak;
            max = max.max(streak);
        }
    }
    RecoveryLatency {
        outages,
        mean_periods: if outages == 0 {
            0.0
        } else {
            total as f64 / outages as f64
        },
        max_periods: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryRecord;
    use wsn_sim::SimTime;

    fn batch(boundary: u64, crashes: usize, retries: u64) -> FaultBatch {
        FaultBatch {
            boundary,
            link_bad: 3,
            crashes,
            blackout: boundary == 2,
            install_attempts: 10 + retries,
            retries,
            install_failures: 1,
            trees_rebuilt: crashes as u64,
            naive_fallbacks: 0,
            retry_energy_j: retries as f64 * 0.002,
        }
    }

    #[test]
    fn summary_aggregates_batches() {
        let s = ResilienceSummary::from_batches(&[batch(1, 2, 4), batch(2, 3, 6)]);
        assert_eq!(s.batches, 2);
        assert_eq!(s.link_bad_node_periods, 6);
        assert_eq!(s.crashes, 5);
        assert_eq!(s.blackout_boundaries, 1);
        assert_eq!(s.install_attempts, 30);
        assert_eq!(s.retries, 10);
        assert_eq!(s.install_failures, 2);
        assert_eq!(s.trees_rebuilt, 5);
        assert!((s.retry_energy_j - 0.02).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = ResilienceSummary::from_batches(&[]);
        assert_eq!(s.batches, 0);
        assert_eq!(s.retries, 0);
        assert_eq!(s.retries_per_delivered(0), 0.0);
    }

    #[test]
    fn retries_per_delivered_divides() {
        let s = ResilienceSummary::from_batches(&[batch(1, 0, 6)]);
        assert!((s.retries_per_delivered(3) - 2.0).abs() < 1e-12);
    }

    fn record(seq: u64, delivered: bool) -> QueryRecord {
        let deadline = SimTime::from_secs(2 * seq);
        QueryRecord {
            seq,
            deadline,
            delivered_at: delivered.then_some(deadline),
            contributing_nodes: if delivered { 5 } else { 0 },
            nodes_in_area: 5,
        }
    }

    #[test]
    fn latency_finds_maximal_missed_streaks() {
        // User 0: hit, miss, miss, hit, miss  → outages of 2 and 1 (open).
        let a: QueryLog = [true, false, false, true, false]
            .iter()
            .enumerate()
            .map(|(i, &d)| record(i as u64 + 1, d))
            .collect();
        // User 1: all delivered → no outage.
        let b: QueryLog = (1..4).map(|s| record(s, true)).collect();
        let lat = recovery_latency(&[a, b]);
        assert_eq!(lat.outages, 2);
        assert_eq!(lat.max_periods, 2);
        assert!((lat.mean_periods - 1.5).abs() < 1e-12);
    }

    #[test]
    fn latency_of_clean_logs_is_zero() {
        let clean: QueryLog = (1..5).map(|s| record(s, true)).collect();
        let lat = recovery_latency(&[clean, QueryLog::new()]);
        assert_eq!(lat.outages, 0);
        assert_eq!(lat.mean_periods, 0.0);
        assert_eq!(lat.max_periods, 0);
    }
}
