//! The results of one simulation run.

use crate::config::Scheme;
use crate::sim::SimEvent;
use wsn_metrics::QueryLog;

/// Aggregated results of a single MobiQuery simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutput {
    /// The prefetching scheme that was run.
    pub scheme: Scheme,
    /// Per-query outcomes (one record per pickup point).
    pub query_log: QueryLog,
    /// Fraction of queries that met the deadline with fidelity above the
    /// scenario's threshold (the paper's success ratio).
    pub success_ratio: f64,
    /// Mean per-query data fidelity.
    pub mean_fidelity: f64,
    /// Average power per duty-cycled (sleeping) node over the run, in watts —
    /// the Figure 8 metric.
    pub mean_sleeping_power_w: f64,
    /// Average power per duty-cycled node if no query had been issued (CCP
    /// alone), in watts — Figure 8's baseline curve.
    pub baseline_sleeping_power_w: f64,
    /// Number of backbone (always-active) nodes elected by CCP.
    pub backbone_count: usize,
    /// Total number of nodes in the deployment.
    pub node_count: usize,
    /// Frames offered to the channel over the whole run.
    pub frames_sent: u64,
    /// Frames lost to contention.
    pub frames_lost: u64,
    /// Number of query trees actually built (prefetch messages accepted).
    pub trees_built: u64,
    /// Largest number of query trees set up ahead of the user at any instant
    /// (the prefetch length of Section 5.2).
    pub max_prefetch_length: usize,
    /// Mean number of query trees set up ahead of the user, sampled at each
    /// query deadline.
    pub mean_prefetch_length: f64,
    /// Total number of simulation events processed.
    pub events_processed: u64,
    /// Events processed per kind, indexed like [`SimEvent::KINDS`]; sums to
    /// `events_processed`.
    pub events_by_kind: [u64; SimEvent::KINDS.len()],
    /// The most events pending in the engine's queue at once.
    pub peak_pending: usize,
    /// Pops the calendar queue served from its overflow heap, i.e. events
    /// scheduled further ahead than the wheel's horizon at the time.
    pub overflow_pops: u64,
}

impl SimulationOutput {
    /// The observed channel loss rate over the whole run.
    pub fn loss_rate(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.frames_lost as f64 / self.frames_sent as f64
        }
    }

    /// The per-query fidelity series (sequence number, fidelity) — the data
    /// behind Figure 5.
    pub fn fidelity_series(&self) -> Vec<(u64, f64)> {
        self.query_log.fidelity_series()
    }

    /// The extra power drawn per sleeping node because of the query service,
    /// compared with running CCP alone, in watts.
    pub fn query_power_overhead_w(&self) -> f64 {
        (self.mean_sleeping_power_w - self.baseline_sleeping_power_w).max(0.0)
    }
}
