//! # wsn-metrics
//!
//! Metrics collection and reporting for the MobiQuery reproduction.
//!
//! The paper evaluates three metrics (Section 6):
//!
//! 1. **Data fidelity** — the fraction of nodes in a query area that
//!    contribute to the query result.
//! 2. **Success ratio** — the fraction of queries that meet their deadline
//!    *and* reach a fidelity threshold (95 % in the paper).
//! 3. **Power consumption** — average power per sleeping node (computed by
//!    `wsn_power::EnergyLedger` in the power crate; this
//!    crate only aggregates the resulting numbers).
//!
//! [`QueryRecord`]/[`QueryLog`] capture per-query outcomes, [`Series`] holds
//! the per-period time series of Figure 5, and [`Table`] renders the aligned
//! text tables the experiment harness prints for every figure. The
//! [`json`] module is the deterministic JSON emitter behind
//! `repro --format json` and the committed bench trajectory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod json;
pub mod latency;
pub mod multiuser;
pub mod query;
pub mod resilience;
pub mod series;
pub mod table;

pub use churn::ChurnBatch;
pub use json::JsonValue;
pub use latency::{percentile_sorted, LatencyStats};
pub use multiuser::{summarize_users, UserSummary};
pub use query::{QueryLog, QueryRecord};
pub use resilience::{recovery_latency, FaultBatch, RecoveryLatency, ResilienceSummary};
pub use series::Series;
pub use table::Table;
pub use wsn_sim::stats::Summary;

/// The fidelity threshold used for the paper's success-ratio metric (95 %).
pub const PAPER_FIDELITY_THRESHOLD: f64 = 0.95;
