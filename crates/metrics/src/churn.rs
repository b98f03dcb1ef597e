//! Per-batch records of node churn and incremental backbone repair.
//!
//! The churn-mode simulation applies one batch of deaths and joins at each
//! period boundary and repairs the backbone incrementally instead of
//! re-electing from scratch. One [`ChurnBatch`] captures what each batch did
//! and what the repair touched; a run's totals are sums over its batches.
//! The deterministic fields (everything except the wall-clock timings) are
//! what the churn golden pins byte-for-byte.

/// What one churn batch did and what its incremental repair cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnBatch {
    /// Period boundary the batch fired at.
    pub boundary: u64,
    /// Nodes killed in the batch.
    pub deaths: usize,
    /// Nodes joined in the batch.
    pub joins: usize,
    /// Alive nodes seeded into the repair worklist (disks touching a dirty
    /// cell).
    pub candidates: usize,
    /// Total repair evaluations (candidates plus flip-propagated re-checks).
    pub evaluated: usize,
    /// Nodes the repair promoted to the backbone.
    pub promoted: usize,
    /// Nodes the repair demoted to duty cycling.
    pub demoted: usize,
    /// Lattice cells whose coverage the batch changed.
    pub dirty_cells: usize,
    /// Wall-clock spent applying the batch (grid and plan updates), in
    /// milliseconds. A timing observation, not simulation state.
    pub apply_ms: f64,
    /// Wall-clock spent in the incremental repair, in milliseconds.
    pub repair_ms: f64,
    /// Whether this batch's repaired backbone was verified bit-identical to
    /// a full re-election (`None` when verification was off).
    pub verified: Option<bool>,
}
