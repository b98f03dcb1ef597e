//! Per-query outcome records and their aggregation.

use wsn_sim::stats::Summary;
use wsn_sim::SimTime;

/// The outcome of one periodic query (one pickup point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Sequence number `k` of the query (1-based, as in the paper's
    /// "k-th result is due at k·Tperiod").
    pub seq: u64,
    /// The deadline `k · Tperiod`.
    pub deadline: SimTime,
    /// When the aggregated result reached the user, if it did.
    pub delivered_at: Option<SimTime>,
    /// Number of nodes whose readings were aggregated into the result.
    pub contributing_nodes: usize,
    /// Total number of nodes inside the query area at the pickup point.
    pub nodes_in_area: usize,
}

impl QueryRecord {
    /// A query that produced no result at all.
    pub fn missed(seq: u64, deadline: SimTime, nodes_in_area: usize) -> Self {
        QueryRecord {
            seq,
            deadline,
            delivered_at: None,
            contributing_nodes: 0,
            nodes_in_area,
        }
    }

    /// Data fidelity: contributing nodes over nodes in the area, in `[0, 1]`.
    ///
    /// An empty query area (no nodes) counts as fidelity 1: there was nothing
    /// to report and nothing was missed.
    pub fn fidelity(&self) -> f64 {
        if self.nodes_in_area == 0 {
            1.0
        } else {
            (self.contributing_nodes as f64 / self.nodes_in_area as f64).min(1.0)
        }
    }

    /// Returns `true` when a result was delivered by the deadline.
    pub fn met_deadline(&self) -> bool {
        matches!(self.delivered_at, Some(t) if t <= self.deadline)
    }

    /// Returns `true` when the query met its deadline **and** reached the
    /// given fidelity threshold — the paper's definition of a successful query.
    pub fn succeeded(&self, fidelity_threshold: f64) -> bool {
        self.met_deadline() && self.fidelity() >= fidelity_threshold
    }
}

/// The log of every query issued during one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryLog {
    records: Vec<QueryRecord>,
}

impl QueryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        QueryLog::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: QueryRecord) {
        self.records.push(record);
    }

    /// Reserves room for exactly `additional` more records. Engines that
    /// know a user's whole query window up front call this once at admission
    /// so the per-period `push` never reallocates in the steady state.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve_exact(additional);
    }

    /// Removes every record and yields them in insertion order. The buffer
    /// keeps its capacity for the records still to come.
    pub fn drain(&mut self) -> std::vec::Drain<'_, QueryRecord> {
        self.records.drain(..)
    }

    /// All records, in insertion order.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Number of queries logged.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no queries were logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of queries that succeeded at the given fidelity threshold
    /// (0 when the log is empty).
    pub fn success_ratio(&self, fidelity_threshold: f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let ok = self
            .records
            .iter()
            .filter(|r| r.succeeded(fidelity_threshold))
            .count();
        ok as f64 / self.records.len() as f64
    }

    /// Fraction of queries that met their deadline.
    pub fn deadline_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let ok = self.records.iter().filter(|r| r.met_deadline()).count();
        ok as f64 / self.records.len() as f64
    }

    /// Summary of per-query fidelity.
    pub fn fidelity_summary(&self) -> Summary {
        self.records.iter().map(|r| r.fidelity()).collect()
    }

    /// The per-query fidelity as a `(sequence number, fidelity)` series —
    /// the data behind Figure 5.
    pub fn fidelity_series(&self) -> Vec<(u64, f64)> {
        self.records.iter().map(|r| (r.seq, r.fidelity())).collect()
    }
}

impl FromIterator<QueryRecord> for QueryLog {
    fn from_iter<I: IntoIterator<Item = QueryRecord>>(iter: I) -> Self {
        QueryLog {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<QueryRecord> for QueryLog {
    fn extend<I: IntoIterator<Item = QueryRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_FIDELITY_THRESHOLD;
    use wsn_sim::Duration;

    fn record(
        seq: u64,
        delivered_offset_ms: Option<i64>,
        contributing: usize,
        total: usize,
    ) -> QueryRecord {
        let deadline = SimTime::from_secs(2 * seq);
        QueryRecord {
            seq,
            deadline,
            delivered_at: delivered_offset_ms.map(|off| {
                if off >= 0 {
                    deadline + Duration::from_millis(off as u64)
                } else {
                    deadline - Duration::from_millis((-off) as u64)
                }
            }),
            contributing_nodes: contributing,
            nodes_in_area: total,
        }
    }

    #[test]
    fn fidelity_is_ratio_of_contributors() {
        assert_eq!(record(1, Some(-10), 19, 20).fidelity(), 0.95);
        assert_eq!(record(1, Some(-10), 20, 20).fidelity(), 1.0);
        assert_eq!(record(1, None, 0, 20).fidelity(), 0.0);
    }

    #[test]
    fn empty_area_counts_as_full_fidelity() {
        assert_eq!(record(1, Some(-10), 0, 0).fidelity(), 1.0);
    }

    #[test]
    fn deadline_check_uses_delivery_time() {
        assert!(record(1, Some(0), 10, 10).met_deadline());
        assert!(record(1, Some(-500), 10, 10).met_deadline());
        assert!(!record(1, Some(1), 10, 10).met_deadline());
        assert!(!record(1, None, 10, 10).met_deadline());
    }

    #[test]
    fn success_requires_both_deadline_and_fidelity() {
        assert!(record(1, Some(-10), 19, 20).succeeded(PAPER_FIDELITY_THRESHOLD));
        assert!(!record(1, Some(-10), 18, 20).succeeded(PAPER_FIDELITY_THRESHOLD));
        assert!(!record(1, Some(10), 20, 20).succeeded(PAPER_FIDELITY_THRESHOLD));
    }

    #[test]
    fn log_aggregates() {
        let log: QueryLog = vec![
            record(1, Some(-10), 20, 20),
            record(2, Some(-10), 19, 20),
            record(3, Some(10), 20, 20),
            record(4, None, 0, 20),
        ]
        .into_iter()
        .collect();
        assert_eq!(log.len(), 4);
        assert_eq!(log.success_ratio(PAPER_FIDELITY_THRESHOLD), 0.5);
        assert_eq!(log.deadline_ratio(), 0.5);
        let fid = log.fidelity_summary();
        assert!((fid.mean() - (1.0 + 0.95 + 1.0 + 0.0) / 4.0).abs() < 1e-12);
        assert_eq!(log.fidelity_series().len(), 4);
    }

    #[test]
    fn empty_log_ratios_are_zero() {
        let log = QueryLog::new();
        assert!(log.is_empty());
        assert_eq!(log.success_ratio(0.95), 0.0);
        assert_eq!(log.deadline_ratio(), 0.0);
    }

    #[test]
    fn missed_constructor_is_a_failure() {
        let r = QueryRecord::missed(7, SimTime::from_secs(14), 25);
        assert_eq!(r.fidelity(), 0.0);
        assert!(!r.met_deadline());
        assert!(!r.succeeded(0.5));
    }
}
