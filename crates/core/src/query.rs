//! The spatiotemporal query specification.
//!
//! Section 3 of the paper: a query is the tuple
//! `(α, F, A(Pu(t)), Tperiod, Tfresh, Td)` where `α` is the sensor data type,
//! `F` the in-network aggregation function, `A(Pu(t))` the query area around
//! the user's current position (a circle of radius `Rq` here), `Tperiod` the
//! result period, `Tfresh` the data-freshness bound and `Td` the query
//! lifetime.

use crate::error::ConfigError;
use std::fmt;
use wsn_sim::{Duration, SimTime};

/// The in-network aggregation function `F` applied to sensor readings.
/// Neither engine aggregates readings (they score how many reach the
/// collector in time), so no reported metric depends on `F`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateKind {
    /// Report the minimum reading in the area.
    Min,
    /// Report the maximum reading in the area (e.g. peak temperature near a fire).
    Max,
    /// Report the average reading.
    Average,
    /// Report the number of contributing sensors.
    Count,
}

impl fmt::Display for AggregateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggregateKind::Min => "min",
            AggregateKind::Max => "max",
            AggregateKind::Average => "avg",
            AggregateKind::Count => "count",
        };
        f.write_str(s)
    }
}

/// Message sizes used for MAC timing, in application-payload bytes.
///
/// The prefetch size (60 bytes) is the figure the paper uses in its `vprfh`
/// estimate; the others are comparable small control/data frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    /// Prefetch message (query spec + motion profile).
    pub prefetch_bytes: usize,
    /// Query-tree setup message.
    pub setup_bytes: usize,
    /// A data report / partial aggregate.
    pub data_bytes: usize,
    /// The query issued by the proxy into the network.
    pub query_bytes: usize,
}

impl Default for MessageSizes {
    fn default() -> Self {
        MessageSizes {
            prefetch_bytes: 60,
            setup_bytes: 40,
            data_bytes: 36,
            query_bytes: 60,
        }
    }
}

/// A spatiotemporal query issued by a mobile user.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The sensed quantity being queried (`α`), e.g. `"temperature"`.
    pub data_type: String,
    /// The in-network aggregation function (`F`); no engine reads it.
    pub aggregate: AggregateKind,
    /// Radius `Rq` of the circular query area around the user, in metres.
    pub radius_m: f64,
    /// Result period `Tperiod`.
    pub period: Duration,
    /// Data freshness bound `Tfresh`.
    pub freshness: Duration,
    /// Query lifetime `Td`.
    pub lifetime: Duration,
}

impl QuerySpec {
    /// The evaluation query of Section 6.1: a 150 m radius area, a result
    /// every 2 s aggregated from readings at most 1 s old, for 400 s.
    pub fn paper_default() -> Self {
        QuerySpec {
            data_type: "temperature".to_string(),
            aggregate: AggregateKind::Max,
            radius_m: 150.0,
            period: Duration::from_secs(2),
            freshness: Duration::from_secs(1),
            lifetime: Duration::from_secs(400),
        }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any duration is zero, the freshness
    /// bound exceeds the period (the paper requires `Tcollect ≤ Tfresh ≤`
    /// usable slack inside a period), or the radius is not positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.radius_m.is_finite() && self.radius_m > 0.0) {
            return Err(ConfigError::new("query radius Rq must be positive"));
        }
        if self.period.is_zero() {
            return Err(ConfigError::new("query period Tperiod must be positive"));
        }
        if self.freshness.is_zero() {
            return Err(ConfigError::new("freshness bound Tfresh must be positive"));
        }
        if self.freshness > self.period {
            return Err(ConfigError::new(
                "freshness bound Tfresh must not exceed the query period Tperiod",
            ));
        }
        if self.lifetime < self.period {
            return Err(ConfigError::new(
                "query lifetime Td must cover at least one period",
            ));
        }
        Ok(())
    }

    /// Number of query results expected over the query lifetime.
    pub fn result_count(&self) -> u64 {
        self.lifetime.as_micros() / self.period.as_micros()
    }

    /// The deadline of the k-th result (1-based): `k · Tperiod`.
    pub fn deadline(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.period * k
    }

    /// The earliest instant a reading for the k-th result may be taken
    /// without violating freshness: `k · Tperiod − Tfresh`.
    pub fn earliest_reading(&self, k: u64) -> SimTime {
        self.deadline(k) - self.freshness
    }
}

impl Default for QuerySpec {
    fn default() -> Self {
        QuerySpec::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let q = QuerySpec::paper_default();
        assert!(q.validate().is_ok());
        assert_eq!(q.result_count(), 200);
        assert_eq!(q.deadline(3), SimTime::from_secs(6));
        assert_eq!(q.earliest_reading(3), SimTime::from_secs(5));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut q = QuerySpec::paper_default();
        q.radius_m = 0.0;
        assert!(q.validate().is_err());

        let mut q = QuerySpec::paper_default();
        q.freshness = Duration::from_secs(5);
        assert!(
            q.validate().is_err(),
            "freshness beyond the period must be rejected"
        );

        let mut q = QuerySpec::paper_default();
        q.period = Duration::ZERO;
        assert!(q.validate().is_err());

        let mut q = QuerySpec::paper_default();
        q.lifetime = Duration::from_millis(500);
        assert!(q.validate().is_err());
    }

    #[test]
    fn message_sizes_default_matches_paper_prefetch_example() {
        assert_eq!(MessageSizes::default().prefetch_bytes, 60);
    }

    #[test]
    fn display_of_aggregate_kinds() {
        for k in [
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Average,
            AggregateKind::Count,
        ] {
            assert!(!format!("{k}").is_empty());
        }
    }
}
