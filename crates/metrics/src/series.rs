//! Labelled numeric series, the data behind the paper's line plots.

use std::fmt;

/// A named series of `(x, y)` points, e.g. "MQ-JIT data fidelity per period".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders the series as a JSON object `{name, points}` where `points` is
    /// an array of `[x, y]` pairs.
    pub fn to_json(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue;
        let points: Vec<JsonValue> = self
            .points
            .iter()
            .map(|&(x, y)| JsonValue::Array(vec![x.into(), y.into()]))
            .collect();
        JsonValue::object()
            .with("name", self.name.as_str())
            .with("points", points)
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {} ({} points)", self.name, self.points.len())?;
        for &(x, y) in &self.points {
            writeln!(f, "{x:>10.3} {y:>10.4}")?;
        }
        Ok(())
    }
}

impl FromIterator<(f64, f64)> for Series {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        Series {
            name: String::from("series"),
            points: iter.into_iter().collect(),
        }
    }
}

impl Extend<(f64, f64)> for Series {
    fn extend<I: IntoIterator<Item = (f64, f64)>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = Series::new("fidelity");
        s.push(1.0, 0.9);
        s.push(2.0, 1.0);
        assert_eq!(s.name(), "fidelity");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn json_names_the_series_and_lists_its_points() {
        let mut s = Series::new("mq-jit");
        s.push(1.0, 0.5);
        assert_eq!(
            s.to_json().to_string(),
            r#"{"name":"mq-jit","points":[[1,0.5]]}"#
        );
    }

    #[test]
    fn display_is_nonempty_even_when_empty() {
        let s = Series::new("empty");
        assert!(s.is_empty());
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn collect_and_extend() {
        let mut s: Series = vec![(1.0, 2.0)].into_iter().collect();
        s.extend(vec![(3.0, 4.0)]);
        assert_eq!(s.points(), &[(1.0, 2.0), (3.0, 4.0)]);
    }
}
