//! Labelled (x, y) series produced by parameter sweeps.

use std::fmt;

/// A labelled sequence of `(x, y)` points, e.g. "Bias 0.25" in Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The y values only.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, y)| y).collect()
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.label)?;
        for &(x, y) in &self.points {
            writeln!(f, "{x:.6}\t{y:.6}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = Series::new("Bias 0.25");
        s.push(0.1, 0.15);
        s.push(0.5, 0.32);
        assert_eq!(s.label(), "Bias 0.25");
        assert_eq!(s.points().len(), 2);
        assert_eq!(s.ys(), vec![0.15, 0.32]);
    }

    #[test]
    fn display_is_gnuplot_friendly() {
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        let out = s.to_string();
        assert!(out.starts_with("# x\n"));
        assert!(out.contains("1.000000\t2.000000"));
    }
}
