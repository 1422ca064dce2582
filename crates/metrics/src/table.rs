//! Minimal aligned ASCII tables for figure harness output.

use std::fmt::Write as _;

/// A right-padded, column-aligned ASCII table.
///
/// The figure harnesses print the same rows/series the paper reports; this
/// keeps them readable without pulling in a formatting dependency.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "table needs at least one column");
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:<width$}", width = widths[i]);
            }
            // Trim trailing padding on the last column.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Formats a float with a fixed number of decimals — tiny convenience used
/// all over the harnesses.
pub fn fmt_f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["alg", "throughput", "rt"]);
        t.row(["NoShare", "0.105", "1.00"]);
        t.row(["LifeRaft(0)", "0.231", "0.47"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("alg"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "throughput" starts at the same offset in all rows.
        let off = lines[0].find("throughput").unwrap();
        assert_eq!(&lines[2][off..off + 5], "0.105");
        assert_eq!(&lines[3][off..off + 5], "0.231");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn fmt_f_formats() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(0.5, 3), "0.500");
    }
}
