//! Plain-text tables and JSON export for experiment reports.
//!
//! Every experiment harness produces one or more [`Table`]s whose rows
//! mirror the series of the corresponding paper figure, plus a
//! machine-readable JSON blob for regression diffing.

use serde::Serialize;
use std::fmt;

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Cell accessor (row, column).
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row).and_then(|r| r.get(col)).map(String::as_str)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}", w = w)?;
                first = false;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with 3 decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal for table cells.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats bytes as megabytes with 2 decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Serializes any report to pretty JSON.
///
/// # Panics
///
/// Panics if the value cannot be serialized (never happens for the report
/// types in this crate).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("report serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["budget", "ratio"]);
        t.push_row(vec!["1".into(), "0.5".into()]);
        t.push_row(vec!["100".into(), "1.0".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("budget"));
        // Right-aligned: the "1" lines up under the "t" of budget.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[3].ends_with("0.5"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn accessors() {
        let mut t = Table::new("demo", &["a"]);
        t.push_row(vec!["x".into()]);
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.cell(0, 0), Some("x"));
        assert_eq!(t.cell(1, 0), None);
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.12349), "0.123");
        assert_eq!(f1(12.34), "12.3");
        assert_eq!(mb(2_500_000), "2.50");
    }

    #[test]
    fn json_round_trips() {
        #[derive(serde::Serialize)]
        struct S {
            x: u32,
        }
        let s = to_json(&S { x: 7 });
        assert!(s.contains("\"x\": 7"));
    }
}
