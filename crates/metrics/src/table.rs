//! Plain-text table rendering for the experiment binaries.
//!
//! Every figure of the paper is reproduced as a textual table (one row per
//! plotted point or bar); this module keeps that rendering uniform.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple column-aligned text table with a title, a header row and data
/// rows. Also serialises to CSV.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Shorter rows are padded with empty cells; longer rows
    /// are truncated to the header width.
    pub fn add_row<S: ToString>(&mut self, cells: &[S]) {
        let mut row: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table as CSV (header + rows, no title).
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let render_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, cell)| format!("{:width$}", cell, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", render_row(&self.header))?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()))?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_header_and_rows() {
        let mut t = Table::new("Throughput", &["workers", "batches/sec"]);
        t.add_row(&["2", "10.5"]);
        t.add_row(&["4", "20.9"]);
        let s = t.to_string();
        assert!(s.contains("== Throughput =="));
        assert!(s.contains("workers"));
        assert!(s.contains("20.9"));
        assert_eq!(t.title(), "Throughput");
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(&[1, 2]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn rows_are_padded_and_truncated() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(&["only-one"]);
        t.add_row(&["1", "2", "3"]);
        assert_eq!(t.to_csv(), "a,b\nonly-one,\n1,2\n");
    }

    #[test]
    fn display_is_nonempty_for_empty_table() {
        let t = Table::new("empty", &["col"]);
        assert!(t.to_string().contains("empty"));
    }
}
