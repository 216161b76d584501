//! # chiplet-bench
//!
//! The benchmark harness of the reproduction. Its targets:
//!
//! * **`chiplet-scenario`** — runs every table and figure of the paper's
//!   evaluation by name (`chiplet-scenario run table1|fig3|…`), printing
//!   the same rows/series the paper reports, plus the ablations
//!   (traffic-manager policies, monolithic baseline), the extension
//!   studies, parameter sweeps and design-space searches, and inspects
//!   any event-engine spec's hop-level spans (`trace`, `critpath`,
//!   `blame`) and telemetry dumps (`top`, `lint-metrics`);
//! * **`chiplet-serve`** — the scenario-serving daemon;
//! * **Criterion benches** (`cargo bench`) — micro-benchmarks of the
//!   simulator itself (engine event throughput, NoC cycle rate, sketch
//!   update rate, fluid solver).
//!
//! This library hosts the shared table-formatting helpers plus the
//! [`scenarios`] module: the paper's experiments as entries of a
//! [`ScenarioRegistry`](chiplet_net::scenario::ScenarioRegistry) (see
//! [`scenarios::paper_registry`]), with the one resolver
//! ([`scenarios::resolve`]) that the CLIs and the daemon look their
//! targets up through — and the [`serve`] module, the persistent
//! scenario-serving daemon behind the `chiplet-serve` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;
pub mod serve;

use std::fmt::Write as _;

/// A plain-text aligned table, printed in the paper's row/column style.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row; must match the header's column count.
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table.
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
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(c);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table with every line prefixed by `indent`.
    pub fn render_indented(&self, indent: &str) -> String {
        self.render()
            .lines()
            .map(|l| format!("{indent}{l}\n"))
            .collect()
    }
}

/// Formats a float with one decimal, or "N/A" for non-finite values.
pub fn f1(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.1}")
    } else {
        "N/A".to_string()
    }
}

/// Formats a "read/write" pair in the paper's Table 3 style.
pub fn rw(read: f64, write: f64) -> String {
    format!("{}/{}", f1(read), f1(write))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["short", "1.0"]);
        t.row(vec!["a-much-longer-name", "22.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        // Both value columns start at the same offset.
        let off = lines[2].find("1.0").unwrap();
        let off2 = lines[3].find("22.5").unwrap();
        assert_eq!(off, off2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f1(14.94), "14.9");
        assert_eq!(f1(f64::NAN), "N/A");
        assert_eq!(rw(14.9, 3.6), "14.9/3.6");
    }
}
