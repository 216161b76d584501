//! Intra-server traffic matrices.
//!
//! Implication #2: "developing an intra-server traffic matrix [51, 92] is
//! essential for maximizing the data transmission performance." The engine
//! records the ground-truth matrix (bytes per compute-chiplet → destination
//! pair); this module adds the estimation problem those citations study:
//! reconstructing the matrix from *link counters only* with a gravity
//! model, and quantifying the estimation error.

use serde::{Deserialize, Serialize};

use crate::telemetry::MatrixCell;

/// A dense CCD × destination traffic matrix (bytes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    rows: u32,
    cols: u32,
    bytes: Vec<u64>,
}

impl TrafficMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: u32, cols: u32) -> Self {
        TrafficMatrix {
            rows,
            cols,
            bytes: vec![0; rows as usize * cols as usize],
        }
    }

    /// Builds from telemetry cells.
    pub fn from_cells(rows: u32, cols: u32, cells: &[MatrixCell]) -> Self {
        let mut m = Self::zeros(rows, cols);
        for c in cells {
            m.add(c.ccd, c.dest, c.bytes);
        }
        m
    }

    /// Adds bytes to a cell.
    pub fn add(&mut self, row: u32, col: u32, bytes: u64) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of range"
        );
        self.bytes[row as usize * self.cols as usize + col as usize] += bytes;
    }

    /// Reads a cell.
    pub fn get(&self, row: u32, col: u32) -> u64 {
        self.bytes[row as usize * self.cols as usize + col as usize]
    }

    /// Per-source totals (what a per-CCD GMI byte counter sees).
    pub fn row_sums(&self) -> Vec<u64> {
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.get(r, c)).sum())
            .collect()
    }

    /// Per-destination totals (what a per-UMC byte counter sees).
    pub fn col_sums(&self) -> Vec<u64> {
        (0..self.cols)
            .map(|c| (0..self.rows).map(|r| self.get(r, c)).sum())
            .collect()
    }

    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Gravity-model estimate from link counters alone:
    /// `T̂[i][j] = row_i × col_j / total`. This is exact for product-form
    /// traffic (every source spreads over destinations in the same
    /// proportions) and an approximation otherwise — the tomography
    /// baseline of Medina et al. and Vardi.
    ///
    /// Empty marginals never divide by zero: an all-zero counter set
    /// returns the zero matrix, and an idle CCD (zero row) or untouched
    /// destination (zero column) estimates 0 for every cell it touches —
    /// no NaN can reach the output.
    pub fn gravity_estimate(row_sums: &[u64], col_sums: &[u64]) -> TrafficMatrix {
        let rows = row_sums.len() as u32;
        let cols = col_sums.len() as u32;
        let total: u64 = row_sums.iter().sum();
        let mut m = Self::zeros(rows, cols);
        if total == 0 {
            return m;
        }
        for (i, &r) in row_sums.iter().enumerate() {
            for (j, &c) in col_sums.iter().enumerate() {
                let est = (r as f64 * c as f64 / total as f64).round() as u64;
                m.bytes[i * cols as usize + j] = est;
            }
        }
        m
    }

    /// Relative L1 estimation error against a ground truth: Σ|Δ| / Σtruth.
    pub fn relative_error(&self, truth: &TrafficMatrix) -> f64 {
        assert_eq!(self.rows, truth.rows);
        assert_eq!(self.cols, truth.cols);
        let denom = truth.total();
        if denom == 0 {
            return 0.0;
        }
        let num: u64 = self
            .bytes
            .iter()
            .zip(&truth.bytes)
            .map(|(&a, &b)| a.abs_diff(b))
            .sum();
        num as f64 / denom as f64
    }

    /// The hottest (source, destination) pair, if any traffic exists.
    pub fn hottest(&self) -> Option<(u32, u32, u64)> {
        self.bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .max_by_key(|(_, &b)| b)
            .map(|(i, &b)| {
                (
                    (i / self.cols as usize) as u32,
                    (i % self.cols as usize) as u32,
                    b,
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_are_consistent() {
        let mut m = TrafficMatrix::zeros(2, 3);
        m.add(0, 0, 10);
        m.add(0, 2, 20);
        m.add(1, 1, 30);
        assert_eq!(m.row_sums(), vec![30, 30]);
        assert_eq!(m.col_sums(), vec![10, 30, 20]);
        assert_eq!(m.total(), 60);
    }

    #[test]
    fn gravity_is_exact_for_product_form() {
        // Both sources spread 50/30/20 over destinations; gravity recovers
        // the matrix exactly.
        let mut truth = TrafficMatrix::zeros(2, 3);
        for (j, frac) in [(0u32, 50u64), (1, 30), (2, 20)] {
            truth.add(0, j, frac * 2);
            truth.add(1, j, frac);
        }
        let est = TrafficMatrix::gravity_estimate(&truth.row_sums(), &truth.col_sums());
        assert_eq!(est.relative_error(&truth), 0.0);
    }

    #[test]
    fn gravity_errs_on_skewed_traffic() {
        // Source 0 only talks to dest 0, source 1 only to dest 1: gravity
        // smears traffic across both.
        let mut truth = TrafficMatrix::zeros(2, 2);
        truth.add(0, 0, 100);
        truth.add(1, 1, 100);
        let est = TrafficMatrix::gravity_estimate(&truth.row_sums(), &truth.col_sums());
        let err = est.relative_error(&truth);
        assert!(
            err > 0.5,
            "gravity should err on anti-diagonal traffic: {err}"
        );
        // But marginals are preserved.
        assert_eq!(est.row_sums(), truth.row_sums());
        assert_eq!(est.col_sums(), truth.col_sums());
    }

    #[test]
    fn hottest_pair() {
        let mut m = TrafficMatrix::zeros(3, 3);
        m.add(2, 1, 5);
        m.add(1, 2, 50);
        assert_eq!(m.hottest(), Some((1, 2, 50)));
        assert_eq!(TrafficMatrix::zeros(2, 2).hottest(), None);
    }

    #[test]
    fn from_cells_round_trip() {
        let cells = vec![
            MatrixCell {
                ccd: 0,
                dest: 1,
                bytes: 640,
            },
            MatrixCell {
                ccd: 1,
                dest: 0,
                bytes: 128,
            },
        ];
        let m = TrafficMatrix::from_cells(2, 2, &cells);
        assert_eq!(m.get(0, 1), 640);
        assert_eq!(m.get(1, 0), 128);
        assert_eq!(m.get(0, 0), 0);
    }

    #[test]
    fn empty_gravity_is_zero() {
        let est = TrafficMatrix::gravity_estimate(&[0, 0], &[0, 0]);
        assert_eq!(est.total(), 0);
    }

    #[test]
    fn gravity_handles_an_idle_ccd() {
        // CCD 1 is idle (zero row) and UMC 2 untouched (zero column): its
        // estimates must be exactly zero — never NaN — and the active
        // marginals preserved.
        let mut truth = TrafficMatrix::zeros(3, 3);
        truth.add(0, 0, 600);
        truth.add(0, 1, 200);
        truth.add(2, 0, 300);
        truth.add(2, 1, 100);
        let est = TrafficMatrix::gravity_estimate(&truth.row_sums(), &truth.col_sums());
        for j in 0..3 {
            assert_eq!(est.get(1, j), 0, "idle CCD row must estimate zero");
        }
        for i in 0..3 {
            assert_eq!(est.get(i, 2), 0, "untouched UMC column must estimate zero");
        }
        assert_eq!(est.row_sums(), truth.row_sums());
        assert_eq!(est.col_sums(), truth.col_sums());
        assert_eq!(est.relative_error(&truth), 0.0, "product-form here");
    }
}
