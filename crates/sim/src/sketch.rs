//! The workspace's one quantile sketch.
//!
//! §4 #5 asks for "time-series-based probabilistic and compact data
//! structures (like Sketches)" to distill latency telemetry. Every
//! histogram of the metrics registry, the §4 sketch profiler and the
//! critical-path dwell quantiles use [`QuantileSketch`], all at the one
//! relative accuracy α = 1%, so any two sketches merge exactly.

use std::collections::HashMap;

/// Relative accuracy α of every [`QuantileSketch`]: 1% bins.
const ALPHA: f64 = 0.01;

/// A DDSketch-style quantile sketch with relative-error guarantee.
///
/// Values are bucketed by `⌈log_γ(v)⌉` with `γ = (1+α)/(1−α)`; any quantile
/// query returns a value within relative error `α` of an exact order
/// statistic. Mergeable and O(log range) buckets — the
/// "time-series-based probabilistic and compact" latency structure §4 #5
/// calls for.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    gamma_ln: f64,
    buckets: HashMap<i32, u64>,
    zero_count: u64,
    total: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch with relative accuracy α = 1%.
    pub fn new() -> Self {
        let gamma = (1.0 + ALPHA) / (1.0 - ALPHA);
        QuantileSketch {
            gamma_ln: gamma.ln(),
            buckets: HashMap::new(),
            zero_count: 0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn key_of(&self, v: f64) -> i32 {
        (v.ln() / self.gamma_ln).ceil() as i32
    }

    fn value_of(&self, key: i32) -> f64 {
        // Bucket midpoint in log space: γ^key × 2/(γ+1) ≈ γ^(key−1/2).
        let gamma = self.gamma_ln.exp();
        gamma.powi(key) * 2.0 / (1.0 + gamma)
    }

    /// Adds a sample (non-negative; negatives are clamped to zero).
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= f64::MIN_POSITIVE {
            self.zero_count += 1;
        } else {
            *self.buckets.entry(self.key_of(v)).or_insert(0) += 1;
        }
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile, or `None` when empty. Within relative error α of
    /// an exact order statistic.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank <= self.zero_count {
            return Some(0.0);
        }
        let mut keys: Vec<i32> = self.buckets.keys().copied().collect();
        keys.sort_unstable();
        let mut seen = self.zero_count;
        for k in keys {
            seen += self.buckets[&k];
            if seen >= rank {
                return Some(self.value_of(k).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another sketch: exact bucket-count addition.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
        self.zero_count += other.zero_count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket memory in bytes (excluding map overhead constants).
    pub fn memory_bytes(&self) -> usize {
        self.buckets.len() * (std::mem::size_of::<i32>() + std::mem::size_of::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_sketch_relative_error() {
        let mut s = QuantileSketch::new();
        let mut values: Vec<f64> = (1..=10_000).map(|i| (i as f64) * 0.7 + 3.0).collect();
        for &v in &values {
            s.record(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1];
            let got = s.quantile(q).unwrap();
            let rel = (got - exact).abs() / exact;
            assert!(rel <= 0.011, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
    }

    #[test]
    fn quantile_sketch_merge_equals_union() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut whole = QuantileSketch::new();
        for i in 0..5000 {
            let v = 10.0 + (i as f64 % 977.0);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [0.1, 0.5, 0.95] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn quantile_sketch_handles_zeros_and_empty() {
        let mut s = QuantileSketch::new();
        assert_eq!(s.quantile(0.5), None);
        s.record(0.0);
        s.record(0.0);
        s.record(100.0);
        assert_eq!(s.quantile(0.5), Some(0.0));
        let p99 = s.quantile(0.99).unwrap();
        assert!((p99 - 100.0).abs() / 100.0 <= ALPHA);
    }

    #[test]
    fn quantile_sketch_memory_is_logarithmic() {
        let mut s = QuantileSketch::new();
        for i in 1..=1_000_000u64 {
            s.record(i as f64);
        }
        // log_γ(1e6) ≈ 690 buckets at α=1%.
        assert!(s.memory_bytes() < 16 * 1024, "{} bytes", s.memory_bytes());
    }
}
