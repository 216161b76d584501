//! Log-bucketed latency histogram.
//!
//! HDR-style layout: values are bucketed by (exponent, mantissa-slice) with a
//! fixed number of sub-buckets per power of two, giving a bounded relative
//! error (~1/SUB_BUCKETS) at every scale from 1 ns to minutes. Quantile
//! queries return the *upper edge* of the containing bucket so reported tails
//! never understate the true tail.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Sub-buckets per power of two; 32 gives ≈3% relative error.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)
/// Enough exponent ranges to cover u64 nanoseconds.
const RANGES: usize = 64;

/// A streaming latency histogram with bounded relative error.
///
/// ```
/// use chiplet_sim::stats::LatencyHistogram;
/// use chiplet_sim::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for ns in 1..=1000u64 {
///     h.record(SimDuration::from_nanos(ns));
/// }
/// let p50 = h.quantile(0.5).unwrap().as_nanos();
/// assert!((450..=560).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; RANGES * SUB_BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Dense bucket layout: values `[0, 32)` get exact unit buckets; each
    /// binade `[2^m, 2^(m+1))` above that gets `SUB_BUCKETS / 2` sub-buckets.
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros();
            let range = (msb - SUB_BITS + 1) as usize;
            // Top (SUB_BITS - 1) fractional bits of the binade select the
            // sub-bucket: each binade [2^m, 2^(m+1)) gets SUB_BUCKETS/2 cells.
            let sub = ((value >> (msb - (SUB_BITS - 1))) as usize) & (SUB_BUCKETS / 2 - 1);
            SUB_BUCKETS + (range - 1) * (SUB_BUCKETS / 2) + sub
        }
    }

    /// Upper edge (inclusive) of the bucket at `index` under the dense layout.
    fn upper_of(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            index as u64
        } else {
            let rel = index - SUB_BUCKETS;
            let range = rel / (SUB_BUCKETS / 2) + 1;
            let sub = rel % (SUB_BUCKETS / 2);
            let msb = SUB_BITS as usize - 1 + range;
            let low = 1u64 << msb;
            let step = 1u64 << (msb - (SUB_BITS as usize - 1));
            low + step * (sub as u64 + 1) - 1
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = Self::index_of(ns);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean, or `None` when empty. Exact (not bucketed).
    pub fn mean(&self) -> Option<SimDuration> {
        if self.total == 0 {
            None
        } else {
            Some(SimDuration::from_nanos(
                (self.sum_ns / self.total as u128) as u64,
            ))
        }
    }

    /// Mean as fractional nanoseconds, or NaN when empty.
    pub fn mean_ns_f64(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample (exact), or `None` when empty.
    pub fn min(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_nanos(self.min_ns))
    }

    /// Largest recorded sample (exact), or `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_nanos(self.max_ns))
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` when empty.
    ///
    /// Returns the upper edge of the bucket containing the quantile rank,
    /// clamped to the exact observed `[min, max]` range, so the reported
    /// value is within one bucket width (≈3%) above the true order
    /// statistic, never below the bucket that contains it, and never
    /// outside what was actually recorded: `quantile(1.0)` is exactly the
    /// observed maximum and `quantile(0.0)` exactly the observed minimum
    /// (the raw bucket edge could overstate either by the bucket's
    /// relative error).
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(SimDuration::from_nanos(self.min_ns));
        }
        // Rank of the target order statistic, 1-based.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(SimDuration::from_nanos(
                    Self::upper_of(i).clamp(self.min_ns, self.max_ns),
                ));
            }
        }
        Some(SimDuration::from_nanos(self.max_ns))
    }

    /// P50 convenience accessor.
    pub fn p50(&self) -> Option<SimDuration> {
        self.quantile(0.50)
    }

    /// P99 convenience accessor.
    pub fn p99(&self) -> Option<SimDuration> {
        self.quantile(0.99)
    }

    /// P999 convenience accessor (the paper's tail metric).
    pub fn p999(&self) -> Option<SimDuration> {
        self.quantile(0.999)
    }

    /// Merges another histogram into this one. All fields are integral,
    /// so merging partial histograms in any order yields exactly the
    /// histogram a single sequential recorder would have produced.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h_from(values: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(SimDuration::from_nanos(v));
        }
        h
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn small_values_are_exact() {
        // Values below SUB_BUCKETS land in exact unit buckets.
        let h = h_from(&[1, 2, 3, 4, 5]);
        assert_eq!(h.quantile(0.0).unwrap().as_nanos(), 1);
        assert_eq!(h.p50().unwrap().as_nanos(), 3);
        assert_eq!(h.quantile(1.0).unwrap().as_nanos(), 5);
        assert_eq!(h.mean().unwrap().as_nanos(), 3);
    }

    #[test]
    fn mean_is_exact_for_large_values() {
        let h = h_from(&[100, 200, 300]);
        assert_eq!(h.mean().unwrap().as_nanos(), 200);
        assert_eq!(h.min().unwrap().as_nanos(), 100);
        assert_eq!(h.max().unwrap().as_nanos(), 300);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        // Uniform 1..=100_000: any quantile must be within ~7% of exact.
        let values: Vec<u64> = (1..=100_000).collect();
        let h = h_from(&values);
        for &(q, exact) in &[
            (0.5, 50_000u64),
            (0.9, 90_000),
            (0.99, 99_000),
            (0.999, 99_900),
        ] {
            let got = h.quantile(q).unwrap().as_nanos() as f64;
            let rel = (got - exact as f64) / exact as f64;
            assert!(
                (-0.001..=0.07).contains(&rel),
                "q={q}: got {got}, exact {exact}, rel {rel}"
            );
        }
    }

    #[test]
    fn p999_picks_tail_outliers() {
        // 9980 fast samples and 20 slow ones (0.2%): P999 must see the slow mode.
        let mut values = vec![100u64; 9980];
        values.extend([5000u64; 20]);
        let h = h_from(&values);
        assert!(h.p999().unwrap().as_nanos() >= 4600);
        assert!(h.p50().unwrap().as_nanos() <= 104);
    }

    #[test]
    fn quantile_never_exceeds_observed_max() {
        let h = h_from(&[999_937]); // awkward non-power-of-two
        assert_eq!(h.quantile(1.0).unwrap().as_nanos(), 999_937);
        assert_eq!(h.p999().unwrap().as_nanos(), 999_937);
    }

    #[test]
    fn single_sample_every_quantile_is_the_sample() {
        let h = h_from(&[777_215]);
        for q in [0.0, 0.001, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(
                h.quantile(q).unwrap().as_nanos(),
                777_215,
                "q={q} strayed from the only sample"
            );
        }
    }

    #[test]
    fn quantile_zero_is_exact_min() {
        // 1000's bucket has upper edge 1023; q=0 must report the recorded
        // minimum, not the bucket edge.
        let h = h_from(&[1000, 2000, 3000]);
        assert_eq!(h.quantile(0.0).unwrap().as_nanos(), 1000);
        assert_eq!(h.quantile(1.0).unwrap().as_nanos(), 3000);
    }

    #[test]
    fn quantiles_stay_within_observed_range() {
        // Two samples in the same bucket: every quantile must land inside
        // [min, max] even though the shared bucket edge exceeds both.
        let h = h_from(&[1000, 1001]);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = h.quantile(q).unwrap().as_nanos();
            assert!((1000..=1001).contains(&v), "q={q}: {v} outside [1000,1001]");
        }
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = h_from(&[10, 20]);
        let b = h_from(&[30, 40]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean().unwrap().as_nanos(), 25);
        assert_eq!(a.max().unwrap().as_nanos(), 40);
        assert_eq!(a.min().unwrap().as_nanos(), 10);
    }

    #[test]
    fn reset_empties() {
        let mut h = h_from(&[1, 2, 3]);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn index_monotone_in_value() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let idx = LatencyHistogram::index_of(v);
            assert!(idx >= last, "index decreased at value {v}");
            last = idx;
        }
    }

    #[test]
    fn upper_edge_brackets_value() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            123_456,
            u32::MAX as u64,
        ] {
            let idx = LatencyHistogram::index_of(v);
            let hi = LatencyHistogram::upper_of(idx);
            assert!(hi >= v, "upper edge {hi} below value {v}");
            if idx > 0 {
                let lo_prev = LatencyHistogram::upper_of(idx - 1);
                assert!(lo_prev < v, "previous edge {lo_prev} not below value {v}");
            }
        }
    }
    #[test]
    fn merge_equals_sequential_recording() {
        let samples: Vec<u64> = (0..200).map(|i| i * i % 7919 + i).collect();
        let mut whole = LatencyHistogram::new();
        let mut shards = [
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        ];
        for (i, &s) in samples.iter().enumerate() {
            whole.record(SimDuration::from_nanos(s));
            shards[i % 3].record(SimDuration::from_nanos(s));
        }
        let mut merged = LatencyHistogram::new();
        // Merge in reverse shard order: order must not matter.
        for sh in shards.iter().rev() {
            merged.merge(sh);
        }
        assert_eq!(merged, whole);
    }
}
