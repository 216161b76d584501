//! Property-based tests for the discrete-event core.

use chiplet_sim::stats::{LatencyHistogram, Summary};
use chiplet_sim::time::{ceil_to_u64, round_to_u64};
use chiplet_sim::{Bandwidth, ByteSize, EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events pop in nondecreasing time order regardless of push order, and
    /// events with equal timestamps pop in push (FIFO) order.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_idx_at_time: Option<usize> = None;
        while let Some(e) = q.pop() {
            prop_assert!(e.at >= last_time);
            if e.at == last_time {
                if let Some(prev) = last_idx_at_time {
                    // FIFO among equal timestamps: push index increases.
                    prop_assert!(e.payload > prev);
                }
            }
            last_idx_at_time = Some(e.payload);
            last_time = e.at;
        }
    }

    /// Every pushed event is popped exactly once.
    #[test]
    fn event_queue_conserves_events(times in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut seen = vec![false; times.len()];
        while let Some(e) = q.pop() {
            prop_assert!(!seen[e.payload], "event popped twice");
            seen[e.payload] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Histogram quantiles bracket the exact order statistic: never below it,
    /// and within one bucket width (≤ ~7% relative for values ≥ 32) above.
    #[test]
    fn histogram_quantile_brackets_exact(
        mut values in proptest::collection::vec(1u64..10_000_000, 10..500),
        qs in proptest::collection::vec(0.01f64..1.0, 1..8),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(SimDuration::from_nanos(v));
        }
        values.sort_unstable();
        for q in qs {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1];
            let got = h.quantile(q).unwrap().as_nanos();
            prop_assert!(got >= exact, "q={q}: got {got} below exact {exact}");
            let bound = (exact as f64 * 1.07) as u64 + 1;
            prop_assert!(got <= bound.max(exact + 32),
                "q={q}: got {got} too far above exact {exact}");
        }
    }

    /// Histogram mean/min/max are exact.
    #[test]
    fn histogram_scalar_stats_exact(values in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(SimDuration::from_nanos(v));
        }
        let sum: u64 = values.iter().sum();
        prop_assert_eq!(h.mean().unwrap().as_nanos(), sum / values.len() as u64);
        prop_assert_eq!(h.min().unwrap().as_nanos(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max().unwrap().as_nanos(), *values.iter().max().unwrap());
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// Merging two histograms is equivalent to recording all samples in one.
    #[test]
    fn histogram_merge_equivalence(
        a in proptest::collection::vec(0u64..100_000, 0..100),
        b in proptest::collection::vec(0u64..100_000, 0..100),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for &v in &a {
            ha.record(SimDuration::from_nanos(v));
            whole.record(SimDuration::from_nanos(v));
        }
        for &v in &b {
            hb.record(SimDuration::from_nanos(v));
            whole.record(SimDuration::from_nanos(v));
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), whole.count());
        if !whole.is_empty() {
            prop_assert_eq!(ha.quantile(0.5), whole.quantile(0.5));
            prop_assert_eq!(ha.quantile(0.999), whole.quantile(0.999));
            prop_assert_eq!(ha.mean(), whole.mean());
        }
    }

    /// Welford summary matches the naive two-pass computation.
    #[test]
    fn summary_matches_naive(values in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = Summary::new();
        values.iter().for_each(|&x| s.record(x));
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
    }

    /// service_time is inverse to bandwidth: transferring N bytes at rate R
    /// then dividing N by the service time recovers ~R.
    #[test]
    fn bandwidth_service_time_inverse(gb in 0.5f64..1000.0, kib in 1u64..10_000) {
        let bw = Bandwidth::from_gb_per_s(gb);
        let size = ByteSize::from_kib(kib);
        let t = bw.service_time(size);
        prop_assert!(!t.is_zero());
        let recovered = size.as_bytes() as f64 / t.as_secs_f64() / 1e9;
        // Rounding to whole ns costs at most 1 ns of error.
        let tolerance = gb * 1.0 / t.as_nanos_f64() + 1e-9;
        prop_assert!((recovered - gb).abs() <= gb * tolerance + 0.01,
            "recovered {recovered} vs {gb}");
    }
}

/// Both integer rounding helpers against the float operations they
/// replace, reported with the input's bit pattern.
fn assert_rounds_like_float(x: f64) {
    let bits = x.to_bits();
    assert_eq!(ceil_to_u64(x), x.ceil() as u64, "ceil of {x:e} ({bits:#x})");
    assert_eq!(
        round_to_u64(x),
        x.round() as u64,
        "round of {x:e} ({bits:#x})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Any bit pattern: NaNs of both signs, ±inf, ±0, subnormals, and the
    /// half of all positive values that lie at or above 2⁶⁴.
    #[test]
    fn rounding_helpers_match_float_on_any_bits(bits in 0u64..=u64::MAX) {
        assert_rounds_like_float(f64::from_bits(bits));
    }

    /// Every binade from 2⁻²⁴ to 2⁷⁶, both signs: fractions below one,
    /// the 2⁵²–2⁵³ band where the fast path ends, and the 2⁶³–2⁶⁵
    /// saturation edge.
    #[test]
    fn rounding_helpers_match_float_per_binade(
        exp in 999u64..1100,
        mantissa in 0u64..(1 << 52),
        negative in prop::bool::ANY,
    ) {
        let sign = u64::from(negative) << 63;
        assert_rounds_like_float(f64::from_bits(sign | exp << 52 | mantissa));
    }

    /// Integers, exact `.5` ties and their nearest neighbours up to 2⁵³ —
    /// where ties-to-even and ties-away-from-zero disagree.
    #[test]
    fn rounding_helpers_match_float_at_ties(
        k in 0u64..(1 << 53),
        tie in prop::bool::ANY,
        ulps in -2i64..=2,
    ) {
        let x = k as f64 + if tie { 0.5 } else { 0.0 };
        assert_rounds_like_float(f64::from_bits(x.to_bits().wrapping_add_signed(ulps)));
    }
}
