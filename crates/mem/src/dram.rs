//! DRAM/CXL service-time variability.
//!
//! Figure 3 of the paper shows P999 tail latencies of 380–500 ns at *low*
//! load against ~125–145 ns means: real DRAM occasionally serves an access
//! slowly (bank-precharge conflicts, refresh cycles), and CXL media more so.
//! The model is a two-mode service distribution: most accesses add nothing,
//! a small fraction adds a few hundred ns. Under load these slow services
//! also delay queued successors, compounding into the saturation tails.

use chiplet_sim::DetRng;
use serde::{Deserialize, Serialize};

/// A two-mode extra-service-time distribution for a memory device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramServiceModel {
    /// Probability an access hits the slow mode.
    pub slow_probability: f64,
    /// Extra service time of a slow access, ns.
    pub slow_extra_ns: f64,
    /// Uniform jitter added to every access in `[0, jitter_ns)`, ns —
    /// scheduling granularity of the controller.
    pub jitter_ns: f64,
}

impl DramServiceModel {
    /// DDR4-class variability (EPYC 7302 testbed): ~0.35 % of accesses hit a
    /// ~340 ns row-conflict/refresh penalty, putting the unloaded P999 near
    /// the paper's ~470 ns against a 124 ns mean.
    pub fn ddr4() -> Self {
        DramServiceModel {
            slow_probability: 0.0035,
            slow_extra_ns: 340.0,
            jitter_ns: 6.0,
        }
    }

    /// DDR5-class variability (EPYC 9634 testbed): slightly tighter tail
    /// (the paper reads 380 ns P999 at low load against a 143.7 ns mean).
    pub fn ddr5() -> Self {
        DramServiceModel {
            slow_probability: 0.003,
            slow_extra_ns: 235.0,
            jitter_ns: 6.0,
        }
    }

    /// CXL-device media (Micron CZ120-class): larger controller penalties.
    pub fn cxl() -> Self {
        DramServiceModel {
            slow_probability: 0.005,
            slow_extra_ns: 450.0,
            jitter_ns: 12.0,
        }
    }

    /// A deterministic device with no variability, for calibration tests.
    pub fn deterministic() -> Self {
        DramServiceModel {
            slow_probability: 0.0,
            slow_extra_ns: 0.0,
            jitter_ns: 0.0,
        }
    }

    /// Samples the extra service time of one access, ns.
    #[inline]
    pub fn extra_service_ns(&self, rng: &mut DetRng) -> f64 {
        let mut extra = 0.0;
        if self.jitter_ns > 0.0 {
            extra += rng.next_f64() * self.jitter_ns;
        }
        if self.slow_probability > 0.0 && rng.chance(self.slow_probability) {
            extra += self.slow_extra_ns;
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The distribution's mean extra service time, ns.
    fn mean_extra_ns(m: &DramServiceModel) -> f64 {
        m.jitter_ns / 2.0 + m.slow_probability * m.slow_extra_ns
    }

    #[test]
    fn deterministic_adds_nothing() {
        let m = DramServiceModel::deterministic();
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(m.extra_service_ns(&mut rng), 0.0);
        }
        assert_eq!(mean_extra_ns(&m), 0.0);
    }

    #[test]
    fn sample_mean_matches_analytic_mean() {
        let m = DramServiceModel::ddr4();
        let mut rng = DetRng::seed_from_u64(7);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| m.extra_service_ns(&mut rng)).sum();
        let sample_mean = total / n as f64;
        let analytic = mean_extra_ns(&m);
        assert!(
            (sample_mean - analytic).abs() < 0.25,
            "sample {sample_mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn slow_mode_frequency_is_close() {
        let m = DramServiceModel::ddr5();
        let mut rng = DetRng::seed_from_u64(3);
        let n = 300_000;
        let slow = (0..n)
            .filter(|_| m.extra_service_ns(&mut rng) >= m.slow_extra_ns)
            .count();
        let freq = slow as f64 / n as f64;
        assert!(
            (freq - m.slow_probability).abs() < 0.001,
            "slow frequency {freq}"
        );
    }

    #[test]
    fn tail_quantile_sees_slow_mode() {
        // With p=0.35 %, the 99.9th percentile of extra time must be the
        // slow mode, not the jitter.
        let m = DramServiceModel::ddr4();
        let mut rng = DetRng::seed_from_u64(11);
        let mut samples: Vec<f64> = (0..100_000).map(|_| m.extra_service_ns(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let p999 = samples[(samples.len() as f64 * 0.999) as usize];
        assert!(p999 >= m.slow_extra_ns, "p999 extra {p999}");
        let p50 = samples[samples.len() / 2];
        assert!(p50 < m.jitter_ns, "median extra {p50}");
    }

    #[test]
    fn cxl_is_worse_than_dram() {
        assert!(mean_extra_ns(&DramServiceModel::cxl()) > mean_extra_ns(&DramServiceModel::ddr5()));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = DramServiceModel::ddr4();
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(m.extra_service_ns(&mut a), m.extra_service_ns(&mut b));
        }
    }
}
