//! Bandwidth-delay-product monitoring.
//!
//! Implication #3: "Dynamic monitoring end-to-end runtime BDP and using it
//! for traffic control becomes vital in server chiplet networking."
//! [`BdpMonitor`] maintains EWMA estimates of a path's achieved bandwidth
//! and latency and derives the BDP — the in-flight byte budget a sender
//! needs to keep the path busy without queue buildup. The engine's
//! rate-gated in-flight budgets are exactly this quantity with headroom.

use chiplet_sim::{Bandwidth, ByteSize};
use serde::{Deserialize, Serialize};

/// An EWMA-based BDP estimator for one flow/path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BdpMonitor {
    alpha: f64,
    bw_bytes_per_ns: f64,
    latency_ns: f64,
    samples: u64,
}

impl BdpMonitor {
    /// Creates a monitor with smoothing factor `alpha` in `(0, 1]`
    /// (1 = no smoothing; common choice 0.1–0.3).
    ///
    /// # Panics
    ///
    /// Panics for `alpha` outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        BdpMonitor {
            alpha,
            bw_bytes_per_ns: 0.0,
            latency_ns: 0.0,
            samples: 0,
        }
    }

    /// Feeds one observation window: achieved bandwidth and mean latency.
    pub fn observe(&mut self, bandwidth: Bandwidth, latency_ns: f64) {
        let bw = bandwidth.bytes_per_ns();
        if self.samples == 0 {
            self.bw_bytes_per_ns = bw;
            self.latency_ns = latency_ns;
        } else {
            self.bw_bytes_per_ns += self.alpha * (bw - self.bw_bytes_per_ns);
            self.latency_ns += self.alpha * (latency_ns - self.latency_ns);
        }
        self.samples += 1;
    }

    /// The bandwidth-delay product: bytes in flight needed to fill the path.
    pub fn bdp(&self) -> ByteSize {
        ByteSize::from_bytes((self.bw_bytes_per_ns * self.latency_ns).round() as u64)
    }

    /// Recommended outstanding cachelines (BDP / 64, at least 1) — the
    /// traffic-control knob the paper envisions.
    pub fn recommended_inflight(&self) -> u32 {
        (self.bdp().as_bytes()).div_ceil(64).max(1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_initializes() {
        let mut m = BdpMonitor::new(0.2);
        m.observe(Bandwidth::from_gb_per_s(32.0), 125.0);
        // 32 B/ns × 125 ns = 4000 B.
        assert_eq!(m.bdp().as_bytes(), 4000);
        assert_eq!(m.recommended_inflight(), 63);
    }

    #[test]
    fn ewma_converges_to_steady_state() {
        let mut m = BdpMonitor::new(0.3);
        for _ in 0..100 {
            m.observe(Bandwidth::from_gb_per_s(10.0), 200.0);
        }
        assert_eq!(m.bdp().as_bytes(), 2000);
    }

    #[test]
    fn ewma_tracks_change_gradually() {
        let mut m = BdpMonitor::new(0.5);
        m.observe(Bandwidth::from_gb_per_s(10.0), 100.0);
        m.observe(Bandwidth::from_gb_per_s(20.0), 100.0);
        // 10 → 20 GB/s at 100 ns: the BDP moves part of the way from
        // 1000 B toward 2000 B.
        let bdp = m.bdp().as_bytes();
        assert!(bdp > 1000 && bdp < 2000, "{bdp}");
    }

    #[test]
    fn inflight_has_floor_of_one() {
        let mut m = BdpMonitor::new(1.0);
        m.observe(Bandwidth::from_gb_per_s(0.001), 1.0);
        assert_eq!(m.recommended_inflight(), 1);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn bad_alpha_rejected() {
        let _ = BdpMonitor::new(0.0);
    }

    #[test]
    fn chiplet_bdp_larger_than_monolithic() {
        // Implication #3's premise: longer paths at equal bandwidth mean
        // larger BDPs.
        let mut chiplet = BdpMonitor::new(1.0);
        chiplet.observe(Bandwidth::from_gb_per_s(32.0), 148.0); // diagonal
        let mut mono = BdpMonitor::new(1.0);
        mono.observe(Bandwidth::from_gb_per_s(32.0), 106.0);
        assert!(chiplet.bdp() > mono.bdp());
    }
}
