//! NoC run statistics.

use chiplet_sim::stats::LatencyHistogram;
use chiplet_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Aggregated results of a NoC simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NocStats {
    /// Flits injected into the network.
    pub injected: u64,
    /// Flits delivered to their destination.
    pub delivered: u64,
    /// Injection attempts refused because the local port was busy/full.
    pub injection_stalls: u64,
    /// Deflections (bufferless routing only).
    pub deflections: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Router count (for per-node rates).
    pub nodes: usize,
    /// In-network latency distribution, in cycles (recorded as ns with
    /// 1 cycle == 1 ns for histogram reuse).
    pub latency: LatencyHistogram,
}

impl NocStats {
    /// Creates an empty record.
    pub fn new(nodes: usize) -> Self {
        NocStats {
            injected: 0,
            delivered: 0,
            injection_stalls: 0,
            deflections: 0,
            cycles: 0,
            nodes,
            latency: LatencyHistogram::new(),
        }
    }

    /// Records a delivery after `cycles` in the network.
    pub fn record_delivery(&mut self, cycles: u64) {
        self.delivered += 1;
        self.latency.record(SimDuration::from_nanos(cycles));
    }

    /// Delivered throughput in flits/node/cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 || self.nodes == 0 {
            0.0
        } else {
            self.delivered as f64 / (self.cycles as f64 * self.nodes as f64)
        }
    }

    /// Mean in-network latency, cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean_ns_f64()
    }

    /// P999 in-network latency, cycles.
    pub fn p999_latency(&self) -> u64 {
        self.latency
            .p999()
            .map(|d| d.as_nanos())
            .unwrap_or_default()
    }

    /// Deflections per delivered flit.
    pub fn deflection_rate(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.deflections as f64 / self.delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = NocStats::new(8);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.deflection_rate(), 0.0);
        assert!(s.mean_latency().is_nan());
    }

    #[test]
    fn throughput_accounts_nodes_and_cycles() {
        let mut s = NocStats::new(4);
        s.cycles = 100;
        for _ in 0..200 {
            s.record_delivery(5);
        }
        assert!((s.throughput() - 0.5).abs() < 1e-12);
        assert!((s.mean_latency() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rates_and_fractions() {
        let mut s = NocStats::new(2);
        s.injected = 80;
        s.injection_stalls = 20;
        s.deflections = 30;
        for _ in 0..60 {
            s.record_delivery(3);
        }
        assert!((s.deflection_rate() - 0.5).abs() < 1e-12);
    }
}
