//! The chiplet-net profiler (§4 #5).
//!
//! "We advocate for a system-level perf-like profiling utility, entrenched
//! with the server SoC, that collaboratively combines the hardware
//! architectural PMU with time-series-based probabilistic and compact data
//! structures (like Sketches) to distill application-specific execution
//! telemetry."
//!
//! [`Profiler`] is that utility's core: it ingests one record per completed
//! transaction (source unit, destination, bytes, latency) and maintains,
//! in bounded memory regardless of traffic volume:
//!
//! * a Count-Min sketch of bytes per (source, destination) pair,
//! * a SpaceSaving heavy-hitter table of the hottest pairs,
//! * DDSketch-style latency quantiles, global and per flow.
//!
//! Enable it on a run with [`EngineConfig::profile`]; the engine feeds it
//! at every completion and attaches a [`ProfileReport`] to the result.
//!
//! [`EngineConfig::profile`]: crate::engine::EngineConfig::profile

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::flow::FlowId;
use crate::sketch::{CountMinSketch, QuantileSketch, SpaceSaving};

/// The most per-flow latency sketches the profiler keeps at once.
///
/// When a new flow arrives at the cap, the coldest tracked flow (fewest
/// samples; smallest `FlowId` on ties) is evicted, SpaceSaving-style, and
/// [`ProfileReport::evicted_flows`] counts the evictions — the map stays
/// bounded no matter how many flows a workload churns through.
pub const PER_FLOW_CAP: usize = 64;

/// Per-transaction profiling state.
#[derive(Debug)]
pub struct Profiler {
    bytes_by_pair: CountMinSketch,
    heavy: SpaceSaving<(u32, u32)>,
    latency: QuantileSketch,
    per_flow: BTreeMap<FlowId, QuantileSketch>,
    evicted_flows: u64,
    records: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Creates a profiler with default accuracies (1% byte error, 16 heavy
    /// hitters, 1% latency quantile error) and the default sketch seed 0.
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// Creates a profiler whose Count-Min hashers derive from `seed`:
    /// identical seeds make [`ProfileReport`] byte-identical run-to-run.
    pub fn with_seed(seed: u64) -> Self {
        Profiler {
            bytes_by_pair: CountMinSketch::with_error_seeded(0.01, 0.01, seed),
            heavy: SpaceSaving::new(16),
            latency: QuantileSketch::new(),
            per_flow: BTreeMap::new(),
            evicted_flows: 0,
            records: 0,
        }
    }

    /// Ingests one completed transaction.
    pub fn observe(&mut self, flow: FlowId, src: u32, dest: u32, bytes: u64, latency_ns: f64) {
        self.records += 1;
        self.bytes_by_pair.update(&(src, dest), bytes);
        self.heavy.update((src, dest), bytes);
        self.latency.record(latency_ns);
        if !self.per_flow.contains_key(&flow) && self.per_flow.len() >= PER_FLOW_CAP {
            let coldest = self
                .per_flow
                .iter()
                .min_by(|a, b| a.1.count().cmp(&b.1.count()).then_with(|| a.0.cmp(b.0)))
                .map(|(&f, _)| f)
                .expect("per_flow is non-empty at the cap");
            self.per_flow.remove(&coldest);
            self.evicted_flows += 1;
        }
        self.per_flow.entry(flow).or_default().record(latency_ns);
    }

    /// Flows evicted from the bounded per-flow sketch map so far.
    pub fn evicted_flows(&self) -> u64 {
        self.evicted_flows
    }

    /// Transactions observed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Finalizes into a serializable report.
    pub fn report(&self) -> ProfileReport {
        let mut flows: Vec<FlowProfile> = self
            .per_flow
            .iter()
            .map(|(&flow, sk)| FlowProfile {
                flow,
                samples: sk.count(),
                p50_ns: sk.quantile(0.5).unwrap_or(0.0),
                p99_ns: sk.quantile(0.99).unwrap_or(0.0),
                p999_ns: sk.quantile(0.999).unwrap_or(0.0),
            })
            .collect();
        flows.sort_by_key(|f| f.flow);
        ProfileReport {
            records: self.records,
            heavy_hitters: self
                .heavy
                .heavy_hitters()
                .into_iter()
                .map(|((src, dest), bytes)| HeavyPair { src, dest, bytes })
                .collect(),
            global_p50_ns: self.latency.quantile(0.5).unwrap_or(0.0),
            global_p99_ns: self.latency.quantile(0.99).unwrap_or(0.0),
            global_p999_ns: self.latency.quantile(0.999).unwrap_or(0.0),
            flows,
            evicted_flows: self.evicted_flows,
            memory_bytes: self.bytes_by_pair.memory_bytes()
                + self.latency.memory_bytes()
                + self
                    .per_flow
                    .values()
                    .map(QuantileSketch::memory_bytes)
                    .sum::<usize>(),
        }
    }
}

/// A hot (source, destination) pair. Sources are compute chiplets (or
/// device rows past them); destinations are UMCs (or CXL devices past them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeavyPair {
    /// Source unit row.
    pub src: u32,
    /// Destination unit column.
    pub dest: u32,
    /// Byte upper bound (SpaceSaving overestimate).
    pub bytes: u64,
}

/// Per-flow latency quantiles from the profiler's sketches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowProfile {
    /// The flow.
    pub flow: FlowId,
    /// Samples observed.
    pub samples: u64,
    /// Median latency, ns.
    pub p50_ns: f64,
    /// P99 latency, ns.
    pub p99_ns: f64,
    /// P999 latency, ns.
    pub p999_ns: f64,
}

/// The profiler's serializable output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Transactions observed.
    pub records: u64,
    /// Hottest (source, destination) pairs, heaviest first.
    pub heavy_hitters: Vec<HeavyPair>,
    /// Global median latency, ns.
    pub global_p50_ns: f64,
    /// Global P99 latency, ns.
    pub global_p99_ns: f64,
    /// Global P999 latency, ns.
    pub global_p999_ns: f64,
    /// Per-flow quantiles.
    pub flows: Vec<FlowProfile>,
    /// Flows evicted from the bounded per-flow map ([`PER_FLOW_CAP`]).
    #[serde(default)]
    pub evicted_flows: u64,
    /// Total sketch memory, bytes — bounded regardless of traffic.
    pub memory_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observes_and_reports() {
        let mut p = Profiler::new();
        for i in 0..10_000u64 {
            let flow = FlowId((i % 2) as u32);
            p.observe(
                flow,
                (i % 4) as u32,
                (i % 8) as u32,
                64,
                100.0 + (i % 50) as f64,
            );
        }
        let r = p.report();
        assert_eq!(r.records, 10_000);
        assert_eq!(r.flows.len(), 2);
        assert!(r.global_p50_ns > 100.0 && r.global_p50_ns < 160.0);
        assert!(r.global_p999_ns >= r.global_p99_ns);
        assert!(!r.heavy_hitters.is_empty());
    }

    #[test]
    fn heavy_hitter_finds_the_elephant() {
        let mut p = Profiler::new();
        for _ in 0..5_000 {
            p.observe(FlowId(0), 0, 0, 64, 120.0);
        }
        for i in 0..5_000u64 {
            p.observe(FlowId(1), 1 + (i % 3) as u32, (i % 8) as u32, 8, 130.0);
        }
        let r = p.report();
        assert_eq!((r.heavy_hitters[0].src, r.heavy_hitters[0].dest), (0, 0));
        // Count-Min never underestimates the elephant.
        assert!(p.bytes_by_pair.estimate(&(0u32, 0u32)) >= 5_000 * 64);
    }

    #[test]
    fn memory_is_bounded() {
        let mut p = Profiler::new();
        for i in 0..200_000u64 {
            p.observe(
                FlowId(0),
                (i % 12) as u32,
                (i % 12) as u32,
                64,
                (i % 1000) as f64,
            );
        }
        let r = p.report();
        assert!(r.memory_bytes < 512 * 1024, "{} bytes", r.memory_bytes);
    }

    #[test]
    fn per_flow_map_is_bounded_with_eviction() {
        let mut p = Profiler::new();
        // One hot flow, then a churn of cold one-sample flows.
        for _ in 0..1000 {
            p.observe(FlowId(0), 0, 0, 64, 100.0);
        }
        for i in 1..=500u32 {
            p.observe(FlowId(i), 0, 0, 64, 200.0);
        }
        let r = p.report();
        assert!(
            r.flows.len() <= PER_FLOW_CAP,
            "{} flows kept",
            r.flows.len()
        );
        assert_eq!(r.evicted_flows, 500 - (PER_FLOW_CAP as u64 - 1));
        // The hot flow survives the churn — only coldest flows are evicted.
        assert!(r
            .flows
            .iter()
            .any(|f| f.flow == FlowId(0) && f.samples == 1000));
    }

    #[test]
    fn identical_seeds_give_byte_identical_reports() {
        let run = |seed| {
            let mut p = Profiler::with_seed(seed);
            for i in 0..20_000u64 {
                p.observe(
                    FlowId((i % 5) as u32),
                    (i % 9) as u32,
                    (i % 11) as u32,
                    64,
                    100.0 + (i % 300) as f64,
                );
            }
            serde_json::to_string(&p.report()).unwrap()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn report_round_trips_json() {
        let mut p = Profiler::new();
        p.observe(FlowId(3), 1, 2, 64, 150.0);
        let r = p.report();
        let back: ProfileReport =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
