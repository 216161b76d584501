//! The communication-flow abstraction.
//!
//! Implication #4 of the paper: "it will be valuable to introduce the
//! communication flow abstraction, materialize it in a global software-based
//! traffic manager, and expose it to the chiplet network." A [`FlowSpec`]
//! is that abstraction: a named, long-lived stream of transactions between
//! a set of cores and a memory or device target, with enough metadata
//! (operation, pattern, working set, offered load, lifetime) for the
//! traffic manager to reason about it.

use chiplet_mem::{OpKind, Pattern};
use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimTime};
use chiplet_topology::{CoreId, DimmId, Topology};
use serde::{Deserialize, Serialize};

/// A flow's identity within one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u32);

impl core::fmt::Display for FlowId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// What a flow targets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Target {
    /// A set of DIMMs, accessed with cacheline interleaving across the set.
    Dimms(Vec<DimmId>),
    /// A CXL memory device, by index.
    Cxl(u32),
}

impl Target {
    /// Every DIMM of the platform (the NPS1 interleave set).
    pub fn all_dimms(topo: &Topology) -> Target {
        Target::Dimms(topo.dimm_ids().collect())
    }

    /// A single DIMM.
    pub fn dimm(d: DimmId) -> Target {
        Target::Dimms(vec![d])
    }

    /// True when the target is a CXL device.
    pub fn is_cxl(&self) -> bool {
        matches!(self, Target::Cxl(_))
    }
}

/// A fully specified flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Human-readable name (appears in telemetry).
    pub name: String,
    /// Issuing cores; the offered load is split evenly among them. Empty
    /// for device-sourced (DMA) flows.
    pub cores: Vec<CoreId>,
    /// Issuing NIC for DMA flows (§4 #3's fused stack); mutually exclusive
    /// with `cores`.
    #[serde(default)]
    pub nic: Option<u32>,
    /// Destination.
    pub target: Target,
    /// Operation kind.
    pub op: OpKind,
    /// Spatial pattern.
    pub pattern: Pattern,
    /// Working-set size (decides cache residency).
    pub working_set: ByteSize,
    /// Total offered load across all cores; `None` = unthrottled (issue as
    /// fast as MLP allows — the paper's maximum-bandwidth mode).
    pub offered: Option<Bandwidth>,
    /// Time-varying offered load; when present it overrides `offered`.
    /// Schedule times are absolute simulation times, and a zero-demand
    /// piece pauses the flow until the next piece.
    #[serde(default)]
    pub demand: Option<DemandSchedule>,
    /// When the flow starts issuing.
    pub start: SimTime,
    /// When the flow stops issuing; `None` = until the run's horizon.
    pub stop: Option<SimTime>,
}

/// Builder for [`FlowSpec`] with sensible defaults.
#[derive(Debug, Clone)]
pub struct FlowBuilder {
    spec: FlowSpec,
}

impl FlowSpec {
    /// Starts building a read flow (sequential, memory-sized working set).
    pub fn reads(name: &str, cores: Vec<CoreId>, target: Target) -> FlowBuilder {
        FlowBuilder::new(name, cores, target, OpKind::Read)
    }

    /// Starts building a non-temporal write flow.
    pub fn writes(name: &str, cores: Vec<CoreId>, target: Target) -> FlowBuilder {
        FlowBuilder::new(name, cores, target, OpKind::WriteNonTemporal)
    }

    /// Starts building a pointer-chase (latency probe) flow.
    pub fn pointer_chase(name: &str, core: CoreId, target: Target) -> FlowBuilder {
        let mut b = FlowBuilder::new(name, vec![core], target, OpKind::Read);
        b.spec.pattern = Pattern::PointerChase;
        b
    }

    /// Starts building a NIC DMA-write flow (RX path: the device pushes
    /// packet data into memory).
    pub fn nic_dma_write(name: &str, nic: u32, target: Target) -> FlowBuilder {
        let mut b = FlowBuilder::new(name, Vec::new(), target, OpKind::WriteNonTemporal);
        b.spec.nic = Some(nic);
        b
    }

    /// Starts building a NIC DMA-read flow (TX path: the device pulls
    /// payloads from memory).
    pub fn nic_dma_read(name: &str, nic: u32, target: Target) -> FlowBuilder {
        let mut b = FlowBuilder::new(name, Vec::new(), target, OpKind::Read);
        b.spec.nic = Some(nic);
        b
    }

    /// Number of issuing engines: cores, or one DMA engine.
    pub fn issuer_count(&self) -> usize {
        if self.nic.is_some() {
            1
        } else {
            self.cores.len()
        }
    }

    /// The effective stop time given a run horizon.
    pub fn stop_or(&self, horizon: SimTime) -> SimTime {
        self.stop.unwrap_or(horizon).min(horizon)
    }

    /// Offered load per issuing engine, when throttled.
    pub fn offered_per_core(&self) -> Option<Bandwidth> {
        self.offered.map(|total| {
            Bandwidth::from_bytes_per_s(total.as_bytes_per_s() / self.issuer_count() as f64)
        })
    }

    /// The effective total demand at time `t`: the schedule when present,
    /// otherwise the constant `offered` load.
    pub fn demand_at(&self, t: SimTime) -> Option<Bandwidth> {
        match &self.demand {
            Some(s) => s.at(t),
            None => self.offered,
        }
    }

    /// The effective per-issuer demand at time `t`.
    pub fn demand_per_issuer_at(&self, t: SimTime) -> Option<Bandwidth> {
        self.demand_at(t).map(|total| {
            Bandwidth::from_bytes_per_s(total.as_bytes_per_s() / self.issuer_count() as f64)
        })
    }

    /// The largest demand the flow ever offers (`None` = unthrottled at
    /// some point); sizes the in-flight budget.
    pub fn peak_demand(&self) -> Option<Bandwidth> {
        match &self.demand {
            Some(s) => s.peak(),
            None => self.offered,
        }
    }
}

impl FlowBuilder {
    fn new(name: &str, cores: Vec<CoreId>, target: Target, op: OpKind) -> Self {
        FlowBuilder {
            spec: FlowSpec {
                name: name.to_string(),
                cores,
                nic: None,
                target,
                op,
                pattern: Pattern::Sequential,
                working_set: ByteSize::from_gib(1),
                offered: None,
                demand: None,
                start: SimTime::ZERO,
                stop: None,
            },
        }
    }

    /// Sets the working-set size.
    pub fn working_set(mut self, ws: ByteSize) -> Self {
        self.spec.working_set = ws;
        self
    }

    /// Sets the operation kind.
    pub fn op(mut self, op: OpKind) -> Self {
        self.spec.op = op;
        self
    }

    /// Throttles the flow to a total offered load.
    pub fn offered(mut self, bw: Bandwidth) -> Self {
        self.spec.offered = Some(bw);
        self
    }

    /// Validates against a topology and finishes.
    ///
    /// # Panics
    ///
    /// Panics on an empty core set, an empty DIMM set, out-of-range ids, or
    /// a CXL target on a platform without CXL.
    pub fn build(self, topo: &Topology) -> FlowSpec {
        let spec = self.spec;
        if let Some(nic) = spec.nic {
            assert!(
                spec.cores.is_empty(),
                "flow '{}' cannot have both cores and a NIC source",
                spec.name
            );
            assert!(
                nic < topo.nic_count(),
                "flow '{}': NIC {nic} not present on {}",
                spec.name,
                topo.spec().name
            );
            assert!(
                matches!(spec.target, Target::Dimms(_)),
                "flow '{}': NIC DMA targets memory, not CXL",
                spec.name
            );
            assert!(
                spec.op != OpKind::WriteTemporal,
                "flow '{}': DMA writes are non-temporal",
                spec.name
            );
        } else {
            assert!(!spec.cores.is_empty(), "flow '{}' has no cores", spec.name);
        }
        for c in &spec.cores {
            assert!(
                c.0 < topo.core_count(),
                "flow '{}': core {c} out of range",
                spec.name
            );
        }
        match &spec.target {
            Target::Dimms(ds) => {
                assert!(!ds.is_empty(), "flow '{}' has no target DIMMs", spec.name);
                for d in ds {
                    assert!(
                        d.0 < topo.dimm_count(),
                        "flow '{}': DIMM {d} out of range",
                        spec.name
                    );
                }
            }
            Target::Cxl(dev) => {
                assert!(
                    *dev < topo.cxl_device_count(),
                    "flow '{}': CXL device {dev} not present on {}",
                    spec.name,
                    topo.spec().name
                );
            }
        }
        if let Some(stop) = spec.stop {
            assert!(
                stop >= spec.start,
                "flow '{}' stops before start",
                spec.name
            );
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_topology::PlatformSpec;

    fn topo() -> Topology {
        Topology::build(&PlatformSpec::epyc_9634())
    }

    #[test]
    fn builder_defaults() {
        let t = topo();
        let f = FlowSpec::reads("r", vec![CoreId(0)], Target::all_dimms(&t)).build(&t);
        assert_eq!(f.op, OpKind::Read);
        assert_eq!(f.pattern, Pattern::Sequential);
        assert!(f.offered.is_none());
        assert_eq!(f.start, SimTime::ZERO);
    }

    #[test]
    fn per_core_offered_split() {
        let t = topo();
        let f = FlowSpec::reads("r", vec![CoreId(0), CoreId(1)], Target::all_dimms(&t))
            .offered(Bandwidth::from_gb_per_s(10.0))
            .build(&t);
        let per = f.offered_per_core().unwrap();
        assert!((per.as_gb_per_s() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pointer_chase_sets_pattern() {
        let t = topo();
        let f = FlowSpec::pointer_chase("p", CoreId(3), Target::dimm(DimmId(0))).build(&t);
        assert_eq!(f.pattern, Pattern::PointerChase);
        assert_eq!(f.cores.len(), 1);
    }

    #[test]
    fn stop_clamps_to_horizon() {
        let t = topo();
        let mut f = FlowSpec::reads("r", vec![CoreId(0)], Target::all_dimms(&t)).build(&t);
        f.stop = Some(SimTime::from_micros(100));
        assert_eq!(
            f.stop_or(SimTime::from_micros(50)),
            SimTime::from_micros(50)
        );
        assert_eq!(
            f.stop_or(SimTime::from_micros(200)),
            SimTime::from_micros(100)
        );
    }

    #[test]
    #[should_panic(expected = "CXL device 0 not present")]
    fn cxl_on_7302_rejected() {
        let t = Topology::build(&PlatformSpec::epyc_7302());
        let _ = FlowSpec::reads("r", vec![CoreId(0)], Target::Cxl(0)).build(&t);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_rejected() {
        let t = topo();
        let _ = FlowSpec::reads("r", vec![CoreId(999)], Target::all_dimms(&t)).build(&t);
    }

    #[test]
    fn cxl_target_on_9634_ok() {
        let t = topo();
        let f = FlowSpec::reads("r", vec![CoreId(0)], Target::Cxl(2)).build(&t);
        assert!(f.target.is_cxl());
    }
}
