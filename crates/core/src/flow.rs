//! The communication-flow abstraction.
//!
//! Implication #4 of the paper: "it will be valuable to introduce the
//! communication flow abstraction, materialize it in a global software-based
//! traffic manager, and expose it to the chiplet network." A [`FlowSpec`]
//! is that abstraction: a named, long-lived stream of transactions between
//! a set of cores and a memory or device target, with enough metadata
//! (operation, pattern, working set, offered load, lifetime) for the
//! traffic manager to reason about it.

use chiplet_mem::{CacheHierarchy, OpKind, Pattern};
use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimTime};
use chiplet_topology::{CoreId, DimmId, PlatformSpec, Topology};
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
    /// Total offered load over time across all issuers; a `None` piece is
    /// unthrottled (issue as fast as MLP allows — the paper's
    /// maximum-bandwidth mode) and a zero piece pauses the flow until the
    /// next piece. Schedule times are absolute simulation times.
    pub demand: DemandSchedule,
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

    /// The total demand at time `t` split evenly over the issuers.
    pub fn demand_per_issuer_at(&self, t: SimTime) -> Option<Bandwidth> {
        self.demand.at(t).map(|total| {
            Bandwidth::from_bytes_per_s(total.as_bytes_per_s() / self.issuer_count() as f64)
        })
    }

    /// The flow's issue limits on `p` when its routes average
    /// `unloaded_ns` (see [`IssueBudget`]).
    ///
    /// # Panics
    ///
    /// Panics on a CXL target on a platform without CXL.
    pub(crate) fn issue_budget(&self, p: &PlatformSpec, unloaded_ns: f64) -> IssueBudget {
        let is_cxl = self.target.is_cxl();
        let read_cap = if is_cxl {
            p.mlp.cxl_core_read_outstanding
        } else {
            p.mlp.core_read_outstanding
        };
        let write_cap = if is_cxl {
            let cxl = p.cxl.as_ref().expect("cxl target on cxl platform");
            let lat = p.cxl_latency_ns().expect("cxl latency");
            ((cxl.core_write.as_gb_per_s() * lat / LINE).ceil() as u32).max(1)
        } else {
            p.mlp.core_write_outstanding
        };
        let mlp = Pattern::effective_mlp(self.pattern, read_cap);
        let hw = if self.nic.is_some() {
            p.nic.as_ref().map_or(1, |n| n.outstanding)
        } else {
            self.cores.len() as u32 * if self.op.is_write() { write_cap } else { mlp }
        };
        let max = match self.demand.peak() {
            Some(bw) => {
                let bdp_lines = (bw.as_gb_per_s() * unloaded_ns * BUDGET_HEADROOM) / LINE;
                (bdp_lines.ceil() as u32).clamp(2, hw.max(2))
            }
            None => hw.max(1),
        };
        IssueBudget {
            read_cap,
            write_cap,
            mlp,
            hw,
            max,
        }
    }

    /// The flow's analytic accounting over the window `[from, to)` when
    /// `cache` serves it, or `None` when it runs on the fabric. A core flow
    /// of reads or temporal writes whose working set a cache level holds
    /// makes no fabric traffic: each core completes one line per hit
    /// latency, and the flow achieves the window's time-average of
    /// min(demand, that hardware rate), counting nothing before its start
    /// or after its stop. Non-temporal writes bypass the hierarchy and DMA
    /// flows never enter it. The event engine reports this and the DSE
    /// estimator prices it.
    pub(crate) fn cache_resident(
        &self,
        cache: &CacheHierarchy,
        from: SimTime,
        to: SimTime,
    ) -> Option<CacheResident> {
        if self.nic.is_some() || self.op == OpKind::WriteNonTemporal {
            return None;
        }
        let latency_ns = cache.hit_latency_ns(cache.level_for(self.working_set))?;
        let per_core = Bandwidth::from_gb_per_s(LINE / latency_ns);
        let hw = Bandwidth::from_gb_per_s(per_core.as_gb_per_s() * self.cores.len() as f64);
        let rate = |d: Option<Bandwidth>| d.map_or(hw, |d| d.min(hw));
        // Active through a window inside one demand piece, the flow charges
        // that piece's rate as it stands; otherwise each piece's share of
        // the span it is active in.
        let (on, off) = (self.start.max(from), self.stop_or(to).min(to));
        let demand = &self.demand;
        let achieved =
            if (on, off) == (from, to) && demand.next_change_after(from).is_none_or(|t| t >= to) {
                rate(demand.at(from))
            } else {
                let pieces = demand.pieces();
                let mut bytes_ns_per_s = 0.0;
                for (i, &(start, d)) in pieces.iter().enumerate() {
                    let lo = start.max(on);
                    let hi = pieces.get(i + 1).map_or(off, |p| p.0.min(off));
                    if hi > lo {
                        bytes_ns_per_s += rate(d).as_bytes_per_s() * (hi - lo).as_nanos() as f64;
                    }
                }
                // An empty window (a spec the engine rejects) charges nothing.
                Bandwidth::from_bytes_per_s(bytes_ns_per_s / (to - from).as_nanos().max(1) as f64)
            };
        Some(CacheResident {
            latency_ns,
            achieved,
        })
    }
}

/// Cacheline size in bytes, as an f64 for rate arithmetic (GB/s ≡ bytes/ns).
const LINE: f64 = 64.0;

/// In-flight budget headroom for rate-gated flows, × offered BDP. Larger
/// values let saturated flows queue deeper (a stronger latency rise at the
/// Figure 3 knee) but also push per-flow budgets into the hardware-MLP
/// clamp, which flattens Figure 4's demand-proportional sharing; 1.3
/// balances the two.
const BUDGET_HEADROOM: f64 = 1.3;

/// A flow's issue limits, the §3.4 BDP model that the event engine
/// enforces and the DSE estimator prices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IssueBudget {
    /// Outstanding reads per core: the CXL or DRAM MLP.
    pub read_cap: u32,
    /// Outstanding posted writes per core; to CXL, the device's write
    /// bandwidth-delay product in lines.
    pub write_cap: u32,
    /// `read_cap` as the flow's access pattern exploits it.
    pub mlp: u32,
    /// The hardware budget: every issuer's slots for the flow's operation
    /// (a NIC's outstanding DMA requests).
    pub hw: u32,
    /// The flow's in-flight budget (`budget_max`): its peak demand's BDP
    /// with headroom, clamped to `[2, hw]`, or `hw` when unthrottled.
    pub max: u32,
}

/// A cache-resident flow's accounting (see [`FlowSpec::cache_resident`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CacheResident {
    /// The serving level's hit latency, ns.
    pub latency_ns: f64,
    /// The window's time-average of min(demand, hardware rate).
    pub achieved: Bandwidth,
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
                demand: DemandSchedule::constant(None),
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

    /// Throttles the flow to a constant total offered load.
    pub fn offered(mut self, bw: Bandwidth) -> Self {
        self.spec.demand = DemandSchedule::constant(Some(bw));
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

    fn topo() -> Topology {
        Topology::build(&PlatformSpec::epyc_9634())
    }

    #[test]
    fn builder_defaults() {
        let t = topo();
        let f = FlowSpec::reads("r", vec![CoreId(0)], Target::all_dimms(&t)).build(&t);
        assert_eq!(f.op, OpKind::Read);
        assert_eq!(f.pattern, Pattern::Sequential);
        assert_eq!(f.demand, DemandSchedule::constant(None));
        assert_eq!(f.start, SimTime::ZERO);
    }

    #[test]
    fn per_core_offered_split() {
        let t = topo();
        let f = FlowSpec::reads("r", vec![CoreId(0), CoreId(1)], Target::all_dimms(&t))
            .offered(Bandwidth::from_gb_per_s(10.0))
            .build(&t);
        let per = f.demand_per_issuer_at(SimTime::ZERO).unwrap();
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
    fn cache_resident_flows_follow_the_working_set() {
        let t = Topology::build(&PlatformSpec::epyc_7302());
        let cache = CacheHierarchy::from_spec(&t.spec().cache);
        let resident = |op, ws| {
            let f = FlowSpec::reads("r", vec![CoreId(0)], Target::all_dimms(&t))
                .op(op)
                .working_set(ws)
                .build(&t);
            f.cache_resident(&cache, SimTime::ZERO, SimTime::from_micros(10))
                .map(|r| (r.latency_ns, r.achieved))
        };
        // 16 KiB sits in L1: one line per 1.24 ns hit.
        let l1 = resident(OpKind::Read, ByteSize::from_kib(16));
        assert_eq!(l1.map(|r| r.0), Some(1.24));
        // Temporal writes cache like reads; 1 GiB escapes to the fabric.
        let mib4 = ByteSize::from_mib(4);
        assert_eq!(
            resident(OpKind::WriteTemporal, mib4),
            resident(OpKind::Read, mib4)
        );
        assert!(resident(OpKind::Read, mib4).is_some());
        assert!(resident(OpKind::Read, ByteSize::from_gib(1)).is_none());
    }

    #[test]
    fn nt_writes_and_dma_always_run_on_the_fabric() {
        let t = Topology::build(
            &PlatformSpec::epyc_9634().with_nic(chiplet_topology::NicSpec::gbe400()),
        );
        let cache = CacheHierarchy::from_spec(&t.spec().cache);
        let ws = ByteSize::from_kib(4);
        let (from, to) = (SimTime::ZERO, SimTime::from_micros(10));
        let nt = FlowSpec::writes("w", vec![CoreId(0)], Target::all_dimms(&t))
            .working_set(ws)
            .build(&t);
        assert!(nt.cache_resident(&cache, from, to).is_none());
        let dma = FlowSpec::nic_dma_read("d", 0, Target::all_dimms(&t))
            .working_set(ws)
            .build(&t);
        assert!(dma.cache_resident(&cache, from, to).is_none());
    }

    #[test]
    fn cxl_target_on_9634_ok() {
        let t = topo();
        let f = FlowSpec::reads("r", vec![CoreId(0)], Target::Cxl(2)).build(&t);
        assert!(f.target.is_cxl());
    }
}
