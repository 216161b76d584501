//! The analytical design estimator: closed-form latency / bandwidth / cost
//! proxies for one candidate design, ~1000x cheaper than a DES run.
//!
//! The estimator mirrors the event engine's *structure* without its
//! queueing dynamics:
//!
//! * **Unloaded latency** comes from real route hop walks —
//!   [`StagePlan::to_dimm`] / [`StagePlan::to_cxl`] / [`StagePlan::nic_to_dimm`]
//!   over [`Topology::route_core_to_dimm`]-class BFS routes — but only one
//!   walk per *symmetry class*: all cores of a CCD share routes, all CCDs of
//!   a quadrant share route shapes, and all DIMMs of a quadrant are
//!   equidistant, so one (source-quadrant, target-quadrant) representative
//!   pair stands for the whole class. Class means are exact, not sampled.
//! * **Bandwidth** is a one-shot weighted max-min over the design's
//!   capacity points ([`weighted_allocate_dense`], the one max-min solver the
//!   engine's traffic policies use per epoch). Each flow's demand is
//!   clamped by its MLP Little bound (`issuers × effective_mlp × 64 B /
//!   unloaded_ns`), which is how the engine's per-core slot budgets bound
//!   throughput.
//! * **Loaded latency** follows the engine's in-flight budget: a flow whose
//!   allocation meets its demand sits at its unloaded latency; a congested
//!   flow queues its whole budget, `latency = budget_lines × 64 B / rate`
//!   (Little's law over the engine's `budget_max` formula, headroom 1.3).
//! * **Cost** is a closed-form silicon proxy over the platform spec
//!   ([`cost_proxy`]), so the Pareto frontier has a third axis to trade.
//!
//! An estimate runs in two passes. [`DesignShape::new`] does everything
//! that depends on the graph only: it compiles the flows, walks the class
//! routes, and builds footprints, demands, budgets and unloaded latencies,
//! keeping for each capacity point a reference to where its capacity lives
//! rather than the number. [`DesignShape::score`] then reads those
//! capacities off a platform, runs the one max-min solve, and prices the
//! platform. Designs that differ only in capacities (the DSE's scale axes)
//! share one shape; [`estimate_on`] is the two passes back to back.
//!
//! Validated against the DES reports of every event-engine registry
//! scenario in `crates/bench/tests/dse_validation.rs`; the documented
//! envelope lives there and in EXPERIMENTS.md.

use chiplet_fluid::alloc::{weighted_allocate_dense, DenseAllocScratch};
use chiplet_mem::{AccessOutcome, CacheHierarchy, Pattern};
use chiplet_topology::{CcdId, CoreId, DimmId, LinkKind, PlatformSpec, Topology, UmcId};

use crate::engine::plan::{StagePlan, StageRef};
use crate::flow::{FlowSpec, Target};
use crate::scenario::{ScenarioError, ScenarioSpec};
use crate::traffic::TrafficPolicy;

/// Cacheline size in bytes, as an f64 for rate arithmetic (GB/s ≡ bytes/ns).
const LINE: f64 = 64.0;

/// The engine's default in-flight budget headroom (×BDP) for throttled
/// flows; see `EngineConfig::budget_headroom`.
const BUDGET_HEADROOM: f64 = 1.3;

fn invalid<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Invalid(msg.into()))
}

/// Per-flow analytical estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEstimate {
    /// Flow name.
    pub name: String,
    /// Offered load, GB/s; `None` = unthrottled.
    pub offered_gb_s: Option<f64>,
    /// Bandwidth proxy: the flow's share of the one-shot max-min, GB/s.
    pub achieved_gb_s: f64,
    /// Latency proxy, ns.
    pub latency_ns: f64,
    /// Unloaded route latency (class-weighted mean), ns.
    pub unloaded_ns: f64,
    /// False for cache-resident flows (no fabric traffic).
    pub fabric: bool,
}

/// The three Pareto axes plus per-flow detail for one candidate design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignEstimate {
    /// Latency proxy: achieved-weighted mean over fabric flows, ns.
    pub latency_ns: f64,
    /// Bandwidth proxy: total achieved over all flows, GB/s.
    pub bandwidth_gb_s: f64,
    /// Cost proxy ([`cost_proxy`] of the platform), unitless.
    pub cost: f64,
    /// Per-flow detail, in spec order.
    pub flows: Vec<FlowEstimate>,
}

/// Closed-form silicon-cost proxy of a platform: cores, chiplet count and
/// GMI phy bandwidth, NoC switch area, memory controllers and their
/// bandwidth, and CXL attach points. Unitless (roughly "core equivalents");
/// only *relative* cost matters for frontier extraction. The exact formula
/// is documented in EXPERIMENTS.md §Design-space exploration.
pub fn cost_proxy(p: &PlatformSpec) -> f64 {
    let cores = (p.ccd_count * p.ccx_per_ccd * p.cores_per_ccx) as f64;
    let (cols, rows) = p.quadrant_grid;
    let switches = ((2 * cols as u32).saturating_sub(1) * rows as u32) as f64;
    let gmi = p.caps.gmi_read.as_gb_per_s() + p.caps.gmi_write.as_gb_per_s();
    let noc = p.caps.noc_read.as_gb_per_s() + p.caps.noc_write.as_gb_per_s();
    let umc = p.mem.umc_read_bw.as_gb_per_s() + p.mem.umc_write_bw.as_gb_per_s();
    let cxl = p.cxl.as_ref().map_or(0.0, |c| {
        c.device_count as f64
            * (5.0 + 0.02 * (c.plink_read.as_gb_per_s() + c.plink_write.as_gb_per_s()))
    });
    let per_socket = cores
        + p.ccd_count as f64 * (2.0 + 0.05 * gmi)
        + switches * 1.5
        + if p.noc.diagonal_express { 2.0 } else { 0.0 }
        + 0.01 * noc
        + p.mem.umc_count as f64 * (3.0 + 0.05 * umc)
        + cxl;
    per_socket * p.socket_count as f64
}

/// Synthetic capacity-point classes. Keys are stable per design (they
/// derive from entity indices, not route order), so flows sharing a
/// physical point — a CCD's GMI phy, a socket NoC, a UMC channel — contend
/// in the max-min exactly as they do in the engine.
#[derive(Debug, Clone, Copy)]
enum PointClass {
    /// Per-flow aggregate of its private per-core ports.
    PrivCore,
    /// Per-flow aggregate of its private CCX limiter links.
    PrivCcx,
    /// A CCD's GMI phy.
    Gmi,
    /// A socket's NoC routing capacity.
    Noc,
    /// A UMC channel.
    Mem,
    /// The inter-socket xGMI fabric.
    Xgmi,
    /// A socket's serialized P-Link aggregate (CXL).
    Hub,
    /// A CCD's CXL port.
    CxlPort,
    /// A NIC's PCIe lane group.
    Pcie,
}

fn point_key(class: PointClass, entity: u64, write: bool) -> u64 {
    let c = match class {
        PointClass::PrivCore => 0u64,
        PointClass::PrivCcx => 1,
        PointClass::Gmi => 2,
        PointClass::Noc => 3,
        PointClass::Mem => 4,
        PointClass::Xgmi => 5,
        PointClass::Hub => 6,
        PointClass::CxlPort => 7,
        PointClass::Pcie => 8,
    };
    (c << 48) | ((write as u64) << 40) | entity
}

/// Where a capacity point's capacity lives on a platform: a link kind's
/// caps ([`LinkKind::caps`]; the UMC channel is [`LinkKind::MemChannel`]),
/// the socket NoC's, or the per-CCD CXL port's.
#[derive(Debug, Clone, Copy)]
enum CapSource {
    Link(LinkKind),
    Noc,
    CxlPort,
}

/// A capacity point's capacity, by reference: its source, the flow
/// direction, and the private-aggregate multiplier (the flow's issuing
/// cores or CCXs for its per-core/per-CCX aggregates, 1 elsewhere). Shapes
/// keep these instead of numbers, so one shape scores every platform that
/// differs from it only in capacities.
#[derive(Debug, Clone, Copy)]
struct CapRef {
    source: CapSource,
    write: bool,
    scale: f64,
}

impl CapRef {
    /// The capacity on `p`, GB/s.
    fn gb_s(&self, p: &PlatformSpec) -> f64 {
        let (read, write) = match self.source {
            CapSource::Link(kind) => kind
                .caps(p)
                .expect("a shape's capped link kinds stay capped on its platforms"),
            CapSource::Noc => (p.caps.noc_read, p.caps.noc_write),
            CapSource::CxlPort => {
                let cxl = p
                    .cxl
                    .as_ref()
                    .expect("a shape with CXL routes scores CXL platforms");
                (cxl.ccd_read, cxl.ccd_write)
            }
        };
        let cap = if self.write { write } else { read };
        cap.as_gb_per_s() * self.scale
    }
}

/// One stage of a symmetry-class route template: the class, where its
/// capacity lives, and the wire-byte multiplier (68/64 for FLIT-framed CXL
/// stages). Uncapped stages are dropped when the template is built.
#[derive(Debug, Clone, Copy)]
struct TemplateStage {
    class: PointClass,
    entity: u64,
    cap: CapSource,
    byte_scale: f64,
}

/// Route-template memo across flows of one candidate: symmetry classes are
/// a property of the topology, not the flow. Keyed by (class, direction),
/// so each direction walks its own representative route. A linear-scanned
/// Vec — a candidate has under a dozen classes, and hashing was measurable
/// on the estimator's hot path.
type TemplateMemo = Vec<((u64, u64), (f64, Vec<TemplateStage>))>;

/// A linear-scan capacity-point interner: the estimator's replacement for
/// `ResourceArena` on its hot path. A candidate has a few dozen points, so
/// scanning a flat Vec beats hashing every interning.
#[derive(Default)]
struct PointArena {
    keys: Vec<u64>,
    caps: Vec<CapRef>,
}

impl PointArena {
    /// The dense index for `key`, interning it with `cap` on first sight
    /// (later caps are ignored: a key names one point in one direction, so
    /// every flow passes the same capacity for it).
    fn intern(&mut self, key: u64, cap: CapRef) -> u32 {
        match self.keys.iter().position(|&k| k == key) {
            Some(i) => i as u32,
            None => {
                self.keys.push(key);
                self.caps.push(cap);
                (self.keys.len() - 1) as u32
            }
        }
    }
}

/// The memoized `(unloaded_ns, template)` for `key`, walking a route via
/// `miss` on first sight.
fn memo_entry(
    memo: &mut TemplateMemo,
    key: (u64, u64),
    miss: impl FnOnce() -> (f64, Vec<TemplateStage>),
) -> &(f64, Vec<TemplateStage>) {
    match memo.iter().position(|(k, _)| *k == key) {
        Some(i) => &memo[i].1,
        None => {
            memo.push((key, miss()));
            &memo.last().expect("just pushed").1
        }
    }
}

/// Turns a compiled [`StagePlan`] into a class-level template. `Mem` stages
/// are kept (the caller redistributes them per target DIMM); `Gmi` /
/// `CxlPort` stages are tagged so the caller can redistribute them over the
/// CCDs of the source quadrant group. Templates hold no capacities and no
/// direction: both are applied when the template is spread.
fn template_of(topo: &Topology, plan: &StagePlan) -> Vec<TemplateStage> {
    let pspec = topo.spec();
    let mut out = Vec::with_capacity(plan.stages.len());
    for s in &plan.stages {
        let byte_scale = s.bytes as f64 / LINE;
        let (class, entity, cap) = match s.point {
            StageRef::SocketNoc(sk) => (PointClass::Noc, sk as u64, CapSource::Noc),
            // Redistributed per CCD by the caller.
            StageRef::CxlPort(_) if pspec.cxl.is_some() => {
                (PointClass::CxlPort, 0, CapSource::CxlPort)
            }
            StageRef::CxlPort(_) => continue,
            StageRef::Link(l) => {
                let kind = topo.links()[l as usize].kind;
                let class = match kind {
                    LinkKind::CoreL3 => PointClass::PrivCore,
                    LinkKind::L3Tc => PointClass::PrivCcx,
                    LinkKind::Gmi => PointClass::Gmi, // redistributed
                    LinkKind::MemChannel => PointClass::Mem, // redistributed
                    LinkKind::Xgmi => PointClass::Xgmi,
                    LinkKind::HubRc => PointClass::Hub,
                    LinkKind::PcieLane => PointClass::Pcie,
                    // Plans carry capped links only, and these kinds are
                    // never capped.
                    _ => continue,
                };
                (class, 0, CapSource::Link(kind))
            }
        };
        out.push(TemplateStage {
            class,
            entity,
            cap,
            byte_scale,
        });
    }
    out
}

/// One fabric flow's allocator-facing state.
#[derive(Debug, Clone)]
struct FlowAlloc {
    demand: f64,
    weight: f64,
    footprint: Vec<(u32, f64)>,
    unloaded_ns: f64,
    budget_lines: f64,
}

/// Groups a flow's cores by CCD, preserving CCD order: `(ccd, rep core,
/// core count, distinct CCX count)`. Linear scans over a flat Vec — flows
/// touch a handful of CCDs, and this sits on the DSE estimator's hot path.
fn group_by_ccd(topo: &Topology, cores: &[CoreId]) -> Vec<(CcdId, CoreId, u32, u32)> {
    // (ccd, rep core = first seen, core count, distinct ccx ids)
    let mut groups: Vec<(u32, CoreId, u32, Vec<u32>)> = Vec::new();
    for &c in cores {
        let ccd = topo.ccd_of_core(c).0;
        let ccx = c.0 / topo.spec().cores_per_ccx;
        match groups.iter_mut().find(|g| g.0 == ccd) {
            Some(g) => {
                g.2 += 1;
                if !g.3.contains(&ccx) {
                    g.3.push(ccx);
                }
            }
            None => groups.push((ccd, c, 1, vec![ccx])),
        }
    }
    groups.sort_unstable_by_key(|g| g.0);
    groups
        .into_iter()
        .map(|(ccd, rep, k, ccxs)| (CcdId(ccd), rep, k, ccxs.len() as u32))
        .collect()
}

/// Buckets target DIMMs by symmetry-class key: `(key, count, rep = first
/// seen)`, sorted by key — the order the ordered-map implementation this
/// replaces iterated in.
fn classify(ds: &[DimmId], key_of: impl Fn(DimmId) -> u64) -> Vec<(u64, u32, DimmId)> {
    let mut classes: Vec<(u64, u32, DimmId)> = Vec::new();
    for &d in ds {
        let q = key_of(d);
        match classes.iter_mut().find(|c| c.0 == q) {
            Some(c) => c.1 += 1,
            None => classes.push((q, 1, d)),
        }
    }
    classes.sort_unstable_by_key(|c| c.0);
    classes
}

/// Scores one candidate design: builds its topology once, walks one route
/// per symmetry class, and runs a single max-min allocation over the
/// design's capacity points. Returns `Err` for infeasible candidates (a
/// workload flow that does not map onto the topology).
pub fn estimate_design(spec: &ScenarioSpec) -> Result<DesignEstimate, ScenarioError> {
    estimate_platform(spec, &spec.topology.platform()?)
}

/// [`estimate_design`] of `spec`'s workload on `platform` in place of
/// `spec.topology`. The estimate reads only the flows and the policy, so a
/// search scores a candidate without building its spec.
pub fn estimate_platform(
    spec: &ScenarioSpec,
    platform: &PlatformSpec,
) -> Result<DesignEstimate, ScenarioError> {
    Ok(DesignShape::of_platform(spec, platform)?.score(platform))
}

/// [`estimate_design`] over an already-built topology (the validation tests
/// reuse one build across proxies and DES runs).
pub fn estimate_on(spec: &ScenarioSpec, topo: &Topology) -> Result<DesignEstimate, ScenarioError> {
    Ok(DesignShape::new(spec, topo)?.score(topo.spec()))
}

/// The capacity-independent half of an estimate: a workload compiled onto
/// one design's graph. It holds the per-flow routes' unloaded latencies,
/// footprints, demands and in-flight budgets, and for each capacity point
/// a reference to where its capacity lives. [`DesignShape::score`] prices
/// it on any platform that differs from the shape's own only in
/// capacities: the GMI, NoC and UMC read/write bandwidths the DSE's scale
/// axes vary.
#[derive(Debug, Clone)]
pub struct DesignShape {
    /// Per-flow estimates before allocation, in spec order: fabric flows at
    /// zero bandwidth and their unloaded latency.
    flows: Vec<FlowEstimate>,
    /// Allocator inputs of the fabric flows: (spec index, state).
    allocs: Vec<(usize, FlowAlloc)>,
    /// The fabric flows' demands, in `allocs` order.
    demands: Vec<f64>,
    /// Interned capacity points, by dense index.
    points: Vec<CapRef>,
}

impl DesignShape {
    /// Compiles `spec`'s workload onto `topo`: walks one route per symmetry
    /// class and builds every flow's allocator inputs. Returns `Err` when a
    /// flow does not map onto the topology or there are no flows.
    pub fn new(spec: &ScenarioSpec, topo: &Topology) -> Result<Self, ScenarioError> {
        let cache = CacheHierarchy::from_spec(&topo.spec().cache);
        let mut arena = PointArena::default();
        let mut memo = TemplateMemo::new();
        let mut flows: Vec<FlowEstimate> = Vec::with_capacity(spec.flows.len());
        let mut allocs: Vec<(usize, FlowAlloc)> = Vec::new();

        for (i, sflow) in spec.flows.iter().enumerate() {
            let fs = spec.compile_flow(sflow, topo)?;
            let outcome = AccessOutcome::resolve(&cache, fs.op, fs.working_set);
            let offered = fs.peak_demand().map(|b| b.as_gb_per_s());

            // Cache-resident core flows: the engine accounts these
            // analytically too (one line per hit latency per core); mirror
            // it exactly.
            if let (AccessOutcome::CacheHit { latency_ns, .. }, None) = (outcome, fs.nic) {
                let hw = (LINE / latency_ns) * fs.cores.len() as f64;
                let achieved = offered.map_or(hw, |o| o.min(hw));
                flows.push(FlowEstimate {
                    name: fs.name.clone(),
                    offered_gb_s: offered,
                    achieved_gb_s: achieved,
                    latency_ns,
                    unloaded_ns: latency_ns,
                    fabric: false,
                });
                continue;
            }

            let state = fabric_flow_alloc(&fs, topo, &mut arena, &mut memo, i, &spec.policy)?;
            flows.push(FlowEstimate {
                name: fs.name.clone(),
                offered_gb_s: offered,
                achieved_gb_s: 0.0, // filled by `score`
                latency_ns: state.unloaded_ns,
                unloaded_ns: state.unloaded_ns,
                fabric: true,
            });
            allocs.push((i, state));
        }
        if flows.is_empty() {
            return invalid("scenario has no flows to estimate");
        }
        Ok(DesignShape {
            flows,
            demands: allocs.iter().map(|(_, a)| a.demand).collect(),
            allocs,
            points: arena.caps,
        })
    }

    /// [`DesignShape::new`] on `platform`'s topology, once the platform
    /// passes [`PlatformSpec::check_buildable`].
    pub fn of_platform(
        spec: &ScenarioSpec,
        platform: &PlatformSpec,
    ) -> Result<Self, ScenarioError> {
        platform.check_buildable()?;
        Self::new(spec, &Topology::build(platform))
    }

    /// Prices the shape on `platform`: reads each capacity point's
    /// capacity, runs one weighted max-min over every fabric flow, derives
    /// the loaded latencies, and adds [`cost_proxy`]. `platform` must share
    /// the shape's structure (counts, grid, devices, latencies); only its
    /// capacities may differ.
    pub fn score(&self, platform: &PlatformSpec) -> DesignEstimate {
        let mut flows = self.flows.clone();
        if !self.allocs.is_empty() {
            let capacities: Vec<f64> = self.points.iter().map(|c| c.gb_s(platform)).collect();
            let mut scratch = DenseAllocScratch::default();
            let mut rates = Vec::new();
            weighted_allocate_dense(
                &self.demands,
                |k| self.allocs[k].1.weight,
                |k| self.allocs[k].1.footprint.as_slice(),
                &capacities,
                &mut scratch,
                &mut rates,
            );
            for ((i, a), rate) in self.allocs.iter().zip(&rates) {
                let f = &mut flows[*i];
                f.achieved_gb_s = *rate;
                // Demand met ⇒ unloaded latency. Congested ⇒ the whole
                // in-flight budget queues: Little's law over the engine's
                // budget_max.
                f.latency_ns = if *rate + 1e-9 >= a.demand || *rate <= 0.0 {
                    a.unloaded_ns
                } else {
                    (a.budget_lines * LINE / *rate).max(a.unloaded_ns)
                };
            }
        }

        let fabric_bw: f64 = flows
            .iter()
            .filter(|f| f.fabric)
            .map(|f| f.achieved_gb_s)
            .sum();
        let latency_ns = if fabric_bw > 0.0 {
            flows
                .iter()
                .filter(|f| f.fabric)
                .map(|f| f.achieved_gb_s * f.latency_ns)
                .sum::<f64>()
                / fabric_bw
        } else {
            flows.iter().map(|f| f.latency_ns).sum::<f64>() / flows.len() as f64
        };
        let bandwidth_gb_s = flows.iter().map(|f| f.achieved_gb_s).sum();
        DesignEstimate {
            latency_ns,
            bandwidth_gb_s,
            cost: cost_proxy(platform),
            flows,
        }
    }
}

/// Builds one fabric-bound flow's allocator state: class-weighted unloaded
/// latency, capacity-point footprint, MLP-clamped demand, and in-flight
/// budget.
fn fabric_flow_alloc(
    fs: &FlowSpec,
    topo: &Topology,
    arena: &mut PointArena,
    memo: &mut TemplateMemo,
    flow_idx: usize,
    policy: &TrafficPolicy,
) -> Result<FlowAlloc, ScenarioError> {
    let pspec = topo.spec();
    let write = fs.op.is_write();
    let is_cxl = fs.target.is_cxl();

    // `(key, fraction, cap)` accumulation: linear-scanned (a flow touches a
    // few dozen points at most), sorted by key before interning so the
    // footprint order — and thus every float summation downstream — is
    // identical to the ordered-map implementation this replaces.
    let mut fracs: Vec<(u64, f64, CapRef)> = Vec::new();
    let mut add = |key: u64, frac: f64, cap: CapRef| match fracs.iter_mut().find(|e| e.0 == key) {
        Some(e) => e.1 += frac,
        None => fracs.push((key, frac, cap)),
    };

    let (groups, k_total, x_total) = if fs.nic.is_some() {
        (Vec::new(), 1u32, 1u32)
    } else {
        let groups = group_by_ccd(topo, &fs.cores);
        let k: u32 = groups.iter().map(|g| g.2).sum();
        let x: u32 = groups.iter().map(|g| g.3).sum();
        (groups, k, x)
    };

    let mut unloaded_sum = 0.0;
    let mut weight_sum = 0.0;

    // Walk one route per symmetry class and spread its template over the
    // entities of the class.
    match (&fs.target, fs.nic) {
        (Target::Dimms(ds), nic) => {
            let n_t = ds.len().max(1) as f64;
            if let Some(nic) = nic {
                // DMA flows: one route per target quadrant.
                let classes = classify(ds, |d| quadrant_key(topo, d));
                for (_, count, rep) in classes {
                    let plan = StagePlan::nic_to_dimm(topo, nic, rep);
                    let w = count as f64 / n_t;
                    unloaded_sum += w * plan.unloaded_ns;
                    weight_sum += w;
                    let template = template_of(topo, &plan);
                    apply_template(&template, w, write, u32::MAX, 1, 1, flow_idx, &mut add);
                }
            } else {
                for (ccd, rep_core, k_c, _) in &groups {
                    // Classify this CCD's targets by quadrant distance.
                    let classes = classify(ds, |d| pair_key(topo, *rep_core, d));
                    for (pair, count, rep_dimm) in classes {
                        let (unloaded, template) = memo_entry(memo, (pair, write as u64), || {
                            let plan = StagePlan::to_dimm(topo, *rep_core, rep_dimm);
                            (plan.unloaded_ns, template_of(topo, &plan))
                        });
                        let w = (*k_c as f64 * count as f64) / (k_total as f64 * n_t);
                        unloaded_sum += w * *unloaded;
                        weight_sum += w;
                        apply_template(
                            template, w, write, ccd.0, k_total, x_total, flow_idx, &mut add,
                        );
                    }
                }
            }
            // Interleave spreads the flow evenly over its target DIMMs
            // (DMA and core flows alike).
            let umc = CapRef {
                source: CapSource::Link(LinkKind::MemChannel),
                write,
                scale: 1.0,
            };
            for &d in ds {
                add(
                    point_key(PointClass::Mem, d.0 as u64, write),
                    1.0 / n_t,
                    umc,
                );
            }
        }
        (Target::Cxl(dev), None) => {
            for (ccd, rep_core, k_c, _) in &groups {
                let pair = (1u64 << 60) | quadrant_of_core(topo, *rep_core);
                let (unloaded, template) = memo_entry(memo, (pair, write as u64), || {
                    let plan = StagePlan::to_cxl(topo, *rep_core, *dev);
                    (plan.unloaded_ns, template_of(topo, &plan))
                });
                let w = *k_c as f64 / k_total as f64;
                unloaded_sum += w * *unloaded;
                weight_sum += w;
                apply_template(
                    template, w, write, ccd.0, k_total, x_total, flow_idx, &mut add,
                );
            }
        }
        (Target::Cxl(_), Some(_)) => {
            return invalid(format!("flow '{}': NIC DMA cannot target CXL", fs.name))
        }
    }

    let unloaded_ns = if weight_sum > 0.0 {
        unloaded_sum / weight_sum
    } else {
        return invalid(format!("flow '{}' has no routes", fs.name));
    };

    // MLP budgets — the engine's add_flow formulas verbatim.
    let (budget_lines, mlp_bound) = {
        let read_cap = if is_cxl {
            pspec.mlp.cxl_core_read_outstanding
        } else {
            pspec.mlp.core_read_outstanding
        };
        let write_cap = if is_cxl {
            let cxl = pspec.cxl.as_ref().expect("cxl target on cxl platform");
            let lat = pspec.cxl_latency_ns().expect("cxl latency");
            ((cxl.core_write.as_gb_per_s() * lat / LINE).ceil() as u32).max(1)
        } else {
            pspec.mlp.core_write_outstanding
        };
        let mlp = Pattern::effective_mlp(fs.pattern, read_cap);
        let hw = if fs.nic.is_some() {
            pspec.nic.as_ref().map(|n| n.outstanding).unwrap_or(1)
        } else {
            fs.cores.len() as u32 * if write { write_cap } else { mlp }
        };
        let budget = match fs.peak_demand() {
            Some(bw) => {
                let bdp = (bw.as_gb_per_s() * unloaded_ns * BUDGET_HEADROOM) / LINE;
                (bdp.ceil() as u32).clamp(2, hw.max(2))
            }
            None => hw.max(1),
        };
        (budget as f64, hw as f64 * LINE / unloaded_ns)
    };

    let mut demand = fs
        .peak_demand()
        .map(|b| b.as_gb_per_s())
        .unwrap_or(f64::INFINITY)
        .min(mlp_bound);
    let mut weight = 1.0;
    match policy {
        TrafficPolicy::WeightedFair { weights } => {
            weight = weights.get(flow_idx).copied().unwrap_or(1.0).max(1e-9);
        }
        TrafficPolicy::RateLimit { caps_gb_s } => {
            if let Some(cap) = caps_gb_s.get(flow_idx) {
                demand = demand.min(*cap);
            }
        }
        _ => {}
    }

    // Key order, exactly as the ordered map iterated.
    fracs.sort_unstable_by_key(|e| e.0);
    let footprint: Vec<(u32, f64)> = fracs
        .into_iter()
        .map(|(key, frac, cap)| (arena.intern(key, cap), frac))
        .collect();

    Ok(FlowAlloc {
        demand,
        weight,
        footprint,
        unloaded_ns,
        budget_lines,
    })
}

/// Spreads one class template over the entities it stands for: private
/// core/CCX stages aggregate into per-flow keys whose capacity is
/// multiplied by the flow's core/CCX count, `Gmi`/`CxlPort` stages land on
/// the class's CCD, `Mem` stages are skipped (redistributed analytically by
/// the caller), and global stages (NoC, xGMI, hub, PCIe) take the class
/// weight directly.
#[allow(clippy::too_many_arguments)]
fn apply_template(
    template: &[TemplateStage],
    w: f64,
    write: bool,
    ccd: u32,
    k_total: u32,
    x_total: u32,
    flow_idx: usize,
    add: &mut impl FnMut(u64, f64, CapRef),
) {
    for s in template {
        let frac = w * s.byte_scale;
        let cap = |scale: f64| CapRef {
            source: s.cap,
            write,
            scale,
        };
        match s.class {
            // Private per-flow aggregates carry no direction bit: the key
            // already names the flow.
            PointClass::PrivCore => add(
                point_key(PointClass::PrivCore, flow_idx as u64, false),
                frac,
                cap(k_total as f64),
            ),
            PointClass::PrivCcx => add(
                point_key(PointClass::PrivCcx, flow_idx as u64, false),
                frac,
                cap(x_total as f64),
            ),
            PointClass::Gmi | PointClass::CxlPort => {
                add(point_key(s.class, ccd as u64, write), frac, cap(1.0))
            }
            PointClass::Mem => {} // redistributed per target DIMM
            PointClass::Noc | PointClass::Xgmi | PointClass::Hub | PointClass::Pcie => {
                add(point_key(s.class, s.entity, write), frac, cap(1.0))
            }
        }
    }
}

/// Stable symmetry-class key of a (core, dimm) pair: the pair of quadrant
/// coordinates plus the socket-crossing bit.
fn pair_key(topo: &Topology, core: CoreId, dimm: DimmId) -> u64 {
    let qc = topo.quadrant_of_ccd(topo.ccd_of_core(core));
    let qu = topo.quadrant_of_umc(UmcId(dimm.0));
    let remote = (topo.socket_of_core(core) != topo.socket_of_umc(UmcId(dimm.0))) as u64;
    (remote << 32)
        | ((qc.col as u64) << 24)
        | ((qc.row as u64) << 16)
        | ((qu.col as u64) << 8)
        | qu.row as u64
}

/// Quadrant key of a DIMM (for NIC routes, whose source is fixed).
fn quadrant_key(topo: &Topology, dimm: DimmId) -> u64 {
    let q = topo.quadrant_of_umc(UmcId(dimm.0));
    let socket = topo.socket_of_umc(UmcId(dimm.0)) as u64;
    (socket << 32) | ((q.col as u64) << 8) | q.row as u64
}

/// Quadrant key of a core (for CXL routes, whose target is fixed).
fn quadrant_of_core(topo: &Topology, core: CoreId) -> u64 {
    let q = topo.quadrant_of_ccd(topo.ccd_of_core(core));
    let socket = topo.socket_of_core(core) as u64;
    (socket << 32) | ((q.col as u64) << 8) | q.row as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        BackendKind, CoreSelect, EngineFlow, EngineOptions, ScenarioFlow, TargetSpec,
        TopologyChoice,
    };
    use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimTime};

    fn event_spec(demand_gb_s: Option<f64>) -> ScenarioSpec {
        ScenarioSpec {
            name: "unit_dse_estimate".into(),
            description: String::new(),
            topology: TopologyChoice::Named("epyc_9634".into()),
            backend: BackendKind::Event,
            seed: Some(42),
            horizon: SimTime::from_micros(30),
            policy: Default::default(),
            engine: Some(EngineOptions {
                deterministic_memory: true,
                ..Default::default()
            }),
            fluid: None,
            flows: vec![ScenarioFlow {
                name: "probe".into(),
                demand: demand_gb_s
                    .map(|g| DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(g)))),
                engine: Some(EngineFlow {
                    cores: CoreSelect::Ccd(0),
                    nic: None,
                    target: TargetSpec::AllDimms,
                    op: None,
                    pattern: None,
                    working_set: Some(ByteSize::from_mib(64)),
                    start: None,
                    stop: None,
                }),
                links: Vec::new(),
            }],
        }
    }

    #[test]
    fn unloaded_latency_matches_engine_plan_mean() {
        let spec = event_spec(Some(4.0));
        let topo = spec.topology.resolve().unwrap();
        let est = estimate_on(&spec, &topo).unwrap();
        // Exhaustive mean over every (core, dimm) plan, the engine's way.
        let fs = spec.compile_flow(&spec.flows[0], &topo).unwrap();
        let Target::Dimms(ds) = &fs.target else {
            panic!()
        };
        let mut sum = 0.0;
        let mut n = 0.0;
        for &c in &fs.cores {
            for &d in ds {
                sum += StagePlan::to_dimm(&topo, c, d).unloaded_ns;
                n += 1.0;
            }
        }
        let exact = sum / n;
        let got = est.flows[0].unloaded_ns;
        assert!(
            (got - exact).abs() < 1e-6,
            "class-weighted unloaded mean {got} != exhaustive {exact}"
        );
    }

    #[test]
    fn throttled_flow_below_knee_is_demand_limited_at_unloaded_latency() {
        let est = estimate_design(&event_spec(Some(8.0))).unwrap();
        let f = &est.flows[0];
        assert!((f.achieved_gb_s - 8.0).abs() < 1e-9);
        assert!((f.latency_ns - f.unloaded_ns).abs() < 1e-9);
    }

    #[test]
    fn unthrottled_flow_saturates_the_gmi_phy() {
        let est = estimate_design(&event_spec(None)).unwrap();
        let f = &est.flows[0];
        // One CCD of the 9634 reading all DIMMs: the 33.2 GB/s GMI read phy
        // binds well before the NoC or the UMC aggregate.
        assert!(
            (f.achieved_gb_s - 33.2).abs() < 0.5,
            "achieved {} !~ 33.2",
            f.achieved_gb_s
        );
        assert!(f.latency_ns > f.unloaded_ns, "congested flow must queue");
    }

    #[test]
    fn congested_latency_follows_the_inflight_budget() {
        let est = estimate_design(&event_spec(None)).unwrap();
        let f = &est.flows[0];
        // hw budget = 7 cores × 34 lines; latency = budget × 64B / rate.
        let budget = 7.0 * 34.0 * 64.0;
        assert!((f.latency_ns - budget / f.achieved_gb_s).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_the_noc_max_min() {
        let mut spec = event_spec(None);
        spec.flows.push(ScenarioFlow {
            name: "rest".into(),
            demand: None,
            engine: Some(EngineFlow {
                cores: CoreSelect::Ccds((1..12).collect()),
                nic: None,
                target: TargetSpec::AllDimms,
                op: None,
                pattern: None,
                working_set: Some(ByteSize::from_mib(64)),
                start: None,
                stop: None,
            }),
            links: Vec::new(),
        });
        let est = estimate_design(&spec).unwrap();
        // Socket-wide: 12 GMI phys offer 12 × 33.2 = 398 GB/s, the NoC
        // read capacity 366.2 binds; no flow exceeds its own GMI share.
        assert!(est.bandwidth_gb_s < 12.0 * 33.2 + 1.0);
        assert!(est.bandwidth_gb_s > 300.0, "total {}", est.bandwidth_gb_s);
    }

    #[test]
    fn cache_resident_flow_matches_engine_accounting() {
        let mut spec = event_spec(None);
        if let Some(engine) = &mut spec.flows[0].engine {
            engine.working_set = Some(ByteSize::from_kib(16)); // L1-resident
        }
        let est = estimate_design(&spec).unwrap();
        let f = &est.flows[0];
        assert!(!f.fabric);
        // 7 cores, one line per L1 hit latency each.
        let per_core = 64.0 / 1.19;
        assert!((f.achieved_gb_s - 7.0 * per_core).abs() < 1e-6);
    }

    #[test]
    fn cost_proxy_orders_platforms_sensibly() {
        let small = cost_proxy(&PlatformSpec::epyc_7302());
        let big = cost_proxy(&PlatformSpec::epyc_9634());
        assert!(
            big > small,
            "9634 ({big}) must cost more than 7302 ({small})"
        );
        let mut cheap = PlatformSpec::epyc_9634();
        cheap.cxl = None;
        assert!(cost_proxy(&cheap) < big, "dropping CXL must cut cost");
    }
}
