//! The transaction-level chiplet networking engine.
//!
//! The engine composes the topology's capacity points into a closed-loop
//! queueing network and drives it with a deterministic discrete-event loop:
//!
//! * each flow's cores **issue** cacheline transactions, gated by (a) an
//!   optional offered-load pacer with exponential (Poisson) gaps — the
//!   NOP-rate-control analog, (b) per-core MLP budgets (reads) or
//!   write-combining budgets (posted writes), and (c) a per-flow in-flight
//!   budget that scales with offered load (an aggressive sender devotes
//!   proportionally more outstanding-request resources — §3.5's mechanism);
//! * transactions then acquire the CCX (and, on parts that have one, CCD)
//!   **token limiter** (§3.2's queueless traffic-control module, slots
//!   shared between reads and writes);
//! * and walk their [`plan::StagePlan`]: FIFO **bandwidth servers** at the
//!   core port, CCX link, GMI, socket NoC, UMC channel or CXL P-Link, in the
//!   read or write direction;
//! * **completion** releases all budgets and records telemetry.
//!
//! Latency = unloaded route latency + accumulated queueing waits + memory
//! device variability. Nothing in Figures 3–6 is scripted: knees, tails,
//! proportional shares, and interference onsets emerge from this loop.

pub mod plan;

use std::collections::BTreeMap;

use chiplet_fabric::{Dir, DirectionalChannel, SlotLimiter};
use chiplet_fluid::alloc::DenseAllocScratch;
use chiplet_mem::{AccessOutcome, CacheHierarchy, DramServiceModel, Pattern};
use chiplet_sim::stats::{BandwidthTrace, GaugeTrace, LatencyHistogram, SpanCollector};
use chiplet_sim::time::ceil_to_u64;
use chiplet_sim::{
    Bandwidth, ByteSize, DepthHistogram, DetRng, PhaseProfiler, SeriesHandle, SeriesKind,
    SimDuration, SimTime, WheelQueue,
};
use chiplet_topology::{CoreId, DimmId, PlatformKind, Topology};

use crate::flow::{FlowId, FlowSpec, Target};
use crate::telemetry::{
    CapacityPoint, DirStats, FlowTelemetry, LinkTelemetry, MatrixCell, TelemetryReport,
};
use crate::trace::{HopClass, TraceReport};
use crate::traffic::{ResourceArena, ResourceKey, TrafficPolicy};
use plan::{Stage, StagePlan, StageRef};

const LINE: u64 = 64;

/// Label for the trace-sampling RNG stream derived from the seed.
const TRACE_RNG_LABEL: u64 = 0x0074_7261_6365; // "trace"

/// Completed-span cap: bounds trace memory regardless of run length.
const SPAN_COLLECTOR_CAP: usize = 1 << 20;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// RNG seed; same seed ⇒ bit-identical run.
    pub seed: u64,
    /// Statistics are collected from `warmup` to the run horizon.
    pub warmup: SimDuration,
    /// DRAM service variability; `None` selects by platform (DDR4 for the
    /// 7302, DDR5 for the 9634, deterministic for custom/monolithic).
    pub dram: Option<DramServiceModel>,
    /// CXL device variability; `None` selects the CZ120-class default.
    pub cxl: Option<DramServiceModel>,
    /// Traffic-manager policy.
    pub policy: TrafficPolicy,
    /// In-flight budget headroom for rate-gated flows, × offered BDP.
    /// Larger values let saturated flows queue deeper (a stronger latency
    /// rise at the Figure 3 knee) but also push per-flow budgets into the
    /// hardware-MLP clamp, which flattens Figure 4's demand-proportional
    /// sharing; 1.3 balances the two.
    pub budget_headroom: f64,
    /// Attach the sketch-based profiler (§4 #5): one record per completed
    /// transaction, bounded memory, a [`crate::profiler::ProfileReport`]
    /// on the result.
    pub profile: bool,
    /// Record a per-flow bandwidth time series with this sampling window
    /// (the time-series half of §4 #5's telemetry). Also enables the
    /// per-capacity-point bandwidth and queue-backlog series on
    /// [`LinkTelemetry`].
    pub trace_window: Option<SimDuration>,
    /// Span-level hop tracing: sample 1 in N transactions (`Some(1)` =
    /// every transaction) and record timestamped hop events at every
    /// capacity point they cross. The sampling draw comes from an RNG
    /// stream derived from the seed but independent of the simulation's —
    /// enabling tracing never perturbs results, and the same seed yields
    /// the same sample set. The result carries a
    /// [`crate::trace::TraceReport`].
    pub trace_sampling: Option<u32>,
    /// Attach a [`crate::metrics::MetricsRegistry`] windowing histograms
    /// at this sim-time width: per-link bytes/waits and per-flow
    /// bytes/latency/completions land in it alongside the profiler, and
    /// the result carries the registry for OpenMetrics exposition.
    pub metrics_window: Option<SimDuration>,
    /// Self-profile the engine's own wall time: scoped phase timers around
    /// every event-handler class plus event-queue-depth and
    /// events-per-epoch histograms. The result carries a
    /// [`chiplet_sim::PhaseReport`], and with `metrics_window` set the
    /// phase/queue families land in the registry as VOLATILE series (they
    /// measure host wall-clock, so they are excluded from deterministic
    /// dumps). Off by default: the disabled path reads no clocks.
    pub profile_phases: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 42,
            warmup: SimDuration::from_micros(2),
            dram: None,
            cxl: None,
            policy: TrafficPolicy::HardwareDefault,
            budget_headroom: 1.3,
            profile: false,
            trace_window: None,
            trace_sampling: None,
            metrics_window: None,
            profile_phases: false,
        }
    }
}

impl EngineConfig {
    /// A config with deterministic (variability-free) memory devices, for
    /// calibration tests.
    pub fn deterministic() -> Self {
        EngineConfig {
            dram: Some(DramServiceModel::deterministic()),
            cxl: Some(DramServiceModel::deterministic()),
            ..Default::default()
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the traffic-manager policy (builder style).
    pub fn with_policy(mut self, policy: TrafficPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the sketch profiler (builder style).
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Enables per-flow bandwidth traces (builder style).
    pub fn with_trace(mut self, window: SimDuration) -> Self {
        self.trace_window = Some(window);
        self
    }

    /// Enables span-level hop tracing, sampling 1 in `n` transactions
    /// (builder style). `n` is clamped to at least 1.
    pub fn with_trace_sampling(mut self, n: u32) -> Self {
        self.trace_sampling = Some(n.max(1));
        self
    }

    /// Enables the metrics registry, windowing sketches at `window` of
    /// sim time (builder style).
    pub fn with_metrics(mut self, window: SimDuration) -> Self {
        self.metrics_window = Some(window);
        self
    }

    /// Enables engine self-profiling: phase timers and queue histograms
    /// (builder style).
    pub fn with_phase_profile(mut self) -> Self {
        self.profile_phases = true;
        self
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Issue {
        core: u32,
    },
    Stage {
        txn: u32,
    },
    Granted {
        txn: u32,
    },
    Complete {
        txn: u32,
    },
    ResetStats,
    Policy,
    /// A flow's demand schedule enters a new piece: re-pace its issuers.
    Demand {
        flow: u32,
    },
}

#[derive(Debug, Clone)]
struct Txn {
    flow: u32,
    core: u32,
    plan: u32,
    issue_ns: f64,
    waits_ns: f64,
    extra_ns: f64,
    stage: u8,
    limiter_phase: u8,
    /// Direction this transaction's data moves (temporal-write flows mix
    /// RFO reads and writebacks).
    dir_write: bool,
    live: bool,
    /// Open span handle when this transaction is trace-sampled
    /// (`u32::MAX` = not sampled).
    span: u32,
}

#[derive(Debug, Clone)]
struct CoreState {
    flow: Option<u32>,
    core_pos: u32,
    read_used: u32,
    write_used: u32,
    read_cap: u32,
    write_cap: u32,
    next_target: u64,
    next_allowed_ns: f64,
    attempt_scheduled: bool,
    blocked_on_core: bool,
    /// Temporal-write flows alternate RFO reads and writebacks.
    next_is_writeback: bool,
}

/// Cold per-flow state: the spec, compiled plans, and everything only the
/// setup, policy, and finish paths touch. The per-event hot loop reads
/// [`FlowHot`] instead.
struct FlowRuntime {
    spec: FlowSpec,
    plans: Vec<StagePlan>,
    outcome: AccessOutcome,
    /// Interned resource footprint for allocator-backed policies: dense
    /// arena index → fraction of the flow's rate crossing that point.
    /// Built once at admission; empty under hardware/BDP policies.
    footprint: Vec<(u32, f64)>,
    /// Lazily resolved metric series handles (flow-labelled families).
    h_completions: Option<SeriesHandle>,
    h_bytes: Option<SeriesHandle>,
    h_latency: Option<SeriesHandle>,
    /// Mean unloaded path latency, ns (the BDP controller's reference).
    mean_unloaded_ns: f64,
    /// Current BDP-adaptive rate, GB/s (None until the controller starts).
    adaptive_rate: Option<f64>,
}

/// Hot per-flow state: one compact struct per flow holding exactly the
/// fields the issue/complete handlers read and write, so the steady-state
/// loop touches one cache line instead of walking [`FlowRuntime`].
#[derive(Debug)]
struct FlowHot {
    /// Effective stop time (ns, clamped to the horizon); set in `run`.
    stop_ns: f64,
    /// Mean inter-issue gap per core, ns; 0 = unthrottled.
    gap_mean_ns: f64,
    /// First global plan id of this flow (see [`PlanInfo`]); set in `run`.
    plan_base: u32,
    /// Target elements per issuer (plans per core).
    targets: u32,
    budget_max: u32,
    in_flight: u32,
    op: chiplet_mem::OpKind,
    pattern: Pattern,
    issued: u64,
    completed: u64,
    bytes: u64,
    /// Measurement window since the last BDP control tick.
    win_lat_sum_ns: f64,
    win_lat_n: u64,
    budget_blocked: Vec<u32>,
    latency: LatencyHistogram,
    trace: Option<chiplet_sim::stats::BandwidthTrace>,
}

/// Immutable per-plan hot record, flattened at run start: one entry per
/// (flow × plan) pair, indexed by the global plan id in [`Txn::plan`].
/// Stage walks read this table and [`Engine::flat_stages`] instead of
/// chasing `flows[f].plans[p].stages[s]` through three heap hops.
#[derive(Debug, Clone, Copy)]
struct PlanInfo {
    /// First index into [`Engine::flat_stages`].
    stage_base: u32,
    n_stages: u8,
    is_cxl: bool,
    limiters: bool,
    ccx: u32,
    ccd: u32,
    /// Traffic-matrix row (the CCD, or the NIC's device row).
    matrix_src: u32,
    matrix_dest: u32,
    unloaded_ns: f64,
}

/// Per-flow and per-link results of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-flow outcomes, in flow-addition order.
    pub flows: Vec<FlowTelemetry>,
    /// The `/proc/chiplet-net` snapshot.
    pub telemetry: TelemetryReport,
    /// The measured window (horizon − warmup).
    pub window: SimDuration,
    /// The sketch profiler's output, when [`EngineConfig::profile`] was set.
    pub profile: Option<crate::profiler::ProfileReport>,
    /// Sampled span traces, when [`EngineConfig::trace_sampling`] was set.
    pub trace: Option<TraceReport>,
    /// The metrics registry, when [`EngineConfig::metrics_window`] was set.
    pub metrics: Option<crate::metrics::MetricsRegistry>,
    /// The engine's own phase-timer report, when
    /// [`EngineConfig::profile_phases`] was set. Wall-clock values —
    /// execution-dependent, never part of deterministic output.
    pub phases: Option<chiplet_sim::PhaseReport>,
}

impl RunResult {
    /// Looks a flow up by name.
    pub fn flow(&self, name: &str) -> Option<&FlowTelemetry> {
        self.flows.iter().find(|f| f.name == name)
    }
}

/// The engine. Borrowing the topology keeps runs cheap to set up; one
/// engine executes one run.
pub struct Engine<'t> {
    topo: &'t Topology,
    cfg: EngineConfig,
    rng: DetRng,
    queue: WheelQueue<Event>,
    channels: Vec<Option<DirectionalChannel>>,
    /// Per-socket NoC routing capacity.
    noc: Vec<DirectionalChannel>,
    cxl_ports: Vec<DirectionalChannel>,
    ccx_limiters: Vec<SlotLimiter<u32>>,
    ccd_limiters: Option<Vec<SlotLimiter<u32>>>,
    flows: Vec<FlowRuntime>,
    /// Hot per-flow state, indexed like `flows`.
    flow_hot: Vec<FlowHot>,
    /// Flattened plan table (one entry per flow × plan), built in `run`.
    plan_infos: Vec<PlanInfo>,
    /// All plans' stages, contiguous; see [`PlanInfo::stage_base`].
    flat_stages: Vec<Stage>,
    cores: Vec<CoreState>,
    txns: Vec<Txn>,
    free_txns: Vec<u32>,
    /// Dense traffic matrix, row-major: `matrix[src * matrix_cols + dest]`.
    /// Rows are compute chiplets then NICs; columns UMCs then CXL devices.
    matrix: Vec<u64>,
    matrix_cols: usize,
    /// Dense resource arena for the traffic-manager allocator: every
    /// capacity point crossed by any admitted flow, interned at admission.
    arena: ResourceArena,
    /// Reusable allocator state; epochs whose active set and demand bits
    /// match the previous solve skip the solver entirely.
    policy: PolicyScratch,
    dram_model: DramServiceModel,
    cxl_model: DramServiceModel,
    horizon_ns: f64,
    warmup_ns: f64,
    cache: CacheHierarchy,
    profiler: Option<crate::profiler::Profiler>,
    /// Span collector for 1-in-N hop tracing (`trace_sampling`).
    spans: Option<SpanCollector>,
    /// Sampling RNG: derived from the seed, independent of `rng`, so
    /// enabling tracing never perturbs simulation results.
    trace_rng: DetRng,
    /// Per-capacity-point bandwidth/backlog series (`trace_window`),
    /// indexed link-id first, then sockets, then CXL ports.
    point_traces: Option<Vec<PointSeries>>,
    /// The metrics registry (`metrics_window`), fed at every admission and
    /// completion; `point_labels` names capacity points in the same
    /// link-then-socket-then-CXL order as `point_traces`.
    metrics: Option<crate::metrics::MetricsRegistry>,
    point_labels: Vec<String>,
    /// Lazily resolved `(bytes, wait)` series handles per capacity point ×
    /// direction (`[read, write]`); empty when metrics are off.
    link_handles: Vec<[Option<(SeriesHandle, SeriesHandle)>; 2]>,
}

/// Reusable buffers for the traffic-manager recomputation path plus the
/// incremental-epoch memo. Steady-state epochs allocate nothing.
#[derive(Default)]
struct PolicyScratch {
    active: Vec<u32>,
    demands: Vec<f64>,
    rates: Vec<f64>,
    dense: DenseAllocScratch,
    /// Active set and demand bit patterns of the last solved epoch; when
    /// both match, the equilibrium — and every gap — is unchanged.
    last_active: Vec<u32>,
    last_demand_bits: Vec<u64>,
    valid: bool,
}

/// Windowed time series for one capacity point.
struct PointSeries {
    read: BandwidthTrace,
    write: BandwidthTrace,
    /// Backlog (ns of queued service) observed at each admission.
    depth: GaugeTrace,
}

impl PointSeries {
    fn new(window: SimDuration) -> Self {
        PointSeries {
            read: BandwidthTrace::new(window),
            write: BandwidthTrace::new(window),
            depth: GaugeTrace::new(window),
        }
    }
}

impl<'t> Engine<'t> {
    /// Creates an engine over a topology.
    pub fn new(topo: &'t Topology, cfg: EngineConfig) -> Self {
        let spec = topo.spec();
        let channels = topo
            .links()
            .iter()
            .map(|l| {
                if l.read_cap.is_some() || l.write_cap.is_some() {
                    Some(DirectionalChannel::new(l.read_cap, l.write_cap))
                } else {
                    None
                }
            })
            .collect();
        let noc: Vec<DirectionalChannel> = (0..spec.socket_count)
            .map(|_| DirectionalChannel::new(Some(spec.caps.noc_read), Some(spec.caps.noc_write)))
            .collect();
        let cxl_ports = match &spec.cxl {
            Some(cxl) => (0..topo.ccd_total())
                .map(|_| DirectionalChannel::new(Some(cxl.ccd_read), Some(cxl.ccd_write)))
                .collect(),
            None => Vec::new(),
        };

        // Limiter tokens sized to the *loaded* BDP of the chiplet egress:
        // capacity × (unloaded latency + 3 × the module's max queueing
        // delay). Below saturation the pool is transparent; once the read
        // direction saturates, tokens exhaust and the shared pool
        // backpressures everything behind it — including writes, which is
        // the paper's within-chiplet interference asymmetry (Figure 6).
        let base_ns = spec.dram_latency_ns(chiplet_topology::DimmPosition::Near);
        let ccx_tokens = derive_limiter_tokens(
            base_ns,
            spec.traffic_ctrl.ccx_max_queue_ns,
            spec.caps.ccx_read,
            spec.cores_per_ccx * spec.mlp.core_read_outstanding,
        );
        let ccx_limiters = (0..topo.ccx_total())
            .map(|_| SlotLimiter::new(ccx_tokens))
            .collect();
        let ccd_limiters = spec.traffic_ctrl.ccd_max_queue_ns.map(|q_ns| {
            let tokens = derive_limiter_tokens(
                base_ns,
                q_ns,
                spec.caps.gmi_read,
                spec.cores_per_ccd() * spec.mlp.core_read_outstanding,
            );
            (0..topo.ccd_total())
                .map(|_| SlotLimiter::new(tokens))
                .collect()
        });

        let dram_model = cfg.dram.unwrap_or(match spec.kind {
            PlatformKind::Epyc7302 => DramServiceModel::ddr4(),
            PlatformKind::Epyc9634 => DramServiceModel::ddr5(),
            _ => DramServiceModel::deterministic(),
        });
        let cxl_model = cfg.cxl.unwrap_or(DramServiceModel::cxl());
        let rng = DetRng::seed_from_u64(cfg.seed);
        let cache = CacheHierarchy::from_spec(&spec.cache);
        // The profiler's sketch hashers derive from the run seed, so the
        // same seed yields a byte-identical ProfileReport.
        let profiler = cfg
            .profile
            .then(|| crate::profiler::Profiler::with_seed(cfg.seed));
        let trace_rng = rng.derive(TRACE_RNG_LABEL);
        let spans = cfg
            .trace_sampling
            .map(|_| SpanCollector::new(SPAN_COLLECTOR_CAP));
        let n_points = topo.links().len() + noc.len() + cxl_ports.len();
        let point_traces = cfg
            .trace_window
            .map(|w| (0..n_points).map(|_| PointSeries::new(w)).collect());
        let metrics = cfg.metrics_window.map(|w| {
            let mut m = crate::metrics::MetricsRegistry::with_window(w);
            describe_engine_metrics(&mut m);
            m
        });
        let point_labels = if metrics.is_some() {
            let mut v: Vec<String> = (0..topo.links().len())
                .map(|l| format!("link{l}"))
                .collect();
            v.extend((0..noc.len()).map(|sk| format!("noc{sk}")));
            v.extend((0..cxl_ports.len()).map(|c| format!("cxl{c}")));
            v
        } else {
            Vec::new()
        };
        let link_handles = if metrics.is_some() {
            vec![[None, None]; n_points]
        } else {
            Vec::new()
        };
        // Matrix rows: compute chiplets then NIC DMA engines; columns
        // cover both DIMM indices and `umc_count + device` CXL dests.
        let matrix_rows = (topo.ccd_total() + topo.nic_count()) as usize;
        let matrix_cols = (topo
            .dimm_count()
            .max(spec.mem.umc_count + topo.cxl_device_count())) as usize;

        Engine {
            topo,
            cfg,
            rng,
            queue: WheelQueue::new(),
            channels,
            noc,
            cxl_ports,
            ccx_limiters,
            ccd_limiters,
            flows: Vec::new(),
            flow_hot: Vec::new(),
            plan_infos: Vec::new(),
            flat_stages: Vec::new(),
            // Issuer slots: one per core, plus one per NIC DMA engine
            // (indices ≥ core_count address the NICs).
            cores: vec![
                CoreState {
                    flow: None,
                    core_pos: 0,
                    read_used: 0,
                    write_used: 0,
                    read_cap: 0,
                    write_cap: 0,
                    next_target: 0,
                    next_allowed_ns: 0.0,
                    attempt_scheduled: false,
                    blocked_on_core: false,
                    next_is_writeback: false,
                };
                (topo.core_count() + topo.nic_count()) as usize
            ],
            txns: Vec::new(),
            free_txns: Vec::new(),
            matrix: vec![0; matrix_rows * matrix_cols],
            matrix_cols,
            arena: ResourceArena::new(),
            policy: PolicyScratch::default(),
            dram_model,
            cxl_model,
            horizon_ns: 0.0,
            warmup_ns: 0.0,
            cache,
            profiler,
            spans,
            trace_rng,
            point_traces,
            metrics,
            point_labels,
            link_handles,
        }
    }

    /// Registers a flow. Each core may carry at most one flow.
    ///
    /// # Panics
    ///
    /// Panics if a core is claimed twice.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        let topo = self.topo;
        let pspec = topo.spec();

        let outcome = AccessOutcome::resolve(&self.cache, spec.op, spec.working_set);

        // Compile plans: per issuer × target element.
        let (plans, targets): (Vec<StagePlan>, u32) = match (&spec.target, spec.nic) {
            (Target::Dimms(ds), Some(nic)) => {
                let plans = ds
                    .iter()
                    .map(|&d| StagePlan::nic_to_dimm(topo, nic, d))
                    .collect();
                (plans, ds.len() as u32)
            }
            (Target::Dimms(ds), None) => {
                let mut plans = Vec::with_capacity(spec.cores.len() * ds.len());
                for &c in &spec.cores {
                    for &d in ds {
                        plans.push(StagePlan::to_dimm(topo, c, d));
                    }
                }
                (plans, ds.len() as u32)
            }
            (Target::Cxl(dev), None) => {
                let plans = spec
                    .cores
                    .iter()
                    .map(|&c| StagePlan::to_cxl(topo, c, *dev))
                    .collect();
                (plans, 1)
            }
            (Target::Cxl(_), Some(_)) => unreachable!("FlowBuilder rejects NIC→CXL"),
        };
        let mean_unloaded_ns =
            plans.iter().map(|p| p.unloaded_ns).sum::<f64>() / plans.len().max(1) as f64;
        // (mean_unloaded_ns feeds the in-flight budget below.)

        // Per-core slot budgets by operation and destination class.
        let is_cxl = spec.target.is_cxl();
        let read_cap = if is_cxl {
            pspec.mlp.cxl_core_read_outstanding
        } else {
            pspec.mlp.core_read_outstanding
        };
        let write_cap = if is_cxl {
            let cxl = pspec.cxl.as_ref().expect("cxl target on cxl platform");
            let lat = pspec.cxl_latency_ns().expect("cxl latency");
            ((cxl.core_write.as_gb_per_s() * lat / LINE as f64).ceil() as u32).max(1)
        } else {
            pspec.mlp.core_write_outstanding
        };
        let mlp = Pattern::effective_mlp(spec.pattern, read_cap);

        for (pos, &c) in spec.cores.iter().enumerate() {
            let cs = &mut self.cores[c.index()];
            assert!(
                cs.flow.is_none(),
                "core {c} already belongs to another flow"
            );
            cs.flow = Some(id.0);
            cs.core_pos = pos as u32;
            cs.read_cap = if spec.op.is_write() { read_cap } else { mlp };
            cs.write_cap = write_cap;
        }
        if let Some(nic) = spec.nic {
            let outstanding = topo
                .spec()
                .nic
                .as_ref()
                .expect("NIC flow on NIC platform")
                .outstanding;
            let issuer = topo.core_count() as usize + nic as usize;
            let cs = &mut self.cores[issuer];
            assert!(cs.flow.is_none(), "NIC {nic} already belongs to a flow");
            cs.flow = Some(id.0);
            cs.core_pos = 0;
            cs.read_cap = outstanding;
            cs.write_cap = outstanding;
        }

        let hw_budget = if spec.nic.is_some() {
            topo.spec().nic.as_ref().map(|n| n.outstanding).unwrap_or(1)
        } else {
            spec.cores.len() as u32 * if spec.op.is_write() { write_cap } else { mlp }
        };
        let budget_max = match spec.peak_demand() {
            Some(bw) => {
                let bdp_lines =
                    (bw.as_gb_per_s() * mean_unloaded_ns * self.cfg.budget_headroom) / LINE as f64;
                (bdp_lines.ceil() as u32).clamp(2, hw_budget.max(2))
            }
            None => hw_budget.max(1),
        };
        let gap_mean_ns = match &spec.demand {
            None => gap_from_rate(spec.offered_per_core()),
            Some(_) => demand_gap(spec.demand_per_issuer_at(spec.start)),
        };

        // Allocator-backed policies: intern the flow's resource footprint
        // into the dense arena once, here, instead of re-deriving it from
        // plans × stages at every reallocation epoch. Interleaving spreads
        // the flow evenly over its plans, so a point crossed by k of the
        // flow's n plans carries k/n of its rate.
        let footprint = match self.cfg.policy {
            TrafficPolicy::MaxMinFair
            | TrafficPolicy::WeightedFair { .. }
            | TrafficPolicy::RateLimit { .. } => {
                let dir = if spec.op.is_write() {
                    Dir::Write
                } else {
                    Dir::Read
                };
                let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
                for p in &plans {
                    for s in &p.stages {
                        if let Some(cap) = self.capacity_of(s.point, dir) {
                            let idx = self.arena.set_capacity(resource_key(s.point, dir), cap);
                            *counts.entry(idx).or_insert(0) += 1;
                        }
                    }
                }
                let n_plans = plans.len().max(1) as f64;
                counts
                    .into_iter()
                    .map(|(idx, c)| (idx, c as f64 / n_plans))
                    .collect()
            }
            _ => Vec::new(),
        };

        self.flow_hot.push(FlowHot {
            stop_ns: f64::INFINITY,
            gap_mean_ns,
            plan_base: 0,
            targets,
            budget_max,
            in_flight: 0,
            op: spec.op,
            pattern: spec.pattern,
            issued: 0,
            completed: 0,
            bytes: 0,
            win_lat_sum_ns: 0.0,
            win_lat_n: 0,
            budget_blocked: Vec::new(),
            latency: LatencyHistogram::new(),
            trace: self
                .cfg
                .trace_window
                .map(chiplet_sim::stats::BandwidthTrace::new),
        });
        self.flows.push(FlowRuntime {
            spec,
            plans,
            outcome,
            footprint,
            h_completions: None,
            h_bytes: None,
            h_latency: None,
            mean_unloaded_ns,
            adaptive_rate: None,
        });
        id
    }

    /// Runs the simulation to `horizon` and returns results for the
    /// measured window `[warmup, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics when the horizon does not exceed the warmup.
    pub fn run(mut self, horizon: SimTime) -> RunResult {
        assert!(
            horizon.as_nanos() > self.cfg.warmup.as_nanos(),
            "horizon must exceed warmup"
        );
        self.horizon_ns = horizon.as_nanos() as f64;
        self.warmup_ns = self.cfg.warmup.as_nanos() as f64;

        // Flatten the per-flow plan lists into the global hot tables: the
        // event handlers index `plan_infos`/`flat_stages` by `Txn::plan`
        // alone, never walking `flows[f].plans[p].stages[s]`.
        self.plan_infos.clear();
        self.flat_stages.clear();
        let ccd_total = self.topo.ccd_total();
        for fi in 0..self.flows.len() {
            self.flow_hot[fi].plan_base = self.plan_infos.len() as u32;
            self.flow_hot[fi].stop_ns = self.flows[fi].spec.stop_or(horizon).as_nanos() as f64;
            let nic = self.flows[fi].spec.nic;
            for p in &self.flows[fi].plans {
                self.plan_infos.push(PlanInfo {
                    stage_base: self.flat_stages.len() as u32,
                    n_stages: p.stages.len() as u8,
                    is_cxl: p.is_cxl,
                    limiters: p.limiters,
                    ccx: p.ccx,
                    ccd: p.ccd,
                    matrix_src: if p.ccd == u32::MAX {
                        // Device rows sit after the compute chiplets.
                        ccd_total + nic.unwrap_or(0)
                    } else {
                        p.ccd
                    },
                    matrix_dest: p.matrix_dest,
                    unloaded_ns: p.unloaded_ns,
                });
                self.flat_stages.extend_from_slice(&p.stages);
            }
        }

        self.queue.push(
            SimTime::from_nanos(self.cfg.warmup.as_nanos()),
            Event::ResetStats,
        );

        // BDP-adaptive control: periodic ticks across the whole run.
        if let TrafficPolicy::BdpAdaptive { interval_ns, .. } = self.cfg.policy {
            let mut t = interval_ns.max(100);
            while t < horizon.as_nanos() {
                self.queue.push(SimTime::from_nanos(t), Event::Policy);
                t += interval_ns.max(100);
            }
        }

        // Traffic-manager recomputation points: every distinct flow
        // start/stop boundary, plus every demand-schedule piece boundary.
        if self.cfg.policy != TrafficPolicy::HardwareDefault {
            let mut boundaries: Vec<u64> = self
                .flows
                .iter()
                .flat_map(|f| [f.spec.start.as_nanos(), f.spec.stop_or(horizon).as_nanos()])
                .filter(|&t| t < horizon.as_nanos())
                .collect();
            for f in &self.flows {
                if let Some(sched) = &f.spec.demand {
                    let stop = f.spec.stop_or(horizon).as_nanos();
                    boundaries.extend(
                        sched
                            .pieces()
                            .iter()
                            .map(|(from, _)| from.as_nanos())
                            .filter(|&t| t > f.spec.start.as_nanos() && t < stop),
                    );
                }
            }
            boundaries.sort_unstable();
            boundaries.dedup();
            for t in boundaries {
                self.queue.push(SimTime::from_nanos(t), Event::Policy);
            }
        }

        // Demand-schedule piece boundaries: each one re-paces the flow's
        // issuers (after any same-instant policy recomputation). Split
        // borrows (flows shared, queue exclusive) keep this clone-free.
        let flows = &self.flows;
        let queue = &mut self.queue;
        for (fi, f) in flows.iter().enumerate() {
            let Some(sched) = f.spec.demand.as_ref() else {
                continue;
            };
            let stop = f.spec.stop_or(horizon);
            let mut t = f.spec.start;
            while let Some(next) = sched.next_change_after(t) {
                if next >= stop {
                    break;
                }
                queue.push(next, Event::Demand { flow: fi as u32 });
                t = next;
            }
        }

        // Kick off issue loops (analytic cache-resident flows excluded).
        for fi in 0..self.flows.len() {
            // DMA flows always hit the fabric regardless of working set.
            let fabric =
                self.flows[fi].outcome.is_fabric_bound() || self.flows[fi].spec.nic.is_some();
            if fabric {
                let start = self.flows[fi].spec.start.min(horizon);
                let issuers: Vec<u32> = if let Some(nic) = self.flows[fi].spec.nic {
                    vec![self.topo.core_count() + nic]
                } else {
                    self.flows[fi].spec.cores.iter().map(|c| c.0).collect()
                };
                for issuer in issuers {
                    self.cores[issuer as usize].attempt_scheduled = true;
                    self.queue.push(start, Event::Issue { core: issuer });
                }
            }
        }

        // Self-profiling (`profile_phases`): phase timers around every
        // handler class plus an event-queue-depth histogram (sampled every
        // 1024 pops) and an events-per-epoch histogram (an epoch is the
        // stretch between policy recomputations). Disabled, `start()`
        // returns `None` without reading the clock.
        let mut prof = if self.cfg.profile_phases {
            PhaseProfiler::enabled()
        } else {
            PhaseProfiler::disabled()
        };
        let ph_issue = prof.register("engine/issue");
        let ph_stage = prof.register("engine/stage");
        let ph_granted = prof.register("engine/granted");
        let ph_complete = prof.register("engine/complete");
        let ph_reset = prof.register("engine/reset-stats");
        let ph_policy = prof.register("engine/policy");
        let ph_demand = prof.register("engine/demand");
        let mut queue_depth = DepthHistogram::new();
        let mut epoch_events = DepthHistogram::new();
        let mut in_epoch: u64 = 0;
        let mut pops: u64 = 0;
        // One clock read per event: `lap` charges everything since the
        // previous lap (pop + dispatch + handler) to the handled phase.
        let mut mark = prof.start();
        while let Some(ev) = self.queue.pop() {
            let now_ns = ev.at.as_nanos() as f64;
            if self.cfg.profile_phases {
                pops += 1;
                in_epoch += 1;
                if pops & 1023 == 0 {
                    queue_depth.record(self.queue.len() as u64);
                }
            }
            match ev.payload {
                Event::Issue { core } => {
                    self.on_issue(core, now_ns);
                    prof.lap(ph_issue, &mut mark);
                }
                Event::Stage { txn } => {
                    self.on_stage(txn, now_ns);
                    prof.lap(ph_stage, &mut mark);
                }
                Event::Granted { txn } => {
                    self.on_granted(txn, now_ns);
                    prof.lap(ph_granted, &mut mark);
                }
                Event::Complete { txn } => {
                    self.on_complete(txn, now_ns);
                    prof.lap(ph_complete, &mut mark);
                }
                Event::ResetStats => {
                    self.reset_stats();
                    prof.lap(ph_reset, &mut mark);
                }
                Event::Policy => {
                    self.recompute_policy(now_ns, horizon);
                    prof.lap(ph_policy, &mut mark);
                    if self.cfg.profile_phases {
                        epoch_events.record(in_epoch);
                        in_epoch = 0;
                    }
                }
                Event::Demand { flow } => {
                    self.on_demand(flow, now_ns);
                    prof.lap(ph_demand, &mut mark);
                }
            }
        }
        if self.cfg.profile_phases && in_epoch > 0 {
            epoch_events.record(in_epoch);
        }

        self.finish(horizon, &prof, &queue_depth, &epoch_events)
    }

    fn reset_stats(&mut self) {
        for ch in self.channels.iter_mut().flatten() {
            ch.reset_stats();
        }
        for ch in &mut self.noc {
            ch.reset_stats();
        }
        for ch in &mut self.cxl_ports {
            ch.reset_stats();
        }
    }

    /// Schedules `ev` at `ns` rounded up to the next whole nanosecond,
    /// never before the event being handled (the queue's watermark).
    /// Clamping after rounding lands on the same nanosecond as clamping
    /// first: ceil is monotone, `now` is integral, and a NaN `ns` lands on
    /// `now` either way.
    fn schedule_at(&mut self, ns: f64, ev: Event) {
        let at = ceil_to_u64(ns).max(self.queue.now().as_nanos());
        self.queue.push(SimTime::from_nanos(at), ev);
    }

    fn on_issue(&mut self, core: u32, now_ns: f64) {
        let cs_flow = {
            let cs = &mut self.cores[core as usize];
            cs.attempt_scheduled = false;
            cs.flow
        };
        let Some(fi) = cs_flow else { return };
        if now_ns >= self.flow_hot[fi as usize].stop_ns {
            return;
        }

        // Pacing gate. A paused flow (zero-demand schedule piece) parks at
        // the horizon; a Demand event re-kicks it earlier.
        let next_allowed = self.cores[core as usize].next_allowed_ns;
        if next_allowed > now_ns + 0.5 {
            self.cores[core as usize].attempt_scheduled = true;
            let at = if next_allowed.is_finite() {
                next_allowed
            } else {
                self.horizon_ns
            };
            self.schedule_at(at, Event::Issue { core });
            return;
        }

        // Per-transaction direction: reads and NT writes are uniform;
        // temporal (cached) writes alternate an RFO read with a writeback —
        // each store moves the line twice across the fabric (§3.1's reason
        // for measuring with non-temporal writes).
        let op = self.flow_hot[fi as usize].op;
        let is_write = match op {
            chiplet_mem::OpKind::Read => false,
            chiplet_mem::OpKind::WriteNonTemporal => true,
            chiplet_mem::OpKind::WriteTemporal => self.cores[core as usize].next_is_writeback,
        };
        {
            let f = &self.flow_hot[fi as usize];
            let cs = &self.cores[core as usize];
            let core_full = if is_write {
                cs.write_used >= cs.write_cap
            } else {
                cs.read_used >= cs.read_cap
            };
            if core_full {
                self.cores[core as usize].blocked_on_core = true;
                return;
            }
            if f.in_flight >= f.budget_max {
                self.flow_hot[fi as usize].budget_blocked.push(core);
                return;
            }
        }

        // Acquire and create the transaction.
        {
            let cs = &mut self.cores[core as usize];
            if is_write {
                cs.write_used += 1;
            } else {
                cs.read_used += 1;
            }
        }
        let (plan_idx, gap) = {
            let f = &mut self.flow_hot[fi as usize];
            f.in_flight += 1;
            f.issued += 1;
            let cs = &mut self.cores[core as usize];
            let t = match f.pattern {
                Pattern::Random => self.rng.next_below(f.targets as u64),
                _ => {
                    let t = cs.next_target % f.targets as u64;
                    cs.next_target += 1;
                    t
                }
            };
            (
                f.plan_base + cs.core_pos * f.targets + t as u32,
                f.gap_mean_ns,
            )
        };

        if op == chiplet_mem::OpKind::WriteTemporal {
            let cs = &mut self.cores[core as usize];
            cs.next_is_writeback = !cs.next_is_writeback;
        }
        let txn = self.alloc_txn(Txn {
            flow: fi,
            core,
            plan: plan_idx,
            issue_ns: now_ns,
            waits_ns: 0.0,
            extra_ns: 0.0,
            stage: 0,
            limiter_phase: 0,
            dir_write: is_write,
            live: true,
            span: u32::MAX,
        });

        // Trace-sampling decision: one draw per issue from the derived
        // stream, in event order — deterministic for a given seed.
        if let Some(n) = self.cfg.trace_sampling {
            let sampled = n <= 1 || self.trace_rng.next_below(n as u64) == 0;
            if sampled {
                if let Some(h) = self
                    .spans
                    .as_mut()
                    .expect("collector exists when sampling is on")
                    .start(fi, core, now_ns)
                {
                    self.txns[txn as usize].span = h;
                }
            }
        }

        // Pacing for the next issue. The gap advances the *fractional*
        // schedule, not the rounded event time: sub-ns gaps (a DMA engine
        // at tens of GB/s) would otherwise accumulate ~0.5 ns of ceil bias
        // per transaction and undershoot the configured rate. A stale
        // schedule (after a long slot stall) catches up at most 1 ns.
        let next = if gap.is_infinite() {
            // The flow paused mid-issue; park until re-kicked.
            f64::INFINITY
        } else if gap > 0.0 {
            let base = self.cores[core as usize].next_allowed_ns.max(now_ns - 1.0);
            base + self.rng.exponential(gap)
        } else {
            now_ns
        };
        self.cores[core as usize].next_allowed_ns = next;
        self.cores[core as usize].attempt_scheduled = true;
        let at = if next.is_finite() {
            next
        } else {
            self.horizon_ns
        };
        self.schedule_at(at, Event::Issue { core });

        self.advance_limiters(txn, now_ns);
    }

    /// Walks the limiter phases; parks in a limiter queue when full.
    /// Device DMA plans skip the chiplet limiters entirely.
    fn advance_limiters(&mut self, txn: u32, now_ns: f64) {
        {
            let t = &self.txns[txn as usize];
            if !self.plan_infos[t.plan as usize].limiters {
                self.txns[txn as usize].limiter_phase = 2;
            }
        }
        loop {
            let (phase, ccx, ccd) = {
                let t = &self.txns[txn as usize];
                let p = &self.plan_infos[t.plan as usize];
                (t.limiter_phase, p.ccx, p.ccd)
            };
            match phase {
                0 => {
                    if self.ccx_limiters[ccx as usize].acquire(txn) {
                        self.txns[txn as usize].limiter_phase = 1;
                    } else {
                        return; // parked at CCX
                    }
                }
                1 => {
                    if let Some(lims) = self.ccd_limiters.as_mut() {
                        if lims[ccd as usize].acquire(txn) {
                            self.txns[txn as usize].limiter_phase = 2;
                        } else {
                            return; // parked at CCD
                        }
                    } else {
                        self.txns[txn as usize].limiter_phase = 2;
                    }
                }
                _ => {
                    // Both limiters held: limiter queueing is part of the
                    // transaction's wait, then the stage walk begins.
                    let (span, issue_ns) = {
                        let t = &mut self.txns[txn as usize];
                        t.waits_ns += now_ns - t.issue_ns;
                        (t.span, t.issue_ns)
                    };
                    if span != u32::MAX {
                        self.spans.as_mut().expect("span open ⇒ collector").hop(
                            span,
                            HopClass::TrafficCtrl.code(),
                            issue_ns,
                            now_ns,
                            now_ns,
                        );
                    }
                    self.schedule_at(now_ns, Event::Stage { txn });
                    return;
                }
            }
        }
    }

    fn on_granted(&mut self, txn: u32, now_ns: f64) {
        // A limiter handed its slot to this parked transaction.
        let t = &mut self.txns[txn as usize];
        debug_assert!(t.live);
        t.limiter_phase += 1;
        self.advance_limiters(txn, now_ns);
    }

    fn on_stage(&mut self, txn: u32, now_ns: f64) {
        // One read of the txn record up front; one write-back at the end.
        let (plan_idx, stage_idx, is_write, span, issue_ns, waits_ns, extra_ns) = {
            let t = &self.txns[txn as usize];
            (
                t.plan,
                t.stage,
                t.dir_write,
                t.span,
                t.issue_ns,
                t.waits_ns,
                t.extra_ns,
            )
        };
        let dir = if is_write { Dir::Write } else { Dir::Read };
        let (point, bytes, device, n_stages, is_cxl, unloaded_ns) = {
            let p = &self.plan_infos[plan_idx as usize];
            let s = self.flat_stages[(p.stage_base + stage_idx as u32) as usize];
            (
                s.point,
                s.bytes,
                s.device,
                p.n_stages as usize,
                p.is_cxl,
                p.unloaded_ns,
            )
        };
        // Device variability (bank conflicts, refresh, CXL media) delays
        // the *transaction* but does not serialize the channel: banks and
        // media overlap independent accesses, so successors are not held
        // behind a slow one beyond ordinary serialization.
        let extra = if device {
            let model = if is_cxl {
                self.cxl_model
            } else {
                self.dram_model
            };
            model.extra_service_ns(&mut self.rng)
        } else {
            0.0
        };
        let adm = match point {
            StageRef::Link(l) => self.channels[l as usize]
                .as_mut()
                .expect("stage link has a channel")
                .admit(dir, now_ns, bytes),
            StageRef::SocketNoc(sk) => self.noc[sk as usize].admit(dir, now_ns, bytes),
            StageRef::CxlPort(c) => self.cxl_ports[c as usize].admit(dir, now_ns, bytes),
        };
        let waits_ns = waits_ns + adm.wait_ns;
        let extra_ns = extra_ns + extra;
        // Per-point time series: bytes admitted plus the backlog this
        // admission left behind (wait + service, ns of queued work).
        if let Some(series) = self.point_traces.as_mut() {
            let idx = match point {
                StageRef::Link(l) => l as usize,
                StageRef::SocketNoc(sk) => self.channels.len() + sk as usize,
                StageRef::CxlPort(c) => self.channels.len() + self.noc.len() + c as usize,
            };
            let s = &mut series[idx];
            let at = SimTime::from_nanos(now_ns as u64);
            match dir {
                Dir::Read => s.read.record(at, ByteSize::from_bytes(bytes)),
                Dir::Write => s.write.record(at, ByteSize::from_bytes(bytes)),
            }
            s.depth.record(at, adm.wait_ns + adm.service_ns);
        }
        if let Some(m) = self.metrics.as_mut() {
            let idx = match point {
                StageRef::Link(l) => l as usize,
                StageRef::SocketNoc(sk) => self.channels.len() + sk as usize,
                StageRef::CxlPort(c) => self.channels.len() + self.noc.len() + c as usize,
            };
            // Resolve the point's series handles at first admission (so
            // the registry sees the same series set and creation order as
            // the string path), then record through the dense slots.
            let di = usize::from(is_write);
            let (h_bytes, h_wait) = match self.link_handles[idx][di] {
                Some(h) => h,
                None => {
                    let labels = [
                        ("link_id", self.point_labels[idx].as_str()),
                        ("dir", if is_write { "write" } else { "read" }),
                    ];
                    let h = (
                        m.series_handle(SeriesKind::Counter, "chiplet_link_bytes", &labels),
                        m.series_handle(SeriesKind::Histogram, "chiplet_link_wait_ns", &labels),
                    );
                    self.link_handles[idx][di] = Some(h);
                    h
                }
            };
            let at = SimTime::from_nanos(now_ns as u64);
            m.counter_add_at_handle(h_bytes, at, bytes as f64);
            m.observe_handle(h_wait, at, adm.wait_ns);
        }
        // Hop record: the wait is queueing behind earlier admissions; the
        // latency-contributing service here is the device variability
        // (serialization is part of the unloaded propagation segment).
        if span != u32::MAX {
            // Pack the concrete capacity point into the label so critpath
            // can blame individual links, not just classes.
            let (class, point_idx) = match point {
                StageRef::Link(l) => (
                    HopClass::from_link_kind(self.topo.links()[l as usize].kind),
                    l,
                ),
                StageRef::SocketNoc(sk) => (HopClass::SocketNoc, self.channels.len() as u32 + sk),
                StageRef::CxlPort(c) => (
                    HopClass::CxlPort,
                    (self.channels.len() + self.noc.len()) as u32 + c,
                ),
            };
            let label = crate::trace::encode_hop_label(class, Some(point_idx));
            self.spans.as_mut().expect("span open ⇒ collector").hop(
                span,
                label,
                now_ns,
                now_ns + adm.wait_ns,
                now_ns + adm.wait_ns + extra,
            );
        }
        {
            let t = &mut self.txns[txn as usize];
            t.waits_ns = waits_ns;
            t.extra_ns = extra_ns;
        }
        if (stage_idx as usize) + 1 < n_stages {
            self.txns[txn as usize].stage += 1;
            self.schedule_at(adm.depart_ns + extra, Event::Stage { txn });
        } else {
            let done = (issue_ns + unloaded_ns + waits_ns + extra_ns).max(adm.depart_ns);
            self.schedule_at(done, Event::Complete { txn });
        }
    }

    fn on_complete(&mut self, txn: u32, now_ns: f64) {
        let (flow, core, plan_idx) = {
            let t = &self.txns[txn as usize];
            (t.flow, t.core, t.plan)
        };
        let pi = self.plan_infos[plan_idx as usize];
        let (ccx, ccd, has_limiters) = (pi.ccx, pi.ccd, pi.limiters);
        let is_write = self.txns[txn as usize].dir_write;
        let op = self.flow_hot[flow as usize].op;

        // Release limiters (CCD first — reverse acquisition order); grants
        // wake parked transactions. DMA plans never held them.
        if has_limiters {
            if let Some(lims) = self.ccd_limiters.as_mut() {
                if let Some(next) = lims[ccd as usize].release() {
                    self.schedule_at(now_ns, Event::Granted { txn: next });
                }
            }
            if let Some(next) = self.ccx_limiters[ccx as usize].release() {
                self.schedule_at(now_ns, Event::Granted { txn: next });
            }
        }

        // Release core and flow budgets.
        {
            let cs = &mut self.cores[core as usize];
            if is_write {
                cs.write_used -= 1;
            } else {
                cs.read_used -= 1;
            }
        }
        self.flow_hot[flow as usize].in_flight -= 1;

        // Controller window: every completion feeds the BDP controller.
        let lat = {
            let t = &self.txns[txn as usize];
            pi.unloaded_ns + t.waits_ns + t.extra_ns
        };
        {
            let f = &mut self.flow_hot[flow as usize];
            f.win_lat_sum_ns += lat;
            f.win_lat_n += 1;
        }

        // Record, inside the measured window only.
        {
            let t = &self.txns[txn as usize];
            if t.issue_ns >= self.warmup_ns && now_ns <= self.horizon_ns {
                // Temporal-write flows: only the writeback carries the
                // application's payload; the RFO read is coherence
                // overhead (it still loads the fabric above).
                let counts_payload = op != chiplet_mem::OpKind::WriteTemporal || t.dir_write;
                let f = &mut self.flow_hot[flow as usize];
                f.completed += 1;
                if counts_payload {
                    f.bytes += LINE;
                    if let Some(trace) = f.trace.as_mut() {
                        trace.record(
                            SimTime::from_nanos(now_ns as u64),
                            ByteSize::from_bytes(LINE),
                        );
                    }
                }
                f.latency.record(SimDuration::from_nanos_f64(lat));
                let matrix_src = pi.matrix_src;
                let matrix_dest = pi.matrix_dest;
                self.matrix[matrix_src as usize * self.matrix_cols + matrix_dest as usize] += LINE;
                if let Some(p) = self.profiler.as_mut() {
                    p.observe(FlowId(flow), matrix_src, matrix_dest, LINE, lat);
                }
                if let Some(m) = self.metrics.as_mut() {
                    let f = &mut self.flows[flow as usize];
                    let name = f.spec.name.as_str();
                    let at = SimTime::from_nanos(now_ns as u64);
                    let h = *f.h_completions.get_or_insert_with(|| {
                        m.series_handle(
                            SeriesKind::Counter,
                            "chiplet_flow_completions",
                            &[("flow", name)],
                        )
                    });
                    m.counter_add_at_handle(h, at, 1.0);
                    if counts_payload {
                        let h = *f.h_bytes.get_or_insert_with(|| {
                            m.series_handle(
                                SeriesKind::Counter,
                                "chiplet_flow_bytes",
                                &[("flow", name)],
                            )
                        });
                        m.counter_add_at_handle(h, at, LINE as f64);
                    }
                    let h = *f.h_latency.get_or_insert_with(|| {
                        m.series_handle(
                            SeriesKind::Histogram,
                            "chiplet_flow_latency_ns",
                            &[("flow", name)],
                        )
                    });
                    m.observe_handle(h, at, lat);
                }
            }
        }
        // Seal the span (all sampled transactions, windowed or not): the
        // residual propagation hop carries the unloaded route latency, so
        // the hops tile the charged end-to-end latency exactly.
        {
            let t = &self.txns[txn as usize];
            if t.span != u32::MAX {
                let span = t.span;
                let unloaded_ns = pi.unloaded_ns;
                let lat = unloaded_ns + t.waits_ns + t.extra_ns;
                let spans = self.spans.as_mut().expect("span open ⇒ collector");
                spans.hop(
                    span,
                    HopClass::Propagation.code(),
                    now_ns - unloaded_ns,
                    now_ns - unloaded_ns,
                    now_ns,
                );
                spans.finish(span, now_ns, lat);
            }
        }
        self.free_txn(txn);

        // Wake the issuing core (its slot freed) and one flow-budget waiter.
        if now_ns < self.flow_hot[flow as usize].stop_ns {
            if self.cores[core as usize].blocked_on_core
                && !self.cores[core as usize].attempt_scheduled
            {
                self.cores[core as usize].blocked_on_core = false;
                self.cores[core as usize].attempt_scheduled = true;
                self.schedule_at(now_ns, Event::Issue { core });
            }
            if let Some(waiter) = self.flow_hot[flow as usize].budget_blocked.pop() {
                if !self.cores[waiter as usize].attempt_scheduled {
                    self.cores[waiter as usize].attempt_scheduled = true;
                    self.schedule_at(now_ns, Event::Issue { core: waiter });
                }
            }
        }
    }

    fn recompute_policy(&mut self, now_ns: f64, horizon: SimTime) {
        // Flows active at `now`, in a buffer reused across epochs.
        let mut active = std::mem::take(&mut self.policy.active);
        active.clear();
        active.extend((0..self.flows.len() as u32).filter(|&i| {
            let f = &self.flows[i as usize];
            (f.outcome.is_fabric_bound() || f.spec.nic.is_some())
                && (f.spec.start.as_nanos() as f64) <= now_ns
                && now_ns < f.spec.stop_or(horizon).as_nanos() as f64
        }));
        if active.is_empty() {
            self.policy.active = active;
            return;
        }

        // BDP-adaptive control is a closed loop over measured latency; it
        // never consults demands or capacities, so handle it before any
        // allocator work.
        if let TrafficPolicy::BdpAdaptive { latency_factor, .. } = self.cfg.policy {
            // AIMD on each active flow's rate against its latency target.
            for &i in &active {
                let f = &mut self.flows[i as usize];
                let h = &mut self.flow_hot[i as usize];
                let measured = if h.win_lat_n > 0 {
                    h.win_lat_sum_ns / h.win_lat_n as f64
                } else {
                    f.mean_unloaded_ns
                };
                h.win_lat_sum_ns = 0.0;
                h.win_lat_n = 0;
                let target = latency_factor * f.mean_unloaded_ns;
                let demand_gb = f
                    .spec
                    .demand_at(SimTime::from_nanos(now_ns as u64))
                    .map_or(f64::INFINITY, |b| b.as_gb_per_s());
                // Start from the hardware-budget-implied rate.
                let current = f.adaptive_rate.unwrap_or_else(|| {
                    (h.budget_max as f64 * LINE as f64 / f.mean_unloaded_ns).min(1000.0)
                });
                let next = if measured > target {
                    (current * 0.85).max(0.25)
                } else {
                    (current * 1.05 + 0.1).min(demand_gb).min(1000.0)
                };
                f.adaptive_rate = Some(next);
                let per_issuer = next / f.spec.issuer_count() as f64;
                h.gap_mean_ns = if per_issuer > 0.0 {
                    gap_from_rate(Some(Bandwidth::from_gb_per_s(per_issuer)))
                } else {
                    f64::INFINITY
                };
            }
            self.policy.active = active;
            return;
        }

        // Demand vector in active order; footprints and capacities were
        // interned at admission, so this is the only per-epoch derivation.
        let mut demands = std::mem::take(&mut self.policy.demands);
        demands.clear();
        demands.extend(active.iter().map(|&i| {
            self.flows[i as usize]
                .spec
                .demand_at(SimTime::from_nanos(now_ns as u64))
                .map_or(f64::INFINITY, |b| b.as_bytes_per_s())
        }));

        // Incremental epoch: same active set, bit-identical demands ⇒ the
        // equilibrium — and every gap it implies — is unchanged; skip the
        // solve. Gaps are only written here for allocator-backed policies,
        // so the memo can never go stale between epochs.
        let p = &mut self.policy;
        if p.valid
            && p.last_active == active
            && p.last_demand_bits.len() == demands.len()
            && p.last_demand_bits
                .iter()
                .zip(&demands)
                .all(|(&b, d)| b == d.to_bits())
        {
            p.active = active;
            p.demands = demands;
            return;
        }
        p.last_active.clear();
        p.last_active.extend_from_slice(&active);
        p.last_demand_bits.clear();
        p.last_demand_bits
            .extend(demands.iter().map(|d| d.to_bits()));
        p.valid = true;

        let mut rates = std::mem::take(&mut self.policy.rates);
        let mut dense = std::mem::take(&mut self.policy.dense);
        let solved = self.cfg.policy.allocate_dense(
            &demands,
            |k| self.flows[active[k] as usize].footprint.as_slice(),
            self.arena.capacities(),
            &mut dense,
            &mut rates,
        );
        if solved {
            for (k, &i) in active.iter().enumerate() {
                let f = &mut self.flows[i as usize];
                let issuers = f.spec.issuer_count() as f64;
                let per_issuer = Bandwidth::from_bytes_per_s(rates[k] / issuers);
                // A zero allocation (zero-demand schedule piece) pauses the
                // flow rather than unthrottling it.
                self.flow_hot[i as usize].gap_mean_ns = if per_issuer.is_positive() {
                    gap_from_rate(Some(per_issuer))
                } else {
                    f64::INFINITY
                };
            }
        }
        let p = &mut self.policy;
        p.active = active;
        p.demands = demands;
        p.rates = rates;
        p.dense = dense;
    }

    /// A flow's demand schedule entered a new piece: under the hardware
    /// default the engine re-paces directly (a Policy event at the same
    /// instant already handled managed policies), then every issuer is
    /// re-kicked so rate increases take effect immediately.
    fn on_demand(&mut self, flow: u32, now_ns: f64) {
        let fi = flow as usize;
        if now_ns >= self.flow_hot[fi].stop_ns {
            return;
        }
        if self.cfg.policy == TrafficPolicy::HardwareDefault {
            let now = SimTime::from_nanos(now_ns as u64);
            self.flow_hot[fi].gap_mean_ns =
                demand_gap(self.flows[fi].spec.demand_per_issuer_at(now));
        }
        let paused = self.flow_hot[fi].gap_mean_ns.is_infinite();
        let issuers: Vec<u32> = if let Some(nic) = self.flows[fi].spec.nic {
            vec![self.topo.core_count() + nic]
        } else {
            self.flows[fi].spec.cores.iter().map(|c| c.0).collect()
        };
        for issuer in issuers {
            if paused {
                self.cores[issuer as usize].next_allowed_ns = f64::INFINITY;
                continue;
            }
            let rekick = {
                let cs = &mut self.cores[issuer as usize];
                // An issuer parked at the horizon (zero-demand piece) has a
                // pending event far in the future; give it one at `now`.
                let was_parked = cs.next_allowed_ns.is_infinite();
                cs.next_allowed_ns = cs.next_allowed_ns.min(now_ns);
                let rekick = was_parked || !cs.attempt_scheduled;
                cs.attempt_scheduled = cs.attempt_scheduled || rekick;
                rekick
            };
            if rekick {
                self.schedule_at(now_ns, Event::Issue { core: issuer });
            }
        }
    }

    fn capacity_of(&self, point: StageRef, dir: Dir) -> Option<f64> {
        let ch = match point {
            StageRef::Link(l) => self.channels[l as usize].as_ref()?,
            StageRef::SocketNoc(sk) => &self.noc[sk as usize],
            StageRef::CxlPort(c) => &self.cxl_ports[c as usize],
        };
        ch.server(dir).map(|s| s.capacity().as_bytes_per_s())
    }

    fn alloc_txn(&mut self, txn: Txn) -> u32 {
        match self.free_txns.pop() {
            Some(id) => {
                self.txns[id as usize] = txn;
                id
            }
            None => {
                self.txns.push(txn);
                (self.txns.len() - 1) as u32
            }
        }
    }

    fn free_txn(&mut self, id: u32) {
        self.txns[id as usize].live = false;
        self.free_txns.push(id);
    }

    fn finish(
        self,
        horizon: SimTime,
        prof: &PhaseProfiler,
        queue_depth: &DepthHistogram,
        epoch_events: &DepthHistogram,
    ) -> RunResult {
        let window = horizon - SimTime::from_nanos(self.cfg.warmup.as_nanos());
        let window_ns = window.as_nanos() as f64;
        let secs = window.as_secs_f64();

        let flows: Vec<FlowTelemetry> = self
            .flows
            .iter()
            .zip(&self.flow_hot)
            .enumerate()
            .map(|(i, (f, hot))| {
                // Cache-resident core flows are accounted analytically; DMA
                // flows always run on the fabric.
                if let (AccessOutcome::CacheHit { latency_ns, .. }, None) = (f.outcome, f.spec.nic)
                {
                    // Cache-resident: accounted analytically. One line per
                    // hit latency per core, or the offered rate if lower.
                    let per_core = Bandwidth::from_gb_per_s(LINE as f64 / latency_ns);
                    let hw = Bandwidth::from_gb_per_s(
                        per_core.as_gb_per_s() * f.spec.cores.len() as f64,
                    );
                    let achieved = f.spec.offered.map_or(hw, |o| o.min(hw));
                    let mut latency = LatencyHistogram::new();
                    latency.record(SimDuration::from_nanos_f64(latency_ns));
                    return FlowTelemetry {
                        id: FlowId(i as u32),
                        name: f.spec.name.clone(),
                        issued: 0,
                        completed: 0,
                        bytes: (achieved.as_bytes_per_s() * secs) as u64,
                        achieved,
                        latency,
                        analytic: true,
                        analytic_latency_ns: Some(latency_ns),
                        trace: Vec::new(),
                    };
                }
                FlowTelemetry {
                    id: FlowId(i as u32),
                    name: f.spec.name.clone(),
                    issued: hot.issued,
                    completed: hot.completed,
                    bytes: hot.bytes,
                    achieved: Bandwidth::from_bytes_per_s(hot.bytes as f64 / secs),
                    latency: hot.latency.clone(),
                    analytic: false,
                    analytic_latency_ns: None,
                    trace: hot
                        .trace
                        .clone()
                        .map(|t| t.finish(horizon))
                        .unwrap_or_default(),
                }
            })
            .collect();

        // Per-point series, finished at the horizon; indexed links first,
        // then sockets, then CXL ports (matching the recording side).
        type FinishedSeries = (
            Vec<chiplet_sim::stats::TracePoint>,
            Vec<chiplet_sim::stats::TracePoint>,
            Vec<chiplet_sim::stats::GaugePoint>,
        );
        let mut series: Option<Vec<FinishedSeries>> = self.point_traces.map(|traces| {
            traces
                .into_iter()
                .map(|s| {
                    (
                        s.read.finish(horizon),
                        s.write.finish(horizon),
                        s.depth.finish(horizon),
                    )
                })
                .collect()
        });
        let mut attach = |lt: &mut LinkTelemetry, idx: usize| {
            if let Some(series) = series.as_mut() {
                let (r, w, d) = std::mem::take(&mut series[idx]);
                lt.read_trace = r;
                lt.write_trace = w;
                lt.depth_trace = d;
            }
        };

        let n_links = self.channels.len();
        let n_socks = self.noc.len();
        let mut links = Vec::new();
        for (i, ch) in self.channels.iter().enumerate() {
            let Some(ch) = ch else { continue };
            let kind = self.topo.links()[i].kind;
            let mut lt = link_telemetry(
                CapacityPoint::Link {
                    link: i as u32,
                    kind,
                },
                ch,
                window_ns,
            );
            attach(&mut lt, i);
            links.push(lt);
        }
        for (sk, ch) in self.noc.iter().enumerate() {
            let mut lt = link_telemetry(
                CapacityPoint::SocketNoc { socket: sk as u32 },
                ch,
                window_ns,
            );
            attach(&mut lt, n_links + sk);
            links.push(lt);
        }
        for (c, ch) in self.cxl_ports.iter().enumerate() {
            let mut lt = link_telemetry(CapacityPoint::CxlPort { ccd: c as u32 }, ch, window_ns);
            attach(&mut lt, n_links + n_socks + c);
            links.push(lt);
        }

        // Row-major iteration yields cells already sorted by (ccd, dest);
        // zero cells are skipped to match the sparse accumulation of old.
        let matrix: Vec<MatrixCell> = self
            .matrix
            .iter()
            .enumerate()
            .filter(|&(_, &bytes)| bytes > 0)
            .map(|(i, &bytes)| MatrixCell {
                ccd: (i / self.matrix_cols) as u32,
                dest: (i % self.matrix_cols) as u32,
                bytes,
            })
            .collect();

        let profile = self
            .profiler
            .as_ref()
            .map(crate::profiler::Profiler::report);
        let trace = self.spans.map(|c| {
            let (spans, dropped) = c.into_parts();
            TraceReport::from_spans(self.cfg.trace_sampling.unwrap_or(1), spans, dropped)
        });
        let phases = prof.report();
        let mut metrics = self.metrics;
        if let Some(m) = metrics.as_mut() {
            for f in &flows {
                m.gauge_set(
                    "chiplet_flow_achieved_gb_s",
                    &[("flow", f.name.as_str())],
                    f.achieved.as_gb_per_s(),
                );
            }
            for lt in &links {
                let label = match lt.point {
                    CapacityPoint::Link { link, .. } => format!("link{link}"),
                    CapacityPoint::SocketNoc { socket } => format!("noc{socket}"),
                    CapacityPoint::CxlPort { ccd } => format!("cxl{ccd}"),
                };
                for (dir, stats) in [("read", &lt.read), ("write", &lt.write)] {
                    if stats.admissions > 0 {
                        m.gauge_set(
                            "chiplet_link_utilization",
                            &[("link_id", label.as_str()), ("dir", dir)],
                            stats.utilization,
                        );
                    }
                }
            }
            if let Some(p) = self.profiler.as_ref() {
                m.counter_add(
                    "chiplet_profiler_evicted_flows",
                    &[],
                    p.evicted_flows() as f64,
                );
                m.counter_add("chiplet_profiler_records", &[], p.records() as f64);
            }
            if self.cfg.profile_phases {
                phases.emit(m);
                queue_depth.emit(m, "chiplet_engine_queue_depth");
                epoch_events.emit(m, "chiplet_engine_epoch_events");
            }
        }
        RunResult {
            profile,
            trace,
            metrics,
            phases: self.cfg.profile_phases.then_some(phases),
            telemetry: TelemetryReport {
                platform: self.topo.spec().name.clone(),
                window,
                links,
                flows: flows.clone(),
                matrix,
            },
            flows,
            window,
        }
    }
}

/// Limiter tokens: the loaded BDP of the chiplet egress,
/// `capacity × (base latency + 3 × max queue delay) / line`. A platform
/// without the module (`max_queue_ns == 0`) gets a transparent pool far
/// above any reachable in-flight count.
fn derive_limiter_tokens(
    base_latency_ns: f64,
    max_queue_ns: f64,
    cap: Bandwidth,
    hw_demand_slots: u32,
) -> u32 {
    if max_queue_ns <= 0.0 {
        return hw_demand_slots.max(1) * 4;
    }
    let loaded_ns = base_latency_ns + 3.0 * max_queue_ns;
    ((cap.as_gb_per_s() * loaded_ns / LINE as f64).ceil() as u32).max(1)
}

/// Mean inter-issue gap (ns) for a per-core offered rate; 0 = unthrottled.
fn gap_from_rate(rate: Option<Bandwidth>) -> f64 {
    match rate {
        Some(bw) if bw.is_positive() => LINE as f64 / bw.bytes_per_ns(),
        _ => 0.0,
    }
}

/// Inter-issue gap for a demand-schedule piece: `None` = unthrottled (gap
/// 0), a positive demand paces, and a zero demand pauses the flow
/// (infinite gap) until the next piece.
fn demand_gap(rate: Option<Bandwidth>) -> f64 {
    match rate {
        None => 0.0,
        Some(bw) if bw.is_positive() => gap_from_rate(Some(bw)),
        Some(_) => f64::INFINITY,
    }
}

fn link_telemetry(point: CapacityPoint, ch: &DirectionalChannel, window_ns: f64) -> LinkTelemetry {
    let dir_stats = |dir: Dir| -> DirStats {
        match ch.server(dir) {
            Some(s) => DirStats {
                bytes: s.bytes_served(),
                admissions: s.admitted(),
                utilization: s.utilization(window_ns),
                mean_wait_ns: s.mean_wait_ns(),
                max_wait_ns: s.max_wait_ns(),
            },
            None => DirStats::default(),
        }
    };
    LinkTelemetry {
        point,
        read: dir_stats(Dir::Read),
        write: dir_stats(Dir::Write),
        read_trace: Vec::new(),
        write_trace: Vec::new(),
        depth_trace: Vec::new(),
    }
}

/// Declares the event engine's metric families (names, kinds, help text)
/// so every dump carries the schema even for families that stay sparse.
fn describe_engine_metrics(m: &mut crate::metrics::MetricsRegistry) {
    use crate::metrics::MetricKind;
    m.describe(
        "chiplet_link_bytes",
        MetricKind::Counter,
        "Bytes admitted at a capacity point, by direction.",
    );
    m.describe(
        "chiplet_link_wait_ns",
        MetricKind::Histogram,
        "Queueing wait per admission at a capacity point, ns.",
    );
    m.describe(
        "chiplet_flow_bytes",
        MetricKind::Counter,
        "Payload bytes completed per flow inside the measured window.",
    );
    m.describe(
        "chiplet_flow_completions",
        MetricKind::Counter,
        "Transactions completed per flow inside the measured window.",
    );
    m.describe(
        "chiplet_flow_latency_ns",
        MetricKind::Histogram,
        "End-to-end transaction latency per flow, ns.",
    );
    m.describe(
        "chiplet_flow_achieved_gb_s",
        MetricKind::Gauge,
        "Achieved flow bandwidth over the measured window, GB/s.",
    );
    m.describe(
        "chiplet_link_utilization",
        MetricKind::Gauge,
        "Capacity-point utilization over the measured window, by direction.",
    );
    m.describe(
        "chiplet_profiler_evicted_flows",
        MetricKind::Counter,
        "Flows evicted from the profiler's bounded per-flow sketch map.",
    );
    m.describe(
        "chiplet_profiler_records",
        MetricKind::Counter,
        "Transaction records absorbed by the sketch profiler.",
    );
    // Self-profiling families (`EngineConfig::profile_phases`). Phase
    // timers are wall-clock and the queue histograms only exist on
    // profiled runs, so all of them are volatile: excluded from default
    // (deterministic) OpenMetrics dumps.
    m.describe_volatile(
        "sim_phase_seconds",
        MetricKind::Counter,
        "Wall seconds spent per engine phase (self-profiling).",
    );
    m.describe_volatile(
        "sim_phase_calls",
        MetricKind::Counter,
        "Handler invocations per engine phase (self-profiling).",
    );
    m.describe_volatile(
        "sim_phase_wall_seconds",
        MetricKind::Gauge,
        "Wall seconds the phase profiler was alive (self-profiling).",
    );
    m.describe_volatile(
        "chiplet_engine_queue_depth_bucket",
        MetricKind::Counter,
        "Event-queue depth, power-of-two buckets by lower bound (sampled every 1024 pops).",
    );
    m.describe_volatile(
        "chiplet_engine_queue_depth_max",
        MetricKind::Gauge,
        "Largest sampled event-queue depth.",
    );
    m.describe_volatile(
        "chiplet_engine_queue_depth_count",
        MetricKind::Gauge,
        "Event-queue depth samples taken.",
    );
    m.describe_volatile(
        "chiplet_engine_epoch_events_bucket",
        MetricKind::Counter,
        "Events handled per policy epoch, power-of-two buckets by lower bound.",
    );
    m.describe_volatile(
        "chiplet_engine_epoch_events_max",
        MetricKind::Gauge,
        "Largest events-per-epoch count.",
    );
    m.describe_volatile(
        "chiplet_engine_epoch_events_count",
        MetricKind::Gauge,
        "Policy epochs observed.",
    );
}

/// Convenience: pointer-chase latency from a core to a DIMM (the Table 2
/// methodology) without standing up flows by hand. Returns mean ns.
///
/// The one engine built outside `EventEngineBackend`: the criterion row
/// `engine/table2_pointer_chase_30us` and the engine tests time and check
/// the bare engine through it. Studies chase through the scenario layer
/// (`chiplet_membench::latency`).
pub fn pointer_chase_latency_ns(
    topo: &Topology,
    core: CoreId,
    dimm: DimmId,
    working_set: ByteSize,
    cfg: EngineConfig,
) -> f64 {
    let mut engine = Engine::new(topo, cfg);
    engine.add_flow(
        FlowSpec::pointer_chase("chase", core, Target::dimm(dimm))
            .working_set(working_set)
            .build(topo),
    );
    let result = engine.run(SimTime::from_micros(30));
    result.flows[0].mean_latency_ns()
}

fn resource_key(point: StageRef, dir: Dir) -> ResourceKey {
    let d = match dir {
        Dir::Read => 0u64,
        Dir::Write => 1u64,
    };
    match point {
        StageRef::Link(l) => (l as u64) | (d << 40),
        StageRef::SocketNoc(sk) => (1 << 41) | (sk as u64) | (d << 40),
        StageRef::CxlPort(c) => (1 << 42) | (c as u64) | (d << 40),
    }
}

#[cfg(test)]
mod tests;
