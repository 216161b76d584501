//! The serializable scenario description.

use chiplet_fluid::FluidLink;
use chiplet_mem::{OpKind, Pattern};
use chiplet_sim::{ByteSize, DemandSchedule, SimDuration, SimTime};
use chiplet_topology::{CcdId, CoreId, PlatformError, PlatformSpec, Topology};
use serde::{Deserialize, Serialize};

use crate::engine::EngineConfig;
use crate::flow::{FlowSpec, Target};
use crate::traffic::TrafficPolicy;

/// A scenario failed to resolve against its platform or backend.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The spec references something that doesn't exist (an unknown
    /// platform name, an out-of-range CCD, a missing fluid link table…).
    Invalid(String),
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<PlatformError> for ScenarioError {
    fn from(e: PlatformError) -> Self {
        ScenarioError::Invalid(e.to_string())
    }
}

fn invalid<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Invalid(msg.into()))
}

/// Which platform a scenario runs on.
// An inline `PlatformSpec` dwarfs a preset name, but specs are parsed
// once per run and boxing would leak into the JSON-facing constructors.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologyChoice {
    /// A named preset: `epyc_7302`, `epyc_9634`, `dual_epyc_7302`,
    /// `monolithic`, or `epyc_9634_nic` (the 9634 with a 400 GbE NIC).
    Named(String),
    /// An inline platform description.
    Inline(PlatformSpec),
}

impl TopologyChoice {
    /// The platform spec this choice selects, once it passes
    /// [`PlatformSpec::check_buildable`].
    pub fn platform(&self) -> Result<PlatformSpec, ScenarioError> {
        let platform = match self {
            TopologyChoice::Named(name) => match name.as_str() {
                "epyc_7302" => Ok(PlatformSpec::epyc_7302()),
                "epyc_9634" => Ok(PlatformSpec::epyc_9634()),
                "dual_epyc_7302" => Ok(PlatformSpec::dual_epyc_7302()),
                "monolithic" => Ok(PlatformSpec::monolithic_baseline()),
                "epyc_9634_nic" => {
                    Ok(PlatformSpec::epyc_9634().with_nic(chiplet_topology::NicSpec::gbe400()))
                }
                other => invalid(format!(
                    "unknown platform '{other}' (expected epyc_7302, epyc_9634, \
                     dual_epyc_7302, monolithic, or epyc_9634_nic)"
                )),
            },
            TopologyChoice::Inline(spec) => Ok(spec.clone()),
        }?;
        platform.check_buildable()?;
        Ok(platform)
    }

    /// Builds the topology.
    pub fn resolve(&self) -> Result<Topology, ScenarioError> {
        Ok(Topology::build(&self.platform()?))
    }
}

/// Which issuing cores an engine flow uses, resolved against the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoreSelect {
    /// Explicit core ids.
    Cores(Vec<u32>),
    /// Every core of one CCD.
    Ccd(u32),
    /// Every core of several CCDs.
    Ccds(Vec<u32>),
    /// Every core of one CCX.
    Ccx(u32),
    /// Every core of the platform.
    All,
}

impl CoreSelect {
    /// The selected cores, in id order.
    pub fn resolve(&self, topo: &Topology) -> Result<Vec<CoreId>, ScenarioError> {
        let ccds = topo.spec().ccd_count;
        match self {
            CoreSelect::Cores(ids) => {
                for &c in ids {
                    if c >= topo.core_count() {
                        return invalid(format!("core {c} out of range"));
                    }
                }
                Ok(ids.iter().map(|&c| CoreId(c)).collect())
            }
            CoreSelect::Ccd(c) => {
                if *c >= ccds {
                    return invalid(format!("CCD {c} out of range (platform has {ccds})"));
                }
                Ok(topo.cores_of_ccd(CcdId(*c)).collect())
            }
            CoreSelect::Ccds(cs) => {
                let mut cores = Vec::new();
                for &c in cs {
                    if c >= ccds {
                        return invalid(format!("CCD {c} out of range (platform has {ccds})"));
                    }
                    cores.extend(topo.cores_of_ccd(CcdId(c)));
                }
                Ok(cores)
            }
            CoreSelect::Ccx(x) => {
                let cores: Vec<CoreId> = topo.cores_of_ccx(*x).collect();
                if cores.is_empty() {
                    return invalid(format!("CCX {x} has no cores on this platform"));
                }
                Ok(cores)
            }
            CoreSelect::All => Ok((0..topo.core_count()).map(CoreId).collect()),
        }
    }
}

/// An engine flow's destination, resolved against the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TargetSpec {
    /// Every DIMM (the NPS1 interleave set).
    AllDimms,
    /// Explicit DIMM ids.
    Dimms(Vec<u32>),
    /// A CXL device, by index.
    Cxl(u32),
}

impl TargetSpec {
    /// The concrete target.
    pub fn resolve(&self, topo: &Topology) -> Result<Target, ScenarioError> {
        match self {
            TargetSpec::AllDimms => Ok(Target::all_dimms(topo)),
            TargetSpec::Dimms(ds) => {
                if ds.is_empty() {
                    return invalid("flow targets an empty DIMM set");
                }
                for &d in ds {
                    if d >= topo.dimm_count() {
                        return invalid(format!("DIMM {d} out of range"));
                    }
                }
                Ok(Target::Dimms(
                    ds.iter().map(|&d| chiplet_topology::DimmId(d)).collect(),
                ))
            }
            TargetSpec::Cxl(dev) => {
                if *dev >= topo.cxl_device_count() {
                    return invalid(format!(
                        "CXL device {dev} not present (platform has {})",
                        topo.cxl_device_count()
                    ));
                }
                Ok(Target::Cxl(*dev))
            }
        }
    }
}

/// The event-engine mapping of a scenario flow: where transactions come
/// from and where they go.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineFlow {
    /// Issuing cores. Ignored when `nic` is set.
    pub cores: CoreSelect,
    /// Issuing NIC for DMA flows; mutually exclusive with cores.
    #[serde(default)]
    pub nic: Option<u32>,
    /// Destination.
    pub target: TargetSpec,
    /// Operation kind; absent = sequential reads.
    #[serde(default)]
    pub op: Option<OpKind>,
    /// Spatial pattern; absent = sequential.
    #[serde(default)]
    pub pattern: Option<Pattern>,
    /// Working-set size; absent = 1 GiB (memory-resident).
    #[serde(default)]
    pub working_set: Option<ByteSize>,
    /// Start time; absent = time zero.
    #[serde(default)]
    pub start: Option<SimTime>,
    /// Stop time; absent = the run horizon.
    #[serde(default)]
    pub stop: Option<SimTime>,
}

/// One flow of a scenario.
///
/// The demand schedule is backend-independent; `engine` maps the flow onto
/// the transaction engine's cores and targets, and `links` maps it onto the
/// fluid model's link table. A flow that carries both runs on either
/// backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioFlow {
    /// Display name (appears in the report).
    pub name: String,
    /// Offered load over time; absent = unthrottled for the whole run.
    #[serde(default)]
    pub demand: Option<DemandSchedule>,
    /// Event-engine mapping.
    #[serde(default)]
    pub engine: Option<EngineFlow>,
    /// Fluid-model mapping: indices into the scenario's fluid link table.
    #[serde(default)]
    pub links: Vec<usize>,
}

/// Event-engine execution options.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineOptions {
    /// Statistics warmup; absent = the engine default (2 µs).
    #[serde(default)]
    pub warmup: Option<SimDuration>,
    /// Variability-free memory devices (calibration mode).
    #[serde(default)]
    pub deterministic_memory: bool,
    /// Per-flow bandwidth time series with this sampling window.
    #[serde(default)]
    pub trace_window: Option<SimDuration>,
    /// Span-level hop tracing: sample 1 in N transactions.
    #[serde(default)]
    pub trace_sampling: Option<u32>,
    /// Metrics-registry window width (sim time). Absent = no registry when
    /// running plain, or horizon/32 when running with metrics. Absent
    /// serializes as `null`, and every spec with engine options has always
    /// hashed that `null`, so sweep-point hashes and seeds depend on it.
    #[serde(default)]
    pub metrics_window: Option<SimDuration>,
    /// Engine self-profiling (phase timers + queue histograms). Absent =
    /// off; it serializes as `null`, which hashes depend on like
    /// `metrics_window`.
    #[serde(default)]
    pub profile_phases: Option<bool>,
    /// The slot of a removed engine-worker setting. The vendored serializer
    /// writes every field (`None` as `null`), so every spec with engine
    /// options has always hashed `"workers": null`; keeping the slot keeps
    /// those content hashes and the seeds derived from them.
    #[serde(default)]
    pub workers: RetiredField,
}

/// A spec field that no longer means anything: it always serializes as
/// `null`, and any value it is given parses and is dropped. A spec that
/// still sets it runs and hashes exactly like one that does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetiredField;

impl Serialize for RetiredField {
    fn write_json(&self, w: &mut serde::JsonWriter) {
        w.null();
    }
}

impl Deserialize for RetiredField {
    fn from_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        r.skip();
        Ok(RetiredField)
    }
}

/// A fluid link: a preset name or an inline description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FluidLinkSpec {
    /// A named preset: `if_9634`, `plink_9634`, or `if_7302`.
    Named(String),
    /// An inline link.
    Inline(FluidLink),
}

impl FluidLinkSpec {
    /// The concrete link.
    pub fn resolve(&self) -> Result<FluidLink, ScenarioError> {
        match self {
            FluidLinkSpec::Named(name) => match name.as_str() {
                "if_9634" => Ok(FluidLink::if_9634()),
                "plink_9634" => Ok(FluidLink::plink_9634()),
                "if_7302" => Ok(FluidLink::if_7302()),
                other => invalid(format!(
                    "unknown fluid link '{other}' (expected if_9634, plink_9634, or if_7302)"
                )),
            },
            FluidLinkSpec::Inline(link) => Ok(link.clone()),
        }
    }
}

/// Fluid-backend execution options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidOptions {
    /// The shared-link table flows reference by index.
    pub links: Vec<FluidLinkSpec>,
    /// Integration step; absent = 1 ms.
    #[serde(default)]
    pub dt: Option<SimDuration>,
    /// Trace sampling interval; absent = 10 ms.
    #[serde(default)]
    pub sample: Option<SimDuration>,
}

/// Which engine executes the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// The transaction-level event engine.
    Event,
    /// The flow-level fluid engine.
    Fluid,
}

/// A complete, serializable experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (appears in the report).
    pub name: String,
    /// One-line description.
    #[serde(default)]
    pub description: String,
    /// The platform.
    pub topology: TopologyChoice,
    /// Which engine runs it.
    pub backend: BackendKind,
    /// RNG seed; absent = 42. Same spec + seed ⇒ byte-identical report.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Run horizon.
    pub horizon: SimTime,
    /// Traffic-manager policy (event backend only).
    #[serde(default)]
    pub policy: TrafficPolicy,
    /// Event-engine options.
    #[serde(default)]
    pub engine: Option<EngineOptions>,
    /// Fluid-backend options; required when `backend` is `Fluid`.
    #[serde(default)]
    pub fluid: Option<FluidOptions>,
    /// The flows.
    pub flows: Vec<ScenarioFlow>,
}

impl ScenarioSpec {
    /// The effective seed.
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// The engine configuration this spec implies.
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::default().with_seed(self.seed_or_default());
        cfg.policy = self.policy.clone();
        if let Some(opts) = &self.engine {
            if let Some(w) = opts.warmup {
                cfg.warmup = w;
            }
            cfg.deterministic_memory = opts.deterministic_memory;
            cfg.trace_window = opts.trace_window;
            cfg.trace_sampling = opts.trace_sampling;
            cfg.metrics_window = opts.metrics_window;
            cfg.profile_phases = opts.profile_phases.unwrap_or(false);
        }
        cfg
    }

    /// Compiles one scenario flow into an engine [`FlowSpec`].
    pub fn compile_flow(
        &self,
        flow: &ScenarioFlow,
        topo: &Topology,
    ) -> Result<FlowSpec, ScenarioError> {
        let Some(ef) = &flow.engine else {
            return invalid(format!(
                "flow '{}' has no engine mapping (required by the event backend)",
                flow.name
            ));
        };
        if let Some(nic) = ef.nic {
            if nic >= topo.nic_count() {
                return invalid(format!(
                    "flow '{}': NIC {nic} not present on this platform",
                    flow.name
                ));
            }
        }
        let cores = if ef.nic.is_some() {
            Vec::new()
        } else {
            let cores = ef.cores.resolve(topo)?;
            if cores.is_empty() {
                return invalid(format!("flow '{}' selects no cores", flow.name));
            }
            cores
        };
        let target = ef.target.resolve(topo)?;
        let op = ef.op.unwrap_or(OpKind::Read);
        if ef.nic.is_some() {
            if target.is_cxl() {
                return invalid(format!(
                    "flow '{}': NIC DMA targets memory, not CXL",
                    flow.name
                ));
            }
            if op == OpKind::WriteTemporal {
                return invalid(format!("flow '{}': DMA writes are non-temporal", flow.name));
            }
        }
        let mut spec = FlowSpec {
            name: flow.name.clone(),
            cores,
            nic: ef.nic,
            target,
            op,
            pattern: ef.pattern.unwrap_or(Pattern::Sequential),
            working_set: ef.working_set.unwrap_or_else(|| ByteSize::from_gib(1)),
            offered: None,
            demand: None,
            start: ef.start.unwrap_or(SimTime::ZERO),
            stop: ef.stop,
        };
        if let Some(stop) = spec.stop {
            if stop < spec.start {
                return invalid(format!("flow '{}' stops before it starts", flow.name));
            }
        }
        match &flow.demand {
            None => {}
            Some(s) if s.is_constant() => {
                // A single-piece schedule compiles to the engine's constant
                // pacing path (bit-identical to a hand-built `offered`).
                spec.offered = s.at(SimTime::ZERO);
                if spec.offered.is_none() {
                    spec.demand = None;
                } else if !spec.offered.unwrap().is_positive() {
                    spec.demand = Some(s.clone());
                    spec.offered = None;
                }
            }
            Some(s) => spec.demand = Some(s.clone()),
        }
        Ok(spec)
    }

    /// Serializes to pretty JSON. The output is deterministic: field order
    /// follows the declaration order, so equal specs yield equal bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario specs always serialize")
    }

    /// Parses a spec back from [`ScenarioSpec::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(s).map_err(|e| ScenarioError::Invalid(format!("JSON error: {e}")))
    }

    /// Runs the scenario on its configured backend.
    pub fn run(&self) -> Result<super::ScenarioReport, ScenarioError> {
        use super::Backend;
        match self.backend {
            BackendKind::Event => super::EventEngineBackend.run(self),
            BackendKind::Fluid => super::FluidBackend.run(self),
        }
    }

    /// Runs the scenario and folds its telemetry into `metrics`, with
    /// `scenario` and `backend` labels distinguishing this run's series.
    /// Metric values are derived from sim time only, so repeated calls
    /// against a fresh registry produce byte-identical
    /// [`MetricsRegistry::to_openmetrics`] dumps.
    ///
    /// [`MetricsRegistry::to_openmetrics`]: crate::metrics::MetricsRegistry::to_openmetrics
    pub fn run_with_metrics(
        &self,
        metrics: &mut crate::metrics::MetricsRegistry,
    ) -> Result<super::ScenarioReport, ScenarioError> {
        use super::Backend;
        match self.backend {
            BackendKind::Event => super::EventEngineBackend.run_with_metrics(self, metrics),
            BackendKind::Fluid => super::FluidBackend.run_with_metrics(self, metrics),
        }
    }
}
