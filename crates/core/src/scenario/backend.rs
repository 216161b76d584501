//! The two scenario executors.

use chiplet_fluid::{FluidFlowSpec, FluidLink, FluidSim};
use chiplet_sim::{DemandSchedule, SimDuration, SimTime};
use chiplet_topology::Topology;

use super::report::{FlowReport, ScenarioOutcome, ScenarioReport};
use super::spec::{ScenarioError, ScenarioSpec};
use crate::engine::{Engine, EngineConfig, RunResult};
use crate::metrics::MetricsRegistry;

/// A scenario executor: compiles a [`ScenarioSpec`] for one of the
/// workspace's engines and returns the common [`ScenarioReport`].
pub trait Backend {
    /// The backend's name, as recorded in reports.
    fn name(&self) -> &'static str;

    /// Runs the scenario. `Err` means the spec itself doesn't resolve;
    /// a platform that can't exercise the scenario yields
    /// `Ok(ScenarioReport::Unsupported { .. })` instead.
    fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError>;

    /// Runs the scenario and merges its telemetry into `metrics`, labelled
    /// with `backend` and `scenario` so several runs share one registry.
    /// The default is a plain [`Backend::run`] that records nothing — a
    /// backend that produces telemetry overrides this.
    fn run_with_metrics(
        &self,
        spec: &ScenarioSpec,
        metrics: &mut MetricsRegistry,
    ) -> Result<ScenarioReport, ScenarioError> {
        let _ = metrics;
        self.run(spec)
    }
}

/// Runs scenarios on the transaction-level event engine.
pub struct EventEngineBackend;

impl EventEngineBackend {
    /// Builds an engine loaded with the spec's flows over a resolved
    /// topology. Exposed so callers that need the full [`RunResult`]
    /// (trace exports, telemetry dumps) still construct engines through
    /// the scenario layer. A spec whose horizon does not exceed its
    /// statistics warmup, or with a zero-width trace or metrics window, is
    /// [`ScenarioError::Invalid`].
    pub fn instantiate<'t>(
        spec: &ScenarioSpec,
        topo: &'t Topology,
    ) -> Result<Engine<'t>, ScenarioError> {
        Self::instantiate_with(spec, topo, spec.engine_config())
    }

    /// [`EventEngineBackend::instantiate`] under an explicit engine config.
    fn instantiate_with<'t>(
        spec: &ScenarioSpec,
        topo: &'t Topology,
        cfg: EngineConfig,
    ) -> Result<Engine<'t>, ScenarioError> {
        if spec.horizon.as_nanos() <= cfg.warmup.as_nanos() {
            return Err(ScenarioError::Invalid(format!(
                "horizon {} must exceed the statistics warmup {}",
                spec.horizon, cfg.warmup
            )));
        }
        for (field, window) in [
            ("trace_window", cfg.trace_window),
            ("metrics_window", cfg.metrics_window),
        ] {
            if window.is_some_and(|w| w.is_zero()) {
                return Err(ScenarioError::Invalid(format!(
                    "engine.{field} must be positive"
                )));
            }
        }
        let mut engine = Engine::new(topo, cfg);
        // Each core or NIC issues for at most one flow (the engine asserts
        // it); which flow first claimed each issuer, by index.
        let cores = topo.core_count() as usize;
        let mut owner = vec![None; cores + topo.nic_count() as usize];
        for (i, flow) in spec.flows.iter().enumerate() {
            let compiled = spec.compile_flow(flow, topo)?;
            let issuers = compiled.cores.iter().map(|c| c.index());
            for issuer in issuers.chain(compiled.nic.map(|n| cores + n as usize)) {
                let Some(first) = owner[issuer].replace(i) else {
                    continue;
                };
                let what = if issuer < cores {
                    format!("core {issuer}")
                } else {
                    format!("NIC {}", issuer - cores)
                };
                return Err(ScenarioError::Invalid(if first == i {
                    format!("flow '{}' lists {what} twice", flow.name)
                } else {
                    format!(
                        "flows '{}' and '{}' both issue from {what}",
                        spec.flows[first].name, flow.name
                    )
                }));
            }
            engine.add_flow(compiled);
        }
        Ok(engine)
    }

    /// Runs the spec and returns the engine's native result alongside the
    /// resolved topology (for callers that post-process telemetry).
    pub fn run_raw(spec: &ScenarioSpec) -> Result<(RunResult, Topology), ScenarioError> {
        Self::run_raw_with(spec, spec.engine_config())
    }

    /// The metrics window used when a spec enables metrics without naming
    /// one: horizon / 32, floored at a nanosecond.
    pub fn default_metrics_window(spec: &ScenarioSpec) -> SimDuration {
        SimDuration::from_nanos((spec.horizon.as_nanos() / 32).max(1))
    }

    fn run_raw_with(
        spec: &ScenarioSpec,
        cfg: EngineConfig,
    ) -> Result<(RunResult, Topology), ScenarioError> {
        let topo = spec.topology.resolve()?;
        let result = Self::instantiate_with(spec, &topo, cfg)?.run(spec.horizon);
        Ok((result, topo))
    }

    fn report(spec: &ScenarioSpec, result: &RunResult, topo: &Topology) -> ScenarioReport {
        let flows = spec
            .flows
            .iter()
            .zip(&result.flows)
            .map(|(sf, ft)| FlowReport {
                name: ft.name.clone(),
                offered_gb_s: sf
                    .demand
                    .as_ref()
                    .and_then(|d| d.at(SimTime::ZERO))
                    .map(|b| b.as_gb_per_s()),
                achieved_gb_s: ft.achieved.as_gb_per_s(),
                mean_latency_ns: Some(ft.mean_latency_ns()),
                p999_latency_ns: Some(ft.p999_latency_ns()),
                issued: ft.issued,
                completed: ft.completed,
                trace: ft.trace.clone(),
            })
            .collect();
        ScenarioReport::Completed(ScenarioOutcome {
            scenario: spec.name.clone(),
            backend: "event".into(),
            platform: topo.spec().name.clone(),
            seed: spec.seed_or_default(),
            horizon: spec.horizon,
            flows,
        })
    }
}

impl Backend for EventEngineBackend {
    fn name(&self) -> &'static str {
        "event"
    }

    fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
        let (result, topo) = Self::run_raw(spec)?;
        Ok(Self::report(spec, &result, &topo))
    }

    fn run_with_metrics(
        &self,
        spec: &ScenarioSpec,
        metrics: &mut MetricsRegistry,
    ) -> Result<ScenarioReport, ScenarioError> {
        let mut cfg = spec.engine_config();
        if cfg.metrics_window.is_none() {
            cfg.metrics_window = Some(Self::default_metrics_window(spec));
        }
        let (result, topo) = Self::run_raw_with(spec, cfg)?;
        if let Some(m) = &result.metrics {
            metrics.merge_labeled(m, &[("backend", self.name()), ("scenario", &spec.name)]);
        }
        Ok(Self::report(spec, &result, &topo))
    }
}

/// Runs scenarios on the flow-level fluid engine.
pub struct FluidBackend;

impl FluidBackend {
    /// Default integration step.
    pub const DEFAULT_DT: SimDuration = SimDuration::from_millis(1);
    /// Default trace sampling interval.
    pub const DEFAULT_SAMPLE: SimDuration = SimDuration::from_millis(10);

    /// Resolves the spec's fluid link table.
    pub fn links(spec: &ScenarioSpec) -> Result<Vec<FluidLink>, ScenarioError> {
        let Some(fluid) = &spec.fluid else {
            return Err(ScenarioError::Invalid(
                "the fluid backend needs a `fluid.links` table".into(),
            ));
        };
        fluid.links.iter().map(|l| l.resolve()).collect()
    }

    /// Builds the sim plus its effective step and sampling interval. Every
    /// link needs a finite, positive capacity (the allocator's contract)
    /// and any instability a finite amplitude `>= 0` and an AR(1)
    /// correlation in `[0, 1)`.
    fn build(spec: &ScenarioSpec) -> Result<(FluidSim, SimDuration, SimDuration), ScenarioError> {
        let links = Self::links(spec)?;
        for (i, link) in links.iter().enumerate() {
            let cap = link.capacity.as_gb_per_s();
            let (amplitude, correlation) = link
                .instability
                .map_or((0.0, 0.0), |n| (n.amplitude, n.correlation));
            let fault = if !(cap.is_finite() && cap > 0.0) {
                format!("capacity must be finite and positive, not {cap} GB/s")
            } else if !(amplitude.is_finite() && amplitude >= 0.0) {
                format!("instability amplitude must be finite and >= 0, not {amplitude}")
            } else if !(0.0..1.0).contains(&correlation) {
                format!("instability correlation must be in [0, 1), not {correlation}")
            } else {
                continue;
            };
            let name = &link.name;
            return Err(ScenarioError::Invalid(format!(
                "fluid link {i} ('{name}'): {fault}"
            )));
        }
        let n_links = links.len();
        let mut sim = FluidSim::new(links);
        for flow in &spec.flows {
            if flow.links.is_empty() {
                return Err(ScenarioError::Invalid(format!(
                    "flow '{}' crosses no fluid links (required by the fluid backend)",
                    flow.name
                )));
            }
            if let Some(&bad) = flow.links.iter().find(|&&l| l >= n_links) {
                return Err(ScenarioError::Invalid(format!(
                    "flow '{}': fluid link {bad} out of range (table has {n_links})",
                    flow.name
                )));
            }
            sim.add_flow(FluidFlowSpec {
                name: flow.name.clone(),
                demand: flow
                    .demand
                    .clone()
                    .unwrap_or_else(|| DemandSchedule::constant(None)),
                links: flow.links.clone(),
            });
        }
        let opts = spec.fluid.as_ref().expect("links() checked presence");
        let dt = opts.dt.unwrap_or(Self::DEFAULT_DT);
        let sample = opts.sample.unwrap_or(Self::DEFAULT_SAMPLE);
        for (field, step) in [("dt", dt), ("sample", sample)] {
            if step.is_zero() {
                return Err(ScenarioError::Invalid(format!(
                    "fluid.{field} must be positive"
                )));
            }
        }
        Ok((sim, dt, sample))
    }

    fn report(
        spec: &ScenarioSpec,
        traces: Vec<Vec<chiplet_sim::stats::TracePoint>>,
    ) -> Result<ScenarioReport, ScenarioError> {
        let platform = spec.topology.platform()?.name;
        let flows = spec
            .flows
            .iter()
            .zip(traces)
            .map(|(sf, trace)| {
                // Time-average of the sampled rate over the whole horizon.
                let mean = if trace.is_empty() {
                    0.0
                } else {
                    trace.iter().map(|p| p.bandwidth.as_gb_per_s()).sum::<f64>()
                        / trace.len() as f64
                };
                FlowReport {
                    name: sf.name.clone(),
                    offered_gb_s: sf
                        .demand
                        .as_ref()
                        .and_then(|d| d.at(SimTime::ZERO))
                        .map(|b| b.as_gb_per_s()),
                    achieved_gb_s: mean,
                    mean_latency_ns: None,
                    p999_latency_ns: None,
                    issued: 0,
                    completed: 0,
                    trace,
                }
            })
            .collect();
        Ok(ScenarioReport::Completed(ScenarioOutcome {
            scenario: spec.name.clone(),
            backend: "fluid".into(),
            platform,
            seed: spec.seed_or_default(),
            horizon: spec.horizon,
            flows,
        }))
    }
}

/// Declares the fluid engine's metric families on a registry, so an
/// instrumented run emits `# HELP` text even for families that stay empty.
pub fn describe_fluid_metrics(m: &mut MetricsRegistry) {
    use crate::metrics::MetricKind;
    m.describe(
        "fluid_ticks",
        MetricKind::Counter,
        "Integration epochs the fluid engine stepped through.",
    );
    m.describe(
        "fluid_flow_bytes",
        MetricKind::Counter,
        "Bytes a fluid flow moved, integrated from its allocated rate.",
    );
    m.describe(
        "fluid_flow_rate_gb_s",
        MetricKind::Histogram,
        "Per-epoch allocated rate of a fluid flow, GB/s.",
    );
    m.describe(
        "fluid_harvest_ramp_ticks",
        MetricKind::Counter,
        "Epochs a flow spent ramping toward a higher equilibrium rate.",
    );
    m.describe(
        "fluid_flow_final_rate_gb_s",
        MetricKind::Gauge,
        "A fluid flow's allocated rate at the end of the run, GB/s.",
    );
    // Self-profiling families: kept volatile so the default
    // (deterministic) dumps pinned by the scenario goldens are unchanged.
    m.describe_volatile(
        "fluid_alloc_memo_hits",
        MetricKind::Counter,
        "Integration epochs served from the allocator's demand memo.",
    );
    m.describe_volatile(
        "fluid_alloc_memo_misses",
        MetricKind::Counter,
        "Integration epochs that re-solved the fluid equilibrium.",
    );
}

impl Backend for FluidBackend {
    fn name(&self) -> &'static str {
        "fluid"
    }

    fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
        let (sim, dt, sample) = Self::build(spec)?;
        let traces = sim.run(spec.horizon, dt, sample, spec.seed_or_default());
        Self::report(spec, traces)
    }

    fn run_with_metrics(
        &self,
        spec: &ScenarioSpec,
        metrics: &mut MetricsRegistry,
    ) -> Result<ScenarioReport, ScenarioError> {
        let (sim, dt, sample) = Self::build(spec)?;
        let mut inner = MetricsRegistry::with_window(sample);
        describe_fluid_metrics(&mut inner);
        let traces =
            sim.run_instrumented(spec.horizon, dt, sample, spec.seed_or_default(), &mut inner);
        metrics.merge_labeled(
            &inner,
            &[("backend", self.name()), ("scenario", &spec.name)],
        );
        Self::report(spec, traces)
    }
}
