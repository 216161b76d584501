//! # chiplet-net
//!
//! The server chiplet networking stack — the system layer the paper argues
//! for ("our community lacks such a system layer and the capabilities it
//! would provide", §2.3), built over a transaction-level simulation of the
//! chiplet SoC.
//!
//! ## What lives here
//!
//! * [`flow`] — the **communication flow abstraction** (Implication #4): a
//!   named stream of memory/device transactions from a set of cores to a
//!   memory or CXL target, with operation kind, access pattern, working set,
//!   and offered load.
//! * [`engine`] — the discrete-event **engine**: flows issue cacheline
//!   transactions under per-core MLP budgets and token-based chiplet
//!   limiters; transactions traverse the topology's capacity points (CCX
//!   limiter link, GMI, socket NoC, UMC channel, P-Link) as FIFO bandwidth
//!   servers; latency, throughput, and interference *emerge* from the
//!   queueing dynamics.
//! * [`telemetry`] — per-link and per-flow runtime statistics: the
//!   `/proc/chiplet-net` analog of the paper's §4 #1.
//! * [`trace`] — span-level hop tracing (§4 #5): sampled transactions
//!   record timestamped events at every capacity point they cross; the
//!   report breaks latency down by hop class and exports Chrome
//!   trace-event JSON for Perfetto.
//! * [`critpath`] — **latency attribution** over those spans: per-flow
//!   critical-path decompositions, the cross-flow blame matrix (which
//!   capacity points own what share of p50/p99 e2e latency), and
//!   speedscope / folded-flamegraph exports.
//! * [`traffic`] — the **global software traffic manager**: pluggable
//!   policies (hardware default sender-driven, max-min fair, weighted fair,
//!   static rate caps) enforced by pacing flows at the source.
//! * [`bdp`] — runtime **bandwidth-delay product monitoring** (Implication
//!   #3): per-flow BDP estimates from achieved bandwidth × observed latency.
//! * [`matrix`] — the **intra-server traffic matrix** (§3.3): ground truth
//!   from the engine plus a gravity-model estimator that reconstructs it
//!   from link counters alone (network-tomography style).
//! * [`sketch`] — probabilistic profiling structures (§4 #5): Count-Min
//!   sketch and SpaceSaving heavy hitters for bounded-memory per-flow
//!   telemetry.
//! * [`metrics`] — the unified **metrics registry** (§4 #5's exposition
//!   half): counters, gauges, and windowed quantile-sketch histograms with
//!   label sets, fed by every engine and the sweep runner, encoded as
//!   OpenMetrics text.
//! * [`dse`] — **design-space exploration**: a deterministic candidate
//!   generator over platform axes (CCD count, NoC grid, link-capacity
//!   scales, CXL attach points), an analytical estimator ~1000x cheaper
//!   than a DES run, Pareto-frontier extraction, and frontier escalation
//!   to full event-engine runs through the content-cached sweep runner.
//! * [`scenario`] — the **declarative scenario layer**: experiments as
//!   JSON-serializable [`ScenarioSpec`]s run through a [`Backend`] trait by
//!   either this crate's event engine or `chiplet_fluid`'s fluid sim, both
//!   producing a common [`ScenarioReport`]; a [`ScenarioRegistry`] names the
//!   built-in paper scenarios.
//!
//! ## Quick start
//!
//! ```
//! use chiplet_net::engine::{Engine, EngineConfig};
//! use chiplet_net::flow::{FlowSpec, Target};
//! use chiplet_mem::{OpKind, Pattern};
//! use chiplet_sim::{Bandwidth, ByteSize, SimTime};
//! use chiplet_topology::{CoreId, PlatformSpec, Topology};
//!
//! let topo = Topology::build(&PlatformSpec::epyc_7302());
//! let mut engine = Engine::new(&topo, EngineConfig::default());
//! engine.add_flow(
//!     FlowSpec::reads("probe", vec![CoreId(0)], Target::all_dimms(&topo))
//!         .working_set(ByteSize::from_gib(1))
//!         .build(&topo),
//! );
//! let result = engine.run(SimTime::from_micros(50));
//! let flow = &result.flows[0];
//! assert!(flow.achieved.as_gb_per_s() > 10.0); // ~14.9 GB/s per Table 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdp;
pub mod critpath;
pub mod dse;
pub mod engine;
pub mod export;
pub mod flow;
pub mod matrix;
pub mod metrics;
pub mod profiler;
pub mod scenario;
pub mod sketch;
pub mod telemetry;
pub mod trace;
pub mod traffic;

pub use bdp::BdpMonitor;
pub use critpath::{BlameMatrix, CritPathReport, FlowCritPath};
pub use dse::{DseAxis, DseOutcome, DseRunner, DseSpec, DseStats, FrontierEntry};
pub use engine::{Engine, EngineConfig, RunResult};
pub use export::export_sysfs;
pub use flow::{FlowId, FlowSpec, Target};
pub use matrix::TrafficMatrix;
pub use metrics::{
    lint_openmetrics, parse_openmetrics, MetricKind, MetricsRegistry, WindowedSketch,
};
pub use profiler::{ProfileReport, Profiler};
pub use scenario::{
    Backend, EventEngineBackend, FluidBackend, ScenarioRegistry, ScenarioReport, ScenarioSpec,
};
pub use telemetry::TelemetryReport;
pub use trace::{HopClass, TraceReport};
pub use traffic::TrafficPolicy;
