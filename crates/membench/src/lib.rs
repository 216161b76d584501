//! # chiplet-membench
//!
//! The paper's characterization utility, reimplemented over the simulator.
//!
//! §3.1: "We developed a micro benchmark utility (like PMBW) that can
//! flexibly generate different data flows (such as one or multiple
//! concurrent cachelines, random/sequential read/write access patterns, and
//! temporal or non-temporal writes) over a size-configurable working set,
//! originating from and destined to compute chiplets, memory domains, and
//! device domains across the chiplet networking subsystem."
//!
//! Each probe is data: a generator compiles its parameters into
//! [`ScenarioSpec`]s that inherit platform, seed, policy and memory mode
//! from a base spec (see [`base`]), the sweep executor
//! ([`SweepRunner::run_study`]) runs them on the event backend, and a pure
//! reducer folds the reports into the rows the paper's tables and figures
//! report:
//!
//! * [`latency::latency`] — pointer-chase latency to a DIMM position or the
//!   CXL device over a working set (Table 2's methodology);
//! * [`bandwidth::bandwidth`] — peak read/write bandwidth from every core
//!   scope to a destination (Table 3);
//! * [`loaded::loaded`] — average + P999 latency vs offered load
//!   (Figure 3);
//! * [`compete::compete`] — two-flow bandwidth partitioning (Figure 4);
//! * [`interference::interference`] — frontend-vs-background read/write
//!   interference (Figure 6).
//!
//! Every generated spec is an ordinary scenario file: `to_json` writes it,
//! and `chiplet-scenario run` or `chiplet-serve` run it unchanged. The
//! one-call helpers (`chase_sweep`, `table3_column`, …) run their specs
//! through the same executor, uncached.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod compete;
pub mod interference;
pub mod latency;
pub mod loaded;
pub mod scope;

pub use scope::CoreScope;

use chiplet_mem::OpKind;
use chiplet_net::scenario::{
    BackendKind, CoreSelect, EngineFlow, EngineOptions, FlowReport, ScenarioFlow, ScenarioReport,
    ScenarioSpec, SweepRunner, TargetSpec, TopologyChoice,
};
use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimTime};
use chiplet_topology::Topology;

/// A probe base on a platform preset (`epyc_7302`, `epyc_9634`,
/// `dual_epyc_7302`, `monolithic`): default seed and policy, and
/// variability-free DRAM/CXL devices when `deterministic_memory` is set.
/// Generators copy its `topology`, `seed`, `policy` and `engine` into every
/// spec they emit.
pub fn base(platform: &str, deterministic_memory: bool) -> ScenarioSpec {
    ScenarioSpec {
        name: platform.to_string(),
        description: String::new(),
        topology: TopologyChoice::Named(platform.to_string()),
        backend: BackendKind::Event,
        seed: None,
        horizon: SimTime::ZERO,
        policy: Default::default(),
        engine: deterministic_memory.then(|| EngineOptions {
            deterministic_memory: true,
            ..Default::default()
        }),
        fluid: None,
        flows: Vec::new(),
    }
}

/// Runs probe specs through the sweep executor, uncached, and returns their
/// reports in input order. Panics when a spec does not resolve; generated
/// specs always do.
fn execute(specs: Vec<ScenarioSpec>) -> Vec<ScenarioReport> {
    let (outcome, _) = SweepRunner::default()
        .run_study("membench", specs, None)
        .unwrap_or_else(|e| panic!("probe spec: {e}"));
    outcome.points.into_iter().map(|p| p.report).collect()
}

/// The per-flow results of a completed event run.
fn flows(report: &ScenarioReport) -> &[FlowReport] {
    &report.outcome().expect("event runs complete").flows
}

/// The base's platform, built.
///
/// # Panics
///
/// Panics when the base names no buildable platform.
fn topology(base: &ScenarioSpec) -> Topology {
    base.topology
        .resolve()
        .unwrap_or_else(|e| panic!("probe base '{}': {e}", base.name))
}

/// One probe run: `flows` over `horizon`, with the base's platform, seed,
/// policy and engine options.
fn probe(
    base: &ScenarioSpec,
    name: String,
    description: &str,
    horizon: SimTime,
    flows: Vec<ScenarioFlow>,
) -> ScenarioSpec {
    ScenarioSpec {
        name,
        description: description.to_string(),
        topology: base.topology.clone(),
        backend: BackendKind::Event,
        seed: base.seed,
        horizon,
        policy: base.policy.clone(),
        engine: base.engine.clone(),
        fluid: None,
        flows,
    }
}

/// A sequential stream over a 1 GiB working set, paced at `demand_gb_s`
/// in total or unthrottled when `None`.
fn stream(
    name: &str,
    cores: CoreSelect,
    target: TargetSpec,
    op: OpKind,
    demand_gb_s: Option<f64>,
) -> ScenarioFlow {
    ScenarioFlow {
        name: name.to_string(),
        demand: demand_gb_s.map(|gb| DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(gb)))),
        engine: Some(EngineFlow {
            cores,
            nic: None,
            target,
            op: Some(op),
            pattern: None,
            working_set: Some(ByteSize::from_gib(1)),
            start: None,
            stop: None,
        }),
        links: Vec::new(),
    }
}

/// Half of `cores`, split at the midpoint: `(first half, second half)`.
fn halves(cores: impl Iterator<Item = chiplet_topology::CoreId>) -> (CoreSelect, CoreSelect) {
    let ids: Vec<u32> = cores.map(|c| c.0).collect();
    let (a, b) = ids.split_at(ids.len() / 2);
    (CoreSelect::Cores(a.to_vec()), CoreSelect::Cores(b.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_carries_the_memory_mode() {
        assert!(base("epyc_7302", true).engine_config().deterministic_memory);
        assert!(
            !base("epyc_7302", false)
                .engine_config()
                .deterministic_memory
        );
    }
}
