//! The traced execution of one sweep point, assembled from the program's
//! public functions so each layer gets its own span.
//!
//! `SweepRunner` and `ScenarioSpec::run` bundle the cache probe, topology
//! build, stage planning, the event loop, report assembly and the cache
//! write. The traced run calls the public ones one by one instead and
//! checks that the simulation reproduces the untraced run's report.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use chiplet_net::engine::RunResult;
use chiplet_net::metrics::MetricsRegistry;
use chiplet_net::scenario::{
    load_cache_entry, store_cache_entry, Backend, BackendKind, CacheLookup, EventEngineBackend,
    FluidBackend, ScenarioError, ScenarioReport, SweepPoint,
};

use crate::trace::{Span, Tracer};

/// Exact simulated-work counts, summed over the points a run executed.
#[derive(Debug, Default)]
pub struct WorkCounts {
    /// Completed transactions on the event engine.
    pub txn: AtomicU64,
    /// Event-engine handler invocations (from the phase profiler).
    pub events: AtomicU64,
    /// Fluid allocator epochs served from its demand memo.
    pub memo_hits: AtomicU64,
    /// Fluid allocator epochs that re-solved the equilibrium.
    pub memo_misses: AtomicU64,
    /// Cache probes that hit.
    pub cache_hits: AtomicU64,
    /// Cache probes in total.
    pub cache_probes: AtomicU64,
}

impl WorkCounts {
    fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// A counter's value.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// The engine's phase-profiler handler classes and their layer names.
pub const HANDLER_CLASSES: [(&str, &str); 7] = [
    ("engine/issue", "engine.issue"),
    ("engine/stage", "engine.stage"),
    ("engine/granted", "engine.granted"),
    ("engine/complete", "engine.complete"),
    ("engine/reset-stats", "engine.reset"),
    ("engine/policy", "engine.policy"),
    ("engine/demand", "engine.demand"),
];

/// The layer name of one engine handler class.
fn handler_layer(phase: &str) -> &'static str {
    HANDLER_CLASSES
        .iter()
        .find(|(p, _)| *p == phase)
        .map_or("engine.other", |(_, layer)| layer)
}

/// Runs one point the way `SweepRunner` does — probe the cache, execute on
/// a miss, publish the entry — with a span around every layer call.
/// `expected` is the untraced run's report of the point: the traced
/// simulation must reproduce it, and its JSON is what gets published (the
/// report assembly itself is private to the backend). Returns whether the
/// point reproduced it.
pub fn run_point(
    tr: &Tracer,
    parent: u64,
    point: &SweepPoint,
    expected: &ScenarioReport,
    cache: &Path,
    counts: &WorkCounts,
) -> Result<bool, ScenarioError> {
    tr.time("sweep.point", parent, |pid| {
        WorkCounts::add(&counts.cache_probes, 1);
        if let CacheLookup::Hit(report) =
            tr.time("cache.probe", pid, |_| load_cache_entry(cache, &point.hash))
        {
            WorkCounts::add(&counts.cache_hits, 1);
            return Ok(report == *expected);
        }
        let same = match point.spec.backend {
            BackendKind::Event => same_stats(&run_event(tr, pid, point, counts)?, expected),
            BackendKind::Fluid => run_fluid(tr, pid, point, counts)? == *expected,
        };
        let json = tr.time("report.point_json", pid, |_| expected.to_json());
        // Best-effort, as in the runner: an unwritable cache degrades to
        // uncached execution.
        let _ = tr.time("cache.store", pid, |_| {
            store_cache_entry(cache, &point.hash, &json)
        });
        Ok(same)
    })
}

fn run_event(
    tr: &Tracer,
    pid: u64,
    point: &SweepPoint,
    counts: &WorkCounts,
) -> Result<RunResult, ScenarioError> {
    let spec = &point.spec;
    let topo = tr.time("topology.resolve", pid, |_| spec.topology.resolve())?;
    // The phase profiler only reads the clock; the simulated run is the
    // same, which the comparison with the untraced report checks.
    let mut profiled = spec.clone();
    profiled
        .engine
        .get_or_insert_with(Default::default)
        .profile_phases = Some(true);
    let engine = tr.time("engine.plan", pid, |_| {
        EventEngineBackend::instantiate(&profiled, &topo)
    })?;
    let run_id = tr.id();
    let start_ns = tr.now_ns();
    let result = engine.run(spec.horizon);
    let end_ns = tr.now_ns();
    if let Some(phases) = &result.phases {
        let mut at = start_ns;
        for p in &phases.phases {
            let dur = (p.seconds * 1e9) as u64;
            tr.attribute(handler_layer(p.name), run_id, at, dur);
            at += dur;
            WorkCounts::add(&counts.events, p.calls);
        }
    }
    tr.record(Span {
        id: run_id,
        parent: pid,
        name: "engine.run",
        lanes: 1,
        start_ns,
        end_ns,
    });
    let txn: u64 = result.flows.iter().map(|f| f.completed).sum();
    WorkCounts::add(&counts.txn, txn);
    Ok(result)
}

fn run_fluid(
    tr: &Tracer,
    pid: u64,
    point: &SweepPoint,
    counts: &WorkCounts,
) -> Result<ScenarioReport, ScenarioError> {
    let spec = &point.spec;
    let mut m = MetricsRegistry::new();
    let report = tr.time("fluid.run", pid, |_| {
        FluidBackend.run_with_metrics(spec, &mut m)
    })?;
    let labels = [("backend", "fluid"), ("scenario", spec.name.as_str())];
    let memo = |name| m.counter_value(name, &labels).unwrap_or(0.0) as u64;
    WorkCounts::add(&counts.memo_hits, memo("fluid_alloc_memo_hits"));
    WorkCounts::add(&counts.memo_misses, memo("fluid_alloc_memo_misses"));
    Ok(report)
}

/// True when every flow of the engine's result carries exactly the
/// statistics of the report: the same simulation ran.
fn same_stats(result: &RunResult, report: &ScenarioReport) -> bool {
    let Some(o) = report.outcome().filter(|o| o.backend == "event") else {
        return false;
    };
    o.flows.len() == result.flows.len()
        && o.flows.iter().zip(&result.flows).all(|(fr, ft)| {
            fr.name == ft.name
                && fr.issued == ft.issued
                && fr.completed == ft.completed
                && fr.achieved_gb_s == ft.achieved.as_gb_per_s()
                && fr.mean_latency_ns == Some(ft.mean_latency_ns())
                && fr.p999_latency_ns == Some(ft.p999_latency_ns())
                && fr.trace == ft.trace
        })
}

/// Completed event-engine transactions in a report (0 for fluid points,
/// which simulate rates, not transactions).
pub fn report_txn(report: &ScenarioReport) -> u64 {
    match report.outcome() {
        Some(o) if o.backend == "event" => o.flows.iter().map(|f| f.completed).sum(),
        _ => 0,
    }
}
