//! NUMA / Sub-NUMA study on the dual-socket Dell 7525 testbed (2× EPYC
//! 7302) — Implication #1's "more granular non-uniform memory access":
//! local position spread, remote xGMI access, and the NPS (node-per-socket)
//! interleave trade-off between latency and bandwidth.
//!
//! Every section is a list of declarative [`ScenarioSpec`]s run on the
//! event backend: the latency ladder comes from the membench latency
//! generator, the streaming sections are built here.

use std::fmt::Write;

use chiplet_membench::latency::{chase_latencies, latency, ChaseTarget};
use chiplet_net::scenario::{
    BackendKind, CoreSelect, EngineFlow, EngineOptions, ScenarioFlow, ScenarioReport, ScenarioSpec,
    TargetSpec, TopologyChoice,
};
use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimTime};
use chiplet_topology::{CoreId, DimmPosition, NpsMode, PlatformSpec, Topology};

use crate::{f1, TextTable};

fn stream_spec(
    name: &str,
    cores: CoreSelect,
    dimms: Vec<u32>,
    demand: Option<DemandSchedule>,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        description: "NUMA-study streaming run on the dual-socket 7302".to_string(),
        topology: TopologyChoice::Named("dual_epyc_7302".to_string()),
        backend: BackendKind::Event,
        seed: None,
        horizon: SimTime::from_micros(40),
        policy: Default::default(),
        engine: Some(EngineOptions {
            deterministic_memory: true,
            ..Default::default()
        }),
        fluid: None,
        flows: vec![ScenarioFlow {
            name: name.to_string(),
            demand,
            engine: Some(EngineFlow {
                cores,
                nic: None,
                target: TargetSpec::Dimms(dimms),
                op: None,
                pattern: None,
                working_set: Some(ByteSize::from_gib(1)),
                start: None,
                stop: None,
            }),
            links: Vec::new(),
        }],
    }
}

/// The NPS modes of section 2, in table order.
const NPS: [NpsMode; 3] = [NpsMode::Nps1, NpsMode::Nps2, NpsMode::Nps4];

/// Section 3's issuing scopes: (label, cores).
fn remote_scopes() -> [(&'static str, CoreSelect); 2] {
    [
        ("one CCD", CoreSelect::Ccd(0)),
        ("whole socket", CoreSelect::Cores((0..16).collect())),
    ]
}

/// Every run of the study, section by section: the chase ladder from core
/// 0 over every DIMM position, one 20 GB/s CCD0 stream per NPS interleave
/// scope, then each remote scope streaming to local and to remote DIMMs.
pub fn specs() -> Vec<ScenarioSpec> {
    let topo = Topology::build(&PlatformSpec::dual_epyc_7302());
    let ladder =
        DimmPosition::ALL_WITH_REMOTE.map(|pos| (ChaseTarget::Dimm(pos), ByteSize::from_gib(1)));
    let base = chiplet_membench::base("dual_epyc_7302", true);
    let mut specs = latency(&base, CoreId(0), &ladder).expect("the dual 7302 has every position");
    specs.extend(NPS.map(|nps| {
        let dimms = topo
            .dimms_in_scope(CoreId(0), nps)
            .into_iter()
            .map(|d| d.0)
            .collect();
        let demand = DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(20.0)));
        stream_spec("nps", CoreSelect::Ccd(0), dimms, Some(demand))
    }));
    for (_, cores) in remote_scopes() {
        for dimms in [(0..8).collect(), (8..16).collect()] {
            specs.push(stream_spec("s", cores.clone(), dimms, None));
        }
    }
    specs
}

/// A streaming run's (achieved GB/s, mean latency ns).
fn stream_result(report: &ScenarioReport) -> (f64, f64) {
    let f = &report.outcome().expect("event runs complete").flows[0];
    (f.achieved_gb_s, f.mean_latency_ns.unwrap_or(f64::NAN))
}

/// Renders the study from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let spec = PlatformSpec::dual_epyc_7302();
    let topo = Topology::build(&spec);
    let (ladder, streams) = reports.split_at(DimmPosition::ALL_WITH_REMOTE.len());
    let (nps_runs, remote_runs) = streams.split_at(NPS.len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "NUMA study: {} ({} cores, {} DIMMs)\n",
        spec.name,
        topo.core_count(),
        topo.dimm_count()
    );

    // 1. The full latency ladder including the remote socket.
    let _ = writeln!(out, "Pointer-chase latency ladder from core0:");
    let mut t = TextTable::new(vec!["position", "latency ns", "vs near"]);
    let ladder = chase_latencies(ladder);
    let near = ladder[0];
    for (pos, lat) in DimmPosition::ALL_WITH_REMOTE.iter().zip(ladder) {
        t.row(vec![
            pos.to_string(),
            f1(lat),
            format!("+{}%", f1((lat / near - 1.0) * 100.0)),
        ]);
    }
    out.push_str(&t.render_indented("  "));

    // 2. NPS modes: one chiplet at a moderate 20 GB/s, where the interleave
    // scope decides which positions the requests visit (at full saturation
    // queueing dominates and the position spread washes out).
    let _ = writeln!(out, "\nNPS interleave trade-off (CCD0 at 20 GB/s offered):");
    let mut t = TextTable::new(vec!["NPS mode", "DIMMs", "achieved GB/s", "mean ns"]);
    for (nps, report) in NPS.iter().zip(nps_runs) {
        let n = topo.dimms_in_scope(CoreId(0), *nps).len();
        let (achieved, mean) = stream_result(report);
        t.row(vec![nps.to_string(), n.to_string(), f1(achieved), f1(mean)]);
    }
    out.push_str(&t.render_indented("  "));
    let _ = writeln!(
        out,
        "  (NPS4 pins the interleave to the near quadrant: lowest latency; \
NPS1 spreads over all positions for the full UMC aggregate.)"
    );

    // 3. Remote streaming: the xGMI wall.
    let _ = writeln!(
        out,
        "\nCross-socket streaming (socket 0 cores -> socket 1 DIMMs):"
    );
    let mut t = TextTable::new(vec!["scope", "local GB/s", "remote GB/s"]);
    for ((label, _), pair) in remote_scopes().iter().zip(remote_runs.chunks(2)) {
        let local = stream_result(&pair[0]).0;
        let remote = stream_result(&pair[1]).0;
        t.row(vec![label.to_string(), f1(local), f1(remote)]);
    }
    out.push_str(&t.render_indented("  "));
    let _ = writeln!(
        out,
        "\nReading: the remote rung of the NUMA ladder costs ~65% extra \
         latency (xGMI crossing + both I/O dies), and the 42 GB/s xGMI caps \
         cross-socket bandwidth far below the socket's local 106.7 GB/s — \
         locality-aware placement (Implication #1) is worth two position \
         classes, not one."
    );
    out
}
