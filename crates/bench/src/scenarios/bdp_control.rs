//! BDP-adaptive traffic control study (Implication #3): "Dynamic
//! monitoring end-to-end runtime BDP and using it for traffic control
//! becomes vital in server chiplet networking."
//!
//! Sweeps the controller's latency target and prints the bandwidth/latency
//! frontier against the hardware default, on both the GMI (one chiplet)
//! and the CXL P-Link. Every point is a declarative [`ScenarioSpec`] on the
//! event backend; [`specs`] lists them and [`render`] folds their reports.

use std::fmt::Write;

use chiplet_net::scenario::{
    BackendKind, CoreSelect, EngineFlow, ScenarioFlow, ScenarioReport, ScenarioSpec, TargetSpec,
    TopologyChoice,
};
use chiplet_net::traffic::TrafficPolicy;
use chiplet_sim::SimTime;

use crate::{f1, TextTable};

fn point_spec(target: TargetSpec, policy: TrafficPolicy) -> ScenarioSpec {
    ScenarioSpec {
        name: "bdp_control point".to_string(),
        description: "One CCD streaming reads under a traffic-control policy".to_string(),
        topology: TopologyChoice::Named("epyc_9634".to_string()),
        backend: BackendKind::Event,
        seed: None,
        horizon: SimTime::from_micros(150),
        policy,
        engine: None,
        fluid: None,
        flows: vec![ScenarioFlow {
            name: "f".to_string(),
            demand: None,
            engine: Some(EngineFlow {
                cores: CoreSelect::Ccd(0),
                nic: None,
                target,
                op: None,
                pattern: None,
                working_set: None,
                start: None,
                stop: None,
            }),
            links: Vec::new(),
        }],
    }
}

/// The controller's latency targets, as factors of the unloaded latency.
const FACTORS: [f64; 5] = [2.0, 1.5, 1.25, 1.10, 1.05];

/// Every point of the study: for DRAM (GMI-bound), then CXL (port-bound),
/// the hardware default and then the controller at every factor.
pub fn specs() -> Vec<ScenarioSpec> {
    let policies =
        std::iter::once(TrafficPolicy::HardwareDefault).chain(FACTORS.map(|latency_factor| {
            TrafficPolicy::BdpAdaptive {
                latency_factor,
                interval_ns: 2_000,
            }
        }));
    [TargetSpec::AllDimms, TargetSpec::Cxl(0)]
        .into_iter()
        .flat_map(|target| policies.clone().map(move |p| point_spec(target.clone(), p)))
        .collect()
}

/// Renders the study from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "BDP-adaptive traffic control: the bandwidth/latency frontier.\n"
    );
    let panels = [
        "EPYC 9634 — one chiplet to DRAM (GMI-bound)",
        "EPYC 9634 — one chiplet to CXL (port-bound)",
    ];
    let rows = std::iter::once("hardware (full MLP)".to_string())
        .chain(FACTORS.map(|factor| format!("BDP-adaptive ×{factor:.2}")));
    for (label, runs) in panels.iter().zip(reports.chunks(FACTORS.len() + 1)) {
        let _ = writeln!(out, "{label}:");
        let mut t = TextTable::new(vec!["policy", "GB/s", "mean ns", "P999 ns"]);
        for (name, report) in rows.clone().zip(runs) {
            let f = &report.outcome().expect("event runs complete").flows[0];
            t.row(vec![
                name,
                f1(f.achieved_gb_s),
                f1(f.mean_latency_ns.unwrap_or(f64::NAN)),
                f1(f.p999_latency_ns.unwrap_or(f64::NAN)),
            ]);
        }
        out.push_str(&t.render_indented("  "));
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "Reading: the hardware default keeps the full MLP in flight and \
         pays hundreds of ns of queueing; a runtime-BDP controller walks \
         the frontier — a few percent of bandwidth buys 1.5–2× lower mean \
         latency and tighter tails, without hardware support."
    );
    out
}
