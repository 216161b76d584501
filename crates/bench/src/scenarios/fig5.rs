//! Figure 5: six-second trace of two competing flows with fluctuating
//! demands. Flow 0 is throttled by 2 GB/s during the [2,3) s and [4,5) s
//! windows; the unthrottled flow 1 harvests the released bandwidth — in
//! ~100 ms on the 9634's IF, ~500 ms on its P-Link, and with drastic
//! variation on the 7302's IF.
//!
//! Each panel is a pure fluid [`ScenarioSpec`] (also registered standalone
//! as `fig5_if_9634` / `fig5_plink_9634` / `fig5_if_7302`); the figure's
//! point list is the three panels, and this module renders it from their
//! reports.

use std::fmt::Write;

use chiplet_fluid::harvest_time_ms;
use chiplet_net::scenario::{
    BackendKind, FluidLinkSpec, FluidOptions, ScenarioFlow, ScenarioReport, ScenarioSpec,
    TopologyChoice,
};
use chiplet_sim::{Bandwidth, DemandSchedule, SimDuration, SimTime};

use crate::f1;

fn spec(name: &str, platform: &str, link: &str) -> ScenarioSpec {
    let cap = FluidLinkSpec::Named(link.to_string())
        .resolve()
        .expect("preset link")
        .capacity
        .as_gb_per_s();
    let half = cap / 2.0;
    ScenarioSpec {
        name: name.to_string(),
        description: "Figure 5 panel: flow 0 throttled −2 GB/s during [2,3) s and [4,5) s; \
                      flow 1 harvests the released bandwidth"
            .to_string(),
        topology: TopologyChoice::Named(platform.to_string()),
        backend: BackendKind::Fluid,
        seed: Some(42),
        horizon: SimTime::from_secs(6),
        policy: Default::default(),
        engine: None,
        fluid: Some(FluidOptions {
            links: vec![FluidLinkSpec::Named(link.to_string())],
            dt: Some(SimDuration::from_millis(1)),
            sample: Some(SimDuration::from_millis(50)),
        }),
        flows: vec![
            ScenarioFlow {
                name: "flow0 (throttled)".into(),
                demand: Some(DemandSchedule::piecewise(vec![
                    (SimTime::ZERO, None),
                    (
                        SimTime::from_secs(2),
                        Some(Bandwidth::from_gb_per_s(half - 2.0)),
                    ),
                    (SimTime::from_secs(3), None),
                    (
                        SimTime::from_secs(4),
                        Some(Bandwidth::from_gb_per_s(half - 2.0)),
                    ),
                    (SimTime::from_secs(5), None),
                ])),
                engine: None,
                links: vec![0],
            },
            ScenarioFlow {
                name: "flow1 (unthrottled)".into(),
                demand: None,
                engine: None,
                links: vec![0],
            },
        ],
    }
}

/// The 9634 Infinity-Fabric panel (~100 ms harvesting).
pub fn spec_if_9634() -> ScenarioSpec {
    spec("fig5 9634 IF", "epyc_9634", "if_9634")
}

/// The 9634 P-Link panel (~500 ms harvesting).
pub fn spec_plink_9634() -> ScenarioSpec {
    spec("fig5 9634 P-Link", "epyc_9634", "plink_9634")
}

/// The 7302 Infinity-Fabric panel (drastic variation).
pub fn spec_if_7302() -> ScenarioSpec {
    spec("fig5 7302 IF", "epyc_7302", "if_7302")
}

/// The figure's points: the three panels in figure order.
pub fn specs() -> Vec<ScenarioSpec> {
    vec![spec_if_9634(), spec_plink_9634(), spec_if_7302()]
}

fn panel(out: &mut String, name: &str, report: &ScenarioReport, link: &str) {
    let cap = FluidLinkSpec::Named(link.to_string())
        .resolve()
        .expect("preset link")
        .capacity
        .as_gb_per_s();
    let outcome = report.outcome().expect("fluid runs complete");
    let _ = writeln!(out, "{name} (capacity {} GB/s):", f1(cap));
    let _ = writeln!(out, "  t(s)   flow0 GB/s  flow1 GB/s");
    let (t0, t1) = (&outcome.flows[0].trace, &outcome.flows[1].trace);
    for (p0, p1) in t0.iter().zip(t1).step_by(4) {
        let _ = writeln!(
            out,
            "  {:5.2}  {:>10}  {:>10}",
            p0.at.as_secs_f64(),
            f1(p0.bandwidth.as_gb_per_s()),
            f1(p1.bandwidth.as_gb_per_s()),
        );
    }
    // Time until flow 1 has harvested 95% of the released 2 GB/s.
    let threshold = Bandwidth::from_gb_per_s(cap / 2.0 + 1.9);
    match harvest_time_ms(t1, SimTime::from_secs(2), threshold) {
        Some(ms) => {
            let _ = writeln!(out, "  -> flow 1 harvested the released 2 GB/s in ~{ms} ms");
        }
        None => {
            let _ = writeln!(
                out,
                "  -> flow 1 never settled at the harvested rate (unstable link)"
            );
        }
    }
    let _ = writeln!(out);
}

/// Renders the full figure from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5: bandwidth harvesting under fluctuating demands \
         (flow 0 throttled −2 GB/s during [2,3) s and [4,5) s).\n"
    );
    panel(&mut out, "9634 IF", &reports[0], "if_9634");
    panel(&mut out, "9634 P-Link", &reports[1], "plink_9634");
    panel(&mut out, "7302 IF", &reports[2], "if_7302");
    let _ = writeln!(
        out,
        "Paper shape: ~100 ms harvesting on the 9634 IF, ~500 ms on its \
         P-Link; the 7302 IF shows drastic variation (suspected intra-CC \
         queueing module); after each throttle window the flows return to \
         equal shares."
    );
    out
}
