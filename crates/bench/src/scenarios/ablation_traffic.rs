//! Ablation A: what a global software traffic manager buys over the
//! hardware's sender-driven partitioning (Implication #4).
//!
//! Re-runs the Figure 4 "one small flow" and "unequal demands" cases under
//! each policy and reports the small/modest flow's achieved share.

use std::fmt::Write;

use chiplet_mem::OpKind;
use chiplet_membench::compete::{compete, outcomes, CompeteLink};
use chiplet_net::scenario::{ScenarioReport, ScenarioSpec};
use chiplet_net::traffic::TrafficPolicy;
use chiplet_topology::{PlatformSpec, Topology};

use crate::{f1, TextTable};

/// The GMI's shared read capacity on the 7302, GB/s.
fn capacity() -> f64 {
    CompeteLink::Gmi.capacity_gb_s(&Topology::build(&PlatformSpec::epyc_7302()))
}

/// The two demand cases for a link of capacity `c`: (name, demand0,
/// demand1), GB/s.
fn cases(c: f64) -> [(&'static str, f64, f64); 2] {
    [
        ("one small (25%/90% of cap)", 0.25 * c, 0.90 * c),
        ("unequal big (90%/60% of cap)", 0.90 * c, 0.60 * c),
    ]
}

/// The policies, in table order.
fn policies() -> [(&'static str, TrafficPolicy); 4] {
    [
        ("hardware (sender-driven)", TrafficPolicy::HardwareDefault),
        ("max-min fair", TrafficPolicy::MaxMinFair),
        (
            "weighted fair 1:3",
            TrafficPolicy::WeightedFair {
                weights: vec![1.0, 3.0],
            },
        ),
        (
            "rate-limit flow1 to 12",
            TrafficPolicy::RateLimit {
                caps_gb_s: vec![f64::INFINITY, 12.0],
            },
        ),
    ]
}

/// Every competition the study runs: each case under each policy.
pub fn specs() -> Vec<ScenarioSpec> {
    cases(capacity())
        .iter()
        .flat_map(|&(_, d0, d1)| {
            policies().map(|(_, policy)| {
                let mut base = chiplet_membench::base("epyc_7302", false);
                base.policy = policy;
                compete(
                    &base,
                    CompeteLink::Gmi,
                    &[(Some(d0), Some(d1))],
                    OpKind::Read,
                )
                .expect("the 7302 has a GMI")
                .remove(0)
            })
        })
        .collect()
}

/// Renders the study from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation A: traffic-manager policies vs hardware sender-driven \
         partitioning (GMI link, EPYC 7302).\n"
    );
    let c = capacity();
    let mut results = outcomes(reports).into_iter();
    for (sname, d0, _) in cases(c) {
        let _ = writeln!(out, "scenario: {sname} (capacity {} GB/s)", f1(c));
        let mut t = TextTable::new(vec![
            "policy",
            "flow0 achieved",
            "flow1 achieved",
            "flow0 satisfied?",
        ]);
        for ((pname, _), o) in policies().iter().zip(results.by_ref()) {
            let satisfied = o.achieved0_gb_s >= d0.min(c) * 0.93;
            t.row(vec![
                (*pname).to_string(),
                f1(o.achieved0_gb_s),
                f1(o.achieved1_gb_s),
                if satisfied { "yes" } else { "no" }.to_string(),
            ]);
        }
        out.push_str(&t.render_indented("  "));
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "Reading: under the hardware default the aggressive flow squeezes \
         the modest one below its request; max-min protects the modest \
         flow in full; weighted fairness and static rate caps implement \
         application policy the hardware cannot express."
    );
    out
}
