//! Two-flow bandwidth partitioning (Figure 4).
//!
//! "We launch two competing flows at different links, use NOP instructions
//! to control their requested bandwidth, and see how much bandwidth each
//! flow achieves." The harness splits a contention domain's cores between
//! two flows and reports each flow's achieved bandwidth.

use chiplet_mem::OpKind;
use chiplet_net::scenario::{CoreSelect, ScenarioReport, ScenarioSpec, TargetSpec};
use chiplet_sim::SimTime;
use chiplet_topology::{CcdId, Topology};
use serde::{Deserialize, Serialize};

/// The shared link two competing flows contend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompeteLink {
    /// Both flows inside one CCX: the Infinity Fabric / CCX limiter.
    IfIntraCc,
    /// Both flows on one CCD (different CCXs where available): the GMI.
    Gmi,
    /// Two CCDs driving the CXL device: the P-Link.
    PLink,
}

impl CompeteLink {
    /// Core sets for the two flows.
    pub fn split_cores(self, topo: &Topology) -> (CoreSelect, CoreSelect) {
        match self {
            CompeteLink::IfIntraCc => crate::halves(topo.cores_of_ccx(0)),
            CompeteLink::Gmi => crate::halves(topo.cores_of_ccd(CcdId(0))),
            CompeteLink::PLink => {
                // Three chiplets per flow: a single CCD's CXL port (~24
                // GB/s) cannot contend on the ~88 GB/s P-Link aggregate.
                let per_flow = (topo.spec().ccd_count / 2).clamp(1, 3);
                (
                    CoreSelect::Ccds((0..per_flow).collect()),
                    CoreSelect::Ccds((per_flow..2 * per_flow).collect()),
                )
            }
        }
    }

    /// The two flows' destination.
    pub fn target(self) -> TargetSpec {
        match self {
            CompeteLink::PLink => TargetSpec::Cxl(0),
            _ => TargetSpec::AllDimms,
        }
    }

    /// The shared read-direction capacity, GB/s (the Figure 4 y-scale).
    pub fn capacity_gb_s(self, topo: &Topology) -> f64 {
        let spec = topo.spec();
        match self {
            CompeteLink::IfIntraCc => spec.caps.ccx_read.as_gb_per_s(),
            CompeteLink::Gmi => spec.caps.gmi_read.as_gb_per_s(),
            CompeteLink::PLink => spec
                .cxl
                .as_ref()
                .expect("P-Link competition requires CXL")
                .plink_read
                .as_gb_per_s(),
        }
    }

    /// Why the platform can't run this competition — `None` when it can.
    pub fn unsupported_reason(self, topo: &Topology) -> Option<&'static str> {
        match self {
            CompeteLink::PLink if topo.cxl_device_count() == 0 => {
                Some("platform has no CXL device")
            }
            // (each P-Link flow uses up to three chiplets; two suffice)
            CompeteLink::PLink if topo.spec().ccd_count < 2 => {
                Some("platform has fewer than two CCDs")
            }
            CompeteLink::IfIntraCc if topo.spec().cores_per_ccx < 2 => {
                Some("CCX has fewer than two cores")
            }
            CompeteLink::Gmi if topo.spec().cores_per_ccd() < 2 => {
                Some("CCD has fewer than two cores")
            }
            _ => None,
        }
    }
}

impl core::fmt::Display for CompeteLink {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            CompeteLink::IfIntraCc => "IF (intra-CC)",
            CompeteLink::Gmi => "GMI",
            CompeteLink::PLink => "P-Link/CXL",
        })
    }
}

/// Result of one competition run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompetitionOutcome {
    /// Flow 0's requested bandwidth, GB/s (`None` = unthrottled).
    pub requested0_gb_s: Option<f64>,
    /// Flow 1's requested bandwidth.
    pub requested1_gb_s: Option<f64>,
    /// Flow 0's achieved bandwidth, GB/s.
    pub achieved0_gb_s: f64,
    /// Flow 1's achieved bandwidth, GB/s.
    pub achieved1_gb_s: f64,
}

/// Competition specs: for each `(demand0, demand1)` pair (GB/s; `None` =
/// unthrottled), flows `flow0` and `flow1` issue `op` over the shared
/// link's two core sets for 80 µs. `Err` is the platform's
/// [`CompeteLink::unsupported_reason`].
pub fn compete(
    base: &ScenarioSpec,
    link: CompeteLink,
    demands: &[(Option<f64>, Option<f64>)],
    op: OpKind,
) -> Result<Vec<ScenarioSpec>, &'static str> {
    let topo = crate::topology(base);
    if let Some(reason) = link.unsupported_reason(&topo) {
        return Err(reason);
    }
    let (cores0, cores1) = link.split_cores(&topo);
    Ok(demands
        .iter()
        .map(|&(demand0, demand1)| {
            let flows = vec![
                crate::stream("flow0", cores0.clone(), link.target(), op, demand0),
                crate::stream("flow1", cores1.clone(), link.target(), op, demand1),
            ];
            crate::probe(
                base,
                format!("compete {link}"),
                "two flows competing for a shared link (Figure 4)",
                SimTime::from_micros(80),
                flows,
            )
        })
        .collect())
}

/// Folds a [`compete`] run into one outcome per demand pair.
pub fn outcomes(reports: &[ScenarioReport]) -> Vec<CompetitionOutcome> {
    reports
        .iter()
        .map(|r| {
            let [f0, f1] = crate::flows(r) else {
                panic!("a competition runs two flows");
            };
            CompetitionOutcome {
                requested0_gb_s: f0.offered_gb_s,
                requested1_gb_s: f1.offered_gb_s,
                achieved0_gb_s: f0.achieved_gb_s,
                achieved1_gb_s: f1.achieved_gb_s,
            }
        })
        .collect()
}

/// Runs two competing flows with the given demands (GB/s; `None` =
/// unthrottled) over a shared link.
///
/// # Panics
///
/// Panics when the platform cannot run the competition.
pub fn competing_flows(
    base: &ScenarioSpec,
    link: CompeteLink,
    demand0: Option<f64>,
    demand1: Option<f64>,
    op: OpKind,
) -> CompetitionOutcome {
    let specs = compete(base, link, &[(demand0, demand1)], op)
        .unwrap_or_else(|reason| panic!("{link} unsupported on platform: {reason}"));
    outcomes(&crate::execute(specs))[0]
}

/// The paper's four Figure 4 cases for a link of capacity `c` GB/s:
/// under-subscribed; one small; equal demands; both big but unequal.
/// Returns `(case_name, demand0, demand1)`.
pub fn figure4_cases(c: f64) -> [(&'static str, f64, f64); 4] {
    [
        ("case1: under-subscribed", 0.30 * c, 0.40 * c),
        ("case2: one small", 0.25 * c, 0.90 * c),
        ("case3: equal demands", 0.75 * c, 0.75 * c),
        ("case4: unequal demands", 0.90 * c, 0.60 * c),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base;
    use chiplet_topology::PlatformSpec;

    #[test]
    fn case3_equal_demands_split_evenly_on_gmi() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let c = CompeteLink::Gmi.capacity_gb_s(&topo);
        let out = competing_flows(
            &base("epyc_7302", true),
            CompeteLink::Gmi,
            Some(0.75 * c),
            Some(0.75 * c),
            OpKind::Read,
        );
        let ratio = out.achieved0_gb_s / out.achieved1_gb_s;
        assert!((0.85..=1.15).contains(&ratio), "ratio {ratio}");
        assert!(out.achieved0_gb_s + out.achieved1_gb_s > 0.9 * c);
    }

    #[test]
    fn case4_aggressive_sender_wins_on_gmi() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let c = CompeteLink::Gmi.capacity_gb_s(&topo);
        let out = competing_flows(
            &base("epyc_7302", true),
            CompeteLink::Gmi,
            Some(0.90 * c),
            Some(0.60 * c),
            OpKind::Read,
        );
        assert!(
            out.achieved0_gb_s > c / 2.0 + 0.5,
            "aggressive flow should beat the equal share: {out:?}"
        );
        assert!(out.achieved0_gb_s > out.achieved1_gb_s * 1.1, "{out:?}");
    }

    #[test]
    fn plink_competition_on_9634() {
        let topo = Topology::build(&PlatformSpec::epyc_9634());
        assert!(CompeteLink::PLink.unsupported_reason(&topo).is_none());
        let out = competing_flows(
            &base("epyc_9634", true),
            CompeteLink::PLink,
            None,
            None,
            OpKind::Read,
        );
        // Two unthrottled CCDs cap at their per-CCD CXL ports (~24 GB/s
        // each), sharing evenly.
        let ratio = out.achieved0_gb_s / out.achieved1_gb_s;
        assert!((0.85..=1.15).contains(&ratio), "{out:?}");
    }

    #[test]
    fn figure4_case_demands_are_sane() {
        for (name, d0, d1) in figure4_cases(30.0) {
            assert!(d0 > 0.0 && d1 > 0.0, "{name}");
        }
        let (name, d0, d1) = figure4_cases(30.0)[0];
        assert!(d0 + d1 < 30.0, "{name} must be under-subscribed");
        let (_, d0, d1) = figure4_cases(30.0)[3];
        assert!(d0 + d1 > 30.0 && d0 > 15.0 && d1 > 15.0);
    }
}
