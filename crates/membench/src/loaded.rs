//! Loaded-latency sweeps (Figure 3).
//!
//! The paper varies a link's offered load with NOP-controlled request rates
//! and reports average and P999 latency. A [`LinkScenario`] picks which
//! interconnect the traffic exercises; the sweep paces the issuing cores at
//! each offered load and reads the latency distribution back.

use chiplet_mem::OpKind;
use chiplet_net::scenario::{CoreSelect, ScenarioReport, ScenarioSpec, TargetSpec};
use chiplet_sim::{Bandwidth, SimTime};
use chiplet_topology::Topology;
use serde::{Deserialize, Serialize};

/// Which interconnect a Figure 3 panel exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkScenario {
    /// Traffic from one CCX: bounded by the Infinity Fabric / CCX limiter
    /// (Figure 3 a/b).
    IfIntraCc,
    /// Traffic from two compute chiplets: the inter-CC Infinity Fabric case
    /// (Figure 3 c).
    IfInterCc,
    /// Traffic from one whole CCD: bounded by its GMI link (Figure 3 d/e).
    Gmi,
    /// Traffic to the CXL device over the P-Link (Figure 3 f).
    PlinkCxl,
}

impl LinkScenario {
    /// The issuing cores for this scenario.
    pub fn cores(self, topo: &Topology) -> CoreSelect {
        match self {
            LinkScenario::IfIntraCc => CoreSelect::Ccx(0),
            LinkScenario::IfInterCc => CoreSelect::Ccds(vec![0, 1]),
            LinkScenario::Gmi => CoreSelect::Ccd(0),
            // P-Link: enough chiplets to saturate the aggregate CXL path.
            LinkScenario::PlinkCxl => CoreSelect::Ccds((0..topo.spec().ccd_count.min(6)).collect()),
        }
    }

    /// The destination for this scenario.
    pub fn target(self) -> TargetSpec {
        match self {
            LinkScenario::PlinkCxl => TargetSpec::Cxl(0),
            _ => TargetSpec::AllDimms,
        }
    }

    /// The nominal capacity the sweep spans, in the given direction.
    pub fn nominal_cap(self, topo: &Topology, op: OpKind) -> Bandwidth {
        let spec = topo.spec();
        let write = op.is_write();
        match self {
            LinkScenario::IfIntraCc => {
                if write {
                    spec.caps.ccx_write
                } else {
                    spec.caps.ccx_read
                }
            }
            LinkScenario::IfInterCc => {
                // Two chiplets: twice the per-CCD capacity.
                let per = if write {
                    spec.caps.gmi_write
                } else {
                    spec.caps.gmi_read
                };
                Bandwidth::from_gb_per_s(per.as_gb_per_s() * 2.0)
            }
            LinkScenario::Gmi => {
                if write {
                    spec.caps.gmi_write
                } else {
                    spec.caps.gmi_read
                }
            }
            LinkScenario::PlinkCxl => {
                let cxl = spec.cxl.as_ref().expect("scenario requires CXL");
                if write {
                    cxl.plink_write
                } else {
                    cxl.plink_read
                }
            }
        }
    }

    /// Why the platform can't run this scenario — `None` when it can.
    pub fn unsupported_reason(self, topo: &Topology) -> Option<&'static str> {
        match self {
            LinkScenario::PlinkCxl if topo.cxl_device_count() == 0 => {
                Some("platform has no CXL device")
            }
            LinkScenario::IfInterCc if topo.spec().ccd_count < 2 => {
                Some("platform has fewer than two CCDs")
            }
            _ => None,
        }
    }
}

impl core::fmt::Display for LinkScenario {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            LinkScenario::IfIntraCc => "IF (intra-CC)",
            LinkScenario::IfInterCc => "IF (inter-CC)",
            LinkScenario::Gmi => "GMI",
            LinkScenario::PlinkCxl => "P-Link/CXL",
        })
    }
}

/// One point of a loaded-latency curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Offered load, GB/s.
    pub offered_gb_s: f64,
    /// Achieved bandwidth, GB/s.
    pub achieved_gb_s: f64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// P999 latency, ns.
    pub p999_ns: f64,
}

/// Loaded-latency specs: the scenario's cores pace `op` at each of
/// `fractions` of its nominal capacity, 120 µs each, in order. `Err` is the
/// platform's [`LinkScenario::unsupported_reason`].
pub fn loaded(
    base: &ScenarioSpec,
    scenario: LinkScenario,
    op: OpKind,
    fractions: &[f64],
) -> Result<Vec<ScenarioSpec>, &'static str> {
    let topo = crate::topology(base);
    if let Some(reason) = scenario.unsupported_reason(&topo) {
        return Err(reason);
    }
    let cap = scenario.nominal_cap(&topo, op).as_gb_per_s();
    Ok(fractions
        .iter()
        .map(|&frac| {
            let offered = cap * frac;
            let flow = crate::stream(
                "loaded",
                scenario.cores(&topo),
                scenario.target(),
                op,
                Some(offered),
            );
            let name = format!("{scenario} / {op:?} @ {offered:.1} GB/s");
            let description = "latency under offered load (Figure 3)";
            crate::probe(
                base,
                name,
                description,
                SimTime::from_micros(120),
                vec![flow],
            )
        })
        .collect())
}

/// Folds a [`loaded`] run into one latency point per offered load.
pub fn load_points(reports: &[ScenarioReport]) -> Vec<LoadPoint> {
    reports
        .iter()
        .map(|r| {
            let f = &crate::flows(r)[0];
            LoadPoint {
                offered_gb_s: f.offered_gb_s.expect("loaded flows are paced"),
                achieved_gb_s: f.achieved_gb_s,
                mean_ns: f.mean_latency_ns.expect("event runs measure latency"),
                p999_ns: f.p999_latency_ns.expect("event runs measure latency"),
            }
        })
        .collect()
}

/// Sweeps offered load over `fractions` of the scenario's nominal capacity
/// and returns one latency point per load.
///
/// # Panics
///
/// Panics when the platform cannot run the scenario.
pub fn loaded_latency_sweep(
    base: &ScenarioSpec,
    scenario: LinkScenario,
    op: OpKind,
    fractions: &[f64],
) -> Vec<LoadPoint> {
    let specs = loaded(base, scenario, op, fractions)
        .unwrap_or_else(|reason| panic!("{scenario} unsupported on platform: {reason}"));
    load_points(&crate::execute(specs))
}

/// The default load grid: 10%–100% of nominal capacity.
pub fn default_fractions() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base;
    use chiplet_topology::PlatformSpec;

    #[test]
    fn gmi_curve_shape_7302() {
        let pts = loaded_latency_sweep(
            &base("epyc_7302", false),
            LinkScenario::Gmi,
            OpKind::Read,
            &[0.2, 0.95],
        );
        // Latency grows toward saturation; achieved tracks offered at low
        // load.
        assert!(pts[1].mean_ns > pts[0].mean_ns);
        assert!((pts[0].achieved_gb_s - pts[0].offered_gb_s).abs() < 1.0);
        // Low-load tail reflects DRAM variability (paper: ~470 ns).
        assert!(pts[0].p999_ns > 300.0, "p999 {}", pts[0].p999_ns);
    }

    #[test]
    fn plink_scenario_needs_cxl() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        assert!(LinkScenario::PlinkCxl.unsupported_reason(&topo).is_some());
        let topo = Topology::build(&PlatformSpec::epyc_9634());
        assert!(LinkScenario::PlinkCxl.unsupported_reason(&topo).is_none());
    }

    #[test]
    fn scenario_core_counts() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let count = |s: LinkScenario| s.cores(&topo).resolve(&topo).unwrap().len();
        assert_eq!(count(LinkScenario::IfIntraCc), 2);
        assert_eq!(count(LinkScenario::IfInterCc), 8);
        assert_eq!(count(LinkScenario::Gmi), 4);
    }
}
