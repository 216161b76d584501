//! Read/write interference sweeps (Figure 6).
//!
//! "We run a frontend stream X at max rate, vary the traffic load of the
//! background one Y, and report how much bandwidth X achieves (X-Y)." Four
//! combinations (read/write × read/write) per contention domain; the paper
//! observes interference only once a link direction — or the shared
//! chiplet limiter — saturates.

use chiplet_mem::OpKind;
use chiplet_net::scenario::{CoreSelect, ScenarioReport, ScenarioSpec, TargetSpec};
use chiplet_sim::SimTime;
use chiplet_topology::{CcdId, Topology};
use serde::{Deserialize, Serialize};

/// The contention domain of a Figure 6 panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterferenceDomain {
    /// X and Y inside one CCX: shared IF direction and shared limiter
    /// tokens.
    IfIntraCc,
    /// X and Y on different CCDs targeting the *same* DIMM pair: shared
    /// UMC channels across the I/O die.
    IfInterCc,
    /// X and Y on one CCD: shared GMI.
    Gmi,
    /// X and Y on different CCDs targeting CXL: shared P-Link.
    PLink,
}

impl InterferenceDomain {
    /// Core split and target for (X, Y).
    fn setup(self, topo: &Topology) -> (CoreSelect, CoreSelect, TargetSpec, TargetSpec) {
        match self {
            InterferenceDomain::IfIntraCc => {
                let (x, y) = crate::halves(topo.cores_of_ccx(0));
                (x, y, TargetSpec::AllDimms, TargetSpec::AllDimms)
            }
            InterferenceDomain::IfInterCc => {
                // Shared destination: one DIMM, so the two chiplets contend
                // on a path segment (the UMC channel) the way the paper's
                // cross-CC streams contend on a shared I/O-die segment.
                (
                    CoreSelect::Ccd(0),
                    CoreSelect::Ccd(1),
                    TargetSpec::Dimms(vec![0]),
                    TargetSpec::Dimms(vec![0]),
                )
            }
            InterferenceDomain::Gmi => {
                let (x, y) = crate::halves(topo.cores_of_ccd(CcdId(0)));
                (x, y, TargetSpec::AllDimms, TargetSpec::AllDimms)
            }
            InterferenceDomain::PLink => {
                // Three chiplets per stream: one CCD's CXL port (~24 GB/s)
                // cannot saturate the ~88 GB/s P-Link aggregate.
                let per = (topo.spec().ccd_count / 2).clamp(1, 3);
                (
                    CoreSelect::Ccds((0..per).collect()),
                    CoreSelect::Ccds((per..2 * per).collect()),
                    TargetSpec::Cxl(0),
                    TargetSpec::Cxl(0),
                )
            }
        }
    }

    /// Why the platform can't run this domain — `None` when it can.
    pub fn unsupported_reason(self, topo: &Topology) -> Option<&'static str> {
        match self {
            InterferenceDomain::PLink if topo.cxl_device_count() == 0 => {
                Some("platform has no CXL device")
            }
            InterferenceDomain::PLink if topo.spec().ccd_count < 2 => {
                Some("platform has fewer than two CCDs")
            }
            InterferenceDomain::IfInterCc if topo.spec().ccd_count < 2 => {
                Some("platform has fewer than two CCDs")
            }
            InterferenceDomain::IfIntraCc if topo.spec().cores_per_ccx < 2 => {
                Some("CCX has fewer than two cores")
            }
            InterferenceDomain::Gmi if topo.spec().cores_per_ccd() < 2 => {
                Some("CCD has fewer than two cores")
            }
            _ => None,
        }
    }
}

impl core::fmt::Display for InterferenceDomain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            InterferenceDomain::IfIntraCc => "IF (intra-CC)",
            InterferenceDomain::IfInterCc => "IF (inter-CC)",
            InterferenceDomain::Gmi => "GMI",
            InterferenceDomain::PLink => "P-Link/CXL",
        })
    }
}

/// One point of an interference sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferencePoint {
    /// Background offered load, GB/s.
    pub bg_offered_gb_s: f64,
    /// Frontend achieved bandwidth, GB/s.
    pub fg_achieved_gb_s: f64,
    /// Background achieved bandwidth, GB/s.
    pub bg_achieved_gb_s: f64,
}

/// Interference specs: for each background load (GB/s), the `frontend`
/// stream issues `fg_op` at max rate beside a `background` stream issuing
/// `bg_op`, for 80 µs. A load of `0.0` stops the background at time zero;
/// `f64::INFINITY` runs it unthrottled. `Err` is the platform's
/// [`InterferenceDomain::unsupported_reason`].
pub fn interference(
    base: &ScenarioSpec,
    domain: InterferenceDomain,
    fg_op: OpKind,
    bg_op: OpKind,
    bg_loads_gb_s: &[f64],
) -> Result<Vec<ScenarioSpec>, &'static str> {
    let topo = crate::topology(base);
    if let Some(reason) = domain.unsupported_reason(&topo) {
        return Err(reason);
    }
    let (fg_cores, bg_cores, fg_target, bg_target) = domain.setup(&topo);
    Ok(bg_loads_gb_s
        .iter()
        .map(|&bg| {
            let frontend =
                crate::stream("frontend", fg_cores.clone(), fg_target.clone(), fg_op, None);
            let paced = (bg.is_finite() && bg != 0.0).then_some(bg);
            let mut background = crate::stream(
                "background",
                bg_cores.clone(),
                bg_target.clone(),
                bg_op,
                paced,
            );
            // Zero background: never issues.
            if let Some(engine) = background.engine.as_mut().filter(|_| bg == 0.0) {
                engine.stop = Some(SimTime::ZERO);
            }
            let name = format!("interference {domain} {fg_op:?}-{bg_op:?}");
            crate::probe(
                base,
                name,
                "frontend stream against a background stream (Figure 6)",
                SimTime::from_micros(80),
                vec![frontend, background],
            )
        })
        .collect())
}

/// Folds an [`interference`] run over `bg_loads_gb_s` into one point per
/// background load.
pub fn interference_points(
    bg_loads_gb_s: &[f64],
    reports: &[ScenarioReport],
) -> Vec<InterferencePoint> {
    bg_loads_gb_s
        .iter()
        .zip(reports)
        .map(|(&bg, r)| {
            let flows = crate::flows(r);
            InterferencePoint {
                bg_offered_gb_s: bg,
                fg_achieved_gb_s: flows[0].achieved_gb_s,
                bg_achieved_gb_s: flows[1].achieved_gb_s,
            }
        })
        .collect()
}

/// Runs the frontend at max rate against a swept background. A background
/// load of `0.0` disables the background; `f64::INFINITY` runs it
/// unthrottled.
///
/// # Panics
///
/// Panics when the platform cannot run the domain.
pub fn interference_sweep(
    base: &ScenarioSpec,
    domain: InterferenceDomain,
    fg_op: OpKind,
    bg_op: OpKind,
    bg_loads_gb_s: &[f64],
) -> Vec<InterferencePoint> {
    let specs = interference(base, domain, fg_op, bg_op, bg_loads_gb_s)
        .unwrap_or_else(|reason| panic!("{domain} unsupported on platform: {reason}"));
    interference_points(bg_loads_gb_s, &crate::execute(specs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base;

    #[test]
    fn zero_background_means_no_interference() {
        let pts = interference_sweep(
            &base("epyc_9634", true),
            InterferenceDomain::Gmi,
            OpKind::Read,
            OpKind::Read,
            &[0.0],
        );
        assert_eq!(pts[0].bg_achieved_gb_s, 0.0);
        assert!(pts[0].fg_achieved_gb_s > 25.0);
    }

    #[test]
    fn read_background_degrades_read_frontend_at_gmi() {
        let pts = interference_sweep(
            &base("epyc_9634", true),
            InterferenceDomain::Gmi,
            OpKind::Read,
            OpKind::Read,
            &[0.0, 5.0, 15.0],
        );
        assert!(
            pts[2].fg_achieved_gb_s < pts[0].fg_achieved_gb_s - 3.0,
            "frontend should lose bandwidth: {pts:?}"
        );
    }

    #[test]
    fn write_background_spares_read_frontend_on_separate_direction() {
        // Cross-CCD flows share only UMCs; a modest write background on the
        // write direction barely moves a read frontend.
        let pts = interference_sweep(
            &base("epyc_9634", true),
            InterferenceDomain::IfInterCc,
            OpKind::Read,
            OpKind::WriteNonTemporal,
            &[0.0, 10.0],
        );
        let drop = pts[0].fg_achieved_gb_s - pts[1].fg_achieved_gb_s;
        assert!(
            drop < pts[0].fg_achieved_gb_s * 0.1,
            "direction isolation violated: {pts:?}"
        );
    }

    #[test]
    fn intra_cc_read_background_starves_writes() {
        // The shared CCX limiter: a saturating read stream steals the write
        // frontend's tokens (the paper's within-CC asymmetry).
        let pts = interference_sweep(
            &base("epyc_9634", true),
            InterferenceDomain::IfIntraCc,
            OpKind::WriteNonTemporal,
            OpKind::Read,
            &[0.0, f64::INFINITY],
        );
        assert!(
            pts[1].fg_achieved_gb_s < pts[0].fg_achieved_gb_s * 0.9,
            "a saturating read background should squeeze the write \
             frontend through the shared limiter: {pts:?}"
        );
    }
}
