//! Pointer-chase latency probes (the Table 2 methodology).

use chiplet_mem::Pattern;
use chiplet_net::scenario::{
    CoreSelect, EngineFlow, ScenarioFlow, ScenarioReport, ScenarioSpec, TargetSpec,
};
use chiplet_sim::{ByteSize, SimTime};
use chiplet_topology::{CoreId, DimmPosition};
use serde::{Deserialize, Serialize};

/// One point of a chase sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChasePoint {
    /// Working-set size.
    pub working_set: ByteSize,
    /// Mean access latency, ns.
    pub latency_ns: f64,
}

/// What a pointer chase walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaseTarget {
    /// The first DIMM at this position relative to the issuing core.
    Dimm(DimmPosition),
    /// CXL device 0.
    Cxl,
}

/// Pointer-chase specs: one single-core, 30 µs chase per `(target,
/// working set)` probe, in probe order. `Err` names the first target the
/// platform lacks.
pub fn latency(
    base: &ScenarioSpec,
    core: CoreId,
    probes: &[(ChaseTarget, ByteSize)],
) -> Result<Vec<ScenarioSpec>, &'static str> {
    let topo = crate::topology(base);
    probes
        .iter()
        .map(|&(target, ws)| {
            let (name, target) = match target {
                ChaseTarget::Dimm(pos) => {
                    let dimm = topo
                        .dimm_at_position(core, pos)
                        .ok_or("platform has no DIMM at that position")?;
                    ("chase", TargetSpec::Dimms(vec![dimm.0]))
                }
                ChaseTarget::Cxl if topo.cxl_device_count() == 0 => {
                    return Err("platform has no CXL device")
                }
                ChaseTarget::Cxl => ("cxl-chase", TargetSpec::Cxl(0)),
            };
            let flow = ScenarioFlow {
                name: name.to_string(),
                demand: None,
                engine: Some(EngineFlow {
                    cores: CoreSelect::Cores(vec![core.0]),
                    nic: None,
                    target,
                    op: None,
                    pattern: Some(Pattern::PointerChase),
                    working_set: Some(ws),
                    start: None,
                    stop: None,
                }),
                links: Vec::new(),
            };
            Ok(crate::probe(
                base,
                format!("{name} {ws}"),
                "pointer-chase latency probe (Table 2)",
                SimTime::from_micros(30),
                vec![flow],
            ))
        })
        .collect()
}

/// Each chase's mean access latency, ns.
pub fn chase_latencies(reports: &[ScenarioReport]) -> Vec<f64> {
    reports
        .iter()
        .map(|r| {
            crate::flows(r)[0]
                .mean_latency_ns
                .expect("event runs measure latency")
        })
        .collect()
}

/// Pointer-chase latency as the working set grows — walks L1 → L2 → L3 →
/// DRAM exactly like the paper's utility.
pub fn chase_sweep(
    base: &ScenarioSpec,
    core: CoreId,
    working_sets: &[ByteSize],
) -> Vec<ChasePoint> {
    let probes: Vec<_> = working_sets
        .iter()
        .map(|&ws| (ChaseTarget::Dimm(DimmPosition::Near), ws))
        .collect();
    let specs = latency(base, core, &probes).expect("platform has a near DIMM");
    working_sets
        .iter()
        .zip(chase_latencies(&crate::execute(specs)))
        .map(|(&working_set, latency_ns)| ChasePoint {
            working_set,
            latency_ns,
        })
        .collect()
}

/// The default working-set ladder: 16 KiB to 1 GiB.
pub fn default_working_sets() -> Vec<ByteSize> {
    [
        16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
    ]
    .iter()
    .map(|&k| ByteSize::from_kib(k))
    .chain([ByteSize::from_gib(1)])
    .collect()
}

/// Chase latency over a 1 GiB working set to a DIMM at each relative
/// position the platform has (Table 2's near/vertical/horizontal/diagonal
/// rows), ns.
pub fn position_latencies(base: &ScenarioSpec, core: CoreId) -> Vec<(DimmPosition, f64)> {
    let (present, specs): (Vec<DimmPosition>, Vec<ScenarioSpec>) = DimmPosition::ALL
        .iter()
        .filter_map(|&pos| {
            let probe = [(ChaseTarget::Dimm(pos), ByteSize::from_gib(1))];
            Some((pos, latency(base, core, &probe).ok()?.remove(0)))
        })
        .unzip();
    present
        .into_iter()
        .zip(chase_latencies(&crate::execute(specs)))
        .collect()
}

/// Chase latency to a CXL device, ns, when the platform has one.
pub fn cxl_latency(base: &ScenarioSpec, core: CoreId) -> Option<f64> {
    let specs = latency(base, core, &[(ChaseTarget::Cxl, ByteSize::from_gib(1))]).ok()?;
    Some(chase_latencies(&crate::execute(specs))[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base;

    #[test]
    fn sweep_is_monotone_in_working_set() {
        let pts = chase_sweep(&base("epyc_7302", true), CoreId(0), &default_working_sets());
        for w in pts.windows(2) {
            assert!(
                w[1].latency_ns >= w[0].latency_ns - 1e-9,
                "latency regressed: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // Ends at DRAM latency, starts at L1.
        assert!((pts[0].latency_ns - 1.24).abs() < 1e-6);
        assert!(pts.last().unwrap().latency_ns > 120.0);
    }

    #[test]
    fn position_rows_present_and_ordered() {
        let rows = position_latencies(&base("epyc_9634", true), CoreId(0));
        assert_eq!(rows.len(), 4);
        assert!(rows[0].1 <= rows[1].1 && rows[1].1 <= rows[2].1);
    }

    #[test]
    fn cxl_latency_only_on_cxl_platforms() {
        assert!(cxl_latency(&base("epyc_7302", true), CoreId(0)).is_none());
        let lat = cxl_latency(&base("epyc_9634", true), CoreId(0)).unwrap();
        assert!((lat - 243.0).abs() < 12.0, "cxl {lat}");
    }

    #[test]
    fn absent_targets_are_errors() {
        let b = base("epyc_7302", true);
        let remote = [(
            ChaseTarget::Dimm(DimmPosition::Remote),
            ByteSize::from_gib(1),
        )];
        assert!(latency(&b, CoreId(0), &remote).is_err());
        let cxl = [(ChaseTarget::Cxl, ByteSize::from_gib(1))];
        assert_eq!(
            latency(&b, CoreId(0), &cxl),
            Err("platform has no CXL device")
        );
    }
}
