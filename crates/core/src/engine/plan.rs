//! Stage plans: precompiled transaction itineraries.
//!
//! A transaction does not walk every graph node — only the *capacity
//! points* along its route contend. A [`StagePlan`] is the precompiled
//! sequence of those points for one (core, destination) pair, plus the
//! route's unloaded latency and limiter coordinates. Plans are built once
//! per flow, so the hot path is array walks.

use chiplet_fabric::FlitFraming;
use chiplet_sim::ByteSize;
use chiplet_topology::ids::LinkId;
use chiplet_topology::{CoreId, DimmId, LinkKind, Topology};

use crate::telemetry::CapacityPoint;

/// One step of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Which capacity point.
    pub point: CapacityPoint,
    /// Wire bytes this transaction occupies at the point (payload for
    /// coherent links; FLIT-framed for the CXL serial path).
    pub bytes: u64,
    /// Whether memory-device service variability applies here (the UMC
    /// channel for DRAM, the P-Link aggregate for CXL).
    pub device: bool,
}

impl Stage {
    /// A stage that moves one cacheline of payload across `point`, with no
    /// device variability.
    fn line(point: CapacityPoint) -> Stage {
        Stage {
            point,
            bytes: ByteSize::CACHELINE.as_bytes(),
            device: false,
        }
    }
}

/// The capacity point of topology link `id`.
fn link_point(topo: &Topology, id: LinkId) -> CapacityPoint {
    let kind = topo.link(id).kind;
    CapacityPoint::Link { link: id.0, kind }
}

/// A compiled itinerary for one (core, destination) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// Capacity points in traversal order.
    pub stages: Vec<Stage>,
    /// Unloaded end-to-end latency, ns.
    pub unloaded_ns: f64,
    /// Socket-wide CCX index (first limiter).
    pub ccx: u32,
    /// CCD index (second limiter, when the platform has one).
    pub ccd: u32,
    /// Destination for traffic-matrix accounting: UMC index, or
    /// `umc_count + device` for CXL.
    pub matrix_dest: u32,
    /// True for CXL destinations.
    pub is_cxl: bool,
    /// Whether the source passes the chiplet token limiters (false for
    /// device DMA engines, which sit on the I/O die past them).
    pub limiters: bool,
}

impl StagePlan {
    /// Compiles the plan for a core→DIMM route. Remote (other-socket)
    /// routes cross the xGMI fabric and both sockets' NoCs.
    pub fn to_dimm(topo: &Topology, core: CoreId, dimm: DimmId) -> StagePlan {
        let route = topo.route_core_to_dimm(core, dimm);
        let home_socket = topo.socket_of_core(core);
        let mut stages = Vec::with_capacity(7);
        for link_id in route.link_sequence() {
            let link = topo.link(link_id);
            let has_cap = link.read_cap.is_some() || link.write_cap.is_some();
            if has_cap {
                let device = link.kind == LinkKind::MemChannel;
                stages.push(Stage {
                    device,
                    ..Stage::line(link_point(topo, link_id))
                });
            }
            // The socket NoC capacity applies once the request enters an
            // I/O die: the home die right after the GMI crossing, the
            // remote die right after the xGMI crossing.
            let entered_noc = match link.kind {
                LinkKind::Gmi => Some(home_socket),
                LinkKind::Xgmi => Some(1 - home_socket),
                _ => None,
            };
            if let Some(socket) = entered_noc {
                stages.push(Stage::line(CapacityPoint::SocketNoc { socket }));
            }
        }
        let ccd = topo.ccd_of_core(core);
        StagePlan {
            stages,
            unloaded_ns: route.latency_ns,
            ccx: core.0 / topo.spec().cores_per_ccx,
            ccd: ccd.0,
            matrix_dest: dimm.0,
            is_cxl: false,
            limiters: true,
        }
    }

    /// Compiles the plan for a NIC-DMA→DIMM route (§4 #3). The DMA engine
    /// sits on the I/O die: no CCX/CCD limiters, but the PCIe lane, the
    /// socket NoC, and the UMC channel all apply.
    pub fn nic_to_dimm(topo: &Topology, nic: u32, dimm: DimmId) -> StagePlan {
        let route = topo
            .route_nic_to_dimm(nic, dimm)
            .expect("platform has the NIC");
        let mut stages = Vec::with_capacity(4);
        for link_id in route.link_sequence() {
            let link = topo.link(link_id);
            let has_cap = link.read_cap.is_some() || link.write_cap.is_some();
            if has_cap {
                stages.push(Stage {
                    device: link.kind == LinkKind::MemChannel,
                    ..Stage::line(link_point(topo, link_id))
                });
            }
            // Entering the I/O die from the hub side (NICs live on socket 0).
            if link.kind == LinkKind::PcieLane {
                stages.push(Stage::line(CapacityPoint::SocketNoc { socket: 0 }));
            }
            if link.kind == LinkKind::Xgmi {
                stages.push(Stage::line(CapacityPoint::SocketNoc { socket: 1 }));
            }
        }
        StagePlan {
            stages,
            unloaded_ns: route.latency_ns,
            ccx: u32::MAX,
            ccd: u32::MAX,
            matrix_dest: dimm.0,
            is_cxl: false,
            limiters: false,
        }
    }

    /// Compiles the plan for a core→CXL-device route.
    ///
    /// # Panics
    ///
    /// Panics when the platform has no such device.
    pub fn to_cxl(topo: &Topology, core: CoreId, device: u32) -> StagePlan {
        let route = topo
            .route_core_to_cxl(core, device)
            .expect("platform has the CXL device");
        let spec = topo.spec();
        let cxl = spec.cxl.as_ref().expect("CXL spec present");
        let framing = FlitFraming::for_flit_size(cxl.flit_bytes);
        let wire = framing.wire_bytes(ByteSize::CACHELINE.as_bytes());

        let ccd = topo.ccd_of_core(core);
        let home_socket = topo.socket_of_core(core);
        let mut stages = Vec::with_capacity(7);
        let mut inserted_noc = false;
        for link_id in route.link_sequence() {
            let link = topo.link(link_id);
            match link.kind {
                LinkKind::HubRc => {
                    // The serialized P-Link aggregate: FLIT framing applies,
                    // and CXL media variability is charged here.
                    stages.push(Stage {
                        bytes: wire,
                        device: true,
                        ..Stage::line(link_point(topo, link_id))
                    });
                }
                _ if link.read_cap.is_some() || link.write_cap.is_some() => {
                    stages.push(Stage::line(link_point(topo, link_id)));
                }
                _ => {}
            }
            if link.kind == LinkKind::Gmi && !inserted_noc {
                stages.push(Stage::line(CapacityPoint::SocketNoc {
                    socket: home_socket,
                }));
                // The per-CCD CXL port models the Table 3 per-chiplet CXL
                // ceilings (a compute chiplet reaches ~24/15 GB/s to CXL,
                // well under its GMI capacity).
                stages.push(Stage::line(CapacityPoint::CxlPort { ccd: ccd.0 }));
                inserted_noc = true;
            }
            if link.kind == LinkKind::Xgmi {
                stages.push(Stage::line(CapacityPoint::SocketNoc {
                    socket: 1 - home_socket,
                }));
            }
        }
        StagePlan {
            stages,
            unloaded_ns: route.latency_ns,
            ccx: core.0 / spec.cores_per_ccx,
            ccd: ccd.0,
            matrix_dest: spec.mem.umc_count + device,
            is_cxl: true,
            limiters: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_topology::{DimmPosition, PlatformSpec};

    #[test]
    fn dimm_plan_has_expected_stages() {
        let topo = Topology::build(&PlatformSpec::epyc_9634());
        let plan = StagePlan::to_dimm(&topo, CoreId(0), DimmId(0));
        // CoreL3, L3Tc, Gmi, SocketNoc, MemChannel.
        assert_eq!(plan.stages.len(), 5);
        assert!(matches!(
            plan.stages[2].point,
            CapacityPoint::Link {
                kind: LinkKind::Gmi,
                ..
            }
        ));
        assert_eq!(plan.stages[3].point, CapacityPoint::SocketNoc { socket: 0 });
        // Exactly one device stage, and it is last.
        let device_stages: Vec<usize> = plan
            .stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.device)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(device_stages, vec![plan.stages.len() - 1]);
        assert!(!plan.is_cxl);
        assert_eq!(plan.matrix_dest, 0);
    }

    #[test]
    fn dimm_plan_latency_matches_position() {
        let spec = PlatformSpec::epyc_7302();
        let topo = Topology::build(&spec);
        for pos in DimmPosition::ALL {
            let dimm = topo.dimm_at_position(CoreId(0), pos).unwrap();
            let plan = StagePlan::to_dimm(&topo, CoreId(0), dimm);
            assert!((plan.unloaded_ns - spec.dram_latency_ns(pos)).abs() < 1e-9);
        }
    }

    #[test]
    fn cxl_plan_uses_flit_framing() {
        let spec = PlatformSpec::epyc_9634();
        let topo = Topology::build(&spec);
        let plan = StagePlan::to_cxl(&topo, CoreId(0), 0);
        assert!(plan.is_cxl);
        assert!((plan.unloaded_ns - spec.cxl_latency_ns().unwrap()).abs() < 1e-9);
        // The P-Link stage carries 68 wire bytes per 64 B line.
        let plink_stage = plan.stages.iter().find(|s| s.device).unwrap();
        assert_eq!(plink_stage.bytes, 68);
        // A per-CCD CXL port stage exists.
        assert!(plan
            .stages
            .iter()
            .any(|s| s.point == CapacityPoint::CxlPort { ccd: 0 }));
        assert_eq!(plan.matrix_dest, spec.mem.umc_count);
    }

    #[test]
    fn limiter_coordinates() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        // 7302: 2 cores per CCX, 4 per CCD.
        let plan = StagePlan::to_dimm(&topo, CoreId(5), DimmId(0));
        assert_eq!(plan.ccx, 2);
        assert_eq!(plan.ccd, 1);
    }

    #[test]
    fn plans_differ_by_destination_quadrant() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let near = topo
            .dimm_at_position(CoreId(0), DimmPosition::Near)
            .unwrap();
        let diag = topo
            .dimm_at_position(CoreId(0), DimmPosition::Diagonal)
            .unwrap();
        let p_near = StagePlan::to_dimm(&topo, CoreId(0), near);
        let p_diag = StagePlan::to_dimm(&topo, CoreId(0), diag);
        assert!(p_diag.unloaded_ns > p_near.unloaded_ns);
        // Same stage structure: the extra hops are uncapped switches.
        assert_eq!(p_near.stages.len(), p_diag.stages.len());
    }
}
