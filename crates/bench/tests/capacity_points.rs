//! One capacity mapping. `CapacityPoint::caps` is what `Topology::build`
//! stamps on each capped link, what the platform spec gives the socket NoC
//! (`caps.noc_*`) and the per-CCD CXL port (`cxl.ccd_*`), and what the
//! event engine sizes its servers from: one arena slot, and so one
//! telemetry row, per point it caps. The DSE estimator scores candidates
//! through the same function, so the presets and every `dse_smoke`
//! candidate are checked.

use chiplet_bench::scenarios::dse::dse_smoke;
use chiplet_net::engine::{Engine, EngineConfig};
use chiplet_net::telemetry::CapacityPoint;
use chiplet_sim::SimTime;
use chiplet_topology::{NicSpec, PlatformSpec, Topology};

/// Checks one platform; returns how many points it caps.
fn check(p: &PlatformSpec) -> usize {
    let topo = Topology::build(p);
    let name = &p.name;
    let mut capped = Vec::new();
    for (l, link) in topo.links().iter().zip(0..) {
        let point = CapacityPoint::Link { link, kind: l.kind };
        let caps = point.caps(p);
        assert_eq!(caps.map(|c| c.0), l.read_cap, "{name}: link{link} read");
        assert_eq!(caps.map(|c| c.1), l.write_cap, "{name}: link{link} write");
        capped.extend(caps.map(|_| point));
    }
    for socket in 0..p.socket_count {
        let point = CapacityPoint::SocketNoc { socket };
        let noc = (p.caps.noc_read, p.caps.noc_write);
        assert_eq!(point.caps(p), Some(noc), "{name}: noc{socket}");
        capped.push(point);
    }
    for ccd in 0..topo.ccd_total() {
        let point = CapacityPoint::CxlPort { ccd };
        let port = p.cxl.as_ref().map(|c| (c.ccd_read, c.ccd_write));
        assert_eq!(point.caps(p), port, "{name}: cxl{ccd}");
        capped.extend(port.map(|_| point));
    }
    // Telemetry lists one row per server-arena slot, in dense point order.
    let run = Engine::new(&topo, EngineConfig::deterministic()).run(SimTime::from_micros(3));
    let rows: Vec<CapacityPoint> = run.telemetry.links.iter().map(|l| l.point).collect();
    assert_eq!(rows, capped, "{name}: engine slots");
    capped.len()
}

#[test]
fn every_point_has_one_capacity_on_presets_and_dse_candidates() {
    let presets = [
        PlatformSpec::epyc_7302(),
        PlatformSpec::epyc_9634(),
        PlatformSpec::epyc_9634().with_nic(NicSpec::gbe400()),
        PlatformSpec::dual_epyc_7302(),
        PlatformSpec::monolithic_baseline(),
    ];
    for p in &presets {
        assert!(check(p) > 0, "{}", p.name);
    }
    let search = dse_smoke();
    let candidates = search.candidates().unwrap();
    let n: usize = search.axes.iter().map(|a| a.len()).product();
    assert_eq!(n, 480);
    for i in 0..n {
        check(&candidates.platform(i));
    }
}
