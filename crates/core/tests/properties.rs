//! Property-based tests over randomized engine configurations: physical
//! invariants that must hold for *any* flow mix.

use chiplet_mem::OpKind;
use chiplet_net::engine::{Engine, EngineConfig, RunResult};
use chiplet_net::flow::{FlowSpec, Target};
use chiplet_sim::{Bandwidth, ByteSize, SimTime};
use chiplet_topology::{CcdId, DimmId, PlatformSpec, Topology};
use proptest::prelude::*;

/// A randomized flow description over one CCD (so flows never fight for
/// cores) with an optional offered rate.
#[derive(Debug, Clone)]
struct RandFlow {
    ccd: u32,
    cores_used: u32,
    write: bool,
    offered_gb: Option<f64>,
    dimm_lo: u32,
    dimm_hi: u32,
}

fn arb_flow(max_ccd: u32, cores_per_ccd: u32, dimms: u32) -> impl Strategy<Value = RandFlow> {
    (
        0..max_ccd,
        1..=cores_per_ccd,
        prop::bool::ANY,
        prop::option::of(1.0f64..30.0),
        0..dimms,
        0..dimms,
    )
        .prop_map(move |(ccd, cores_used, write, offered_gb, a, b)| RandFlow {
            ccd,
            cores_used,
            write,
            offered_gb,
            dimm_lo: a.min(b),
            dimm_hi: a.max(b),
        })
}

fn run_flows(flows: &[RandFlow], seed: u64) -> (RunResult, Topology) {
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    let mut cfg = EngineConfig::deterministic();
    cfg.seed = seed;
    let mut engine = Engine::new(&topo, cfg);
    let mut used_ccd = std::collections::HashSet::new();
    for (i, f) in flows.iter().enumerate() {
        if !used_ccd.insert(f.ccd) {
            continue; // one flow per CCD keeps cores exclusive
        }
        let cores: Vec<_> = topo
            .cores_of_ccd(CcdId(f.ccd))
            .take(f.cores_used as usize)
            .collect();
        let dimms: Vec<DimmId> = (f.dimm_lo..=f.dimm_hi).map(DimmId).collect();
        let mut b = FlowSpec::reads(&format!("f{i}"), cores, Target::Dimms(dimms))
            .op(if f.write {
                OpKind::WriteNonTemporal
            } else {
                OpKind::Read
            })
            .working_set(ByteSize::from_gib(1));
        if let Some(gb) = f.offered_gb {
            b = b.offered(Bandwidth::from_gb_per_s(gb));
        }
        engine.add_flow(b.build(&topo));
    }
    (engine.run(SimTime::from_micros(15)), topo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No flow exceeds its offered demand (beyond sampling noise), and no
    /// flow exceeds the GMI capacity of its single chiplet.
    #[test]
    fn achieved_respects_demand_and_physics(
        flows in proptest::collection::vec(arb_flow(4, 4, 8), 1..4),
        seed in 0u64..1000,
    ) {
        let (r, topo) = run_flows(&flows, seed);
        let spec = topo.spec();
        for f in &r.flows {
            let gb = f.achieved.as_gb_per_s();
            // Physical ceiling: one chiplet's GMI direction capacity.
            let cap = spec.caps.gmi_read.as_gb_per_s().max(spec.caps.gmi_write.as_gb_per_s());
            prop_assert!(gb <= cap * 1.03, "{}: {gb} above GMI {cap}", f.name);
        }
        // Demands: match flows to results by construction order is fragile
        // with skipped duplicates, so check the global property instead:
        // total achieved ≤ Σ caps.
        let total: f64 = r.flows.iter().map(|f| f.achieved.as_gb_per_s()).sum();
        prop_assert!(total <= spec.caps.noc_read.as_gb_per_s()
            + spec.caps.noc_write.as_gb_per_s() + 1.0);
    }

    /// Latency never drops below the unloaded near-DIMM path, and every
    /// completion is accounted (completed ≤ issued).
    #[test]
    fn latency_floor_and_conservation(
        flows in proptest::collection::vec(arb_flow(4, 4, 8), 1..4),
        seed in 0u64..1000,
    ) {
        let (r, topo) = run_flows(&flows, seed);
        let floor = topo.spec().dram_latency_ns(chiplet_topology::DimmPosition::Near);
        for f in &r.flows {
            prop_assert!(f.completed <= f.issued, "{}: {} > {}", f.name, f.completed, f.issued);
            if let Some(min) = f.latency.min() {
                prop_assert!(
                    min.as_nanos() as f64 >= floor - 1.0,
                    "{}: min latency {} below unloaded floor {floor}",
                    f.name,
                    min.as_nanos()
                );
            }
        }
    }

    /// Bit-identical determinism for arbitrary flow mixes.
    #[test]
    fn random_config_is_deterministic(
        flows in proptest::collection::vec(arb_flow(4, 4, 8), 1..4),
        seed in 0u64..1000,
    ) {
        let (a, _) = run_flows(&flows, seed);
        let (b, _) = run_flows(&flows, seed);
        prop_assert_eq!(
            serde_json::to_string(&(&a.telemetry, &a.flows)).unwrap(),
            serde_json::to_string(&(&b.telemetry, &b.flows)).unwrap()
        );
    }

    /// Telemetry link bytes are consistent with flow payloads: the GMI
    /// links carry at least the payload bytes completed (plus in-flight
    /// remainder, hence ≥ with tolerance).
    #[test]
    fn telemetry_accounts_flow_bytes(
        flows in proptest::collection::vec(arb_flow(4, 4, 8), 1..3),
        seed in 0u64..1000,
    ) {
        let (r, _) = run_flows(&flows, seed);
        let payload: u64 = r.flows.iter().map(|f| f.bytes).sum();
        let gmi_bytes: u64 = r
            .telemetry
            .links
            .iter()
            .filter(|l| matches!(
                l.point,
                chiplet_net::telemetry::CapacityPoint::Link {
                    kind: chiplet_topology::LinkKind::Gmi,
                    ..
                }
            ))
            .map(|l| l.read.bytes + l.write.bytes)
            .sum();
        // Link counters include warmup-excluded and in-flight lines, so
        // they can only exceed the recorded payload.
        prop_assert!(
            gmi_bytes + 64_000 >= payload,
            "GMI carried {gmi_bytes} for {payload} payload"
        );
    }
}
