//! The proposed networking stack end-to-end: descriptor, telemetry,
//! traffic manager, BDP monitor, traffic matrix, and determinism across
//! the whole pipeline.

use server_chiplet_networking::mem::OpKind;
use server_chiplet_networking::net::bdp::BdpMonitor;
use server_chiplet_networking::net::engine::{Engine, EngineConfig};
use server_chiplet_networking::net::flow::{FlowSpec, Target};
use server_chiplet_networking::net::matrix::TrafficMatrix;
use server_chiplet_networking::net::sketch::CountMinSketch;
use server_chiplet_networking::net::traffic::TrafficPolicy;
use server_chiplet_networking::sim::{Bandwidth, SimTime};
use server_chiplet_networking::topology::descriptor::ChipletNetDescriptor;
use server_chiplet_networking::topology::{CcdId, CoreId, PlatformSpec, Topology};

#[test]
fn descriptor_round_trips_and_names_platform() {
    for spec in [PlatformSpec::epyc_7302(), PlatformSpec::epyc_9634()] {
        let topo = Topology::build(&spec);
        let desc = ChipletNetDescriptor::from_topology(&topo);
        let back = ChipletNetDescriptor::from_json(&desc.to_json()).unwrap();
        assert_eq!(desc, back);
        assert_eq!(back.platform, spec.name);
    }
}

#[test]
fn telemetry_serializes_and_identifies_bottleneck() {
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads(
            "load",
            topo.cores_of_ccd(CcdId(0)).collect(),
            Target::all_dimms(&topo),
        )
        .build(&topo),
    );
    let result = engine.run(SimTime::from_micros(30));
    let json = result.telemetry.to_json();
    assert!(json.contains("Gmi"));
    let b = result.telemetry.bottleneck().unwrap();
    assert!(
        b.read.utilization > 0.85,
        "bottleneck util {}",
        b.read.utilization
    );
}

#[test]
fn full_run_is_deterministic_per_seed() {
    let topo = Topology::build(&PlatformSpec::epyc_9634());
    let run = |seed: u64| {
        let cfg = EngineConfig::default().with_seed(seed);
        let mut engine = Engine::new(&topo, cfg);
        engine.add_flow(
            FlowSpec::reads(
                "a",
                topo.cores_of_ccd(CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .offered(Bandwidth::from_gb_per_s(20.0))
            .build(&topo),
        );
        engine.add_flow(
            FlowSpec::writes(
                "b",
                topo.cores_of_ccd(CcdId(1)).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        let r = engine.run(SimTime::from_micros(25));
        serde_json::to_string(&(&r.telemetry, &r.flows)).unwrap()
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}

#[test]
fn traffic_manager_changes_real_outcomes() {
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    let run = |policy: TrafficPolicy| {
        let mut cfg = EngineConfig::deterministic();
        cfg.policy = policy;
        let mut engine = Engine::new(&topo, cfg);
        let cores: Vec<CoreId> = topo.cores_of_ccd(CcdId(0)).collect();
        let (small, big) = cores.split_at(2);
        engine.add_flow(
            FlowSpec::reads("small", small.to_vec(), Target::all_dimms(&topo))
                .offered(Bandwidth::from_gb_per_s(10.0))
                .build(&topo),
        );
        engine.add_flow(
            FlowSpec::reads("big", big.to_vec(), Target::all_dimms(&topo))
                .offered(Bandwidth::from_gb_per_s(30.0))
                .build(&topo),
        );
        let r = engine.run(SimTime::from_micros(60));
        (
            r.flow("small").unwrap().achieved.as_gb_per_s(),
            r.flow("big").unwrap().achieved.as_gb_per_s(),
        )
    };
    let (s_hw, b_hw) = run(TrafficPolicy::HardwareDefault);
    let (s_mm, _) = run(TrafficPolicy::MaxMinFair);
    let (_, b_rl) = run(TrafficPolicy::RateLimit {
        caps_gb_s: vec![f64::INFINITY, 15.0],
    });
    // Max-min restores the small flow to (nearly) its demand.
    assert!(
        s_mm >= s_hw - 0.2,
        "max-min should not hurt: {s_mm} vs {s_hw}"
    );
    assert!(s_mm > 9.0, "max-min protects the small flow: {s_mm}");
    // Rate limiting actually caps the big flow.
    assert!(b_rl < 16.0, "rate cap violated: {b_rl}");
    assert!(
        b_hw > 18.0,
        "hardware default lets the big flow run: {b_hw}"
    );
}

#[test]
fn bdp_monitor_matches_engine_observations() {
    // Feed the monitor the engine's own measurements and check the derived
    // in-flight budget is near the actual outstanding level (Little's law).
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads(
            "probe",
            topo.cores_of_ccd(CcdId(0)).collect(),
            Target::all_dimms(&topo),
        )
        .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(40));
    let f = &r.flows[0];
    let mut monitor = BdpMonitor::new(1.0);
    monitor.observe(f.achieved, f.mean_latency_ns());
    // Little's law: in flight ≈ rate × latency. The chiplet keeps
    // 4 cores × 32 lines = 128 outstanding at saturation.
    let lines = monitor.recommended_inflight();
    assert!(
        (100..=140).contains(&lines),
        "BDP-derived in-flight {lines} lines"
    );
}

#[test]
fn matrix_ground_truth_vs_gravity_on_engine_output() {
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    let spec = topo.spec();
    // Product-form traffic: every CCD spreads evenly over all DIMMs →
    // gravity reconstruction should be near-exact.
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    for ccd in 0..spec.ccd_count {
        engine.add_flow(
            FlowSpec::reads(
                &format!("ccd{ccd}"),
                topo.cores_of_ccd(CcdId(ccd)).collect(),
                Target::all_dimms(&topo),
            )
            .offered(Bandwidth::from_gb_per_s(8.0))
            .build(&topo),
        );
    }
    let r = engine.run(SimTime::from_micros(30));
    let truth = TrafficMatrix::from_cells(spec.ccd_count, spec.mem.umc_count, &r.telemetry.matrix);
    let est = TrafficMatrix::gravity_estimate(&truth.row_sums(), &truth.col_sums());
    let err = est.relative_error(&truth);
    assert!(err < 0.05, "gravity error {err} on product-form traffic");
}

#[test]
fn sketch_profile_of_engine_traffic_is_conservative() {
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads(
            "x",
            topo.cores_of_ccd(CcdId(0)).collect(),
            Target::all_dimms(&topo),
        )
        .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(20));
    let mut cm = CountMinSketch::with_error(0.01, 0.01);
    for cell in &r.telemetry.matrix {
        cm.update(&(cell.ccd, cell.dest), cell.bytes);
    }
    for cell in &r.telemetry.matrix {
        assert!(
            cm.estimate(&(cell.ccd, cell.dest)) >= cell.bytes,
            "count-min underestimated a cell"
        );
    }
}

#[test]
fn writes_and_reads_coexist_on_separate_directions() {
    // One chiplet reads while another writes: neither should collapse (the
    // directions don't share servers; only the NoC/UMC touchpoints do).
    let topo = Topology::build(&PlatformSpec::epyc_9634());
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads(
            "r",
            topo.cores_of_ccd(CcdId(0)).collect(),
            Target::all_dimms(&topo),
        )
        .build(&topo),
    );
    engine.add_flow(
        FlowSpec::writes(
            "w",
            topo.cores_of_ccd(CcdId(1)).collect(),
            Target::all_dimms(&topo),
        )
        .build(&topo),
    );
    let result = engine.run(SimTime::from_micros(30));
    let r = result.flow("r").unwrap().achieved.as_gb_per_s();
    let w = result.flow("w").unwrap().achieved.as_gb_per_s();
    assert!(r > 28.0, "read flow collapsed: {r}");
    assert!(w > 17.0, "write flow collapsed: {w}");
}

#[test]
fn op_kind_consistency_cross_crate() {
    // mem's OpKind drives the engine's direction choice; a sanity loop over
    // both kinds on both platforms.
    for spec in [PlatformSpec::epyc_7302(), PlatformSpec::epyc_9634()] {
        let topo = Topology::build(&spec);
        for op in [OpKind::Read, OpKind::WriteNonTemporal] {
            let mut engine = Engine::new(&topo, EngineConfig::deterministic());
            engine.add_flow(
                FlowSpec::reads("f", vec![CoreId(0)], Target::all_dimms(&topo))
                    .op(op)
                    .build(&topo),
            );
            let r = engine.run(SimTime::from_micros(15));
            assert!(
                r.flows[0].achieved.as_gb_per_s() > 1.0,
                "{op} on {}",
                spec.name
            );
        }
    }
}
