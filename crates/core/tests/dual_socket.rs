//! Dual-socket engine behavior: remote latency, xGMI bandwidth ceiling,
//! and cross-socket contention.

use chiplet_mem::{OpKind, Pattern};
use chiplet_net::engine::{Engine, EngineConfig};
use chiplet_net::flow::{FlowSpec, Target};
use chiplet_net::scenario::{
    BackendKind, CoreSelect, EngineFlow, EngineOptions, EventEngineBackend, ScenarioFlow,
    ScenarioSpec, TargetSpec, TopologyChoice,
};
use chiplet_sim::{ByteSize, SimTime};
use chiplet_topology::{CcdId, CoreId, DimmId, PlatformSpec, Topology};

fn dual() -> Topology {
    Topology::build(&PlatformSpec::dual_epyc_7302())
}

/// Mean latency of a 30 µs pointer chase from core 0 to `dimm` of the dual
/// 7302 with deterministic memory, built through the scenario layer.
fn chase_latency_ns(dimm: u32) -> f64 {
    let spec = ScenarioSpec {
        name: "chase".into(),
        description: String::new(),
        topology: TopologyChoice::Named("dual_epyc_7302".into()),
        backend: BackendKind::Event,
        seed: None,
        horizon: SimTime::from_micros(30),
        policy: Default::default(),
        engine: Some(EngineOptions {
            deterministic_memory: true,
            ..Default::default()
        }),
        fluid: None,
        flows: vec![ScenarioFlow {
            name: "chase".into(),
            demand: None,
            engine: Some(EngineFlow {
                cores: CoreSelect::Cores(vec![0]),
                nic: None,
                target: TargetSpec::Dimms(vec![dimm]),
                op: None,
                pattern: Some(Pattern::PointerChase),
                working_set: Some(ByteSize::from_gib(1)),
                start: None,
                stop: None,
            }),
            links: Vec::new(),
        }],
    };
    let topo = spec.topology.resolve().unwrap();
    let engine = EventEngineBackend::instantiate(&spec, &topo).unwrap();
    engine.run(spec.horizon).flows[0].mean_latency_ns()
}

#[test]
fn remote_chase_latency() {
    // Local near: 124 ns; remote: ~203+ ns.
    let local = chase_latency_ns(0);
    let remote = chase_latency_ns(8);
    assert!((local - 124.0).abs() < 6.0, "local {local}");
    assert!((203.0..=235.0).contains(&remote), "remote {remote}");
}

#[test]
fn xgmi_caps_cross_socket_bandwidth() {
    let topo = dual();
    // Every core of socket 0 reads from socket 1's DIMMs: the 42 GB/s xGMI
    // read capacity binds (locally the same cores reach ~106 GB/s).
    let remote_dimms: Vec<DimmId> = (8..16).map(DimmId).collect();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads(
            "cross",
            (0..16).map(CoreId).collect(),
            Target::Dimms(remote_dimms),
        )
        .working_set(ByteSize::from_gib(1))
        .build(&topo),
    );
    let bw = engine.run(SimTime::from_micros(40)).flows[0]
        .achieved
        .as_gb_per_s();
    assert!(
        (36.0..=43.0).contains(&bw),
        "cross-socket read bandwidth {bw} should bind at the 42 GB/s xGMI"
    );
}

#[test]
fn both_sockets_stream_locally_at_full_rate() {
    // No false sharing: two sockets running local workloads each achieve the
    // single-socket CPU-wide rate.
    let topo = dual();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads(
            "s0",
            (0..16).map(CoreId).collect(),
            Target::Dimms((0..8).map(DimmId).collect()),
        )
        .build(&topo),
    );
    engine.add_flow(
        FlowSpec::reads(
            "s1",
            (16..32).map(CoreId).collect(),
            Target::Dimms((8..16).map(DimmId).collect()),
        )
        .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(40));
    for name in ["s0", "s1"] {
        let bw = r.flow(name).unwrap().achieved.as_gb_per_s();
        assert!(
            (96.0..=112.0).contains(&bw),
            "{name}: {bw} GB/s should match the single-socket 106.7"
        );
    }
}

#[test]
fn local_traffic_unaffected_by_remote_streaming() {
    // A socket-1 chiplet streams across the xGMI; socket-0 local flows keep
    // their bandwidth (separate NoCs, separate GMI links).
    let topo = dual();
    let run = |with_remote: bool| {
        let mut engine = Engine::new(&topo, EngineConfig::deterministic());
        engine.add_flow(
            FlowSpec::reads(
                "local",
                topo.cores_of_ccd(CcdId(0)).collect(),
                Target::Dimms((0..4).map(DimmId).collect()),
            )
            .build(&topo),
        );
        if with_remote {
            engine.add_flow(
                FlowSpec::reads(
                    "remote",
                    topo.cores_of_ccd(CcdId(4)).collect(),
                    Target::Dimms((4..8).map(DimmId).collect()),
                )
                .build(&topo),
            );
        }
        engine.run(SimTime::from_micros(40)).flows[0]
            .achieved
            .as_gb_per_s()
    };
    let alone = run(false);
    let contended = run(true);
    // The remote flow hits different UMCs (4..8) — the local flow keeps
    // nearly all its bandwidth.
    assert!(
        contended > alone * 0.9,
        "local {contended} vs alone {alone}"
    );
}

#[test]
fn remote_writes_follow_the_write_direction_cap() {
    let topo = dual();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::writes(
            "wr",
            (0..16).map(CoreId).collect(),
            Target::Dimms((8..16).map(DimmId).collect()),
        )
        .op(OpKind::WriteNonTemporal)
        .build(&topo),
    );
    let bw = engine.run(SimTime::from_micros(40)).flows[0]
        .achieved
        .as_gb_per_s();
    assert!(
        (28.0..=36.0).contains(&bw),
        "cross-socket write {bw} should bind near the 35 GB/s xGMI write cap"
    );
}
