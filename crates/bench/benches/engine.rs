//! Criterion benchmarks of the transaction engine: wall-clock cost of the
//! simulations behind Tables 2–3 and Figures 3–4.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chiplet_membench::latency::{latency, ChaseTarget};
use chiplet_net::engine::{Engine, EngineConfig};
use chiplet_net::flow::{FlowSpec, Target};
use chiplet_net::scenario::EventEngineBackend;
use chiplet_sim::{Bandwidth, ByteSize, SimTime};
use chiplet_topology::{CcdId, CoreId, DimmPosition, PlatformSpec, Topology};

fn bench_pointer_chase(c: &mut Criterion) {
    // The Table 2 generator's chase: core 0 to its near DIMM (DIMM 0 on the
    // 7302), 1 GiB working set, deterministic memory, 30 µs.
    let base = chiplet_membench::base("epyc_7302", true);
    let probe = [(ChaseTarget::Dimm(DimmPosition::Near), ByteSize::from_gib(1))];
    let spec = latency(&base, CoreId(0), &probe).expect("the 7302 has a near DIMM");
    let spec = &spec[0];
    let topo = spec.topology.resolve().expect("a named preset");
    c.bench_function("engine/table2_pointer_chase_30us", |b| {
        b.iter(|| {
            let engine = EventEngineBackend::instantiate(spec, &topo).expect("a valid chase");
            black_box(engine.run(spec.horizon).flows[0].mean_latency_ns())
        })
    });
}

fn bench_ccd_bandwidth(c: &mut Criterion) {
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    c.bench_function("engine/table3_ccd_read_20us", |b| {
        b.iter(|| {
            let mut engine = Engine::new(&topo, EngineConfig::deterministic());
            engine.add_flow(
                FlowSpec::reads(
                    "bw",
                    topo.cores_of_ccd(CcdId(0)).collect(),
                    Target::all_dimms(&topo),
                )
                .working_set(ByteSize::from_gib(1))
                .build(&topo),
            );
            black_box(engine.run(SimTime::from_micros(20)))
        })
    });
}

fn bench_socket_wide(c: &mut Criterion) {
    let topo = Topology::build(&PlatformSpec::epyc_9634());
    c.bench_function("engine/table3_socket_read_10us_9634", |b| {
        b.iter(|| {
            let mut engine = Engine::new(&topo, EngineConfig::deterministic());
            engine.add_flow(
                FlowSpec::reads("bw", topo.core_ids().collect(), Target::all_dimms(&topo))
                    .working_set(ByteSize::from_gib(1))
                    .build(&topo),
            );
            black_box(engine.run(SimTime::from_micros(10)))
        })
    });
}

fn bench_competing_flows(c: &mut Criterion) {
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    c.bench_function("engine/fig4_two_flows_20us", |b| {
        b.iter(|| {
            let cores: Vec<CoreId> = topo.cores_of_ccd(CcdId(0)).collect();
            let (c0, c1) = cores.split_at(2);
            let mut engine = Engine::new(&topo, EngineConfig::deterministic());
            engine.add_flow(
                FlowSpec::reads("a", c0.to_vec(), Target::all_dimms(&topo))
                    .offered(Bandwidth::from_gb_per_s(24.0))
                    .build(&topo),
            );
            engine.add_flow(
                FlowSpec::reads("b", c1.to_vec(), Target::all_dimms(&topo))
                    .offered(Bandwidth::from_gb_per_s(12.0))
                    .build(&topo),
            );
            black_box(engine.run(SimTime::from_micros(20)))
        })
    });
}

fn bench_bdp_adaptive(c: &mut Criterion) {
    use chiplet_net::traffic::TrafficPolicy;
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    c.bench_function("engine/bdp_adaptive_40us", |b| {
        b.iter(|| {
            let mut cfg = EngineConfig::deterministic();
            cfg.policy = TrafficPolicy::BdpAdaptive {
                latency_factor: 1.15,
                interval_ns: 2_000,
            };
            let mut engine = Engine::new(&topo, cfg);
            engine.add_flow(
                FlowSpec::reads(
                    "f",
                    topo.cores_of_ccd(CcdId(0)).collect(),
                    Target::all_dimms(&topo),
                )
                .build(&topo),
            );
            black_box(engine.run(SimTime::from_micros(40)))
        })
    });
}

fn bench_profiled_run(c: &mut Criterion) {
    let topo = Topology::build(&PlatformSpec::epyc_7302());
    c.bench_function("engine/profiled_ccd_read_20us", |b| {
        b.iter(|| {
            let mut cfg = EngineConfig::deterministic();
            cfg.profile = true;
            let mut engine = Engine::new(&topo, cfg);
            engine.add_flow(
                FlowSpec::reads(
                    "f",
                    topo.cores_of_ccd(CcdId(0)).collect(),
                    Target::all_dimms(&topo),
                )
                .build(&topo),
            );
            black_box(engine.run(SimTime::from_micros(20)))
        })
    });
}

criterion_group!(
    benches,
    bench_pointer_chase,
    bench_ccd_bandwidth,
    bench_socket_wide,
    bench_competing_flows,
    bench_bdp_adaptive,
    bench_profiled_run
);
criterion_main!(benches);
