//! Criterion benchmarks of the fluid engine: the Figure 5 six-second trace
//! and the equilibrium allocator at scale.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chiplet_fluid::{proportional_allocate, DemandSchedule, FluidFlowSpec, FluidSim};
use chiplet_net::scenario::FluidLinkSpec;
use chiplet_sim::{Bandwidth, SimDuration, SimTime};

fn bench_fig5_trace(c: &mut Criterion) {
    let if_9634 = FluidLinkSpec::Named("if_9634".into())
        .resolve()
        .expect("preset link");
    c.bench_function("fluid/fig5_6s_trace", |b| {
        b.iter(|| {
            let link = if_9634.clone();
            let cap = link.capacity.as_gb_per_s();
            let mut sim = FluidSim::new(vec![link]);
            sim.add_flow(FluidFlowSpec {
                name: "f0".into(),
                demand: DemandSchedule::piecewise(vec![
                    (SimTime::ZERO, None),
                    (
                        SimTime::from_secs(2),
                        Some(Bandwidth::from_gb_per_s(cap / 2.0 - 2.0)),
                    ),
                    (SimTime::from_secs(3), None),
                ]),
                links: vec![0],
            });
            sim.add_flow(FluidFlowSpec {
                name: "f1".into(),
                demand: DemandSchedule::constant(None),
                links: vec![0],
            });
            black_box(sim.run(
                SimTime::from_secs(6),
                SimDuration::from_millis(1),
                SimDuration::from_millis(10),
                1,
                None,
            ))
        })
    });
}

fn bench_allocator(c: &mut Criterion) {
    // 64 flows over 16 links, random-ish shape.
    let demands: Vec<f64> = (0..64).map(|i| 1.0 + (i % 7) as f64).collect();
    let links: Vec<Vec<usize>> = (0..64).map(|i| vec![i % 16, (i * 3) % 16]).collect();
    let caps: Vec<f64> = (0..16).map(|i| 20.0 + i as f64).collect();
    c.bench_function("fluid/allocator_64_flows_16_links", |b| {
        b.iter(|| black_box(proportional_allocate(&demands, &links, &caps)))
    });
}

criterion_group!(benches, bench_fig5_trace, bench_allocator);
criterion_main!(benches);
