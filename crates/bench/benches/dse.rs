//! Criterion benchmarks of the `chiplet-dse` fast path: what one design
//! costs to score analytically (whole, and as a capacity sibling of an
//! already-built shape), what sealing one frontier member costs,
//! what the frontier extraction costs at search scale, and — as the
//! ratio-gate denominator — what escalating that same design to the event
//! engine costs. The
//! committed baseline (`BENCH_engine.json`) carries a `dse fast-path
//! exchange rate` ratio pinning the estimator at ≤ 1/1000 of the DES run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chiplet_bench::scenarios::dse::dse_epyc;
use chiplet_net::dse::{estimate_design, pareto_frontier, DesignShape, ParetoPoint};

fn bench_estimator(c: &mut Criterion) {
    let spec = dse_epyc().base;
    c.bench_function("dse/estimator_per_design", |b| {
        b.iter(|| black_box(estimate_design(black_box(&spec)).expect("stock design estimates")))
    });
}

fn bench_sibling_score(c: &mut Criterion) {
    // The middle candidate of the flagship search scored from a prebuilt
    // shape: what each of a shape's capacity siblings costs in a search
    // (capacity readout, one max-min solve, latencies, cost proxy).
    let search = dse_epyc();
    let space = search.candidates().expect("dse_epyc is valid");
    let platform = space.platform(5_400);
    let shape = DesignShape::of_platform(&search.base, &platform).expect("candidate is feasible");
    c.bench_function("dse/sibling_score_per_design", |b| {
        b.iter(|| black_box(shape.score(black_box(&platform))))
    });
}

fn bench_candidate(c: &mut Criterion) {
    // The middle candidate of the flagship search (an EPYC 9634 variant):
    // axis decoding, platform mutation, spec build, seed derivation and
    // content hash. A search pays this once per frontier member; every
    // other candidate pays only the platform build and the estimator.
    let search = dse_epyc();
    let space = search.candidates().expect("dse_epyc is valid");
    c.bench_function("dse/candidate_per_design", |b| {
        b.iter(|| black_box(space.point(black_box(5_400))))
    });
}

fn bench_frontier(c: &mut Criterion) {
    // 10k synthetic scores drawn from a fixed LCG: the frontier cost at
    // flagship search scale, independent of estimator cost.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let points: Vec<ParetoPoint> = (0..10_000)
        .map(|i| ParetoPoint {
            latency_ns: 100.0 + 900.0 * next(),
            bandwidth_gb_s: 10.0 + 90.0 * next(),
            cost: 50.0 + 150.0 * next(),
            hash: i,
        })
        .collect();
    c.bench_function("dse/frontier_10k", |b| {
        b.iter(|| black_box(pareto_frontier(black_box(&points))))
    });
}

fn bench_des_reference(c: &mut Criterion) {
    let spec = dse_epyc().base;
    c.bench_function("dse/des_reference_run", |b| {
        b.iter(|| black_box(black_box(&spec).run().expect("stock design runs")))
    });
}

criterion_group!(
    benches,
    bench_estimator,
    bench_sibling_score,
    bench_candidate,
    bench_frontier,
    bench_des_reference
);
criterion_main!(benches);
