//! Criterion benchmarks of the allocation hot paths: the dense
//! allocator, and the incremental epoch allocator in its steady state (the
//! fluid loop's per-tick cost when no demand breakpoint has passed).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chiplet_fluid::alloc::{weighted_allocate_dense, DenseAllocScratch};
use chiplet_fluid::IncrementalAllocator;

fn bench_dense(c: &mut Criterion) {
    // A 64-flow / 16-point instance mirroring the socket-wide policy
    // epochs of the engine: each flow crosses two capacity points, given
    // as indexes into the capacity table (the engine's footprints index
    // server-arena slots, resolved at admission). Point `r` has capacity
    // 20 + r GB/s. The instance stays fixed so the row stays comparable
    // across versions; the solver does not depend on how its points are
    // numbered.
    let footprints: Vec<Vec<(u32, f64)>> = (0..64u32)
        .map(|i| vec![(i % 16, 0.5), ((i * 3) % 16, 0.5)])
        .collect();
    let capacities: Vec<f64> = (0..16).map(|r| 1e9 * (20.0 + r as f64)).collect();
    let demands: Vec<f64> = (0..64).map(|i| 1e9 * (1.0 + (i % 7) as f64)).collect();
    let mut scratch = DenseAllocScratch::default();
    let mut out = Vec::new();
    c.bench_function("alloc/dense_64_flows_16_points", |b| {
        b.iter(|| {
            weighted_allocate_dense(
                &demands,
                |_| 1.0,
                |i| footprints[i].as_slice(),
                &capacities,
                &mut scratch,
                &mut out,
            );
            black_box(out.last().copied())
        })
    });
}

fn bench_incremental_steady_state(c: &mut Criterion) {
    // The fluid loop's shape: per-tick allocate() with unchanged demands
    // (steady state between breakpoints) — one bits-compare per flow.
    let demands: Vec<f64> = (0..64).map(|i| 1.0 + (i % 7) as f64).collect();
    let links: Vec<Vec<usize>> = (0..64).map(|i| vec![i % 16, (i * 3) % 16]).collect();
    let caps: Vec<f64> = (0..16).map(|i| 20.0 + i as f64).collect();
    let mut inc = IncrementalAllocator::new();
    inc.allocate(&demands, &links, &caps);
    c.bench_function("alloc/incremental_steady_64_flows", |b| {
        b.iter(|| black_box(inc.allocate(&demands, &links, &caps).last().copied()))
    });
}

criterion_group!(benches, bench_dense, bench_incremental_steady_state);
criterion_main!(benches);
