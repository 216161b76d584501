//! Criterion benchmarks of the profiling sketches: update/query rates at
//! the per-transaction granularity the §4 #5 profiler would sustain.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chiplet_net::sketch::{CountMinSketch, QuantileSketch, SpaceSaving};
use chiplet_sim::stats::LatencyHistogram;
use chiplet_sim::SimDuration;

fn bench_count_min_update(c: &mut Criterion) {
    c.bench_function("sketch/count_min_update_10k", |b| {
        b.iter(|| {
            let mut cm = CountMinSketch::with_error(0.01, 0.01);
            for i in 0..10_000u64 {
                cm.update(&(i % 257), 64);
            }
            black_box(cm.estimate(&13u64))
        })
    });
}

fn bench_space_saving(c: &mut Criterion) {
    c.bench_function("sketch/space_saving_update_10k", |b| {
        b.iter(|| {
            let mut ss = SpaceSaving::new(32);
            for i in 0..10_000u64 {
                ss.update(i % 997, 64);
            }
            black_box(ss.heavy_hitters().len())
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("stats/latency_histogram_record_100k", |b| {
        b.iter(|| {
            let mut h = LatencyHistogram::new();
            for i in 0..100_000u64 {
                h.record(SimDuration::from_nanos(100 + (i * 7919) % 1000));
            }
            black_box(h.p999())
        })
    });
}

fn bench_quantile_sketch(c: &mut Criterion) {
    c.bench_function("sketch/quantile_record_100k", |b| {
        b.iter(|| {
            let mut q = QuantileSketch::new();
            for i in 0..100_000u64 {
                q.record(100.0 + (i % 997) as f64);
            }
            black_box(q.quantile(0.999))
        })
    });
}

criterion_group!(
    benches,
    bench_count_min_update,
    bench_space_saving,
    bench_histogram,
    bench_quantile_sketch
);
criterion_main!(benches);
