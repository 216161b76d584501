//! The two batch workloads: `sweep_cold` (`SweepRunner` into a fresh
//! cache) and `dse_search` (`DseRunner` over `dse_epyc`).

use std::path::Path;
use std::time::Instant;

use chiplet_bench::scenarios::{dse::dse_epyc, sweeps};
use chiplet_net::dse::{
    estimate_design, estimate_on, pareto_frontier, DesignEstimate, DseRunner, ParetoPoint,
};
use chiplet_net::metrics::MetricsRegistry;
use chiplet_net::scenario::{
    effective_jobs, parallel_ordered, spec_hash, ScenarioSpec, SweepAxis, SweepOutcome, SweepPoint,
    SweepPointResult, SweepRunner, SweepSpec,
};
use chiplet_net::{DseOutcome, DseSpec};

use crate::pipeline::{report_txn, run_point, WorkCounts};
use crate::stats::{self, median, Rng};
use crate::trace::{account, Accounting, Tracer};
use crate::{Ctx, Metric, Report};

/// Input builds per timed set-up batch; one batch runs before every
/// repetition, and `setup_s` is the median over the batches.
const SETUP_BATCH: usize = 50;
/// Fewest measured repetitions, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// Sweep points re-run one at a time by the output check.
const SAMPLE_POINTS: usize = 6;

/// The contention sweep: the two-flow `MaxMinFair` scenario of
/// `examples/scenarios/ccd_vs_cxl.json` over both flows' offered loads.
fn contention_sweep(seed: u64) -> Result<SweepSpec, String> {
    let path = "examples/scenarios/ccd_vs_cxl.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut base = ScenarioSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    base.seed = Some(seed);
    Ok(SweepSpec {
        name: "contention_sweep".into(),
        description: "DRAM vs CXL readers under max-min fair sharing".into(),
        base,
        axes: vec![
            SweepAxis::DemandGbS {
                flow: "dram-read".into(),
                values: vec![Some(8.0), Some(16.0), Some(32.0), None],
            },
            SweepAxis::DemandGbS {
                flow: "cxl-read".into(),
                values: vec![Some(4.0), None],
            },
        ],
        max_points: None,
    })
}

/// The three sweeps of `sweep_cold`, each base spec carrying the seed, as
/// the CLI receives them: serialised and parsed back.
fn sweep_inputs(seed: u64) -> Result<Vec<SweepSpec>, String> {
    let mut fig3 = sweeps::fig3_sweep();
    fig3.base.seed = Some(seed);
    let mut fig5 = sweeps::fig5_sweep();
    fig5.base.seed = Some(seed);
    [fig3, contention_sweep(seed)?, fig5]
        .iter()
        .map(|s| SweepSpec::from_json(&s.to_json()).map_err(|e| e.to_string()))
        .collect()
}

/// `dse_epyc` with its base seed taken from the workload seed.
fn dse_input(seed: u64) -> Result<DseSpec, String> {
    let mut spec = dse_epyc();
    spec.base.seed = Some(seed);
    DseSpec::from_json(&spec.to_json()).map_err(|e| e.to_string())
}

/// Times one batch of [`SETUP_BATCH`] input builds, as the CLI builds and
/// parses them; returns one build's time, s.
fn time_setup<T>(build: &impl Fn() -> Result<T, String>) -> Result<f64, String> {
    let t = Instant::now();
    for _ in 0..SETUP_BATCH {
        std::hint::black_box(build()?);
    }
    Ok(t.elapsed().as_secs_f64() / SETUP_BATCH as f64)
}

/// What [`repeat`] measured: the set-up time before every repetition,
/// every repetition's wall seconds, process CPU seconds and peak resident
/// memory (MiB), the first repetition's result, and for each later one how
/// many of its items differed from the first's.
struct Repeated<T> {
    setup: Vec<f64>,
    walls: Vec<f64>,
    cpu: Vec<f64>,
    rss: Vec<f64>,
    first: T,
    differing: Vec<usize>,
}

/// Repeats `rep` (given a fresh cache directory) until `seconds` have
/// passed and at least [`MIN_REPS`] ran, timing `setup` before each one
/// (spread over the run, the set-up samples see the host as the
/// repetitions do). Only the first result is kept; `differ` compares each
/// later one with it, so memory holds one result.
fn repeat<T>(
    ctx: &Ctx,
    seconds: f64,
    tag: &str,
    setup: impl Fn() -> Result<f64, String>,
    mut rep: impl FnMut(&Path) -> Result<(f64, T), String>,
    differ: impl Fn(&T, &T) -> usize,
) -> Result<Repeated<T>, String> {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut cpu = Vec::new();
    let mut rss = Vec::new();
    let mut first = None;
    let mut differing = Vec::new();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let dir = ctx.work.join(format!("{tag}-{}", walls.len()));
        setups.push(setup()?);
        stats::reset_peak_rss();
        let cpu0 = stats::process_cpu_s();
        let (wall, r) = rep(&dir)?;
        cpu.push(stats::process_cpu_s() - cpu0);
        rss.push(stats::peak_rss_mib());
        let _ = std::fs::remove_dir_all(&dir);
        walls.push(wall);
        match &first {
            None => first = Some(r),
            Some(f) => differing.push(differ(f, &r)),
        }
    }
    Ok(Repeated {
        setup: setups,
        walls,
        cpu,
        rss,
        first: first.expect("MIN_REPS > 0"),
        differing,
    })
}

/// The end-to-end metrics of a batch workload: one input build, one job's
/// wall time, CPU time and peak memory, each the median over the runs.
fn batch_e2e(reps: &Repeated<impl Sized>) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(&reps.setup), "s", reps.setup.len()),
        Metric::new("wall_s", median(&reps.walls), "s", reps.walls.len()),
        Metric::new("cpu_s", median(&reps.cpu), "s", reps.cpu.len()),
        Metric::new("peak_rss_mb", median(&reps.rss), "MiB", reps.rss.len()),
    ]
}

/// What one `sweep_cold` repetition produced: the outcomes, their JSON,
/// the OpenMetrics dump and the registry it was encoded from.
type SweepRun = (Vec<SweepOutcome>, Vec<String>, String, MetricsRegistry);

/// The untraced `sweep_cold` repetition: the CLI's
/// `sweep … --json --metrics F` for each sweep into one fresh cache.
fn sweep_rep(inputs: &[SweepSpec], jobs: usize, dir: &Path) -> Result<(f64, SweepRun), String> {
    let runner = SweepRunner {
        jobs,
        cache_dir: Some(dir.to_path_buf()),
    };
    let t = Instant::now();
    let mut metrics = MetricsRegistry::new();
    let mut outcomes = Vec::with_capacity(inputs.len());
    let mut jsons = Vec::with_capacity(inputs.len());
    for sweep in inputs {
        let (outcome, stats) = runner
            .run_with_metrics(sweep, &mut metrics)
            .map_err(|e| e.to_string())?;
        if stats.cached != 0 {
            return Err(format!(
                "{}: {} points hit a cold cache",
                sweep.name, stats.cached
            ));
        }
        jsons.push(outcome.to_json());
        outcomes.push(outcome);
    }
    let om = metrics.to_openmetrics();
    let wall = t.elapsed().as_secs_f64();
    Ok((wall, (outcomes, jsons, om, metrics)))
}

/// Runs expanded points through the pool with a span per layer, in
/// expansion order, as `SweepRunner::run_points` does. `expected` holds
/// the untraced run's result of each point; returns how many points did
/// not reproduce theirs.
fn traced_points(
    tr: &Tracer,
    parent: u64,
    points: &[SweepPoint],
    expected: &[SweepPointResult],
    jobs: usize,
    dir: &Path,
    counts: &WorkCounts,
) -> Result<usize, String> {
    if points.len() != expected.len() {
        return Err(format!(
            "{} points traced, {} in the untraced outcome",
            points.len(),
            expected.len()
        ));
    }
    let _ = std::fs::create_dir_all(dir);
    let lanes = effective_jobs(jobs, points.len());
    let same = tr.time_lanes("sweep.pool", parent, lanes, |pool| {
        parallel_ordered(points, jobs, |i, p| {
            let want = &expected[i];
            let same = run_point(tr, pool, p, &want.report, dir, counts);
            same.map(|s| s && p.hash == want.hash && p.label == want.label)
        })
    });
    let mut bad = 0;
    for s in same {
        bad += usize::from(!s.map_err(|e| e.to_string())?);
    }
    Ok(bad)
}

/// One traced `sweep_cold` repetition, checked against the untraced
/// `run`; returns the number of points that did not reproduce it.
fn sweep_rep_traced(
    tr: &Tracer,
    inputs: &[SweepSpec],
    run: &SweepRun,
    jobs: usize,
    dir: &Path,
    counts: &WorkCounts,
) -> Result<usize, String> {
    let (outcomes, _, _, metrics) = run;
    tr.time("run", 0, |root| {
        let mut bad = 0;
        for (sweep, outcome) in inputs.iter().zip(outcomes) {
            let points = tr
                .time("sweep.expand", root, |_| sweep.expand())
                .map_err(|e| e.to_string())?;
            for p in &points {
                let h = tr.time("sweep.hash", root, |_| spec_hash(&p.spec));
                if h != p.hash {
                    return Err(format!(
                        "{}: spec_hash {h} != point hash {}",
                        p.label, p.hash
                    ));
                }
            }
            bad += traced_points(tr, root, &points, &outcome.points, jobs, dir, counts)?;
            std::hint::black_box(tr.time("report.json", root, |_| outcome.to_json()));
        }
        std::hint::black_box(tr.time("metrics.encode", root, |_| metrics.to_openmetrics()));
        Ok(bad)
    })
}

/// The `sweep_cold` workload.
pub fn sweep_cold(ctx: &Ctx) -> Result<Report, String> {
    let build = || sweep_inputs(ctx.seed);
    let inputs = build()?;
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let reps = repeat(
        ctx,
        budget,
        "sweep",
        || time_setup(&build),
        |dir| sweep_rep(&inputs, ctx.jobs, dir),
        |(o0, j0, m0, _), (o, j, m, _)| {
            if j == j0 && m == m0 {
                0
            } else {
                differing(o0, o).max(1)
            }
        },
    )?;
    let walls = &reps.walls;
    let (outcomes, _, _, _) = &reps.first;
    let points_per_rep: usize = outcomes.iter().map(|o| o.points.len()).sum();

    let mut report = Report::default();
    // Every repetition ran the same inputs into a fresh cache: the bytes
    // must not move.
    report.attempted += (points_per_rep * walls.len()) as u64;
    for &n in reps.differing.iter().filter(|&&n| n > 0) {
        report.fail_n(n, format!("{n} points differ between repetitions"));
    }
    sample_check(&mut report, &inputs, outcomes, ctx.seed)?;

    let txn: u64 = outcomes
        .iter()
        .flat_map(|o| &o.points)
        .map(|p| report_txn(&p.report))
        .sum();
    report.count("sweep.points", points_per_rep as u64);
    report.count("engine.txn", txn);
    report.e2e = batch_e2e(&reps);

    if ctx.trace {
        let counts = WorkCounts::default();
        let tr = Tracer::new();
        let traced = repeat(
            ctx,
            ctx.seconds / 2.0,
            "traced",
            || Ok(0.0),
            |dir| {
                let t = Instant::now();
                let bad = sweep_rep_traced(&tr, &inputs, &reps.first, ctx.jobs, dir, &counts)?;
                Ok((t.elapsed().as_secs_f64(), bad))
            },
            |_, &bad| bad,
        )?;
        let n = traced.walls.len() as u64;
        report.attempted += points_per_rep as u64 * n;
        let bad = traced.first + traced.differing.iter().sum::<usize>();
        if bad > 0 {
            report.fail_n(
                bad,
                format!("{bad} traced points differ from the untraced reports"),
            );
        }
        let acc = account(&tr.spans());
        report.write_spans(ctx, &tr)?;
        if WorkCounts::get(&counts.txn) != txn * n {
            report.fail(format!(
                "traced engine.txn {} != {} × {txn}",
                WorkCounts::get(&counts.txn),
                n
            ));
        }
        report.layers = batch_layers(&acc, n, mean(walls), &counts, ctx.jobs);
        report.count("engine.events", WorkCounts::get(&counts.events) / n);
    }
    Ok(report)
}

/// Points whose reports differ between two runs of the same sweeps.
fn differing(a: &[SweepOutcome], b: &[SweepOutcome]) -> usize {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.points.iter().zip(&y.points))
        .filter(|(p, q)| p != q)
        .count()
}

/// Re-runs a seeded sample of points one at a time with
/// `ScenarioSpec::run`; each report's bytes must equal the sweep's.
fn sample_check(
    report: &mut Report,
    inputs: &[SweepSpec],
    outcomes: &[SweepOutcome],
    seed: u64,
) -> Result<(), String> {
    let mut all: Vec<(SweepPoint, &SweepPointResult)> = Vec::new();
    for (sweep, outcome) in inputs.iter().zip(outcomes) {
        let points = sweep.expand().map_err(|e| e.to_string())?;
        all.extend(points.into_iter().zip(&outcome.points));
    }
    let mut rng = Rng::new(seed, 0x5a3);
    for _ in 0..SAMPLE_POINTS {
        let (point, batch) = &all[rng.below(all.len())];
        report.attempted += 1;
        let single = point.spec.run().map_err(|e| e.to_string());
        let ok =
            point.hash == batch.hash && single.is_ok_and(|r| r.to_json() == batch.report.to_json());
        if !ok {
            report.fail(format!("point {} differs when run alone", point.label));
        }
    }
    Ok(())
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Per-layer metrics of a batch workload's traced repetitions.
fn batch_layers(
    acc: &Accounting,
    reps: u64,
    untraced_mean_s: f64,
    counts: &WorkCounts,
    jobs: usize,
) -> Vec<Metric> {
    let r = reps as f64;
    let mut m = crate::layer_metrics(acc, r);
    m.push(Metric::new(
        "trace_overhead_ms",
        acc.wall_ms / r - untraced_mean_s * 1e3,
        "ms",
        reps as usize,
    ));
    // A ratio or per-unit figure exists only where its denominator does:
    // a metric the workload never produces is left out, not written as 0.
    let ratios = [
        (
            "cache.hit_ratio",
            WorkCounts::get(&counts.cache_hits) as f64,
            WorkCounts::get(&counts.cache_probes) as f64,
        ),
        (
            "fluid.alloc_memo_hit_ratio",
            WorkCounts::get(&counts.memo_hits) as f64,
            (WorkCounts::get(&counts.memo_hits) + WorkCounts::get(&counts.memo_misses)) as f64,
        ),
        (
            "sweep.pool_busy_frac",
            acc.busy_ms("sweep.point"),
            jobs as f64 * acc.busy_ms("sweep.pool"),
        ),
        (
            "dse.pool_busy_frac",
            acc.busy_ms("dse.candidate"),
            jobs as f64 * acc.busy_ms("dse.pool"),
        ),
    ];
    for (name, num, den) in ratios {
        if den > 0.0 {
            m.push(Metric::new(name, num / den, "ratio", reps as usize));
        }
    }
    let txn = WorkCounts::get(&counts.txn);
    let events = WorkCounts::get(&counts.events);
    let run_ns = acc.busy_ms("engine.run") * 1e6;
    if txn > 0 && events > 0 {
        m.push(Metric::new("engine.txn", (txn / reps) as f64, "count", 1));
        m.push(Metric::new(
            "engine.events",
            (events / reps) as f64,
            "count",
            1,
        ));
        m.push(Metric::new(
            "engine.ns_per_txn",
            run_ns / txn as f64,
            "ns",
            1,
        ));
        m.push(Metric::new(
            "engine.ns_per_event",
            run_ns / events as f64,
            "ns",
            1,
        ));
    }
    m
}

/// The untraced `dse_search` repetition: `chiplet-scenario dse dse_epyc
/// --json` with a cold escalation cache.
fn dse_rep(spec: &DseSpec, jobs: usize, dir: &Path) -> Result<(f64, (DseOutcome, String)), String> {
    let runner = DseRunner {
        jobs,
        cache_dir: Some(dir.to_path_buf()),
        budget: None,
    };
    let t = Instant::now();
    let (outcome, stats) = runner.run(spec).map_err(|e| e.to_string())?;
    let json = outcome.to_json();
    let wall = t.elapsed().as_secs_f64();
    if stats.sweep.cached != 0 {
        return Err("escalation hit a cold cache".into());
    }
    Ok((wall, (outcome, json)))
}

/// The scored candidates (index into `points`) and their Pareto inputs,
/// as `DseRunner::run` builds them.
fn pareto_inputs(
    points: &[SweepPoint],
    estimates: &[Option<DesignEstimate>],
) -> (Vec<usize>, Vec<ParetoPoint>) {
    let mut idx = Vec::new();
    let mut pts = Vec::new();
    for (i, est) in estimates.iter().enumerate() {
        let Some(e) = est else { continue };
        idx.push(i);
        pts.push(ParetoPoint {
            latency_ns: e.latency_ns,
            bandwidth_gb_s: e.bandwidth_gb_s,
            cost: e.cost,
            hash: u64::from_str_radix(&points[i].hash, 16).unwrap_or(0),
        });
    }
    (idx, pts)
}

/// One traced `dse_search` repetition: spans around the public layers
/// `DseRunner::run` bundles (expansion, per-candidate topology build and
/// estimate, the Pareto filter, escalation of the frontier through the
/// sweep pipeline, the report), checked against the untraced `outcome`.
/// Returns the number of mismatches.
fn dse_rep_traced(
    tr: &Tracer,
    spec: &DseSpec,
    outcome: &DseOutcome,
    jobs: usize,
    dir: &Path,
    counts: &WorkCounts,
) -> Result<usize, String> {
    tr.time("run", 0, |root| {
        let points = tr
            .time("dse.expand", root, |_| spec.expand())
            .map_err(|e| e.to_string())?;
        let lanes = effective_jobs(jobs, points.len());
        let estimates = tr.time_lanes("dse.pool", root, lanes, |pool| {
            parallel_ordered(&points, jobs, |_, p| {
                tr.time("dse.candidate", pool, |cid| {
                    let topo = tr
                        .time("dse.topology", cid, |_| p.spec.topology.resolve())
                        .ok()?;
                    tr.time("dse.estimate", cid, |_| estimate_on(&p.spec, &topo))
                        .ok()
                })
            })
        });
        let (front, scored) = tr.time("dse.pareto", root, |_| {
            let (idx, pts) = pareto_inputs(&points, &estimates);
            let front: Vec<usize> = pareto_frontier(&pts).iter().map(|&k| idx[k]).collect();
            (front, idx.len())
        });
        let take = spec.escalate.unwrap_or(front.len());
        let escalated: Vec<SweepPoint> = front
            .iter()
            .take(take)
            .map(|&i| points[i].clone())
            .collect();
        let mut bad = usize::from(
            points.len() != outcome.candidates
                || scored != outcome.scored
                || front
                    .iter()
                    .map(|&i| &points[i].hash)
                    .ne(outcome.frontier.iter().map(|f| &f.hash)),
        );
        bad += tr.time("dse.escalate", root, |eid| {
            let expected = &outcome.escalation.points;
            traced_points(tr, eid, &escalated, expected, jobs, dir, counts)
        })?;
        std::hint::black_box(tr.time("report.json", root, |_| outcome.to_json()));
        Ok(bad)
    })
}

/// Re-derives the frontier with `estimate_design` and `pareto_frontier`;
/// it must match the search's. Returns the number of mismatching entries.
fn frontier_check(spec: &DseSpec, outcome: &DseOutcome, jobs: usize) -> Result<usize, String> {
    let points = spec.expand().map_err(|e| e.to_string())?;
    let estimates = parallel_ordered(&points, jobs, |_, p| estimate_design(&p.spec).ok());
    let (idx, pts) = pareto_inputs(&points, &estimates);
    let expected: Vec<(&str, f64, f64, f64)> = pareto_frontier(&pts)
        .iter()
        .map(|&k| {
            let p = &pts[k];
            (
                points[idx[k]].hash.as_str(),
                p.latency_ns,
                p.bandwidth_gb_s,
                p.cost,
            )
        })
        .collect();
    let got: Vec<(&str, f64, f64, f64)> = outcome
        .frontier
        .iter()
        .map(|f| (f.hash.as_str(), f.latency_ns, f.bandwidth_gb_s, f.cost))
        .collect();
    let same = expected.iter().zip(&got).filter(|(a, b)| a == b).count();
    Ok(expected.len().max(got.len()) - same)
}

/// The `dse_search` workload.
pub fn dse_search(ctx: &Ctx) -> Result<Report, String> {
    let build = || dse_input(ctx.seed);
    let spec = build()?;
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let reps = repeat(
        ctx,
        budget,
        "dse",
        || time_setup(&build),
        |dir| dse_rep(&spec, ctx.jobs, dir),
        |(_, j0), (_, j)| usize::from(j != j0),
    )?;
    let walls = &reps.walls;
    let (outcome, _) = &reps.first;

    let mut report = Report::default();
    report.attempted += (outcome.candidates * walls.len()) as u64;
    let bad = reps.differing.iter().sum::<usize>();
    if bad > 0 {
        report.fail_n(bad, "a repetition's report differs from the first".into());
    }
    let bad = frontier_check(&spec, outcome, ctx.jobs)?;
    report.attempted += outcome.frontier.len() as u64;
    if bad > 0 {
        report.fail_n(
            bad,
            format!("{bad} frontier entries differ from estimate_design"),
        );
    }
    let txn: u64 = outcome
        .escalation
        .points
        .iter()
        .map(|p| report_txn(&p.report))
        .sum();
    report.count("dse.candidates", outcome.candidates as u64);
    report.count("dse.frontier", outcome.frontier.len() as u64);
    report.count("engine.txn", txn);
    report.e2e = batch_e2e(&reps);

    if ctx.trace {
        let counts = WorkCounts::default();
        let tr = Tracer::new();
        let traced = repeat(
            ctx,
            ctx.seconds / 2.0,
            "traced",
            || Ok(0.0),
            |dir| {
                let t = Instant::now();
                let bad = dse_rep_traced(&tr, &spec, outcome, ctx.jobs, dir, &counts)?;
                Ok((t.elapsed().as_secs_f64(), bad))
            },
            |_, &bad| bad,
        )?;
        let n = traced.walls.len() as u64;
        report.attempted += outcome.candidates as u64 * n;
        let bad = traced.first + traced.differing.iter().sum::<usize>();
        if bad > 0 {
            report.fail_n(
                bad,
                format!("{bad} traced search results differ from the untraced ones"),
            );
        }
        let acc = account(&tr.spans());
        report.write_spans(ctx, &tr)?;
        let mut layers = batch_layers(&acc, n, mean(walls), &counts, ctx.jobs);
        let c = outcome.candidates.max(1) as f64;
        layers.push(Metric::new(
            "dse.candidates",
            outcome.candidates as f64,
            "count",
            1,
        ));
        layers.push(Metric::new(
            "dse.frontier",
            outcome.frontier.len() as f64,
            "count",
            1,
        ));
        layers.push(Metric::new(
            "dse.frontier_ratio",
            outcome.frontier.len() as f64 / c,
            "ratio",
            outcome.candidates,
        ));
        layers.push(Metric::new(
            "dse.infeasible_ratio",
            outcome.infeasible as f64 / c,
            "ratio",
            outcome.candidates,
        ));
        report.layers = layers;
        report.count("engine.events", WorkCounts::get(&counts.events) / n);
    }
    Ok(report)
}
