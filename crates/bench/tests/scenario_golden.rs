//! Golden snapshots and end-to-end checks for the declarative scenario
//! layer.
//!
//! Every study is pinned: `tests/golden/{fig3,fig5,table2,table3,
//! flit_study,fig4}.txt` are the exact stdout of the pre-refactor binaries
//! and of `chiplet-scenario run <name>`, and every other study is pinned
//! to its tracked `results/<name>.txt`, the same bytes CI's every-entry
//! diff checks. Studies resolve, run and render through the public path
//! (`resolve_name` + `ScenarioKind::run` + `render`), cold and then warm
//! from a result cache, at one worker and at eight, so a report read back
//! from the cache must render the bytes of a fresh one.
//! `tests/golden/dse_smoke.json` is the exact stdout of `chiplet-scenario
//! dse dse_smoke --json --no-cache`. `tests/golden/fig3_sweep.json` and
//! `tests/golden/ccd_vs_cxl.json` pin the event engine's bytes: the exact
//! stdout of `chiplet-scenario sweep fig3_sweep --json --no-cache` and of
//! `chiplet-scenario run examples/scenarios/ccd_vs_cxl.json --json`. The
//! `examples/scenarios/*.json` files are the user-facing custom-scenario
//! examples from the README and the span-trace views — every one must
//! parse, run on its backend, move data on every flow, and be seed-stable.

use std::path::PathBuf;

use chiplet_bench::f1;
use chiplet_bench::scenarios::dse::dse_smoke;
use chiplet_bench::scenarios::{paper_registry, render, resolve_name, Verb};
use chiplet_mem::OpKind;
use chiplet_membench::compete::{compete, CompeteLink};
use chiplet_net::dse::DseRunner;
use chiplet_net::metrics::MetricsRegistry;
use chiplet_net::scenario::{
    spec_hash, BackendKind, EventEngineBackend, FluidBackend, ScenarioKind, ScenarioRun,
    ScenarioSpec, SweepPoint, SweepRunner, SweepStats,
};

const FIG5_GOLDEN: &str = include_str!("../../../tests/golden/fig5.txt");
const FIG5_METRICS_GOLDEN: &str = include_str!("../../../tests/golden/fig5_metrics.txt");
const DSE_SMOKE_GOLDEN: &str = include_str!("../../../tests/golden/dse_smoke.json");
const FIG3_SWEEP_GOLDEN: &str = include_str!("../../../tests/golden/fig3_sweep.json");
const CCD_VS_CXL_GOLDEN: &str = include_str!("../../../tests/golden/ccd_vs_cxl.json");
/// Every study's pin, in registry order.
const STUDY_GOLDENS: [(&str, &str); 14] = [
    ("table1", include_str!("../../../results/table1.txt")),
    ("table2", include_str!("../../../tests/golden/table2.txt")),
    ("table3", include_str!("../../../tests/golden/table3.txt")),
    ("fig3", include_str!("../../../tests/golden/fig3.txt")),
    ("fig4", include_str!("../../../tests/golden/fig4.txt")),
    ("fig5", FIG5_GOLDEN),
    // The slowest entry here (~2 s in release, ~30 s unoptimized): four
    // interference domains × four read/write combos × nine background loads.
    ("fig6", include_str!("../../../results/fig6.txt")),
    (
        "bdp_control",
        include_str!("../../../results/bdp_control.txt"),
    ),
    (
        "numa_study",
        include_str!("../../../results/numa_study.txt"),
    ),
    (
        "ablation_traffic",
        include_str!("../../../results/ablation_traffic.txt"),
    ),
    (
        "ablation_monolithic",
        include_str!("../../../results/ablation_monolithic.txt"),
    ),
    (
        "flit_study",
        include_str!("../../../tests/golden/flit_study.txt"),
    ),
    (
        "fused_stack",
        include_str!("../../../results/fused_stack.txt"),
    ),
    ("noc_study", include_str!("../../../results/noc_study.txt")),
];
const EVENT_EXAMPLE: &str = include_str!("../../../examples/scenarios/ccd_vs_cxl.json");
const COMPETE_EXAMPLE: &str = include_str!("../../../examples/scenarios/compete_gmi_7302.json");

/// Resolves `name` through the public path, runs it with `settings` (and
/// `metrics`, when given) and renders its text; also returns a study's
/// execution stats.
fn run_named(
    name: &str,
    settings: &DseRunner,
    metrics: Option<&mut MetricsRegistry>,
) -> (String, SweepStats) {
    let run = resolve_name(Verb::Run, name)
        .unwrap_or_else(|e| panic!("{e}"))
        .run(settings, metrics)
        .unwrap_or_else(|e| panic!("built-in scenario '{name}' runs: {e}"));
    let stats = match &run {
        ScenarioRun::Study(_, _, stats) => *stats,
        _ => SweepStats::default(),
    };
    (render(&run, false), stats)
}

/// A fresh, empty cache directory for one test run.
fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chiplet-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fig5_openmetrics_dump_is_pinned() {
    // The exact stdout of `chiplet-scenario run fig5 --metrics -`: label
    // sets are sorted before encoding and every value is sim-time-derived,
    // so the dump is byte-stable across runs, worker counts, and machines.
    let mut metrics = MetricsRegistry::new();
    let (text, stats) = run_named("fig5", &DseRunner::default(), Some(&mut metrics));
    assert_eq!(text, FIG5_GOLDEN, "report text is metrics-invariant");
    assert_eq!((stats.total, stats.executed), (3, 3));
    let dump = metrics.to_openmetrics();
    chiplet_net::lint_openmetrics(&dump).expect("dump passes the OpenMetrics lint");
    assert_eq!(dump, FIG5_METRICS_GOLDEN);
}

#[test]
fn study_metrics_dump_is_jobs_invariant() {
    // `run flit_study --metrics` at --jobs 1 and 8: every point records
    // into a private registry, merged in list order.
    let dump = |jobs| {
        let mut metrics = MetricsRegistry::new();
        let (text, _) = run_named(
            "flit_study",
            &DseRunner::with_jobs(jobs),
            Some(&mut metrics),
        );
        (text, metrics.to_openmetrics())
    };
    let (text1, dump1) = dump(1);
    let (text8, dump8) = dump(8);
    assert_eq!(text1, text8);
    assert_eq!(dump1, dump8, "the dump must not depend on the worker count");
    chiplet_net::lint_openmetrics(&dump1).expect("dump passes the OpenMetrics lint");
    assert!(dump1.contains(r#"scenario="flit_study 256 B""#));
}

#[test]
fn every_study_matches_its_pin_cold_and_warm_at_jobs_1_and_8() {
    // The slowest test here (each study executes twice, ~2 min
    // unoptimized). Every registry study has a pin, and renders it four
    // ways: cold into an empty cache, then warm from it, at one worker and
    // at eight. The warm run executes nothing.
    let studies: Vec<&str> = paper_registry()
        .entries()
        .iter()
        .filter(|e| matches!((e.build)(), ScenarioKind::Study { .. }))
        .map(|e| e.name)
        .collect();
    let pinned: Vec<&str> = STUDY_GOLDENS.iter().map(|(name, _)| *name).collect();
    assert_eq!(studies, pinned, "every study has a pin, in registry order");
    for jobs in [1, 8] {
        let dir = temp_cache(&format!("j{jobs}"));
        let settings = DseRunner {
            jobs,
            cache_dir: Some(dir.clone()),
            budget: None,
        };
        for (name, golden) in STUDY_GOLDENS {
            let (cold, stats) = run_named(name, &settings, None);
            assert_eq!(cold, golden, "{name} cold at --jobs {jobs}");
            assert_eq!(stats.executed + stats.cached, stats.total, "{name}");
            let (warm, stats) = run_named(name, &settings, None);
            assert_eq!(warm, golden, "{name} warm at --jobs {jobs}");
            assert_eq!(
                (stats.cached, stats.executed),
                (stats.total, 0),
                "{name} warm at --jobs {jobs} is served from the cache"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fig3_sweep_matches_the_pinned_report() {
    // 24 event-engine points: every queue push and rounded timestamp of the
    // sequential loop feeds these bytes.
    let ScenarioKind::Sweep(sweep) = (paper_registry()
        .get("fig3_sweep")
        .expect("registered")
        .build)()
    else {
        panic!("fig3_sweep is a sweep");
    };
    let (outcome, _) = SweepRunner::with_jobs(2)
        .run(&sweep)
        .expect("fig3_sweep runs");
    assert_eq!(format!("{}\n", outcome.to_json()), FIG3_SWEEP_GOLDEN);
}

#[test]
fn ccd_vs_cxl_matches_the_pinned_report_and_metrics_digest() {
    // RNG device jitter, exponential pacing and MaxMinFair on one run. The
    // OpenMetrics dump (`run … --metrics F`) is ~1 MB, so it is pinned by
    // length and FNV-1a 64 rather than committed.
    let spec = ScenarioSpec::from_json(EVENT_EXAMPLE).expect("example parses");
    let report = spec.run().expect("example runs");
    assert_eq!(format!("{}\n", report.to_json()), CCD_VS_CXL_GOLDEN);
    let mut metrics = MetricsRegistry::new();
    let with_metrics = spec.run_with_metrics(&mut metrics).expect("example runs");
    assert_eq!(with_metrics, report, "report is metrics-invariant");
    let dump = metrics.to_openmetrics();
    assert_eq!(len_and_fnv1a(&dump), (985_495, 0xd41b_f68a_a495_4ed6));
}

/// `(length, FNV-1a 64)` of a report too large to commit as a golden.
fn len_and_fnv1a(text: &str) -> (usize, u64) {
    let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (text.len(), fnv)
}

#[test]
fn fig5_sweep_matches_the_pinned_digest() {
    // 12 fluid points with 1, 2 or 4 unthrottled competitors on one link:
    // the multi-flow equilibria the two-flow fig5 goldens never reach.
    // Pinned by length and FNV-1a 64 of `SweepRunner::run(..).to_json()`.
    let ScenarioKind::Sweep(sweep) = (paper_registry()
        .get("fig5_sweep")
        .expect("registered")
        .build)()
    else {
        panic!("fig5_sweep is a sweep");
    };
    let (outcome, _) = SweepRunner::with_jobs(2)
        .run(&sweep)
        .expect("fig5_sweep runs");
    assert_eq!(
        len_and_fnv1a(&outcome.to_json()),
        (603_377, 0x1ceb_183e_f3ff_5b49)
    );
}

#[test]
fn dse_smoke_matches_the_pinned_report() {
    // Pins every candidate hash and derived seed on the frontier plus the
    // escalated reports: a change that moved them all alike at every job
    // count would still pass a jobs-1-vs-jobs-N diff, but not this.
    for jobs in [1, 4] {
        let (outcome, _) = DseRunner::with_jobs(jobs)
            .run(&dse_smoke())
            .expect("dse_smoke runs");
        assert_eq!(
            format!("{}\n", outcome.to_json()),
            DSE_SMOKE_GOLDEN,
            "jobs {jobs}"
        );
    }
}

#[test]
fn dse_smoke_frontier_rebuilds_expand_points_by_index() {
    // The search keeps only hashes and scores per candidate and rebuilds the
    // frontier's labels and specs by index: each must be `expand()`'s
    // candidate with that hash, and rerunning those candidates must
    // reproduce the escalation.
    let search = dse_smoke();
    let (outcome, _) = DseRunner::with_jobs(2)
        .run(&search)
        .expect("dse_smoke runs");
    let points = search.expand().expect("dse_smoke expands");
    let frontier: Vec<SweepPoint> = outcome
        .frontier
        .iter()
        .map(|f| {
            let p = points
                .iter()
                .find(|p| p.hash == f.hash)
                .expect("a candidate");
            assert_eq!(p.label, f.label);
            p.clone()
        })
        .collect();
    let escalated = frontier.into_iter().take(outcome.escalation.points.len());
    let (rerun, _) = SweepRunner::default()
        .run_points(&outcome.escalation.sweep, escalated.collect())
        .expect("escalation reruns");
    assert_eq!(rerun, outcome.escalation);
}

#[test]
fn json_examples_run_on_both_backends_and_are_seed_stable() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory lists")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut backends = Vec::new();
    for path in &paths {
        let name = path.display();
        let text = std::fs::read_to_string(path).expect("example reads");
        let parse = || ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = parse();
        backends.push(spec.backend);
        let a = spec.run().expect("example runs");
        let b = parse().run().expect("example runs");
        assert_eq!(a, b, "{name}: same spec + seed ⇒ identical report");
        assert_eq!(a.to_json(), b.to_json(), "{name}: …and identical bytes");

        // A spec that still names the removed `engine.workers` knob parses
        // (unknown fields are ignored), hashes like one that never set it,
        // and yields the same report bytes.
        if spec.backend == BackendKind::Event {
            let mut plain = spec.clone();
            plain.engine.get_or_insert_with(Default::default);
            let legacy_json = plain
                .to_json()
                .replacen("\"workers\": null", "\"workers\": 4", 1);
            assert!(
                legacy_json.contains("\"workers\": 4"),
                "{name}: the legacy knob was written into the spec"
            );
            let legacy = ScenarioSpec::from_json(&legacy_json).expect("legacy spec parses");
            assert_eq!(spec_hash(&legacy), spec_hash(&plain), "{name}");
            assert_eq!(
                legacy.run().expect("legacy spec runs").to_json(),
                a.to_json(),
                "{name}"
            );
        }

        let outcome = a.outcome().expect("example completes");
        assert_eq!(outcome.flows.len(), spec.flows.len(), "{name}");
        assert!(
            outcome.flows.iter().all(|f| f.achieved_gb_s > 0.0),
            "{name}: every flow moves data: {:?}",
            outcome.flows
        );
    }
    for backend in [BackendKind::Event, BackendKind::Fluid] {
        assert!(
            backends.contains(&backend),
            "an example runs on {backend:?}"
        );
    }
}

#[test]
fn compete_example_is_the_generator_output_and_reproduces_its_split() {
    // `examples/scenarios/compete_gmi_7302.json` is the compete generator's
    // spec for two GMI flows asking 29 and 19.5 GB/s on the 7302 with
    // deterministic memory, written with `to_json`.
    let spec = compete(
        &chiplet_membench::base("epyc_7302", true),
        CompeteLink::Gmi,
        &[(Some(29.0), Some(19.5))],
        OpKind::Read,
    )
    .expect("the 7302 has a GMI")
    .remove(0);
    assert_eq!(format!("{}\n", spec.to_json()), COMPETE_EXAMPLE);
    let report = ScenarioSpec::from_json(COMPETE_EXAMPLE)
        .expect("example parses")
        .run()
        .expect("example runs");
    let flows = &report.outcome().expect("event runs complete").flows;
    let achieved: Vec<String> = flows.iter().map(|f| f1(f.achieved_gb_s)).collect();
    assert_eq!(achieved, ["17.6", "14.8"]);
}

#[test]
fn membench_study_specs_are_plain_scenario_data() {
    // Every point a registry study runs is an ordinary spec: its JSON reads
    // back to the same bytes, and its backend accepts it. (Byte equality
    // rather than `==`: non-finite floats write as `null`, so an uncapped
    // `f64::INFINITY` rate-limit entry reads back as NaN, which the policy
    // treats as uncapped too.)
    let mut points = 0;
    for entry in paper_registry().entries() {
        let ScenarioKind::Study { specs, .. } = (entry.build)() else {
            continue;
        };
        let study = entry.name;
        for spec in specs() {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json)
                .unwrap_or_else(|e| panic!("{study} / {}: {e}", spec.name));
            assert_eq!(back.to_json(), json, "{study} / {}", spec.name);
            assert_eq!(SweepPoint::as_is(back.clone()).hash, spec_hash(&spec));
            let accepted = match back.backend {
                BackendKind::Event => {
                    let topo = back.topology.resolve().expect("probe platforms build");
                    EventEngineBackend::instantiate(&back, &topo).map(drop)
                }
                BackendKind::Fluid => FluidBackend::links(&back).map(drop),
            };
            if let Err(e) = accepted {
                panic!("{study} / {}: {e}", spec.name);
            }
            points += 1;
        }
    }
    // table2 15, table3 24, fig3 120, fig4 20, fig5 3, fig6 144,
    // bdp_control 12, numa_study 12, ablation_traffic 8,
    // ablation_monolithic 7, flit_study 2, fused_stack 4.
    assert_eq!(points, 371);
}
