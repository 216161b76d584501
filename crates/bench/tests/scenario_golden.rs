//! Golden snapshots and end-to-end checks for the declarative scenario
//! layer.
//!
//! The `tests/golden/*.txt` files are the exact stdout of the pre-refactor
//! `fig3`/`fig5` binaries (default seed); the registry-driven renderers
//! must reproduce them byte for byte. `tests/golden/dse_smoke.json` is the
//! exact stdout of `chiplet-scenario dse dse_smoke --json --no-cache`.
//! `tests/golden/fig3_sweep.json` and `tests/golden/ccd_vs_cxl.json` pin
//! the event engine's bytes: the exact stdout of `chiplet-scenario sweep
//! fig3_sweep --json --no-cache` and of `chiplet-scenario run
//! examples/scenarios/ccd_vs_cxl.json --json`. `tests/golden/{table2,
//! table3,flit_study,fig4}.txt` are the exact stdout of `chiplet-scenario
//! run <name>` for the engine studies that sweep the most configurations
//! (pointer chases, every bandwidth scope, both CXL FLIT formats, the four
//! partitioning cases). `fig6`, the two ablations and `numa_study` are
//! pinned to their tracked `results/<name>.txt`, the same bytes CI's
//! every-entry diff checks. The `examples/scenarios/*.json` files are the
//! user-facing custom-scenario examples from the README and the span-trace
//! views — every one must parse, run on its backend, move data on every
//! flow, and be seed-stable.

use chiplet_bench::f1;
use chiplet_bench::scenarios::dse::dse_smoke;
use chiplet_bench::scenarios::{
    ablation_monolithic, ablation_traffic, fig3, fig4, fig6, numa_study, paper_registry,
    render_named, render_named_with_metrics, table2, table3,
};
use chiplet_mem::OpKind;
use chiplet_membench::compete::{compete, CompeteLink};
use chiplet_net::dse::DseRunner;
use chiplet_net::metrics::MetricsRegistry;
use chiplet_net::scenario::{
    spec_hash, BackendKind, EventEngineBackend, ScenarioKind, ScenarioSpec, SweepPoint, SweepRunner,
};

const FIG3_GOLDEN: &str = include_str!("../../../tests/golden/fig3.txt");
const FIG5_GOLDEN: &str = include_str!("../../../tests/golden/fig5.txt");
const FIG5_METRICS_GOLDEN: &str = include_str!("../../../tests/golden/fig5_metrics.txt");
const DSE_SMOKE_GOLDEN: &str = include_str!("../../../tests/golden/dse_smoke.json");
const FIG3_SWEEP_GOLDEN: &str = include_str!("../../../tests/golden/fig3_sweep.json");
const CCD_VS_CXL_GOLDEN: &str = include_str!("../../../tests/golden/ccd_vs_cxl.json");
const STUDY_GOLDENS: [(&str, &str); 8] = [
    ("table2", include_str!("../../../tests/golden/table2.txt")),
    ("table3", include_str!("../../../tests/golden/table3.txt")),
    (
        "flit_study",
        include_str!("../../../tests/golden/flit_study.txt"),
    ),
    ("fig4", include_str!("../../../tests/golden/fig4.txt")),
    // The slowest entry here (~2 s in release, ~30 s unoptimized): four
    // interference domains × four read/write combos × nine background loads.
    ("fig6", include_str!("../../../results/fig6.txt")),
    (
        "ablation_traffic",
        include_str!("../../../results/ablation_traffic.txt"),
    ),
    (
        "ablation_monolithic",
        include_str!("../../../results/ablation_monolithic.txt"),
    ),
    (
        "numa_study",
        include_str!("../../../results/numa_study.txt"),
    ),
];
const EVENT_EXAMPLE: &str = include_str!("../../../examples/scenarios/ccd_vs_cxl.json");
const COMPETE_EXAMPLE: &str = include_str!("../../../examples/scenarios/compete_gmi_7302.json");

#[test]
fn fig5_matches_the_pre_refactor_binary() {
    assert_eq!(render_named("fig5"), FIG5_GOLDEN);
}

#[test]
fn fig5_openmetrics_dump_is_pinned() {
    // The exact stdout of `chiplet-scenario run fig5 --metrics -`: label
    // sets are sorted before encoding and every value is sim-time-derived,
    // so the dump is byte-stable across runs, worker counts, and machines.
    let mut metrics = MetricsRegistry::new();
    let text = render_named_with_metrics("fig5", &mut metrics);
    assert_eq!(text, FIG5_GOLDEN, "report text is metrics-invariant");
    let dump = metrics.to_openmetrics();
    chiplet_net::lint_openmetrics(&dump).expect("dump passes the OpenMetrics lint");
    assert_eq!(dump, FIG5_METRICS_GOLDEN);
}

#[test]
fn fig3_matches_the_pre_refactor_binary() {
    // The slowest snapshot (~20 s unoptimized): the full loaded-latency
    // sweep of Figure 3 on both platforms.
    assert_eq!(render_named("fig3"), FIG3_GOLDEN);
}

#[test]
fn engine_studies_match_their_pinned_reports() {
    for (name, golden) in STUDY_GOLDENS {
        assert_eq!(render_named(name), golden, "{name}");
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
    // Every probe the membench-driven studies run is an ordinary spec: its
    // JSON reads back to the same bytes, and the event backend accepts it.
    // (Byte equality rather than `==`: non-finite floats write as `null`,
    // so ablation_traffic's uncapped `f64::INFINITY` rate-limit entry reads
    // back as NaN, which the policy treats as uncapped too.)
    let studies = [
        ("table2", table2::specs()),
        ("table3", table3::specs()),
        ("fig3", fig3::specs()),
        ("fig4", fig4::specs()),
        ("fig6", fig6::specs()),
        ("ablation_traffic", ablation_traffic::specs()),
        ("ablation_monolithic", ablation_monolithic::specs()),
        ("numa_study", numa_study::specs()),
    ];
    for (study, specs) in studies {
        assert!(!specs.is_empty(), "{study}");
        for spec in specs {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json)
                .unwrap_or_else(|e| panic!("{study} / {}: {e}", spec.name));
            assert_eq!(back.to_json(), json, "{study} / {}", spec.name);
            let topo = back.topology.resolve().expect("probe platforms build");
            if let Err(e) = EventEngineBackend::instantiate(&back, &topo) {
                panic!("{study} / {}: {e}", spec.name);
            }
        }
    }
}
