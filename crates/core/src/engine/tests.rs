//! Engine calibration and behavior tests.
//!
//! These assert the paper's *shapes* (who binds where, what rises when)
//! with tolerances; exact paper-vs-measured numbers live in EXPERIMENTS.md.

use super::*;
use chiplet_mem::OpKind;
use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimTime};
use chiplet_topology::{CoreId, DimmId, DimmPosition, PlatformSpec};

fn topo_7302() -> Topology {
    Topology::build(&PlatformSpec::epyc_7302())
}

fn topo_9634() -> Topology {
    Topology::build(&PlatformSpec::epyc_9634())
}

/// `flow` built on `topo` with `schedule` as its demand.
fn scheduled(
    flow: crate::flow::FlowBuilder,
    topo: &Topology,
    schedule: chiplet_sim::DemandSchedule,
) -> FlowSpec {
    let mut spec = flow.build(topo);
    spec.demand = schedule;
    spec
}

/// Mean latency of a 30 µs pointer chase from core 0 to `dimm` on a named
/// preset with deterministic memory (the Table 2 methodology), built
/// through the scenario layer like every other engine run.
fn chase_latency_ns(preset: &str, dimm: DimmId, working_set: ByteSize) -> f64 {
    use crate::scenario::{
        BackendKind, CoreSelect, EngineFlow, EngineOptions, EventEngineBackend, ScenarioFlow,
        ScenarioSpec, TargetSpec, TopologyChoice,
    };
    let spec = ScenarioSpec {
        name: "chase".into(),
        description: String::new(),
        topology: TopologyChoice::Named(preset.into()),
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
                target: TargetSpec::Dimms(vec![dimm.0]),
                op: None,
                pattern: Some(Pattern::PointerChase),
                working_set: Some(working_set),
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

fn within(value: f64, expected: f64, tol_frac: f64) -> bool {
    (value - expected).abs() <= expected * tol_frac
}

/// All cores of CCD 0 / CCX 0 / the whole socket.
fn cores_of(topo: &Topology, scope: &str) -> Vec<CoreId> {
    match scope {
        "core" => vec![CoreId(0)],
        "ccx" => topo.cores_of_ccx(0).collect(),
        "ccd" => topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
        "cpu" => topo.core_ids().collect(),
        _ => unreachable!(),
    }
}

fn max_bandwidth(topo: &Topology, scope: &str, op: OpKind) -> f64 {
    let mut engine = Engine::new(topo, EngineConfig::deterministic());
    let cores = cores_of(topo, scope);
    let b = FlowSpec::reads("bw", cores, Target::all_dimms(topo))
        .op(op)
        .working_set(ByteSize::from_gib(1));
    engine.add_flow(b.build(topo));
    let result = engine.run(SimTime::from_micros(40));
    result.flows[0].achieved.as_gb_per_s()
}

#[test]
fn table2_pointer_chase_near_dimm() {
    for (preset, topo, expected) in [
        ("epyc_7302", topo_7302(), 124.0),
        ("epyc_9634", topo_9634(), 141.0),
    ] {
        let dimm = topo
            .dimm_at_position(CoreId(0), DimmPosition::Near)
            .unwrap();
        let lat = chase_latency_ns(preset, dimm, ByteSize::from_gib(1));
        assert!(
            within(lat, expected, 0.05),
            "{preset}: chase latency {lat} vs {expected}"
        );
    }
}

#[test]
fn table2_position_ordering_holds_under_chase() {
    let topo = topo_7302();
    let mut last = 0.0;
    for pos in [
        DimmPosition::Near,
        DimmPosition::Vertical,
        DimmPosition::Horizontal,
        DimmPosition::Diagonal,
    ] {
        let dimm = topo.dimm_at_position(CoreId(0), pos).unwrap();
        let lat = chase_latency_ns("epyc_7302", dimm, ByteSize::from_gib(1));
        assert!(lat > last, "{pos}: {lat} not above {last}");
        last = lat;
    }
}

#[test]
fn table2_cache_levels_resolve_analytically() {
    let lat = chase_latency_ns("epyc_7302", DimmId(0), ByteSize::from_kib(16));
    assert!((lat - 1.24).abs() < 1e-6, "L1 chase {lat}");
    let lat = chase_latency_ns("epyc_7302", DimmId(0), ByteSize::from_mib(8));
    assert!((lat - 34.3).abs() < 1e-6, "L3 chase {lat}");
}

#[test]
fn table3_read_bandwidth_7302() {
    let topo = topo_7302();
    // Paper: core 14.9, CCX 25.1, CCD 32.5, CPU 106.7 GB/s.
    let core = max_bandwidth(&topo, "core", OpKind::Read);
    assert!(within(core, 14.9, 0.10), "core read {core}");
    let ccx = max_bandwidth(&topo, "ccx", OpKind::Read);
    assert!(within(ccx, 25.1, 0.10), "ccx read {ccx}");
    let ccd = max_bandwidth(&topo, "ccd", OpKind::Read);
    assert!(within(ccd, 32.5, 0.10), "ccd read {ccd}");
    let cpu = max_bandwidth(&topo, "cpu", OpKind::Read);
    assert!(within(cpu, 106.7, 0.10), "cpu read {cpu}");
}

#[test]
fn table3_write_bandwidth_7302() {
    let topo = topo_7302();
    // Paper: core 3.6, CCX 7.1, CCD 14.3, CPU 55.1 GB/s.
    let core = max_bandwidth(&topo, "core", OpKind::WriteNonTemporal);
    assert!(within(core, 3.6, 0.12), "core write {core}");
    let ccx = max_bandwidth(&topo, "ccx", OpKind::WriteNonTemporal);
    assert!(within(ccx, 7.1, 0.12), "ccx write {ccx}");
    let cpu = max_bandwidth(&topo, "cpu", OpKind::WriteNonTemporal);
    assert!(within(cpu, 55.1, 0.12), "cpu write {cpu}");
}

#[test]
fn table3_read_bandwidth_9634() {
    let topo = topo_9634();
    let core = max_bandwidth(&topo, "core", OpKind::Read);
    assert!(within(core, 14.6, 0.10), "core read {core}");
    let ccd = max_bandwidth(&topo, "ccd", OpKind::Read);
    assert!(within(ccd, 33.2, 0.10), "ccd read {ccd}");
    let cpu = max_bandwidth(&topo, "cpu", OpKind::Read);
    assert!(within(cpu, 366.2, 0.10), "cpu read {cpu}");
}

#[test]
fn table3_cxl_bandwidth_9634() {
    let topo = topo_9634();
    let run = |cores: Vec<CoreId>, op: OpKind| {
        let mut engine = Engine::new(&topo, EngineConfig::deterministic());
        engine.add_flow(
            FlowSpec::reads("cxl", cores, Target::Cxl(0))
                .op(op)
                .working_set(ByteSize::from_gib(1))
                .build(&topo),
        );
        engine.run(SimTime::from_micros(40)).flows[0]
            .achieved
            .as_gb_per_s()
    };
    // Paper: core 5.4/2.8; CCD ~24-25/15-16; CPU 88.1/87.7.
    let core_r = run(vec![CoreId(0)], OpKind::Read);
    assert!(within(core_r, 5.4, 0.12), "cxl core read {core_r}");
    let core_w = run(vec![CoreId(0)], OpKind::WriteNonTemporal);
    assert!(within(core_w, 2.8, 0.15), "cxl core write {core_w}");
    let ccd_r = run(
        topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
        OpKind::Read,
    );
    assert!(within(ccd_r, 24.3, 0.12), "cxl ccd read {ccd_r}");
}

#[test]
fn cxl_chase_latency_matches_table2() {
    let topo = topo_9634();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::pointer_chase("chase", CoreId(0), Target::Cxl(0))
            .working_set(ByteSize::from_gib(1))
            .build(&topo),
    );
    let result = engine.run(SimTime::from_micros(30));
    let lat = result.flows[0].mean_latency_ns();
    assert!(within(lat, 243.0, 0.05), "cxl chase {lat}");
}

#[test]
fn single_umc_binds_a_one_dimm_flow() {
    // §3.3: "a compute chiplet must access multiple memory controllers to
    // attain higher aggregated bandwidth" — one DIMM caps at the UMC rate.
    let topo = topo_7302();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads(
            "one-dimm",
            topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
            Target::dimm(DimmId(0)),
        )
        .working_set(ByteSize::from_gib(1))
        .build(&topo),
    );
    let bw = engine.run(SimTime::from_micros(40)).flows[0]
        .achieved
        .as_gb_per_s();
    assert!(within(bw, 21.1, 0.10), "one-DIMM bw {bw} vs UMC cap 21.1");
}

#[test]
fn latency_rises_with_offered_load() {
    // Figure 3's shape: mean latency grows toward saturation.
    let topo = topo_7302();
    let run_at = |gb: f64| {
        let mut engine = Engine::new(&topo, EngineConfig::deterministic());
        engine.add_flow(
            FlowSpec::reads(
                "load",
                topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .offered(Bandwidth::from_gb_per_s(gb))
            .working_set(ByteSize::from_gib(1))
            .build(&topo),
        );
        let r = engine.run(SimTime::from_micros(60));
        (
            r.flows[0].achieved.as_gb_per_s(),
            r.flows[0].mean_latency_ns(),
        )
    };
    let (bw_lo, lat_lo) = run_at(5.0);
    let (bw_hi, lat_hi) = run_at(31.0);
    assert!(within(bw_lo, 5.0, 0.10), "low load achieved {bw_lo}");
    assert!(bw_hi > 28.0, "high load achieved {bw_hi}");
    assert!(
        lat_hi > lat_lo + 5.0,
        "latency should rise: {lat_lo} -> {lat_hi}"
    );
    assert!(lat_lo < 142.0, "unloaded latency {lat_lo}");
}

#[test]
fn competing_flows_share_proportionally() {
    // Figure 4 case 4: both demands above the equal share of the shared
    // GMI link; shares settle ∝ demand (sender-driven aggressive).
    let topo = topo_7302();
    let ccd0: Vec<CoreId> = topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect();
    let (f0_cores, f1_cores) = ccd0.split_at(2);
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads("aggressive", f0_cores.to_vec(), Target::all_dimms(&topo))
            .offered(Bandwidth::from_gb_per_s(24.0))
            .build(&topo),
    );
    engine.add_flow(
        FlowSpec::reads("modest", f1_cores.to_vec(), Target::all_dimms(&topo))
            .offered(Bandwidth::from_gb_per_s(12.0))
            .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(60));
    let a = r.flow("aggressive").unwrap().achieved.as_gb_per_s();
    let m = r.flow("modest").unwrap().achieved.as_gb_per_s();
    // GMI cap 32.5 shared 2:1 → ~21.7 / ~10.8.
    assert!(a + m > 29.0, "link underused: {a} + {m}");
    let ratio = a / m;
    assert!(
        (1.6..=2.4).contains(&ratio),
        "share ratio {ratio} (a={a}, m={m})"
    );
}

#[test]
fn equal_demands_split_evenly() {
    // Figure 4 case 3.
    let topo = topo_7302();
    let ccd0: Vec<CoreId> = topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect();
    let (f0_cores, f1_cores) = ccd0.split_at(2);
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    for (name, cores) in [("a", f0_cores), ("b", f1_cores)] {
        engine.add_flow(
            FlowSpec::reads(name, cores.to_vec(), Target::all_dimms(&topo))
                .offered(Bandwidth::from_gb_per_s(24.0))
                .build(&topo),
        );
    }
    let r = engine.run(SimTime::from_micros(60));
    let a = r.flow("a").unwrap().achieved.as_gb_per_s();
    let b = r.flow("b").unwrap().achieved.as_gb_per_s();
    assert!((a / b - 1.0).abs() < 0.15, "unequal split {a} vs {b}");
}

#[test]
fn under_subscription_gives_everyone_their_demand() {
    // Figure 4 case 1.
    let topo = topo_7302();
    let ccd0: Vec<CoreId> = topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect();
    let (f0_cores, f1_cores) = ccd0.split_at(2);
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads("a", f0_cores.to_vec(), Target::all_dimms(&topo))
            .offered(Bandwidth::from_gb_per_s(10.0))
            .build(&topo),
    );
    engine.add_flow(
        FlowSpec::reads("b", f1_cores.to_vec(), Target::all_dimms(&topo))
            .offered(Bandwidth::from_gb_per_s(14.0))
            .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(60));
    assert!(within(
        r.flow("a").unwrap().achieved.as_gb_per_s(),
        10.0,
        0.08
    ));
    assert!(within(
        r.flow("b").unwrap().achieved.as_gb_per_s(),
        14.0,
        0.08
    ));
}

#[test]
fn max_min_policy_protects_the_small_flow() {
    // Implication #4's fix: under MaxMinFair the small flow gets its full
    // demand instead of a proportional share.
    let topo = topo_7302();
    let ccd0: Vec<CoreId> = topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect();
    let (f0_cores, f1_cores) = ccd0.split_at(2);
    let mut cfg = EngineConfig::deterministic();
    cfg.policy = TrafficPolicy::MaxMinFair;
    let mut engine = Engine::new(&topo, cfg);
    engine.add_flow(
        FlowSpec::reads("big", f0_cores.to_vec(), Target::all_dimms(&topo))
            .offered(Bandwidth::from_gb_per_s(30.0))
            .build(&topo),
    );
    engine.add_flow(
        FlowSpec::reads("small", f1_cores.to_vec(), Target::all_dimms(&topo))
            .offered(Bandwidth::from_gb_per_s(8.0))
            .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(60));
    let small = r.flow("small").unwrap().achieved.as_gb_per_s();
    assert!(
        within(small, 8.0, 0.10),
        "max-min should satisfy the small flow, got {small}"
    );
}

#[test]
fn determinism_same_seed_same_result() {
    let topo = topo_9634();
    let run = |seed| {
        let cfg = EngineConfig::default().with_seed(seed);
        let mut engine = Engine::new(&topo, cfg);
        engine.add_flow(
            FlowSpec::reads(
                "r",
                topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        let r = engine.run(SimTime::from_micros(20));
        (
            r.flows[0].bytes,
            r.flows[0].latency.quantile(0.999),
            r.flows.iter().map(|f| f.bytes).sum::<u64>(),
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7).0, 0);
}

#[test]
fn telemetry_identifies_gmi_bottleneck() {
    let topo = topo_7302();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads(
            "r",
            topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
            Target::all_dimms(&topo),
        )
        .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(40));
    let b = r.telemetry.bottleneck().unwrap();
    assert!(
        matches!(
            b.point,
            CapacityPoint::Link {
                kind: chiplet_topology::LinkKind::Gmi,
                ..
            }
        ),
        "bottleneck was {:?}",
        b.point
    );
    assert!(b.read.utilization > 0.9);
}

#[test]
fn traffic_matrix_recorded() {
    let topo = topo_7302();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(FlowSpec::reads("r", vec![CoreId(0)], Target::all_dimms(&topo)).build(&topo));
    let r = engine.run(SimTime::from_micros(20));
    // Core 0 is on CCD 0; traffic spreads across all 8 UMCs.
    assert_eq!(r.telemetry.matrix.len(), 8);
    for cell in &r.telemetry.matrix {
        assert_eq!(cell.ccd, 0);
        assert!(cell.bytes > 0);
    }
}

#[test]
fn random_pattern_loses_prefetch_bandwidth() {
    let topo = topo_7302();
    let run = |pattern: Pattern| {
        let mut engine = Engine::new(&topo, EngineConfig::deterministic());
        let mut flow = FlowSpec::reads("r", vec![CoreId(0)], Target::all_dimms(&topo))
            .working_set(ByteSize::from_gib(1))
            .build(&topo);
        flow.pattern = pattern;
        engine.add_flow(flow);
        engine.run(SimTime::from_micros(30)).flows[0]
            .achieved
            .as_gb_per_s()
    };
    let seq = run(Pattern::Sequential);
    let rnd = run(Pattern::Random);
    assert!(
        rnd < seq * 0.65 && rnd > seq * 0.35,
        "random {rnd} vs sequential {seq}"
    );
}

#[test]
fn cache_resident_flow_is_analytic() {
    let topo = topo_7302();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads("l1", vec![CoreId(0)], Target::all_dimms(&topo))
            .working_set(ByteSize::from_kib(16))
            .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(10));
    assert!(r.flows[0].analytic);
    assert_eq!(r.flows[0].issued, 0);
    // No fabric traffic at all.
    assert_eq!(
        r.telemetry.links.iter().map(|l| l.read.bytes).sum::<u64>(),
        0
    );
}

#[test]
fn tail_latency_reflects_dram_variability() {
    // With the stochastic DDR4 model, low-load P999 sits hundreds of ns
    // above the mean (Figure 3's low-load tails).
    let topo = topo_7302();
    let mut engine = Engine::new(&topo, EngineConfig::default());
    engine.add_flow(
        FlowSpec::reads("r", vec![CoreId(0)], Target::all_dimms(&topo))
            .offered(Bandwidth::from_gb_per_s(5.0))
            .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(200));
    let mean = r.flows[0].mean_latency_ns();
    let p999 = r.flows[0].p999_latency_ns();
    assert!(mean < 160.0, "mean {mean}");
    assert!(p999 > 350.0 && p999 < 700.0, "p999 {p999}");
}

#[test]
#[should_panic(expected = "already belongs to another flow")]
fn double_core_claim_rejected() {
    let topo = topo_7302();
    let mut engine = Engine::new(&topo, EngineConfig::default());
    engine.add_flow(FlowSpec::reads("a", vec![CoreId(0)], Target::all_dimms(&topo)).build(&topo));
    engine.add_flow(FlowSpec::reads("b", vec![CoreId(0)], Target::all_dimms(&topo)).build(&topo));
}

#[test]
fn traces_capture_flow_lifecycle() {
    // A flow that stops mid-run leaves a trace that is busy, then zero.
    let topo = topo_7302();
    let mut cfg = EngineConfig::deterministic();
    cfg.trace_window = Some(SimDuration::from_micros(2));
    let mut engine = Engine::new(&topo, cfg);
    let mut traced =
        FlowSpec::reads("traced", vec![CoreId(0)], Target::all_dimms(&topo)).build(&topo);
    traced.stop = Some(SimTime::from_micros(20));
    engine.add_flow(traced);
    let r = engine.run(SimTime::from_micros(40));
    let trace = &r.flows[0].trace;
    assert!(trace.len() >= 15, "trace has {} points", trace.len());
    // Busy early...
    assert!(trace[2].bandwidth.as_gb_per_s() > 5.0, "{:?}", trace[2]);
    // ...silent after the stop.
    let late = trace.iter().rev().take(5).collect::<Vec<_>>();
    for p in late {
        assert_eq!(p.bandwidth.as_gb_per_s(), 0.0, "{p:?}");
    }
    // No trace requested => empty.
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    engine.add_flow(
        FlowSpec::reads("untraced", vec![CoreId(0)], Target::all_dimms(&topo)).build(&topo),
    );
    let r = engine.run(SimTime::from_micros(10));
    assert!(r.flows[0].trace.is_empty());
}

#[test]
fn flow_stops_at_its_stop_time() {
    let topo = topo_7302();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    let mut short =
        FlowSpec::reads("short", vec![CoreId(0)], Target::all_dimms(&topo)).build(&topo);
    short.stop = Some(SimTime::from_micros(10));
    engine.add_flow(short);
    engine
        .add_flow(FlowSpec::reads("long", vec![CoreId(4)], Target::all_dimms(&topo)).build(&topo));
    let r = engine.run(SimTime::from_micros(40));
    let short = r.flow("short").unwrap();
    let long = r.flow("long").unwrap();
    // The short flow only issued for ~8 µs of the 38 µs window.
    assert!(short.bytes < long.bytes / 2);
    assert!(short.bytes > 0);
}

#[test]
fn spans_tile_end_to_end_latency() {
    // Acceptance: per-transaction hop spans tile the charged end-to-end
    // latency within 1 ns, even under load (queueing + device variability).
    let topo = topo_9634();
    let cfg = EngineConfig {
        trace_sampling: Some(1),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(&topo, cfg);
    engine.add_flow(
        FlowSpec::reads(
            "r",
            topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
            Target::all_dimms(&topo),
        )
        .build(&topo),
    );
    let r = engine.run(SimTime::from_micros(20));
    let trace = r.trace.expect("sampling was on");
    assert!(trace.spans.len() > 100, "only {} spans", trace.spans.len());
    for span in &trace.spans {
        assert!(
            (span.hop_sum_ns() - span.e2e_ns).abs() < 1.0,
            "span {} hops sum {} vs e2e {}",
            span.seq,
            span.hop_sum_ns(),
            span.e2e_ns
        );
        // Limiter queueing first, propagation last.
        assert_eq!(
            span.hops.first().unwrap().label,
            HopClass::TrafficCtrl.code()
        );
        assert_eq!(
            span.hops.last().unwrap().label,
            HopClass::Propagation.code()
        );
    }
}

#[test]
fn unloaded_hop_means_match_table2_on_light_load() {
    // Acceptance: under a single unloaded pointer chase, the observed mean
    // end-to-end span — and its propagation hop — match the configured
    // Table 2 latency within 5%.
    for (spec, _expected) in [
        (PlatformSpec::epyc_7302(), 124.0),
        (PlatformSpec::epyc_9634(), 141.0),
    ] {
        let topo = Topology::build(&spec);
        let dimm = topo
            .dimm_at_position(CoreId(0), DimmPosition::Near)
            .unwrap();
        let table2 = spec.dram_latency_ns(DimmPosition::Near);
        let cfg = EngineConfig {
            trace_sampling: Some(1),
            ..EngineConfig::deterministic()
        };
        let mut engine = Engine::new(&topo, cfg);
        engine.add_flow(
            FlowSpec::pointer_chase("chase", CoreId(0), Target::dimm(dimm))
                .working_set(ByteSize::from_gib(1))
                .build(&topo),
        );
        let r = engine.run(SimTime::from_micros(30));
        let trace = r.trace.expect("sampling was on");
        assert!(!trace.spans.is_empty());
        assert!(
            within(trace.mean_e2e_ns(), table2, 0.05),
            "{}: span mean {} vs Table 2 {}",
            spec.name,
            trace.mean_e2e_ns(),
            table2
        );
        let breakdown = trace.breakdown();
        let prop = breakdown
            .iter()
            .find(|b| b.class == HopClass::Propagation)
            .expect("propagation hop present");
        assert!(
            within(prop.mean_total_ns, table2, 0.05),
            "{}: propagation mean {} vs Table 2 {}",
            spec.name,
            prop.mean_total_ns,
            table2
        );
        // Unloaded: queueing waits are negligible at every hop.
        for b in &breakdown {
            assert!(
                b.mean_wait_ns < 0.05 * table2,
                "{}: {} mean wait {}",
                spec.name,
                b.class.name(),
                b.mean_wait_ns
            );
        }
    }
}

#[test]
fn trace_sampling_never_perturbs_results() {
    // Acceptance: trace_sampling: None leaves results identical to any
    // sampled run with the same seed — the sampler draws from a derived
    // RNG stream, never the simulation's.
    let topo = topo_9634();
    let run = |sampling: Option<u32>| {
        let mut cfg = EngineConfig::default().with_seed(11);
        cfg.trace_sampling = sampling;
        let mut engine = Engine::new(&topo, cfg);
        engine.add_flow(
            FlowSpec::reads(
                "r",
                topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        let r = engine.run(SimTime::from_micros(20));
        (
            r.flows[0].bytes,
            r.flows[0].completed,
            r.flows[0].latency.quantile(0.999),
        )
    };
    let baseline = run(None);
    assert_eq!(baseline, run(Some(1)));
    assert_eq!(baseline, run(Some(64)));
    assert_ne!(baseline.0, 0);
}

#[test]
fn phase_profiling_reports_without_perturbing_results() {
    // Acceptance: profile_phases only reads the wall clock — simulation
    // results are identical with it on or off, the RunResult carries a
    // phase report covering the run, and the profiling families stay out
    // of the deterministic default metrics dump.
    let topo = topo_7302();
    let run = |profile: bool| {
        let mut cfg = EngineConfig::default().with_seed(7);
        cfg.profile_phases = profile;
        cfg.metrics_window = Some(SimDuration::from_micros(5));
        let mut engine = Engine::new(&topo, cfg);
        engine.add_flow(
            FlowSpec::reads(
                "r",
                topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        engine.run(SimTime::from_micros(20))
    };

    let plain = run(false);
    assert!(plain.phases.is_none());

    let profiled = run(true);
    assert_eq!(plain.flows[0].bytes, profiled.flows[0].bytes);
    assert_eq!(plain.flows[0].completed, profiled.flows[0].completed);
    let phases = profiled.phases.as_ref().expect("phase report present");
    assert!(phases.accounted_seconds() > 0.0);
    assert!(
        phases
            .phases
            .iter()
            .any(|p| p.name == "engine/stage" && p.calls > 0),
        "stage handler was timed"
    );

    // Volatile-only emission: the default dump is byte-identical to the
    // unprofiled run's; the profiling families need --metrics-all.
    let plain_m = plain.metrics.as_ref().expect("metrics on");
    let prof_m = profiled.metrics.as_ref().expect("metrics on");
    assert_eq!(plain_m.to_openmetrics(), prof_m.to_openmetrics());
    let all = prof_m.to_openmetrics_with_volatile();
    for family in [
        "sim_phase_seconds",
        "sim_phase_calls",
        "chiplet_engine_queue_depth_bucket",
        "chiplet_engine_epoch_events_max",
    ] {
        assert!(!prof_m.to_openmetrics().contains(family), "{family} leaked");
        assert!(all.contains(family), "{family} missing from volatile dump");
    }
}

#[test]
fn trace_json_is_bit_reproducible() {
    // Acceptance: same seed + same trace_sampling ⇒ byte-identical
    // Chrome trace JSON.
    let topo = topo_7302();
    let run = || {
        let cfg = EngineConfig {
            trace_sampling: Some(8),
            ..EngineConfig::default().with_seed(3)
        };
        let mut engine = Engine::new(&topo, cfg);
        engine.add_flow(
            FlowSpec::reads(
                "a",
                topo.cores_of_ccx(0).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        engine.add_flow(
            FlowSpec::reads(
                "b",
                topo.cores_of_ccx(1).collect(),
                Target::all_dimms(&topo),
            )
            .op(OpKind::WriteNonTemporal)
            .build(&topo),
        );
        let r = engine.run(SimTime::from_micros(20));
        let names: Vec<String> = r.flows.iter().map(|f| f.name.clone()).collect();
        let trace = r.trace.expect("sampling was on");
        (trace.spans.len(), trace.to_chrome_trace(&names))
    };
    let (n1, json1) = run();
    let (n2, json2) = run();
    assert!(n1 > 0);
    assert_eq!(n1, n2);
    assert_eq!(json1, json2);
    // And the export is valid JSON with the trace-event envelope.
    let doc: serde_json::Value = serde_json::from_str(&json1).unwrap();
    assert!(doc.get("traceEvents").is_some());
}

#[test]
fn sampling_rate_thins_the_span_set() {
    let topo = topo_9634();
    let run = |n: u32| {
        let cfg = EngineConfig {
            trace_sampling: Some(n),
            ..EngineConfig::default().with_seed(5)
        };
        let mut engine = Engine::new(&topo, cfg);
        engine.add_flow(
            FlowSpec::reads(
                "r",
                topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        let r = engine.run(SimTime::from_micros(20));
        (r.flows[0].issued, r.trace.unwrap().spans.len() as f64)
    };
    let (issued, full) = run(1);
    let (_, sampled) = run(64);
    assert!(full > 0.0 && sampled > 0.0);
    // Full sampling spans every completed transaction (issued bounds it).
    assert!(full <= issued as f64);
    // 1-in-64: between 1/3 and 3x the expected thinning.
    let ratio = sampled / full;
    assert!(
        ratio > 1.0 / (64.0 * 3.0) && ratio < 3.0 / 64.0,
        "thinning ratio {ratio}"
    );
}

#[test]
fn link_time_series_cover_the_run() {
    let topo = topo_7302();
    let window = SimDuration::from_micros(2);
    let cfg = EngineConfig {
        trace_window: Some(window),
        ..EngineConfig::deterministic()
    };
    let mut engine = Engine::new(&topo, cfg);
    engine.add_flow(
        FlowSpec::reads(
            "r",
            topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
            Target::all_dimms(&topo),
        )
        .build(&topo),
    );
    let horizon = SimTime::from_micros(20);
    let r = engine.run(horizon);
    // The GMI link that carried the flow has a full series: windows are
    // half-open [start, start+window), stamped at the window start,
    // beginning at t = 0.
    let gmi = r
        .telemetry
        .links
        .iter()
        .find(|l| {
            matches!(
                l.point,
                CapacityPoint::Link {
                    kind: chiplet_topology::LinkKind::Gmi,
                    ..
                }
            ) && !l.read_trace.is_empty()
        })
        .expect("a GMI link carries the flow");
    let n_windows = (horizon.as_nanos() / window.as_nanos()) as usize;
    assert_eq!(gmi.read_trace.len(), n_windows);
    assert_eq!(gmi.read_trace[0].at, SimTime::ZERO);
    assert_eq!(gmi.read_trace[1].at, SimTime::from_nanos(window.as_nanos()));
    assert!(gmi.read_trace[5].bandwidth.as_gb_per_s() > 1.0);
    // Queue-backlog gauge rides along and sees contention.
    assert_eq!(gmi.depth_trace.len(), n_windows);
    assert!(gmi.depth_trace[5].max > 0.0);
    // An idle link's series exists but stays flat at zero.
    let idle = r
        .telemetry
        .links
        .iter()
        .find(|l| l.read.bytes == 0 && !l.read_trace.is_empty());
    if let Some(idle) = idle {
        assert!(idle
            .read_trace
            .iter()
            .all(|p| p.bandwidth == Bandwidth::ZERO));
    }
}

#[test]
fn cache_resident_flow_charges_its_demand_schedule() {
    // Cores 0–1 of the 7302 reading an L1-resident 16 KiB working set:
    // 2 × 64 B / 1.24 ns = 103.2 GB/s of hardware rate, charged as the
    // window's time-average of min(demand, hardware rate).
    let topo = topo_7302();
    let achieved = |schedule| {
        let mut engine = Engine::new(&topo, EngineConfig::deterministic());
        let flow = FlowSpec::reads("l1", vec![CoreId(0), CoreId(1)], Target::all_dimms(&topo))
            .working_set(ByteSize::from_kib(16));
        engine.add_flow(scheduled(flow, &topo, schedule));
        let r = engine.run(SimTime::from_micros(40));
        assert!(r.flows[0].analytic);
        r.flows[0].achieved.as_gb_per_s()
    };
    let gb = |x| Some(Bandwidth::from_gb_per_s(x));
    let hw = 2.0 * 64.0 / 1.24;
    let unthrottled = achieved(DemandSchedule::constant(None));
    assert!((unthrottled - hw).abs() < 1e-9, "unthrottled {unthrottled}");
    assert_eq!(achieved(DemandSchedule::constant(gb(5.0))), 5.0);
    assert_eq!(achieved(DemandSchedule::constant(gb(0.0))), 0.0);
    // 5 GB/s until 20 µs, then nothing: 18 of the 38 µs after the 2 µs
    // warmup at 5 GB/s.
    let drop = DemandSchedule::piecewise(vec![
        (SimTime::ZERO, gb(5.0)),
        (SimTime::from_micros(20), gb(0.0)),
    ]);
    let varying = achieved(drop);
    assert!(
        (varying - 5.0 * 18.0 / 38.0).abs() < 1e-9,
        "varying {varying}"
    );
    // Nothing is charged outside the flow's [start, stop): started at
    // 20 µs, it runs 20 of the 38 measured µs; stopped there, 18.
    let spanned = |start: u64, stop: Option<u64>| {
        let mut engine = Engine::new(&topo, EngineConfig::deterministic());
        let mut flow = FlowSpec::reads("l1", vec![CoreId(0), CoreId(1)], Target::all_dimms(&topo))
            .working_set(ByteSize::from_kib(16))
            .build(&topo);
        flow.start = SimTime::from_micros(start);
        flow.stop = stop.map(SimTime::from_micros);
        engine.add_flow(flow);
        engine.run(SimTime::from_micros(40)).flows[0]
            .achieved
            .as_gb_per_s()
    };
    assert!((spanned(20, None) - hw * 20.0 / 38.0).abs() < 1e-9);
    assert!((spanned(0, Some(20)) - hw * 18.0 / 38.0).abs() < 1e-9);
    assert_eq!(spanned(0, Some(1)), 0.0, "stopped before the window");
}

#[test]
fn piecewise_demand_throttles_and_recovers() {
    // Demand drops mid-run and comes back: the trace must show all three
    // phases at the scheduled rates.
    let topo = topo_7302();
    let mut cfg = EngineConfig::deterministic();
    cfg.trace_window = Some(SimDuration::from_micros(2));
    let mut engine = Engine::new(&topo, cfg);
    engine.add_flow(scheduled(
        FlowSpec::reads(
            "varying",
            topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
            Target::all_dimms(&topo),
        ),
        &topo,
        chiplet_sim::DemandSchedule::piecewise(vec![
            (SimTime::ZERO, None),
            (
                SimTime::from_micros(20),
                Some(Bandwidth::from_gb_per_s(4.0)),
            ),
            (SimTime::from_micros(40), None),
        ]),
    ));
    let r = engine.run(SimTime::from_micros(60));
    let at = |us: u64| {
        r.flows[0]
            .trace
            .iter()
            .rev()
            .find(|p| p.at <= SimTime::from_micros(us))
            .map(|p| p.bandwidth.as_gb_per_s())
            .unwrap()
    };
    let unthrottled = at(16);
    let throttled = at(34);
    let recovered = at(56);
    assert!(unthrottled > 20.0, "phase 1 unthrottled: {unthrottled}");
    assert!(
        within(throttled, 4.0, 0.25),
        "phase 2 follows the schedule: {throttled}"
    );
    assert!(recovered > 20.0, "phase 3 recovers: {recovered}");
}

#[test]
fn zero_demand_piece_pauses_the_flow() {
    let topo = topo_7302();
    let mut cfg = EngineConfig::deterministic();
    cfg.trace_window = Some(SimDuration::from_micros(2));
    let mut engine = Engine::new(&topo, cfg);
    engine.add_flow(scheduled(
        FlowSpec::reads("gated", vec![CoreId(0)], Target::all_dimms(&topo)),
        &topo,
        chiplet_sim::DemandSchedule::piecewise(vec![
            (SimTime::ZERO, Some(Bandwidth::from_gb_per_s(6.0))),
            (SimTime::from_micros(20), Some(Bandwidth::ZERO)),
            (
                SimTime::from_micros(40),
                Some(Bandwidth::from_gb_per_s(6.0)),
            ),
        ]),
    ));
    let r = engine.run(SimTime::from_micros(60));
    let window_bytes = |lo: u64, hi: u64| {
        r.flows[0]
            .trace
            .iter()
            .filter(|p| p.at >= SimTime::from_micros(lo) && p.at < SimTime::from_micros(hi))
            .map(|p| p.bandwidth.as_gb_per_s())
            .sum::<f64>()
    };
    assert!(window_bytes(4, 18) > 0.0, "active before the pause");
    assert_eq!(window_bytes(24, 38), 0.0, "paused window is silent");
    assert!(window_bytes(44, 58) > 0.0, "resumes after the pause");
}

#[test]
fn demand_schedule_is_deterministic_per_seed() {
    let topo = topo_9634();
    let run = |seed: u64| {
        let mut engine = Engine::new(&topo, EngineConfig::default().with_seed(seed));
        engine.add_flow(scheduled(
            FlowSpec::reads(
                "a",
                topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
                Target::all_dimms(&topo),
            ),
            &topo,
            chiplet_sim::DemandSchedule::piecewise(vec![
                (SimTime::ZERO, None),
                (
                    SimTime::from_micros(10),
                    Some(Bandwidth::from_gb_per_s(5.0)),
                ),
                (SimTime::from_micros(25), None),
            ]),
        ));
        engine.add_flow(
            FlowSpec::reads("b", vec![CoreId(30)], Target::all_dimms(&topo)).build(&topo),
        );
        let r = engine.run(SimTime::from_micros(40));
        serde_json::to_string(&(&r.telemetry, &r.flows)).unwrap()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn profile_reports_are_byte_identical_per_seed() {
    let topo = topo_9634();
    let run = || {
        let mut engine = Engine::new(&topo, EngineConfig::default().with_seed(11).with_profile());
        engine.add_flow(
            FlowSpec::reads(
                "a",
                topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        engine.add_flow(
            FlowSpec::reads("b", vec![CoreId(30)], Target::all_dimms(&topo)).build(&topo),
        );
        let result = engine.run(SimTime::from_micros(30));
        serde_json::to_string(&result.profile.expect("profiling enabled")).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn metrics_registry_captures_flows_links_and_is_deterministic() {
    let topo = topo_9634();
    let run = || {
        let mut engine = Engine::new(
            &topo,
            EngineConfig {
                metrics_window: Some(chiplet_sim::SimDuration::from_micros(2)),
                ..EngineConfig::default().with_seed(3).with_profile()
            },
        );
        engine.add_flow(
            FlowSpec::reads(
                "probe",
                topo.cores_of_ccd(chiplet_topology::CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        engine.run(SimTime::from_micros(30))
    };
    let result = run();
    let m = result.metrics.as_ref().expect("metrics enabled");
    let bytes = m
        .counter_value("chiplet_flow_bytes", &[("flow", "probe")])
        .expect("flow bytes recorded");
    assert_eq!(
        bytes as u64, result.flows[0].bytes,
        "registry matches telemetry"
    );
    let lat = m
        .histogram("chiplet_flow_latency_ns", &[("flow", "probe")])
        .expect("latency recorded");
    assert_eq!(lat.count(), result.flows[0].completed);
    assert!(lat.windows().count() > 1, "multiple sim-time windows");
    let text = m.to_openmetrics();
    let achieved = text
        .lines()
        .find_map(|l| l.strip_prefix("chiplet_flow_achieved_gb_s{flow=\"probe\"} "))
        .expect("achieved gauge");
    assert!(achieved.parse::<f64>().unwrap() > 0.0, "{achieved}");
    // Some capacity point saw traffic.
    assert!(text.contains("chiplet_link_bytes_total{"));
    // Byte-identical exposition run-to-run.
    let a = run().metrics.unwrap().to_openmetrics();
    let b = run().metrics.unwrap().to_openmetrics();
    assert_eq!(a, b);
    crate::metrics::lint_openmetrics(&a).expect("engine dump lints clean");
}

/// The server arena's layout: an uncapped link is not a contention point
/// (it takes no slot and no plan stages it), every capped point owns a
/// read and a write server, and each flattened stage carries its point's
/// slot and, per direction, the service time its server would compute.
#[test]
fn uncapped_links_take_no_server_and_stages_carry_their_service_times() {
    let topo = topo_9634();
    let mut engine = Engine::new(&topo, EngineConfig::deterministic());
    let ccd1 = topo.cores_of_ccd(chiplet_topology::CcdId(1)).collect();
    engine.add_flow(
        FlowSpec::reads("dimm", cores_of(&topo, "ccd"), Target::all_dimms(&topo)).build(&topo),
    );
    engine.add_flow(FlowSpec::reads("cxl", ccd1, Target::Cxl(0)).build(&topo));
    engine.prepare(SimTime::from_micros(10));

    let links = topo.links();
    assert!(links.iter().any(|l| l.read_cap.is_none()));
    for (i, l) in links.iter().enumerate() {
        let base = engine.point_slot[i];
        assert_eq!(base == NO_SLOT, l.read_cap.is_none(), "link {i}");
        if base != NO_SLOT {
            // The traffic manager's capacity table reads the same servers.
            for (dir, cap) in [(Dir::Read, l.read_cap), (Dir::Write, l.write_cap)] {
                let slot = ServerArena::slot(base, dir) as usize;
                assert_eq!(
                    Some(engine.capacities[slot]),
                    cap.map(|c| c.as_bytes_per_s())
                );
            }
        }
    }
    let (mut cxl_stages, mut flit_stages) = (0, 0);
    for stage in &engine.flat_stages {
        assert_eq!(engine.point_slot[stage.point as usize], stage.slot);
        for (di, dir) in [Dir::Read, Dir::Write].into_iter().enumerate() {
            let server = engine.servers.server(ServerArena::slot(stage.slot, dir));
            let divided = server.service_ns(u64::from(stage.bytes));
            assert_eq!(stage.service_ns[di].to_bits(), divided.to_bits());
        }
        cxl_stages += usize::from(matches!(
            engine.points[stage.point as usize],
            CapacityPoint::CxlPort { .. }
        ));
        flit_stages += usize::from(stage.bytes == 68);
    }
    assert!(cxl_stages > 0 && flit_stages > 0);
}

/// One capacity-point order: every point's dense index is its position in
/// `capacity_points`, the derived order agrees with it, and every stage of
/// every plan (each issuer to each target) lands on a capped point, so it
/// owns server-arena slots the traffic manager can solve over.
#[test]
fn plan_stages_index_capped_points_in_one_order() {
    use crate::telemetry::capacity_points;
    let presets = [
        "epyc_7302",
        "epyc_9634",
        "dual_epyc_7302",
        "monolithic",
        "epyc_9634_nic",
    ];
    for name in presets {
        let spec = crate::scenario::TopologyChoice::Named(name.into())
            .platform()
            .expect("a named preset");
        let topo = Topology::build(&spec);
        let points = capacity_points(&topo);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index(&topo), i, "{}: {p:?}", spec.name);
            assert_eq!(points[p.index(&topo)], *p);
        }
        assert!(points.windows(2).all(|w| w[0] < w[1]), "{}", spec.name);

        let mut plans = Vec::new();
        for core in topo.core_ids() {
            for dimm in 0..topo.dimm_count() {
                plans.push(StagePlan::to_dimm(&topo, core, DimmId(dimm)));
            }
            for device in 0..topo.cxl_device_count() {
                plans.push(StagePlan::to_cxl(&topo, core, device));
            }
        }
        for nic in 0..topo.nic_count() {
            for dimm in 0..topo.dimm_count() {
                plans.push(StagePlan::nic_to_dimm(&topo, nic, DimmId(dimm)));
            }
        }
        let engine = Engine::new(&topo, EngineConfig::deterministic());
        for stage in plans.iter().flat_map(|p| &p.stages) {
            let index = stage.point.index(&topo);
            assert_eq!(points[index], stage.point, "{}", spec.name);
            assert_ne!(
                engine.point_slot[index], NO_SLOT,
                "{}: {:?}",
                spec.name, stage.point
            );
        }
    }
}
