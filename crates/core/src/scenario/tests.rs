use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimDuration, SimTime};

use super::*;

fn event_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "unit_event".into(),
        description: "one CCD reading all DIMMs".into(),
        topology: TopologyChoice::Named("epyc_7302".into()),
        backend: BackendKind::Event,
        seed: Some(7),
        horizon: SimTime::from_micros(30),
        policy: Default::default(),
        engine: Some(EngineOptions {
            deterministic_memory: true,
            ..Default::default()
        }),
        fluid: None,
        flows: vec![ScenarioFlow {
            name: "probe".into(),
            demand: Some(DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(
                8.0,
            )))),
            engine: Some(EngineFlow {
                cores: CoreSelect::Ccd(0),
                nic: None,
                target: TargetSpec::AllDimms,
                op: None,
                pattern: None,
                working_set: Some(ByteSize::from_mib(64)),
                start: None,
                stop: None,
            }),
            links: Vec::new(),
        }],
    }
}

fn fluid_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "unit_fluid".into(),
        description: String::new(),
        topology: TopologyChoice::Named("epyc_9634".into()),
        backend: BackendKind::Fluid,
        seed: None,
        horizon: SimTime::from_millis(200),
        policy: Default::default(),
        engine: None,
        fluid: Some(FluidOptions {
            links: vec![FluidLinkSpec::Named("if_9634".into())],
            dt: Some(SimDuration::from_millis(1)),
            sample: Some(SimDuration::from_millis(20)),
        }),
        flows: vec![
            ScenarioFlow {
                name: "greedy".into(),
                demand: None,
                engine: None,
                links: vec![0],
            },
            ScenarioFlow {
                name: "capped".into(),
                demand: Some(DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(
                    4.0,
                )))),
                engine: None,
                links: vec![0],
            },
        ],
    }
}

#[test]
fn spec_round_trips_through_json() {
    for spec in [event_spec(), fluid_spec()] {
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("round trip parses");
        assert_eq!(back, spec);
        // Deterministic bytes: serializing the parsed copy reproduces the
        // original text exactly.
        assert_eq!(back.to_json(), json);
    }
}

#[test]
fn event_backend_runs_and_is_seed_stable() {
    let spec = event_spec();
    let a = spec.run().expect("spec resolves");
    let b = spec.run().expect("spec resolves");
    assert_eq!(a.to_json(), b.to_json(), "same spec + seed ⇒ same report");

    let outcome = a.outcome().expect("completes");
    assert_eq!(outcome.backend, "event");
    assert_eq!(outcome.seed, 7);
    let flow = outcome.flow("probe").expect("flow reported");
    assert_eq!(flow.offered_gb_s, Some(8.0));
    assert!(flow.achieved_gb_s > 4.0, "got {}", flow.achieved_gb_s);
    assert!(flow.mean_latency_ns.unwrap() > 0.0);
    assert!(flow.completed > 0);

    // A different seed must still run (and virtually always differs).
    let mut other = event_spec();
    other.seed = Some(8);
    assert!(other.run().expect("spec resolves").outcome().is_some());
}

#[test]
fn fluid_backend_runs_and_is_seed_stable() {
    let spec = fluid_spec();
    let a = spec.run().expect("spec resolves");
    let b = spec.run().expect("spec resolves");
    assert_eq!(a.to_json(), b.to_json());

    let outcome = a.outcome().expect("completes");
    assert_eq!(outcome.backend, "fluid");
    assert_eq!(outcome.seed, 42, "default seed");
    let greedy = outcome.flow("greedy").expect("flow reported");
    let capped = outcome.flow("capped").expect("flow reported");
    assert!(!greedy.trace.is_empty(), "fluid traces are native output");
    assert!(
        greedy.mean_latency_ns.is_none(),
        "fluid measures no latency"
    );
    // The greedy flow harvests whatever the capped flow leaves on the link.
    assert!(greedy.achieved_gb_s > capped.achieved_gb_s);
    assert!(capped.achieved_gb_s <= 4.0 + 1e-9);
}

#[test]
fn report_round_trips_through_json() {
    let report = event_spec().run().expect("spec resolves");
    let back = ScenarioReport::from_json(&report.to_json()).expect("parses");
    assert_eq!(back, report);

    let unsup = ScenarioReport::Unsupported {
        scenario: "fig3e".into(),
        platform: "EPYC 7302".into(),
        reason: "platform has no CXL device".into(),
    };
    assert_eq!(
        unsup.unsupported_note().as_deref(),
        Some("fig3e on EPYC 7302: not supported")
    );
    assert_eq!(
        ScenarioReport::from_json(&unsup.to_json()).expect("parses"),
        unsup
    );
}

#[test]
fn bad_specs_are_rejected_with_reasons() {
    // Unknown platform name.
    let mut spec = event_spec();
    spec.topology = TopologyChoice::Named("epyc_1234".into());
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("unknown platform"), "{err}");

    // Event backend needs an engine mapping per flow.
    let mut spec = event_spec();
    spec.flows[0].engine = None;
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("no engine mapping"), "{err}");

    // A horizon not past the statistics warmup (the default 2 µs, or an
    // explicit one) — with and without metrics, which set their own config.
    for (horizon_ns, warmup_ns) in [(1_000, None), (2_000, None), (40_000, Some(50_000))] {
        let mut spec = event_spec();
        spec.horizon = SimTime::from_nanos(horizon_ns);
        spec.engine.as_mut().unwrap().warmup = warmup_ns.map(SimDuration::from_nanos);
        let err = spec.run().unwrap_err();
        assert!(
            err.to_string()
                .contains("must exceed the statistics warmup"),
            "{err}"
        );
        let err = spec
            .run_with_metrics(&mut crate::metrics::MetricsRegistry::new())
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
    }

    // Zero-width engine windows and fluid steps are typed errors, not the
    // time-series or registry constructors' assertions.
    let zero = Some(SimDuration::ZERO);
    let mut trace = event_spec();
    trace.engine.as_mut().unwrap().trace_window = zero;
    let mut metrics = event_spec();
    metrics.engine.as_mut().unwrap().metrics_window = zero;
    let mut dt = fluid_spec();
    dt.fluid.as_mut().unwrap().dt = zero;
    let mut sample = fluid_spec();
    sample.fluid.as_mut().unwrap().sample = zero;
    for (field, spec) in [
        ("engine.trace_window", trace),
        ("engine.metrics_window", metrics),
        ("fluid.dt", dt),
        ("fluid.sample", sample),
    ] {
        let err = spec.run().unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("{field} must be positive")),
            "{err}"
        );
        let err = spec
            .run_with_metrics(&mut crate::metrics::MetricsRegistry::new())
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{field}: {err}");
    }

    // CXL target on a platform without CXL.
    let mut spec = event_spec();
    spec.flows[0].engine.as_mut().unwrap().target = TargetSpec::Cxl(0);
    let err = spec.run().unwrap_err();
    assert!(
        err.to_string().contains("CXL device 0 not present"),
        "{err}"
    );

    // Each core or NIC issues for one flow: a second flow on it, or one
    // flow listing a core twice, is a typed error naming the flows and the
    // issuer, not the engine's ownership assertion.
    let mut overlap = event_spec();
    let mut other = overlap.flows[0].clone();
    other.name = "other".into();
    other.engine.as_mut().unwrap().cores = CoreSelect::Cores(vec![0]);
    overlap.flows.push(other);
    let mut twice = event_spec();
    twice.flows[0].engine.as_mut().unwrap().cores = CoreSelect::Cores(vec![2, 2]);
    let mut nics = event_spec();
    let platform = chiplet_topology::PlatformSpec::epyc_9634();
    nics.topology = TopologyChoice::Inline(platform.with_nic(chiplet_topology::NicSpec::gbe400()));
    nics.flows[0].engine.as_mut().unwrap().nic = Some(0);
    let mut dma = nics.flows[0].clone();
    dma.name = "dma".into();
    nics.flows.push(dma);
    for (spec, want) in [
        (overlap, "flows 'probe' and 'other' both issue from core 0"),
        (twice, "flow 'probe' lists core 2 twice"),
        (nics, "flows 'probe' and 'dma' both issue from NIC 0"),
    ] {
        let err = spec.run().unwrap_err();
        assert!(err.to_string().contains(want), "{err}");
        let err = spec
            .run_with_metrics(&mut crate::metrics::MetricsRegistry::new())
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
        assert!(err.to_string().contains(want), "{err}");
    }

    // Fluid backend needs a link table…
    let mut spec = fluid_spec();
    spec.fluid = None;
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("fluid.links"), "{err}");

    // …in-range link references…
    let mut spec = fluid_spec();
    spec.flows[0].links = vec![3];
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");

    // …and every flow to cross at least one link.
    let mut spec = fluid_spec();
    spec.flows[0].links = Vec::new();
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("crosses no fluid links"), "{err}");

    // A malformed demand schedule is a parse error on either backend, not
    // a panic at its first lookup or a silently negative offered load.
    for mut spec in [event_spec(), fluid_spec()] {
        spec.flows[0].demand = None;
        let text = spec.to_json();
        for (pieces, want) in [
            ("[]", "at least one piece"),
            ("[[5, null]]", "must start at zero"),
            ("[[0, null], [9, 1.0], [3, null]]", "strictly increasing"),
            ("[[0, null], [0, 1.0]]", "strictly increasing"),
            ("[[0, -5000000000.0]]", "must be finite and >= 0"),
            ("[[0, 1e999]]", "must be finite and >= 0"),
        ] {
            let demand = format!("\"demand\": {{\"pieces\": {pieces}}}");
            let bad = text.replacen("\"demand\": null", &demand, 1);
            assert_ne!(bad, text, "the edit must land");
            let err = ScenarioSpec::from_json(&bad).unwrap_err();
            assert!(err.to_string().contains(want), "{pieces}: {err}");
        }
    }

    // Inline fluid links need a finite, positive capacity (the solver's
    // contract) and instability noise a finite amplitude >= 0 with an AR(1)
    // correlation in [0, 1).
    use chiplet_fluid::{FluidLink, Instability};
    let gb = Bandwidth::from_gb_per_s;
    let if_7302 = FluidLinkSpec::Named("if_7302".into()).resolve().unwrap();
    let capped = |gb_s: f64| FluidLink {
        capacity: gb(gb_s),
        ..if_7302.clone()
    };
    let noisy = |amplitude: f64, correlation: f64| FluidLink {
        instability: Some(Instability {
            amplitude,
            correlation,
        }),
        ..if_7302.clone()
    };
    let fluid_with = |link: FluidLink| {
        let mut spec = fluid_spec();
        spec.fluid.as_mut().unwrap().links = vec![FluidLinkSpec::Inline(link)];
        spec
    };
    let capacity = "capacity must be finite and positive";
    let amplitude = "amplitude must be finite and >= 0";
    let correlation = "correlation must be in [0, 1)";
    for (link, want) in [
        (capped(-5.0), capacity),
        (capped(0.0), capacity),
        (capped(f64::INFINITY), capacity),
        (noisy(-0.5, 0.7), amplitude),
        (noisy(f64::NAN, 0.7), amplitude),
        (noisy(0.9, 3.0), correlation),
        (noisy(0.9, 1.0), correlation),
        (noisy(0.9, -0.1), correlation),
    ] {
        let err = fluid_with(link).run().unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
        assert!(err.to_string().contains(want), "{err}");
    }
    assert!(
        fluid_with(noisy(0.0, 0.0)).run().is_ok(),
        "zero noise is valid"
    );
}

#[test]
fn instantiate_rejects_what_run_rejects() {
    // The public engine constructor applies the same checks as `run`, so a
    // caller building engines itself gets a typed error instead of the
    // engine's `horizon > warmup` assertion.
    let topo = event_spec().topology.resolve().unwrap();
    let mut short = event_spec();
    short.horizon = SimTime::from_nanos(2_000);
    let mut trace = event_spec();
    trace.engine.as_mut().unwrap().trace_window = Some(SimDuration::ZERO);
    let mut metrics = event_spec();
    metrics.engine.as_mut().unwrap().metrics_window = Some(SimDuration::ZERO);
    for (want, spec) in [
        ("must exceed the statistics warmup", short),
        ("engine.trace_window must be positive", trace),
        ("engine.metrics_window must be positive", metrics),
    ] {
        match EventEngineBackend::instantiate(&spec, &topo) {
            Err(ScenarioError::Invalid(msg)) => assert!(msg.contains(want), "{msg}"),
            Ok(_) => panic!("{want}: instantiate accepted the spec"),
        }
    }
    assert!(EventEngineBackend::instantiate(&event_spec(), &topo).is_ok());
}

mod json_roundtrip_props {
    use chiplet_mem::{OpKind, Pattern};
    use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimDuration, SimTime};
    use chiplet_topology::PlatformSpec;
    use proptest::prelude::*;

    use crate::scenario::*;
    use crate::traffic::TrafficPolicy;

    fn arb_name() -> impl Strategy<Value = String> {
        (0usize..8).prop_map(|i| {
            [
                "probe",
                "rx burst",
                "ccd0→cxl",
                "λ-flow",
                "",
                "with \"quotes\"\n",
                // Look like the top-level seed field the hash splits at.
                "\n  \"seed\": 7,\n  \"seed\": null,",
                "\"seed\": ",
            ][i]
                .to_string()
        })
    }

    fn arb_bw() -> impl Strategy<Value = Bandwidth> {
        // Any finite f64 round-trips: the writer prints the shortest decimal
        // that parses back to the same bits, so odd magnitudes are fine.
        (1u64..u64::from(u32::MAX)).prop_map(|b| Bandwidth::from_bytes_per_s(b as f64 * 1.7))
    }

    fn arb_demand() -> impl Strategy<Value = DemandSchedule> {
        (
            prop::bool::ANY,
            prop::collection::vec((1u64..5_000_000, prop::option::of(arb_bw())), 1..5),
        )
            .prop_map(|(constant, raw)| {
                if constant {
                    DemandSchedule::constant(raw[0].1)
                } else {
                    // Strictly increasing from zero: cumulative gaps.
                    let mut t = 0u64;
                    let pieces = raw
                        .into_iter()
                        .enumerate()
                        .map(|(i, (gap, d))| {
                            if i > 0 {
                                t += gap;
                            }
                            (SimTime::from_nanos(t), d)
                        })
                        .collect();
                    DemandSchedule::piecewise(pieces)
                }
            })
    }

    fn arb_cores() -> impl Strategy<Value = CoreSelect> {
        (0u8..5, prop::collection::vec(0u32..256, 0..4), 0u32..64).prop_map(|(k, ids, n)| match k {
            0 => CoreSelect::Cores(ids),
            1 => CoreSelect::Ccd(n),
            2 => CoreSelect::Ccds(ids),
            3 => CoreSelect::Ccx(n),
            _ => CoreSelect::All,
        })
    }

    fn arb_target() -> impl Strategy<Value = TargetSpec> {
        (0u8..3, prop::collection::vec(0u32..24, 0..4), 0u32..4).prop_map(|(k, ds, dev)| match k {
            0 => TargetSpec::AllDimms,
            1 => TargetSpec::Dimms(ds),
            _ => TargetSpec::Cxl(dev),
        })
    }

    fn arb_engine_flow() -> impl Strategy<Value = EngineFlow> {
        (
            (arb_cores(), prop::option::of(0u32..4), arb_target()),
            (0usize..4, 0usize..4, prop::option::of(1u64..4096)),
            (
                prop::option::of(0u64..100_000_000),
                prop::option::of(0u64..100_000_000),
            ),
        )
            .prop_map(
                |((cores, nic, target), (op, pat, ws), (start, stop))| EngineFlow {
                    cores,
                    nic,
                    target,
                    op: [
                        None,
                        Some(OpKind::Read),
                        Some(OpKind::WriteTemporal),
                        Some(OpKind::WriteNonTemporal),
                    ][op],
                    pattern: [
                        None,
                        Some(Pattern::Sequential),
                        Some(Pattern::Random),
                        Some(Pattern::PointerChase),
                    ][pat],
                    working_set: ws.map(ByteSize::from_mib),
                    start: start.map(SimTime::from_nanos),
                    stop: stop.map(SimTime::from_nanos),
                },
            )
    }

    fn arb_policy() -> impl Strategy<Value = TrafficPolicy> {
        (
            0u8..5,
            prop::collection::vec(1u64..64, 0..4),
            1u64..1_000_000,
        )
            .prop_map(|(k, v, i)| match k {
                0 => TrafficPolicy::HardwareDefault,
                1 => TrafficPolicy::MaxMinFair,
                2 => TrafficPolicy::WeightedFair {
                    weights: v.iter().map(|&w| w as f64 / 4.0).collect(),
                },
                3 => TrafficPolicy::RateLimit {
                    caps_gb_s: v.iter().map(|&w| w as f64 * 1.5).collect(),
                },
                _ => TrafficPolicy::BdpAdaptive {
                    latency_factor: 1.0 + i as f64 / 1e6,
                    interval_ns: i,
                },
            })
    }

    fn arb_topology() -> impl Strategy<Value = TopologyChoice> {
        (0u8..6).prop_map(|k| match k {
            0 => TopologyChoice::Named("epyc_7302".into()),
            1 => TopologyChoice::Named("epyc_9634".into()),
            2 => TopologyChoice::Named("dual_epyc_7302".into()),
            3 => TopologyChoice::Named("epyc_9634_nic".into()),
            4 => TopologyChoice::Inline(PlatformSpec::epyc_9634()),
            _ => TopologyChoice::Inline(PlatformSpec::monolithic_baseline()),
        })
    }

    fn arb_engine_opts() -> impl Strategy<Value = EngineOptions> {
        (
            prop::option::of(1u64..10_000),
            prop::bool::ANY,
            prop::option::of(1u64..100_000),
            prop::option::of(1u32..64),
            prop::option::of(1u64..100_000),
        )
            .prop_map(|(warmup, det, tw, ts, mw)| EngineOptions {
                warmup: warmup.map(SimDuration::from_nanos),
                deterministic_memory: det,
                trace_window: tw.map(SimDuration::from_nanos),
                trace_sampling: ts,
                metrics_window: mw.map(SimDuration::from_nanos),
                profile_phases: None,
                ..Default::default()
            })
    }

    fn arb_fluid_opts() -> impl Strategy<Value = FluidOptions> {
        (
            prop::collection::vec(0u8..4, 1..4),
            prop::option::of(1u64..10_000_000),
            prop::option::of(1u64..100_000_000),
        )
            .prop_map(|(links, dt, sample)| FluidOptions {
                links: links
                    .into_iter()
                    .map(|k| match k {
                        0 => FluidLinkSpec::Named("if_9634".into()),
                        1 => FluidLinkSpec::Named("plink_9634".into()),
                        2 => FluidLinkSpec::Named("if_7302".into()),
                        _ => FluidLinkSpec::Inline(
                            FluidLinkSpec::Named("if_7302".into()).resolve().unwrap(),
                        ),
                    })
                    .collect(),
                dt: dt.map(SimDuration::from_nanos),
                sample: sample.map(SimDuration::from_nanos),
            })
    }

    fn arb_flow() -> impl Strategy<Value = ScenarioFlow> {
        (
            arb_name(),
            prop::option::of(arb_demand()),
            prop::option::of(arb_engine_flow()),
            prop::collection::vec(0usize..4, 0..3),
        )
            .prop_map(|(name, demand, engine, links)| ScenarioFlow {
                name,
                demand,
                engine,
                links,
            })
    }

    fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
        (
            (arb_name(), arb_name(), arb_topology(), prop::bool::ANY),
            (
                prop::option::of(0u64..=u64::MAX),
                1u64..10_000_000_000,
                arb_policy(),
            ),
            (
                prop::option::of(arb_engine_opts()),
                prop::option::of(arb_fluid_opts()),
            ),
            prop::collection::vec(arb_flow(), 0..4),
        )
            .prop_map(
                |(
                    (name, description, topology, event),
                    (seed, horizon, policy),
                    (engine, fluid),
                    flows,
                )| ScenarioSpec {
                    name,
                    description,
                    topology,
                    backend: if event {
                        BackendKind::Event
                    } else {
                        BackendKind::Fluid
                    },
                    seed,
                    horizon: SimTime::from_nanos(horizon),
                    policy,
                    engine,
                    fluid,
                    flows,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Serialization is lossless and byte-deterministic over the whole
        /// spec space — including unicode names, full-range seeds, inline
        /// platforms, and every policy/selector variant.
        #[test]
        fn arbitrary_specs_round_trip_through_json(spec in arb_spec()) {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json).expect("generated spec parses back");
            prop_assert_eq!(&back, &spec);
            prop_assert_eq!(back.to_json(), json);
        }

        /// The one-serialization seal derives the same seed and content
        /// hash as the two-pass reference, whatever the spec holds.
        #[test]
        fn sealing_matches_the_two_pass_derivation(
            spec in arb_spec(),
            base_seed in 0u64..=u64::MAX,
        ) {
            let mut sealed = spec.clone();
            let mut reference = spec;
            let hash = seal_spec(&mut sealed, base_seed);
            prop_assert_eq!(hash, two_pass_seal(&mut reference, base_seed));
            prop_assert_eq!(&sealed, &reference);
            prop_assert_eq!(spec_hash(&sealed), format!("{hash:016x}"));
        }
    }

    /// The derivation [`seal_spec`] replaces, kept as its reference: hash
    /// the JSON before the derived seed is written, mix the seed in, then
    /// hash the final JSON.
    fn two_pass_seal(spec: &mut ScenarioSpec, base_seed: u64) -> u64 {
        let key_hash = fnv1a64(spec.to_json().as_bytes());
        spec.seed = Some(splitmix64(base_seed ^ key_hash));
        fnv1a64(spec.to_json().as_bytes())
    }
}

mod sweeps {
    use super::*;

    fn fluid_sweep() -> SweepSpec {
        SweepSpec {
            name: "unit_sweep".into(),
            description: "demand × capacity grid over the fluid harvest scenario".into(),
            base: fluid_spec(),
            axes: vec![
                SweepAxis::DemandGbS {
                    flow: "capped".into(),
                    values: vec![Some(2.0), Some(4.0), None],
                },
                SweepAxis::LinkCapacityGbS {
                    link: 0,
                    values: vec![20.0, 33.2],
                },
            ],
            max_points: None,
        }
    }

    #[test]
    fn expansion_is_deterministic_ordered_and_seed_derived() {
        let sweep = fluid_sweep();
        let a = sweep.expand().expect("expands");
        let b = sweep.expand().expect("expands");
        assert_eq!(a, b, "expansion is a pure function of the spec");
        assert_eq!(a.len(), 6, "cartesian product of 3 × 2");
        // First axis outermost, labels in key=value form.
        assert_eq!(a[0].label, "demand[capped]=2 cap[link0]=20");
        assert_eq!(a[1].label, "demand[capped]=2 cap[link0]=33.2");
        assert_eq!(a[4].label, "demand[capped]=max cap[link0]=20");
        // Hashes are distinct and seeds are derived (≠ base seed).
        let mut hashes: Vec<&str> = a.iter().map(|p| p.hash.as_str()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 6, "every point hashes uniquely");
        let base = sweep.base.seed_or_default();
        for p in &a {
            let s = p.spec.seed.expect("derived seed set");
            assert_ne!(s, base, "per-point seeds are mixed, not the base seed");
        }
    }

    #[test]
    fn malformed_spec_errors_name_line_and_column() {
        // The message a user (or a daemon 400 body) sees is the parser's
        // own wording, not Rust debug text.
        let text = "{\n  \"name\": \"x\",\n  oops\n}";
        let errors = [
            ScenarioSpec::from_json(text).unwrap_err(),
            SweepSpec::from_json(text).unwrap_err(),
            crate::dse::DseSpec::from_json(text).unwrap_err(),
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(msg.contains("JSON error: "), "{msg}");
            assert!(msg.contains("at line 3 column 3"), "{msg}");
            assert!(!msg.contains("Error {"), "{msg}");
        }
    }

    #[test]
    fn typed_json_errors_name_their_field_path() {
        // A value of the wrong type, or a missing field, names the path to
        // it: struct fields, enum payloads and sequence indices.
        let text = event_spec().to_json();
        for (from, to, want) in [
            (
                "\"name\": \"unit_event\"",
                "\"name\": 5",
                "JSON error: name: expected string",
            ),
            (
                "\"Ccd\": 0",
                "\"Ccd\": \"zero\"",
                "JSON error: flows[0].engine.cores.Ccd: expected u32",
            ),
            (
                "\"Ccd\": 0",
                "\"Cores\": [0, -1]",
                "JSON error: flows[0].engine.cores.Cores[1]: expected u32",
            ),
            (
                "\"name\": \"probe\",",
                "",
                "JSON error: flows[0]: missing field `name`",
            ),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "the edit must land: {from}");
            let msg = ScenarioSpec::from_json(&bad).unwrap_err().to_string();
            assert!(msg.contains(want), "{msg}");
        }
        let sweep = fluid_sweep()
            .to_json()
            .replacen("\"values\": [", "\"values\": [\"x\", ", 1);
        let msg = SweepSpec::from_json(&sweep).unwrap_err().to_string();
        assert!(
            msg.contains("JSON error: axes[0].DemandGbS.values[0]: expected number"),
            "{msg}"
        );
    }

    #[test]
    fn sweep_round_trips_through_json() {
        let sweep = fluid_sweep();
        let json = sweep.to_json();
        let back = SweepSpec::from_json(&json).expect("parses");
        assert_eq!(back, sweep);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn runner_is_worker_count_invariant() {
        let sweep = fluid_sweep();
        let (serial, s1) = SweepRunner::with_jobs(1).run(&sweep).expect("runs");
        let (wide, s8) = SweepRunner::with_jobs(8).run(&sweep).expect("runs");
        assert_eq!(
            serial.to_json(),
            wide.to_json(),
            "aggregate bytes must not depend on worker count"
        );
        assert_eq!(s1.executed, 6);
        assert_eq!(s8.executed, 6);
        assert_eq!(s1.cached, 0);
    }

    #[test]
    fn runner_cache_hits_reproduce_cold_bytes() {
        let dir = std::env::temp_dir().join(format!("chiplet-sweep-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = SweepRunner {
            jobs: 2,
            cache_dir: Some(dir.clone()),
        };
        let sweep = fluid_sweep();
        let (cold, cold_stats) = runner.run(&sweep).expect("cold run");
        assert_eq!(cold_stats.executed, 6);
        assert_eq!(cold_stats.cached, 0);
        assert!(
            std::fs::read_dir(&dir).unwrap().count() >= 6,
            "cache populated"
        );
        let (warm, warm_stats) = runner.run(&sweep).expect("warm run");
        assert_eq!(warm_stats.cached, 6, "second run is fully cached");
        assert_eq!(warm_stats.executed, 0);
        assert_eq!(warm_stats.corrupt_healed, 0);
        assert_eq!(cold.to_json(), warm.to_json(), "cache is transparent");
        // Corrupt one entry: it re-runs, and the healing is counted.
        let victim = dir.join(format!("{}.json", cold.points[0].hash));
        std::fs::write(&victim, "{ not json").unwrap();
        let (healed, healed_stats) = runner.run(&sweep).expect("heals corrupt entries");
        assert_eq!(healed_stats.executed, 1);
        assert_eq!(healed_stats.cached, 5);
        assert_eq!(healed_stats.corrupt_healed, 1, "healing is never silent");
        assert_eq!(healed.to_json(), cold.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_cache_entry_is_corrupt_and_healed() {
        // A planted entry past the read bound is never read whole: it is
        // Corrupt even though (padded with whitespace) it is valid JSON of
        // the right report, and the runner re-executes and replaces it.
        let dir = std::env::temp_dir().join(format!("chiplet-sweep-big-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = SweepRunner {
            jobs: 1,
            cache_dir: Some(dir.clone()),
        };
        let sweep = fluid_sweep();
        let (cold, _) = runner.run(&sweep).expect("cold run");
        let hash = &cold.points[0].hash;
        let victim = dir.join(format!("{hash}.json"));
        let mut planted = std::fs::read_to_string(&victim).unwrap();
        planted.push_str(&" ".repeat(crate::scenario::sweep::MAX_CACHE_ENTRY_BYTES as usize));
        std::fs::write(&victim, &planted).unwrap();
        assert!(matches!(
            ScenarioReport::from_json(&planted),
            Ok(ref r) if r.to_json() == cold.points[0].report.to_json()
        ));
        assert_eq!(load_cache_entry(&dir, hash), CacheLookup::Corrupt);
        let (healed, stats) = runner.run(&sweep).expect("heals the oversized entry");
        assert_eq!((stats.executed, stats.corrupt_healed), (1, 1));
        assert_eq!(healed.to_json(), cold.to_json());
        assert!(matches!(load_cache_entry(&dir, hash), CacheLookup::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_cache_writers_never_yield_a_torn_read() {
        // Hammer one cache key from many writer threads while readers poll:
        // atomic tmp + rename publication means a reader sees Miss (before
        // the first rename) or a complete entry — never Corrupt, and never
        // bytes that match neither writer's payload.
        let dir = std::env::temp_dir().join(format!("chiplet-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let report_a = fluid_spec().run().expect("runs").to_json();
        let mut spec_b = fluid_spec();
        spec_b.seed = Some(99);
        spec_b.horizon = SimTime::from_millis(100);
        let report_b = spec_b.run().expect("runs").to_json();
        assert_ne!(report_a, report_b, "two distinct payloads");

        let hash = "00c0ffee00c0ffee";
        std::thread::scope(|scope| {
            for w in 0..4 {
                let (dir, a, b) = (&dir, report_a.as_str(), report_b.as_str());
                scope.spawn(move || {
                    for i in 0..50 {
                        let payload = if (w + i) % 2 == 0 { a } else { b };
                        store_cache_entry(dir, hash, payload).expect("store");
                    }
                });
            }
            for _ in 0..4 {
                let (dir, a, b) = (&dir, report_a.as_str(), report_b.as_str());
                scope.spawn(move || {
                    for _ in 0..200 {
                        match load_cache_entry(dir, hash) {
                            CacheLookup::Hit(report) => {
                                let json = report.to_json();
                                assert!(
                                    json == a || json == b,
                                    "read must match one writer's payload"
                                );
                            }
                            CacheLookup::Miss => {}
                            CacheLookup::Corrupt => panic!("torn cache read"),
                        }
                    }
                });
            }
        });
        // The final state is one complete entry; temp files are all renamed.
        assert!(matches!(load_cache_entry(&dir, hash), CacheLookup::Hit(_)));
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .count();
        assert_eq!(leftovers, 0, "every temp file is renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_hash_matches_expanded_point_hashes() {
        for point in fluid_sweep().expand().expect("expands") {
            assert_eq!(spec_hash(&point.spec), point.hash);
        }
    }

    #[test]
    fn effective_jobs_never_zero_and_never_oversubscribes() {
        let cores = 8;
        for items in [0, 1, 5, 100] {
            // Auto-sized (jobs = 0): stays within the host's cores and the
            // work, and never hits 0.
            let auto = effective_jobs_with(0, items, cores);
            assert!(auto >= 1, "items={items}");
            assert!(auto <= cores, "items={items}");
            assert!(auto <= items.max(1), "items={items}");
            // Explicit jobs: taken as-is, but still clamped to the work
            // and never 0.
            for jobs in [1, 3, cores] {
                let got = effective_jobs_with(jobs, items, cores);
                assert!(got >= 1);
                assert_eq!(got, jobs.min(items.max(1)));
            }
        }
        // Degenerate hosts: zero/unknown parallelism still yields one job.
        assert_eq!(effective_jobs_with(0, 10, 0), 1);
        assert_eq!(effective_jobs_with(0, 10, 1), 1);
    }

    #[test]
    fn bad_sweeps_are_rejected_with_reasons() {
        // No axes.
        let mut sweep = fluid_sweep();
        sweep.axes.clear();
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("no axes"), "{err}");

        // An empty axis.
        let mut sweep = fluid_sweep();
        sweep.axes[0] = SweepAxis::Seed { values: Vec::new() };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("no values"), "{err}");

        // Unknown flow name.
        let mut sweep = fluid_sweep();
        sweep.axes[0] = SweepAxis::DemandGbS {
            flow: "nobody".into(),
            values: vec![None],
        };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("unknown flow"), "{err}");

        // Out-of-range link.
        let mut sweep = fluid_sweep();
        sweep.axes[1] = SweepAxis::LinkCapacityGbS {
            link: 9,
            values: vec![10.0],
        };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // Explosive product.
        let mut sweep = fluid_sweep();
        sweep.axes = vec![
            SweepAxis::Seed {
                values: (0..200).collect(),
            },
            SweepAxis::HorizonUs {
                values: (1..=200).collect(),
            },
        ];
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("max"), "{err}");
    }

    #[test]
    fn flow_count_axis_replicates_in_place() {
        let mut sweep = fluid_sweep();
        sweep.axes = vec![SweepAxis::FlowCount {
            flow: "capped".into(),
            values: vec![1, 3],
        }];
        let points = sweep.expand().expect("expands");
        assert_eq!(points.len(), 2);
        let names: Vec<&str> = points[0]
            .spec
            .flows
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, ["greedy", "capped"], "count 1 keeps the flow as-is");
        let names: Vec<&str> = points[1]
            .spec
            .flows
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, ["greedy", "capped#0", "capped#1", "capped#2"]);
    }

    #[test]
    fn mlp_axis_inlines_a_patched_platform() {
        let mut sweep = fluid_sweep();
        sweep.base = event_spec();
        sweep.axes = vec![SweepAxis::MlpReadOutstanding {
            values: vec![8, 16],
        }];
        let points = sweep.expand().expect("expands");
        for (p, want) in points.iter().zip([8u32, 16]) {
            let platform = p.spec.topology.platform().unwrap();
            assert_eq!(platform.mlp.core_read_outstanding, want);
            assert!(matches!(p.spec.topology, TopologyChoice::Inline(_)));
        }
    }

    #[test]
    fn parallel_ordered_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [0, 1, 3, 8] {
            let out = parallel_ordered(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            let want: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, want, "jobs={jobs}");
        }
        assert!(parallel_ordered(&Vec::<u8>::new(), 4, |_, _| 0).is_empty());
    }

    #[test]
    fn registry_runs_sweeps_with_the_default_runner() {
        let mut reg = ScenarioRegistry::new();
        reg.register(ScenarioEntry {
            name: "unit_sweep",
            summary: "grid over the fluid harvest scenario",
            build: || {
                ScenarioKind::Sweep(SweepSpec {
                    name: "unit_sweep".into(),
                    description: String::new(),
                    base: super::fluid_spec(),
                    axes: vec![SweepAxis::HorizonUs {
                        values: vec![100, 200],
                    }],
                    max_points: None,
                })
            },
        });
        let settings = crate::dse::DseRunner::default();
        match (reg.get("unit_sweep").unwrap().build)().run(&settings, None) {
            Ok(ScenarioRun::Sweep(outcome, stats)) => {
                assert_eq!(outcome.points.len(), 2);
                assert_eq!((stats.total, stats.executed), (2, 2));
                assert!(outcome.points.iter().all(|p| p.report.outcome().is_some()));
            }
            _ => panic!("sweep entry should run"),
        }
    }
}

#[test]
fn demand_compiles_to_the_flow_schedule() {
    let spec = event_spec();
    let topo = spec.topology.resolve().unwrap();
    let flow = spec.compile_flow(&spec.flows[0], &topo).unwrap();
    assert_eq!(
        flow.demand,
        DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(8.0)))
    );

    // A piecewise schedule compiles as written, and no schedule is an
    // unthrottled one.
    let mut spec = event_spec();
    let piecewise = DemandSchedule::piecewise(vec![
        (SimTime::ZERO, None),
        (
            SimTime::from_micros(10),
            Some(Bandwidth::from_gb_per_s(2.0)),
        ),
    ]);
    spec.flows[0].demand = Some(piecewise.clone());
    let flow = spec.compile_flow(&spec.flows[0], &topo).unwrap();
    assert_eq!(flow.demand, piecewise);
    spec.flows[0].demand = None;
    let flow = spec.compile_flow(&spec.flows[0], &topo).unwrap();
    assert_eq!(flow.demand, DemandSchedule::constant(None));
}

mod metric_runs {
    use super::*;
    use crate::metrics::{lint_openmetrics, MetricsRegistry};

    #[test]
    fn event_backend_metrics_are_deterministic_and_labelled() {
        let dump = || {
            let mut m = MetricsRegistry::new();
            event_spec().run_with_metrics(&mut m).unwrap();
            m.to_openmetrics()
        };
        let (a, b) = (dump(), dump());
        assert_eq!(a, b, "same spec + seed must dump identical bytes");
        lint_openmetrics(&a).unwrap();
        assert!(a.contains(r#"scenario="unit_event""#));
        assert!(a.contains(r#"backend="event""#));
        assert!(a.contains("chiplet_flow_completions_total{"));
        assert!(a.contains("chiplet_flow_latency_ns{"));
    }

    #[test]
    fn fluid_backend_metrics_count_every_epoch() {
        let mut m = MetricsRegistry::new();
        fluid_spec().run_with_metrics(&mut m).unwrap();
        let labels = [("backend", "fluid"), ("scenario", "unit_fluid")];
        // 200 ms horizon at dt = 1 ms.
        assert_eq!(m.counter_value("fluid_ticks", &labels), Some(200.0));
        let per_flow = [
            ("backend", "fluid"),
            ("flow", "greedy"),
            ("scenario", "unit_fluid"),
        ];
        assert!(m.counter_value("fluid_flow_bytes", &per_flow).unwrap() > 0.0);
        lint_openmetrics(&m.to_openmetrics()).unwrap();
    }

    #[test]
    fn study_metrics_are_jobs_invariant() {
        // A study's metric-aware points merge their registries in list
        // order: the dump and the outcome are the same for any worker
        // count, and equal the plain (cached-path) outcome.
        let mut second = fluid_spec();
        second.name = "unit_fluid_b".into();
        let specs = vec![fluid_spec(), second.clone()];
        let dump = |jobs| {
            let mut m = MetricsRegistry::new();
            let (outcome, stats) = SweepRunner::with_jobs(jobs)
                .run_study("unit_study", specs.clone(), Some(&mut m))
                .unwrap();
            assert_eq!((stats.total, stats.executed, stats.cached), (2, 2, 0));
            (m.to_openmetrics(), outcome)
        };
        let (m1, o1) = dump(1);
        let (m4, o4) = dump(4);
        assert_eq!(m1, m4, "metrics must not depend on worker count");
        assert_eq!(o1, o4);
        assert!(m1.contains(r#"scenario="unit_fluid_b""#));
        let (plain, _) = SweepRunner::with_jobs(2)
            .run_study("unit_study", specs, None)
            .unwrap();
        assert_eq!(plain, o1, "reports are metrics-invariant");
        // Points run as they stand: labelled with the spec's name and list
        // index, keyed by its content hash, on the spec's own seed.
        assert_eq!(o1.sweep, "unit_study");
        assert_eq!(o1.points[1].label, "unit_fluid_b #1");
        assert_eq!(o1.points[1].hash, spec_hash(&second));
        assert_eq!(
            o1.points[1].report.outcome().unwrap().seed,
            second.seed_or_default()
        );
    }

    #[test]
    fn sweep_metrics_split_deterministic_from_volatile() {
        let sweep = SweepSpec {
            name: "unit_metric_sweep".into(),
            description: String::new(),
            base: fluid_spec(),
            axes: vec![SweepAxis::DemandGbS {
                flow: "capped".into(),
                values: vec![Some(2.0), None],
            }],
            max_points: None,
        };
        let dump = |jobs| {
            let mut m = MetricsRegistry::new();
            SweepRunner::with_jobs(jobs)
                .run_with_metrics(&sweep, &mut m)
                .unwrap();
            (m.to_openmetrics(), m.to_openmetrics_with_volatile())
        };
        let (d1, v1) = dump(1);
        let (d4, _) = dump(4);
        assert_eq!(d1, d4, "default dump must not depend on worker count");
        lint_openmetrics(&d1).unwrap();
        assert!(d1.contains("sweep_flow_achieved_gb_s{"));
        assert!(!d1.contains("sweep_point_wall_seconds"));
        assert!(v1.contains("sweep_point_wall_seconds{"));
        assert!(v1.contains("sweep_jobs{"));
        assert!(v1.contains("sweep_cache_misses_total{"));
        assert!(v1.contains("sweep_cache_corrupt_healed_total{"));
    }
}
