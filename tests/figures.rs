//! Shape assertions for Figures 3–6: the qualitative claims of §3.4 and
//! §3.5 hold end-to-end.

use server_chiplet_networking::fluid::{
    harvest_time_ms, DemandSchedule, FluidFlowSpec, FluidLink, FluidSim,
};
use server_chiplet_networking::mem::OpKind;
use server_chiplet_networking::membench::base;
use server_chiplet_networking::membench::compete::{competing_flows, CompeteLink};
use server_chiplet_networking::membench::interference::{interference_sweep, InterferenceDomain};
use server_chiplet_networking::membench::loaded::{loaded_latency_sweep, LinkScenario};
use server_chiplet_networking::net::scenario::FluidLinkSpec;
use server_chiplet_networking::sim::{Bandwidth, SimDuration, SimTime};
use server_chiplet_networking::topology::{PlatformSpec, Topology};

#[test]
fn fig3_gmi_knee_and_tail_7302() {
    // Paper: reads 123.7/470 ns (avg/P999) at low load rising to
    // 172.5/800 ns near saturation.
    let pts = loaded_latency_sweep(
        &base("epyc_7302", false),
        LinkScenario::Gmi,
        OpKind::Read,
        &[0.15, 1.0],
    );
    let (low, high) = (&pts[0], &pts[1]);
    assert!(
        (130.0..160.0).contains(&low.mean_ns),
        "low avg {}",
        low.mean_ns
    );
    assert!(
        (380.0..620.0).contains(&low.p999_ns),
        "low tail {}",
        low.p999_ns
    );
    // The knee: mean and tail both rise toward saturation. The magnitude is
    // gentler than the paper's 172.5/800 ns (see EXPERIMENTS.md: the
    // closed-loop in-flight budget bounds queue depth).
    assert!(
        high.mean_ns > low.mean_ns + 8.0,
        "knee missing: {}",
        high.mean_ns
    );
    assert!(
        high.p999_ns > low.p999_ns + 10.0,
        "tail rise missing: {}",
        high.p999_ns
    );
}

#[test]
fn fig3_if_7302_flatter_than_9634() {
    // Paper: the 7302 provisions enough IF bandwidth (flat latency); the
    // 9634's seven-core chiplet sees a clear rise near max bandwidth.
    let rel_rise = |platform: &str| {
        let pts = loaded_latency_sweep(
            &base(platform, true),
            LinkScenario::IfIntraCc,
            OpKind::Read,
            &[0.2, 1.0],
        );
        pts[1].mean_ns / pts[0].mean_ns
    };
    let r7302 = rel_rise("epyc_7302");
    let r9634 = rel_rise("epyc_9634");
    assert!(
        r9634 > r7302,
        "9634 IF should be less provisioned: rise {r9634:.3} vs {r7302:.3}"
    );
}

#[test]
fn fig4_all_four_cases_on_gmi_9634() {
    let topo = Topology::build(&PlatformSpec::epyc_9634());
    let base = base("epyc_9634", true);
    let c = CompeteLink::Gmi.capacity_gb_s(&topo);

    // Case 1: under-subscription — both satisfied.
    let out = competing_flows(
        &base,
        CompeteLink::Gmi,
        Some(0.3 * c),
        Some(0.4 * c),
        OpKind::Read,
    );
    assert!(
        out.achieved0_gb_s > 0.27 * c && out.achieved1_gb_s > 0.36 * c,
        "{out:?}"
    );

    // Case 3: equal demands — equal split.
    let out = competing_flows(
        &base,
        CompeteLink::Gmi,
        Some(0.75 * c),
        Some(0.75 * c),
        OpKind::Read,
    );
    assert!(
        (out.achieved0_gb_s / out.achieved1_gb_s - 1.0).abs() < 0.15,
        "{out:?}"
    );

    // Case 4: both above equal share — the aggressive flow takes more.
    let out = competing_flows(
        &base,
        CompeteLink::Gmi,
        Some(0.95 * c),
        Some(0.6 * c),
        OpKind::Read,
    );
    assert!(out.achieved0_gb_s > c / 2.0, "{out:?}");
    assert!(out.achieved0_gb_s > out.achieved1_gb_s * 1.15, "{out:?}");

    // Case 2: one small — the big flow exceeds its equal share.
    let out = competing_flows(
        &base,
        CompeteLink::Gmi,
        Some(0.25 * c),
        Some(0.9 * c),
        OpKind::Read,
    );
    assert!(out.achieved1_gb_s > c / 2.0, "{out:?}");
}

#[test]
fn fig5_harvest_timescales() {
    let run = |link: FluidLink| {
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
        let traces = sim.run(
            SimTime::from_secs(4),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
            11,
            None,
        );
        harvest_time_ms(
            &traces[1],
            SimTime::from_secs(2),
            Bandwidth::from_gb_per_s(cap / 2.0 + 1.9),
        )
        .expect("harvest completes")
    };
    let preset = |name: &str| FluidLinkSpec::Named(name.into()).resolve().unwrap();
    let t_if = run(preset("if_9634"));
    let t_plink = run(preset("plink_9634"));
    // Paper: ~100 ms on the IF, ~500 ms on the P-Link.
    assert!((40..=220).contains(&t_if), "IF harvest {t_if} ms");
    assert!(
        (300..=900).contains(&t_plink),
        "P-Link harvest {t_plink} ms"
    );
    assert!(t_plink > t_if * 2, "ordering: {t_plink} vs {t_if}");
}

#[test]
fn fig6_interference_structure_9634() {
    let base = base("epyc_9634", true);

    // Within a chiplet: a saturating read background squeezes both a read
    // and a write frontend (shared direction + shared limiter tokens)...
    for fg in [OpKind::Read, OpKind::WriteNonTemporal] {
        let pts = interference_sweep(
            &base,
            InterferenceDomain::IfIntraCc,
            fg,
            OpKind::Read,
            &[0.0, f64::INFINITY],
        );
        assert!(
            pts[1].fg_achieved_gb_s < pts[0].fg_achieved_gb_s * 0.92,
            "intra-CC {fg:?} frontend not squeezed: {pts:?}"
        );
    }
    // ...while a saturating WRITE background barely touches a read
    // frontend (opposite directions, paper's asymmetry).
    let pts = interference_sweep(
        &base,
        InterferenceDomain::IfIntraCc,
        OpKind::Read,
        OpKind::WriteNonTemporal,
        &[0.0, f64::INFINITY],
    );
    assert!(
        pts[1].fg_achieved_gb_s > pts[0].fg_achieved_gb_s * 0.9,
        "write background should spare reads: {pts:?}"
    );

    // Across chiplets the write flow is rarely affected (paper), while
    // reads contend on the shared segment.
    let pts = interference_sweep(
        &base,
        InterferenceDomain::IfInterCc,
        OpKind::WriteNonTemporal,
        OpKind::Read,
        &[0.0, f64::INFINITY],
    );
    assert!(
        pts[1].fg_achieved_gb_s > pts[0].fg_achieved_gb_s * 0.9,
        "cross-CC write frontend should be spared: {pts:?}"
    );
    let pts = interference_sweep(
        &base,
        InterferenceDomain::IfInterCc,
        OpKind::Read,
        OpKind::Read,
        &[0.0, f64::INFINITY],
    );
    assert!(
        pts[1].fg_achieved_gb_s < pts[0].fg_achieved_gb_s * 0.7,
        "cross-CC reads should contend: {pts:?}"
    );
}
