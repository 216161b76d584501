//! Fused intra-/inter-host stack study (§4 #3): a 400 GbE-class NIC's DMA
//! traffic versus the chiplet network. The paper's observation — "a
//! 400+GbE terabit Ethernet port ... can sometimes drive more bandwidth
//! than a compute chiplet" — and the orchestration remedy.
//!
//! The contention runs are declarative [`ScenarioSpec`]s (app writes + NIC
//! RX DMA as two flows) on the event backend and the `epyc_9634_nic`
//! platform preset; [`specs`] lists them and [`render`] folds their
//! reports.

use std::fmt::Write;

use chiplet_mem::OpKind;
use chiplet_net::scenario::{
    BackendKind, CoreSelect, EngineFlow, EngineOptions, ScenarioFlow, ScenarioReport, ScenarioSpec,
    TargetSpec, TopologyChoice,
};
use chiplet_net::traffic::TrafficPolicy;
use chiplet_sim::SimTime;
use chiplet_topology::{NicSpec, PlatformSpec};

use crate::{f1, TextTable};

fn write_flow(name: &str, nic: Option<u32>, dimms: Vec<u32>) -> ScenarioFlow {
    ScenarioFlow {
        name: name.to_string(),
        demand: None,
        engine: Some(EngineFlow {
            cores: CoreSelect::Ccd(0),
            nic,
            target: TargetSpec::Dimms(dimms),
            op: Some(OpKind::WriteNonTemporal),
            pattern: None,
            working_set: None,
            start: None,
            stop: None,
        }),
        links: Vec::new(),
    }
}

fn storm_spec(policy: TrafficPolicy, rx_dimms: Vec<u32>) -> ScenarioSpec {
    ScenarioSpec {
        name: "fused_stack storm".to_string(),
        description: "Application writes vs a NIC RX DMA storm".to_string(),
        topology: TopologyChoice::Named("epyc_9634_nic".to_string()),
        backend: BackendKind::Event,
        seed: None,
        horizon: SimTime::from_micros(60),
        policy,
        engine: Some(EngineOptions {
            deterministic_memory: true,
            ..Default::default()
        }),
        fluid: None,
        flows: vec![
            write_flow("app", None, vec![0, 1]),
            write_flow("nic-rx", Some(0), rx_dimms),
        ],
    }
}

/// The storm's traffic policies, in table order.
fn policies() -> [(&'static str, TrafficPolicy); 3] {
    [
        ("hardware (unmanaged)", TrafficPolicy::HardwareDefault),
        ("max-min fair", TrafficPolicy::MaxMinFair),
        (
            "NIC rate-capped at 25",
            TrafficPolicy::RateLimit {
                caps_gb_s: vec![f64::INFINITY, 25.0],
            },
        ),
    ]
}

/// Every run of the study: the storm on the app's two DIMMs under each
/// policy, then unmanaged with the RX buffers on six other DIMMs.
pub fn specs() -> Vec<ScenarioSpec> {
    let placed = storm_spec(TrafficPolicy::HardwareDefault, (6..12).collect());
    let storms = policies().map(|(_, policy)| storm_spec(policy, vec![0, 1]));
    storms.into_iter().chain([placed]).collect()
}

/// A storm's (app, NIC RX) achieved GB/s.
fn storm_result(report: &ScenarioReport) -> (f64, f64) {
    let outcome = report.outcome().expect("event runs complete");
    (
        outcome.flow("app").unwrap().achieved_gb_s,
        outcome.flow("nic-rx").unwrap().achieved_gb_s,
    )
}

/// Renders the study from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let (storms, placed) = reports.split_at(policies().len());
    let spec = PlatformSpec::epyc_9634().with_nic(NicSpec::gbe400());
    let mut out = String::new();
    let _ = writeln!(out, "Fused-stack study: {} + 400 GbE NIC\n", spec.name);

    // 1. The §4 #3 observation: the NIC vs one compute chiplet.
    let mut t = TextTable::new(vec!["engine", "into memory GB/s", "from memory GB/s"]);
    let nic_spec = spec.nic.as_ref().unwrap();
    t.row(vec![
        "400 GbE NIC (line rate)".to_string(),
        f1(nic_spec.dma_write_bw.as_gb_per_s()),
        f1(nic_spec.dma_read_bw.as_gb_per_s()),
    ]);
    t.row(vec![
        "one compute chiplet (GMI)".to_string(),
        f1(spec.caps.gmi_write.as_gb_per_s()),
        f1(spec.caps.gmi_read.as_gb_per_s()),
    ]);
    out.push_str(&t.render_indented("  "));
    let _ = writeln!(
        out,
        "  -> the inter-host fabric outruns the intra-host chiplet link \
         (the paper's §4 #3 premise).\n"
    );

    // 2. RX storm vs an application writing to the same memory: hardware
    //    default vs managed.
    let _ = writeln!(
        out,
        "RX DMA storm vs application writes to the same two DIMMs:"
    );
    let mut t = TextTable::new(vec!["policy", "app writes GB/s", "NIC RX GB/s"]);
    for ((name, _), report) in policies().iter().zip(storms) {
        let (app, nic) = storm_result(report);
        t.row(vec![name.to_string(), f1(app), f1(nic)]);
    }
    out.push_str(&t.render_indented("  "));

    // 3. Placement as orchestration: steering the RX ring to other UMCs.
    let _ = writeln!(
        out,
        "\nPlacement orchestration: move the RX buffers off the app's DIMMs:"
    );
    let (app, nic) = storm_result(&placed[0]);
    let _ = writeln!(
        out,
        "  app writes {} GB/s, NIC RX {} GB/s — both at full rate.",
        f1(app),
        f1(nic)
    );
    let _ = writeln!(
        out,
        "\nReading: unmanaged, the deep-queued DMA engine crushes the \
         application at the shared UMCs; a traffic manager (rate caps or \
         fairness) or NUMA-aware buffer placement restores it — the \
         'judicious orchestration' §4 #3 calls for."
    );
    out
}
