//! Ablation B: the chiplet tax. Re-runs the Table 2 latency probe and the
//! Figure 3 loaded-latency sweep on the monolithic baseline (same cores and
//! memory as the 7302, no chiplet partitioning) — the paper's implicit
//! point of contrast throughout §3.

use std::fmt::Write;

use chiplet_mem::OpKind;
use chiplet_membench::latency::{chase_latencies, latency, ChaseTarget};
use chiplet_membench::loaded::{load_points, loaded, LinkScenario};
use chiplet_net::scenario::{ScenarioReport, ScenarioSpec};
use chiplet_sim::ByteSize;
use chiplet_topology::{CoreId, DimmPosition};

use crate::{f1, TextTable};

/// The chiplet platform and the monolithic baseline, as probe bases.
fn bases() -> [(&'static str, ScenarioSpec); 2] {
    [
        ("chiplet", chiplet_membench::base("epyc_7302", true)),
        ("monolithic", chiplet_membench::base("monolithic", true)),
    ]
}

/// Every run of the study: 1 GiB chases from core 0 to each chiplet DIMM
/// position and to the monolithic die's near DIMM, then 30 GB/s of GMI
/// reads on each platform.
pub fn specs() -> Vec<ScenarioSpec> {
    let [(_, chiplet), (_, mono)] = bases();
    let gib = ByteSize::from_gib(1);
    let ladder = DimmPosition::ALL.map(|pos| (ChaseTarget::Dimm(pos), gib));
    let near = [(ChaseTarget::Dimm(DimmPosition::Near), gib)];
    let mut specs = latency(&chiplet, CoreId(0), &ladder).expect("the 7302 has every position");
    specs.extend(latency(&mono, CoreId(0), &near).expect("the monolithic die has a near DIMM"));
    for base in [chiplet, mono] {
        let topo = base.topology.resolve().expect("preset platforms build");
        let cap = LinkScenario::Gmi
            .nominal_cap(&topo, OpKind::Read)
            .as_gb_per_s();
        specs.extend(
            loaded(&base, LinkScenario::Gmi, OpKind::Read, &[30.0 / cap])
                .expect("GMI runs everywhere"),
        );
    }
    specs
}

/// Renders the study from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation B: chiplet (EPYC 7302) vs monolithic baseline.\n"
    );
    let (chases, streams) = reports.split_at(DimmPosition::ALL.len() + 1);
    let chases = chase_latencies(chases);

    // Latency: every DIMM position. The monolithic die has a single
    // uniform "position", so every chiplet row compares against it.
    let mut t = TextTable::new(vec!["DIMM position", "chiplet ns", "monolithic ns", "tax"]);
    let mono_uniform = chases[DimmPosition::ALL.len()];
    for (pos, c) in DimmPosition::ALL.iter().zip(&chases) {
        t.row(vec![
            pos.to_string(),
            f1(*c),
            f1(mono_uniform),
            format!("+{}%", f1((c / mono_uniform - 1.0) * 100.0)),
        ]);
    }
    let _ = writeln!(out, "Unloaded memory latency:");
    out.push_str(&t.render_indented("  "));

    // Loaded latency at the chiplet's GMI choke point vs the same cores on
    // the crossbar.
    let _ = writeln!(
        out,
        "\nLoaded latency, 4 cores streaming reads (offered = 30 GB/s):"
    );
    let mut t = TextTable::new(vec!["platform", "achieved GB/s", "avg ns", "P999 ns"]);
    for ((name, _), p) in bases().iter().zip(load_points(streams)) {
        t.row(vec![
            name.to_string(),
            f1(p.achieved_gb_s),
            f1(p.mean_ns),
            f1(p.p999_ns),
        ]);
    }
    out.push_str(&t.render_indented("  "));

    let _ = writeln!(
        out,
        "\nReading: the chiplet platform pays extra switch hops at every \
         position (and the position spread itself — the monolithic die is \
         uniform), plus GMI queueing under load that the over-provisioned \
         crossbar never sees. This is the latency/bandwidth cost chiplets \
         trade for yield and modularity (§2.1)."
    );
    out
}
