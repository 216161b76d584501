//! Figure 4: bandwidth partitioning of two competing flows at a shared
//! link, for the paper's four demand cases, on both processors and all
//! three link classes.

use std::fmt::Write;

use chiplet_mem::OpKind;
use chiplet_membench::compete::{compete, figure4_cases, outcomes, CompeteLink};
use chiplet_net::scenario::{ScenarioReport, ScenarioSpec};
use chiplet_topology::Topology;

use crate::{f1, TextTable};

/// The panels in figure order, link by link on both processors.
fn panels() -> Vec<(&'static str, Topology, CompeteLink)> {
    [CompeteLink::IfIntraCc, CompeteLink::Gmi, CompeteLink::PLink]
        .into_iter()
        .flat_map(|link| {
            ["epyc_7302", "epyc_9634"].map(|platform| {
                let topo = chiplet_membench::base(platform, false)
                    .topology
                    .resolve()
                    .expect("preset platforms build");
                (platform, topo, link)
            })
        })
        .collect()
}

/// A panel's four case specs, or why its platform can't run it.
fn case_specs(
    platform: &str,
    topo: &Topology,
    link: CompeteLink,
) -> Result<Vec<ScenarioSpec>, &'static str> {
    if let Some(reason) = link.unsupported_reason(topo) {
        return Err(reason);
    }
    let demands: Vec<_> = figure4_cases(link.capacity_gb_s(topo))
        .iter()
        .map(|&(_, d0, d1)| (Some(d0), Some(d1)))
        .collect();
    compete(
        &chiplet_membench::base(platform, false),
        link,
        &demands,
        OpKind::Read,
    )
}

/// Every competition the figure runs, panel by panel.
pub fn specs() -> Vec<ScenarioSpec> {
    panels()
        .iter()
        .flat_map(|(platform, topo, link)| case_specs(platform, topo, *link).unwrap_or_default())
        .collect()
}

fn panel(out: &mut String, topo: &Topology, link: CompeteLink, runs: &[ScenarioReport]) {
    let c = link.capacity_gb_s(topo);
    let _ = writeln!(
        out,
        "{} — {link} (shared capacity ~{} GB/s, equal share {}):",
        topo.spec().name,
        f1(c),
        f1(c / 2.0)
    );
    let mut t = TextTable::new(vec![
        "case",
        "req0",
        "req1",
        "achieved0",
        "achieved1",
        "verdict",
    ]);
    for ((name, d0, d1), o) in figure4_cases(c).into_iter().zip(outcomes(runs)) {
        let equal_share = c / 2.0;
        let verdict = if d0 + d1 <= c {
            "both satisfied"
        } else if (o.achieved0_gb_s - o.achieved1_gb_s).abs() < 0.03 * c {
            "equal split"
        } else if o.achieved0_gb_s > equal_share && o.achieved0_gb_s > o.achieved1_gb_s {
            "aggressive flow0 wins"
        } else if o.achieved1_gb_s > equal_share {
            "aggressive flow1 wins"
        } else {
            "shared below equal"
        };
        t.row(vec![
            name.to_string(),
            f1(d0),
            f1(d1),
            f1(o.achieved0_gb_s),
            f1(o.achieved1_gb_s),
            verdict.to_string(),
        ]);
    }
    out.push_str(&t.render_indented("  "));
    let _ = writeln!(out);
}

/// Renders the full figure from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let mut runs = reports.chunks(figure4_cases(0.0).len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: sender-driven bandwidth partitioning, four cases.\n"
    );
    for (_, topo, link) in panels() {
        if link.unsupported_reason(&topo).is_some() {
            let _ = writeln!(out, "{} — {link}: not supported\n", topo.spec().name);
        } else {
            panel(
                &mut out,
                &topo,
                link,
                runs.next().expect("one run per case"),
            );
        }
    }
    let _ = writeln!(
        out,
        "Paper shape: case 1 both flows get their requests; cases 2 and 4 \
         the higher-demand flow takes more than its equal share \
         (sender-driven aggressive); case 3 equal demands split evenly."
    );
    out
}
