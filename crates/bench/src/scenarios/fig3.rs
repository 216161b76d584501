//! Figure 3: average and P999 latency versus offered load on the Infinity
//! Fabric, GMI, and P-Link/CXL of both processors.
//!
//! Panels (as in the paper):
//!   (a) 7302 IF intra-CC   (b) 9634 IF intra-CC   (c) 7302 IF inter-CC
//!   (d) 7302 GMI           (e) 9634 GMI           (f) 9634 P-Link/CXL
//!
//! Each panel prints one series per operation (sequential read,
//! non-temporal write): offered load, achieved bandwidth, mean and P999
//! latency. Every point is a [`loaded`] spec; the figure runs all 120 of
//! them as one point list and folds each series with [`load_points`].

use std::fmt::Write;

use chiplet_mem::OpKind;
use chiplet_membench::loaded::{default_fractions, load_points, loaded, LinkScenario};
use chiplet_net::scenario::{ScenarioReport, ScenarioSpec};

use crate::{f1, TextTable};

/// The panels in figure order: (platform preset, link, label).
const PANELS: [(&str, LinkScenario, &str); 6] = [
    ("epyc_7302", LinkScenario::IfIntraCc, "a"),
    ("epyc_9634", LinkScenario::IfIntraCc, "b"),
    ("epyc_7302", LinkScenario::IfInterCc, "c"),
    ("epyc_7302", LinkScenario::Gmi, "d"),
    ("epyc_9634", LinkScenario::Gmi, "e"),
    ("epyc_9634", LinkScenario::PlinkCxl, "f"),
];

/// The series of every panel: sequential reads, then non-temporal writes.
const OPS: [OpKind; 2] = [OpKind::Read, OpKind::WriteNonTemporal];

/// Every point of the figure: panel by panel, series by series, load by
/// load.
pub fn specs() -> Vec<ScenarioSpec> {
    PANELS
        .iter()
        .flat_map(|&(platform, scenario, _)| {
            let base = chiplet_membench::base(platform, false);
            OPS.iter().flat_map(move |&op| {
                loaded(&base, scenario, op, &default_fractions())
                    .expect("every Figure 3 panel runs on its platform")
            })
        })
        .collect()
}

/// Renders the full figure from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let mut series = reports.chunks(default_fractions().len());
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3: interconnect latency under load.\n");
    for (_, scenario, label) in PANELS {
        for (i, op) in OPS.iter().enumerate() {
            let reports = series.next().expect("one series per panel and op");
            if i == 0 {
                let platform = &reports[0].outcome().expect("event runs complete").platform;
                let _ = writeln!(
                    out,
                    "[{label}] {platform} — {scenario}: latency vs offered load"
                );
            }
            let mut t = TextTable::new(vec!["offered GB/s", "achieved GB/s", "avg ns", "P999 ns"]);
            for p in load_points(reports) {
                t.row(vec![
                    f1(p.offered_gb_s),
                    f1(p.achieved_gb_s),
                    f1(p.mean_ns),
                    f1(p.p999_ns),
                ]);
            }
            let _ = writeln!(out, "  op = {op}");
            out.push_str(&t.render_indented("    "));
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(
        out,
        "Paper reference points: 7302 GMI reads rise 123.7/470 ns -> \
         172.5/800 ns (avg/P999) toward saturation; 9634 GMI reads \
         143.7/380 -> 249.5/810 ns; 7302 IF stays flat; 9634 IF sees ~2x \
         at max bandwidth; 9634 P-Link sees 1.7/1.4x (read) and 2.1/1.6x \
         (write) increases."
    );
    out
}
