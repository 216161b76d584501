//! Figure 6: read/write interference at the IF, GMI, and P-Link/CXL on the
//! EPYC 9634. A frontend stream X runs at max rate while the background
//! stream Y is swept; each panel reports X's achieved bandwidth for every
//! X-Y combination (R-R, R-W, W-R, W-W).

use std::fmt::Write;

use chiplet_mem::OpKind;
use chiplet_membench::interference::{interference, interference_points, InterferenceDomain};
use chiplet_net::scenario::{ScenarioReport, ScenarioSpec};

use crate::{f1, TextTable};

/// The panels in figure order.
const DOMAINS: [InterferenceDomain; 4] = [
    InterferenceDomain::IfIntraCc,
    InterferenceDomain::IfInterCc,
    InterferenceDomain::Gmi,
    InterferenceDomain::PLink,
];

/// Background sweep: off, then fractions of a generous ceiling, then
/// unthrottled (the onset regime).
const LOADS: [f64; 9] = [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, f64::INFINITY];

/// Each panel's (frontend, background) combinations: R-R, R-W, W-R, W-W.
const COMBOS: [(OpKind, OpKind); 4] = [
    (OpKind::Read, OpKind::Read),
    (OpKind::Read, OpKind::WriteNonTemporal),
    (OpKind::WriteNonTemporal, OpKind::Read),
    (OpKind::WriteNonTemporal, OpKind::WriteNonTemporal),
];

fn op_letter(op: OpKind) -> &'static str {
    match op {
        OpKind::Read => "R",
        _ => "W",
    }
}

/// Every point of the figure: domain by domain, combination by
/// combination, load by load.
pub fn specs() -> Vec<ScenarioSpec> {
    let base = chiplet_membench::base("epyc_9634", false);
    DOMAINS
        .iter()
        .flat_map(|&domain| COMBOS.map(|(fg, bg)| (domain, fg, bg)))
        .flat_map(|(domain, fg, bg)| {
            interference(&base, domain, fg, bg, &LOADS).expect("the 9634 runs every domain")
        })
        .collect()
}

fn panel(
    out: &mut String,
    domain: InterferenceDomain,
    runs: &mut std::slice::Chunks<'_, ScenarioReport>,
) {
    let _ = writeln!(out, "{domain}:");
    for (fg, bg) in COMBOS {
        let pts = interference_points(&LOADS, runs.next().expect("one run per combination"));
        let mut t = TextTable::new(vec!["bg offered", "bg achieved", "X achieved"]);
        for p in &pts {
            t.row(vec![
                if p.bg_offered_gb_s.is_finite() {
                    f1(p.bg_offered_gb_s)
                } else {
                    "max".to_string()
                },
                f1(p.bg_achieved_gb_s),
                f1(p.fg_achieved_gb_s),
            ]);
        }
        let baseline = pts[0].fg_achieved_gb_s;
        let worst = pts
            .iter()
            .map(|p| p.fg_achieved_gb_s)
            .fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            out,
            "  X={} vs Y={}  (X alone: {} GB/s; worst under Y: {} GB/s)",
            op_letter(fg),
            op_letter(bg),
            f1(baseline),
            f1(worst)
        );
        out.push_str(&t.render_indented("    "));
    }
    let _ = writeln!(out);
}

/// Renders the full figure from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let mut runs = reports.chunks(LOADS.len());
    let mut out = String::new();
    let _ = writeln!(out, "Figure 6: read/write interference on the EPYC 9634.\n");
    for domain in DOMAINS {
        panel(&mut out, domain, &mut runs);
    }
    let _ = writeln!(
        out,
        "Paper shape: within a CC, frontend writes and reads degrade once \
         the background READ stream saturates (shared limiter tokens), \
         while a write background induces little interference; across CCs \
         interference appears only at much higher aggregate bandwidth \
         (shared UMCs/NoC paths); GMI and P-Link interfere once the shared \
         directional capacity saturates."
    );
    out
}
