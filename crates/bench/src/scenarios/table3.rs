//! Table 3: maximum achieved bandwidth from a core / CCX / CCD / CPU when
//! accessing the DIMMs and the CXL device, with AVX-style sequential reads
//! and non-temporal writes.

use std::fmt::Write;

use chiplet_membench::bandwidth::{bandwidth, table3_rows, Destination};
use chiplet_membench::CoreScope;
use chiplet_net::scenario::{ScenarioReport, ScenarioSpec};

use crate::{rw, TextTable};

/// The table's columns: (platform preset, destination).
const COLUMNS: [(&str, Destination); 3] = [
    ("epyc_7302", Destination::Dimms),
    ("epyc_9634", Destination::Dimms),
    ("epyc_9634", Destination::Cxl),
];

/// Every bandwidth probe the table runs, column by column.
pub fn specs() -> Vec<ScenarioSpec> {
    COLUMNS
        .iter()
        .flat_map(|&(platform, dest)| {
            bandwidth(&chiplet_membench::base(platform, true), dest)
                .expect("every column's destination exists")
        })
        .collect()
}

/// Renders the table from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let columns: Vec<_> = reports
        .chunks(reports.len() / COLUMNS.len())
        .map(table3_rows)
        .collect();
    let [dimm_7302, dimm_9634, cxl_9634] = &columns[..] else {
        unreachable!("three columns");
    };

    let mut t = TextTable::new(vec![
        "From",
        "DIMM 7302 (sim)",
        "paper",
        "DIMM 9634 (sim)",
        "paper",
        "CXL 9634 (sim)",
        "paper",
    ]);
    for (i, scope) in CoreScope::ALL.iter().enumerate() {
        let (p0, p1, p2) = paper_row(*scope);
        t.row(vec![
            format!("From {scope}"),
            rw(dimm_7302[i].read_gb_s, dimm_7302[i].write_gb_s),
            p0.to_string(),
            rw(dimm_9634[i].read_gb_s, dimm_9634[i].write_gb_s),
            p1.to_string(),
            rw(cxl_9634[i].read_gb_s, cxl_9634[i].write_gb_s),
            p2.to_string(),
        ]);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: maximum achieved read/write bandwidth (GB/s), sequential \
         reads and non-temporal writes.\n"
    );
    let _ = write!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "\nNote: the 7302 has no CXL attachment (N/A in the paper); the CXL \
         column here is the 9634's. On the 9634 the CCX and CCD scopes are \
         the same seven cores; the paper's 35.2 vs 33.2 GB/s difference is \
         measurement spread, the simulator binds both at the GMI capacity."
    );
    out
}

/// Paper values: ((dimm_7302, dimm_9634, cxl_9634) per scope, read/write).
fn paper_row(scope: CoreScope) -> (&'static str, &'static str, &'static str) {
    match scope {
        CoreScope::Core => ("14.9/3.6", "14.6/3.3", "5.4/2.8"),
        CoreScope::Ccx => ("25.1/7.1", "35.2/23.8", "23.6/15.8"),
        CoreScope::Ccd => ("32.5/14.3", "33.2/23.6", "25.0/15.0"),
        CoreScope::Cpu => ("106.7/55.1", "366.2/270.6", "88.1/87.7"),
    }
}
