//! Table 1: hardware specifications of the two evaluated processors,
//! straight from the platform presets.

use std::fmt::Write;

use chiplet_net::scenario::ScenarioReport;
use chiplet_topology::PlatformSpec;

use crate::TextTable;

/// Renders the table. It has no points: every cell is a preset parameter.
pub fn render(_reports: &[ScenarioReport]) -> String {
    let specs = [PlatformSpec::epyc_7302(), PlatformSpec::epyc_9634()];
    let mut t = TextTable::new(vec![
        "Parameters".to_string(),
        specs[0].name.clone(),
        specs[1].name.clone(),
    ]);
    let col =
        |f: &dyn Fn(&PlatformSpec) -> String| -> Vec<String> { specs.iter().map(f).collect() };
    let mut row = |label: &str, f: &dyn Fn(&PlatformSpec) -> String| {
        let mut cells = vec![label.to_string()];
        cells.extend(col(f));
        t.row(cells);
    };
    row("Microarchitecture", &|s| s.microarchitecture.clone());
    row("L1 (per core)", &|s| s.cache.l1_size.to_string());
    row("L2 (per core)", &|s| s.cache.l2_size.to_string());
    row("L3 (per CPU)", &|s| s.total_l3().to_string());
    row("Core#/CCX#/CCD# (per CPU)", &|s| {
        format!("{}/{}/{}", s.total_cores(), s.total_ccx(), s.ccd_count)
    });
    row("Compute Chiplets # (per CPU)", &|s| s.ccd_count.to_string());
    row("Process technology (Compute Die)", &|s| {
        format!("{}nm", s.process_compute_nm)
    });
    row("I/O Chiplets # (per CPU)", &|_| "1".to_string());
    row("Process technology (I/O Die)", &|s| {
        format!("{}nm", s.process_io_nm)
    });
    row("PCIe Gen/Lane #", &|s| {
        format!("Gen{}/{}", s.pcie_gen, s.pcie_lanes)
    });
    row("Base/Turbo Frequency", &|s| {
        format!("{}/{} GHz", s.base_freq_ghz, s.turbo_freq_ghz)
    });
    row("UMC # (per CPU)", &|s| s.mem.umc_count.to_string());
    row("CXL modules", &|s| {
        s.cxl
            .as_ref()
            .map_or("N/A".to_string(), |c| c.device_count.to_string())
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: HW specifications of the two evaluated processors.\n"
    );
    let _ = write!(out, "{}", t.render());
    out
}
