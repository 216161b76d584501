//! Table 2: the data-path latency breakdown, measured with the utility's
//! pointer-chasing mode exactly as §3.1 describes — working set swept
//! through the hierarchy, then DIMMs at each relative position, then the
//! CXL module.

use std::fmt::Write;

use chiplet_membench::latency::{chase_latencies, latency, ChaseTarget};
use chiplet_net::scenario::{ScenarioReport, ScenarioSpec};
use chiplet_sim::ByteSize;
use chiplet_topology::{CoreId, DimmPosition, PlatformSpec, Topology};

use crate::{f1, TextTable};

/// Paper values for the comparison column: (7302, 9634).
fn paper_value(row: &str) -> (&'static str, &'static str) {
    match row {
        "L1" => ("1.24", "1.19"),
        "L2" => ("5.66", "7.51"),
        "L3" => ("34.3", "40.8"),
        "Max CCX Q" => ("30", "20"),
        "Max CCD Q" => ("20", "N/A"),
        "Switching Hop" => ("~8", "~4"),
        "I/O Hub" => ("~15", "~15"),
        "Near" => ("124", "141"),
        "Vertical" => ("131", "145"),
        "Horizontal" => ("141", "150"),
        "Diagonal" => ("145", "149"),
        "CXL DIMM" => ("N/A", "243"),
        _ => ("", ""),
    }
}

/// The two platforms, as probe-base preset names and built topologies.
fn platforms() -> [(&'static str, Topology); 2] {
    [
        ("epyc_7302", Topology::build(&PlatformSpec::epyc_7302())),
        ("epyc_9634", Topology::build(&PlatformSpec::epyc_9634())),
    ]
}

/// One platform's chases from core 0: firmly inside L1, L2 and L3 (16 KiB,
/// 256 KiB, 8 MiB to the near DIMM), then 1 GiB to each DIMM position, then
/// 1 GiB to the CXL device when there is one.
fn probes(topo: &Topology) -> Vec<(ChaseTarget, ByteSize)> {
    let near = ChaseTarget::Dimm(DimmPosition::Near);
    let gib = ByteSize::from_gib(1);
    [
        ByteSize::from_kib(16),
        ByteSize::from_kib(256),
        ByteSize::from_mib(8),
    ]
    .map(|ws| (near, ws))
    .into_iter()
    .chain(DimmPosition::ALL.map(|pos| (ChaseTarget::Dimm(pos), gib)))
    .chain((topo.cxl_device_count() > 0).then_some((ChaseTarget::Cxl, gib)))
    .collect()
}

/// Every chase the table runs, both platforms in order.
pub fn specs() -> Vec<ScenarioSpec> {
    platforms()
        .iter()
        .flat_map(|(name, topo)| {
            let base = chiplet_membench::base(name, true);
            latency(&base, CoreId(0), &probes(topo)).expect("probes target present devices")
        })
        .collect()
}

/// Renders the table from the reports of [`specs`].
pub fn render(reports: &[ScenarioReport]) -> String {
    let platforms = platforms().map(|(_, topo)| topo);
    let mut latencies = chase_latencies(reports).into_iter();
    // Per platform: [L1, L2, L3, near, vertical, horizontal, diagonal, CXL?].
    let measured: Vec<Vec<f64>> = platforms
        .iter()
        .map(|topo| latencies.by_ref().take(probes(topo).len()).collect())
        .collect();

    let mut t = TextTable::new(vec![
        "Level",
        "Row",
        "EPYC 7302 (sim)",
        "paper",
        "EPYC 9634 (sim)",
        "paper",
    ]);

    // Cache rows: the chase's plateau value inside each level.
    for (i, label) in ["L1", "L2", "L3"].iter().enumerate() {
        let (p0, p1) = paper_value(label);
        t.row(vec![
            "Compute Chiplet".to_string(),
            (*label).to_string(),
            format!("{:.2} ns", measured[0][i]),
            p0.to_string(),
            format!("{:.2} ns", measured[1][i]),
            p1.to_string(),
        ]);
    }

    // Limiter rows: the configured maxima (calibration inputs; the engine's
    // limiter sizing reproduces them as worst-case waits).
    for label in ["Max CCX Q", "Max CCD Q"] {
        let (p0, p1) = paper_value(label);
        let val = |topo: &Topology| -> String {
            let tc = &topo.spec().traffic_ctrl;
            let v = if label == "Max CCX Q" {
                Some(tc.ccx_max_queue_ns)
            } else {
                tc.ccd_max_queue_ns
            };
            v.map_or("N/A".to_string(), |x| format!("{} ns", f1(x)))
        };
        t.row(vec![
            "Compute Chiplet".to_string(),
            label.to_string(),
            val(&platforms[0]),
            p0.to_string(),
            val(&platforms[1]),
            p1.to_string(),
        ]);
    }

    for label in ["Switching Hop", "I/O Hub"] {
        let (p0, p1) = paper_value(label);
        let val = |topo: &Topology| {
            let noc = &topo.spec().noc;
            let v = if label == "Switching Hop" {
                noc.shop_latency_ns
            } else {
                noc.io_hub_latency_ns
            };
            format!("~{} ns", f1(v))
        };
        t.row(vec![
            "I/O Chiplet".to_string(),
            label.to_string(),
            val(&platforms[0]),
            p0.to_string(),
            val(&platforms[1]),
            p1.to_string(),
        ]);
    }

    // Memory position rows: measured by pointer chase over a 1 GiB set.
    for (i, pos) in DimmPosition::ALL.iter().enumerate() {
        let label = match pos {
            DimmPosition::Near => "Near",
            DimmPosition::Vertical => "Vertical",
            DimmPosition::Horizontal => "Horizontal",
            DimmPosition::Diagonal => "Diagonal",
            DimmPosition::Remote => unreachable!("Table 2 covers local positions"),
        };
        let (p0, p1) = paper_value(label);
        t.row(vec![
            "Memory/Device".to_string(),
            label.to_string(),
            format!("{} ns", f1(measured[0][3 + i])),
            p0.to_string(),
            format!("{} ns", f1(measured[1][3 + i])),
            p1.to_string(),
        ]);
    }

    // CXL row.
    let (p0, p1) = paper_value("CXL DIMM");
    let cxl_cell = |m: &[f64]| {
        m.get(7)
            .map_or("N/A".to_string(), |v| format!("{} ns", f1(*v)))
    };
    t.row(vec![
        "Memory/Device".to_string(),
        "CXL DIMM".to_string(),
        cxl_cell(&measured[0]),
        p0.to_string(),
        cxl_cell(&measured[1]),
        p1.to_string(),
    ]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: data-path latency breakdown (pointer-chasing mode).\n"
    );
    let _ = write!(out, "{}", t.render());
    out
}
