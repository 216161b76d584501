//! End-to-end calibration: the full stack (topology → fabric/mem → engine →
//! membench probes) reproduces Tables 2 and 3 within tolerance.

use server_chiplet_networking::membench::bandwidth::{table3_column, Destination};
use server_chiplet_networking::membench::latency::{
    chase_sweep, cxl_latency, default_working_sets, position_latencies,
};
use server_chiplet_networking::membench::{base, CoreScope};
use server_chiplet_networking::topology::CoreId;

fn within(value: f64, expected: f64, tol: f64) -> bool {
    (value - expected).abs() <= expected * tol
}

#[test]
fn table2_position_latencies_both_platforms() {
    // (platform, paper rows near/vert/horiz/diag).
    let cases = [
        ("epyc_7302", [124.0, 131.0, 141.0, 145.0]),
        ("epyc_9634", [141.0, 145.0, 150.0, 149.0]),
    ];
    for (platform, paper) in cases {
        let rows = position_latencies(&base(platform, true), CoreId(0));
        assert_eq!(rows.len(), 4);
        for ((pos, measured), expected) in rows.iter().zip(paper) {
            assert!(
                within(*measured, expected, 0.04),
                "{platform} {pos}: {measured} vs paper {expected}"
            );
        }
    }
}

#[test]
fn table2_cache_walk_matches_hierarchy() {
    let pts = chase_sweep(&base("epyc_9634", true), CoreId(0), &default_working_sets());
    // Monotone nondecreasing, L1 at the front, DRAM at the back.
    for w in pts.windows(2) {
        assert!(w[1].latency_ns >= w[0].latency_ns - 1e-9);
    }
    assert!((pts[0].latency_ns - 1.19).abs() < 1e-6);
    let last = pts.last().unwrap().latency_ns;
    assert!(within(last, 141.0, 0.05), "DRAM plateau {last}");
}

#[test]
fn table2_cxl_row() {
    let lat = cxl_latency(&base("epyc_9634", true), CoreId(0)).unwrap();
    assert!(within(lat, 243.0, 0.05), "CXL latency {lat}");
}

#[test]
fn table3_dimm_column_7302() {
    let rows = table3_column(&base("epyc_7302", true), Destination::Dimms).unwrap();
    let paper = [
        (CoreScope::Core, 14.9, 3.6),
        (CoreScope::Ccx, 25.1, 7.1),
        (CoreScope::Ccd, 32.5, 14.3),
        (CoreScope::Cpu, 106.7, 55.1),
    ];
    for (row, (scope, r, w)) in rows.iter().zip(paper) {
        assert_eq!(row.scope, scope);
        assert!(
            within(row.read_gb_s, r, 0.10),
            "{scope} read {}",
            row.read_gb_s
        );
        assert!(
            within(row.write_gb_s, w, 0.15),
            "{scope} write {}",
            row.write_gb_s
        );
    }
}

#[test]
fn table3_dimm_column_9634() {
    let rows = table3_column(&base("epyc_9634", true), Destination::Dimms).unwrap();
    // CCX and CCD coincide on Zen 4; the paper's two rows bracket our GMI
    // capacity, so tolerate against the CCD row.
    let paper = [
        (CoreScope::Core, 14.6, 3.3),
        (CoreScope::Ccx, 33.2, 23.6),
        (CoreScope::Ccd, 33.2, 23.6),
        (CoreScope::Cpu, 366.2, 270.6),
    ];
    for (row, (scope, r, w)) in rows.iter().zip(paper) {
        assert!(
            within(row.read_gb_s, r, 0.10),
            "{scope} read {}",
            row.read_gb_s
        );
        assert!(
            within(row.write_gb_s, w, 0.15),
            "{scope} write {}",
            row.write_gb_s
        );
    }
}

#[test]
fn table3_cxl_column_9634() {
    let rows = table3_column(&base("epyc_9634", true), Destination::Cxl).unwrap();
    let paper = [
        (CoreScope::Core, 5.4, 2.8),
        (CoreScope::Ccx, 23.6, 15.8),
        (CoreScope::Ccd, 25.0, 15.0),
        (CoreScope::Cpu, 88.1, 87.7),
    ];
    for (row, (scope, r, w)) in rows.iter().zip(paper) {
        assert!(
            within(row.read_gb_s, r, 0.13),
            "{scope} cxl read {} vs {r}",
            row.read_gb_s
        );
        assert!(
            within(row.write_gb_s, w, 0.18),
            "{scope} cxl write {} vs {w}",
            row.write_gb_s
        );
    }
}

#[test]
fn paper_claim_cxl_is_slower_than_dimm_by_the_reported_factors() {
    // §3.3: single core 63.0%/22.2% lower read/write... actually the paper
    // reports CXL below local DIMM by 63.0/22.2% (core), 33.0/33.6% (CCD),
    // 78.1/69.3% (CPU) — check the ordering and rough factors for reads.
    let base = base("epyc_9634", true);
    let dimm = table3_column(&base, Destination::Dimms).unwrap();
    let cxl = table3_column(&base, Destination::Cxl).unwrap();
    for (d, c) in dimm.iter().zip(&cxl) {
        assert!(
            c.read_gb_s < d.read_gb_s,
            "{}: CXL read {} not below DIMM {}",
            d.scope,
            c.read_gb_s,
            d.read_gb_s
        );
    }
    // Single-core: ~63% lower.
    let drop = 1.0 - cxl[0].read_gb_s / dimm[0].read_gb_s;
    assert!((0.5..0.75).contains(&drop), "core-level CXL drop {drop}");
    // Socket: ~78% lower.
    let drop = 1.0 - cxl[3].read_gb_s / dimm[3].read_gb_s;
    assert!((0.68..0.85).contains(&drop), "socket-level CXL drop {drop}");
}
