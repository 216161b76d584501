//! CXL memory tiering: a capacity-hungry application decides how much of
//! its working set to place on CXL expansion memory. The simulator
//! quantifies the bandwidth/latency cost of each split and the BDP monitor
//! (Implication #3) derives the in-flight budget each tier needs.
//!
//! Run with: `cargo run --release --example cxl_tiering`

use server_chiplet_networking::net::bdp::BdpMonitor;
use server_chiplet_networking::net::engine::{Engine, EngineConfig};
use server_chiplet_networking::net::flow::{FlowSpec, Target};
use server_chiplet_networking::sim::{Bandwidth, SimTime};
use server_chiplet_networking::topology::{CcdId, CoreId, PlatformSpec, Topology};

/// Runs one chiplet with a fraction of its accesses redirected to CXL and
/// returns (total GB/s, DRAM mean ns, CXL mean ns).
fn run_split(topo: &Topology, cxl_fraction: f64) -> (f64, f64, Option<f64>) {
    let cores: Vec<CoreId> = topo.cores_of_ccd(CcdId(0)).collect();
    // Split the chiplet's cores between the two tiers in proportion to
    // the access split (a page-placement policy would interleave; core
    // partitioning gives the same steady-state mix here).
    let cxl_cores = ((cores.len() as f64 * cxl_fraction).round() as usize).min(cores.len());
    let (cxl_set, dram_set) = cores.split_at(cxl_cores);

    let mut engine = Engine::new(topo, EngineConfig::default());
    if !dram_set.is_empty() {
        engine.add_flow(
            FlowSpec::reads("dram-tier", dram_set.to_vec(), Target::all_dimms(topo)).build(topo),
        );
    }
    if !cxl_set.is_empty() {
        engine.add_flow(FlowSpec::reads("cxl-tier", cxl_set.to_vec(), Target::Cxl(0)).build(topo));
    }
    let r = engine.run(SimTime::from_micros(60));
    let total: f64 = r.flows.iter().map(|f| f.achieved.as_gb_per_s()).sum();
    let dram_ns = r
        .flow("dram-tier")
        .map(|f| f.mean_latency_ns())
        .unwrap_or(f64::NAN);
    let cxl_ns = r.flow("cxl-tier").map(|f| f.mean_latency_ns());
    (total, dram_ns, cxl_ns)
}

fn main() {
    let topo = Topology::build(&PlatformSpec::epyc_9634());
    println!(
        "One CCD of the {} streaming reads, with 0–100% of accesses placed \
         on the CXL tier:\n",
        topo.spec().name
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "CXL share", "total GB/s", "DRAM ns", "CXL ns"
    );
    for pct in [0.0, 0.15, 0.30, 0.50, 0.70, 1.0] {
        let (total, dram_ns, cxl_ns) = run_split(&topo, pct);
        println!(
            "{:>9.0}% {total:>12.1} {:>12} {:>12}",
            pct * 100.0,
            if dram_ns.is_nan() {
                "—".to_string()
            } else {
                format!("{dram_ns:.0}")
            },
            cxl_ns.map_or("—".to_string(), |v| format!("{v:.0}")),
        );
    }

    // BDP budgeting for the two tiers (Implication #3): how many cachelines
    // in flight each path needs to stay busy.
    let mut dram_bdp = BdpMonitor::new(0.3);
    let mut cxl_bdp = BdpMonitor::new(0.3);
    dram_bdp.observe(Bandwidth::from_gb_per_s(33.2), 146.0);
    cxl_bdp.observe(Bandwidth::from_gb_per_s(24.3), 243.0);
    println!(
        "\nBDP budgets: DRAM path {} ({} lines), CXL path {} ({} lines).",
        dram_bdp.bdp(),
        dram_bdp.recommended_inflight(),
        cxl_bdp.bdp(),
        cxl_bdp.recommended_inflight()
    );
    println!(
        "Moving accesses to CXL trades ~70% higher latency for extra \
         capacity; past the per-CCD CXL port (~24 GB/s) the tier also costs \
         bandwidth — the interconnect wall of Implication #2."
    );
}
