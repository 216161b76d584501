//! NoC design-space study (§2.3 lists Mesh/Torus topologies and buffered
//! vs bufferless routing as the I/O die's design choices; §4 #5 calls for
//! chiplet-centric benchmarking). Sweeps injection rate for each topology ×
//! routing combination under uniform and hotspot traffic.
//!
//! This study exercises the cycle-level NoC model directly — it involves
//! neither the event engine nor the fluid sim, so there is nothing for the
//! scenario backends to run. It is the one study with no point list: its
//! render drives [`NocSim`] itself, across worker threads, because no
//! backend runs the NoC model.

use std::fmt::Write;

use chiplet_net::scenario::{parallel_ordered, ScenarioReport};
use chiplet_noc::{NocConfig, NocSim, NocStats, NocTopology, Routing, TrafficPattern};
use chiplet_sim::DetRng;

use crate::{f1, TextTable};

/// One simulation point of the study: a fabric, its traffic pattern and
/// injection rate. Every point re-seeds its own RNG, so points are order-
/// and thread-independent.
fn run_point(&(config, pattern, rate): &(NocConfig, TrafficPattern, f64)) -> NocStats {
    let mut rng = DetRng::seed_from_u64(7);
    NocSim::run_synthetic(config, pattern, rate, 500, 5000, &mut rng)
}

/// Renders the study. It has no points; the NoC runs happen here.
pub fn render(_reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "NoC design-space study: 4x2 I/O-die fabric candidates.\n"
    );
    let mesh = NocTopology::Mesh {
        width: 4,
        height: 2,
    };
    let buffered = Routing::BufferedXY { buffer_depth: 4 };
    let topologies = [
        ("mesh 4x2", mesh),
        (
            "torus 4x2",
            NocTopology::Torus {
                width: 4,
                height: 2,
            },
        ),
    ];
    let routings = [
        ("buffered XY (4-deep)", buffered),
        ("bufferless deflection", Routing::Deflection),
    ];
    let patterns = [
        ("uniform", TrafficPattern::UniformRandom),
        ("hotspot@0", TrafficPattern::Hotspot { target: 0 }),
    ];
    let rates = [0.05, 0.15, 0.30, 0.45];
    // Wormhole packet lengths, at a fixed ~0.2 flits/node/cycle.
    let lens = [1u8, 2, 4, 8];

    // Flatten the full grid plus the wormhole sweep, run it across worker
    // threads, then render the tables in grid order.
    let mut grid = Vec::new();
    for (_, pattern) in patterns {
        for (_, topology) in topologies {
            for (_, routing) in routings {
                for &rate in &rates {
                    let config = NocConfig {
                        topology,
                        routing,
                        packet_len: 1,
                    };
                    grid.push((config, pattern, rate));
                }
            }
        }
    }
    grid.extend(lens.map(|len| {
        let config = NocConfig {
            topology: mesh,
            routing: buffered,
            packet_len: len,
        };
        (config, TrafficPattern::UniformRandom, 0.2 / len as f64)
    }));
    let results = parallel_ordered(&grid, 0, |_, point| run_point(point));
    let mut results = grid.iter().zip(&results);
    for (pname, _) in patterns {
        let _ = writeln!(out, "pattern: {pname}");
        let mut t = TextTable::new(vec![
            "config",
            "inj rate",
            "throughput",
            "avg lat (cyc)",
            "P999 (cyc)",
            "deflect/flit",
        ]);
        for (tname, _) in topologies {
            for (rname, _) in routings {
                for ((_, _, rate), stats) in results.by_ref().take(rates.len()) {
                    t.row(vec![
                        format!("{tname} / {rname}"),
                        format!("{rate:.2}"),
                        format!("{:.3}", stats.throughput()),
                        f1(stats.mean_latency()),
                        stats.p999_latency().to_string(),
                        format!("{:.2}", stats.deflection_rate()),
                    ]);
                }
            }
        }
        out.push_str(&t.render_indented("  "));
        let _ = writeln!(out);
    }
    // Wormhole packet-length sweep at a fixed flit rate: longer packets
    // hold channels longer (§2.3's FLIT-size design axis).
    let _ = writeln!(
        out,
        "wormhole packet length (mesh 4x2, buffered, ~0.2 flits/node/cycle):"
    );
    let mut t = TextTable::new(vec![
        "flits/packet",
        "pkt rate",
        "throughput (pkt)",
        "avg lat (cyc)",
        "P999 (cyc)",
    ]);
    for (&len, ((_, _, rate), stats)) in lens.iter().zip(results) {
        t.row(vec![
            len.to_string(),
            format!("{rate:.3}"),
            format!("{:.4}", stats.throughput()),
            f1(stats.mean_latency()),
            stats.p999_latency().to_string(),
        ]);
    }
    out.push_str(&t.render_indented("  "));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Reading: the torus' wraparound halves worst-case distance; \
         bufferless deflection matches buffered latency at low load but \
         deflects heavily as injection grows; the hotspot's single ejection \
         port caps throughput regardless of fabric; longer wormhole packets \
         pipeline their bodies but hold channels, trading per-packet \
         latency for framing efficiency."
    );
    out
}
