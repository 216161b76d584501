//! Filesystem export: the `/sys/firmware/chiplet-net` + `/proc/chiplet-net`
//! layout the paper proposes (§4 #1).
//!
//! "We believe that a similar hardware abstraction for chiplet networks
//! (like /sys/firmware/chiplet-net) is essential. It not only presents an
//! architectural overview, but also provides runtime performance telemetry
//! statistics for each link and intermediate hop through /proc/chiplet-net."
//!
//! [`export_sysfs`] materializes exactly that under a caller-chosen root:
//!
//! ```text
//! <root>/sys/firmware/chiplet-net/platform        one-line platform name
//! <root>/sys/firmware/chiplet-net/descriptor.json the full structural doc
//! <root>/sys/firmware/chiplet-net/summary         human-readable counts
//! <root>/proc/chiplet-net/links/<id>/stats        per-capacity-point counters
//! <root>/proc/chiplet-net/links/<id>/trace        windowed time series (when
//!                                                 the run recorded traces)
//! <root>/proc/chiplet-net/flows/<name>            per-flow statistics
//! <root>/proc/chiplet-net/matrix                  src dest bytes triples
//! ```

use std::fs;
use std::io;
use std::path::Path;

use chiplet_topology::descriptor::ChipletNetDescriptor;

use crate::engine::RunResult;
use crate::telemetry::CapacityPoint;

/// Writes the firmware descriptor and a run's telemetry (its capacity
/// points, flows and traffic matrix) as a sysfs/procfs style tree under
/// `root`. Existing files are overwritten.
pub fn export_sysfs(desc: &ChipletNetDescriptor, run: &RunResult, root: &Path) -> io::Result<()> {
    let report = &run.telemetry;
    let firmware = root.join("sys/firmware/chiplet-net");
    fs::create_dir_all(&firmware)?;
    fs::write(firmware.join("platform"), format!("{}\n", desc.platform))?;
    fs::write(firmware.join("descriptor.json"), desc.to_json())?;
    fs::write(
        firmware.join("summary"),
        format!(
            "platform: {}\nmicroarchitecture: {}\ncompute: {} CCD x {} CCX x {} cores\n\
             umcs: {}\ncxl-devices: {}\nnodes: {}\nlinks: {}\ncapacity-points: {}\n",
            desc.platform,
            desc.microarchitecture,
            desc.compute_shape.0,
            desc.compute_shape.1,
            desc.compute_shape.2,
            desc.umc_count,
            desc.cxl_device_count,
            desc.nodes.len(),
            desc.links.len(),
            desc.capacity_point_count(),
        ),
    )?;

    let proc = root.join("proc/chiplet-net");
    let links_dir = proc.join("links");
    fs::create_dir_all(&links_dir)?;
    for link in &report.links {
        let name = match link.point {
            CapacityPoint::Link { link, kind } => format!("link{link}-{kind:?}"),
            CapacityPoint::SocketNoc { socket } => format!("noc-socket{socket}"),
            CapacityPoint::CxlPort { ccd } => format!("cxl-port-ccd{ccd}"),
        };
        let dir = links_dir.join(name);
        fs::create_dir_all(&dir)?;
        let body = format!(
            "read_bytes: {}\nread_admissions: {}\nread_utilization: {:.4}\n\
             read_mean_wait_ns: {:.2}\nread_max_wait_ns: {:.2}\n\
             write_bytes: {}\nwrite_admissions: {}\nwrite_utilization: {:.4}\n\
             write_mean_wait_ns: {:.2}\nwrite_max_wait_ns: {:.2}\n",
            link.read.bytes,
            link.read.admissions,
            link.read.utilization,
            link.read.mean_wait_ns,
            link.read.max_wait_ns,
            link.write.bytes,
            link.write.admissions,
            link.write.utilization,
            link.write.mean_wait_ns,
            link.write.max_wait_ns,
        );
        fs::write(dir.join("stats"), body)?;
        // Windowed per-point series, one line per window; present when the
        // run was configured with a trace window.
        if !link.read_trace.is_empty()
            || !link.write_trace.is_empty()
            || !link.depth_trace.is_empty()
        {
            let n = link
                .read_trace
                .len()
                .max(link.write_trace.len())
                .max(link.depth_trace.len());
            let mut trace =
                String::from("# at_ns read_gb_s write_gb_s depth_mean_ns depth_max_ns\n");
            for i in 0..n {
                let at = link
                    .read_trace
                    .get(i)
                    .map(|p| p.at)
                    .or_else(|| link.write_trace.get(i).map(|p| p.at))
                    .or_else(|| link.depth_trace.get(i).map(|p| p.at))
                    .expect("n bounded by a nonempty series");
                let r = link
                    .read_trace
                    .get(i)
                    .map_or(0.0, |p| p.bandwidth.as_gb_per_s());
                let w = link
                    .write_trace
                    .get(i)
                    .map_or(0.0, |p| p.bandwidth.as_gb_per_s());
                let (dm, dx) = link
                    .depth_trace
                    .get(i)
                    .map_or((0.0, 0.0), |p| (p.mean, p.max));
                trace.push_str(&format!(
                    "{} {:.6} {:.6} {:.3} {:.3}\n",
                    at.as_nanos(),
                    r,
                    w,
                    dm,
                    dx,
                ));
            }
            fs::write(dir.join("trace"), trace)?;
        }
    }

    let flows_dir = proc.join("flows");
    fs::create_dir_all(&flows_dir)?;
    for flow in &run.flows {
        let safe: String = flow
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let body = format!(
            "id: {}\nissued: {}\ncompleted: {}\nbytes: {}\nachieved_gb_s: {:.3}\n\
             mean_latency_ns: {:.2}\np999_latency_ns: {:.2}\nanalytic: {}\n",
            flow.id,
            flow.issued,
            flow.completed,
            flow.bytes,
            flow.achieved.as_gb_per_s(),
            flow.mean_latency_ns(),
            flow.p999_latency_ns(),
            flow.analytic,
        );
        fs::write(flows_dir.join(safe), body)?;
    }

    let mut matrix = String::from("# src dest bytes\n");
    for cell in &report.matrix {
        matrix.push_str(&format!("{} {} {}\n", cell.ccd, cell.dest, cell.bytes));
    }
    fs::write(proc.join("matrix"), matrix)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::flow::{FlowSpec, Target};
    use chiplet_sim::SimTime;
    use chiplet_topology::{CcdId, PlatformSpec, Topology};

    fn unique_root(tag: &str) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("chiplet-net-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn exports_the_full_tree() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let mut engine = Engine::new(&topo, EngineConfig::deterministic());
        engine.add_flow(
            FlowSpec::reads(
                "probe",
                topo.cores_of_ccd(CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        let result = engine.run(SimTime::from_micros(15));
        let desc = ChipletNetDescriptor::from_topology(&topo);

        let root = unique_root("tree");
        export_sysfs(&desc, &result, &root).unwrap();

        let platform = fs::read_to_string(root.join("sys/firmware/chiplet-net/platform")).unwrap();
        assert!(platform.contains("7302"));
        let summary = fs::read_to_string(root.join("sys/firmware/chiplet-net/summary")).unwrap();
        assert!(summary.contains("compute: 4 CCD x 2 CCX x 2 cores"));
        // Descriptor round-trips through the file.
        let json =
            fs::read_to_string(root.join("sys/firmware/chiplet-net/descriptor.json")).unwrap();
        let back = ChipletNetDescriptor::from_json(&json).unwrap();
        assert_eq!(back, desc);
        // One directory per capacity point, one file per flow, plus the
        // matrix.
        let links = fs::read_dir(root.join("proc/chiplet-net/links"))
            .unwrap()
            .count();
        assert_eq!(links, result.telemetry.links.len());
        let flow = fs::read_to_string(root.join("proc/chiplet-net/flows/probe")).unwrap();
        assert!(flow.contains("achieved_gb_s"));
        let matrix = fs::read_to_string(root.join("proc/chiplet-net/matrix")).unwrap();
        assert!(matrix.lines().count() > 1);

        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn exported_tree_round_trips() {
        // Write the tree, re-read every file, and check the counters
        // against the in-memory report — including the per-link trace
        // series recorded by `trace_window`.
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let cfg = EngineConfig {
            trace_window: Some(chiplet_sim::SimDuration::from_micros(2)),
            ..EngineConfig::deterministic()
        };
        let mut engine = Engine::new(&topo, cfg);
        engine.add_flow(
            FlowSpec::reads(
                "probe",
                topo.cores_of_ccd(CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        let result = engine.run(SimTime::from_micros(20));
        let desc = ChipletNetDescriptor::from_topology(&topo);
        let root = unique_root("roundtrip");
        export_sysfs(&desc, &result, &root).unwrap();

        // Descriptor round-trips.
        let json =
            fs::read_to_string(root.join("sys/firmware/chiplet-net/descriptor.json")).unwrap();
        assert_eq!(ChipletNetDescriptor::from_json(&json).unwrap(), desc);

        let parse_field = |body: &str, key: &str| -> f64 {
            body.lines()
                .find_map(|l| l.strip_prefix(&format!("{key}: ")))
                .unwrap_or_else(|| panic!("field {key} present"))
                .parse()
                .unwrap()
        };

        let links_dir = root.join("proc/chiplet-net/links");
        for link in &result.telemetry.links {
            let name = match link.point {
                CapacityPoint::Link { link, kind } => format!("link{link}-{kind:?}"),
                CapacityPoint::SocketNoc { socket } => format!("noc-socket{socket}"),
                CapacityPoint::CxlPort { ccd } => format!("cxl-port-ccd{ccd}"),
            };
            let stats = fs::read_to_string(links_dir.join(&name).join("stats")).unwrap();
            assert_eq!(parse_field(&stats, "read_bytes") as u64, link.read.bytes);
            assert_eq!(
                parse_field(&stats, "read_admissions") as u64,
                link.read.admissions
            );
            assert_eq!(parse_field(&stats, "write_bytes") as u64, link.write.bytes);
            assert!((parse_field(&stats, "read_utilization") - link.read.utilization).abs() < 1e-3);
            // Tracing was on: every capacity point has a series file with
            // one line per window plus the header.
            let trace = fs::read_to_string(links_dir.join(&name).join("trace")).unwrap();
            let data: Vec<&str> = trace.lines().filter(|l| !l.starts_with('#')).collect();
            assert_eq!(data.len(), link.read_trace.len());
            // First window is stamped at t = 0 and its bandwidth matches.
            let first: Vec<f64> = data[0]
                .split_whitespace()
                .map(|t| t.parse().unwrap())
                .collect();
            assert_eq!(first[0], 0.0);
            assert!((first[1] - link.read_trace[0].bandwidth.as_gb_per_s()).abs() < 1e-3);
            assert!((first[4] - link.depth_trace[0].max).abs() < 1e-2);
        }

        // Per-flow counters round-trip.
        for flow in &result.flows {
            let body =
                fs::read_to_string(root.join("proc/chiplet-net/flows").join(&flow.name)).unwrap();
            assert_eq!(parse_field(&body, "completed") as u64, flow.completed);
            assert_eq!(parse_field(&body, "bytes") as u64, flow.bytes);
            assert!((parse_field(&body, "mean_latency_ns") - flow.mean_latency_ns()).abs() < 0.5);
        }

        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flow_names_are_sanitized() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let mut engine = Engine::new(&topo, EngineConfig::deterministic());
        engine.add_flow(
            FlowSpec::reads(
                "weird/name with spaces!",
                vec![chiplet_topology::CoreId(0)],
                Target::all_dimms(&topo),
            )
            .build(&topo),
        );
        let result = engine.run(SimTime::from_micros(10));
        let desc = ChipletNetDescriptor::from_topology(&topo);
        let root = unique_root("sanitize");
        export_sysfs(&desc, &result, &root).unwrap();
        assert!(root
            .join("proc/chiplet-net/flows/weird_name_with_spaces_")
            .exists());
        let _ = fs::remove_dir_all(&root);
    }
}
