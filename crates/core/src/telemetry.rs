//! Runtime telemetry: the `/proc/chiplet-net` analog.
//!
//! §4 #1 of the paper calls for "runtime performance telemetry statistics
//! for each link and intermediate hop through /proc/chiplet-net". A
//! [`TelemetryReport`] is that document: per-capacity-point utilization,
//! throughput, and queueing statistics in both directions, and the
//! measured traffic matrix, serializable to JSON. Per-flow achieved
//! bandwidth and latency distributions ([`FlowTelemetry`]) sit beside it
//! on the run's result, once.

use chiplet_sim::stats::LatencyHistogram;
use chiplet_sim::{Bandwidth, SimDuration};
use chiplet_topology::{LinkKind, PlatformSpec, Topology};
use serde::{Deserialize, Serialize};

use crate::flow::FlowId;

/// One direction of one capacity point.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DirStats {
    /// Bytes that crossed during the measured window.
    pub bytes: u64,
    /// Transactions admitted.
    pub admissions: u64,
    /// Fraction of the window the server was busy.
    pub utilization: f64,
    /// Mean queueing wait, ns.
    pub mean_wait_ns: f64,
    /// Largest queueing wait, ns.
    pub max_wait_ns: f64,
}

/// Telemetry for one capacity point (a physical link, the socket NoC, or a
/// per-CCD CXL port).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkTelemetry {
    /// Identity of the capacity point.
    pub point: CapacityPoint,
    /// Read-direction statistics.
    pub read: DirStats,
    /// Write-direction statistics.
    pub write: DirStats,
    /// Windowed read-direction bandwidth series, when the run recorded
    /// traces (`EngineConfig::trace_window`). Windows are half-open
    /// `[start, start + window)` and stamped at the window start.
    #[serde(default)]
    pub read_trace: Vec<chiplet_sim::stats::TracePoint>,
    /// Windowed write-direction bandwidth series (same semantics).
    #[serde(default)]
    pub write_trace: Vec<chiplet_sim::stats::TracePoint>,
    /// Windowed queue-backlog gauge: ns of queued service observed at each
    /// admission, mean/max per window.
    #[serde(default)]
    pub depth_trace: Vec<chiplet_sim::stats::GaugePoint>,
}

/// Identity of a capacity point: what plans stage, what the server arena,
/// the traffic manager, telemetry rows, metric labels, span hop labels and
/// the sysfs tree name.
///
/// Points have one dense index, `CapacityPoint::index`: links by id
/// (capped or not), then socket NoCs, then CXL ports, the order
/// `capacity_points` enumerates. The derived order is the same (variants
/// in that order, a link by its id first), and telemetry ties break by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CapacityPoint {
    /// A topology link, by id and kind.
    Link {
        /// The link's id in the topology.
        link: u32,
        /// Its physical class.
        kind: LinkKind,
    },
    /// A socket's I/O-die NoC routing capacity.
    SocketNoc {
        /// The socket index.
        socket: u32,
    },
    /// The per-CCD CXL port capacity.
    CxlPort {
        /// The compute chiplet.
        ccd: u32,
    },
}

impl CapacityPoint {
    /// The point's dense index on `topo`: its position in
    /// `capacity_points(topo)`.
    pub(crate) fn index(self, topo: &Topology) -> usize {
        let links = topo.links().len();
        match self {
            CapacityPoint::Link { link, .. } => link as usize,
            CapacityPoint::SocketNoc { socket } => links + socket as usize,
            CapacityPoint::CxlPort { ccd } => {
                links + topo.spec().socket_count as usize + ccd as usize
            }
        }
    }

    /// The point's `(read, write)` capacity on `p`, or `None` for a link
    /// that is not a capacity point. A link reads its kind's caps
    /// ([`LinkKind::caps`], the mapping `Topology::build` stamps on each
    /// link), the socket NoC `caps.noc_*` and the per-CCD CXL port
    /// `cxl.ccd_*`. The engine sizes its servers and the DSE estimator
    /// scores its candidates from this one mapping.
    pub fn caps(self, p: &PlatformSpec) -> Option<(Bandwidth, Bandwidth)> {
        match self {
            CapacityPoint::Link { kind, .. } => kind.caps(p),
            CapacityPoint::SocketNoc { .. } => Some((p.caps.noc_read, p.caps.noc_write)),
            CapacityPoint::CxlPort { .. } => p.cxl.as_ref().map(|c| (c.ccd_read, c.ccd_write)),
        }
    }

    /// The point's name in metric labels and critpath slots: `link{l}`,
    /// `noc{s}` or `cxl{c}`.
    pub(crate) fn name(&self) -> String {
        match *self {
            CapacityPoint::Link { link, .. } => format!("link{link}"),
            CapacityPoint::SocketNoc { socket } => format!("noc{socket}"),
            CapacityPoint::CxlPort { ccd } => format!("cxl{ccd}"),
        }
    }
}

/// Every capacity point of `topo`, by dense index (see
/// [`CapacityPoint::index`]): links by id (capped or not), then socket
/// NoCs, then CXL ports. Derived structurally from the topology because
/// telemetry only lists capped points.
pub(crate) fn capacity_points(topo: &Topology) -> Vec<CapacityPoint> {
    let spec = topo.spec();
    let cxl_ports = spec.cxl.as_ref().map_or(0, |_| topo.ccd_total());
    let links = topo
        .links()
        .iter()
        .zip(0..)
        .map(|(l, link)| CapacityPoint::Link { link, kind: l.kind });
    links
        .chain((0..spec.socket_count).map(|socket| CapacityPoint::SocketNoc { socket }))
        .chain((0..cxl_ports).map(|ccd| CapacityPoint::CxlPort { ccd }))
        .collect()
}

/// Per-flow results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowTelemetry {
    /// Flow id.
    pub id: FlowId,
    /// Flow name.
    pub name: String,
    /// Transactions issued during the whole run.
    pub issued: u64,
    /// Transactions completed inside the measured window.
    pub completed: u64,
    /// Payload bytes completed inside the measured window.
    pub bytes: u64,
    /// Achieved bandwidth over the measured window.
    pub achieved: Bandwidth,
    /// End-to-end latency distribution (measured window).
    pub latency: LatencyHistogram,
    /// True when the flow was cache-resident and accounted analytically
    /// (no fabric traffic).
    pub analytic: bool,
    /// Exact (sub-ns) latency for analytic cache-resident flows; the
    /// histogram only holds whole nanoseconds.
    pub analytic_latency_ns: Option<f64>,
    /// Bandwidth time series, when the run recorded traces
    /// (`EngineConfig::trace_window`).
    #[serde(default)]
    pub trace: Vec<chiplet_sim::stats::TracePoint>,
}

impl FlowTelemetry {
    /// Mean latency, ns (0 when no samples, consistent with
    /// [`FlowTelemetry::p999_latency_ns`]). Analytic flows report their
    /// exact cache-hit latency.
    pub fn mean_latency_ns(&self) -> f64 {
        self.analytic_latency_ns.unwrap_or_else(|| {
            if self.latency.is_empty() {
                0.0
            } else {
                self.latency.mean_ns_f64()
            }
        })
    }

    /// P999 latency, ns (0 when no samples, consistent with
    /// [`FlowTelemetry::mean_latency_ns`]).
    pub fn p999_latency_ns(&self) -> f64 {
        self.latency
            .p999()
            .map(|d| d.as_nanos() as f64)
            .unwrap_or(0.0)
    }
}

/// One cell of the measured traffic matrix: bytes from a compute chiplet to
/// a destination (UMC channel or CXL device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Source compute chiplet.
    pub ccd: u32,
    /// Destination: UMC index, or `umc_count + device` for CXL devices.
    pub dest: u32,
    /// Payload bytes.
    pub bytes: u64,
}

/// The full runtime report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Platform name.
    pub platform: String,
    /// Measured window length.
    pub window: SimDuration,
    /// Per-capacity-point statistics, one row per capped point in dense
    /// point order.
    pub links: Vec<LinkTelemetry>,
    /// Ground-truth traffic matrix cells (nonzero only).
    pub matrix: Vec<MatrixCell>,
}

impl TelemetryReport {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry is always serializable")
    }

    /// The busiest capacity point by utilization in either direction —
    /// "identifying the bandwidth throttling path segment at runtime"
    /// (Implication #2). Ties break deterministically toward the lowest
    /// point in [`CapacityPoint`]'s order (lowest link id first).
    pub fn bottleneck(&self) -> Option<&LinkTelemetry> {
        self.links.iter().max_by(|a, b| {
            let ua = a.read.utilization.max(a.write.utilization);
            let ub = b.read.utilization.max(b.write.utilization);
            // `max_by` keeps the last maximal element, so on equal
            // utilization rank the lower point as the greater one.
            ua.total_cmp(&ub).then_with(|| b.point.cmp(&a.point))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(kind: LinkKind, ur: f64, uw: f64) -> LinkTelemetry {
        link_with_id(0, kind, ur, uw)
    }

    fn link_with_id(id: u32, kind: LinkKind, ur: f64, uw: f64) -> LinkTelemetry {
        LinkTelemetry {
            point: CapacityPoint::Link { link: id, kind },
            read: DirStats {
                utilization: ur,
                ..Default::default()
            },
            write: DirStats {
                utilization: uw,
                ..Default::default()
            },
            read_trace: Vec::new(),
            write_trace: Vec::new(),
            depth_trace: Vec::new(),
        }
    }

    #[test]
    fn bottleneck_picks_highest_utilization() {
        let report = TelemetryReport {
            platform: "test".into(),
            window: SimDuration::from_micros(10),
            links: vec![
                link(LinkKind::Gmi, 0.4, 0.1),
                link(LinkKind::MemChannel, 0.2, 0.9),
                link(LinkKind::CoreL3, 0.5, 0.5),
            ],
            matrix: vec![],
        };
        let b = report.bottleneck().unwrap();
        assert!(matches!(
            b.point,
            CapacityPoint::Link {
                kind: LinkKind::MemChannel,
                ..
            }
        ));
    }

    #[test]
    fn bottleneck_ties_break_to_lowest_point() {
        // Three links at identical utilization: the lowest link id wins,
        // whatever order they appear in.
        let mut links = vec![
            link_with_id(7, LinkKind::Gmi, 0.5, 0.1),
            link_with_id(2, LinkKind::Gmi, 0.1, 0.5),
            link_with_id(4, LinkKind::Gmi, 0.5, 0.5),
        ];
        for _ in 0..3 {
            links.rotate_left(1);
            let report = TelemetryReport {
                platform: "test".into(),
                window: SimDuration::from_micros(10),
                links: links.clone(),
                matrix: vec![],
            };
            let b = report.bottleneck().unwrap();
            assert_eq!(
                b.point,
                CapacityPoint::Link {
                    link: 2,
                    kind: LinkKind::Gmi
                }
            );
        }
        // Links order before socket NoCs at equal utilization.
        let report = TelemetryReport {
            platform: "test".into(),
            window: SimDuration::from_micros(10),
            links: vec![
                LinkTelemetry {
                    point: CapacityPoint::SocketNoc { socket: 0 },
                    ..link_with_id(0, LinkKind::Gmi, 0.5, 0.5)
                },
                link_with_id(3, LinkKind::Gmi, 0.5, 0.5),
            ],
            matrix: vec![],
        };
        assert_eq!(
            report.bottleneck().unwrap().point,
            CapacityPoint::Link {
                link: 3,
                kind: LinkKind::Gmi
            }
        );
    }

    #[test]
    fn empty_flow_latency_sentinels_are_consistent() {
        let flow = FlowTelemetry {
            id: FlowId(0),
            name: "idle".into(),
            issued: 0,
            completed: 0,
            bytes: 0,
            achieved: Bandwidth::ZERO,
            latency: LatencyHistogram::new(),
            analytic: false,
            analytic_latency_ns: None,
            trace: Vec::new(),
        };
        // Both accessors report the same finite sentinel on no samples.
        assert_eq!(flow.mean_latency_ns(), 0.0);
        assert_eq!(flow.p999_latency_ns(), 0.0);
        assert!(flow.mean_latency_ns().is_finite());
    }

    #[test]
    fn report_serializes() {
        let report = TelemetryReport {
            platform: "x".into(),
            window: SimDuration::from_micros(1),
            links: vec![link(LinkKind::Gmi, 0.1, 0.2)],
            matrix: vec![MatrixCell {
                ccd: 0,
                dest: 3,
                bytes: 640,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("SocketNoc") || json.contains("Gmi"));
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.matrix.len(), 1);
    }

    #[test]
    fn empty_report_has_no_bottleneck() {
        let report = TelemetryReport {
            platform: "x".into(),
            window: SimDuration::ZERO,
            links: vec![],
            matrix: vec![],
        };
        assert!(report.bottleneck().is_none());
    }
}
