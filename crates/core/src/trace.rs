//! Span-level hop tracing: the perf-style inspection layer of §4 #5.
//!
//! The engine samples 1-in-N transactions ([`crate::engine::EngineConfig::
//! trace_sampling`]) and records, for each, every capacity point it crossed
//! with queue-enter / service-start / service-end timestamps (a
//! [`chiplet_sim::stats::TxnSpan`]). This module gives those raw spans
//! meaning:
//!
//! * [`HopClass`] names each hop (the token limiter, each physical link
//!   class, the socket NoC, the CXL port, and the residual propagation
//!   segment) — the engine stores the class code as the span's hop label;
//! * [`TraceReport`] aggregates spans into a per-hop-class latency
//!   breakdown ([`HopBreakdown`]) and exports the Chrome trace-event JSON
//!   that `chrome://tracing` and <https://ui.perfetto.dev> render.
//!
//! The hops of one span tile its end-to-end latency exactly:
//! `Σ hop.total_ns() == e2e_ns` (the engine charges limiter queueing, every
//! per-stage wait, device service variability, and the unloaded route
//! latency to exactly one hop each).

use chiplet_sim::stats::TxnSpan;
use chiplet_topology::LinkKind;
use serde::{Deserialize, Serialize};

/// The class of a traced hop — what kind of capacity point the dwell was
/// spent at. Stored in [`chiplet_sim::stats::HopEvent::label`] as the
/// variant's code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HopClass {
    /// Queueing for the CCX/CCD token limiters (§3.2's traffic-control
    /// module); charged from issue to the last token grant.
    TrafficCtrl,
    /// Core to its CCX L3 slice.
    CoreL3,
    /// L3 slice to the CCD traffic controller.
    L3Tc,
    /// Traffic controller to GMI port.
    TcGmi,
    /// The GMI link between a CCD and the I/O die.
    Gmi,
    /// CCM to its quadrant switch.
    CcmSwitch,
    /// Switch-to-switch mesh edge.
    NocMesh,
    /// Quadrant switch to a coherent station.
    SwitchCs,
    /// Coherent station to UMC.
    CsUmc,
    /// The UMC/DRAM channel (device variability is charged here).
    MemChannel,
    /// Relay switch to the I/O hub.
    SwitchHub,
    /// I/O hub to root complex (the serialized CXL P-Link aggregate).
    HubRc,
    /// Root complex to a CXL device.
    CxlLane,
    /// The inter-socket xGMI fabric.
    Xgmi,
    /// I/O hub to a PCIe NIC.
    PcieLane,
    /// A socket's I/O-die NoC routing capacity.
    SocketNoc,
    /// The per-CCD CXL port ceiling.
    CxlPort,
    /// The residual unloaded route latency (wire propagation, switch
    /// traversal, device access at zero load) — the Table 2 constant.
    Propagation,
}

impl HopClass {
    /// Every class, in code order.
    pub const ALL: [HopClass; 18] = [
        HopClass::TrafficCtrl,
        HopClass::CoreL3,
        HopClass::L3Tc,
        HopClass::TcGmi,
        HopClass::Gmi,
        HopClass::CcmSwitch,
        HopClass::NocMesh,
        HopClass::SwitchCs,
        HopClass::CsUmc,
        HopClass::MemChannel,
        HopClass::SwitchHub,
        HopClass::HubRc,
        HopClass::CxlLane,
        HopClass::Xgmi,
        HopClass::PcieLane,
        HopClass::SocketNoc,
        HopClass::CxlPort,
        HopClass::Propagation,
    ];

    /// The class's stable `u32` code (its index in [`HopClass::ALL`]).
    pub fn code(self) -> u32 {
        HopClass::ALL
            .iter()
            .position(|&c| c == self)
            .expect("every class is in ALL") as u32
    }

    /// Decodes a hop label back to its class.
    pub fn from_code(code: u32) -> Option<HopClass> {
        HopClass::ALL.get(code as usize).copied()
    }

    /// The class a physical link maps to.
    pub fn from_link_kind(kind: LinkKind) -> HopClass {
        match kind {
            LinkKind::CoreL3 => HopClass::CoreL3,
            LinkKind::L3Tc => HopClass::L3Tc,
            LinkKind::TcGmi => HopClass::TcGmi,
            LinkKind::Gmi => HopClass::Gmi,
            LinkKind::CcmSwitch => HopClass::CcmSwitch,
            LinkKind::NocMesh => HopClass::NocMesh,
            LinkKind::SwitchCs => HopClass::SwitchCs,
            LinkKind::CsUmc => HopClass::CsUmc,
            LinkKind::MemChannel => HopClass::MemChannel,
            LinkKind::SwitchHub => HopClass::SwitchHub,
            LinkKind::HubRc => HopClass::HubRc,
            LinkKind::CxlLane => HopClass::CxlLane,
            LinkKind::Xgmi => HopClass::Xgmi,
            LinkKind::PcieLane => HopClass::PcieLane,
        }
    }

    /// Short stable name, used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            HopClass::TrafficCtrl => "traffic-ctrl",
            HopClass::CoreL3 => "core-l3",
            HopClass::L3Tc => "l3-tc",
            HopClass::TcGmi => "tc-gmi",
            HopClass::Gmi => "gmi",
            HopClass::CcmSwitch => "ccm-switch",
            HopClass::NocMesh => "noc-mesh",
            HopClass::SwitchCs => "switch-cs",
            HopClass::CsUmc => "cs-umc",
            HopClass::MemChannel => "mem-channel",
            HopClass::SwitchHub => "switch-hub",
            HopClass::HubRc => "hub-rc",
            HopClass::CxlLane => "cxl-lane",
            HopClass::Xgmi => "xgmi",
            HopClass::PcieLane => "pcie-lane",
            HopClass::SocketNoc => "socket-noc",
            HopClass::CxlPort => "cxl-port",
            HopClass::Propagation => "propagation",
        }
    }
}

/// Packs a hop class (low byte) and an optional capacity-point index
/// (upper bits, biased by one so "no point" stays zero) into a span hop
/// label. `encode_hop_label(c, None)` is exactly `c.code()`, so legacy
/// bare-code labels and point-free hops (limiter, propagation) share one
/// encoding and old traces decode unchanged.
pub fn encode_hop_label(class: HopClass, point: Option<u32>) -> u32 {
    class.code() | point.map_or(0, |p| (p + 1) << 8)
}

/// Splits a span hop label into its class and capacity-point index.
/// Bare class codes decode to `(Some(class), None)`.
pub fn decode_hop_label(label: u32) -> (Option<HopClass>, Option<u32>) {
    (
        HopClass::from_code(label & 0xff),
        (label >> 8).checked_sub(1),
    )
}

/// Incremental builder for Chrome trace-event JSON — the writer behind
/// [`TraceReport::to_chrome_trace`], reusable for **wall-clock** spans too
/// (the serving daemon's request timelines export through it, so daemon
/// traces open in the same `chrome://tracing` / Perfetto tooling as sim
/// traces).
///
/// Field order matches what the sim exporter always emitted (metadata:
/// `name, ph, pid, tid, args`; complete events: `name, cat, ph, ts, dur,
/// pid, tid, args`), so output through the builder is byte-identical to
/// the pre-builder encoding. Events appear in insertion order; output is
/// deterministic for a deterministic insertion sequence.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    events: Vec<serde_json::Value>,
}

impl ChromeTraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    fn obj(fields: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
        serde_json::Value::Map(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Emits a `process_name` metadata event labelling `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, 0, name);
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        use serde_json::Value;
        self.events.push(Self::obj(vec![
            ("name", Value::Str(kind.into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
            ("args", Self::obj(vec![("name", Value::Str(name.into()))])),
        ]));
    }

    /// Emits one complete (`"ph": "X"`) event. `ts_us`/`dur_us` are
    /// microseconds, the unit Chrome's trace viewer expects.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event field list
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        pid: u64,
        tid: u64,
        args: Vec<(&str, serde_json::Value)>,
    ) {
        use serde_json::Value;
        self.events.push(Self::obj(vec![
            ("name", Value::Str(name.into())),
            ("cat", Value::Str(cat.into())),
            ("ph", Value::Str("X".into())),
            ("ts", Value::F64(ts_us)),
            ("dur", Value::F64(dur_us)),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
            ("args", Self::obj(args)),
        ]));
    }

    /// Serializes the trace document (deterministic bytes).
    pub fn finish(self) -> String {
        let doc = Self::obj(vec![
            ("traceEvents", serde_json::Value::Seq(self.events)),
            ("displayTimeUnit", serde_json::Value::Str("ns".into())),
        ]);
        serde_json::to_string(&doc).expect("trace is always serializable")
    }
}

/// Aggregate statistics for one hop class across all sampled transactions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HopBreakdown {
    /// The hop class.
    pub class: HopClass,
    /// Hop events observed.
    pub count: u64,
    /// Mean queueing wait, ns.
    pub mean_wait_ns: f64,
    /// Mean service (latency-contributing) time, ns.
    pub mean_service_ns: f64,
    /// Mean total dwell, ns.
    pub mean_total_ns: f64,
    /// P99 total dwell, ns.
    pub p99_total_ns: f64,
}

/// The span-trace half of a run's results: every sampled transaction's
/// hop-resolved record, plus the sampling configuration that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReport {
    /// The configured 1-in-N sampling rate (1 = every transaction).
    pub sampling: u32,
    /// Sampled spans, in completion order.
    pub spans: Vec<TxnSpan>,
    /// Samples dropped because the collector's cap was reached.
    pub dropped: u64,
}

impl TraceReport {
    /// Builds a report from the collector's output.
    pub fn from_spans(sampling: u32, spans: Vec<TxnSpan>, dropped: u64) -> Self {
        TraceReport {
            sampling: sampling.max(1),
            spans,
            dropped,
        }
    }

    /// Mean end-to-end latency over the sampled spans, ns (0 when empty).
    pub fn mean_e2e_ns(&self) -> f64 {
        if self.spans.is_empty() {
            0.0
        } else {
            self.spans.iter().map(|s| s.e2e_ns).sum::<f64>() / self.spans.len() as f64
        }
    }

    /// Per-hop-class latency breakdown, in [`HopClass::ALL`] order;
    /// classes with no observations are omitted.
    pub fn breakdown(&self) -> Vec<HopBreakdown> {
        struct Acc {
            count: u64,
            wait: f64,
            service: f64,
            totals: Vec<f64>,
        }
        let mut accs: Vec<Acc> = (0..HopClass::ALL.len())
            .map(|_| Acc {
                count: 0,
                wait: 0.0,
                service: 0.0,
                totals: Vec::new(),
            })
            .collect();
        for span in &self.spans {
            for hop in &span.hops {
                let (Some(class), _) = decode_hop_label(hop.label) else {
                    continue;
                };
                let a = &mut accs[class.code() as usize];
                a.count += 1;
                a.wait += hop.wait_ns();
                a.service += hop.service_ns();
                a.totals.push(hop.total_ns());
            }
        }
        accs.into_iter()
            .enumerate()
            .filter(|(_, a)| a.count > 0)
            .map(|(i, mut a)| {
                a.totals.sort_by(f64::total_cmp);
                let p99_idx =
                    ((a.totals.len() as f64 * 0.99).ceil() as usize).clamp(1, a.totals.len()) - 1;
                let n = a.count as f64;
                HopBreakdown {
                    class: HopClass::ALL[i],
                    count: a.count,
                    mean_wait_ns: a.wait / n,
                    mean_service_ns: a.service / n,
                    mean_total_ns: (a.wait + a.service) / n,
                    p99_total_ns: a.totals[p99_idx],
                }
            })
            .collect()
    }

    /// A fixed-width text rendering of [`TraceReport::breakdown`].
    pub fn breakdown_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>10} {:>14} {:>14} {:>14} {:>14}\n",
            "hop", "count", "mean-wait-ns", "mean-svc-ns", "mean-total-ns", "p99-total-ns"
        ));
        for b in self.breakdown() {
            out.push_str(&format!(
                "{:<14} {:>10} {:>14.2} {:>14.2} {:>14.2} {:>14.2}\n",
                b.class.name(),
                b.count,
                b.mean_wait_ns,
                b.mean_service_ns,
                b.mean_total_ns,
                b.p99_total_ns,
            ));
        }
        out.push_str(&format!(
            "spans: {}  dropped: {}  sampling: 1-in-{}  mean-e2e-ns: {:.2}\n",
            self.spans.len(),
            self.dropped,
            self.sampling,
            self.mean_e2e_ns(),
        ));
        out
    }

    /// Exports the spans as Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load directly).
    ///
    /// Each hop becomes one complete (`"ph": "X"`) event with microsecond
    /// `ts`/`dur`; `pid` is the flow id, `tid` the issuing core (or DMA
    /// engine). `flow_names[pid]`, when present, labels the process via
    /// `process_name` metadata events. Output is deterministic: same spans
    /// in, byte-identical JSON out.
    pub fn to_chrome_trace(&self, flow_names: &[String]) -> String {
        use serde_json::Value;

        let mut trace = ChromeTraceBuilder::new();
        let mut named: Vec<u32> = self.spans.iter().map(|s| s.group).collect();
        named.sort_unstable();
        named.dedup();
        for pid in named {
            if let Some(name) = flow_names.get(pid as usize) {
                trace.process_name(pid as u64, name);
            }
        }
        for span in &self.spans {
            for hop in &span.hops {
                let (class, point) = decode_hop_label(hop.label);
                let name = class.map(HopClass::name).unwrap_or("hop");
                let mut args = vec![
                    ("seq", Value::U64(span.seq)),
                    ("wait_ns", Value::F64(hop.wait_ns())),
                    ("service_ns", Value::F64(hop.service_ns())),
                ];
                if let Some(p) = point {
                    args.push(("point", Value::U64(p as u64)));
                }
                trace.complete(
                    name,
                    "hop",
                    hop.queue_enter_ns / 1000.0,
                    hop.total_ns() / 1000.0,
                    span.group as u64,
                    span.lane as u64,
                    args,
                );
            }
        }
        trace.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_sim::stats::SpanCollector;

    fn sample_report() -> TraceReport {
        let mut c = SpanCollector::new(8);
        let h = c.start(0, 2, 0.0).unwrap();
        c.hop(h, HopClass::TrafficCtrl.code(), 0.0, 10.0, 10.0);
        c.hop(h, HopClass::Gmi.code(), 10.0, 12.0, 12.0);
        c.hop(h, HopClass::Propagation.code(), 12.0, 12.0, 112.0);
        c.finish(h, 112.0, 112.0);
        let (spans, dropped) = c.into_parts();
        TraceReport::from_spans(64, spans, dropped)
    }

    #[test]
    fn codes_round_trip() {
        for class in HopClass::ALL {
            assert_eq!(HopClass::from_code(class.code()), Some(class));
        }
        assert_eq!(HopClass::from_code(u32::MAX), None);
    }

    #[test]
    fn every_link_kind_has_a_class() {
        // from_link_kind is total: a new LinkKind without a class would
        // fail to compile, and the class must map back to a unique code.
        assert_eq!(
            HopClass::from_link_kind(LinkKind::MemChannel),
            HopClass::MemChannel
        );
        assert_eq!(HopClass::from_link_kind(LinkKind::Gmi), HopClass::Gmi);
    }

    #[test]
    fn breakdown_aggregates_by_class() {
        let report = sample_report();
        let b = report.breakdown();
        assert_eq!(b.len(), 3);
        let tc = &b[0];
        assert_eq!(tc.class, HopClass::TrafficCtrl);
        assert_eq!(tc.count, 1);
        assert!((tc.mean_wait_ns - 10.0).abs() < 1e-9);
        assert!((tc.mean_service_ns).abs() < 1e-9);
        let prop = b.last().unwrap();
        assert_eq!(prop.class, HopClass::Propagation);
        assert!((prop.mean_total_ns - 100.0).abs() < 1e-9);
        assert!((prop.p99_total_ns - 100.0).abs() < 1e-9);
        assert!((report.mean_e2e_ns() - 112.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_has_required_fields() {
        let report = sample_report();
        let json = report.to_chrome_trace(&["flow-a".to_string()]);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap();
        // 1 process_name metadata + 3 hop events.
        assert_eq!(events.len(), 4);
        let meta = &events[0];
        assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
        for ev in &events[1..] {
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
            assert!(ev.get("ts").unwrap().as_f64().is_some());
            assert!(ev.get("dur").unwrap().as_f64().is_some());
            assert_eq!(ev.get("pid").unwrap().as_u64(), Some(0));
            assert_eq!(ev.get("tid").unwrap().as_u64(), Some(2));
        }
        // Deterministic: same spans, byte-identical JSON.
        assert_eq!(
            json,
            sample_report().to_chrome_trace(&["flow-a".to_string()])
        );
    }

    #[test]
    fn packed_labels_round_trip_and_bare_codes_stay_pointless() {
        for class in HopClass::ALL {
            assert_eq!(decode_hop_label(class.code()), (Some(class), None));
            assert_eq!(encode_hop_label(class, None), class.code());
            for point in [0u32, 1, 7, 4095] {
                let label = encode_hop_label(class, Some(point));
                assert_eq!(decode_hop_label(label), (Some(class), Some(point)));
            }
        }
        // An unknown class survives as None without disturbing the point.
        assert_eq!(decode_hop_label(0xff | (3 << 8)), (None, Some(2)));
    }

    #[test]
    fn packed_labels_aggregate_with_bare_codes_in_breakdown() {
        let mut c = SpanCollector::new(8);
        let h = c.start(0, 0, 0.0).unwrap();
        c.hop(h, HopClass::Gmi.code(), 0.0, 0.0, 5.0);
        c.hop(h, encode_hop_label(HopClass::Gmi, Some(3)), 5.0, 5.0, 15.0);
        c.finish(h, 15.0, 15.0);
        let (spans, dropped) = c.into_parts();
        let report = TraceReport::from_spans(1, spans, dropped);
        let b = report.breakdown();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].class, HopClass::Gmi);
        assert_eq!(b[0].count, 2);
        assert!((b[0].mean_total_ns - 7.5).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_escapes_hostile_flow_names() {
        let report = sample_report();
        let hostile = "fl\"ow\\a\n\tctrl\u{1}".to_string();
        let json = report.to_chrome_trace(std::slice::from_ref(&hostile));
        // The raw control characters must never appear unescaped.
        assert!(!json.contains('\n'));
        assert!(!json.contains('\t'));
        assert!(!json.contains('\u{1}'));
        // Round-trip: the parsed metadata event recovers the name exactly.
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap();
        let meta = &events[0];
        assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
        let name = meta.get("args").unwrap().get("name").unwrap();
        assert_eq!(name.as_str(), Some(hostile.as_str()));
    }

    #[test]
    fn breakdown_table_renders() {
        let t = sample_report().breakdown_table();
        assert!(t.contains("traffic-ctrl"));
        assert!(t.contains("propagation"));
        assert!(t.contains("sampling: 1-in-64"));
    }
}
