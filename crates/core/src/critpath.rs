//! Flow latency attribution: where did each flow's latency go?
//!
//! §4 of the paper asks for telemetry that can attribute end-to-end latency
//! to individual segments of the heterogeneous intra-host network. The
//! engine's span traces ([`crate::trace::TraceReport`]) already record, for
//! every sampled transaction, the exact dwell at each capacity point; this
//! module turns those raw spans into answers:
//!
//! * [`FlowCritPath`] — a per-flow critical-path decomposition: for each
//!   (hop class, capacity point) slot the flow crossed, its queueing wait,
//!   service time, and share of the flow's total end-to-end latency. The
//!   hops of a span tile its latency exactly, so the decomposition
//!   conserves it: summed over slots it equals the summed e2e latency.
//! * [`BlameMatrix`] — the cross-flow aggregation: which capacity points
//!   account for what share of overall and tail (≥ p99 e2e) latency, with
//!   per-slot dwell quantiles from the existing DDSketch machinery.
//! * Flame-style exports — [`to_speedscope`] (the speedscope JSON file
//!   format, one sampled profile per flow) and
//!   [`CritPathReport::to_folded`] (Brendan Gregg's folded-stack text fed
//!   to `flamegraph.pl`), alongside the existing Chrome trace.
//!
//! Everything here is a pure function of the spans, so the output is
//! byte-deterministic: same trace in, identical JSON/text out, independent
//! of thread count or wall-clock.

use crate::sketch::QuantileSketch;
use crate::telemetry::{capacity_points, CapacityPoint};
use crate::trace::{decode_hop_label, HopClass, TraceReport};
use serde::Serialize;
use std::collections::BTreeMap;

/// Identity of an attribution slot: a hop class plus the concrete capacity
/// point it was observed at (`None` for point-free hops such as the token
/// limiter and the propagation residual). Ordered by class code then point
/// so every aggregation below is deterministic.
type SlotKey = (u32, Option<u32>);

/// Human-readable slot label: `gmi@link3`, `socket-noc@noc0`, or the bare
/// class name for point-free hops. Unknown points render as `@pt{idx}`.
fn slot_label(class: Option<HopClass>, point: Option<u32>, point_names: &[String]) -> String {
    let base = class.map(HopClass::name).unwrap_or("unknown");
    match point {
        Some(p) => match point_names.get(p as usize) {
            Some(n) => format!("{base}@{n}"),
            None => format!("{base}@pt{p}"),
        },
        None => base.to_string(),
    }
}

/// Capacity-point names (`link{l}`, `noc{s}`, `cxl{c}`) by dense point
/// index, the `link_id` labels of the metrics registry.
pub fn point_names(topo: &chiplet_topology::Topology) -> Vec<String> {
    capacity_points(topo)
        .iter()
        .map(CapacityPoint::name)
        .collect()
}

/// One slot of a flow's critical-path decomposition.
#[derive(Debug, Clone, Serialize)]
pub struct HopShare {
    /// Slot label (`class@point` or the bare class name).
    pub hop: String,
    /// Hop events the flow's sampled spans spent at this slot.
    pub count: u64,
    /// Total queueing wait, ns.
    pub wait_ns: f64,
    /// Total latency-contributing service, ns.
    pub service_ns: f64,
    /// Total dwell (wait + service), ns.
    pub total_ns: f64,
    /// Fraction of the flow's summed e2e latency spent here.
    pub share: f64,
}

/// A flow's critical-path decomposition over its sampled spans.
///
/// Invariant (latency conservation): `Σ hops[i].total_ns == e2e_total_ns`
/// up to float rounding, because every span's hops tile its e2e latency.
#[derive(Debug, Clone, Serialize)]
pub struct FlowCritPath {
    /// Flow id (the span group).
    pub flow: u32,
    /// Flow name, `flow{id}` when unnamed.
    pub name: String,
    /// Sampled spans attributed.
    pub spans: u64,
    /// Summed end-to-end latency over those spans, ns.
    pub e2e_total_ns: f64,
    /// Mean end-to-end latency, ns.
    pub mean_e2e_ns: f64,
    /// Slots in (class code, point) order.
    pub hops: Vec<HopShare>,
}

/// One row of the blame matrix: a capacity-point slot's share of overall
/// and tail latency across all flows.
#[derive(Debug, Clone, Serialize)]
pub struct BlameRow {
    /// Slot label (`class@point` or the bare class name).
    pub hop: String,
    /// Hop events observed at this slot.
    pub count: u64,
    /// Total dwell across all sampled spans, ns.
    pub total_ns: f64,
    /// Fraction of all spans' summed e2e latency spent here.
    pub share: f64,
    /// Dwell summed over tail spans only (e2e ≥ p99), ns.
    pub tail_total_ns: f64,
    /// Fraction of the tail spans' summed e2e latency spent here.
    pub tail_share: f64,
    /// Median per-hop dwell, ns (DDSketch, 1% relative error).
    pub p50_dwell_ns: f64,
    /// P99 per-hop dwell, ns (DDSketch, 1% relative error).
    pub p99_dwell_ns: f64,
}

/// The per-link blame matrix: which slots account for what share of p50
/// and p99 end-to-end latency, aggregated across every flow.
#[derive(Debug, Clone, Serialize)]
pub struct BlameMatrix {
    /// Sampled spans aggregated.
    pub spans: u64,
    /// Summed e2e latency over all spans, ns.
    pub e2e_total_ns: f64,
    /// Median e2e latency, ns (DDSketch).
    pub e2e_p50_ns: f64,
    /// P99 e2e latency, ns (DDSketch); the tail threshold.
    pub e2e_p99_ns: f64,
    /// Spans at or above the tail threshold.
    pub tail_spans: u64,
    /// Summed e2e latency over the tail spans, ns.
    pub tail_total_ns: f64,
    /// Slots, descending by total dwell (ties by slot key).
    pub rows: Vec<BlameRow>,
}

/// The full attribution report: per-flow critical paths plus the blame
/// matrix, with the sampling configuration that produced the spans.
#[derive(Debug, Clone, Serialize)]
pub struct CritPathReport {
    /// The configured 1-in-N sampling rate.
    pub sampling: u32,
    /// Sampled spans attributed.
    pub spans: u64,
    /// Samples dropped by the collector cap.
    pub dropped: u64,
    /// Per-flow decompositions, by flow id.
    pub flows: Vec<FlowCritPath>,
    /// The cross-flow blame matrix.
    pub blame: BlameMatrix,
}

#[derive(Default)]
struct SlotAcc {
    count: u64,
    wait: f64,
    service: f64,
    tail: f64,
}

impl CritPathReport {
    /// Attributes a trace: decomposes every sampled span into per-slot
    /// dwells, grouped per flow and aggregated into the blame matrix.
    pub fn from_trace(
        trace: &TraceReport,
        flow_names: &[String],
        point_names: &[String],
    ) -> CritPathReport {
        // Pass 1: the e2e sketch fixes the tail threshold.
        let mut e2e_sketch = QuantileSketch::new();
        for span in &trace.spans {
            e2e_sketch.record(span.e2e_ns);
        }
        let e2e_p50 = e2e_sketch.quantile(0.50).unwrap_or(0.0);
        let e2e_p99 = e2e_sketch.quantile(0.99).unwrap_or(0.0);

        // Pass 2: accumulate per-flow and cross-flow slot dwells.
        let mut flows: BTreeMap<u32, (u64, f64, BTreeMap<SlotKey, SlotAcc>)> = BTreeMap::new();
        let mut blame: BTreeMap<SlotKey, SlotAcc> = BTreeMap::new();
        let mut dwell_sketches: BTreeMap<SlotKey, QuantileSketch> = BTreeMap::new();
        let mut e2e_total = 0.0;
        let mut tail_spans = 0u64;
        let mut tail_total = 0.0;
        for span in &trace.spans {
            let in_tail = !trace.spans.is_empty() && span.e2e_ns >= e2e_p99;
            e2e_total += span.e2e_ns;
            if in_tail {
                tail_spans += 1;
                tail_total += span.e2e_ns;
            }
            let flow = flows.entry(span.group).or_default();
            flow.0 += 1;
            flow.1 += span.e2e_ns;
            for hop in &span.hops {
                let (_, point) = decode_hop_label(hop.label);
                let key: SlotKey = (hop.label & 0xff, point);
                let wait = hop.wait_ns();
                let service = hop.service_ns();
                for acc in [
                    flow.2.entry(key).or_default(),
                    blame.entry(key).or_default(),
                ] {
                    acc.count += 1;
                    acc.wait += wait;
                    acc.service += service;
                    if in_tail {
                        acc.tail += wait + service;
                    }
                }
                dwell_sketches
                    .entry(key)
                    .or_default()
                    .record(hop.total_ns());
            }
        }

        let label = |key: &SlotKey| slot_label(HopClass::from_code(key.0), key.1, point_names);
        let flows: Vec<FlowCritPath> = flows
            .into_iter()
            .map(|(id, (n, e2e, slots))| FlowCritPath {
                flow: id,
                name: flow_names
                    .get(id as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("flow{id}")),
                spans: n,
                e2e_total_ns: e2e,
                mean_e2e_ns: if n == 0 { 0.0 } else { e2e / n as f64 },
                hops: slots
                    .into_iter()
                    .map(|(key, acc)| HopShare {
                        hop: label(&key),
                        count: acc.count,
                        wait_ns: acc.wait,
                        service_ns: acc.service,
                        total_ns: acc.wait + acc.service,
                        share: if e2e > 0.0 {
                            (acc.wait + acc.service) / e2e
                        } else {
                            0.0
                        },
                    })
                    .collect(),
            })
            .collect();

        let mut rows: Vec<(SlotKey, BlameRow)> = blame
            .into_iter()
            .map(|(key, acc)| {
                let sketch = &dwell_sketches[&key];
                let row = BlameRow {
                    hop: label(&key),
                    count: acc.count,
                    total_ns: acc.wait + acc.service,
                    share: if e2e_total > 0.0 {
                        (acc.wait + acc.service) / e2e_total
                    } else {
                        0.0
                    },
                    tail_total_ns: acc.tail,
                    tail_share: if tail_total > 0.0 {
                        acc.tail / tail_total
                    } else {
                        0.0
                    },
                    p50_dwell_ns: sketch.quantile(0.50).unwrap_or(0.0),
                    p99_dwell_ns: sketch.quantile(0.99).unwrap_or(0.0),
                };
                (key, row)
            })
            .collect();
        rows.sort_by(|(ka, a), (kb, b)| b.total_ns.total_cmp(&a.total_ns).then_with(|| ka.cmp(kb)));

        CritPathReport {
            sampling: trace.sampling,
            spans: trace.spans.len() as u64,
            dropped: trace.dropped,
            flows,
            blame: BlameMatrix {
                spans: trace.spans.len() as u64,
                e2e_total_ns: e2e_total,
                e2e_p50_ns: e2e_p50,
                e2e_p99_ns: e2e_p99,
                tail_spans,
                tail_total_ns: tail_total,
                rows: rows.into_iter().map(|(_, r)| r).collect(),
            },
        }
    }

    /// Serializes the report to pretty JSON (byte-deterministic).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("critpath report is always serializable")
    }

    /// Fixed-width per-flow critical-path tables.
    pub fn flows_table(&self) -> String {
        let mut out = String::new();
        for f in &self.flows {
            out.push_str(&format!(
                "flow {} ({}): spans {}  mean-e2e-ns {:.2}\n",
                f.flow, f.name, f.spans, f.mean_e2e_ns
            ));
            out.push_str(&format!(
                "  {:<24} {:>8} {:>14} {:>14} {:>14} {:>8}\n",
                "hop", "count", "wait-ns", "svc-ns", "total-ns", "share"
            ));
            for h in &f.hops {
                out.push_str(&format!(
                    "  {:<24} {:>8} {:>14.2} {:>14.2} {:>14.2} {:>7.2}%\n",
                    h.hop,
                    h.count,
                    h.wait_ns,
                    h.service_ns,
                    h.total_ns,
                    h.share * 100.0,
                ));
            }
        }
        out.push_str(&format!(
            "spans: {}  dropped: {}  sampling: 1-in-{}\n",
            self.spans, self.dropped, self.sampling
        ));
        out
    }

    /// Fixed-width blame-matrix table, busiest slot first.
    pub fn blame_table(&self) -> String {
        let b = &self.blame;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>14} {:>8} {:>8} {:>12} {:>12}\n",
            "hop", "count", "total-ns", "share", "tail", "p50-dwell", "p99-dwell"
        ));
        for r in &b.rows {
            out.push_str(&format!(
                "{:<24} {:>8} {:>14.2} {:>7.2}% {:>7.2}% {:>12.2} {:>12.2}\n",
                r.hop,
                r.count,
                r.total_ns,
                r.share * 100.0,
                r.tail_share * 100.0,
                r.p50_dwell_ns,
                r.p99_dwell_ns,
            ));
        }
        out.push_str(&format!(
            "spans: {}  e2e-p50-ns: {:.2}  e2e-p99-ns: {:.2}  tail-spans: {}\n",
            b.spans, b.e2e_p50_ns, b.e2e_p99_ns, b.tail_spans
        ));
        out
    }

    /// Folded-stack flamegraph text: one `flow;hop;phase weight` line per
    /// slot (weight = dwell ns, rounded), lexically sorted — the input
    /// format of Brendan Gregg's `flamegraph.pl`.
    pub fn to_folded(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for f in &self.flows {
            for h in &f.hops {
                for (phase, ns) in [("wait", h.wait_ns), ("service", h.service_ns)] {
                    let w = ns.round() as u64;
                    if w > 0 {
                        lines.push(format!("{};{};{} {}", f.name, h.hop, phase, w));
                    }
                }
            }
        }
        lines.sort_unstable();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

/// Exports a trace in the speedscope JSON file format
/// (<https://www.speedscope.app/file-format-schema.json>): one *sampled*
/// profile per flow, where each sample is a `[slot, wait|service]` stack
/// weighted by its dwell in nanoseconds. Sampled profiles are used rather
/// than evented ones because spans from different lanes overlap in time.
pub fn to_speedscope(trace: &TraceReport, flow_names: &[String], point_names: &[String]) -> String {
    use serde_json::Value;

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Map(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    // Deterministic frame table: every observed slot in key order, then
    // the two leaf phases.
    let mut slots: BTreeMap<SlotKey, usize> = BTreeMap::new();
    for span in &trace.spans {
        for hop in &span.hops {
            let (_, point) = decode_hop_label(hop.label);
            let next = slots.len();
            slots.entry((hop.label & 0xff, point)).or_insert(next);
        }
    }
    let wait_frame = slots.len();
    let service_frame = slots.len() + 1;
    let mut frames: Vec<Value> = slots
        .keys()
        .map(|key| {
            let name = slot_label(HopClass::from_code(key.0), key.1, point_names);
            obj(vec![("name", Value::Str(name))])
        })
        .collect();
    frames.push(obj(vec![("name", Value::Str("wait".into()))]));
    frames.push(obj(vec![("name", Value::Str("service".into()))]));

    let mut groups: Vec<u32> = trace.spans.iter().map(|s| s.group).collect();
    groups.sort_unstable();
    groups.dedup();
    let profiles: Vec<Value> = groups
        .iter()
        .map(|&flow| {
            let mut samples: Vec<Value> = Vec::new();
            let mut weights: Vec<Value> = Vec::new();
            let mut end = 0.0f64;
            for span in trace.spans.iter().filter(|s| s.group == flow) {
                for hop in &span.hops {
                    let (_, point) = decode_hop_label(hop.label);
                    let slot = slots[&(hop.label & 0xff, point)] as u64;
                    for (leaf, ns) in [
                        (wait_frame, hop.wait_ns()),
                        (service_frame, hop.service_ns()),
                    ] {
                        if ns > 0.0 {
                            samples
                                .push(Value::Seq(vec![Value::U64(slot), Value::U64(leaf as u64)]));
                            weights.push(Value::F64(ns));
                            end += ns;
                        }
                    }
                }
            }
            let name = flow_names
                .get(flow as usize)
                .cloned()
                .unwrap_or_else(|| format!("flow{flow}"));
            obj(vec![
                ("type", Value::Str("sampled".into())),
                ("name", Value::Str(name)),
                ("unit", Value::Str("nanoseconds".into())),
                ("startValue", Value::F64(0.0)),
                ("endValue", Value::F64(end)),
                ("samples", Value::Seq(samples)),
                ("weights", Value::Seq(weights)),
            ])
        })
        .collect();

    let doc = obj(vec![
        (
            "$schema",
            Value::Str("https://www.speedscope.app/file-format-schema.json".into()),
        ),
        ("shared", obj(vec![("frames", Value::Seq(frames))])),
        ("profiles", Value::Seq(profiles)),
        ("exporter", Value::Str("chiplet-scenario".into())),
        ("activeProfileIndex", Value::U64(0)),
    ]);
    serde_json::to_string(&doc).expect("speedscope doc is always serializable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::encode_hop_label;
    use chiplet_sim::stats::SpanCollector;

    fn two_flow_trace() -> TraceReport {
        let mut c = SpanCollector::new(8);
        // Flow 0: limiter wait + a pointed GMI hop + propagation.
        let h = c.start(0, 0, 0.0).unwrap();
        c.hop(h, HopClass::TrafficCtrl.code(), 0.0, 10.0, 10.0);
        c.hop(
            h,
            encode_hop_label(HopClass::Gmi, Some(2)),
            10.0,
            14.0,
            20.0,
        );
        c.hop(h, HopClass::Propagation.code(), 20.0, 20.0, 120.0);
        c.finish(h, 120.0, 120.0);
        // Flow 1: the same GMI point plus a different one.
        let h = c.start(1, 1, 0.0).unwrap();
        c.hop(h, encode_hop_label(HopClass::Gmi, Some(2)), 0.0, 0.0, 30.0);
        c.hop(
            h,
            encode_hop_label(HopClass::Gmi, Some(5)),
            30.0,
            35.0,
            50.0,
        );
        c.finish(h, 50.0, 50.0);
        let (spans, dropped) = c.into_parts();
        TraceReport::from_spans(4, spans, dropped)
    }

    fn names() -> (Vec<String>, Vec<String>) {
        let flows = vec!["alpha".to_string(), "beta".to_string()];
        let points = (0..8).map(|i| format!("link{i}")).collect();
        (flows, points)
    }

    #[test]
    fn flow_decomposition_conserves_latency() {
        let (flows, points) = names();
        let r = CritPathReport::from_trace(&two_flow_trace(), &flows, &points);
        assert_eq!(r.flows.len(), 2);
        for f in &r.flows {
            let hop_sum: f64 = f.hops.iter().map(|h| h.total_ns).sum();
            assert!((hop_sum - f.e2e_total_ns).abs() < 1e-9);
            let share_sum: f64 = f.hops.iter().map(|h| h.share).sum();
            assert!((share_sum - 1.0).abs() < 1e-9);
        }
        let alpha = &r.flows[0];
        assert_eq!(alpha.name, "alpha");
        assert_eq!(alpha.hops.len(), 3);
        assert_eq!(alpha.hops[1].hop, "gmi@link2");
    }

    #[test]
    fn blame_totals_equal_sum_over_flows() {
        let (flows, points) = names();
        let r = CritPathReport::from_trace(&two_flow_trace(), &flows, &points);
        let blame_total: f64 = r.blame.rows.iter().map(|row| row.total_ns).sum();
        assert!((blame_total - r.blame.e2e_total_ns).abs() < 1e-9);
        // The shared gmi@link2 slot aggregates across both flows.
        let shared = r
            .blame
            .rows
            .iter()
            .find(|row| row.hop == "gmi@link2")
            .unwrap();
        assert_eq!(shared.count, 2);
        assert!((shared.total_ns - 40.0).abs() < 1e-9);
        // Rows are sorted by descending dwell; propagation dominates here.
        assert_eq!(r.blame.rows[0].hop, "propagation");
    }

    #[test]
    fn report_json_is_deterministic() {
        let (flows, points) = names();
        let a = CritPathReport::from_trace(&two_flow_trace(), &flows, &points).to_json();
        let b = CritPathReport::from_trace(&two_flow_trace(), &flows, &points).to_json();
        assert_eq!(a, b);
        let doc: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert!(doc.get("blame").is_some());
    }

    #[test]
    fn folded_output_is_sorted_and_integer_weighted() {
        let (flows, points) = names();
        let folded = CritPathReport::from_trace(&two_flow_trace(), &flows, &points).to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(!lines.is_empty());
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        for line in &lines {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3);
            weight.parse::<u64>().unwrap();
        }
        assert!(folded.contains("alpha;gmi@link2;service 6"));
    }

    #[test]
    fn speedscope_export_is_valid_and_weight_conserving() {
        let (flows, points) = names();
        let trace = two_flow_trace();
        let json = to_speedscope(&trace, &flows, &points);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let frames = doc
            .get("shared")
            .unwrap()
            .get("frames")
            .unwrap()
            .as_seq()
            .unwrap();
        // 4 slots + wait + service.
        assert_eq!(frames.len(), 6);
        let profiles = doc.get("profiles").unwrap().as_seq().unwrap();
        assert_eq!(profiles.len(), 2);
        for (p, expected_e2e) in profiles.iter().zip([120.0, 50.0]) {
            let weights = p.get("weights").unwrap().as_seq().unwrap();
            let sum: f64 = weights.iter().map(|w| w.as_f64().unwrap()).sum();
            assert!((sum - expected_e2e).abs() < 1e-9);
            assert_eq!(p.get("endValue").unwrap().as_f64(), Some(sum));
            let samples = p.get("samples").unwrap().as_seq().unwrap();
            assert_eq!(samples.len(), weights.len());
        }
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let r = CritPathReport::from_trace(&TraceReport::from_spans(1, Vec::new(), 0), &[], &[]);
        assert_eq!(r.spans, 0);
        assert!(r.flows.is_empty());
        assert!(r.blame.rows.is_empty());
        assert_eq!(r.to_folded(), "");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::trace::encode_hop_label;
    use chiplet_sim::stats::{HopEvent, TxnSpan};
    use proptest::prelude::*;

    /// Builds a span whose hops tile the e2e latency by construction.
    fn build_span(seq: u64, group: u32, hops: Vec<(u32, Option<u32>, u32, u32)>) -> TxnSpan {
        let mut t = 0.0f64;
        let hops: Vec<HopEvent> = hops
            .into_iter()
            .map(|(code, point, wait, service)| {
                let class = HopClass::from_code(code).unwrap();
                let enter = t;
                let start = enter + wait as f64;
                let end = start + service as f64;
                t = end;
                HopEvent {
                    label: encode_hop_label(class, point),
                    queue_enter_ns: enter,
                    service_start_ns: start,
                    service_end_ns: end,
                }
            })
            .collect();
        TxnSpan {
            seq,
            group,
            lane: 0,
            issue_ns: 0.0,
            end_ns: t,
            e2e_ns: t,
            hops,
        }
    }

    fn arb_trace() -> impl Strategy<Value = TraceReport> {
        let hop = (
            0u32..HopClass::ALL.len() as u32,
            prop::option::of(0u32..6),
            0u32..1000,
            0u32..1000,
        );
        prop::collection::vec((0u32..4, prop::collection::vec(hop, 1..6)), 0..24).prop_map(|raw| {
            let spans = raw
                .into_iter()
                .enumerate()
                .map(|(i, (group, hops))| build_span(i as u64, group, hops))
                .collect();
            TraceReport::from_spans(1, spans, 0)
        })
    }

    proptest! {
        /// Per-flow critical-path hop totals sum exactly to the flow's
        /// summed e2e latency — attribution never creates or loses time.
        #[test]
        fn flow_hop_shares_sum_to_e2e(trace in arb_trace()) {
            let r = CritPathReport::from_trace(&trace, &[], &[]);
            for f in &r.flows {
                let hop_sum: f64 = f.hops.iter().map(|h| h.total_ns).sum();
                prop_assert!((hop_sum - f.e2e_total_ns).abs() <= 1e-6 * f.e2e_total_ns.max(1.0));
                if f.e2e_total_ns > 0.0 {
                    let share_sum: f64 = f.hops.iter().map(|h| h.share).sum();
                    prop_assert!((share_sum - 1.0).abs() < 1e-9);
                }
            }
            let flow_total: f64 = r.flows.iter().map(|f| f.e2e_total_ns).sum();
            prop_assert!((flow_total - r.blame.e2e_total_ns).abs() <= 1e-6 * flow_total.max(1.0));
        }

        /// Blame-matrix per-slot totals equal the sum of the matching
        /// per-flow slot totals, and the matrix grand total equals the
        /// summed e2e latency.
        #[test]
        fn blame_totals_match_flow_totals(trace in arb_trace()) {
            let r = CritPathReport::from_trace(&trace, &[], &[]);
            let mut per_slot: std::collections::BTreeMap<String, f64> =
                std::collections::BTreeMap::new();
            for f in &r.flows {
                for h in &f.hops {
                    *per_slot.entry(h.hop.clone()).or_default() += h.total_ns;
                }
            }
            prop_assert_eq!(per_slot.len(), r.blame.rows.len());
            for row in &r.blame.rows {
                let flow_sum = per_slot[&row.hop];
                prop_assert!((row.total_ns - flow_sum).abs() <= 1e-6 * flow_sum.max(1.0));
            }
            let grand: f64 = r.blame.rows.iter().map(|row| row.total_ns).sum();
            prop_assert!((grand - r.blame.e2e_total_ns).abs() <= 1e-6 * grand.max(1.0));
        }
    }
}
