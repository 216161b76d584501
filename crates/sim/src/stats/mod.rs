//! Streaming statistics.
//!
//! The paper reports average and P999 tail latency (Figure 3, Table 2) and
//! windowed bandwidth traces (Figure 5). These collectors are streaming —
//! O(1) per sample — because bandwidth experiments record millions of
//! transaction completions.

mod histogram;
mod spans;
mod timeseries;

pub use histogram::LatencyHistogram;
pub use spans::{HopEvent, SpanCollector, TxnSpan};
pub use timeseries::{BandwidthTrace, GaugePoint, GaugeTrace, TracePoint};
