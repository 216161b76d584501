//! Span-level transaction tracing.
//!
//! §4 #1 and #5 of the paper ask for telemetry "for each link and
//! intermediate hop" and a perf-like profiling utility. A [`TxnSpan`] is the
//! hop-resolved record of one sampled transaction: every capacity point it
//! crossed, with queue-enter / service-start / service-end timestamps, so a
//! run's latency can be attributed to the exact segment (limiter, GMI, NoC,
//! memory channel, propagation) where it was spent.
//!
//! The collector is embedder-agnostic: hops carry an opaque `u32` label the
//! embedding simulator assigns (the engine maps them to hop classes), and
//! transactions carry an opaque `group`/`lane` pair (flow and issuer). The
//! sampling decision itself is the embedder's — the collector only bounds
//! memory and preserves deterministic ordering (spans are stored in
//! completion order, which the event queue makes reproducible).

use serde::{Deserialize, Serialize};

/// One hop of a sampled transaction: its dwell at a single capacity point.
///
/// The three timestamps split the dwell into a queueing wait
/// (`queue_enter_ns → service_start_ns`) and a latency-contributing service
/// interval (`service_start_ns → service_end_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HopEvent {
    /// Embedder-defined hop label (the engine stores a hop-class code).
    pub label: u32,
    /// When the transaction arrived at the point.
    pub queue_enter_ns: f64,
    /// When it reached the head of the queue.
    pub service_start_ns: f64,
    /// When its latency-contributing service at the point ended.
    pub service_end_ns: f64,
}

impl HopEvent {
    /// Queueing wait at this hop, ns.
    pub fn wait_ns(&self) -> f64 {
        self.service_start_ns - self.queue_enter_ns
    }

    /// Latency-contributing service time at this hop, ns.
    pub fn service_ns(&self) -> f64 {
        self.service_end_ns - self.service_start_ns
    }

    /// Total dwell (wait + service), ns.
    pub fn total_ns(&self) -> f64 {
        self.service_end_ns - self.queue_enter_ns
    }
}

/// The full hop-resolved record of one sampled transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnSpan {
    /// Sample sequence number, in issue order.
    pub seq: u64,
    /// Embedder grouping (the engine stores the flow id).
    pub group: u32,
    /// Embedder lane (the engine stores the issuing core / DMA engine).
    pub lane: u32,
    /// Issue timestamp, ns.
    pub issue_ns: f64,
    /// Completion timestamp, ns.
    pub end_ns: f64,
    /// End-to-end latency the embedder charged the transaction, ns. The
    /// hops tile this exactly: `Σ hop.total_ns() == e2e_ns`.
    pub e2e_ns: f64,
    /// Hops in traversal order.
    pub hops: Vec<HopEvent>,
}

impl TxnSpan {
    /// Sum of all hop dwells, ns — equals `e2e_ns` up to float rounding.
    pub fn hop_sum_ns(&self) -> f64 {
        self.hops.iter().map(HopEvent::total_ns).sum()
    }
}

/// Bounded-memory collector of [`TxnSpan`]s.
///
/// `start` opens a span and returns a handle; `hop` appends hop events;
/// `finish` seals the span into the completed list. Once `cap` spans have
/// been collected, further `start` calls return `None` and are counted as
/// dropped — overhead and memory stay bounded no matter the run length.
#[derive(Debug, Clone)]
pub struct SpanCollector {
    open: Vec<TxnSpan>,
    free: Vec<u32>,
    done: Vec<TxnSpan>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
}

impl SpanCollector {
    /// Creates a collector that keeps at most `cap` completed spans.
    pub fn new(cap: usize) -> Self {
        SpanCollector {
            open: Vec::new(),
            free: Vec::new(),
            done: Vec::new(),
            cap,
            dropped: 0,
            next_seq: 0,
        }
    }

    /// Opens a span for a sampled transaction. Returns `None` (and counts a
    /// drop) once the collector is full.
    pub fn start(&mut self, group: u32, lane: u32, issue_ns: f64) -> Option<u32> {
        if self.done.len() + (self.open.len() - self.free.len()) >= self.cap {
            self.dropped += 1;
            return None;
        }
        let span = TxnSpan {
            seq: self.next_seq,
            group,
            lane,
            issue_ns,
            end_ns: issue_ns,
            e2e_ns: 0.0,
            hops: Vec::with_capacity(8),
        };
        self.next_seq += 1;
        match self.free.pop() {
            Some(slot) => {
                self.open[slot as usize] = span;
                Some(slot)
            }
            None => {
                self.open.push(span);
                Some((self.open.len() - 1) as u32)
            }
        }
    }

    /// Appends a hop event to an open span.
    pub fn hop(
        &mut self,
        handle: u32,
        label: u32,
        queue_enter_ns: f64,
        service_start_ns: f64,
        service_end_ns: f64,
    ) {
        self.open[handle as usize].hops.push(HopEvent {
            label,
            queue_enter_ns,
            service_start_ns,
            service_end_ns,
        });
    }

    /// Seals an open span; the handle is recycled.
    pub fn finish(&mut self, handle: u32, end_ns: f64, e2e_ns: f64) {
        let mut span = std::mem::replace(
            &mut self.open[handle as usize],
            TxnSpan {
                seq: 0,
                group: 0,
                lane: 0,
                issue_ns: 0.0,
                end_ns: 0.0,
                e2e_ns: 0.0,
                hops: Vec::new(),
            },
        );
        span.end_ns = end_ns;
        span.e2e_ns = e2e_ns;
        self.done.push(span);
        self.free.push(handle);
    }

    /// Consumes the collector: completed spans plus the dropped count.
    /// Transactions still open (in flight at the horizon) are discarded.
    pub fn into_parts(self) -> (Vec<TxnSpan>, u64) {
        (self.done, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_tile_the_latency() {
        let mut c = SpanCollector::new(16);
        let h = c.start(0, 3, 100.0).unwrap();
        c.hop(h, 1, 100.0, 110.0, 110.0); // 10 ns wait
        c.hop(h, 2, 110.0, 112.0, 115.0); // 2 ns wait + 3 ns service
        c.hop(h, 9, 115.0, 115.0, 240.0); // 125 ns propagation
        c.finish(h, 240.0, 140.0);
        let (spans, _) = c.into_parts();
        let s = &spans[0];
        assert_eq!(s.hops.len(), 3);
        assert!((s.hop_sum_ns() - s.e2e_ns).abs() < 1e-9);
        assert_eq!(s.group, 0);
        assert_eq!(s.lane, 3);
        assert_eq!(s.seq, 0);
    }

    #[test]
    fn handles_are_recycled_and_seq_advances() {
        let mut c = SpanCollector::new(16);
        let h0 = c.start(0, 0, 0.0).unwrap();
        c.finish(h0, 1.0, 1.0);
        let h1 = c.start(1, 1, 2.0).unwrap();
        assert_eq!(h0, h1, "slot should be recycled");
        c.finish(h1, 3.0, 1.0);
        let (spans, _) = c.into_parts();
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[1].seq, 1);
        assert_eq!(spans[1].group, 1);
    }

    #[test]
    fn cap_bounds_memory_and_counts_drops() {
        let mut c = SpanCollector::new(2);
        let a = c.start(0, 0, 0.0).unwrap();
        let b = c.start(0, 1, 0.0).unwrap();
        assert!(c.start(0, 2, 0.0).is_none());
        c.finish(a, 1.0, 1.0);
        c.finish(b, 1.0, 1.0);
        // Still full: completed spans count against the cap.
        assert!(c.start(0, 3, 0.0).is_none());
        let (spans, dropped) = c.into_parts();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 2);
    }

    #[test]
    fn open_spans_are_discarded() {
        let mut c = SpanCollector::new(4);
        let _ = c.start(0, 0, 0.0).unwrap();
        let h = c.start(0, 1, 0.0).unwrap();
        c.finish(h, 5.0, 5.0);
        let (spans, _) = c.into_parts();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].lane, 1);
    }
}
