//! The event queue.
//!
//! A discrete-event simulation is a loop over a priority queue ordered by
//! virtual time. Determinism requires a *total* order: when two events share a
//! timestamp, they must pop in a stable order. We break ties by insertion
//! sequence number (FIFO among equal timestamps), which makes every simulation
//! replayable bit-for-bit from its seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event extracted from the queue: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires.
    pub at: SimTime,
    /// Monotone insertion index; exposes the deterministic tie-break order.
    pub seq: u64,
    /// The caller's payload.
    pub payload: E,
}

/// Internal heap entry. `BinaryHeap` is a max-heap, so ordering is reversed:
/// the *smallest* `(at, seq)` must compare greatest.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest time (then lowest seq) is the heap maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// Events are popped in nondecreasing time order; events scheduled for the
/// same instant pop in the order they were pushed.
///
/// ```
/// use chiplet_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Time of the last popped event; used to detect scheduling into the past.
    watermark: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped event's time: an engine
    /// scheduling into the past is a logic bug that would silently corrupt
    /// causality, so it fails fast.
    pub fn push(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.watermark,
            "event scheduled into the past: {} < current time {}",
            at,
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, advancing the watermark.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|e| {
            self.watermark = e.at;
            ScheduledEvent {
                at: e.at,
                seq: e.seq,
                payload: e.payload,
            }
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event (the current simulation
    /// time from the queue's perspective).
    pub fn now(&self) -> SimTime {
        self.watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 3, 9, 1, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.payload);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn watermark_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.push(SimTime::from_nanos(30), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(10));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(30));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), ());
        q.pop();
        q.push(SimTime::from_nanos(50), ());
    }
}
