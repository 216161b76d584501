//! A timer-wheel event queue.
//!
//! [`WheelQueue`] is a drop-in replacement for [`crate::EventQueue`] tuned
//! for the event engine's workload: integer-nanosecond timestamps, dozens
//! of events per busy nanosecond, and nearly every push landing a few
//! hundred nanoseconds ahead. It preserves the queue's *total order*
//! exactly — events pop in nondecreasing `(time, seq)` order, where `seq`
//! is the monotone insertion index — so any engine run is bit-identical
//! whichever of the two queues it executes on (property-tested against
//! [`crate::EventQueue`]).
//!
//! Layout: a ring of [`RING`] one-nanosecond buckets covering the window
//! `[now, now + RING)`, a one-`u64`-per-64-slots occupancy bitmap with a
//! single-word summary for O(1) next-bucket scans, and a binary-heap
//! overflow for the rare push beyond the window. Each bucket is a FIFO
//! list threaded through one shared node slab whose free list is LIFO, so
//! the few hundred pending events reuse the same few KiB of nodes instead
//! of touching a buffer per bucket. Pushes append at a bucket's tail and
//! always carry the current maximum sequence number, and overflow events
//! migrate into the ring *eagerly* whenever the window slides, so every
//! bucket stays sorted by `seq` without ever sorting. A popped node is
//! recycled in place, its payload copied out, hence `E: Copy`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::ScheduledEvent;
use crate::time::SimTime;

/// Ring size in nanosecond slots. Over the scenario registry's engine
/// runs, pushes landing 512 ns or more ahead are under 0.06% on the heavy
/// entries (fig3, fig4, fig6) and at most 2.2% on any (against up to 11%
/// at 256 ns); longer-range events overflow to a heap.
const RING: usize = 512;
const MASK: usize = RING - 1;
const WORDS: usize = RING / 64;
// The summary is one `u64` with a bit per word, shifted by up to `WORDS`.
const _: () = assert!(RING.is_power_of_two() && WORDS >= 1 && WORDS < 64);

/// Heap entry for events beyond the ring window, min-ordered by
/// `(at, seq)`.
struct Overflow<E> {
    at: u64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Overflow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Overflow<E> {}
impl<E> PartialOrd for Overflow<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Overflow<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest (at, seq) is the heap maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The end of a node list.
const NIL: u32 = u32::MAX;

/// One nanosecond's pending events: a FIFO list of slab nodes in push
/// order (ascending `seq`), `NIL`-terminated; `head == NIL` when empty.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A slab node: a pending event, or a free-list link.
struct Node<E> {
    seq: u64,
    payload: E,
    next: u32,
}

/// A deterministic event queue on a one-nanosecond timer wheel.
///
/// Same contract as [`crate::EventQueue`]: events pop in nondecreasing
/// time order, FIFO among equal timestamps, and scheduling into the past
/// panics.
///
/// ```
/// use chiplet_sim::{SimTime, WheelQueue};
///
/// let mut q = WheelQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct WheelQueue<E> {
    ring: Vec<Bucket>,
    /// Every ring event's node; `free` heads the list of recycled ones.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Occupancy bitmap: bit `s % 64` of word `s / 64` set ⇔ slot `s`
    /// holds unpopped items.
    occ: [u64; WORDS],
    /// Bit `w` set ⇔ `occ[w] != 0`.
    summary: u64,
    overflow: BinaryHeap<Overflow<E>>,
    /// Time of the last popped event (the watermark); the ring covers
    /// `[watermark, watermark + RING)` and the overflow holds the rest.
    watermark: u64,
    /// Cached absolute time of the earliest ring event, when known.
    /// `Some(t)` is always exact; `None` means "recompute via the bitmap".
    /// Busy nanoseconds pop dozens of events from one bucket, so the cache
    /// turns the per-pop bitmap scan into a single load on the hot path.
    head: Option<u64>,
    next_seq: u64,
    len: usize,
}

impl<E: Copy> Default for WheelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> WheelQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        WheelQueue {
            ring: vec![
                Bucket {
                    head: NIL,
                    tail: NIL
                };
                RING
            ],
            nodes: Vec::new(),
            free: NIL,
            occ: [0; WORDS],
            summary: 0,
            overflow: BinaryHeap::new(),
            watermark: 0,
            head: None,
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped event's time, like
    /// [`crate::EventQueue::push`].
    #[inline]
    pub fn push(&mut self, at: SimTime, payload: E) {
        let t = at.as_nanos();
        assert!(
            t >= self.watermark,
            "event scheduled into the past: {} < current time {}",
            at,
            SimTime::from_nanos(self.watermark)
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if t - self.watermark < RING as u64 {
            self.insert_ring(t, seq, payload);
        } else {
            self.overflow.push(Overflow {
                at: t,
                seq,
                payload,
            });
        }
    }

    #[inline]
    fn insert_ring(&mut self, t: u64, seq: u64, payload: E) {
        // Keep the head cache exact: a new event can only lower a known
        // head; an empty ring makes the sole event the head; an unknown
        // head stays unknown (the next pop recomputes it).
        self.head = match self.head {
            Some(h) => Some(h.min(t)),
            None if self.summary == 0 => Some(t),
            None => None,
        };
        let node = Node {
            seq,
            payload,
            next: NIL,
        };
        let id = if self.free != NIL {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        let slot = t as usize & MASK;
        let bucket = &mut self.ring[slot];
        if bucket.head == NIL {
            bucket.head = id;
            self.occ[slot / 64] |= 1 << (slot % 64);
            self.summary |= 1 << (slot / 64);
        } else {
            self.nodes[bucket.tail as usize].next = id;
        }
        bucket.tail = id;
    }

    /// Absolute time of the earliest ring event, scanning circularly from
    /// the watermark's slot; the ring must be non-empty.
    fn ring_head_time(&self) -> u64 {
        debug_assert!(self.summary != 0, "ring_head_time on an empty ring");
        let start = self.watermark as usize & MASK;
        let (w0, b0) = (start / 64, start % 64);
        let first = self.occ[w0] & (!0u64 << b0);
        let slot = if first != 0 {
            w0 * 64 + first.trailing_zeros() as usize
        } else {
            // The first occupied word circularly after w0: a word above
            // it, else the lowest one — possibly w0 itself, whose set bits
            // then all lie below b0.
            let above = self.summary >> (w0 + 1) << (w0 + 1);
            let w = if above != 0 { above } else { self.summary }.trailing_zeros() as usize;
            w * 64 + self.occ[w].trailing_zeros() as usize
        };
        self.watermark + ((slot.wrapping_sub(start)) & MASK) as u64
    }

    /// Removes and returns the earliest event, advancing the watermark.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        // Invariant: every overflow event is ≥ watermark + RING, i.e.
        // strictly after every ring event — the ring head is global.
        let at = match self.head {
            Some(h) => h,
            None if self.summary != 0 => self.ring_head_time(),
            // Ring empty: jump the window to the overflow's earliest time.
            None => self.overflow.peek().expect("len > 0 with empty ring").at,
        };
        if at > self.watermark {
            self.watermark = at;
            self.slide_window();
        }
        let slot = at as usize & MASK;
        let id = self.ring[slot].head;
        let node = &mut self.nodes[id as usize];
        let (seq, payload, next) = (node.seq, node.payload, node.next);
        node.next = self.free;
        self.free = id;
        self.ring[slot].head = next;
        if next == NIL {
            self.occ[slot / 64] &= !(1 << (slot % 64));
            if self.occ[slot / 64] == 0 {
                self.summary &= !(1 << (slot / 64));
            }
            self.head = None;
        } else {
            self.head = Some(at);
        }
        self.len -= 1;
        Some(ScheduledEvent {
            at: SimTime::from_nanos(at),
            seq,
            payload,
        })
    }

    /// Migrates overflow events that now fall inside the ring window.
    /// Runs on every watermark advance, so a bucket receives migrated
    /// events *before* any later (higher-seq) push could target its time,
    /// keeping every bucket ascending in `seq`.
    fn slide_window(&mut self) {
        while let Some(head) = self.overflow.peek() {
            if head.at - self.watermark >= RING as u64 {
                break;
            }
            let Overflow { at, seq, payload } = self.overflow.pop().expect("peeked");
            self.insert_ring(at, seq, payload);
        }
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(at, _, _)| at)
    }

    /// The earliest pending event's time, sequence and payload, without
    /// popping it.
    pub fn peek(&self) -> Option<(SimTime, u64, &E)> {
        if self.summary != 0 {
            let at = self.head.unwrap_or_else(|| self.ring_head_time());
            let node = &self.nodes[self.ring[at as usize & MASK].head as usize];
            Some((SimTime::from_nanos(at), node.seq, &node.payload))
        } else {
            self.overflow
                .peek()
                .map(|o| (SimTime::from_nanos(o.at), o.seq, &o.payload))
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.watermark)
    }

    /// Discards all pending events but keeps the watermark and sequence
    /// counter, preserving determinism of subsequent pushes.
    pub fn clear(&mut self) {
        self.ring.fill(Bucket {
            head: NIL,
            tail: NIL,
        });
        self.nodes.clear();
        self.free = NIL;
        self.occ = [0; WORDS];
        self.summary = 0;
        self.overflow.clear();
        self.head = None;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::DetRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = WheelQueue::new();
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
        let mut q = WheelQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_events_pop_in_order() {
        let mut q = WheelQueue::new();
        // Far beyond the ring window, interleaved with near events.
        q.push(SimTime::from_nanos(1_000_000), "far");
        q.push(SimTime::from_nanos(10), "near");
        q.push(SimTime::from_nanos(1_000_000), "far-second");
        q.push(SimTime::from_nanos(999_999), "far-earlier");
        assert_eq!(q.pop().unwrap().payload, "near");
        assert_eq!(q.pop().unwrap().payload, "far-earlier");
        assert_eq!(q.pop().unwrap().payload, "far");
        assert_eq!(q.pop().unwrap().payload, "far-second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_migration_preserves_fifo_with_later_pushes() {
        let mut q = WheelQueue::new();
        let near = RING as u64 / 2;
        let t = near + RING as u64 - 1; // outside the initial window
        q.push(SimTime::from_nanos(t), 0u32); // → overflow
        q.push(SimTime::from_nanos(near), 99); // ring
                                               // Advance: watermark → `near`, the window now covers `t`,
                                               // migrating the overflow event before the next push targets its
                                               // bucket.
        assert_eq!(q.pop().unwrap().payload, 99);
        q.push(SimTime::from_nanos(t), 1);
        q.push(SimTime::from_nanos(t), 2);
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(popped, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_past_panics() {
        let mut q = WheelQueue::new();
        q.push(SimTime::from_nanos(100), ());
        q.pop();
        q.push(SimTime::from_nanos(50), ());
    }

    #[test]
    fn watermark_and_peek_match_heap_queue() {
        let mut q = WheelQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.push(SimTime::from_nanos(30), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(10));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(30));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_retains_watermark() {
        let mut q = WheelQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(20), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_nanos(10));
    }

    /// Pops both queues to exhaustion, asserting identical streams, and
    /// lets `follow_up` schedule children of each popped event on both.
    fn drain_in_lockstep(
        wheel: &mut WheelQueue<u64>,
        heap: &mut EventQueue<u64>,
        mut follow_up: impl FnMut(&ScheduledEvent<u64>, &mut WheelQueue<u64>, &mut EventQueue<u64>),
    ) -> usize {
        let mut popped = 0;
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            match (wheel.pop(), heap.pop()) {
                (None, None) => return popped,
                (Some(x), Some(y)) => {
                    assert_eq!((x.at, x.seq, x.payload), (y.at, y.seq, y.payload));
                    popped += 1;
                    follow_up(&x, wheel, heap);
                }
                (a, b) => panic!("streams diverged: {a:?} vs {b:?}"),
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.now(), heap.now());
        }
    }

    /// The decisive property: against randomized schedule-as-you-drain
    /// workloads, the wheel's full pop stream — times, seqs, payloads — is
    /// identical to the reference heap queue's. Each profile stresses one
    /// part of the wheel: same-ns bursts, push distances straddling the
    /// ring width (bucket reuse at the window edge, overflow migration),
    /// and long stretches that live only in the overflow heap.
    #[test]
    fn equivalent_to_event_queue_under_random_workload() {
        let ring = RING as u64;
        type Distance = fn(&mut DetRng, u64) -> u64;
        let profiles: [(&str, Distance); 4] = [
            ("mixed", |rng, ring| match rng.next_below(10) {
                0 => 0,
                1..=6 => rng.next_below(64),
                7..=8 => rng.next_below(2 * ring),
                _ => ring + rng.next_below(100_000),
            }),
            ("straddle", |rng, ring| ring - 3 + rng.next_below(7)),
            ("overflow-only", |rng, ring| {
                ring + rng.next_below(50 * ring)
            }),
            ("bursts", |rng, _| {
                if rng.next_below(4) == 0 {
                    1 + rng.next_below(3)
                } else {
                    0
                }
            }),
        ];
        for (name, dist) in profiles {
            for seed in 0..10u64 {
                let mut rng = DetRng::seed_from_u64(mix(seed));
                let mut wheel = WheelQueue::new();
                let mut heap = EventQueue::new();
                let mut next_id = 0u64;
                for _ in 0..rng.range(1, 50) {
                    let t = dist(&mut rng, ring);
                    wheel.push(SimTime::from_nanos(t), next_id);
                    heap.push(SimTime::from_nanos(t), next_id);
                    next_id += 1;
                }
                let popped = drain_in_lockstep(&mut wheel, &mut heap, |x, wheel, heap| {
                    // Schedule follow-ups the way an engine does; the
                    // budget keeps every profile's run finite.
                    if next_id < 4000 {
                        for _ in 0..rng.next_below(3) {
                            let t = SimTime::from_nanos(x.at.as_nanos() + dist(&mut rng, ring));
                            wheel.push(t, next_id);
                            heap.push(t, next_id);
                            next_id += 1;
                        }
                    }
                });
                assert_eq!(popped as u64, next_id, "{name} seed {seed}");
            }
        }
    }

    fn mix(seed: u64) -> u64 {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xE1E2
    }
}
