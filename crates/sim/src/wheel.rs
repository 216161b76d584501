//! A timer-wheel event queue.
//!
//! [`WheelQueue`] is a drop-in replacement for [`crate::EventQueue`] tuned
//! for the event engine's workload: integer-nanosecond timestamps, dozens
//! of events per busy nanosecond, and nearly every push landing a few
//! hundred nanoseconds ahead. It preserves the queue's *total order*
//! exactly — events pop in nondecreasing time order, FIFO among equal
//! times — so any engine run is bit-identical whichever of the two queues
//! it executes on (property-tested against [`crate::EventQueue`]).
//!
//! Layout: a ring of `RING` (512) one-nanosecond buckets covering the window
//! `[now, now + RING)`, a one-`u64`-per-64-slots occupancy bitmap with a
//! single-word summary for O(1) next-bucket scans, and a binary-heap
//! overflow for the rare push beyond the window. Each bucket is one
//! contiguous buffer read by index: a ring-wide array gives every bucket
//! its own 128-byte line holding a `(fill, read)` cursor and room for its
//! first `LINE` (15) events. A push writes at `fill` and a pop reads at
//! `read`, so neither follows a link, and while the bucket being popped
//! still holds events the next pop needs no bitmap scan. A drained bucket
//! resets its cursor. Events past a bucket's line go to its spill list,
//! threaded through one small slab shared by all buckets, so memory is
//! bounded by the events pending, not by every burst a bucket ever held;
//! under 0.7 % of pushes spill on every registry entry but table3.
//!
//! Bucket order is push order, so no ring event carries a sequence number.
//! A bucket only ever appends at `fill` and reads at `read`, so it is a
//! FIFO, including pushes into the bucket being read, which land behind
//! its unread events. Events beyond the window wait in the overflow heap,
//! which does not keep insertion order and so does carry a sequence
//! number; they migrate into the ring *eagerly* whenever the window slides,
//! in `(time, seq)` order and before any later push can target their
//! bucket (a push is only ever within the window of the last pop). The
//! ring array is filled with the first payload pushed (a value of `E` is
//! needed to fill it) and payloads are copied out, hence `E: Copy`.
//!
//! `push` and `pop` are `#[inline(always)]`: the engine's event loop is
//! their one hot caller, and out-of-line calls cost it 5–10 % of its run
//! time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// [`WheelQueue::head`] when the ring holds no events.
const EMPTY: u64 = u64::MAX;

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

/// Events a bucket holds in its ring line; later ones spill. With the
/// cursor that is 128 bytes (two cache lines) for the engine's 8-byte
/// events. Seven events (one cache line) spilled 12–43 % of pushes on the
/// engine runs of dse_epyc, fig4, fig6 and table3, where the spill path
/// cost more than the line saved; fifteen spill under 0.7 % of pushes on
/// every registry entry but table3 (21 %).
const LINE: usize = 15;

/// One bucket's cursor and first [`LINE`] events, in push order, so a
/// push or a pop touches only the bucket's own line unless it has
/// spilled; the cursor and the first seven events share a cache line.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Line<E> {
    cursor: Cursor,
    events: [E; LINE],
}

/// A bucket's fill level and read position: its unpopped events are
/// positions `read..fill`, where position `i < LINE` is in its [`Line`] and
/// the rest are its spill list, in order. Draining a bucket resets both
/// to 0.
#[derive(Clone, Copy, Default)]
struct Cursor {
    fill: u32,
    read: u32,
}

/// The end of a spill list.
const NIL: u32 = u32::MAX;

/// A node of the spill slab: a spilled event, or a free-list link.
struct Spilled<E> {
    payload: E,
    next: u32,
}

/// One bucket's events past its line: a FIFO list through the spill slab,
/// empty when `head == NIL`.
#[derive(Clone, Copy)]
struct SpillList {
    head: u32,
    tail: u32,
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
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert!(q.pop().is_none());
/// ```
pub struct WheelQueue<E> {
    /// One line per slot, allocated at the first ring push.
    lines: Vec<Line<E>>,
    /// Each slot's events past its line, empty but for bursts.
    spills: Vec<SpillList>,
    /// The nodes of every spill list; `spill_free` heads the recycled
    /// ones. One slab for all slots holds only as many nodes as events
    /// were ever spilled at once, where a buffer per slot would keep every
    /// burst's capacity.
    spilled: Vec<Spilled<E>>,
    spill_free: u32,
    /// Absolute time of the earliest ring event, [`EMPTY`] when the ring
    /// holds none. Always exact: a push lowers it, and a pop that drains
    /// its bucket rescans the bitmap.
    head: u64,
    /// Occupancy bitmap: bit `s % 64` of word `s / 64` set ⇔ slot `s`
    /// holds unpopped items.
    occ: [u64; WORDS],
    /// Bit `w` set ⇔ `occ[w] != 0`.
    summary: u64,
    /// Time of the last popped event (the watermark); the ring covers
    /// `[watermark, watermark + RING)` and the overflow holds the rest.
    watermark: u64,
    overflow: BinaryHeap<Overflow<E>>,
    /// Insertion index of the next overflow push.
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
            lines: Vec::new(),
            spills: vec![
                SpillList {
                    head: NIL,
                    tail: NIL
                };
                RING
            ],
            spilled: Vec::new(),
            spill_free: NIL,
            head: EMPTY,
            occ: [0; WORDS],
            summary: 0,
            watermark: 0,
            overflow: BinaryHeap::new(),
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
    #[inline(always)]
    pub fn push(&mut self, at: SimTime, payload: E) {
        let t = at.as_nanos();
        assert!(
            t >= self.watermark,
            "event scheduled into the past: {} < current time {}",
            at,
            SimTime::from_nanos(self.watermark)
        );
        self.len += 1;
        if t - self.watermark < RING as u64 {
            self.insert_ring(t, payload);
        } else {
            self.push_overflow(t, payload);
        }
    }

    fn push_overflow(&mut self, at: u64, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.overflow.push(Overflow { at, seq, payload });
    }

    #[inline(always)]
    fn insert_ring(&mut self, t: u64, payload: E) {
        self.head = self.head.min(t);
        let slot = t as usize & MASK;
        if self.lines.is_empty() {
            self.fill_lines(payload);
        }
        let line = &mut self.lines[slot];
        let n = line.cursor.fill;
        line.cursor.fill = n + 1;
        match line.events.get_mut(n as usize) {
            Some(event) => *event = payload,
            None => self.spill(slot, payload),
        }
        self.occ[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    /// Absolute time of the earliest ring event, scanning circularly from
    /// the watermark's slot; [`EMPTY`] when the ring holds none.
    #[inline(always)]
    fn ring_head_time(&self) -> u64 {
        if self.summary == 0 {
            return EMPTY;
        }
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

    /// Removes and returns the earliest event and its time, advancing the
    /// watermark.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Invariant: every overflow event is ≥ watermark + RING, i.e.
        // strictly after every ring event — the ring head is global.
        let mut at = self.head;
        if at == EMPTY {
            // Ring empty: jump the window to the overflow's earliest time.
            at = self.overflow.peek()?.at;
        }
        if at > self.watermark {
            self.watermark = at;
            if !self.overflow.is_empty() {
                self.slide_window();
            }
        }
        let slot = at as usize & MASK;
        let line = &mut self.lines[slot];
        let Cursor { fill, read } = line.cursor;
        let drained = read + 1 == fill;
        line.cursor = if drained {
            Cursor::default()
        } else {
            Cursor {
                fill,
                read: read + 1,
            }
        };
        let payload = match line.events.get(read as usize) {
            Some(&payload) => payload,
            None => self.unspill(slot),
        };
        if drained {
            self.occ[slot / 64] &= !(1 << (slot % 64));
            if self.occ[slot / 64] == 0 {
                self.summary &= !(1 << (slot / 64));
            }
            self.head = self.ring_head_time();
        }
        self.len -= 1;
        Some((SimTime::from_nanos(at), payload))
    }

    /// Allocates the ring's lines at the first ring push, filled with its
    /// payload: a `Copy` payload is the one value of `E` at hand.
    #[cold]
    fn fill_lines(&mut self, payload: E) {
        let line = Line {
            cursor: Cursor::default(),
            events: [payload; LINE],
        };
        self.lines = vec![line; RING];
    }

    /// Appends `payload` to the spill list of `slot`.
    #[cold]
    fn spill(&mut self, slot: usize, payload: E) {
        let node = Spilled { payload, next: NIL };
        let id = if self.spill_free != NIL {
            let id = self.spill_free;
            self.spill_free = self.spilled[id as usize].next;
            self.spilled[id as usize] = node;
            id
        } else {
            self.spilled.push(node);
            u32::try_from(self.spilled.len() - 1).expect("spill slab overflow")
        };
        let list = &mut self.spills[slot];
        if list.head == NIL {
            list.head = id;
        } else {
            self.spilled[list.tail as usize].next = id;
        }
        list.tail = id;
    }

    /// Removes and returns the first event of the spill list of `slot`.
    #[cold]
    fn unspill(&mut self, slot: usize) -> E {
        let id = self.spills[slot].head;
        let node = &mut self.spilled[id as usize];
        let (payload, next) = (node.payload, node.next);
        node.next = self.spill_free;
        self.spill_free = id;
        self.spills[slot].head = next;
        payload
    }

    /// Migrates overflow events that now fall inside the ring window, in
    /// `(at, seq)` order. Runs on every watermark advance, so a bucket
    /// receives migrated events *before* any later push could target its
    /// time, keeping every bucket in push order.
    fn slide_window(&mut self) {
        while let Some(head) = self.overflow.peek() {
            if head.at - self.watermark >= RING as u64 {
                break;
            }
            let Overflow { at, payload, .. } = self.overflow.pop().expect("peeked");
            self.insert_ring(at, payload);
        }
    }

    /// Empties the queue and rewinds its clock to zero, keeping its
    /// buffers: a cleared queue pops exactly what a new one would.
    pub fn clear(&mut self) {
        for line in &mut self.lines {
            line.cursor = Cursor::default();
        }
        self.spills.fill(SpillList {
            head: NIL,
            tail: NIL,
        });
        self.spilled.clear();
        self.spill_free = NIL;
        self.head = EMPTY;
        self.occ = [0; WORDS];
        self.summary = 0;
        self.watermark = 0;
        self.overflow.clear();
        self.next_seq = 0;
        self.len = 0;
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
        while let Some((_, payload)) = q.pop() {
            out.push(payload);
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
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
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
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far-earlier");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "far-second");
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
        assert_eq!(q.pop().unwrap().1, 99);
        q.push(SimTime::from_nanos(t), 1);
        q.push(SimTime::from_nanos(t), 2);
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
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
    fn watermark_tracks_pops() {
        let mut q = WheelQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.push(SimTime::from_nanos(30), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(10));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(30));
        assert!(q.is_empty());
    }

    /// Pops both queues to exhaustion, asserting identical `(time,
    /// payload)` streams, and lets `follow_up` schedule children of each
    /// popped event on both. Callers push a unique payload each time, so
    /// equal streams mean the same pop order, equal-time ties included.
    fn drain_in_lockstep(
        wheel: &mut WheelQueue<u64>,
        heap: &mut EventQueue<u64>,
        mut follow_up: impl FnMut(SimTime, &mut WheelQueue<u64>, &mut EventQueue<u64>),
    ) -> usize {
        let mut popped = 0;
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => return popped,
                (Some(x), Some(y)) => {
                    assert_eq!(x, (y.at, y.payload));
                    popped += 1;
                    follow_up(x.0, wheel, heap);
                }
                (a, b) => panic!("streams diverged: {a:?} vs {b:?}"),
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.now(), heap.now());
        }
    }

    /// The decisive property: against randomized schedule-as-you-drain
    /// workloads, the wheel's full pop stream — times and unique payloads —
    /// is identical to the reference heap queue's. Each profile stresses one
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
                for _ in 0..1 + rng.next_below(49) {
                    let t = dist(&mut rng, ring);
                    wheel.push(SimTime::from_nanos(t), next_id);
                    heap.push(SimTime::from_nanos(t), next_id);
                    next_id += 1;
                }
                let popped = drain_in_lockstep(&mut wheel, &mut heap, |at, wheel, heap| {
                    // Schedule follow-ups the way an engine does; the
                    // budget keeps every profile's run finite.
                    if next_id < 4000 {
                        for _ in 0..rng.next_below(3) {
                            let t = SimTime::from_nanos(at.as_nanos() + dist(&mut rng, ring));
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

    /// Pushes one event at `t` onto both queues with the next unique
    /// payload.
    fn push_both(wheel: &mut WheelQueue<u64>, heap: &mut EventQueue<u64>, t: u64, id: &mut u64) {
        wheel.push(SimTime::from_nanos(t), *id);
        heap.push(SimTime::from_nanos(t), *id);
        *id += 1;
    }

    /// A generator shaped like the push stream the engine records on the
    /// Figure 3 sweep: about a fifth of pushes at `now`, most of the rest
    /// within 8 ns, a tail 128–511 ns ahead and a few beyond the ring. The
    /// run opens with a burst of 64 pushes at time 0, like every issuer's
    /// first attempt, which spills that bucket past its line.
    #[test]
    fn equivalent_to_event_queue_on_an_engine_shaped_stream() {
        let ring = RING as u64;
        for seed in 0..10u64 {
            let mut rng = DetRng::seed_from_u64(mix(seed));
            let mut dist = move || match rng.next_below(100) {
                0..=19 => 0,
                20..=69 => 1 + rng.next_below(8),
                70..=84 => 9 + rng.next_below(119),
                85..=97 => 128 + rng.next_below(ring - 128),
                _ => ring + rng.next_below(4 * ring),
            };
            let mut wheel = WheelQueue::new();
            let mut heap = EventQueue::new();
            let mut id = 0;
            for _ in 0..64 {
                push_both(&mut wheel, &mut heap, 0, &mut id);
            }
            let mut children = DetRng::seed_from_u64(mix(seed + 100));
            let popped = drain_in_lockstep(&mut wheel, &mut heap, |at, wheel, heap| {
                if id < 20_000 {
                    for _ in 0..children.next_below(3) {
                        push_both(wheel, heap, at.as_nanos() + dist(), &mut id);
                    }
                }
            });
            assert_eq!(popped as u64, id, "seed {seed}");
        }
    }

    /// Every pop pushes into the bucket being read, so the bucket grows
    /// from its line into its spill while it is popped; now and then a
    /// push goes one nanosecond ahead instead, so the bucket finally
    /// drains and the next one fills the same way.
    #[test]
    fn pushes_into_the_bucket_being_read_pop_behind_its_unread_events() {
        let mut wheel = WheelQueue::new();
        let mut heap = EventQueue::new();
        let mut id = 0;
        for _ in 0..LINE + 3 {
            push_both(&mut wheel, &mut heap, 7, &mut id);
        }
        let popped = drain_in_lockstep(&mut wheel, &mut heap, |at, wheel, heap| {
            if id < 2_000 {
                let ahead = u64::from(id % 7 == 0);
                push_both(wheel, heap, at.as_nanos() + ahead, &mut id);
            }
        });
        assert_eq!(popped as u64, id);
        assert_eq!(wheel.now(), heap.now());
        assert!(wheel.now().as_nanos() > 7 + 10, "the window moved on");
    }

    /// Pops schedule successors just under one ring width ahead, into the
    /// slots the window has just left, so the window laps the ring many
    /// times and every slot is refilled; some refills are bursts past the
    /// line, so spill nodes are recycled too. A successor is scheduled
    /// only while few events are pending, which keeps the run finite.
    #[test]
    fn buckets_are_reused_after_the_window_wraps() {
        let ring = RING as u64;
        let mut rng = DetRng::seed_from_u64(mix(7));
        let mut wheel = WheelQueue::new();
        let mut heap = EventQueue::new();
        let mut id = 0;
        for t in 0..4 {
            push_both(&mut wheel, &mut heap, t, &mut id);
        }
        let popped = drain_in_lockstep(&mut wheel, &mut heap, |at, wheel, heap| {
            if id < 30_000 && wheel.len() < 8 {
                let t = at.as_nanos() + ring - 1 - rng.next_below(3);
                let n = if rng.next_below(16) == 0 { LINE + 2 } else { 1 };
                for _ in 0..n {
                    push_both(wheel, heap, t, &mut id);
                }
            }
        });
        assert_eq!(popped as u64, id);
        assert!(wheel.now().as_nanos() > 20 * ring, "the window lapped");
    }

    /// Only far pushes: the ring is empty at every pop, so each pop jumps
    /// the window to the overflow's head and migrates everything inside
    /// the new window into the empty ring, equal times in push order.
    /// Pushes made after the jump into a bucket that received migrated
    /// events must pop behind them.
    #[test]
    fn overflow_migrates_into_an_empty_ring() {
        let ring = RING as u64;
        let mut rng = DetRng::seed_from_u64(mix(11));
        let mut wheel = WheelQueue::new();
        let mut heap = EventQueue::new();
        let mut id = 0;
        for t in [
            3 * ring,
            3 * ring,
            3 * ring + 5,
            4 * ring - 1,
            3 * ring,
            9 * ring,
        ] {
            push_both(&mut wheel, &mut heap, t, &mut id);
        }
        let popped = drain_in_lockstep(&mut wheel, &mut heap, |at, wheel, heap| {
            let at = at.as_nanos();
            if id < 5_000 {
                // Into a bucket that migrated events may share, then far
                // out again, in bursts that share a time.
                if rng.next_below(2) == 0 {
                    push_both(wheel, heap, at + rng.next_below(6), &mut id);
                }
                let far = at + ring + rng.next_below(3 * ring);
                for _ in 0..1 + rng.next_below(3) {
                    push_both(wheel, heap, far, &mut id);
                }
            }
        });
        assert_eq!(popped as u64, id);
    }

    /// A queue cleared with events pending in its line, its spill and
    /// its overflow, and with its clock far from zero, pops the same
    /// stream as a new one.
    #[test]
    fn a_cleared_queue_behaves_like_a_new_one() {
        let ring = RING as u64;
        let mut wheel = WheelQueue::new();
        let mut id = 0;
        for t in [5, 5 * ring, 40] {
            for _ in 0..LINE + 4 {
                wheel.push(SimTime::from_nanos(t), id);
                id += 1;
            }
        }
        for _ in 0..LINE + 6 {
            wheel.pop();
        }
        assert!(wheel.now().as_nanos() > 0);
        wheel.clear();
        assert!(wheel.is_empty());
        assert_eq!(wheel.now(), SimTime::ZERO);
        assert!(wheel.pop().is_none());

        let mut heap = EventQueue::new();
        let mut rng = DetRng::seed_from_u64(mix(3));
        for _ in 0..2 * LINE {
            push_both(&mut wheel, &mut heap, rng.next_below(3), &mut id);
        }
        let budget = id + 5_000;
        let popped = drain_in_lockstep(&mut wheel, &mut heap, |at, wheel, heap| {
            if id < budget {
                for _ in 0..rng.next_below(3) {
                    let ahead = match rng.next_below(8) {
                        0 => ring + rng.next_below(ring),
                        _ => rng.next_below(6),
                    };
                    push_both(wheel, heap, at.as_nanos() + ahead, &mut id);
                }
            }
        });
        assert!(popped > 2 * LINE);
    }

    fn mix(seed: u64) -> u64 {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xE1E2
    }
}
