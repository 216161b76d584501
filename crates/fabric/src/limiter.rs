//! The outstanding-request limiter.
//!
//! §3.2: "Within a compute (sub)-chiplet, there is a traffic control module
//! that limits the number of outstanding requests. It employs a queueless
//! structure (like Phantom Queue) and uses tokens and backpressure for
//! overload control."
//!
//! [`SlotLimiter`] models that module: a fixed pool of slots (tokens) with a
//! FIFO wait list for requests that arrive when the pool is empty. Slots are
//! shared between reads and writes, which is the mechanism behind the
//! within-chiplet read→write interference of Figure 6 (a saturated read
//! stream exhausts the shared pool and starves writes).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// A token pool with FIFO backpressure.
///
/// Generic over the caller's pending-request handle `T` (the engine uses a
/// transaction id).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotLimiter<T> {
    capacity: u32,
    in_use: u32,
    waiters: VecDeque<T>,
}

impl<T> SlotLimiter<T> {
    /// Creates a limiter with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity (nothing could ever pass).
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "limiter needs at least one slot");
        SlotLimiter {
            capacity,
            in_use: 0,
            waiters: VecDeque::new(),
        }
    }

    /// Attempts to take a slot. On success returns `true`; otherwise the
    /// handle joins the FIFO wait list and will be handed back by a future
    /// [`SlotLimiter::release`].
    pub fn acquire(&mut self, waiter: T) -> bool {
        if self.in_use < self.capacity && self.waiters.is_empty() {
            self.in_use += 1;
            true
        } else {
            self.waiters.push_back(waiter);
            false
        }
    }

    /// Returns a slot. If a request is waiting, the slot transfers to it and
    /// its handle is returned so the caller can resume it.
    ///
    /// # Panics
    ///
    /// Panics if no slot is outstanding (a release without an acquire is an
    /// engine logic error).
    pub fn release(&mut self) -> Option<T> {
        assert!(self.in_use > 0, "release without outstanding slot");
        match self.waiters.pop_front() {
            Some(w) => Some(w), // slot transfers directly to the waiter
            None => {
                self.in_use -= 1;
                None
            }
        }
    }

    /// Slots currently held.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Requests currently waiting.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_until_full() {
        let mut l: SlotLimiter<u32> = SlotLimiter::new(3);
        assert!(l.acquire(1));
        assert!(l.acquire(2));
        assert!(l.acquire(3));
        assert!(!l.acquire(4));
        assert_eq!(l.in_use(), 3);
        assert_eq!(l.waiting(), 1);
    }

    #[test]
    fn release_hands_slot_to_waiter_fifo() {
        let mut l: SlotLimiter<u32> = SlotLimiter::new(1);
        assert!(l.acquire(10));
        assert!(!l.acquire(11));
        assert!(!l.acquire(12));
        // FIFO: 11 resumes before 12.
        assert_eq!(l.release(), Some(11));
        assert_eq!(l.release(), Some(12));
        assert_eq!(l.release(), None);
        assert_eq!(l.in_use(), 0);
    }

    #[test]
    fn slot_count_is_conserved() {
        let mut l: SlotLimiter<u32> = SlotLimiter::new(2);
        assert!(l.acquire(1));
        assert!(l.acquire(2));
        assert!(!l.acquire(3));
        // Slot transfers to 3 without in_use dropping.
        assert_eq!(l.release(), Some(3));
        assert_eq!(l.in_use(), 2);
        assert_eq!(l.release(), None);
        assert_eq!(l.release(), None);
        assert_eq!(l.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "release without outstanding slot")]
    fn release_without_acquire_panics() {
        let mut l: SlotLimiter<u32> = SlotLimiter::new(1);
        let _ = l.release();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _: SlotLimiter<u32> = SlotLimiter::new(0);
    }
}
