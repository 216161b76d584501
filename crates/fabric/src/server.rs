//! The FIFO bandwidth server.
//!
//! A link direction serves transactions one at a time at its capacity. The
//! classic virtual-clock formulation needs no queue storage: a transaction
//! arriving at time `t` departs at `max(t, next_free) + size/rate`, and
//! `next_free` advances to the departure. Arrivals must be presented in
//! nondecreasing time order (the event queue guarantees this), which makes
//! service order FIFO — the traffic-oblivious arbitration the paper
//! identifies as the root of sender-driven partitioning.

use chiplet_sim::Bandwidth;
use serde::{Deserialize, Serialize};

/// The outcome of admitting one transaction to a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Admission {
    /// When the transaction finishes service (its data has fully crossed).
    pub depart_ns: f64,
    /// Time spent waiting behind earlier transactions.
    pub wait_ns: f64,
    /// Pure serialization time of this transaction.
    pub service_ns: f64,
}

/// A work-conserving FIFO serializer at a fixed byte rate.
///
/// ```
/// use chiplet_fabric::FifoServer;
/// use chiplet_sim::Bandwidth;
///
/// // 64 GB/s serves a 64-byte line in exactly 1 ns.
/// let mut s = FifoServer::new(Bandwidth::from_gb_per_s(64.0));
/// let a = s.admit(0.0, 64);
/// let b = s.admit(0.0, 64); // arrives together, queues behind the first
/// assert_eq!(a.depart_ns, 1.0);
/// assert_eq!(b.depart_ns, 2.0);
/// assert_eq!(b.wait_ns, 1.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FifoServer {
    bytes_per_ns: f64,
    next_free_ns: f64,
    /// Total bytes admitted.
    bytes_served: u64,
    /// Total busy (serving) time, ns.
    busy_ns: f64,
    /// Transactions admitted.
    admitted: u64,
    /// Accumulated waiting time, ns.
    total_wait_ns: f64,
    /// Largest single wait, ns.
    max_wait_ns: f64,
}

impl FifoServer {
    /// Creates a server with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive capacity: a zero-rate link is a
    /// configuration error, not a valid model.
    pub fn new(capacity: Bandwidth) -> Self {
        assert!(
            capacity.is_positive(),
            "FifoServer requires positive capacity, got {capacity}"
        );
        FifoServer {
            bytes_per_ns: capacity.bytes_per_ns(),
            next_free_ns: 0.0,
            bytes_served: 0,
            busy_ns: 0.0,
            admitted: 0,
            total_wait_ns: 0.0,
            max_wait_ns: 0.0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_s(self.bytes_per_ns * 1e9)
    }

    /// Pure serialization time of `bytes` at this server's rate, ns.
    pub fn service_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bytes_per_ns
    }

    /// Admits a transaction of `bytes` arriving at `now_ns`.
    ///
    /// Arrivals must be presented in nondecreasing time order (the caller's
    /// event ordering guarantees FIFO correctness).
    pub fn admit(&mut self, now_ns: f64, bytes: u64) -> Admission {
        self.admit_with_service(now_ns, bytes, self.service_ns(bytes))
    }

    /// Admits a transaction whose service time the caller computed ahead
    /// with [`FifoServer::service_ns`]: the hot path hoists the division
    /// out of every admission. Identical to [`FifoServer::admit`] bit for
    /// bit when `service_ns == self.service_ns(bytes)`.
    #[inline]
    pub fn admit_with_service(&mut self, now_ns: f64, bytes: u64, service_ns: f64) -> Admission {
        let start = if self.next_free_ns > now_ns {
            self.next_free_ns
        } else {
            now_ns
        };
        let wait_ns = start - now_ns;
        let depart_ns = start + service_ns;
        self.next_free_ns = depart_ns;
        self.bytes_served += bytes;
        self.busy_ns += service_ns;
        self.admitted += 1;
        self.total_wait_ns += wait_ns;
        if wait_ns > self.max_wait_ns {
            self.max_wait_ns = wait_ns;
        }
        Admission {
            depart_ns,
            wait_ns,
            service_ns,
        }
    }

    /// Earliest time a new arrival would begin service.
    pub fn next_free_ns(&self) -> f64 {
        self.next_free_ns
    }

    /// Total bytes admitted so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Transactions admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Fraction of `[0, horizon_ns]` the server spent serving.
    pub fn utilization(&self, horizon_ns: f64) -> f64 {
        if horizon_ns <= 0.0 {
            0.0
        } else {
            (self.busy_ns / horizon_ns).min(1.0)
        }
    }

    /// Mean queueing wait across all admissions, ns.
    pub fn mean_wait_ns(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.total_wait_ns / self.admitted as f64
        }
    }

    /// Largest single queueing wait observed, ns.
    pub fn max_wait_ns(&self) -> f64 {
        self.max_wait_ns
    }

    /// Clears statistics but keeps the clock, for warmup-discard protocols.
    pub fn reset_stats(&mut self) {
        self.bytes_served = 0;
        self.busy_ns = 0.0;
        self.admitted = 0;
        self.total_wait_ns = 0.0;
        self.max_wait_ns = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(gb: f64) -> FifoServer {
        FifoServer::new(Bandwidth::from_gb_per_s(gb))
    }

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = server(32.0);
        let a = s.admit(100.0, 64);
        assert_eq!(a.wait_ns, 0.0);
        assert_eq!(a.service_ns, 2.0);
        assert_eq!(a.depart_ns, 102.0);
    }

    #[test]
    fn back_to_back_arrivals_queue() {
        let mut s = server(64.0);
        let mut depart = 0.0;
        for i in 0..10 {
            let a = s.admit(0.0, 64);
            assert_eq!(a.wait_ns, i as f64);
            assert!(a.depart_ns > depart);
            depart = a.depart_ns;
        }
        assert_eq!(depart, 10.0);
        assert_eq!(s.max_wait_ns(), 9.0);
    }

    #[test]
    fn gaps_leave_server_idle() {
        let mut s = server(64.0);
        s.admit(0.0, 64);
        let a = s.admit(100.0, 64);
        assert_eq!(a.wait_ns, 0.0);
        assert_eq!(a.depart_ns, 101.0);
        // Utilization over 101 ns: 2 ns busy.
        assert!((s.utilization(101.0) - 2.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn fifo_shares_are_proportional_to_arrival_rates() {
        // Two interleaved arrival streams at 2:1 rate ratio through a
        // saturated server: served bytes split 2:1 (sender-driven sharing).
        let mut s = server(10.0);
        let mut served = [0u64, 0u64];
        let horizon = 10_000.0;
        let mut t: f64 = 0.0;
        let mut k = 0u64;
        while t < horizon {
            // Stream 0 arrives every 4 ns (16 GB/s), stream 1 every 8 ns (8 GB/s).
            let stream = if k % 3 == 2 { 1 } else { 0 };
            let a = s.admit(t, 64);
            if a.depart_ns <= horizon {
                served[stream] += 64;
            }
            k += 1;
            t += if k.is_multiple_of(3) { 2.0 } else { 1.0 };
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((1.8..=2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn reset_stats_keeps_clock() {
        let mut s = server(64.0);
        s.admit(0.0, 6400);
        let free = s.next_free_ns();
        s.reset_stats();
        assert_eq!(s.bytes_served(), 0);
        assert_eq!(s.next_free_ns(), free);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = FifoServer::new(Bandwidth::ZERO);
    }

    #[test]
    fn extra_service_delays_successors() {
        let mut s = server(64.0);
        let slow = s.admit_with_service(0.0, 64, 301.0);
        assert_eq!(slow.service_ns, 301.0);
        assert_eq!(slow.depart_ns, 301.0);
        // The next transaction queues behind the slow one.
        let next = s.admit(1.0, 64);
        assert_eq!(next.wait_ns, 300.0);
    }

    #[test]
    fn mean_wait_tracks_congestion() {
        let mut light = server(64.0);
        let mut heavy = server(64.0);
        for i in 0..100 {
            light.admit(i as f64 * 10.0, 64); // 6.4 GB/s offered
            heavy.admit(i as f64 * 0.5, 64); // 128 GB/s offered
        }
        assert!(light.mean_wait_ns() < 0.01);
        assert!(heavy.mean_wait_ns() > 10.0);
    }
}
