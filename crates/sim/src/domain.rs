//! Per-domain event scheduling with conservative-lookahead batch
//! parallelism.
//!
//! A [`DomainScheduler`] splits one logical event queue into per-domain
//! *lanes* (one [`WheelQueue`] each) while preserving the exact total
//! order of the single-queue engine: every event carries a **global**
//! sequence number, and pop order is `(time, seq)` — identical to what
//! [`crate::EventQueue`] would have produced, independent of how many
//! domains or worker threads participate. A scheduler with one domain *is*
//! the single-queue engine, just behind one extra indirection.
//!
//! The execution model is nanosecond-batch with deterministic replay:
//!
//! 1. [`DomainScheduler::next_batch_time`] finds the earliest pending
//!    nanosecond T across all lanes.
//! 2. Each domain drains its lane's events at T
//!    ([`DomainScheduler::drain_lane_at`]) and executes them — batch
//!    events in ascending `seq`, then any same-T children it scheduled
//!    locally, FIFO, to exhaustion. Domains may run concurrently: the
//!    caller guarantees (via its domain partition and a ≥ 1 ns
//!    cross-domain delay) that same-T events in different domains never
//!    interact, so each domain sees exactly the state the sequential
//!    engine would have shown it.
//! 3. While executing, each domain **logs** every event it schedules
//!    ([`LoggedPush`]) instead of assigning sequence numbers: same-T local
//!    children as [`LoggedPush::Local`], everything else as
//!    [`LoggedPush::Future`] with its payload.
//! 4. At the barrier, [`DomainScheduler::commit_batch`] replays the batch
//!    single-threaded *by sequence number alone* — no payloads touched —
//!    reconstructing exactly the sequence numbers the single-queue engine
//!    would have assigned, and delivers every `Future` push to its
//!    destination lane under that number.
//!
//! Because the replay visits domains' events in each domain's own
//! execution order (batch `seq` order, then FIFO children), the k-th
//! replayed event of a domain is its k-th executed event, so logs line up
//! positionally and no payload needs to be re-examined.

use crate::time::SimTime;
use crate::wheel::WheelQueue;
use std::collections::BinaryHeap;

/// One scheduling decision logged during a domain's batch execution, in
/// the order the executing event issued them.
#[derive(Debug)]
pub enum LoggedPush<E> {
    /// A same-nanosecond child executed locally by the same domain (it
    /// never enters a lane); consumes one sequence number at replay and
    /// re-enters the replay order with its own log entry.
    Local,
    /// An event delivered to `domain`'s lane at a strictly later
    /// nanosecond.
    Future {
        /// Destination domain.
        domain: u32,
        /// Delivery time (strictly after the batch nanosecond).
        at: SimTime,
        /// The event payload, moved to the destination lane at commit.
        payload: E,
    },
}

/// The pushes issued by one executed event.
pub type EventLog<E> = Vec<LoggedPush<E>>;

/// Per-domain event lanes sharing one global `(time, seq)` order.
pub struct DomainScheduler<E> {
    lanes: Vec<WheelQueue<E>>,
    next_seq: u64,
}

impl<E: Copy> DomainScheduler<E> {
    /// A scheduler with `domains` lanes.
    pub fn new(domains: usize) -> Self {
        assert!(domains > 0, "at least one domain");
        DomainScheduler {
            lanes: (0..domains).map(|_| WheelQueue::new()).collect(),
            next_seq: 0,
        }
    }

    /// Number of lanes.
    pub fn domain_count(&self) -> usize {
        self.lanes.len()
    }

    /// Schedules `payload` on `domain`'s lane, assigning the next global
    /// sequence number. Use this for pre-run seeding and for any
    /// single-threaded phase; batch execution goes through logs +
    /// [`Self::commit_batch`] instead.
    pub fn push(&mut self, domain: usize, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lanes[domain].push_at_seq(at, seq, payload);
    }

    /// Total pending events across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(WheelQueue::len).sum()
    }

    /// True when every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(WheelQueue::is_empty)
    }

    /// The earliest pending nanosecond across all lanes.
    pub fn next_batch_time(&self) -> Option<SimTime> {
        self.lanes.iter().filter_map(WheelQueue::peek_time).min()
    }

    /// The `(domain, seq)` of the globally earliest pending event — the
    /// event a single queue would pop next. Ties cannot occur: sequence
    /// numbers are globally unique.
    pub fn peek_head(&self) -> Option<(usize, u64)> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(d, l)| l.peek().map(|(at, seq, _)| (at, seq, d)))
            .min_by_key(|&(at, seq, _)| (at, seq))
            .map(|(_, seq, d)| (d, seq))
    }

    /// Pops the globally earliest event (single-threaded use: the
    /// degenerate path and global events like stats resets).
    pub fn pop_head(&mut self) -> Option<(usize, SimTime, u64, E)> {
        let (d, _) = self.peek_head()?;
        let ev = self.lanes[d].pop().expect("peeked");
        Some((d, ev.at, ev.seq, ev.payload))
    }

    /// Direct mutable access to the lanes, for callers that execute
    /// domains on worker threads (each worker borrows its own lanes).
    pub fn lanes_mut(&mut self) -> &mut [WheelQueue<E>] {
        &mut self.lanes
    }

    /// Drains every event scheduled at exactly `t` from `lane` into
    /// `out` as `(seq, payload)`, ascending in `seq`. Standalone so
    /// worker threads can call it on a lane borrowed via
    /// [`Self::lanes_mut`].
    pub fn drain_lane_at(lane: &mut WheelQueue<E>, t: SimTime, out: &mut Vec<(u64, E)>) {
        while lane.peek_time() == Some(t) {
            let ev = lane.pop().expect("peeked");
            out.push((ev.seq, ev.payload));
        }
    }

    /// Replays a completed batch and delivers its future events.
    ///
    /// `batch_seqs[d]` lists domain `d`'s drained batch sequence numbers
    /// (ascending); `logs[d]` holds one [`EventLog`] per event domain `d`
    /// executed, in execution order — batch events first (ascending
    /// `seq`), then same-T children FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the logs are inconsistent with the batch (a domain
    /// logged more or fewer executed events than the replay visits).
    pub fn commit_batch(&mut self, batch_seqs: &[Vec<u64>], logs: Vec<Vec<EventLog<E>>>) {
        assert_eq!(batch_seqs.len(), self.lanes.len());
        assert_eq!(logs.len(), self.lanes.len());
        // Min-heap over (seq, domain) via Reverse; sequence numbers are
        // globally unique so the order is total.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
        for (d, seqs) in batch_seqs.iter().enumerate() {
            for &s in seqs {
                heap.push(std::cmp::Reverse((s, d as u32)));
            }
        }
        let mut logs: Vec<std::vec::IntoIter<EventLog<E>>> =
            logs.into_iter().map(Vec::into_iter).collect();
        while let Some(std::cmp::Reverse((_, d))) = heap.pop() {
            let log = logs[d as usize]
                .next()
                .expect("every replayed event has a log entry");
            for push in log {
                let seq = self.next_seq;
                self.next_seq += 1;
                match push {
                    LoggedPush::Local => heap.push(std::cmp::Reverse((seq, d))),
                    LoggedPush::Future {
                        domain,
                        at,
                        payload,
                    } => {
                        self.lanes[domain as usize].push_at_seq(at, seq, payload);
                    }
                }
            }
        }
        for (d, mut rest) in logs.into_iter().enumerate() {
            assert!(
                rest.next().is_none(),
                "domain {d} logged events the replay never visited"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use std::collections::VecDeque;

    /// Toy dynamics shared by the reference and batch executors: an event
    /// `(d, t, k)` deterministically schedules same-T local children and
    /// strictly-later cross-domain events.
    fn step(n: usize, d: usize, t: u64, k: u64) -> (Vec<u64>, Vec<(usize, u64, u64)>) {
        let mut local = Vec::new();
        let mut future = Vec::new();
        if k.is_multiple_of(3) && k < 30 {
            local.push(k + 7);
        }
        if k.is_multiple_of(2) && k < 40 {
            future.push(((d + k as usize) % n, t + 1 + k % 5, k + 1));
            future.push(((d + 1) % n, t + 3 + k % 7, k + 2));
        }
        (local, future)
    }

    /// Single-queue reference: global `(time, seq)` order, per-domain
    /// execution traces.
    fn run_reference(n: usize, seeds: &[(usize, u64, u64)]) -> Vec<Vec<(u64, u64)>> {
        let mut q = EventQueue::new();
        for &(d, t, k) in seeds {
            q.push(SimTime::from_nanos(t), (d, k));
        }
        let mut traces = vec![Vec::new(); n];
        while let Some(ev) = q.pop() {
            let (d, k) = ev.payload;
            let t = ev.at.as_nanos();
            traces[d].push((t, k));
            let (local, future) = step(n, d, t, k);
            for lk in local {
                q.push(ev.at, (d, lk));
            }
            for (fd, ft, fk) in future {
                q.push(SimTime::from_nanos(ft), (fd, fk));
            }
        }
        traces
    }

    /// Batch executor: domains within a batch run in an arbitrary
    /// permutation (exercising order-independence), logs replayed at the
    /// barrier.
    fn run_batched(
        n: usize,
        seeds: &[(usize, u64, u64)],
        perm_salt: usize,
    ) -> Vec<Vec<(u64, u64)>> {
        let mut sched: DomainScheduler<u64> = DomainScheduler::new(n);
        for &(d, t, k) in seeds {
            sched.push(d, SimTime::from_nanos(t), k);
        }
        let mut traces = vec![Vec::new(); n];
        let mut round = 0usize;
        while let Some(t) = sched.next_batch_time() {
            let tn = t.as_nanos();
            let mut batch_seqs = vec![Vec::new(); n];
            let mut logs: Vec<Vec<EventLog<u64>>> = (0..n).map(|_| Vec::new()).collect();
            // Rotate the visit order every round: results must not care.
            for i in 0..n {
                let d = (i + perm_salt + round) % n;
                let mut drained = Vec::new();
                DomainScheduler::drain_lane_at(&mut sched.lanes_mut()[d], t, &mut drained);
                let mut fifo: VecDeque<u64> = VecDeque::new();
                for &(seq, k) in &drained {
                    batch_seqs[d].push(seq);
                    fifo.push_back(k);
                }
                while let Some(k) = fifo.pop_front() {
                    traces[d].push((tn, k));
                    let (local, future) = step(n, d, tn, k);
                    let mut log = Vec::new();
                    for lk in local {
                        fifo.push_back(lk);
                        log.push(LoggedPush::Local);
                    }
                    for (fd, ft, fk) in future {
                        assert!(ft > tn, "cross-batch pushes are strictly later");
                        log.push(LoggedPush::Future {
                            domain: fd as u32,
                            at: SimTime::from_nanos(ft),
                            payload: fk,
                        });
                    }
                    logs[d].push(log);
                }
            }
            sched.commit_batch(&batch_seqs, logs);
            round += 1;
        }
        traces
    }

    #[test]
    fn batched_execution_matches_single_queue_reference() {
        let seeds: Vec<(usize, u64, u64)> = (0..12usize)
            .map(|i| (i % 4, 10 + i as u64 % 3, i as u64))
            .collect();
        let reference = run_reference(4, &seeds);
        for perm_salt in 0..4 {
            assert_eq!(run_batched(4, &seeds, perm_salt), reference);
        }
    }

    #[test]
    fn single_domain_is_the_degenerate_case() {
        let seeds: Vec<(usize, u64, u64)> = (0..10).map(|i| (0, 5 + i % 4, i)).collect();
        assert_eq!(run_batched(1, &seeds, 0), run_reference(1, &seeds));
    }

    #[test]
    fn pop_order_is_time_then_global_seq_across_lanes() {
        // Tie-break audit: same-time events across lanes pop in global
        // push (seq) order, never lane order.
        let mut sched: DomainScheduler<&str> = DomainScheduler::new(3);
        let t = SimTime::from_nanos(100);
        sched.push(2, t, "first");
        sched.push(0, t, "second");
        sched.push(1, SimTime::from_nanos(99), "earlier");
        sched.push(2, t, "third");
        let mut order = Vec::new();
        while let Some((_, _, _, p)) = sched.pop_head() {
            order.push(p);
        }
        assert_eq!(order, vec!["earlier", "first", "second", "third"]);
    }

    #[test]
    #[should_panic(expected = "logged events the replay never visited")]
    fn commit_rejects_orphan_logs() {
        let mut sched: DomainScheduler<u64> = DomainScheduler::new(2);
        sched.push(0, SimTime::from_nanos(1), 7);
        let mut drained = Vec::new();
        DomainScheduler::drain_lane_at(
            &mut sched.lanes_mut()[0],
            SimTime::from_nanos(1),
            &mut drained,
        );
        let batch_seqs = vec![drained.iter().map(|&(s, _)| s).collect(), Vec::new()];
        // Domain 1 claims an executed event the batch never contained.
        let logs = vec![vec![Vec::new()], vec![Vec::new()]];
        sched.commit_batch(&batch_seqs, logs);
    }
}
