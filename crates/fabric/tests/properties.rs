//! Property-based tests for link and traffic-control models.

use chiplet_fabric::{Dir, FifoServer, FlitFraming, ServerArena, SlotLimiter};
use chiplet_sim::Bandwidth;
use proptest::prelude::*;

proptest! {
    /// FIFO invariants: departures are strictly increasing across arrivals
    /// presented in nondecreasing time order, wait is nonnegative, and
    /// depart = max(arrival, previous depart) + service.
    #[test]
    fn fifo_server_invariants(
        gaps in proptest::collection::vec(0.0f64..50.0, 1..200),
        gb in 1.0f64..400.0,
    ) {
        let mut s = FifoServer::new(Bandwidth::from_gb_per_s(gb));
        let mut now = 0.0;
        let mut last_depart = 0.0;
        for gap in gaps {
            now += gap;
            let a = s.admit(now, 64);
            prop_assert!(a.wait_ns >= 0.0);
            prop_assert!(a.depart_ns > last_depart);
            let expected = now.max(last_depart) + a.service_ns;
            prop_assert!((a.depart_ns - expected).abs() < 1e-9);
            last_depart = a.depart_ns;
        }
    }

    /// A server never serves more bytes than capacity × elapsed time.
    #[test]
    fn fifo_server_respects_capacity(
        arrivals in proptest::collection::vec((0.0f64..1000.0, 64u64..4096), 1..200),
        gb in 1.0f64..100.0,
    ) {
        let mut s = FifoServer::new(Bandwidth::from_gb_per_s(gb));
        let mut sorted = arrivals;
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(t, bytes) in &sorted {
            s.admit(t, bytes);
        }
        let horizon = s.next_free_ns();
        let max_bytes = gb * horizon; // GB/s == B/ns
        prop_assert!(s.bytes_served() as f64 <= max_bytes + 1e-6,
            "served {} over {} ns at {} GB/s", s.bytes_served(), horizon, gb);
    }

    /// Slot limiter conservation: grants − releases == slots held, and
    /// never more than capacity held.
    #[test]
    fn limiter_conserves_slots(ops in proptest::collection::vec(prop::bool::ANY, 1..500), cap in 1u32..64) {
        let mut l: SlotLimiter<u64> = SlotLimiter::new(cap);
        let mut held: i64 = 0; // successful grants (immediate or via transfer)
        let mut next_id = 0u64;
        for acquire in ops {
            if acquire {
                if l.acquire(next_id) {
                    held += 1;
                }
                next_id += 1;
            } else if (held > 0 || l.waiting() > 0) && l.in_use() > 0 {
                if l.release().is_some() {
                    // slot transferred: held stays (one out, one in)
                } else {
                    held -= 1;
                }
            }
            prop_assert!(l.in_use() <= cap);
            prop_assert_eq!(l.in_use() as i64, held);
        }
    }

    /// FLIT framing: wire bytes ≥ payload, and per-FLIT payload never
    /// exceeds the format's payload capacity.
    #[test]
    fn framing_overhead_bounds(payload in 1u64..1_000_000) {
        for f in [FlitFraming::CXL_68B, FlitFraming::CXL_256B] {
            let wire = f.wire_bytes(payload);
            let flits = f.flits_for(payload);
            prop_assert!(wire >= payload);
            prop_assert_eq!(wire, flits * f.flit_bytes as u64);
            prop_assert!(flits * f.payload_bytes as u64 >= payload);
            // One fewer FLIT would not fit the payload.
            let fits_in_fewer = (flits - 1) * f.payload_bytes as u64 >= payload;
            prop_assert!(!fits_in_fewer);
        }
    }

    /// Directional independence: traffic in one direction never changes the
    /// other direction's admissions.
    #[test]
    fn channel_directions_independent(
        reads in proptest::collection::vec(0.0f64..100.0, 0..50),
        writes in proptest::collection::vec(0.0f64..100.0, 1..50),
    ) {
        let mk = || {
            let mut arena = ServerArena::default();
            let base = arena.add_point(
                Bandwidth::from_gb_per_s(30.0),
                Bandwidth::from_gb_per_s(20.0),
            );
            (arena, base)
        };
        let (mut with_reads, base) = mk();
        let (mut without, _) = mk();
        let (read, write) = (ServerArena::slot(base, Dir::Read), ServerArena::slot(base, Dir::Write));
        let (read_service, write_service) =
            (with_reads.server(read).service_ns(64), with_reads.server(write).service_ns(64));
        let mut rs = reads;
        rs.sort_by(f64::total_cmp);
        let mut ws = writes;
        ws.sort_by(f64::total_cmp);
        for &t in &rs {
            with_reads.admit(read, t, 64, read_service);
        }
        for &t in &ws {
            let a = with_reads.admit(write, t, 64, write_service);
            let b = without.admit(write, t, 64, write_service);
            prop_assert_eq!(a.depart_ns, b.depart_ns);
        }
    }

    /// Hoisting the division: admitting with a service time computed once
    /// per (server, size) is bit-identical to dividing at every admission,
    /// `depart = max(arrival, previous depart) + bytes / (bytes per ns)`,
    /// for cacheline and 68-byte FLIT transfers alike.
    #[test]
    fn precomputed_service_matches_division(
        gb in 0.5f64..1000.0,
        arrivals in proptest::collection::vec((0.0f64..20.0, prop::bool::ANY), 1..200),
    ) {
        let cap = Bandwidth::from_gb_per_s(gb);
        let mut divided = FifoServer::new(cap);
        let mut hoisted = FifoServer::new(cap);
        let services = [hoisted.service_ns(64), hoisted.service_ns(68)];
        let mut now = 0.0;
        let mut next_free: f64 = 0.0;
        for (gap, flit) in arrivals {
            now += gap;
            let bytes = if flit { 68 } else { 64 };
            let a = divided.admit(now, bytes);
            let b = hoisted.admit_with_service(now, bytes, services[usize::from(flit)]);
            let depart = next_free.max(now) + bytes as f64 / cap.bytes_per_ns();
            prop_assert_eq!(a.depart_ns.to_bits(), depart.to_bits());
            for (x, y) in [
                (a.depart_ns, b.depart_ns),
                (a.wait_ns, b.wait_ns),
                (a.service_ns, b.service_ns),
            ] {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            next_free = depart;
        }
        prop_assert_eq!(divided.bytes_served(), hoisted.bytes_served());
        prop_assert_eq!(divided.utilization(now).to_bits(), hoisted.utilization(now).to_bits());
        prop_assert_eq!(divided.mean_wait_ns().to_bits(), hoisted.mean_wait_ns().to_bits());
        prop_assert_eq!(divided.max_wait_ns().to_bits(), hoisted.max_wait_ns().to_bits());
    }
}
