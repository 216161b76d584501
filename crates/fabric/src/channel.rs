//! Directional link channels.
//!
//! A physical link carries reads and writes in opposite directions: read
//! data flows toward the core, write data away from it. The paper observes
//! (§3.5, Figure 6) that read/write interference appears only when a link is
//! saturated *in one direction* — so each direction gets its own
//! [`FifoServer`], held in a [`ServerArena`] slot next to its twin.

use chiplet_sim::Bandwidth;
use serde::{Deserialize, Serialize};

use crate::server::{Admission, FifoServer};

/// The direction of a data transfer relative to the requesting core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dir {
    /// Read: data flows toward the core (response direction).
    Read,
    /// Write: data flows away from the core.
    Write,
}

impl core::fmt::Display for Dir {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Dir::Read => "read",
            Dir::Write => "write",
        })
    }
}

/// Every capped capacity point's read and write servers, side by side in
/// one dense `Vec`.
///
/// The point added `k`-th owns slots `2k` (read) and `2k + 1` (write), so
/// a caller that knows a point's base slot and a transfer's direction
/// reaches its server with one index. The two directions never share
/// state, which keeps read/write interference confined to what saturates
/// one direction. A link without capacity is not a contention point in
/// the model: it takes no slot, and the engine's plans never stage it.
///
/// ```
/// use chiplet_fabric::{Dir, ServerArena};
/// use chiplet_sim::Bandwidth;
///
/// let mut arena = ServerArena::default();
/// let gmi = arena.add_point(Bandwidth::from_gb_per_s(64.0), Bandwidth::from_gb_per_s(32.0));
/// let read = ServerArena::slot(gmi, Dir::Read);
/// let service = arena.server(read).service_ns(64); // 1 ns, computed once
/// assert_eq!(arena.admit(read, 0.0, 64, service).depart_ns, 1.0);
/// assert_eq!(arena.admit(read, 0.0, 64, service).wait_ns, 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServerArena {
    servers: Vec<FifoServer>,
}

impl ServerArena {
    /// Adds a point with the given per-direction capacities and returns
    /// its base slot.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive capacity, like [`FifoServer::new`].
    pub fn add_point(&mut self, read: Bandwidth, write: Bandwidth) -> u32 {
        let base = u32::try_from(self.servers.len()).expect("server arena overflow");
        self.servers.push(FifoServer::new(read));
        self.servers.push(FifoServer::new(write));
        base
    }

    /// The slot serving `dir` at the point whose base slot is `base`.
    #[inline]
    pub fn slot(base: u32, dir: Dir) -> u32 {
        base + u32::from(dir == Dir::Write)
    }

    /// The server in `slot`.
    pub fn server(&self, slot: u32) -> &FifoServer {
        &self.servers[slot as usize]
    }

    /// Every slot's capacity, by slot.
    pub fn capacities(&self) -> impl Iterator<Item = Bandwidth> + '_ {
        self.servers.iter().map(FifoServer::capacity)
    }

    /// Admits a transfer of `bytes` at `now_ns` to the server in `slot`,
    /// with its service time precomputed by [`FifoServer::service_ns`].
    #[inline]
    pub fn admit(&mut self, slot: u32, now_ns: f64, bytes: u64, service_ns: f64) -> Admission {
        self.servers[slot as usize].admit_with_service(now_ns, bytes, service_ns)
    }

    /// Resets every server's statistics (clocks are preserved).
    pub fn reset_stats(&mut self) {
        for s in &mut self.servers {
            s.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(x: f64) -> Bandwidth {
        Bandwidth::from_gb_per_s(x)
    }

    fn admit(arena: &mut ServerArena, base: u32, dir: Dir, now_ns: f64, bytes: u64) -> Admission {
        let slot = ServerArena::slot(base, dir);
        let service = arena.server(slot).service_ns(bytes);
        arena.admit(slot, now_ns, bytes, service)
    }

    #[test]
    fn directions_are_independent() {
        let mut arena = ServerArena::default();
        let ch = arena.add_point(gb(64.0), gb(64.0));
        // Saturate the read direction.
        for i in 0..100 {
            admit(&mut arena, ch, Dir::Read, i as f64 * 0.1, 64);
        }
        assert!(admit(&mut arena, ch, Dir::Read, 10.0, 64).wait_ns > 50.0);
        // Writes are unaffected.
        let a = admit(&mut arena, ch, Dir::Write, 10.0, 64);
        assert_eq!(a.wait_ns, 0.0);
    }

    #[test]
    fn points_are_independent() {
        let mut arena = ServerArena::default();
        let busy = arena.add_point(gb(10.0), gb(10.0));
        let idle = arena.add_point(gb(10.0), gb(10.0));
        assert_eq!((busy, idle), (0, 2));
        admit(&mut arena, busy, Dir::Read, 0.0, 4096);
        let a = admit(&mut arena, idle, Dir::Read, 5.0, 64);
        assert_eq!(a.wait_ns, 0.0);
        assert_eq!(
            arena.server(ServerArena::slot(idle, Dir::Read)).admitted(),
            1
        );
        assert_eq!(
            arena.server(ServerArena::slot(busy, Dir::Write)).admitted(),
            0
        );
    }

    #[test]
    fn asymmetric_capacities() {
        // GMI-like: read 33.2 GB/s, write 23.6 GB/s.
        let mut arena = ServerArena::default();
        let ch = arena.add_point(gb(33.2), gb(23.6));
        let r = admit(&mut arena, ch, Dir::Read, 0.0, 64);
        let w = admit(&mut arena, ch, Dir::Write, 0.0, 64);
        assert!(w.service_ns > r.service_ns);
    }

    #[test]
    fn reset_stats_clears_every_slot_and_keeps_clocks() {
        let mut arena = ServerArena::default();
        let a = arena.add_point(gb(64.0), gb(64.0));
        let b = arena.add_point(gb(64.0), gb(64.0));
        for (base, dir) in [(a, Dir::Read), (b, Dir::Write)] {
            admit(&mut arena, base, dir, 0.0, 6400);
        }
        arena.reset_stats();
        for slot in 0..4 {
            assert_eq!(arena.server(slot).admitted(), 0);
        }
        assert_eq!(admit(&mut arena, b, Dir::Write, 0.0, 64).wait_ns, 100.0);
    }
}
