//! Directional link channels.
//!
//! A physical link carries reads and writes in opposite directions: read
//! data flows toward the core, write data away from it. The paper observes
//! (§3.5, Figure 6) that read/write interference appears only when a link is
//! saturated *in one direction* — so each direction gets its own
//! [`FifoServer`], and an uncapped direction admits instantly.

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

/// A physical link with independent read- and write-direction capacity.
///
/// A direction without a configured capacity is not a contention point in
/// the model: admissions pass through with zero wait and zero service time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirectionalChannel {
    read: Option<FifoServer>,
    write: Option<FifoServer>,
}

impl DirectionalChannel {
    /// Creates a channel; `None` for a direction means uncapped.
    pub fn new(read_cap: Option<Bandwidth>, write_cap: Option<Bandwidth>) -> Self {
        DirectionalChannel {
            read: read_cap.map(FifoServer::new),
            write: write_cap.map(FifoServer::new),
        }
    }

    /// Admits a transfer of `bytes` in `dir` at `now_ns`.
    pub fn admit(&mut self, dir: Dir, now_ns: f64, bytes: u64) -> Admission {
        self.admit_with_extra(dir, now_ns, bytes, 0.0)
    }

    /// Admits a transfer whose service takes `extra_ns` beyond serialization
    /// (memory-device variability). An uncapped direction still applies the
    /// extra as pure delay.
    pub fn admit_with_extra(
        &mut self,
        dir: Dir,
        now_ns: f64,
        bytes: u64,
        extra_ns: f64,
    ) -> Admission {
        match self.server_mut(dir) {
            Some(s) => s.admit_with_extra(now_ns, bytes, extra_ns),
            None => Admission {
                depart_ns: now_ns + extra_ns,
                wait_ns: 0.0,
                service_ns: extra_ns,
            },
        }
    }

    /// The server for a direction, if capped.
    pub fn server(&self, dir: Dir) -> Option<&FifoServer> {
        match dir {
            Dir::Read => self.read.as_ref(),
            Dir::Write => self.write.as_ref(),
        }
    }

    fn server_mut(&mut self, dir: Dir) -> Option<&mut FifoServer> {
        match dir {
            Dir::Read => self.read.as_mut(),
            Dir::Write => self.write.as_mut(),
        }
    }

    /// Resets statistics in both directions (clocks are preserved).
    pub fn reset_stats(&mut self) {
        if let Some(s) = self.read.as_mut() {
            s.reset_stats();
        }
        if let Some(s) = self.write.as_mut() {
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

    #[test]
    fn directions_are_independent() {
        let mut ch = DirectionalChannel::new(Some(gb(64.0)), Some(gb(64.0)));
        // Saturate the read direction.
        for i in 0..100 {
            ch.admit(Dir::Read, i as f64 * 0.1, 64);
        }
        assert!(ch.admit(Dir::Read, 10.0, 64).wait_ns > 50.0);
        // Writes are unaffected.
        let a = ch.admit(Dir::Write, 10.0, 64);
        assert_eq!(a.wait_ns, 0.0);
    }

    #[test]
    fn uncapped_direction_passes_through() {
        let mut ch = DirectionalChannel::new(Some(gb(10.0)), None);
        let a = ch.admit(Dir::Write, 5.0, 4096);
        assert_eq!(a.depart_ns, 5.0);
        assert_eq!(a.service_ns, 0.0);
        assert!(ch.server(Dir::Write).is_none());
    }

    #[test]
    fn asymmetric_capacities() {
        // GMI-like: read 33.2 GB/s, write 23.6 GB/s.
        let mut ch = DirectionalChannel::new(Some(gb(33.2)), Some(gb(23.6)));
        let r = ch.admit(Dir::Read, 0.0, 64);
        let w = ch.admit(Dir::Write, 0.0, 64);
        assert!(w.service_ns > r.service_ns);
    }
}
