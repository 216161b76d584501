//! Data-size and bandwidth units.
//!
//! The paper reports bandwidth in GB/s (decimal gigabytes) and sizes in binary
//! units (KiB caches, 64 B cachelines). These newtypes keep the two unit
//! systems from being confused and centralize the bandwidth ⇄ service-time
//! conversion used by every link model.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// A data size in bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);
    /// A 64-byte cacheline, the natural transfer unit of the coherent fabric.
    pub const CACHELINE: ByteSize = ByteSize(64);

    /// Constructs from raw bytes.
    pub const fn from_bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Constructs from binary kilobytes.
    pub const fn from_kib(k: u64) -> Self {
        ByteSize(k * 1024)
    }

    /// Constructs from binary megabytes.
    pub const fn from_mib(m: u64) -> Self {
        ByteSize(m * 1024 * 1024)
    }

    /// Constructs from binary gigabytes.
    pub const fn from_gib(g: u64) -> Self {
        ByteSize(g * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2}GiB", b as f64 / (1u64 << 30) as f64)
        } else if b >= 1 << 20 {
            write!(f, "{:.2}MiB", b as f64 / (1u64 << 20) as f64)
        } else if b >= 1 << 10 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A bandwidth, stored internally as bytes per second (decimal).
///
/// The paper reports GB/s = 1e9 bytes/s; [`Bandwidth::from_gb_per_s`] follows
/// that convention.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Constructs from decimal gigabytes per second (the paper's unit).
    pub fn from_gb_per_s(gb: f64) -> Self {
        Bandwidth(gb * 1e9)
    }

    /// Constructs from raw bytes per second.
    pub fn from_bytes_per_s(b: f64) -> Self {
        Bandwidth(b)
    }

    /// Bandwidth in decimal GB/s.
    pub fn as_gb_per_s(self) -> f64 {
        self.0 / 1e9
    }

    /// Bandwidth in bytes per second.
    pub fn as_bytes_per_s(self) -> f64 {
        self.0
    }

    /// Bytes transferred per nanosecond at this rate.
    pub fn bytes_per_ns(self) -> f64 {
        self.0 / 1e9
    }

    /// Service (serialization) time for `size` bytes at this rate.
    ///
    /// Returns [`SimDuration::MAX`] for zero bandwidth, which a link model
    /// treats as "never completes" — a configuration error surfaced loudly
    /// rather than a division silently producing nonsense.
    pub fn service_time(self, size: ByteSize) -> SimDuration {
        if self.0 <= 0.0 {
            return SimDuration::MAX;
        }
        SimDuration::from_nanos_f64(size.as_bytes() as f64 / self.bytes_per_ns())
    }

    /// True when this is a positive, finite rate.
    pub fn is_positive(self) -> bool {
        self.0 > 0.0 && self.0.is_finite()
    }

    /// Component-wise minimum.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// Saturating subtraction, clamped at zero.
    pub fn saturating_sub(self, other: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - other.0).max(0.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}GB/s", self.as_gb_per_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::from_kib(1).as_bytes(), 1024);
        assert_eq!(ByteSize::from_mib(1).as_bytes(), 1 << 20);
        assert_eq!(ByteSize::from_gib(1).as_bytes(), 1 << 30);
        assert_eq!(ByteSize::CACHELINE.as_bytes(), 64);
    }

    #[test]
    fn byte_size_display() {
        assert_eq!(ByteSize::from_bytes(64).to_string(), "64B");
        assert_eq!(ByteSize::from_kib(32).to_string(), "32.00KiB");
        assert_eq!(ByteSize::from_mib(128).to_string(), "128.00MiB");
    }

    #[test]
    fn service_time_for_cacheline() {
        // 64 B at 64 GB/s is exactly 1 ns.
        let bw = Bandwidth::from_gb_per_s(64.0);
        assert_eq!(
            bw.service_time(ByteSize::CACHELINE),
            SimDuration::from_nanos(1)
        );
        // 64 B at 32 GB/s is 2 ns.
        let bw = Bandwidth::from_gb_per_s(32.0);
        assert_eq!(
            bw.service_time(ByteSize::CACHELINE),
            SimDuration::from_nanos(2)
        );
    }

    #[test]
    fn zero_bandwidth_never_completes() {
        assert_eq!(
            Bandwidth::ZERO.service_time(ByteSize::CACHELINE),
            SimDuration::MAX
        );
        assert!(!Bandwidth::ZERO.is_positive());
    }

    #[test]
    fn bandwidth_round_trip() {
        let bw = Bandwidth::from_gb_per_s(25.1);
        assert!((bw.as_gb_per_s() - 25.1).abs() < 1e-12);
        assert!((bw.bytes_per_ns() - 25.1).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_arithmetic() {
        let a = Bandwidth::from_gb_per_s(10.0);
        let b = Bandwidth::from_gb_per_s(4.0);
        assert!(((a + b).as_gb_per_s() - 14.0).abs() < 1e-12);
        assert!((a.saturating_sub(b).as_gb_per_s() - 6.0).abs() < 1e-12);
        assert_eq!(b.saturating_sub(a), Bandwidth::ZERO);
        assert_eq!(a.min(b), b);
    }
}
