//! # chiplet-fabric
//!
//! Link and traffic-control models for server chiplet networking.
//!
//! The paper's L1/L2 layers are an agglomeration of heterogeneous links —
//! Infinity Fabric, GMI, I/O-die NoC segments, P-Link, PCIe/CXL lanes — each
//! with its own directional capacity, plus "queueless" token-based traffic
//! control modules at the compute-chiplet boundary (§3.2). This crate models
//! those as composable primitives:
//!
//! * [`FifoServer`] — a work-conserving FIFO serializer at a fixed byte rate;
//!   the building block of every link direction. FIFO service of interleaved
//!   arrivals is what makes bandwidth partitioning *sender-driven* (§3.5).
//! * [`DirectionalChannel`] — a read-direction and a write-direction server
//!   joined as one physical link, reproducing the paper's observation that
//!   read/write interference only occurs when one *direction* saturates (§3.5).
//! * [`SlotLimiter`] — the Phantom-Queue-like outstanding-request limiter
//!   (tokens + backpressure) at the CCX/CCD boundary, with slots *shared*
//!   between reads and writes.
//! * [`FlitFraming`] — CXL.mem FLIT framing overhead (68/256 B FLITs carrying
//!   64 B cachelines).
//!
//! All models keep time as `f64` nanoseconds internally so that sub-ns
//! service times (e.g. 64 B at 366 GB/s ≈ 0.17 ns) accumulate exactly; the
//! engine rounds to whole-ns event times only when scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod framing;
pub mod limiter;
pub mod server;

pub use channel::{Dir, DirectionalChannel};
pub use framing::FlitFraming;
pub use limiter::SlotLimiter;
pub use server::{Admission, FifoServer};
