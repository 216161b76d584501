//! # chiplet-fluid
//!
//! A flow-level fluid engine for second-scale bandwidth-sharing dynamics.
//!
//! Figure 5 of *Server Chiplet Networking* runs two competing flows for six
//! seconds and watches how quickly the unthrottled flow harvests bandwidth
//! the throttled one releases (~100 ms on the Infinity Fabric, ~500 ms on
//! the P-Link of the EPYC 9634, with "drastic variation" on the 7302's IF).
//! Six seconds at 5+ GT/s is ~30 billion transactions — far beyond
//! transaction-level simulation — so this crate models flows as fluids:
//!
//! * the **equilibrium allocator** splits each link's capacity among its
//!   flows proportionally to demand (the sender-driven sharing the
//!   transaction engine exhibits, §3.5). Its max-min phase is
//!   [`alloc::weighted_allocate_dense`], the workspace's one
//!   progressive-filling solver, which the event engine's traffic manager
//!   and the DSE estimator in `chiplet-net` import from here;
//! * **harvest dynamics**: a flow's achieved rate relaxes *upward* toward
//!   its equilibrium with a per-link time constant τ (ramping in-flight
//!   requests takes time), but follows decreases immediately (backpressure
//!   is instant);
//! * **instability**: links flagged unstable (the 7302's IF with its
//!   intra-CC queueing module) add AR(1) noise to harvested bandwidth.
//!
//! The engine is deterministic for a given seed and produces per-flow
//! bandwidth traces compatible with `chiplet-sim`'s [`TracePoint`].
//!
//! [`TracePoint`]: chiplet_sim::stats::TracePoint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod metrics;
pub mod sim;

pub use alloc::{
    proportional_allocate, proportional_allocate_into, AllocScratch, IncrementalAllocator,
};
pub use metrics::harvest_time_ms;
pub use sim::{DemandSchedule, FluidFlowSpec, FluidLink, FluidSim, Instability};
