//! # chiplet-mem
//!
//! Memory-subsystem models for the chiplet networking engine.
//!
//! Three concerns live here:
//!
//! * [`CacheHierarchy`] — where a working set of a given size resolves in the
//!   L1/L2/L3 hierarchy (the paper's pointer-chasing methodology: "gradually
//!   increasing the working set" walks accesses down the hierarchy);
//! * [`access`] — operation kinds (reads, temporal writes, non-temporal
//!   writes) and access patterns (sequential, random, pointer-chase), and
//!   the memory-level parallelism each pattern sustains;
//! * [`DramServiceModel`] — service-time variability of DRAM and CXL media
//!   (bank conflicts, refresh): the source of the paper's ~400–500 ns P999
//!   tails at *low* load (Figure 3), which compound with queueing near
//!   saturation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod cache;
pub mod dram;

pub use access::{OpKind, Pattern};
pub use cache::CacheHierarchy;
pub use dram::DramServiceModel;
