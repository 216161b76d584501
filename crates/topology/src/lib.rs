//! # chiplet-topology
//!
//! The structural model of a chiplet-based server SoC, following §2.2 of
//! *Server Chiplet Networking* (HotNets '25).
//!
//! A server SoC is a graph of micro-architectural nodes — cores, core
//! complexes (CCX), compute chiplets (CCD), traffic-control modules, GMI
//! ports, the I/O die's cache-coherent masters (CCM), NoC switches, coherent
//! stations (CS), unified memory controllers (UMC), DIMMs, I/O hubs, PCIe
//! root complexes, P-Links, and CXL/PCIe devices — connected by typed,
//! directional links (Infinity Fabric, GMI, NoC-internal, memory channels,
//! P-Link, CXL/PCIe lanes).
//!
//! This crate provides:
//!
//! * [`PlatformSpec`] — the calibration constants of a platform (cache
//!   latencies, per-hop NoC latency, per-level bandwidth capacities,
//!   memory-level parallelism), with presets for the two processors the paper
//!   characterizes ([`PlatformSpec::epyc_7302`], [`PlatformSpec::epyc_9634`])
//!   and a monolithic-SoC baseline ([`PlatformSpec::monolithic_baseline`]);
//! * [`Topology`] — the instantiated node/link graph with deterministic
//!   route resolution ([`Topology::route`]) and semantic path helpers;
//! * [`descriptor`] — the device-tree-like `chiplet-net` descriptor the
//!   paper's §4 #1 proposes (`/sys/firmware/chiplet-net` analog), exported as
//!   JSON;
//! * [`DimmPosition`] / [`NpsMode`] — DIMM placement relative to a compute
//!   chiplet and node-per-socket configuration.
//!
//! Calibration constants come from Tables 1–3 of the paper; see DESIGN.md §4
//! for the decomposition of end-to-end latencies into per-segment constants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptor;
pub mod graph;
pub mod ids;
pub mod path;
pub mod position;
pub mod spec;

pub use graph::{LinkKind, Topology};
pub use ids::{CcdId, CoreId, DimmId, UmcId};
pub use position::{DimmPosition, NpsMode, Quadrant};
pub use spec::{CacheSpec, NicSpec, PlatformError, PlatformKind, PlatformSpec};
