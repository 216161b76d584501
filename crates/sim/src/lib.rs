//! # chiplet-sim
//!
//! Deterministic discrete-event simulation core underpinning the server chiplet
//! networking reproduction.
//!
//! This crate deliberately contains **no domain knowledge** about chiplets; it
//! provides the four primitives every engine in the workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-granularity virtual time,
//! * [`EventQueue`] — a total-order event queue with stable FIFO tie-breaking so
//!   that every run with the same seed is bit-identical,
//! * [`DetRng`] — a seedable deterministic random-number generator,
//! * [`stats`] — streaming statistics (log-bucket latency histograms with tail
//!   quantiles, Welford mean/variance, windowed bandwidth time series),
//! * [`DemandSchedule`] — piecewise-constant offered-load schedules shared by
//!   every engine in the workspace.
//!
//! The design follows the smoltcp school: event-driven, allocation-conscious,
//! simple and robust, with behaviour that is identical run-to-run. Simulations
//! are CPU-bound deterministic computations, so there is no async runtime here;
//! parallelism (when needed for parameter sweeps) lives in the benchmark
//! harness, not the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod profile;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod time;
pub mod units;
pub mod wheel;

pub use event::{EventQueue, ScheduledEvent};
pub use metrics::{MetricsSink, NullSink, SeriesHandle, SeriesKind};
pub use profile::{DepthHistogram, PhaseId, PhaseProfiler, PhaseReport, PhaseStat};
pub use rng::DetRng;
pub use schedule::DemandSchedule;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, ByteSize};
pub use wheel::WheelQueue;
