//! Windowed bandwidth traces.
//!
//! Figure 5 of the paper plots per-flow achieved bandwidth over a 6-second
//! horizon, sampled in fixed windows. [`BandwidthTrace`] accumulates bytes
//! delivered into fixed-width time windows and yields a `(t, GB/s)` series.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};
use crate::units::{Bandwidth, ByteSize};

/// One point of a bandwidth trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Start of the window.
    pub at: SimTime,
    /// Average bandwidth achieved during the window.
    pub bandwidth: Bandwidth,
}

/// Accumulates delivered bytes into fixed-width windows.
///
/// Deliveries must be reported in nondecreasing time order (which the event
/// queue guarantees); a delivery closes any windows that ended before it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthTrace {
    window: SimDuration,
    current_start: SimTime,
    current_bytes: u64,
    points: Vec<TracePoint>,
}

impl BandwidthTrace {
    /// Creates a trace with the given sampling window.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "trace window must be positive");
        BandwidthTrace {
            window,
            current_start: SimTime::ZERO,
            current_bytes: 0,
            points: Vec::new(),
        }
    }

    fn flush_until(&mut self, at: SimTime) {
        while at >= self.current_start + self.window {
            let bw =
                Bandwidth::from_bytes_per_s(self.current_bytes as f64 / self.window.as_secs_f64());
            self.points.push(TracePoint {
                at: self.current_start,
                bandwidth: bw,
            });
            self.current_start += self.window;
            self.current_bytes = 0;
        }
    }

    /// Records `size` bytes delivered at instant `at`.
    pub fn record(&mut self, at: SimTime, size: ByteSize) {
        self.flush_until(at);
        self.current_bytes += size.as_bytes();
    }

    /// Closes all windows up to `end` and returns the finished series.
    pub fn finish(mut self, end: SimTime) -> Vec<TracePoint> {
        self.flush_until(end);
        self.points
    }
}

/// One point of a gauge trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaugePoint {
    /// Start of the window.
    pub at: SimTime,
    /// Mean of the sampled values during the window (0 when none).
    pub mean: f64,
    /// Largest sampled value during the window (0 when none).
    pub max: f64,
}

/// Accumulates instantaneous gauge samples (queue depth, outstanding
/// transactions) into the same fixed-width, half-open windows
/// `[start, start + window)` that [`BandwidthTrace`] uses, stamped at the
/// window start.
///
/// Samples must arrive in nondecreasing time order; a sample closes any
/// windows that ended before it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaugeTrace {
    window: SimDuration,
    current_start: SimTime,
    current_sum: f64,
    current_max: f64,
    current_count: u64,
    points: Vec<GaugePoint>,
}

impl GaugeTrace {
    /// Creates a trace with the given sampling window.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "trace window must be positive");
        GaugeTrace {
            window,
            current_start: SimTime::ZERO,
            current_sum: 0.0,
            current_max: 0.0,
            current_count: 0,
            points: Vec::new(),
        }
    }

    fn flush_until(&mut self, at: SimTime) {
        while at >= self.current_start + self.window {
            let mean = if self.current_count == 0 {
                0.0
            } else {
                self.current_sum / self.current_count as f64
            };
            self.points.push(GaugePoint {
                at: self.current_start,
                mean,
                max: self.current_max,
            });
            self.current_start += self.window;
            self.current_sum = 0.0;
            self.current_max = 0.0;
            self.current_count = 0;
        }
    }

    /// Records one gauge sample taken at instant `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        self.flush_until(at);
        self.current_sum += value;
        if value > self.current_max {
            self.current_max = value;
        }
        self.current_count += 1;
    }

    /// Closes all windows up to `end` and returns the finished series.
    pub fn finish(mut self, end: SimTime) -> Vec<GaugePoint> {
        self.flush_until(end);
        self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_trace() {
        // 64 B every ns = 64 GB/s, sampled in 1 µs windows.
        let mut trace = BandwidthTrace::new(SimDuration::from_micros(1));
        for ns in 0..3000u64 {
            trace.record(SimTime::from_nanos(ns), ByteSize::CACHELINE);
        }
        let pts = trace.finish(SimTime::from_nanos(3000));
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!((p.bandwidth.as_gb_per_s() - 64.0).abs() < 1e-9);
        }
        assert_eq!(pts[0].at, SimTime::ZERO);
        assert_eq!(pts[1].at, SimTime::from_micros(1));
    }

    #[test]
    fn idle_windows_report_zero() {
        let mut trace = BandwidthTrace::new(SimDuration::from_micros(1));
        trace.record(SimTime::from_nanos(100), ByteSize::from_bytes(1000));
        // Nothing delivered in window [1µs, 2µs).
        trace.record(SimTime::from_nanos(2100), ByteSize::from_bytes(2000));
        let pts = trace.finish(SimTime::from_micros(3));
        assert_eq!(pts.len(), 3);
        assert!(pts[0].bandwidth.as_gb_per_s() > 0.0);
        assert_eq!(pts[1].bandwidth, Bandwidth::ZERO);
        assert!(pts[2].bandwidth.as_gb_per_s() > 0.0);
    }

    #[test]
    fn finish_closes_partial_horizon() {
        let mut trace = BandwidthTrace::new(SimDuration::from_millis(10));
        trace.record(SimTime::from_millis(5), ByteSize::from_mib(1));
        let pts = trace.finish(SimTime::from_millis(40));
        assert_eq!(pts.len(), 4);
        assert!(pts[0].bandwidth.as_gb_per_s() > 0.0);
        assert_eq!(pts[3].bandwidth, Bandwidth::ZERO);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = BandwidthTrace::new(SimDuration::ZERO);
    }

    #[test]
    fn gauge_windows_report_mean_and_max() {
        let mut g = GaugeTrace::new(SimDuration::from_micros(1));
        g.record(SimTime::from_nanos(100), 2.0);
        g.record(SimTime::from_nanos(200), 4.0);
        // Window [1µs, 2µs) has no samples.
        g.record(SimTime::from_nanos(2100), 7.0);
        let pts = g.finish(SimTime::from_micros(3));
        assert_eq!(pts.len(), 3);
        assert!((pts[0].mean - 3.0).abs() < 1e-12);
        assert_eq!(pts[0].max, 4.0);
        assert_eq!(pts[0].at, SimTime::ZERO);
        assert_eq!(pts[1].mean, 0.0);
        assert_eq!(pts[1].max, 0.0);
        assert_eq!(pts[2].max, 7.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn gauge_zero_window_rejected() {
        let _ = GaugeTrace::new(SimDuration::ZERO);
    }
}
