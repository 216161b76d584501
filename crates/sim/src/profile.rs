//! Simulator self-profiling: where does the *wall* time of a run go?
//!
//! Parallelizing the DES core (ROADMAP item 3) needs a baseline answer to
//! "which engine phase dominates" before any speculative threading is worth
//! attempting. [`PhaseProfiler`] is that instrument: a set of named,
//! embedder-registered phases ("issue", "stage", "policy", …) accumulating
//! wall-clock time and call counts, cheap enough to leave compiled into
//! every hot loop.
//!
//! The disabled path costs one predictable branch per phase boundary:
//! [`PhaseProfiler::start`] returns `None` without reading the clock and
//! [`PhaseProfiler::record`] discards it, so a `PhaseProfiler::disabled()`
//! in the event loop is free in practice (the acceptance gate pins the
//! overhead below 1%). Everything here measures **wall** time, never sim
//! time — reports are execution-dependent and must only ever be exported
//! through *volatile* metric families.

use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// A dense identifier for a registered phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseId(u16);

/// Accumulated wall time and call count for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// The phase's registered name.
    pub name: &'static str,
    /// Times the phase was entered.
    pub calls: u64,
    /// Total wall time spent in the phase, seconds.
    pub seconds: f64,
}

/// Scoped wall-clock phase timers with a near-free disabled path.
///
/// Register phases once (`register`), then bracket each occurrence with
/// [`PhaseProfiler::start`] / [`PhaseProfiler::record`]. When the profiler
/// is disabled both calls compile down to a branch on a bool — no clock
/// reads, no arithmetic — so embedders keep the instrumentation in place
/// unconditionally.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    enabled: bool,
    names: Vec<&'static str>,
    calls: Vec<u64>,
    nanos: Vec<u64>,
    born: Instant,
}

impl PhaseProfiler {
    /// A profiler that measures nothing; `start` never reads the clock.
    pub fn disabled() -> Self {
        PhaseProfiler {
            enabled: false,
            names: Vec::new(),
            calls: Vec::new(),
            nanos: Vec::new(),
            born: Instant::now(),
        }
    }

    /// A live profiler; wall time is measured from this call.
    pub fn enabled() -> Self {
        PhaseProfiler {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// Registers a phase name, returning its dense id. Registration is
    /// cheap but not deduplicating; call once per phase at setup.
    pub fn register(&mut self, name: &'static str) -> PhaseId {
        let id = PhaseId(self.names.len() as u16);
        self.names.push(name);
        self.calls.push(0);
        self.nanos.push(0);
        id
    }

    /// Opens a phase occurrence. `None` when disabled — the clock is not
    /// read at all.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a phase occurrence opened by [`PhaseProfiler::start`].
    #[inline]
    pub fn record(&mut self, phase: PhaseId, started: Option<Instant>) {
        if let Some(t0) = started {
            self.calls[phase.0 as usize] += 1;
            self.nanos[phase.0 as usize] += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Credits the time since `*mark` to `phase` and advances the mark,
    /// reading the clock once. For tight event loops: seed the mark with
    /// [`PhaseProfiler::start`] before the loop and `lap` after every
    /// handler — half the clock reads of a `start`/`record` pair per
    /// event, with the inter-handler gap (queue pop, dispatch) attributed
    /// to the phase that follows it. No-op when disabled (the mark stays
    /// `None`).
    #[inline]
    pub fn lap(&mut self, phase: PhaseId, mark: &mut Option<Instant>) {
        if let Some(prev) = *mark {
            let now = Instant::now();
            self.calls[phase.0 as usize] += 1;
            self.nanos[phase.0 as usize] += now.duration_since(prev).as_nanos() as u64;
            *mark = Some(now);
        }
    }

    /// Snapshots the accumulated stats. `wall_seconds` covers creation to
    /// this call, so phase coverage (`Σ seconds / wall`) is meaningful when
    /// the profiler is created right before the instrumented region.
    pub fn report(&self) -> PhaseReport {
        let phases = self
            .names
            .iter()
            .zip(&self.calls)
            .zip(&self.nanos)
            .map(|((&name, &calls), &nanos)| PhaseStat {
                name,
                calls,
                seconds: nanos as f64 * 1e-9,
            })
            .collect();
        PhaseReport {
            phases,
            wall_seconds: self.born.elapsed().as_secs_f64(),
        }
    }
}

/// A snapshot of a [`PhaseProfiler`]: per-phase stats plus the wall time
/// the profiler was alive.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Per-phase stats, in registration order.
    pub phases: Vec<PhaseStat>,
    /// Wall seconds from profiler creation to the report.
    pub wall_seconds: f64,
}

impl PhaseReport {
    /// Total wall time attributed to any phase, seconds.
    pub fn accounted_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    /// Fraction of the wall time covered by the phases (0 when no wall
    /// time elapsed).
    pub fn coverage(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.accounted_seconds() / self.wall_seconds
        } else {
            0.0
        }
    }

    /// A fixed-width text table: one row per phase (sorted by descending
    /// time), the share of measured wall time, and a coverage footer.
    pub fn table(&self) -> String {
        use std::fmt::Write;
        let mut rows: Vec<&PhaseStat> = self.phases.iter().filter(|p| p.calls > 0).collect();
        rows.sort_by(|a, b| b.seconds.total_cmp(&a.seconds).then(a.name.cmp(b.name)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>14} {:>8}",
            "phase", "calls", "seconds", "share"
        );
        for p in rows {
            let share = if self.wall_seconds > 0.0 {
                p.seconds / self.wall_seconds
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>14.6} {:>7.1}%",
                p.name,
                p.calls,
                p.seconds,
                share * 100.0
            );
        }
        let _ = writeln!(
            out,
            "wall: {:.6} s  accounted: {:.6} s  coverage: {:.1}%",
            self.wall_seconds,
            self.accounted_seconds(),
            self.coverage() * 100.0
        );
        out
    }

    /// Emits the report into a registry as `sim_phase_seconds` /
    /// `sim_phase_calls`, labelled by phase. Wall-clock values are
    /// execution-dependent: collecting registries must describe these
    /// families as **volatile** so default OpenMetrics dumps stay
    /// deterministic.
    pub fn emit(&self, metrics: &mut MetricsRegistry) {
        for p in &self.phases {
            if p.calls == 0 {
                continue;
            }
            let labels = [("phase", p.name)];
            metrics.counter_add("sim_phase_seconds", &labels, p.seconds);
            metrics.counter_add("sim_phase_calls", &labels, p.calls as f64);
        }
        metrics.gauge_set("sim_phase_wall_seconds", &[], self.wall_seconds);
    }
}

/// A deterministic fixed-bucket histogram for small structural counts
/// (event-queue depths, events per epoch). Power-of-two buckets keep it
/// allocation-free and seed-independent, so its contents — unlike the wall
/// timers above — are identical run-to-run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepthHistogram {
    /// `buckets[i]` counts observations in `[2^i, 2^(i+1))` (bucket 0 also
    /// holds zeros).
    buckets: [u64; 32],
    count: u64,
    max: u64,
}

impl DepthHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()).saturating_sub(1).min(31);
        self.buckets[b as usize] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
            .collect()
    }

    /// Emits the histogram into a registry as exact per-bucket counters
    /// (`{family}_bucket{ge="<lower>"}`) plus `{family}_max` and
    /// `{family}_count` gauges. The bucket layout is fixed, so the
    /// emission is deterministic whenever the recorded quantity is.
    pub fn emit(&self, metrics: &mut MetricsRegistry, family: &str) {
        for (lo, n) in self.buckets() {
            let lo_s = lo.to_string();
            metrics.counter_add(&format!("{family}_bucket"), &[("ge", &lo_s)], n as f64);
        }
        metrics.gauge_set(&format!("{family}_max"), &[], self.max as f64);
        metrics.gauge_set(&format!("{family}_count"), &[], self.count as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_measures_nothing() {
        let mut p = PhaseProfiler::disabled();
        let ph = p.register("work");
        let t0 = p.start();
        assert!(t0.is_none());
        p.record(ph, t0);
        let r = p.report();
        assert_eq!(r.phases[0].calls, 0);
        assert_eq!(r.phases[0].seconds, 0.0);
    }

    #[test]
    fn enabled_profiler_accumulates_calls_and_time() {
        let mut p = PhaseProfiler::enabled();
        let a = p.register("a");
        let b = p.register("b");
        for _ in 0..3 {
            let t0 = p.start();
            std::hint::black_box(17u64.wrapping_mul(31));
            p.record(a, t0);
        }
        let t0 = p.start();
        p.record(b, t0);
        let r = p.report();
        assert_eq!(r.phases[0].name, "a");
        assert_eq!(r.phases[0].calls, 3);
        assert_eq!(r.phases[1].calls, 1);
        assert!(r.wall_seconds >= r.accounted_seconds() * 0.0);
        assert!(r.table().contains("coverage"));
    }

    #[test]
    fn depth_histogram_buckets_by_power_of_two() {
        let mut h = DepthHistogram::new();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        let b = h.buckets();
        // 0 and 1 share bucket 0; 2..3 bucket 1; 4..7 bucket 2; 8 bucket 3.
        assert_eq!(b[0], (0, 3));
        assert_eq!(b[1], (2, 2));
        assert_eq!(b[2], (4, 2));
        assert_eq!(b[3], (8, 1));
        assert_eq!(b[4], (512, 1));
    }

    #[test]
    fn depth_histogram_emits_bucket_counters() {
        let mut h = DepthHistogram::new();
        for v in [1, 2, 100] {
            h.record(v);
        }
        let mut metrics = MetricsRegistry::new();
        h.emit(&mut metrics, "queue_depth");
        assert_eq!(
            metrics.counter_value("queue_depth_bucket", &[("ge", "64")]),
            Some(1.0)
        );
        let dump = metrics.to_openmetrics();
        assert!(dump.contains("\nqueue_depth_max 100\n"), "{dump}");
        assert!(dump.contains("\nqueue_depth_count 3\n"), "{dump}");
    }

    #[test]
    fn phase_report_emits_volatile_families() {
        let mut p = PhaseProfiler::enabled();
        let ph = p.register("issue");
        let t0 = p.start();
        p.record(ph, t0);
        let mut metrics = MetricsRegistry::new();
        p.report().emit(&mut metrics);
        assert!(metrics
            .counter_value("sim_phase_seconds", &[("phase", "issue")])
            .is_some());
        assert!(metrics
            .to_openmetrics()
            .contains("\nsim_phase_wall_seconds "));
    }
}
