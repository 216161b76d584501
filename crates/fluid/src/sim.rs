//! The fluid simulation loop.
//!
//! Fixed-step integration: at every tick the engine evaluates each flow's
//! demand schedule, computes the sender-driven equilibrium, and relaxes the
//! achieved rates toward it — upward with the link's harvest time constant,
//! downward instantly. Links flagged unstable add AR(1) noise to harvested
//! bandwidth (the 7302 IF behavior the paper attributes to the intra-CC
//! queueing module).

use chiplet_sim::stats::TracePoint;
use chiplet_sim::{
    Bandwidth, DetRng, MetricKind, MetricsRegistry, SeriesHandle, SimDuration, SimTime,
};
use serde::{Deserialize, Serialize};

use crate::alloc::IncrementalAllocator;

/// Harvest-noise parameters for an unstable link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Instability {
    /// Noise amplitude as a fraction of the flow's *harvested* bandwidth
    /// (the amount above its long-run equal share).
    pub amplitude: f64,
    /// AR(1) correlation per tick, in `[0, 1)`.
    pub correlation: f64,
}

/// A shared link in the fluid model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidLink {
    /// Display name ("IF", "GMI", "P-Link").
    pub name: String,
    /// Directional capacity.
    pub capacity: Bandwidth,
    /// Harvest ramp time constant: reaching ~95% of newly available
    /// bandwidth takes ≈3τ.
    pub harvest_tau: SimDuration,
    /// Harvest instability, when present.
    pub instability: Option<Instability>,
}

pub use chiplet_sim::schedule::DemandSchedule;

/// One flow in the fluid model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FluidFlowSpec {
    /// Display name.
    pub name: String,
    /// Demand over time.
    pub demand: DemandSchedule,
    /// Indices into the link table of the links crossed.
    pub links: Vec<usize>,
}

/// The fluid engine.
pub struct FluidSim {
    links: Vec<FluidLink>,
    flows: Vec<FluidFlowSpec>,
}

impl FluidSim {
    /// Creates an engine over a link table.
    pub fn new(links: Vec<FluidLink>) -> Self {
        FluidSim {
            links,
            flows: Vec::new(),
        }
    }

    /// Adds a flow.
    ///
    /// # Panics
    ///
    /// Panics on a link index out of range.
    pub fn add_flow(&mut self, flow: FluidFlowSpec) {
        for &l in &flow.links {
            assert!(l < self.links.len(), "flow '{}': bad link {l}", flow.name);
        }
        self.flows.push(flow);
    }

    /// Runs to `horizon` with step `dt`, sampling every `sample` interval.
    /// Returns one trace per flow, in addition order. With `metrics`, it
    /// also reports per-epoch telemetry there (timestamps are sim time —
    /// ticks, not wall clock), and the traces are the same either way:
    ///
    /// * `fluid_ticks` — integration epochs executed;
    /// * `fluid_flow_bytes{flow}` — bytes delivered per epoch at the
    ///   post-feasibility observed rate;
    /// * `fluid_flow_rate_gb_s{flow}` — the observed-rate distribution;
    /// * `fluid_harvest_ramp_ticks{flow}` — epochs spent ramping toward a
    ///   higher equilibrium (τ-limited harvesting);
    /// * `fluid_flow_final_rate_gb_s{flow}` — the rate at the horizon;
    /// * `fluid_alloc_memo_hits` / `_misses` — volatile allocator-memo
    ///   self-profiling.
    ///
    /// # Panics
    ///
    /// Panics on a zero `dt` or `sample`.
    pub fn run(
        &self,
        horizon: SimTime,
        dt: SimDuration,
        sample: SimDuration,
        seed: u64,
        mut metrics: Option<&mut MetricsRegistry>,
    ) -> Vec<Vec<TracePoint>> {
        assert!(
            !dt.is_zero() && !sample.is_zero(),
            "dt and sample must be positive"
        );
        let n = self.flows.len();
        let mut rng = DetRng::seed_from_u64(seed);
        let caps: Vec<f64> = self
            .links
            .iter()
            .map(|l| l.capacity.as_gb_per_s())
            .collect();
        let flow_links: Vec<Vec<usize>> = self.flows.iter().map(|f| f.links.clone()).collect();

        // Per-flow achieved rate (GB/s) and AR(1) noise state.
        let mut rate = vec![0.0f64; n];
        let mut noise = vec![0.0f64; n];
        // Long-run equal share per flow (for the instability reference):
        // equal split of its tightest link among the flows crossing it.
        let equal_share: Vec<f64> = (0..n)
            .map(|i| {
                self.flows[i]
                    .links
                    .iter()
                    .map(|&l| {
                        let crossing = flow_links.iter().filter(|ls| ls.contains(&l)).count();
                        caps[l] / crossing.max(1) as f64
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();

        // Per-flow constants, hoisted out of the tick loop: the ramp
        // coefficient (the slowest crossed link's τ and the fixed dt give a
        // fixed exponential step) and the governing instability (first
        // flagged link crossed, if any).
        let dt_s = dt.as_secs_f64();
        let ramp_k: Vec<f64> = self
            .flows
            .iter()
            .map(|f| {
                let tau = f
                    .links
                    .iter()
                    .map(|&l| self.links[l].harvest_tau.as_secs_f64())
                    .fold(0.0f64, f64::max);
                if tau > 0.0 {
                    1.0 - (-dt_s / tau).exp()
                } else {
                    1.0
                }
            })
            .collect();
        let instability: Vec<Option<Instability>> = self
            .flows
            .iter()
            .map(|f| {
                f.links
                    .iter()
                    .filter_map(|&l| self.links[l].instability)
                    .next()
            })
            .collect();
        // Link → crossing flows, ascending flow order (the feasibility sum
        // must accumulate in the same order as before).
        let mut link_flows: Vec<Vec<usize>> = vec![Vec::new(); self.links.len()];
        for (i, links) in flow_links.iter().enumerate() {
            for &l in links {
                link_flows[l].push(i);
            }
        }

        let mut traces: Vec<Vec<TracePoint>> = vec![Vec::new(); n];
        let mut accum = vec![0.0f64; n];
        let mut accum_ticks = 0u64;
        let mut next_sample = SimTime::ZERO + sample;

        // Per-tick series, resolved to dense registry handles at first
        // sample.
        let mut h_ticks: Option<SeriesHandle> = None;
        let mut h_ramp: Vec<Option<SeriesHandle>> = vec![None; n];
        let mut h_bytes: Vec<Option<SeriesHandle>> = vec![None; n];
        let mut h_rate: Vec<Option<SeriesHandle>> = vec![None; n];
        if let Some(m) = metrics.as_deref_mut() {
            describe_fluid_metrics(m);
        }

        // Demands are piecewise-constant, so the demand vector — and with it
        // the equilibrium, a pure function of (demands, topology) — can only
        // change at a schedule breakpoint. Re-evaluate the schedules only at
        // the first tick at/after each breakpoint; the incremental allocator
        // then re-solves only when a demand actually changed bitwise.
        let mut alloc = IncrementalAllocator::new();
        let mut demands = vec![0.0f64; n];
        let mut observed = vec![0.0f64; n];
        let mut next_change: Option<SimTime> = Some(SimTime::ZERO);
        let mut t = SimTime::ZERO;
        while t < horizon {
            if next_change.is_some_and(|c| t >= c) {
                for (d, f) in demands.iter_mut().zip(&self.flows) {
                    *d = f.demand.at(t).map_or(f64::INFINITY, |b| b.as_gb_per_s());
                }
                next_change = self
                    .flows
                    .iter()
                    .filter_map(|f| f.demand.next_change_after(t))
                    .min();
            }
            let equilibrium = alloc.allocate(&demands, &flow_links, &caps);

            // Relax toward equilibrium: instant down, τ-limited up.
            for i in 0..n {
                if equilibrium[i] <= rate[i] {
                    rate[i] = equilibrium[i];
                } else {
                    if let Some(m) = metrics.as_deref_mut() {
                        let h = *h_ramp[i].get_or_insert_with(|| {
                            let labels = [("flow", self.flows[i].name.as_str())];
                            m.series_handle(
                                MetricKind::Counter,
                                "fluid_harvest_ramp_ticks",
                                &labels,
                            )
                        });
                        m.counter_add_at_handle(h, t, 1.0);
                    }
                    rate[i] += (equilibrium[i] - rate[i]) * ramp_k[i];
                }
            }

            // Instability: noisy harvested bandwidth on flagged links.
            observed.copy_from_slice(&rate);
            for i in 0..n {
                if let Some(inst) = instability[i] {
                    let harvested = (rate[i] - equal_share[i]).max(0.0);
                    if harvested > 1e-9 {
                        let eps = rng.next_f64() * 2.0 - 1.0;
                        noise[i] = inst.correlation * noise[i] + (1.0 - inst.correlation) * eps;
                        observed[i] = (rate[i] + harvested * inst.amplitude * noise[i]).max(0.0);
                    } else {
                        noise[i] = 0.0;
                    }
                }
            }

            // Enforce feasibility after noise.
            for (l, &cap) in caps.iter().enumerate() {
                let used: f64 = link_flows[l].iter().map(|&i| observed[i]).sum();
                if used > cap {
                    let s = cap / used;
                    for &i in &link_flows[l] {
                        observed[i] *= s;
                    }
                }
            }

            if let Some(m) = metrics.as_deref_mut() {
                let h = *h_ticks.get_or_insert_with(|| {
                    m.series_handle(MetricKind::Counter, "fluid_ticks", &[])
                });
                m.counter_add_handle(h, 1.0);
                for i in 0..n {
                    let labels = [("flow", self.flows[i].name.as_str())];
                    // GB/s sustained for dt seconds → bytes this epoch.
                    let h = *h_bytes[i].get_or_insert_with(|| {
                        m.series_handle(MetricKind::Counter, "fluid_flow_bytes", &labels)
                    });
                    m.counter_add_at_handle(h, t, observed[i] * dt_s * 1e9);
                    let h = *h_rate[i].get_or_insert_with(|| {
                        m.series_handle(MetricKind::Histogram, "fluid_flow_rate_gb_s", &labels)
                    });
                    m.observe_handle(h, t, observed[i]);
                }
            }
            for i in 0..n {
                accum[i] += observed[i];
            }
            accum_ticks += 1;
            t += dt;

            if t >= next_sample {
                for i in 0..n {
                    let avg = accum[i] / accum_ticks as f64;
                    traces[i].push(TracePoint {
                        at: next_sample - sample,
                        bandwidth: Bandwidth::from_gb_per_s(avg),
                    });
                    accum[i] = 0.0;
                }
                accum_ticks = 0;
                next_sample += sample;
            }
        }
        if let Some(m) = metrics {
            for (flow, &final_rate) in self.flows.iter().zip(rate.iter()) {
                m.gauge_set(
                    "fluid_flow_final_rate_gb_s",
                    &[("flow", flow.name.as_str())],
                    final_rate,
                );
            }
            // Allocator memo effectiveness (self-profiling): how many epochs
            // re-solved the equilibrium vs. reused the cached rates.
            m.counter_add("fluid_alloc_memo_hits", &[], alloc.memo_hits() as f64);
            m.counter_add("fluid_alloc_memo_misses", &[], alloc.memo_misses() as f64);
        }
        traces
    }
}

/// Declares the fluid engine's metric families on a registry, so an
/// instrumented run emits `# HELP` text even for families that stay empty.
fn describe_fluid_metrics(m: &mut MetricsRegistry) {
    m.describe(
        "fluid_ticks",
        MetricKind::Counter,
        "Integration epochs the fluid engine stepped through.",
    );
    m.describe(
        "fluid_flow_bytes",
        MetricKind::Counter,
        "Bytes a fluid flow moved, integrated from its allocated rate.",
    );
    m.describe(
        "fluid_flow_rate_gb_s",
        MetricKind::Histogram,
        "Per-epoch allocated rate of a fluid flow, GB/s.",
    );
    m.describe(
        "fluid_harvest_ramp_ticks",
        MetricKind::Counter,
        "Epochs a flow spent ramping toward a higher equilibrium rate.",
    );
    m.describe(
        "fluid_flow_final_rate_gb_s",
        MetricKind::Gauge,
        "A fluid flow's allocated rate at the end of the run, GB/s.",
    );
    // Self-profiling families: kept volatile so the default
    // (deterministic) dumps pinned by the scenario goldens are unchanged.
    m.describe_volatile(
        "fluid_alloc_memo_hits",
        MetricKind::Counter,
        "Integration epochs served from the allocator's demand memo.",
    );
    m.describe_volatile(
        "fluid_alloc_memo_misses",
        MetricKind::Counter,
        "Integration epochs that re-solved the fluid equilibrium.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(x: f64) -> Bandwidth {
        Bandwidth::from_gb_per_s(x)
    }

    fn link(capacity_gb_s: f64, tau_ms: u64, instability: Option<Instability>) -> FluidLink {
        FluidLink {
            name: "test".into(),
            capacity: gb(capacity_gb_s),
            harvest_tau: SimDuration::from_millis(tau_ms),
            instability,
        }
    }

    // Links shaped like the named presets `chiplet-net` resolves from the
    // platform specs; the capacities here are only test inputs.
    fn if_9634() -> FluidLink {
        link(33.2, 33, None)
    }

    fn plink_9634() -> FluidLink {
        link(24.3, 165, None)
    }

    fn if_7302() -> FluidLink {
        link(
            25.1,
            33,
            Some(Instability {
                amplitude: 0.9,
                correlation: 0.7,
            }),
        )
    }

    /// The Figure 5 scenario: flow 0 throttled by 2 GB/s during [2,3) s and
    /// [4,5) s; flow 1 unthrottled.
    fn fig5(link: FluidLink) -> (FluidSim, f64) {
        let cap = link.capacity.as_gb_per_s();
        let mut sim = FluidSim::new(vec![link]);
        let half = cap / 2.0;
        sim.add_flow(FluidFlowSpec {
            name: "flow0".into(),
            demand: DemandSchedule::piecewise(vec![
                (SimTime::ZERO, None),
                (SimTime::from_secs(2), Some(gb(half - 2.0))),
                (SimTime::from_secs(3), None),
                (SimTime::from_secs(4), Some(gb(half - 2.0))),
                (SimTime::from_secs(5), None),
            ]),
            links: vec![0],
        });
        sim.add_flow(FluidFlowSpec {
            name: "flow1".into(),
            demand: DemandSchedule::constant(None),
            links: vec![0],
        });
        (sim, cap)
    }

    fn value_at(trace: &[TracePoint], t_ms: u64) -> f64 {
        trace
            .iter()
            .rev()
            .find(|p| p.at <= SimTime::from_millis(t_ms))
            .map(|p| p.bandwidth.as_gb_per_s())
            .unwrap()
    }

    #[test]
    fn steady_state_is_equal_split() {
        let (sim, cap) = fig5(if_9634());
        let traces = sim.run(
            SimTime::from_secs(6),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
            1,
            None,
        );
        // At 1.9 s (before the throttle) both flows sit at half capacity.
        for tr in &traces {
            let v = value_at(tr, 1900);
            assert!((v - cap / 2.0).abs() < 0.2, "steady {v} vs {}", cap / 2.0);
        }
    }

    #[test]
    fn harvesting_takes_about_100ms_on_if() {
        let (sim, cap) = fig5(if_9634());
        let traces = sim.run(
            SimTime::from_secs(6),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
            1,
            None,
        );
        let flow1 = &traces[1];
        let target = cap / 2.0 + 2.0;
        // Immediately after the throttle flow 1 has not yet harvested...
        let early = value_at(flow1, 2020);
        assert!(early < target - 0.5, "early {early} vs target {target}");
        // ...but within ~150 ms it has.
        let after = value_at(flow1, 2150);
        assert!(after > target - 0.3, "after 150 ms: {after} vs {target}");
        // And the release is reclaimed quickly after 3 s.
        let reclaimed = value_at(flow1, 3200);
        assert!((reclaimed - cap / 2.0).abs() < 0.5, "reclaim {reclaimed}");
    }

    #[test]
    fn plink_harvests_slower_than_if() {
        let run = |link: FluidLink| {
            let (sim, cap) = fig5(link);
            let traces = sim.run(
                SimTime::from_secs(6),
                SimDuration::from_millis(1),
                SimDuration::from_millis(10),
                1,
                None,
            );
            let target = cap / 2.0 + 2.0;
            // Time (ms after 2000) when flow 1 first reaches 95% of the
            // harvestable extra.
            let t = traces[1]
                .iter()
                .filter(|p| p.at >= SimTime::from_secs(2))
                .find(|p| p.bandwidth.as_gb_per_s() >= cap / 2.0 + 1.9)
                .map(|p| p.at.as_nanos() / 1_000_000 - 2000);
            (t, target)
        };
        let (t_if, _) = run(if_9634());
        let (t_plink, _) = run(plink_9634());
        let t_if = t_if.expect("IF harvest completes");
        let t_plink = t_plink.expect("P-Link harvest completes");
        assert!(
            t_if < 200 && t_plink > 300 && t_plink < 900,
            "harvest times: IF {t_if} ms, P-Link {t_plink} ms"
        );
    }

    #[test]
    fn the_7302_if_is_unstable() {
        let variance_of = |link: FluidLink| {
            let (sim, _) = fig5(link);
            let traces = sim.run(
                SimTime::from_secs(6),
                SimDuration::from_millis(1),
                SimDuration::from_millis(10),
                7,
                None,
            );
            // Flow 1's variance during the second throttle window.
            let vals: Vec<f64> = traces[1]
                .iter()
                .filter(|p| p.at >= SimTime::from_millis(4300) && p.at < SimTime::from_millis(4900))
                .map(|p| p.bandwidth.as_gb_per_s())
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64
        };
        let stable = variance_of(if_9634());
        let unstable = variance_of(if_7302());
        assert!(
            unstable > stable * 10.0 + 0.01,
            "variance: unstable {unstable} vs stable {stable}"
        );
    }

    #[test]
    fn conservation_never_exceeds_capacity() {
        let (sim, cap) = fig5(if_7302());
        let traces = sim.run(
            SimTime::from_secs(6),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
            3,
            None,
        );
        for (p0, p1) in traces[0].iter().zip(&traces[1]) {
            let sum = p0.bandwidth.as_gb_per_s() + p1.bandwidth.as_gb_per_s();
            assert!(sum <= cap + 1e-6, "sum {sum} exceeds {cap}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let (sim, _) = fig5(if_7302());
        let a = sim.run(
            SimTime::from_secs(2),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
            9,
            None,
        );
        let (sim2, _) = fig5(if_7302());
        let b = sim2.run(
            SimTime::from_secs(2),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
            9,
            None,
        );
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn instrumentation_counts_epochs_without_perturbing_the_run() {
        let (sim, cap) = fig5(if_9634());
        let horizon = SimTime::from_secs(2);
        let dt = SimDuration::from_millis(1);
        let sample = SimDuration::from_millis(10);
        let mut metrics = MetricsRegistry::new();
        let traces = sim.run(horizon, dt, sample, 1, Some(&mut metrics));
        let per_flow = |name: &str| {
            ["flow0", "flow1"]
                .iter()
                .map(|f| metrics.counter_value(name, &[("flow", f)]).unwrap_or(0.0))
                .sum::<f64>()
        };
        assert_eq!(metrics.counter_value("fluid_ticks", &[]), Some(2000.0));
        let rate_samples: u64 = ["flow0", "flow1"]
            .iter()
            .map(|f| {
                metrics
                    .histogram("fluid_flow_rate_gb_s", &[("flow", f)])
                    .map_or(0, |h| h.count())
            })
            .sum();
        assert_eq!(rate_samples, 2 * 2000);
        assert!(
            per_flow("fluid_harvest_ramp_ticks") > 0.0,
            "the startup ramp counts as harvesting"
        );
        let finals = metrics
            .to_openmetrics()
            .lines()
            .filter(|l| l.starts_with("fluid_flow_final_rate_gb_s{"))
            .count();
        assert_eq!(finals, 2);
        // Total delivered bytes can't exceed link capacity × elapsed time.
        let bytes = per_flow("fluid_flow_bytes");
        assert!(bytes <= cap * 2.0 * 1e9 * (1.0 + 1e-9), "{bytes}");
        assert!(bytes > cap * 1e9, "link is mostly full after ramp");
        // The registry never perturbs results: identical traces either way.
        assert_eq!(traces, sim.run(horizon, dt, sample, 1, None));
    }

    #[test]
    #[should_panic(expected = "bad link")]
    fn bad_link_index_rejected() {
        let mut sim = FluidSim::new(vec![if_9634()]);
        sim.add_flow(FluidFlowSpec {
            name: "x".into(),
            demand: DemandSchedule::constant(None),
            links: vec![5],
        });
    }
}
