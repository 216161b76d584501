//! The global software traffic manager.
//!
//! Implication #4: hardware partitioning is sender-driven and
//! traffic-oblivious; the paper proposes materializing the flow abstraction
//! "in a global software-based traffic manager" so allocation policy is
//! programmable. [`TrafficPolicy`] is that manager's policy knob, and
//! [`TrafficPolicy::allocate_dense`] is its allocator. The engine solves
//! over its server arena: the capacity table has one entry per arena slot
//! (one per capped capacity point × direction), and each flow's footprint
//! lists the slots it crosses, resolved once at admission. The fair
//! policies run [`weighted_allocate_dense`] over them. That
//! progressive-filling solver lives in `chiplet_fluid::alloc` and is the
//! workspace's only one: the DSE estimator and the fluid engine's max-min
//! phase call it too.
//!
//! The engine enforces an allocation by pacing each flow at its allocated
//! rate at the *source* (token-bucket gating of issue), exactly how a
//! software manager would have to do it on real hardware today.

use chiplet_fluid::alloc::{weighted_allocate_dense, DenseAllocScratch};
use serde::{Deserialize, Serialize};

/// The manager's allocation policy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum TrafficPolicy {
    /// No software control: hardware sender-driven partitioning (the
    /// paper's status quo).
    #[default]
    HardwareDefault,
    /// Max-min fairness across flows sharing each capacity point.
    MaxMinFair,
    /// Weighted max-min with per-flow weights (indexed by flow order).
    WeightedFair {
        /// Per-flow weights; missing entries default to 1.0.
        weights: Vec<f64>,
    },
    /// Static per-flow rate caps, GB/s (indexed by flow order; missing
    /// entries mean uncapped).
    RateLimit {
        /// Per-flow caps, GB/s.
        caps_gb_s: Vec<f64>,
    },
    /// BDP-adaptive control (Implication #3): the engine monitors each
    /// flow's runtime latency and applies AIMD rate adjustments to hold it
    /// near `latency_factor ×` the flow's unloaded path latency — keeping
    /// the in-flight window near the true BDP instead of deep in the queue.
    BdpAdaptive {
        /// Target latency as a multiple of the unloaded path latency
        /// (e.g. 1.15 = allow 15% queueing).
        latency_factor: f64,
        /// Control interval, ns (how often rates adjust).
        interval_ns: u64,
    },
}

impl TrafficPolicy {
    /// Computes per-flow enforced rates (bytes/s) into `out` from the
    /// flows' demands and footprints (`(index into capacities, fraction)`
    /// pairs), reusing `scratch`. Uncapped entries of `capacities` are
    /// `f64::INFINITY`. Max-min
    /// runs [`weighted_allocate_dense`] with weight 1.0 per flow, weighted
    /// fairness with the policy's weights, and rate limits clamp each
    /// demand to its cap. Returns `false` (leaving `out` untouched) when
    /// the policy leaves the hardware in charge: `HardwareDefault`, and
    /// `BdpAdaptive`, a closed-loop controller the engine drives from
    /// runtime measurements instead.
    pub fn allocate_dense<'a>(
        &self,
        demands: &[f64],
        footprint: impl Fn(usize) -> &'a [(u32, f64)],
        capacities: &[f64],
        scratch: &mut DenseAllocScratch,
        out: &mut Vec<f64>,
    ) -> bool {
        match self {
            TrafficPolicy::HardwareDefault | TrafficPolicy::BdpAdaptive { .. } => return false,
            TrafficPolicy::MaxMinFair => {
                weighted_allocate_dense(demands, |_| 1.0, footprint, capacities, scratch, out)
            }
            TrafficPolicy::WeightedFair { weights } => weighted_allocate_dense(
                demands,
                |i| weights.get(i).copied().unwrap_or(1.0).max(1e-9),
                footprint,
                capacities,
                scratch,
                out,
            ),
            TrafficPolicy::RateLimit { caps_gb_s } => {
                out.clear();
                out.extend(demands.iter().enumerate().map(|(i, &d)| {
                    let cap = caps_gb_s.get(i).copied().unwrap_or(f64::INFINITY) * 1e9;
                    d.min(cap).min(f64::MAX / 4.0)
                }));
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flow for the test instances: its demand and the capacity points
    /// it crosses, each with fraction 1.
    type Flow<'a> = (f64, &'a [u32]);

    /// Runs `policy` over `flows`: the points in `caps` are capped, every
    /// other point of the table is uncapped. Rates in bytes/s, or `None`
    /// when the hardware stays in charge.
    fn allocate(policy: &TrafficPolicy, flows: &[Flow], caps: &[(u32, f64)]) -> Option<Vec<f64>> {
        let footprints: Vec<Vec<(u32, f64)>> = flows
            .iter()
            .map(|&(_, points)| points.iter().map(|&p| (p, 1.0)).collect())
            .collect();
        let points = footprints.iter().flatten().map(|&(p, _)| p);
        let len = points
            .chain(caps.iter().map(|&(p, _)| p))
            .max()
            .map_or(0, |p| p as usize + 1);
        let mut capacities = vec![f64::INFINITY; len];
        for &(point, cap) in caps {
            capacities[point as usize] = cap;
        }
        let demands: Vec<f64> = flows.iter().map(|&(demand, _)| demand).collect();
        let mut out = Vec::new();
        policy
            .allocate_dense(
                &demands,
                |i| footprints[i].as_slice(),
                &capacities,
                &mut DenseAllocScratch::default(),
                &mut out,
            )
            .then_some(out)
    }

    fn max_min_fair(flows: &[Flow], caps: &[(u32, f64)]) -> Vec<f64> {
        allocate(&TrafficPolicy::MaxMinFair, flows, caps).expect("max-min allocates")
    }

    const INF: f64 = f64::INFINITY;

    #[test]
    fn single_bottleneck_splits_evenly() {
        let rates = max_min_fair(&[(INF, &[1]), (INF, &[1])], &[(1, 30.0)]);
        assert!((rates[0] - 15.0).abs() < 1e-9);
        assert!((rates[1] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn small_demand_gets_demand_rest_to_big() {
        // The defining max-min property (vs the hardware's proportional
        // sharing): the small flow is satisfied in full.
        let rates = max_min_fair(&[(5.0, &[1]), (INF, &[1])], &[(1, 30.0)]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn under_subscription_everyone_satisfied() {
        let rates = max_min_fair(&[(8.0, &[1]), (10.0, &[1])], &[(1, 30.0)]);
        assert!((rates[0] - 8.0).abs() < 1e-9);
        assert!((rates[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn multi_resource_bottleneck_chain() {
        // Flow A crosses r1 (cap 10) and r2 (cap 30); flow B crosses r2
        // only. A is limited to 10 by r1; B takes 20 on r2.
        let rates = max_min_fair(&[(INF, &[1, 2]), (INF, &[2])], &[(1, 10.0), (2, 30.0)]);
        assert!((rates[0] - 10.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 20.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn weights_bias_the_split() {
        let policy = TrafficPolicy::WeightedFair {
            weights: vec![2.0, 1.0],
        };
        let rates = allocate(&policy, &[(INF, &[1]), (INF, &[1])], &[(1, 30.0)]).unwrap();
        assert!((rates[0] - 20.0).abs() < 1e-9);
        assert!((rates[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_gets_zero() {
        let rates = max_min_fair(&[(0.0, &[1]), (INF, &[1])], &[(1, 30.0)]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_flow_gets_demand() {
        // Crosses only resources with no configured cap.
        let rates = max_min_fair(&[(12.0, &[99])], &[(1, 30.0)]);
        assert!((rates[0] - 12.0).abs() < 1e-9);
    }

    #[test]
    fn policy_hardware_default_is_none() {
        assert!(allocate(
            &TrafficPolicy::HardwareDefault,
            &[(1.0, &[1])],
            &[(1, 10.0)]
        )
        .is_none());
    }

    #[test]
    fn policy_rate_limit_caps() {
        let policy = TrafficPolicy::RateLimit {
            caps_gb_s: vec![5.0],
        };
        let rates = allocate(&policy, &[(INF, &[1]), (3e9, &[1])], &[]).unwrap();
        assert!((rates[0] / 1e9 - 5.0).abs() < 1e-9);
        assert!((rates[1] / 1e9 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_is_feasible_and_work_conserving() {
        // Random-ish topology: verify Σ allocations on each resource ≤ cap,
        // and no flow could be raised without breaking feasibility.
        let flows: [Flow; 4] = [(INF, &[1, 2]), (INF, &[2, 3]), (4.0, &[3]), (INF, &[1])];
        let capacities = [(1, 20.0), (2, 15.0), (3, 12.0)];
        let rates = max_min_fair(&flows, &capacities);
        let load = |r: u32| -> f64 {
            flows
                .iter()
                .zip(&rates)
                .filter(|((_, keys), _)| keys.contains(&r))
                .map(|(_, rate)| rate)
                .sum()
        };
        // Feasibility.
        for &(r, cap) in &capacities {
            let sum = load(r);
            assert!(sum <= cap + 1e-6, "resource {r}: {sum} > {cap}");
        }
        // Work conservation: every unsatisfied flow sits on a saturated
        // resource.
        for (&(demand, keys), rate) in flows.iter().zip(&rates) {
            if *rate < demand - 1e-6 {
                let on_saturated = keys.iter().any(|&r| {
                    capacities
                        .iter()
                        .any(|&(k, cap)| k == r && load(r) >= cap - 1e-6)
                });
                assert!(on_saturated, "flow under demand but no saturated resource");
            }
        }
    }
}
