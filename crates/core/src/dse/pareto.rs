//! Deterministic Pareto-frontier extraction over the three proxy axes.
//!
//! Minimize latency and cost, maximize bandwidth. The extraction sorts
//! candidates by `(latency asc, cost asc, bandwidth desc, hash asc)` and
//! scans once: any dominator of a candidate sorts strictly before it, so
//! comparing against the accepted frontier suffices. The sort key makes
//! the result invariant under input permutation (property-tested), and the
//! content hash breaks exact metric ties so reports are byte-stable.
//!
//! Only the frontier's *order* reads the hash: every exact tie survives
//! and no tie-break decides a dominance, so any distinct keys yield the
//! same frontier set (property-tested). A search extracts the set with
//! candidate indices as keys and hashes only its members.

use std::cmp::Ordering;

/// One candidate's scores, as fed to [`pareto_frontier`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Latency proxy, ns (minimized).
    pub latency_ns: f64,
    /// Bandwidth proxy, GB/s (maximized).
    pub bandwidth_gb_s: f64,
    /// Cost proxy, unitless (minimized).
    pub cost: f64,
    /// The deterministic tie-break: in reports, the content hash of the
    /// candidate spec.
    pub hash: u64,
}

impl ParetoPoint {
    /// True when `self` dominates `other`: no worse on every axis and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let no_worse = self.latency_ns <= other.latency_ns
            && self.cost <= other.cost
            && self.bandwidth_gb_s >= other.bandwidth_gb_s;
        let strictly = self.latency_ns < other.latency_ns
            || self.cost < other.cost
            || self.bandwidth_gb_s > other.bandwidth_gb_s;
        no_worse && strictly
    }
}

/// Indices of the non-dominated candidates, in the deterministic frontier
/// order `(latency asc, cost asc, bandwidth desc, hash asc)`. Candidates
/// with identical metrics all survive (distinct designs can score the
/// same); NaN metrics never enter the frontier.
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len())
        .filter(|&i| {
            let p = &points[i];
            !(p.latency_ns.is_nan() || p.bandwidth_gb_s.is_nan() || p.cost.is_nan())
        })
        .collect();
    order.sort_by(|&a, &b| frontier_order(&points[a], &points[b]));
    let mut frontier: Vec<usize> = Vec::new();
    for &i in &order {
        let p = &points[i];
        if !frontier.iter().any(|&f| points[f].dominates(p)) {
            frontier.push(i);
        }
    }
    frontier
}

/// The frontier order: `(latency asc, cost asc, bandwidth desc, hash asc)`.
pub(crate) fn frontier_order(a: &ParetoPoint, b: &ParetoPoint) -> Ordering {
    a.latency_ns
        .total_cmp(&b.latency_ns)
        .then(a.cost.total_cmp(&b.cost))
        .then(b.bandwidth_gb_s.total_cmp(&a.bandwidth_gb_s))
        .then(a.hash.cmp(&b.hash))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(l: f64, b: f64, c: f64, h: u64) -> ParetoPoint {
        ParetoPoint {
            latency_ns: l,
            bandwidth_gb_s: b,
            cost: c,
            hash: h,
        }
    }

    #[test]
    fn dominated_points_are_dropped() {
        let pts = [
            p(100.0, 50.0, 10.0, 1), // frontier
            p(120.0, 40.0, 12.0, 2), // dominated by 0 on all axes
            p(90.0, 30.0, 8.0, 3),   // frontier: cheaper + faster, less bw
        ];
        let f = pareto_frontier(&pts);
        assert_eq!(f, vec![2, 0]);
    }

    #[test]
    fn equal_metrics_all_survive_in_hash_order() {
        let pts = [p(100.0, 50.0, 10.0, 7), p(100.0, 50.0, 10.0, 3)];
        assert_eq!(pareto_frontier(&pts), vec![1, 0]);
    }

    #[test]
    fn permutation_invariance_smoke() {
        let a = [
            p(100.0, 50.0, 10.0, 1),
            p(90.0, 30.0, 8.0, 2),
            p(110.0, 60.0, 11.0, 3),
            p(95.0, 55.0, 20.0, 4),
        ];
        let mut b = a;
        b.reverse();
        let fa: Vec<u64> = pareto_frontier(&a).iter().map(|&i| a[i].hash).collect();
        let fb: Vec<u64> = pareto_frontier(&b).iter().map(|&i| b[i].hash).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn nan_never_enters() {
        let pts = [p(f64::NAN, 50.0, 10.0, 1), p(100.0, 50.0, 10.0, 2)];
        assert_eq!(pareto_frontier(&pts), vec![1]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Points on a 20³ metric grid plus exact copies of some of them,
        /// so frontier ties are common while dominance stays rich (on the
        /// bare grid, exact ties almost never reach the frontier). A copy
        /// keeps its original's key or takes a fresh one.
        fn arb_points() -> impl Strategy<Value = Vec<ParetoPoint>> {
            (
                arb_points_on(20),
                proptest::collection::vec((0usize..1000, proptest::bool::ANY), 1..16),
            )
                .prop_map(|(mut points, copies)| {
                    let n = points.len();
                    for (k, (src, same_key)) in copies.into_iter().enumerate() {
                        let mut copy = points[src % n];
                        if !same_key {
                            copy.hash = crate::scenario::splitmix64((n + k) as u64);
                        }
                        points.push(copy);
                    }
                    points
                })
        }

        /// Points on a `steps`³ metric grid; a small grid makes exact ties
        /// on the frontier common.
        fn arb_points_on(steps: u32) -> impl Strategy<Value = Vec<ParetoPoint>> {
            proptest::collection::vec(
                (0..steps, 0..steps, 0..steps).prop_map(|(l, b, c)| ParetoPoint {
                    latency_ns: l as f64 * 10.0,
                    bandwidth_gb_s: b as f64 * 5.0,
                    cost: c as f64 * 2.0,
                    hash: 0,
                }),
                1..40,
            )
            .prop_map(|mut v| {
                for (i, pt) in v.iter_mut().enumerate() {
                    pt.hash = crate::scenario::splitmix64(i as u64);
                }
                v
            })
        }

        /// Deterministic Fisher–Yates driven by the drawn seed: the
        /// permuted points and, for each, its index in `points`.
        fn shuffled(points: &[ParetoPoint], seed: u64) -> (Vec<ParetoPoint>, Vec<usize>) {
            let mut origin: Vec<usize> = (0..points.len()).collect();
            let mut state = seed;
            for i in (1..origin.len()).rev() {
                state = crate::scenario::splitmix64(state);
                origin.swap(i, (state % (i as u64 + 1)) as usize);
            }
            (origin.iter().map(|&i| points[i]).collect(), origin)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The frontier is the same set of candidates, in the same key
            /// order, no matter how the input is permuted: copies sharing a
            /// key and metrics all stay, whichever comes first.
            #[test]
            fn frontier_is_permutation_invariant(points in arb_points(), seed in 0u64..1000) {
                let base = pareto_frontier(&points);
                let (perm, origin) = shuffled(&points, seed);
                let permuted = pareto_frontier(&perm);
                let keys = |f: &[usize], pts: &[ParetoPoint]| -> Vec<u64> {
                    f.iter().map(|&i| pts[i].hash).collect()
                };
                prop_assert_eq!(keys(&base, &points), keys(&permuted, &perm));
                let mut members: Vec<usize> = permuted.iter().map(|&k| origin[k]).collect();
                members.sort_unstable();
                let mut base = base;
                base.sort_unstable();
                prop_assert_eq!(base, members);
            }

            /// Any distinct tie-break keys select the same frontier set, and
            /// re-keying reorders only members whose metrics tie exactly.
            /// A search relies on this to extract the set by candidate
            /// index and hash only its members.
            #[test]
            fn frontier_set_is_independent_of_the_tie_break(
                points in arb_points_on(4),
                seed in 0u64..u64::MAX,
            ) {
                // SplitMix64 is a bijection, so the new keys stay distinct.
                let rekeyed: Vec<ParetoPoint> = points
                    .iter()
                    .enumerate()
                    .map(|(i, pt)| ParetoPoint {
                        hash: crate::scenario::splitmix64(seed.wrapping_add(i as u64)),
                        ..*pt
                    })
                    .collect();
                let a = pareto_frontier(&points);
                let b = pareto_frontier(&rekeyed);
                let metrics = |f: &[usize]| -> Vec<[u64; 3]> {
                    f.iter()
                        .map(|&i| {
                            let pt = &points[i];
                            [pt.latency_ns.to_bits(), pt.cost.to_bits(), pt.bandwidth_gb_s.to_bits()]
                        })
                        .collect()
                };
                prop_assert_eq!(metrics(&a), metrics(&b));
                let (mut sa, mut sb) = (a, b);
                sa.sort_unstable();
                sb.sort_unstable();
                prop_assert_eq!(sa, sb);
            }

            /// Soundness and completeness: no frontier member dominates
            /// another, and every excluded point has a dominator on the
            /// frontier.
            #[test]
            fn frontier_is_exactly_the_non_dominated_set(points in arb_points()) {
                let frontier = pareto_frontier(&points);
                let on: std::collections::HashSet<usize> = frontier.iter().copied().collect();
                for &i in &frontier {
                    for &j in &frontier {
                        prop_assert!(!points[i].dominates(&points[j]),
                            "frontier member {i} dominates frontier member {j}");
                    }
                }
                for j in 0..points.len() {
                    if !on.contains(&j) {
                        prop_assert!(
                            frontier.iter().any(|&i| points[i].dominates(&points[j])),
                            "excluded point {j} has no dominator on the frontier"
                        );
                    }
                }
            }
        }
    }
}
