//! Property-based tests for the sender-driven equilibrium allocator.
//!
//! §3.5's contract, checked over random instances: rates are feasible on
//! every link, never exceed demand, and every saturated link is *work
//! conserving* — a flow that wants more than it got must be pinned by some
//! fully-utilized link it crosses, never left short on a link with spare
//! capacity. The one max-min solver, [`weighted_allocate_dense`], is
//! checked on its own over weighted, fractional instances with uncapped
//! points and fabric-less flows.

use chiplet_fluid::alloc::{weighted_allocate_dense, DenseAllocScratch};
use chiplet_fluid::{proportional_allocate, IncrementalAllocator};
use proptest::prelude::*;

/// A random allocation instance: link capacities plus per-flow demands
/// (None = unthrottled) and non-empty link subsets.
fn arb_instance() -> impl Strategy<Value = (Vec<f64>, Vec<Option<f64>>, Vec<Vec<usize>>)> {
    (
        prop::collection::vec(1.0f64..100.0, 1..5),
        prop::collection::vec(
            (
                prop::option::of(0.5f64..120.0),
                prop::collection::vec(0usize..64, 1..4),
            ),
            1..8,
        ),
    )
        .prop_map(|(caps, raw_flows)| {
            let n_links = caps.len();
            let mut demands = Vec::new();
            let mut links = Vec::new();
            for (demand, raw) in raw_flows {
                let mut ls: Vec<usize> = raw.into_iter().map(|l| l % n_links).collect();
                ls.sort_unstable();
                ls.dedup();
                demands.push(demand);
                links.push(ls);
            }
            (caps, demands, links)
        })
}

fn usage_per_link(caps: &[f64], links: &[Vec<usize>], rates: &[f64]) -> Vec<f64> {
    let mut usage = vec![0.0; caps.len()];
    for (ls, &r) in links.iter().zip(rates) {
        for &l in ls {
            usage[l] += r;
        }
    }
    usage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rates never exceed any link capacity and never exceed demand.
    #[test]
    fn feasible_and_demand_bounded((caps, demands, links) in arb_instance()) {
        let d: Vec<f64> = demands.iter().map(|o| o.unwrap_or(f64::INFINITY)).collect();
        let rates = proportional_allocate(&d, &links, &caps);
        for (i, &r) in rates.iter().enumerate() {
            prop_assert!(r >= 0.0, "flow {i} negative: {r}");
            prop_assert!(r <= d[i] + 1e-6, "flow {i}: rate {r} above demand {}", d[i]);
        }
        let usage = usage_per_link(&caps, &links, &rates);
        for (l, (&u, &c)) in usage.iter().zip(&caps).enumerate() {
            prop_assert!(u <= c + 1e-6 * (1.0 + c), "link {l}: usage {u} above capacity {c}");
        }
    }

    /// Work conservation: a flow allocated less than its demand must cross
    /// a saturated link — equivalently, no link with spare capacity has a
    /// flow on it that is throttled solely by the allocator. In particular
    /// every saturated link crossed by an unthrottled flow is fully used.
    #[test]
    fn work_conserving((caps, demands, links) in arb_instance()) {
        let d: Vec<f64> = demands.iter().map(|o| o.unwrap_or(f64::INFINITY)).collect();
        let rates = proportional_allocate(&d, &links, &caps);
        let usage = usage_per_link(&caps, &links, &rates);
        let saturated: Vec<bool> = usage
            .iter()
            .zip(&caps)
            .map(|(&u, &c)| u >= c - 1e-6 * (1.0 + c))
            .collect();
        for (i, &r) in rates.iter().enumerate() {
            let wants_more = r < d[i] - 1e-6;
            if wants_more {
                prop_assert!(
                    links[i].iter().any(|&l| saturated[l]),
                    "flow {i} (demand {}, rate {r}) is short with all links unsaturated: \
                     usage {usage:?} caps {caps:?}",
                    d[i]
                );
            }
        }
    }

    /// The max-min solver alone, over weighted flows whose footprints carry
    /// fractions in (0, 1], some uncapped points and some empty footprints:
    /// Σ rate·fraction fits every finite point, no rate exceeds its demand,
    /// a short flow sits on a saturated finite point, a fabric-less flow
    /// gets its finite demand or 0, and a flow that a finite point bounds
    /// never gets the f64::MAX / 4 unbounded sentinel.
    #[test]
    fn max_min_feasible((caps, flows) in arb_dense_instance()) {
        let demands: Vec<f64> = flows.iter().map(|f| f.0).collect();
        let weights: Vec<f64> = flows.iter().map(|f| f.1).collect();
        let footprints: Vec<&[(u32, f64)]> = flows.iter().map(|f| f.2.as_slice()).collect();
        let mut rates = Vec::new();
        weighted_allocate_dense(
            &demands,
            |i| weights[i],
            |i| footprints[i],
            &caps,
            &mut DenseAllocScratch::default(),
            &mut rates,
        );
        let mut usage = vec![0.0; caps.len()];
        for (fp, &r) in footprints.iter().zip(&rates) {
            for &(p, frac) in fp.iter() {
                usage[p as usize] += r * frac;
            }
        }
        let saturated = |p: u32| {
            let c = caps[p as usize];
            c.is_finite() && usage[p as usize] >= c - 1e-6 * (1.0 + c)
        };
        for (p, (&u, &c)) in usage.iter().zip(&caps).enumerate() {
            prop_assert!(u <= c + 1e-6 * (1.0 + c), "point {p}: {u} > {c}");
        }
        for (i, (&r, fp)) in rates.iter().zip(&footprints).enumerate() {
            let d = demands[i];
            prop_assert!(r >= 0.0, "flow {i} negative: {r}");
            prop_assert!(r <= d + 1e-6, "flow {i}: rate {r} above demand {d}");
            if fp.is_empty() {
                let want = if d.is_finite() { d } else { 0.0 };
                prop_assert_eq!(r.to_bits(), want.to_bits(), "fabric-less flow {}", i);
            } else if fp.iter().any(|&(p, _)| caps[p as usize].is_finite()) {
                prop_assert!(r < 1e12, "flow {i}: unbounded sentinel {r}");
                if r < d - 1e-6 {
                    prop_assert!(
                        fp.iter().any(|&(p, _)| saturated(p)),
                        "flow {i} (demand {d}, rate {r}) is short on unsaturated points"
                    );
                }
            }
        }
    }
}

/// One flow of a dense-solver instance: demand (∞ = unthrottled, 0 =
/// idle), weight, and `(point, fraction)` footprint (possibly empty).
type DenseFlow = (f64, f64, Vec<(u32, f64)>);

/// A random dense-solver instance: capacities, about a fifth of them
/// uncapped (∞), plus flows with weights in [0.1, 4), fractions in
/// (0.01, 1] and zero to three points each.
fn arb_dense_instance() -> impl Strategy<Value = (Vec<f64>, Vec<DenseFlow>)> {
    (
        prop::collection::vec((1.0f64..100.0, 0.0f64..1.0), 1..6),
        prop::collection::vec(
            (
                prop::option::of(0.0f64..120.0),
                0.1f64..4.0,
                prop::collection::vec((0u32..64, 0.0f64..1.0), 0..4),
            ),
            1..9,
        ),
    )
        .prop_map(|(raw_caps, raw_flows)| {
            let caps: Vec<f64> = raw_caps
                .into_iter()
                .map(|(c, u)| if u < 0.2 { f64::INFINITY } else { c })
                .collect();
            let flows = raw_flows
                .into_iter()
                .map(|(demand, weight, raw)| {
                    let footprint = raw
                        .into_iter()
                        .map(|(p, u)| (p % caps.len() as u32, 1.0 - 0.99 * u))
                        .collect();
                    (demand.unwrap_or(f64::INFINITY), weight, footprint)
                })
                .collect();
            (caps, flows)
        })
}

/// `flows` with their points relabelled into a larger table: point `p`
/// moves to `perm[p]`, where `perm` orders the new table by `keys`, and
/// the table's other entries take the unused capacities `pad` (`None` =
/// ∞). Each footprint is then sorted by its new labels, as a footprint
/// that indexes server-arena slots is. Returns the new table and flows.
fn relabel(
    caps: &[f64],
    flows: &[DenseFlow],
    keys: &[f64],
    pad: &[Option<f64>],
) -> (Vec<f64>, Vec<DenseFlow>) {
    let n = caps.len() + pad.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
    let mut table = vec![0.0; n];
    for (old, &new) in order.iter().enumerate() {
        table[new] = match caps.get(old) {
            Some(&c) => c,
            None => pad[old - caps.len()].unwrap_or(f64::INFINITY),
        };
    }
    let flows = flows
        .iter()
        .map(|(demand, weight, footprint)| {
            let mut footprint: Vec<(u32, f64)> = footprint
                .iter()
                .map(|&(p, frac)| (order[p as usize] as u32, frac))
                .collect();
            footprint.sort_by_key(|&(p, _)| p);
            (*demand, *weight, footprint)
        })
        .collect();
    (table, flows)
}

/// [`weighted_allocate_dense`]'s rates for an instance.
fn dense_rates(caps: &[f64], flows: &[DenseFlow]) -> Vec<f64> {
    let demands: Vec<f64> = flows.iter().map(|f| f.0).collect();
    let mut rates = Vec::new();
    weighted_allocate_dense(
        &demands,
        |i| flows[i].1,
        |i| flows[i].2.as_slice(),
        caps,
        &mut DenseAllocScratch::default(),
        &mut rates,
    );
    rates
}

/// Maps a unit sample to an epoch demand: a quarter unthrottled (∞), a
/// quarter departed/paused (0), the rest a finite offered load.
fn demand_from_unit(u: f64) -> f64 {
    if u < 0.25 {
        f64::INFINITY
    } else if u < 0.5 {
        0.0
    } else {
        0.5 + (u - 0.5) * 2.0 * 119.5
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incremental epoch allocator is **bit-identical** to the
    /// from-scratch solver at every step of a randomized flow
    /// arrival/departure/demand-change sequence — including steps whose
    /// demand vector repeats the previous one, where it skips the solve
    /// and serves the memoized rates. The pool holds a few demand vectors
    /// (∞ = unthrottled, 0 = departed, finite = offered load); the index
    /// sequence replays them with repeats, modelling arrivals, departures,
    /// and demand changes over a fixed flow population.
    #[test]
    fn incremental_matches_from_scratch(
        (caps, flow_slots, links) in arb_instance(),
        pool_raw in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 8..9), 1..4),
        seq in prop::collection::vec(0usize..4, 2..16),
    ) {
        let n_flows = flow_slots.len();
        let pool: Vec<Vec<f64>> = pool_raw
            .iter()
            .map(|row| row[..n_flows].iter().copied().map(demand_from_unit).collect())
            .collect();
        let mut inc = IncrementalAllocator::new();
        for &s in &seq {
            let demands = &pool[s % pool.len()];
            let fresh = proportional_allocate(demands, &links, &caps);
            let got = inc.allocate(demands, &links, &caps);
            prop_assert_eq!(got.len(), fresh.len());
            for (i, (a, b)) in got.iter().zip(&fresh).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "flow {}: incremental {} != from-scratch {}",
                    i, a, b
                );
            }
        }
    }

    /// The solver does not depend on how points are indexed: relabelling
    /// an instance's points by a random permutation, padding the table
    /// with unused finite and ∞ entries and sorting each footprint by its
    /// new labels leaves every rate bit-identical. The event engine's
    /// traffic manager relies on it: its footprints index server-arena
    /// slots, a table of every capped point × direction. About a quarter
    /// of the flows take weight 1e-9, the floor `WeightedFair` clamps a
    /// zero or negative weight to.
    #[test]
    fn rates_do_not_depend_on_point_indexing(
        (caps, mut flows) in arb_dense_instance(),
        keys in prop::collection::vec(0.0f64..1.0, 12..13),
        pad in prop::collection::vec(prop::option::of(1.0f64..100.0), 0..7),
        floored in prop::collection::vec(0.0f64..1.0, 8..9),
    ) {
        for (flow, &u) in flows.iter_mut().zip(&floored) {
            if u < 0.25 {
                flow.1 = 1e-9;
            }
        }
        let (table, relabelled) = relabel(&caps, &flows, &keys, &pad);
        let want = dense_rates(&caps, &flows);
        let got = dense_rates(&table, &relabelled);
        prop_assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "flow {}: relabelled {} != {}", i, a, b);
        }
    }
}
