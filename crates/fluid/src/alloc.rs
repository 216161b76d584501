//! The sender-driven equilibrium allocator.
//!
//! §3.5: under over-subscription, "the flow with a higher demand takes more
//! bandwidth than its equal share" (Figure 4, cases 2/4), while Figure 5
//! shows that a flow throttled *below* its fair share keeps its full demand
//! (the unthrottled competitor takes exactly the unused bandwidth). The
//! equilibrium that matches both observations is **bounded-proportional**:
//!
//! 1. flows whose demand does not exceed their max-min fair share are fully
//!    satisfied (their modest in-flight needs always fit the hardware MLP
//!    budget);
//! 2. the remaining capacity is split among the rest in proportion to
//!    demand — the aggressive sender's extra in-flight pressure wins a
//!    proportionally larger share of the traffic-oblivious FIFO arbiter.
//!
//! The over-subscriber split runs as *proportional progressive filling*:
//! pin the flows of the most-constrained link at their proportional share,
//! release the capacity they no longer need on their other links, and
//! repeat with the remaining flows. Restarting after every pin is what
//! keeps each saturated link fully utilized — a one-shot scaling would
//! strand the capacity freed by flows bottlenecked elsewhere.
//!
//! Step 1's max-min rates come from [`weighted_allocate_dense`], the
//! workspace's one progressive-filling solver: the event engine's traffic
//! manager (`chiplet_net::traffic`) and the DSE estimator call the same
//! function over `(index, fraction)` footprints (the traffic manager's
//! index the event engine's server-arena slots, the estimator's its own
//! interned points), the fluid engine over its link indices with weight
//! 1.0 and fraction 1.0.

/// Reusable work buffers for the allocators.
///
/// One epoch of [`proportional_allocate`] allocates roughly ten short-lived
/// vectors; a fluid run executes thousands of epochs. Holding the buffers
/// here and calling [`proportional_allocate_into`] makes the steady-state
/// epoch allocation-free. The rates produced are **bit-identical** to the
/// allocating entry points — only the storage is reused, never the
/// arithmetic order.
#[derive(Debug, Default, Clone)]
pub struct AllocScratch {
    fair: Vec<f64>,
    satisfied: Vec<bool>,
    residual: Vec<f64>,
    active: Vec<usize>,
    next_active: Vec<usize>,
    weights: Vec<f64>,
    usage: Vec<f64>,
    dense: DenseAllocScratch,
}

/// Computes the sender-driven equilibrium allocation.
///
/// * `demands[i]` — flow `i`'s offered rate (any consistent unit); use
///   `f64::INFINITY` for an unthrottled flow.
/// * `flow_links[i]` — indices into `capacities` of the links flow `i`
///   crosses. An **empty** link list means the flow does not touch the
///   shared fabric: a finite demand is granted verbatim and an unthrottled
///   (infinite-demand) flow gets `0.0`, since no link bounds it — never
///   the old `f64::MAX / 4` sentinel.
/// * `capacities[l]` — link `l`'s capacity.
///
/// Returns per-flow rates: feasible on every link, never above demand,
/// max-min-protective for below-fair-share flows, demand-proportional
/// among the over-subscribers on each saturated link, and
/// work-conserving — a saturated link crossed by an unthrottled flow is
/// fully utilized.
pub fn proportional_allocate(
    demands: &[f64],
    flow_links: &[Vec<usize>],
    capacities: &[f64],
) -> Vec<f64> {
    let mut out = Vec::new();
    proportional_allocate_into(
        demands,
        flow_links,
        capacities,
        &mut AllocScratch::default(),
        &mut out,
    );
    out
}

/// [`proportional_allocate`] into caller-provided buffers: `out` receives
/// the per-flow rates (cleared first), `scratch` supplies every internal
/// work vector. Allocation-free once the buffers have grown to the
/// instance size; rates are bit-identical to the allocating entry point.
pub fn proportional_allocate_into(
    demands: &[f64],
    flow_links: &[Vec<usize>],
    capacities: &[f64],
    scratch: &mut AllocScratch,
    out: &mut Vec<f64>,
) {
    assert_eq!(demands.len(), flow_links.len());
    let n = demands.len();

    // Phase A: max-min fair rates (progressive filling).
    let AllocScratch {
        fair,
        satisfied,
        residual,
        active,
        next_active,
        weights,
        usage,
        dense,
    } = scratch;
    weighted_allocate_dense(
        demands,
        |_| 1.0,
        |i| flow_links[i].as_slice(),
        capacities,
        dense,
        fair,
    );

    // Flows satisfied at their max-min rate keep their demand.
    satisfied.clear();
    satisfied.extend(
        demands
            .iter()
            .zip(fair.iter())
            .map(|(&d, &f)| d.is_finite() && d <= f + 1e-9),
    );

    let rate = out;
    rate.clear();
    rate.resize(n, 0.0);
    residual.clear();
    residual.extend_from_slice(capacities);
    for i in 0..n {
        if satisfied[i] {
            rate[i] = demands[i].max(0.0);
            for &l in &flow_links[i] {
                residual[l] = (residual[l] - rate[i]).max(0.0);
            }
        }
    }

    // Phase B: the rest split the residual capacity proportionally to
    // demand via proportional progressive filling. Each round pins the
    // flows of the tightest over-subscribed link at their proportional
    // share and treats them as satisfied, so capacity they release on
    // their *other* links is redistributed to the remaining flows in the
    // next round instead of being stranded (work conservation).
    //
    // Unthrottled fabric-less flows (infinite demand, no links) stay at
    // 0.0: nothing bounds them, so no finite rate is meaningful.
    active.clear();
    active.extend((0..n).filter(|&i| !satisfied[i] && !flow_links[i].is_empty()));
    // Each round pins at least one flow, so n rounds always suffice.
    for _ in 0..=n {
        if active.is_empty() {
            break;
        }
        // Pinning weight: the demand (finite) or the tightest remaining
        // residual (unthrottled).
        weights.clear();
        weights.extend(active.iter().map(|&i| {
            if demands[i].is_finite() {
                demands[i].max(0.0)
            } else {
                flow_links[i]
                    .iter()
                    .map(|&l| residual[l])
                    .fold(f64::INFINITY, f64::min)
            }
        }));
        usage.clear();
        usage.resize(capacities.len(), 0.0);
        for (k, &i) in active.iter().enumerate() {
            for &l in &flow_links[i] {
                usage[l] += weights[k];
            }
        }
        // The most-constrained link decides who gets pinned this round.
        let mut worst = 1.0f64;
        let mut bottleneck = None;
        for (l, &u) in usage.iter().enumerate() {
            if u > residual[l] && u > 0.0 {
                let s = residual[l] / u;
                if s < worst {
                    worst = s;
                    bottleneck = Some(l);
                }
            }
        }
        let Some(bl) = bottleneck else {
            // No link over-subscribed: every remaining flow takes its
            // full weight.
            for (k, &i) in active.iter().enumerate() {
                rate[i] = weights[k];
                for &l in &flow_links[i] {
                    residual[l] = (residual[l] - weights[k]).max(0.0);
                }
            }
            break;
        };
        next_active.clear();
        for (k, &i) in active.iter().enumerate() {
            if flow_links[i].contains(&bl) {
                let r = weights[k] * worst;
                rate[i] = r;
                for &l in &flow_links[i] {
                    residual[l] = (residual[l] - r).max(0.0);
                }
            } else {
                next_active.push(i);
            }
        }
        std::mem::swap(active, next_active);
    }
}

/// One capacity point a flow crosses: its slot in the capacity table and
/// the fraction of the flow's rate that loads it, in (0, 1].
pub trait FootprintPoint: Copy {
    /// The point's index into the capacity table.
    fn slot(self) -> usize;
    /// The share of the flow's rate that crosses the point.
    fn fraction(self) -> f64;
}

/// An engine/estimator point, `(dense index, fraction)`: interleaved
/// traffic spreads a flow at rate R over T channels at R/T each.
impl FootprintPoint for (u32, f64) {
    fn slot(self) -> usize {
        self.0 as usize
    }
    fn fraction(self) -> f64 {
        self.1
    }
}

/// A fluid link index: the whole flow crosses the link.
impl FootprintPoint for usize {
    fn slot(self) -> usize {
        self
    }
    fn fraction(self) -> f64 {
        1.0
    }
}

/// Reusable buffers for [`weighted_allocate_dense`]; steady-state epochs
/// allocate nothing once these have grown to the instance size.
#[derive(Debug, Clone, Default)]
pub struct DenseAllocScratch {
    active: Vec<usize>,
    remaining: Vec<f64>,
    load: Vec<f64>,
    touched: Vec<usize>,
}

/// Weighted max-min fair rates by progressive filling (demand-capped) —
/// the one solver behind the event engine's traffic manager, the DSE
/// estimator and the fluid engine's max-min phase.
///
/// Raises every active flow's rate at equal speed (scaled by weight)
/// until a capacity point saturates or a demand is met, freezes the flows
/// that met their demand or cross an exhausted point, and repeats.
///
/// * `demands[i]` — flow `i`'s offered rate (any consistent unit;
///   `f64::INFINITY` = unthrottled); a demand `<= 0` gets `0.0`;
/// * `weight(i)` — flow `i`'s positive weight (`|_| 1.0` = plain max-min);
/// * `footprint(i)` — the points flow `i` crosses. An **empty** footprint
///   does not touch the shared fabric: it gets its finite demand, or `0.0`
///   if unthrottled, before the first round, never another flow's level;
/// * `capacities` — the table the points index (`f64::INFINITY` =
///   uncapped). Only an unthrottled flow whose points are all uncapped
///   gets the `f64::MAX / 4` sentinel;
/// * `out` — receives per-flow rates (cleared first).
///
/// The water-level delta is a min-reduction (order-independent and exact)
/// and every accumulation runs in ascending flow order, so the rates do
/// not depend on how the capacity points are indexed: relabelling them, or
/// padding `capacities` with entries no flow crosses, leaves every rate
/// bit-identical (a property test checks both).
pub fn weighted_allocate_dense<'a, P: FootprintPoint + 'a>(
    demands: &[f64],
    weight: impl Fn(usize) -> f64,
    footprint: impl Fn(usize) -> &'a [P],
    capacities: &[f64],
    scratch: &mut DenseAllocScratch,
    out: &mut Vec<f64>,
) {
    let n = demands.len();
    let rate = out;
    rate.clear();
    rate.resize(n, 0.0);
    let DenseAllocScratch {
        active,
        remaining,
        load,
        touched,
    } = scratch;
    // Zero-demand and fabric-less flows are settled before the first round;
    // the rest form the ascending active list. Reserving up front keeps a
    // cold scratch to one allocation per buffer.
    active.clear();
    active.reserve(n);
    for (i, &d) in demands.iter().enumerate() {
        if d <= 0.0 {
            continue;
        }
        if footprint(i).is_empty() {
            rate[i] = if d.is_finite() { d } else { 0.0 };
            continue;
        }
        active.push(i);
    }
    remaining.clear();
    remaining.extend_from_slice(capacities);
    // `touched` lists each point an active flow crosses, once; the set only
    // shrinks as flows freeze, so it is built once (`load` marks the
    // points already listed) and stale entries just carry zero load.
    load.clear();
    load.resize(capacities.len(), 0.0);
    touched.clear();
    touched.reserve(capacities.len());
    for &i in active.iter() {
        for &p in footprint(i) {
            let r = p.slot();
            if load[r] == 0.0 {
                load[r] = 1.0;
                touched.push(r);
            }
        }
    }

    // Each round freezes at least one flow, so n rounds always suffice.
    for _round in 0..=n {
        if active.is_empty() {
            break;
        }
        // Active weighted load per point (weight × traffic fraction).
        for &r in touched.iter() {
            load[r] = 0.0;
        }
        for &i in active.iter() {
            let w = weight(i);
            for &p in footprint(i) {
                load[p.slot()] += w * p.fraction();
            }
        }

        // The water level can rise until the first of:
        //   (a) some active flow reaches its demand,
        //   (b) some point exhausts its remaining capacity.
        let mut delta = f64::INFINITY;
        for &i in active.iter() {
            if demands[i].is_finite() {
                delta = delta.min((demands[i] - rate[i]) / weight(i));
            }
        }
        for &r in touched.iter() {
            let w = load[r];
            if w > 0.0 {
                delta = delta.min(remaining[r] / w);
            }
        }
        if !delta.is_finite() {
            // Every active flow is unthrottled and crosses only uncapped
            // points: nothing bounds it.
            for &i in active.iter() {
                rate[i] = demands[i].min(f64::MAX / 4.0);
            }
            break;
        }
        let delta = delta.max(0.0);

        // Raise and debit.
        for &i in active.iter() {
            let w = weight(i);
            rate[i] += delta * w;
            for &p in footprint(i) {
                remaining[p.slot()] -= delta * w * p.fraction();
            }
        }

        // Freeze flows that met demand or sit on an exhausted point.
        active.retain(|&i| {
            let met = demands[i].is_finite() && rate[i] >= demands[i] - 1e-9;
            let stuck = footprint(i).iter().any(|p| remaining[p.slot()] <= 1e-9);
            !(met || stuck)
        });
    }
}

/// An incremental equilibrium solver: [`proportional_allocate`] behind a
/// demand memo.
///
/// The fluid engine re-solves the equilibrium every integration epoch, yet
/// between demand-schedule breakpoints the demand vector — and therefore
/// the equilibrium, a pure function of `(demands, topology)` — cannot
/// change. This wrapper re-solves only when a demand differs **bitwise**
/// from the previous epoch's, returning the cached rates otherwise. The
/// memo keys on demands alone, so one allocator serves one fixed set of
/// `flow_links` and `capacities`. Rates are bit-identical to calling the
/// from-scratch solver every epoch; the steady state performs one `f64`
/// comparison per flow and zero allocations.
#[derive(Debug, Default, Clone)]
pub struct IncrementalAllocator {
    last_demands: Vec<f64>,
    rates: Vec<f64>,
    valid: bool,
    scratch: AllocScratch,
    memo_hits: u64,
    memo_misses: u64,
}

impl IncrementalAllocator {
    /// An empty allocator; the first [`IncrementalAllocator::allocate`]
    /// call always solves.
    pub fn new() -> Self {
        Self::default()
    }

    /// The equilibrium rates for `demands`, re-solving only when a demand
    /// changed bitwise since the previous call.
    pub fn allocate(
        &mut self,
        demands: &[f64],
        flow_links: &[Vec<usize>],
        capacities: &[f64],
    ) -> &[f64] {
        let unchanged = self.valid
            && self.last_demands.len() == demands.len()
            && self
                .last_demands
                .iter()
                .zip(demands)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !unchanged {
            self.memo_misses += 1;
            proportional_allocate_into(
                demands,
                flow_links,
                capacities,
                &mut self.scratch,
                &mut self.rates,
            );
            self.last_demands.clear();
            self.last_demands.extend_from_slice(demands);
            self.valid = true;
        } else {
            self.memo_hits += 1;
        }
        &self.rates
    }

    /// Calls served from the memo without re-solving.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Calls that ran the full solver (first call or demand change).
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_subscribed_flows_get_demands() {
        let rates = proportional_allocate(&[5.0, 8.0], &[vec![0], vec![0]], &[30.0]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn over_subscribed_split_is_proportional() {
        // Demands 30 and 20 over capacity 33, both above the 16.5 fair
        // share → 19.8 and 13.2 (3:2 kept) — Figure 4 case 4.
        let rates = proportional_allocate(&[30.0, 20.0], &[vec![0], vec![0]], &[33.0]);
        assert!((rates[0] + rates[1] - 33.0).abs() < 1e-6);
        assert!((rates[0] / rates[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn equal_demands_split_equally() {
        let rates = proportional_allocate(&[25.0, 25.0], &[vec![0], vec![0]], &[33.0]);
        assert!((rates[0] - rates[1]).abs() < 1e-9);
        assert!((rates[0] - 16.5).abs() < 1e-6);
    }

    #[test]
    fn unthrottled_pair_splits_capacity() {
        let inf = f64::INFINITY;
        let rates = proportional_allocate(&[inf, inf], &[vec![0], vec![0]], &[40.0]);
        assert!((rates[0] - 20.0).abs() < 1e-6);
        assert!((rates[1] - 20.0).abs() < 1e-6);
    }

    #[test]
    fn below_fair_share_flow_is_protected() {
        // Figure 5's premise: a flow throttled below its fair share keeps
        // its demand; the aggressive one takes exactly the rest.
        let rates = proportional_allocate(&[10.0, 40.0], &[vec![0], vec![0]], &[25.0]);
        assert!((rates[0] - 10.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 15.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn fig5_equilibrium_shape() {
        // Capacity 33.2; flow 0 throttled to half − 2; flow 1 unthrottled.
        let cap = 33.2;
        let d0 = cap / 2.0 - 2.0;
        let rates = proportional_allocate(&[d0, f64::INFINITY], &[vec![0], vec![0]], &[cap]);
        assert!((rates[0] - d0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - (cap / 2.0 + 2.0)).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn multi_link_takes_tightest_bottleneck() {
        let rates = proportional_allocate(
            &[f64::INFINITY, 50.0],
            &[vec![0, 1], vec![1]],
            &[10.0, 100.0],
        );
        assert!((rates[0] - 10.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn feasibility_on_shared_chain() {
        let demands = [f64::INFINITY, f64::INFINITY, 7.0];
        let links = [vec![0, 1], vec![1, 2], vec![2]];
        let caps = [20.0, 18.0, 16.0];
        let rates = proportional_allocate(&demands, &links, &caps);
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = links
                .iter()
                .zip(&rates)
                .filter(|(ls, _)| ls.contains(&l))
                .map(|(_, r)| r)
                .sum();
            assert!(used <= cap + 1e-6, "link {l}: {used} > {cap}");
        }
        assert!(rates[2] <= 7.0 + 1e-9);
    }

    /// One cold solve of [`weighted_allocate_dense`].
    fn solve<P: FootprintPoint, F: AsRef<[P]>>(
        demands: &[f64],
        weight: impl Fn(usize) -> f64,
        footprints: &[F],
        capacities: &[f64],
    ) -> Vec<f64> {
        let mut out = Vec::new();
        let mut scratch = DenseAllocScratch::default();
        weighted_allocate_dense(
            demands,
            weight,
            |i| footprints[i].as_ref(),
            capacities,
            &mut scratch,
            &mut out,
        );
        out
    }

    #[test]
    fn fabric_less_flow_does_not_inherit_the_water_level() {
        // An unthrottled flow that crosses no point gets 0, not the level
        // the bounded flow reaches (10); a finite one keeps its demand
        // even after every bounded flow has frozen.
        let footprints: [&[(u32, f64)]; 2] = [&[], &[(0, 1.0)]];
        let inf = f64::INFINITY;
        assert_eq!(
            solve(&[inf, 10.0], |_| 1.0, &footprints, &[30.0]),
            [0.0, 10.0]
        );
        assert_eq!(
            solve(&[99.0, 10.0], |_| 1.0, &footprints, &[30.0]),
            [99.0, 10.0]
        );
    }

    #[test]
    fn weights_and_fractions_scale_the_fill() {
        // Weights 2:1 on a shared 30-unit point; the second flow also
        // loads a 4-unit point with half its rate, so it freezes at 8 (the
        // first at 16) and the first then takes the shared point's last 6.
        let footprints: [&[(u32, f64)]; 2] = [&[(0, 1.0)], &[(0, 1.0), (1, 0.5)]];
        let inf = f64::INFINITY;
        let rates = solve(&[inf, inf], |i| [2.0, 1.0][i], &footprints, &[30.0, 4.0]);
        assert!((rates[0] - 22.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 8.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn work_conservation_after_cross_link_throttle() {
        // Three flows, two links. Flow 0 wants 50 through links 0 and 1
        // but link 0 caps it at 10; flow 2 keeps its modest 5. The old
        // one-shot scaling computed flow 1's share while flow 0 still
        // claimed 50 on link 1 and never redistributed after flow 0 fell
        // to 10, stranding ~23 GB/s of link 1. §3.5: the unthrottled
        // competitor takes exactly the unused bandwidth.
        let demands = [50.0, f64::INFINITY, 5.0];
        let links = [vec![0, 1], vec![1], vec![1]];
        let caps = [10.0, 100.0];
        let rates = proportional_allocate(&demands, &links, &caps);
        assert!((rates[0] - 10.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[2] - 5.0).abs() < 1e-6, "{rates:?}");
        assert!(
            (rates[1] - 85.0).abs() < 1e-6,
            "link 1 capacity stranded: {rates:?}"
        );
        let used: f64 = rates.iter().sum();
        assert!((used - 100.0).abs() < 1e-6, "link 1 under-utilized: {used}");
    }

    #[test]
    fn memo_counts_hits_and_misses() {
        let mut alloc = IncrementalAllocator::new();
        let links = [vec![0], vec![0]];
        let caps = [30.0];
        alloc.allocate(&[5.0, 8.0], &links, &caps);
        alloc.allocate(&[5.0, 8.0], &links, &caps);
        alloc.allocate(&[5.0, 8.0], &links, &caps);
        assert_eq!((alloc.memo_misses(), alloc.memo_hits()), (1, 2));
        alloc.allocate(&[5.0, 9.0], &links, &caps);
        assert_eq!((alloc.memo_misses(), alloc.memo_hits()), (2, 2));
    }

    #[test]
    fn empty_link_list_is_demand_or_zero() {
        // A fabric-less finite flow keeps its demand; a fabric-less
        // unthrottled flow gets 0, not the f64::MAX / 4 sentinel. Flows
        // on real links are unaffected.
        let demands = [5.0, f64::INFINITY, f64::INFINITY];
        let links = [vec![], vec![], vec![0]];
        let rates = proportional_allocate(&demands, &links, &[10.0]);
        assert!((rates[0] - 5.0).abs() < 1e-9, "{rates:?}");
        assert_eq!(rates[1], 0.0, "{rates:?}");
        assert!((rates[2] - 10.0).abs() < 1e-6, "{rates:?}");

        let fair = solve(&demands, |_| 1.0, &links, &[10.0]);
        assert!((fair[0] - 5.0).abs() < 1e-9, "{fair:?}");
        assert_eq!(fair[1], 0.0, "{fair:?}");
        assert!(fair[2] <= 10.0 + 1e-9, "{fair:?}");
        assert!(
            rates.iter().chain(&fair).all(|&r| r < 1e12),
            "sentinel leaked: {rates:?} {fair:?}"
        );
    }
}
