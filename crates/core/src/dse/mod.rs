//! `chiplet-dse`: analytical fast-path design-space exploration with
//! Pareto escalation to the event engine.
//!
//! The paper's §4 hardware-abstraction story implies a design space — CCD
//! counts, NoC grid shapes, per-class link capacities, CXL attach points —
//! that full DES runs explore at 7–62 ms per design. This module searches
//! it the RapidChiplet way: a deterministic [candidate generator]
//! enumerates inline-topology [`ScenarioSpec`]s over declarative axes, an
//! [analytical estimator](estimate) scores each candidate in tens of
//! microseconds (hop-walk latency, one-shot max-min bandwidth, closed-form
//! cost), a [Pareto extraction](pareto) keeps the non-dominated designs,
//! and only that frontier escalates to full event-engine runs through the
//! content-cached parallel [`SweepRunner`].
//!
//! [`DseRunner`] never materialises the candidate list. Candidates that
//! differ only in their capacity axes ([`DseAxis::scales_capacity`]) share
//! one graph, so the runner groups the candidates it scores by their other
//! axis settings. Each worker takes a group, builds its
//! [`DesignShape`](estimate::DesignShape) once from the first member's
//! platform, and scores every member on that member's own platform, keeping
//! only the scores. The frontier set does not depend on its tie-break key,
//! so it is extracted with candidate indices as keys; only its members are
//! then built into sealed specs, labelled, and ordered by content hash, and
//! the escalated head reuses those specs.
//!
//! Determinism end to end: candidates carry the sweep layer's
//! content-hash-derived seeds, the estimator is pure arithmetic, frontier
//! order is a total order over (metrics, hash), and the escalation reuses
//! the byte-stable sweep machinery — so a [`DseOutcome`] is byte-identical
//! across worker counts, cache states, and repeat runs.
//!
//! [candidate generator]: DseSpec::expand

pub mod estimate;
pub mod pareto;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use chiplet_sim::Bandwidth;
use chiplet_topology::PlatformSpec;
use serde::{Deserialize, Serialize};

use crate::metrics::{MetricKind, MetricsRegistry};
use crate::scenario::{
    parallel_ordered, seal_spec, ScenarioError, ScenarioSpec, SweepOutcome, SweepPoint,
    SweepRunner, SweepStats, TopologyChoice,
};

pub use estimate::{cost_proxy, estimate_design, estimate_on, DesignEstimate, DesignShape};
pub use pareto::{pareto_frontier, ParetoPoint};

use pareto::frontier_order;

/// Default cap on the number of candidates one search may expand to;
/// override per search with [`DseSpec::max_candidates`]. Far above the
/// sweep layer's DES-sized default because candidates cost microseconds,
/// not milliseconds.
pub const MAX_CANDIDATES: usize = 100_000;

fn invalid<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Invalid(msg.into()))
}

/// One design axis of a search. The expansion takes the cartesian product
/// of all axes, first axis outermost, and applies them to the base
/// scenario's platform in axis order — so a [`DseAxis::Platform`] axis,
/// which replaces the platform wholesale, belongs first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DseAxis {
    /// Named platform presets (`epyc_7302`, `epyc_9634`) as the starting
    /// point; later axes mutate the chosen preset.
    Platform {
        /// Preset names to sweep.
        values: Vec<String>,
    },
    /// Compute chiplets per socket.
    CcdCount {
        /// CCD counts to sweep.
        values: Vec<u32>,
    },
    /// I/O-die NoC grid as (columns, rows).
    QuadrantGrid {
        /// Grid shapes to sweep.
        values: Vec<(u8, u8)>,
    },
    /// Whether the die provisions the diagonal express route.
    DiagonalExpress {
        /// Settings to sweep.
        values: Vec<bool>,
    },
    /// Scales the per-CCD GMI read+write capacities.
    GmiScale {
        /// Multipliers to sweep.
        values: Vec<f64>,
    },
    /// Scales the socket-wide NoC routing read+write capacities.
    NocScale {
        /// Multipliers to sweep.
        values: Vec<f64>,
    },
    /// Number of UMC channels (== DIMMs) per socket.
    UmcCount {
        /// Channel counts to sweep.
        values: Vec<u32>,
    },
    /// Scales the per-UMC read+write capacities.
    UmcScale {
        /// Multipliers to sweep.
        values: Vec<f64>,
    },
    /// CXL attach points: device count, 0 = no CXL. A non-zero count on a
    /// platform without a CXL calibration borrows the EPYC 9634's.
    CxlDevices {
        /// Device counts to sweep.
        values: Vec<u32>,
    },
}

impl DseAxis {
    /// Number of settings on this axis.
    pub fn len(&self) -> usize {
        match self {
            DseAxis::Platform { values } => values.len(),
            DseAxis::CcdCount { values } => values.len(),
            DseAxis::QuadrantGrid { values } => values.len(),
            DseAxis::DiagonalExpress { values } => values.len(),
            DseAxis::GmiScale { values } => values.len(),
            DseAxis::NocScale { values } => values.len(),
            DseAxis::UmcCount { values } => values.len(),
            DseAxis::UmcScale { values } => values.len(),
            DseAxis::CxlDevices { values } => values.len(),
        }
    }

    /// True when the axis has no settings (an invalid search).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for the axes that scale capacities and leave the graph alone
    /// (`GmiScale`, `NocScale`, `UmcScale`): candidates that differ only
    /// in these settings share one [`DesignShape`].
    pub fn scales_capacity(&self) -> bool {
        matches!(
            self,
            DseAxis::GmiScale { .. } | DseAxis::NocScale { .. } | DseAxis::UmcScale { .. }
        )
    }

    /// Human-readable `key=value` label of setting `idx`.
    fn label(&self, idx: usize) -> String {
        match self {
            DseAxis::Platform { values } => format!("platform={}", values[idx]),
            DseAxis::CcdCount { values } => format!("ccd={}", values[idx]),
            DseAxis::QuadrantGrid { values } => {
                format!("grid={}x{}", values[idx].0, values[idx].1)
            }
            DseAxis::DiagonalExpress { values } => format!("diag={}", values[idx]),
            DseAxis::GmiScale { values } => format!("gmi_scale={}", values[idx]),
            DseAxis::NocScale { values } => format!("noc_scale={}", values[idx]),
            DseAxis::UmcCount { values } => format!("umc={}", values[idx]),
            DseAxis::UmcScale { values } => format!("umc_scale={}", values[idx]),
            DseAxis::CxlDevices { values } => format!("cxl={}", values[idx]),
        }
    }

    /// Rejects setting `idx` when it cannot apply to any platform.
    fn check(&self, idx: usize) -> Result<(), ScenarioError> {
        let multiplier = |axis: &str, s: f64| {
            if s.is_finite() && s > 0.0 {
                Ok(())
            } else {
                invalid(format!("{axis} axis: invalid multiplier {s}"))
            }
        };
        match self {
            DseAxis::Platform { values } => TopologyChoice::Named(values[idx].clone())
                .platform()
                .map(drop),
            DseAxis::GmiScale { values } => multiplier("gmi_scale", values[idx]),
            DseAxis::NocScale { values } => multiplier("noc_scale", values[idx]),
            DseAxis::UmcScale { values } => multiplier("umc_scale", values[idx]),
            _ => Ok(()),
        }
    }

    /// Applies setting `idx`, already passed by [`DseAxis::check`], to a
    /// platform under construction.
    fn apply(&self, idx: usize, p: &mut PlatformSpec) {
        fn scale(b: &mut Bandwidth, s: f64) {
            *b = Bandwidth::from_gb_per_s(b.as_gb_per_s() * s);
        }
        match self {
            DseAxis::Platform { values } => {
                *p = TopologyChoice::Named(values[idx].clone())
                    .platform()
                    .expect("presets are checked before expansion");
            }
            DseAxis::CcdCount { values } => p.ccd_count = values[idx],
            DseAxis::QuadrantGrid { values } => p.quadrant_grid = values[idx],
            DseAxis::DiagonalExpress { values } => p.noc.diagonal_express = values[idx],
            DseAxis::GmiScale { values } => {
                scale(&mut p.caps.gmi_read, values[idx]);
                scale(&mut p.caps.gmi_write, values[idx]);
            }
            DseAxis::NocScale { values } => {
                scale(&mut p.caps.noc_read, values[idx]);
                scale(&mut p.caps.noc_write, values[idx]);
            }
            DseAxis::UmcCount { values } => p.mem.umc_count = values[idx],
            DseAxis::UmcScale { values } => {
                scale(&mut p.mem.umc_read_bw, values[idx]);
                scale(&mut p.mem.umc_write_bw, values[idx]);
            }
            DseAxis::CxlDevices { values } => {
                let n = values[idx];
                if n == 0 {
                    p.cxl = None;
                } else {
                    let mut cxl = match p.cxl.take() {
                        Some(cxl) => cxl,
                        // Borrow the 9634's CXL calibration for platforms
                        // without one; per-device capacities stay as-is,
                        // only the attach count varies.
                        None => PlatformSpec::epyc_9634()
                            .cxl
                            .expect("epyc_9634 carries a CXL calibration"),
                    };
                    cxl.device_count = n;
                    p.cxl = Some(cxl);
                }
            }
        }
    }
}

/// A declarative design-space search: a base workload scenario plus design
/// axes over its platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseSpec {
    /// Search name (appears in the report).
    pub name: String,
    /// One-line description.
    #[serde(default)]
    pub description: String,
    /// The workload every candidate is scored under; its topology is the
    /// starting platform the axes mutate.
    pub base: ScenarioSpec,
    /// The design axes (cartesian product, first axis outermost).
    pub axes: Vec<DseAxis>,
    /// Expansion cap; `None` means [`MAX_CANDIDATES`]. `None` serializes
    /// as `null`, like every absent field.
    #[serde(default)]
    pub max_candidates: Option<usize>,
    /// How many frontier designs escalate to full event-engine runs;
    /// `None` escalates the whole frontier. `None` serializes as `null`.
    #[serde(default)]
    pub escalate: Option<usize>,
}

impl DseSpec {
    /// Serializes to pretty JSON (deterministic bytes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("dse specs always serialize")
    }

    /// Parses a search back from [`DseSpec::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(s).map_err(|e| ScenarioError::Invalid(format!("JSON error: {e}")))
    }

    /// Expands the cartesian product of all axes into concrete candidates,
    /// in a stable order (first axis outermost, last fastest). Candidates
    /// are [`SweepPoint`]s — same content-hash and derived-seed scheme as
    /// sweep expansion — so the escalation path shares the sweep cache
    /// namespace and results never depend on execution order.
    /// [`DseRunner::run`] builds the same candidates one index at a time,
    /// sealing only its frontier members.
    pub fn expand(&self) -> Result<Vec<SweepPoint>, ScenarioError> {
        let space = self.candidates()?;
        Ok((0..space.len).map(|i| space.point(i)).collect())
    }

    /// Validates the search and returns its per-index candidate builder.
    /// An invalid axis setting fails the whole search, whatever budget a
    /// run sets, with the error the expansion order meets first.
    pub fn candidates(&self) -> Result<Candidates<'_>, ScenarioError> {
        Candidates::new(self)
    }
}

/// A validated search that builds any candidate from its flat index in the
/// expansion order, so no caller has to hold every candidate at once.
#[derive(Debug)]
pub struct Candidates<'a> {
    search: &'a DseSpec,
    base_platform: PlatformSpec,
    base_seed: u64,
    /// Number of candidates: the product of the axis lengths.
    len: usize,
}

impl<'a> Candidates<'a> {
    /// Checks the search shape, its size limit, the base platform, and
    /// every axis setting once.
    fn new(search: &'a DseSpec) -> Result<Self, ScenarioError> {
        if search.axes.is_empty() {
            return invalid(format!("search '{}' has no axes", search.name));
        }
        let mut len = 1usize;
        for (a, axis) in search.axes.iter().enumerate() {
            if axis.is_empty() {
                return invalid(format!("search '{}': axis {a} has no values", search.name));
            }
            len = len.saturating_mul(axis.len());
        }
        let max_candidates = search.max_candidates.unwrap_or(MAX_CANDIDATES);
        if len > max_candidates {
            return invalid(format!(
                "search '{}' expands to {len} candidates (max_candidates limit \
                 {max_candidates}); raise `max_candidates` on the search to allow more",
                search.name
            ));
        }
        let base_platform = search.base.topology.platform()?;
        // The first failing candidate is candidate 0 when some axis fails
        // at its first setting (the first such axis reports); otherwise it
        // varies only the innermost axis with a failing setting.
        let first_bad: Vec<(usize, ScenarioError)> = search
            .axes
            .iter()
            .filter_map(|axis| (0..axis.len()).find_map(|i| Some((i, axis.check(i).err()?))))
            .collect();
        if let Some((_, e)) = first_bad.iter().find(|(i, _)| *i == 0).or(first_bad.last()) {
            return Err(e.clone());
        }
        Ok(Candidates {
            search,
            base_platform,
            base_seed: search.base.seed_or_default(),
            len,
        })
    }

    /// Axis setting indices of candidate `i`: mixed radix, last axis fastest.
    fn settings(&self, mut i: usize) -> Vec<usize> {
        assert!(i < self.len, "candidate {i} of {}", self.len);
        let mut idx = vec![0; self.search.axes.len()];
        for (slot, axis) in idx.iter_mut().zip(&self.search.axes).rev() {
            *slot = i % axis.len();
            i /= axis.len();
        }
        idx
    }

    /// The `key=value` label of candidate `i`.
    fn label(&self, i: usize) -> String {
        let axes = self.search.axes.iter().zip(self.settings(i));
        axes.map(|(axis, k)| axis.label(k))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The platform of candidate `i`: the base platform with each of its
    /// axis settings applied in axis order.
    pub fn platform(&self, i: usize) -> PlatformSpec {
        let mut platform = self.base_platform.clone();
        for (axis, k) in self.search.axes.iter().zip(self.settings(i)) {
            axis.apply(k, &mut platform);
        }
        platform
    }

    /// The first `n` candidates grouped by their settings on every axis
    /// that does not [scale capacity](DseAxis::scales_capacity): each group
    /// shares one graph. Groups are in order of their first member, and
    /// members in candidate order.
    fn shape_groups(&self, n: usize) -> Vec<Vec<usize>> {
        let shape_key = |mut i: usize| {
            let (mut key, mut radix) = (0, 1);
            for axis in self.search.axes.iter().rev() {
                if !axis.scales_capacity() {
                    key += i % axis.len() * radix;
                    radix *= axis.len();
                }
                i /= axis.len();
            }
            key
        };
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let slot = *slot_of.entry(shape_key(i)).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[slot].push(i);
        }
        groups
    }

    /// Candidate `i` as a sweep point (its spec sealed with the derived
    /// seed), and its content hash.
    fn seal(&self, i: usize) -> (u64, SweepPoint) {
        let label = self.label(i);
        let mut spec = self.search.base.clone();
        spec.topology = TopologyChoice::Inline(self.platform(i));
        spec.name = format!("{} [{label}]", self.search.name);
        let hash = seal_spec(&mut spec, self.base_seed);
        let point = SweepPoint {
            label,
            spec,
            hash: format!("{hash:016x}"),
        };
        (hash, point)
    }

    /// Candidate `i` as a sweep point: `expand()[i]`.
    pub fn point(&self, i: usize) -> SweepPoint {
        self.seal(i).1
    }
}

/// One frontier design in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierEntry {
    /// The candidate's axis label.
    pub label: String,
    /// Content hash of the candidate spec (the escalation cache key).
    pub hash: String,
    /// Latency proxy, ns.
    pub latency_ns: f64,
    /// Bandwidth proxy, GB/s.
    pub bandwidth_gb_s: f64,
    /// Cost proxy, unitless.
    pub cost: f64,
}

/// The deterministic report of one search: byte-identical across worker
/// counts, cache states, and repeat runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseOutcome {
    /// Search name.
    pub dse: String,
    /// Candidates enumerated (after any budget truncation).
    pub candidates: usize,
    /// Candidates the estimator scored.
    pub scored: usize,
    /// Candidates rejected as infeasible (workload does not map onto the
    /// design).
    pub infeasible: usize,
    /// The Pareto frontier, in deterministic frontier order.
    pub frontier: Vec<FrontierEntry>,
    /// Full event-engine reports of the escalated frontier designs.
    pub escalation: SweepOutcome,
}

impl DseOutcome {
    /// Serializes to pretty JSON, deterministically.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("dse outcomes always serialize")
    }
}

/// Execution metadata of one search run (not part of the report bytes).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DseStats {
    /// Candidates enumerated.
    pub candidates: usize,
    /// Candidates scored by the estimator.
    pub scored: usize,
    /// Infeasible candidates.
    pub infeasible: usize,
    /// Frontier size.
    pub frontier: usize,
    /// Designs escalated to the event engine.
    pub escalated: usize,
    /// Escalation sweep execution stats (cache hits show up here).
    pub sweep: SweepStats,
}

/// Runs design-space searches: parallel scoring, frontier extraction, and
/// frontier escalation through the sweep runner.
#[derive(Debug, Clone, Default)]
pub struct DseRunner {
    /// Worker threads; 0 = one per available core.
    pub jobs: usize,
    /// Escalation result cache directory (shared with the sweep runner's
    /// namespace); `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Deterministic-prefix truncation of the candidate list; `None` runs
    /// the full expansion. The CLI's `--budget N`.
    pub budget: Option<usize>,
}

impl DseRunner {
    /// A runner with `jobs` workers and no cache.
    pub fn with_jobs(jobs: usize) -> Self {
        DseRunner {
            jobs,
            ..Default::default()
        }
    }

    /// Scores every candidate on its own platform, one shared shape per
    /// group of capacity siblings, extracts the frontier, seals only its
    /// members, and escalates the head. The outcome is byte-identical for
    /// any worker count.
    pub fn run(&self, spec: &DseSpec) -> Result<(DseOutcome, DseStats), ScenarioError> {
        let space = spec.candidates()?;
        let candidates = self.budget.map_or(space.len, |b| b.min(space.len));
        let scores = self.score(spec, &space, candidates);
        let scored_points: Vec<ParetoPoint> = scores.into_iter().flatten().collect();
        let scored = scored_points.len();
        let infeasible = candidates - scored;

        // The frontier set does not depend on the tie-break key, so only its
        // members are sealed; their content hashes then order exact ties.
        // The sort is stable, so equal hashes keep candidate order.
        let mut members: Vec<(ParetoPoint, SweepPoint)> = pareto_frontier(&scored_points)
            .into_iter()
            .map(|k| {
                let p = scored_points[k];
                let (hash, point) = space.seal(p.hash as usize);
                (ParetoPoint { hash, ..p }, point)
            })
            .collect();
        members.sort_by(|(a, _), (b, _)| frontier_order(a, b));
        let frontier: Vec<FrontierEntry> = members
            .iter()
            .map(|(p, point)| FrontierEntry {
                label: point.label.clone(),
                hash: point.hash.clone(),
                latency_ns: p.latency_ns,
                bandwidth_gb_s: p.bandwidth_gb_s,
                cost: p.cost,
            })
            .collect();

        // Escalate the frontier head to full event-engine runs.
        let escalate = spec.escalate.unwrap_or(members.len());
        let escalated: Vec<SweepPoint> = members
            .into_iter()
            .take(escalate)
            .map(|(_, point)| point)
            .collect();
        let sweep_runner = SweepRunner {
            jobs: self.jobs,
            cache_dir: self.cache_dir.clone(),
        };
        let (escalation, sweep_stats) =
            sweep_runner.run_points(&format!("{}/frontier", spec.name), escalated)?;

        let stats = DseStats {
            candidates,
            scored,
            infeasible,
            frontier: frontier.len(),
            escalated: escalation.points.len(),
            sweep: sweep_stats,
        };
        Ok((
            DseOutcome {
                dse: spec.name.clone(),
                candidates,
                scored,
                infeasible,
                frontier,
                escalation,
            },
            stats,
        ))
    }

    /// Scores the first `n` candidates of `space`, one shape group per
    /// parallel task, and returns each candidate's score by index (`None`
    /// when infeasible). A structural error means the workload does not
    /// map onto that graph (e.g. a flow pinned to CCD 7 on a 4-CCD
    /// candidate), which makes every member of the group infeasible; it
    /// does not fail the search.
    fn score(&self, spec: &DseSpec, space: &Candidates<'_>, n: usize) -> Vec<Option<ParetoPoint>> {
        // Workers write each member's score into its candidate's slot, so
        // scores land in candidate order and no per-group result outlives
        // its task (those would pin memory in the workers' allocator
        // arenas across runs).
        let slots: Vec<OnceLock<ParetoPoint>> = (0..n).map(|_| OnceLock::new()).collect();
        parallel_ordered(&space.shape_groups(n), self.jobs, |_, members| {
            let platforms: Vec<PlatformSpec> = members.iter().map(|&i| space.platform(i)).collect();
            if let Ok(shape) = DesignShape::of_platform(&spec.base, &platforms[0]) {
                for (&i, platform) in members.iter().zip(&platforms) {
                    let est = shape.score(platform);
                    let point = ParetoPoint {
                        latency_ns: est.latency_ns,
                        bandwidth_gb_s: est.bandwidth_gb_s,
                        cost: est.cost,
                        hash: i as u64,
                    };
                    slots[i].set(point).expect("each candidate is in one group");
                }
            }
        });
        slots.into_iter().map(OnceLock::into_inner).collect()
    }

    /// Like [`DseRunner::run`], but instruments the search into `metrics`
    /// with **volatile** families (excluded from the default OpenMetrics
    /// dump, like all execution telemetry): `dse_candidates_scored_total`,
    /// `dse_infeasible_total`, `dse_frontier_size` and
    /// `dse_escalated_total`, labelled `{dse}`.
    pub fn run_with_metrics(
        &self,
        spec: &DseSpec,
        metrics: &mut MetricsRegistry,
    ) -> Result<(DseOutcome, DseStats), ScenarioError> {
        let (outcome, stats) = self.run(spec)?;
        metrics.describe_volatile(
            "dse_candidates_scored_total",
            MetricKind::Counter,
            "Design candidates scored by the analytical estimator.",
        );
        metrics.describe_volatile(
            "dse_infeasible_total",
            MetricKind::Counter,
            "Design candidates the workload does not map onto.",
        );
        metrics.describe_volatile(
            "dse_frontier_size",
            MetricKind::Gauge,
            "Designs on the Pareto frontier.",
        );
        metrics.describe_volatile(
            "dse_escalated_total",
            MetricKind::Counter,
            "Frontier designs escalated to full event-engine runs.",
        );
        let labels = [("dse", outcome.dse.as_str())];
        metrics.counter_add("dse_candidates_scored_total", &labels, stats.scored as f64);
        metrics.counter_add("dse_infeasible_total", &labels, stats.infeasible as f64);
        metrics.gauge_set("dse_frontier_size", &labels, stats.frontier as f64);
        metrics.counter_add("dse_escalated_total", &labels, stats.escalated as f64);
        Ok((outcome, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        BackendKind, CoreSelect, EngineFlow, EngineOptions, ScenarioFlow, TargetSpec,
    };
    use chiplet_sim::{ByteSize, SimTime};

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit_dse".into(),
            description: String::new(),
            topology: TopologyChoice::Named("epyc_9634".into()),
            backend: BackendKind::Event,
            seed: Some(42),
            horizon: SimTime::from_micros(10),
            policy: Default::default(),
            engine: Some(EngineOptions {
                deterministic_memory: true,
                ..Default::default()
            }),
            fluid: None,
            flows: vec![ScenarioFlow {
                name: "probe".into(),
                demand: None,
                engine: Some(EngineFlow {
                    cores: CoreSelect::Ccd(0),
                    nic: None,
                    target: TargetSpec::AllDimms,
                    op: None,
                    pattern: None,
                    working_set: Some(ByteSize::from_mib(64)),
                    start: None,
                    stop: None,
                }),
                links: Vec::new(),
            }],
        }
    }

    fn small_search() -> DseSpec {
        DseSpec {
            name: "unit_search".into(),
            description: String::new(),
            base: base_spec(),
            axes: vec![
                DseAxis::CcdCount {
                    values: vec![2, 4, 12],
                },
                DseAxis::GmiScale {
                    values: vec![0.5, 1.0],
                },
            ],
            max_candidates: None,
            escalate: Some(2),
        }
    }

    #[test]
    fn expansion_is_stable_and_content_hashed() {
        let search = small_search();
        let a = search.expand().unwrap();
        let b = search.expand().unwrap();
        assert_eq!(a, b);
        // First axis outermost, last fastest.
        let labels: Vec<&str> = a.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "ccd=2 gmi_scale=0.5",
                "ccd=2 gmi_scale=1",
                "ccd=4 gmi_scale=0.5",
                "ccd=4 gmi_scale=1",
                "ccd=12 gmi_scale=0.5",
                "ccd=12 gmi_scale=1",
            ]
        );
        assert_eq!(a[5].spec.name, "unit_search [ccd=12 gmi_scale=1]");
        // Distinct designs hash (and therefore seed) differently.
        let hashes: std::collections::BTreeSet<_> = a.iter().map(|p| p.hash.clone()).collect();
        assert_eq!(hashes.len(), 6);
        assert_ne!(a[0].spec.seed, a[1].spec.seed);
    }

    #[test]
    fn candidate_hash_matches_sweep_spec_hash() {
        let points = small_search().expand().unwrap();
        for p in &points {
            assert_eq!(crate::scenario::spec_hash(&p.spec), p.hash);
        }
    }

    #[test]
    fn axes_mutate_the_inline_platform() {
        let points = small_search().expand().unwrap();
        let TopologyChoice::Inline(p0) = &points[0].spec.topology else {
            panic!("candidates carry inline platforms");
        };
        assert_eq!(p0.ccd_count, 2);
        assert!((p0.caps.gmi_read.as_gb_per_s() - 16.6).abs() < 0.01);
        let TopologyChoice::Inline(p5) = &points[5].spec.topology else {
            panic!();
        };
        assert_eq!(p5.ccd_count, 12);
        assert!((p5.caps.gmi_read.as_gb_per_s() - 33.2).abs() < 0.01);
    }

    #[test]
    fn infeasible_candidates_are_counted_not_fatal() {
        let mut search = small_search();
        // Pin the workload to CCD 5: the 2- and 4-CCD candidates can't host
        // it (2 settings × gmi axis = 4 infeasible candidates).
        for flow in &mut search.base.flows {
            if let Some(engine) = &mut flow.engine {
                engine.cores = CoreSelect::Ccd(5);
            }
        }
        let (outcome, stats) = DseRunner::with_jobs(1).run(&search).unwrap();
        assert_eq!(outcome.candidates, 6);
        assert_eq!(outcome.infeasible, 4);
        assert_eq!(outcome.scored, 2);
        assert_eq!(stats.infeasible, 4);
    }

    #[test]
    fn outcome_bytes_are_jobs_invariant() {
        let search = small_search();
        let (a, _) = DseRunner::with_jobs(1).run(&search).unwrap();
        let (b, _) = DseRunner::with_jobs(4).run(&search).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.escalation.points.len(), 2);
    }

    #[test]
    fn budget_truncates_the_deterministic_prefix() {
        let search = small_search();
        let full = search.expand().unwrap();
        let runner = DseRunner {
            jobs: 1,
            cache_dir: None,
            budget: Some(3),
        };
        let (outcome, _) = runner.run(&search).unwrap();
        assert_eq!(outcome.candidates, 3);
        let budget_hashes: Vec<_> = outcome.frontier.iter().map(|f| f.hash.clone()).collect();
        for h in &budget_hashes {
            assert!(full[..3].iter().any(|p| &p.hash == h));
        }
    }

    #[test]
    fn frontier_and_escalation_rebuild_expand_points_by_index() {
        // Each frontier entry names `expand()`'s candidate with the same
        // hash and label, and rerunning those candidates reproduces the
        // escalation, so the rebuilt specs match too.
        let search = small_search();
        let points = search.expand().unwrap();
        for jobs in [1, 4] {
            let (outcome, _) = DseRunner::with_jobs(jobs).run(&search).unwrap();
            let frontier: Vec<SweepPoint> = outcome
                .frontier
                .iter()
                .map(|f| {
                    let p = points.iter().find(|p| p.hash == f.hash).unwrap();
                    assert_eq!(p.label, f.label);
                    p.clone()
                })
                .collect();
            let escalated = frontier.into_iter().take(2).collect();
            let (rerun, _) = SweepRunner::default()
                .run_points(&outcome.escalation.sweep, escalated)
                .unwrap();
            assert_eq!(outcome.escalation.points.len(), 2);
            assert_eq!(rerun, outcome.escalation);
        }
    }

    /// The `dse_smoke` workload: a CCD 0 probe and a CCD 1 stream, both
    /// unthrottled, reading every DIMM of a named EPYC 9634.
    fn smoke_search(axes: Vec<DseAxis>, escalate: Option<usize>) -> DseSpec {
        let mut base = base_spec();
        base.name = "dse_smoke".into();
        base.description = "latency probe vs socket-wide stream, both unthrottled".into();
        let mut stream = base.flows[0].clone();
        stream.name = "stream".into();
        if let Some(engine) = &mut stream.engine {
            engine.cores = CoreSelect::Ccd(1);
        }
        base.flows.push(stream);
        DseSpec {
            name: "dse_smoke".into(),
            description: String::new(),
            base,
            axes,
            max_candidates: None,
            escalate,
        }
    }

    fn platforms(names: &[&str]) -> DseAxis {
        DseAxis::Platform {
            values: names.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn exact_ties_order_by_content_hash_not_candidate_index() {
        // The NIC adds nothing this workload crosses, so both candidates
        // score exactly alike; the hash puts candidate 1 first.
        let search = smoke_search(vec![platforms(&["epyc_9634_nic", "epyc_9634"])], Some(1));
        let (outcome, _) = DseRunner::with_jobs(1).run(&search).unwrap();
        let [first, second] = &outcome.frontier[..] else {
            panic!("both tied candidates stay on the frontier: {outcome:?}");
        };
        assert_eq!(first.label, "platform=epyc_9634");
        assert_eq!(second.label, "platform=epyc_9634_nic");
        assert!(first.hash.starts_with("84e8e595"), "{}", first.hash);
        assert!(second.hash.starts_with("a2c348a8"), "{}", second.hash);
        for f in [first, second] {
            assert!((f.latency_ns - 458.795).abs() < 1e-3, "{f:?}");
            assert!((f.bandwidth_gb_s - 66.4).abs() < 1e-9, "{f:?}");
            assert!((f.cost - 267.432).abs() < 1e-9, "{f:?}");
        }
        assert_eq!(
            (first.latency_ns, first.bandwidth_gb_s, first.cost),
            (second.latency_ns, second.bandwidth_gb_s, second.cost)
        );
        assert_eq!(outcome.escalation.points[0].label, first.label);
    }

    /// The reference search: every candidate expanded and sealed, scored
    /// by `estimate_design`, the frontier taken with content hashes, and
    /// its head run through the sweep runner.
    fn reference_run(
        search: &DseSpec,
        budget: Option<usize>,
    ) -> (Vec<FrontierEntry>, SweepOutcome) {
        let mut points = search.expand().unwrap();
        points.truncate(budget.unwrap_or(points.len()));
        let scored: Vec<(&SweepPoint, ParetoPoint)> = points
            .iter()
            .filter_map(|p| {
                let est = estimate_design(&p.spec).ok()?;
                let pareto = ParetoPoint {
                    latency_ns: est.latency_ns,
                    bandwidth_gb_s: est.bandwidth_gb_s,
                    cost: est.cost,
                    hash: u64::from_str_radix(&p.hash, 16).unwrap(),
                };
                Some((p, pareto))
            })
            .collect();
        let pareto: Vec<ParetoPoint> = scored.iter().map(|(_, p)| *p).collect();
        let frontier: Vec<&(&SweepPoint, ParetoPoint)> = pareto_frontier(&pareto)
            .iter()
            .map(|&k| &scored[k])
            .collect();
        let entries = frontier
            .iter()
            .map(|(point, p)| FrontierEntry {
                label: point.label.clone(),
                hash: point.hash.clone(),
                latency_ns: p.latency_ns,
                bandwidth_gb_s: p.bandwidth_gb_s,
                cost: p.cost,
            })
            .collect();
        let head = frontier
            .iter()
            .take(search.escalate.unwrap_or(frontier.len()))
            .map(|(point, _)| (*point).clone())
            .collect();
        let name = format!("{}/frontier", search.name);
        let (escalation, _) = SweepRunner::default().run_points(&name, head).unwrap();
        (entries, escalation)
    }

    /// Checks a search against the per-candidate reference at `--jobs 1`
    /// and 4: every score the shape-grouped pass computes equals
    /// `estimate_platform` on that candidate's platform bit for bit (and
    /// infeasible exactly where it fails), and the frontier and escalation
    /// bytes equal [`reference_run`]'s. Returns the infeasible count.
    fn assert_grouped_matches_reference(search: &DseSpec, budget: Option<usize>) -> usize {
        let bits = |p: &ParetoPoint| {
            (
                p.latency_ns.to_bits(),
                p.bandwidth_gb_s.to_bits(),
                p.cost.to_bits(),
                p.hash,
            )
        };
        let space = search.candidates().unwrap();
        let n = budget.map_or(space.len, |b| b.min(space.len));
        let want: Vec<_> = (0..n)
            .map(|i| {
                let est = estimate::estimate_platform(&search.base, &space.platform(i)).ok()?;
                Some(bits(&ParetoPoint {
                    latency_ns: est.latency_ns,
                    bandwidth_gb_s: est.bandwidth_gb_s,
                    cost: est.cost,
                    hash: i as u64,
                }))
            })
            .collect();
        let (frontier, escalation) = reference_run(search, budget);
        let json = |f: &[FrontierEntry]| serde_json::to_string(f).unwrap();
        for jobs in [1, 4] {
            let runner = DseRunner {
                jobs,
                cache_dir: None,
                budget,
            };
            let scores = runner.score(search, &space, n);
            let got: Vec<_> = scores.iter().map(|s| s.as_ref().map(bits)).collect();
            assert_eq!(got, want, "jobs {jobs}, budget {budget:?}");
            let (outcome, stats) = runner.run(search).unwrap();
            assert_eq!(json(&outcome.frontier), json(&frontier), "jobs {jobs}");
            assert_eq!(
                outcome.escalation.to_json(),
                escalation.to_json(),
                "jobs {jobs}, budget {budget:?}"
            );
            assert_eq!(
                stats.infeasible,
                want.iter().filter(|w| w.is_none()).count()
            );
        }
        want.iter().filter(|w| w.is_none()).count()
    }

    #[test]
    fn search_matches_the_expand_and_estimate_design_reference() {
        // Ties (the NIC adds nothing this workload crosses) and infeasible
        // candidates (a 1-CCD design has no CCD 1 for the stream).
        let search = smoke_search(
            vec![
                platforms(&["epyc_9634_nic", "epyc_9634"]),
                DseAxis::CcdCount {
                    values: vec![1, 4, 8],
                },
                DseAxis::GmiScale {
                    values: vec![0.5, 1.0],
                },
            ],
            Some(3),
        );
        assert_eq!(assert_grouped_matches_reference(&search, None), 4);
        assert_eq!(assert_grouped_matches_reference(&search, Some(7)), 3);
    }

    #[test]
    fn grouped_scores_equal_per_candidate_estimates() {
        let gmi = || DseAxis::GmiScale {
            values: vec![0.5, 1.0],
        };
        let noc = || DseAxis::NocScale {
            values: vec![0.75, 1.5],
        };
        let umc = || DseAxis::UmcScale {
            values: vec![1.0, 1.25],
        };
        // CCD count 0 fails the platform check and 1 cannot host the
        // stream on CCD 1: both make whole shape groups infeasible.
        let ccds = || DseAxis::CcdCount {
            values: vec![0, 1, 4],
        };
        let grid = || DseAxis::QuadrantGrid {
            values: vec![(2, 2), (3, 2)],
        };
        let cases: [(Vec<DseAxis>, Option<usize>, usize); 7] = [
            // Capacity axes outermost: every group spans the whole search.
            (vec![gmi(), noc(), ccds(), grid()], None, 16),
            // Capacity axes innermost: groups are contiguous runs of 8.
            (vec![ccds(), grid(), gmi(), noc(), umc()], None, 32),
            // A budget that stops mid-group (the third group keeps 3 of 8).
            (vec![ccds(), grid(), gmi(), noc(), umc()], Some(19), 19),
            // A budget that cuts every group when capacity axes lead.
            (vec![gmi(), noc(), ccds(), grid()], Some(9), 7),
            // A platform axis after a scale axis resets the scaled caps, so
            // the GMI siblings tie exactly.
            (
                vec![gmi(), platforms(&["epyc_7302", "epyc_9634"]), noc()],
                None,
                0,
            ),
            // Interleaved, like `dse_epyc`.
            (vec![ccds(), gmi(), grid(), umc()], None, 16),
            // No capacity axis: every candidate is its own group.
            (
                vec![platforms(&["epyc_9634_nic", "epyc_9634"]), ccds()],
                None,
                4,
            ),
        ];
        for (axes, budget, infeasible) in cases {
            let labels: Vec<String> = axes.iter().map(|a| a.label(0)).collect();
            let search = smoke_search(axes, Some(2));
            assert_eq!(
                assert_grouped_matches_reference(&search, budget),
                infeasible,
                "{labels:?}, budget {budget:?}"
            );
        }
    }

    #[test]
    fn shape_groups_collect_capacity_siblings() {
        let search = smoke_search(
            vec![
                DseAxis::CcdCount { values: vec![2, 4] },
                DseAxis::GmiScale {
                    values: vec![0.5, 1.0, 1.5],
                },
                DseAxis::DiagonalExpress {
                    values: vec![false, true],
                },
            ],
            None,
        );
        let space = search.candidates().unwrap();
        assert_eq!(
            space.shape_groups(space.len),
            [vec![0, 2, 4], vec![1, 3, 5], vec![6, 8, 10], vec![7, 9, 11]]
        );
        assert_eq!(space.shape_groups(4), [vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn invalid_axis_settings_fail_the_search_whatever_the_budget() {
        let unknown = "unknown platform 'epyc_9999' (expected epyc_7302, epyc_9634, \
                       dual_epyc_7302, monolithic, or epyc_9634_nic)";
        let platforms = |v: &[&str]| DseAxis::Platform {
            values: v.iter().map(|s| s.to_string()).collect(),
        };
        // The expected messages are the ones the expansion order meets
        // first: candidate 0 when any axis fails at its first setting,
        // else the candidate varying only the innermost failing axis.
        let cases = [
            (
                vec![
                    DseAxis::CcdCount { values: vec![2, 4] },
                    DseAxis::GmiScale {
                        values: vec![1.0, 0.0],
                    },
                ],
                "gmi_scale axis: invalid multiplier 0",
            ),
            (
                vec![
                    DseAxis::GmiScale {
                        values: vec![1.0, f64::NAN],
                    },
                    DseAxis::NocScale {
                        values: vec![1.0, -1.0],
                    },
                ],
                "noc_scale axis: invalid multiplier -1",
            ),
            (vec![platforms(&["epyc_9634", "epyc_9999"])], unknown),
            (
                vec![
                    platforms(&["epyc_9999"]),
                    DseAxis::UmcScale { values: vec![0.0] },
                ],
                unknown,
            ),
            (
                vec![
                    platforms(&["epyc_7302", "epyc_9999"]),
                    DseAxis::UmcScale {
                        values: vec![f64::NAN],
                    },
                ],
                "umc_scale axis: invalid multiplier NaN",
            ),
        ];
        for (axes, want) in cases {
            let search = DseSpec {
                axes,
                ..small_search()
            };
            let want = ScenarioError::Invalid(want.into());
            assert_eq!(search.expand().unwrap_err(), want);
            for jobs in [1, 4] {
                for budget in [None, Some(1)] {
                    let runner = DseRunner {
                        jobs,
                        cache_dir: None,
                        budget,
                    };
                    let err = runner.run(&search).unwrap_err();
                    assert_eq!(err, want, "jobs {jobs}, budget {budget:?}");
                }
            }
        }
    }

    #[test]
    fn cxl_axis_toggles_the_attach_points() {
        let mut search = small_search();
        search.axes = vec![DseAxis::CxlDevices { values: vec![0, 2] }];
        let points = search.expand().unwrap();
        let TopologyChoice::Inline(p0) = &points[0].spec.topology else {
            panic!();
        };
        assert!(p0.cxl.is_none());
        let TopologyChoice::Inline(p1) = &points[1].spec.topology else {
            panic!();
        };
        assert_eq!(p1.cxl.as_ref().map(|c| c.device_count), Some(2));
    }

    #[test]
    fn volatile_metrics_are_emitted() {
        let mut metrics = MetricsRegistry::new();
        let (_, stats) = DseRunner::with_jobs(2)
            .run_with_metrics(&small_search(), &mut metrics)
            .unwrap();
        assert_eq!(stats.scored, 6);
        let dump = metrics.to_openmetrics_with_volatile();
        assert!(dump.contains("dse_candidates_scored_total"));
        assert!(dump.contains("dse_frontier_size"));
        assert!(dump.contains("dse_escalated_total"));
        let default_dump = metrics.to_openmetrics();
        assert!(!default_dump.contains("dse_frontier_size"));
    }
}
