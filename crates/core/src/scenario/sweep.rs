//! Parallel, deterministic parameter sweeps over the scenario layer.
//!
//! A [`SweepSpec`] expands a base [`ScenarioSpec`] along parameter axes
//! (demand levels, MLP budgets, link capacities, flow counts, seeds,
//! horizons) into a list of concrete specs — the cartesian product of all
//! axes, in a stable order. Each point gets
//!
//! * a **content hash** (FNV-1a over its canonical JSON) identifying the
//!   point for caching, and
//! * a **derived seed** mixed from the sweep's base seed and the point's
//!   content, so RNG streams are decorrelated across points and entirely
//!   independent of worker count or scheduling order.
//!
//! [`SweepRunner`] executes the expanded points across worker threads that
//! claim them from one shared cursor ([`parallel_ordered`]); results land in
//! expansion order, so the aggregate [`SweepOutcome`] is **byte-identical
//! for any `--jobs` value**. An optional on-disk cache
//! (`results/cache/<hash>.json`) skips points whose reports already exist,
//! making re-runs of a mostly-unchanged sweep incremental.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use chiplet_sim::{Bandwidth, DemandSchedule, SimTime};
use serde::{Deserialize, Serialize};

use super::report::ScenarioReport;
use super::spec::{ScenarioError, ScenarioSpec, TopologyChoice};
use crate::metrics::{MetricKind, MetricsRegistry};

/// Default cap on the number of points one sweep may expand to; override
/// per sweep with [`SweepSpec::max_points`].
pub const MAX_POINTS: usize = 10_000;

fn invalid<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Invalid(msg.into()))
}

/// One parameter axis of a sweep. The expansion takes the cartesian
/// product of all axes, first axis outermost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Base-seed values (each still goes through per-point derivation, so
    /// the values act as named entropy sources, not literal engine seeds).
    Seed {
        /// The seeds to sweep.
        values: Vec<u64>,
    },
    /// Constant offered load (GB/s) of one flow, by name; `None` means
    /// unthrottled.
    DemandGbS {
        /// Name of the flow whose demand varies.
        flow: String,
        /// Demand levels; `None` = unthrottled.
        values: Vec<Option<f64>>,
    },
    /// Capacity (GB/s) of one entry of the fluid link table.
    LinkCapacityGbS {
        /// Index into `fluid.links`.
        link: usize,
        /// Capacities to sweep.
        values: Vec<f64>,
    },
    /// Replicates one flow (by name) into N identical copies named
    /// `<name>#<k>`; a count of 1 keeps the flow unchanged.
    FlowCount {
        /// Name of the template flow.
        flow: String,
        /// Copy counts to sweep (each ≥ 1).
        values: Vec<usize>,
    },
    /// Per-core read MLP budget (outstanding cachelines) of the platform.
    MlpReadOutstanding {
        /// Budgets to sweep.
        values: Vec<u32>,
    },
    /// Run horizon, microseconds.
    HorizonUs {
        /// Horizons to sweep.
        values: Vec<u64>,
    },
}

impl SweepAxis {
    /// Number of settings on this axis.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::Seed { values } => values.len(),
            SweepAxis::DemandGbS { values, .. } => values.len(),
            SweepAxis::LinkCapacityGbS { values, .. } => values.len(),
            SweepAxis::FlowCount { values, .. } => values.len(),
            SweepAxis::MlpReadOutstanding { values } => values.len(),
            SweepAxis::HorizonUs { values } => values.len(),
        }
    }

    /// True when the axis has no settings (an invalid sweep).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable `key=value` label of setting `idx`.
    fn label(&self, idx: usize) -> String {
        match self {
            SweepAxis::Seed { values } => format!("seed={}", values[idx]),
            SweepAxis::DemandGbS { flow, values } => match values[idx] {
                Some(g) => format!("demand[{flow}]={g}"),
                None => format!("demand[{flow}]=max"),
            },
            SweepAxis::LinkCapacityGbS { link, values } => {
                format!("cap[link{link}]={}", values[idx])
            }
            SweepAxis::FlowCount { flow, values } => format!("count[{flow}]={}", values[idx]),
            SweepAxis::MlpReadOutstanding { values } => format!("mlp_read={}", values[idx]),
            SweepAxis::HorizonUs { values } => format!("horizon={}us", values[idx]),
        }
    }

    /// Applies setting `idx` to a spec.
    fn apply(&self, idx: usize, spec: &mut ScenarioSpec) -> Result<(), ScenarioError> {
        match self {
            SweepAxis::Seed { values } => {
                spec.seed = Some(values[idx]);
                Ok(())
            }
            SweepAxis::DemandGbS { flow, values } => {
                let f = spec
                    .flows
                    .iter_mut()
                    .find(|f| &f.name == flow)
                    .ok_or_else(|| {
                        ScenarioError::Invalid(format!("sweep axis targets unknown flow '{flow}'"))
                    })?;
                f.demand = values[idx]
                    .map(|g| DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(g))));
                Ok(())
            }
            SweepAxis::LinkCapacityGbS { link, values } => {
                let Some(fluid) = spec.fluid.as_mut() else {
                    return invalid("link-capacity axis needs a fluid link table");
                };
                let Some(entry) = fluid.links.get_mut(*link) else {
                    return invalid(format!(
                        "link-capacity axis: link {link} out of range (table has {})",
                        fluid.links.len()
                    ));
                };
                let mut resolved = entry.resolve()?;
                resolved.capacity = Bandwidth::from_gb_per_s(values[idx]);
                *entry = super::spec::FluidLinkSpec::Inline(resolved);
                Ok(())
            }
            SweepAxis::FlowCount { flow, values } => {
                let n = values[idx];
                if n == 0 {
                    return invalid(format!("flow-count axis: count 0 for flow '{flow}'"));
                }
                let pos = spec
                    .flows
                    .iter()
                    .position(|f| &f.name == flow)
                    .ok_or_else(|| {
                        ScenarioError::Invalid(format!("sweep axis targets unknown flow '{flow}'"))
                    })?;
                if n > 1 {
                    let template = spec.flows.remove(pos);
                    for k in (0..n).rev() {
                        let mut copy = template.clone();
                        copy.name = format!("{}#{k}", template.name);
                        spec.flows.insert(pos, copy);
                    }
                }
                Ok(())
            }
            SweepAxis::MlpReadOutstanding { values } => {
                let mut platform = spec.topology.platform()?;
                platform.mlp.core_read_outstanding = values[idx];
                spec.topology = TopologyChoice::Inline(platform);
                Ok(())
            }
            SweepAxis::HorizonUs { values } => {
                if values[idx] == 0 {
                    return invalid("horizon axis: 0 µs horizon");
                }
                spec.horizon = SimTime::from_micros(values[idx]);
                Ok(())
            }
        }
    }
}

/// A declarative parameter sweep: a base scenario plus axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Sweep name (appears in the aggregate output).
    pub name: String,
    /// One-line description.
    #[serde(default)]
    pub description: String,
    /// The scenario every point starts from.
    pub base: ScenarioSpec,
    /// The parameter axes (cartesian product, first axis outermost).
    pub axes: Vec<SweepAxis>,
    /// Expansion cap for this sweep; `None` means `MAX_POINTS` (10,000). Large
    /// escalation batches (the DSE frontier) raise it explicitly instead
    /// of every sweep silently losing the guard rail. `None` serializes as
    /// `null` like every absent field.
    #[serde(default)]
    pub max_points: Option<usize>,
}

/// One expanded point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// `key=value` labels of this point's axis settings, space-joined.
    pub label: String,
    /// The concrete spec, with the derived per-point seed applied.
    pub spec: ScenarioSpec,
    /// Content hash of the final spec (16 hex digits) — the cache key.
    pub hash: String,
}

impl SweepPoint {
    /// A study's point list: each spec runs exactly as it stands, keyed by
    /// [`spec_hash`] with no seed derived, so it shares its cache entry
    /// with a single run of the same spec. Study specs often share a name,
    /// so each label is the spec's name plus its list index (`name #i`).
    pub fn study(specs: Vec<ScenarioSpec>) -> Vec<SweepPoint> {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| SweepPoint {
                label: format!("{} #{i}", spec.name),
                hash: spec_hash(&spec),
                spec,
            })
            .collect()
    }
}

impl SweepSpec {
    /// Serializes to pretty JSON (deterministic bytes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep specs always serialize")
    }

    /// Parses a sweep back from [`SweepSpec::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(s).map_err(|e| ScenarioError::Invalid(format!("JSON error: {e}")))
    }

    /// Expands the cartesian product of all axes into concrete points, in
    /// a stable order (first axis outermost). Every point's seed is
    /// derived from the base seed and the point's content hash, so results
    /// never depend on execution order.
    pub fn expand(&self) -> Result<Vec<SweepPoint>, ScenarioError> {
        if self.axes.is_empty() {
            return invalid(format!("sweep '{}' has no axes", self.name));
        }
        let mut total = 1usize;
        for (a, axis) in self.axes.iter().enumerate() {
            if axis.is_empty() {
                return invalid(format!("sweep '{}': axis {a} has no values", self.name));
            }
            total = total.saturating_mul(axis.len());
        }
        let max_points = self.max_points.unwrap_or(MAX_POINTS);
        if total > max_points {
            return invalid(format!(
                "sweep '{}' expands to {total} points (max_points limit {max_points}); \
                 raise `max_points` on the sweep to allow more",
                self.name
            ));
        }
        let base_seed = self.base.seed_or_default();
        let mut points = Vec::with_capacity(total);
        let mut idx = vec![0usize; self.axes.len()];
        loop {
            let mut spec = self.base.clone();
            let mut labels = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(&idx) {
                axis.apply(i, &mut spec)?;
                labels.push(axis.label(i));
            }
            let label = labels.join(" ");
            spec.name = format!("{} [{label}]", self.name);
            let hash = format!("{:016x}", seal_spec(&mut spec, base_seed));
            points.push(SweepPoint { label, spec, hash });

            // Odometer increment, last axis fastest.
            let mut carry = true;
            for (i, axis) in self.axes.iter().enumerate().rev() {
                if !carry {
                    break;
                }
                idx[i] += 1;
                carry = idx[i] == axis.len();
                if carry {
                    idx[i] = 0;
                }
            }
            if carry {
                break;
            }
        }
        Ok(points)
    }
}

/// FNV-1a 64-bit — stable across platforms and runs, unlike `DefaultHasher`.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64-bit hash whose state after the earlier bytes is `h`.
fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seals an expanded point: writes its derived seed and returns its content
/// hash — the one derivation sweep and DSE expansion share.
///
/// The seed is mixed from `base_seed` and the FNV-1a hash of the spec's
/// JSON as it stands (hashed before the derived seed is written, so the
/// fixed point does not chase itself); the content hash is FNV-1a over the
/// JSON with the derived seed in place, so `spec_hash(spec)` equals the
/// result. Both texts differ only in the top-level `"seed"` value, so one
/// serialization serves both: the hash state after the shared prefix is
/// continued once with the old value and once with the new.
pub(crate) fn seal_spec(spec: &mut ScenarioSpec, base_seed: u64) -> u64 {
    let json = spec.to_json();
    // A real newline plus two spaces only starts a top-level field: string
    // contents escape their newlines, and nested fields indent deeper.
    const FIELD: &str = "\n  \"seed\": ";
    let start = json
        .find(FIELD)
        .expect("specs always serialize a top-level seed")
        + FIELD.len();
    // The value is `null` or an integer, and later fields follow it.
    let end = start + json[start..].find(',').expect("seed is not the last field");
    let bytes = json.as_bytes();
    let prefix = fnv1a64(&bytes[..start]);
    let seed = splitmix64(base_seed ^ fnv1a64_from(prefix, &bytes[start..]));
    spec.seed = Some(seed);
    let h = fnv1a64_from(prefix, seed.to_string().as_bytes());
    fnv1a64_from(h, &bytes[end..])
}

/// SplitMix64 finalizer: turns structured hash input into a well-mixed seed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One executed sweep point: the label, cache key, and report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPointResult {
    /// The point's axis label.
    pub label: String,
    /// The point's content hash (cache key).
    pub hash: String,
    /// The scenario report.
    pub report: ScenarioReport,
}

/// The aggregate result of a sweep, in expansion order. Serialization is
/// deterministic and contains no execution metadata, so the bytes are
/// identical for any worker count and for cached vs freshly-executed runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// Sweep name.
    pub sweep: String,
    /// Per-point results, in expansion order.
    pub points: Vec<SweepPointResult>,
}

impl SweepOutcome {
    /// Serializes to pretty JSON, deterministically.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep outcomes always serialize")
    }

    /// Parses back from [`SweepOutcome::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Execution metadata of one sweep run (not part of the aggregate bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Total points.
    pub total: usize,
    /// Points executed on an engine this run.
    pub executed: usize,
    /// Points served from the on-disk cache.
    pub cached: usize,
    /// Cache entries that failed to parse and were re-executed. Atomic
    /// (tmp + rename) writes make torn entries impossible under concurrent
    /// writers, so a non-zero count points at real corruption — stale
    /// engine versions, disk faults — and must not be healed silently.
    pub corrupt_healed: usize,
}

/// Executes expanded sweep points across worker threads.
#[derive(Debug, Clone, Default)]
pub struct SweepRunner {
    /// Worker threads; 0 = one per available core.
    pub jobs: usize,
    /// Result cache directory (`<hash>.json` per point); `None` disables
    /// caching. Cache entries are keyed by spec content only — delete the
    /// directory (or pass `None`) after changing engine code.
    pub cache_dir: Option<PathBuf>,
}

impl SweepRunner {
    /// A runner with `jobs` workers and no cache.
    pub fn with_jobs(jobs: usize) -> Self {
        SweepRunner {
            jobs,
            cache_dir: None,
        }
    }

    /// Expands and runs a sweep. Points run in parallel; the outcome lists
    /// them in expansion order, byte-identical for any worker count.
    pub fn run(&self, sweep: &SweepSpec) -> Result<(SweepOutcome, SweepStats), ScenarioError> {
        let points = sweep.expand()?;
        self.run_points(&sweep.name, points)
    }

    /// Runs a pre-built list of points (bypassing [`SweepSpec::expand`])
    /// through the same parallel, content-cached execution path. This is the
    /// escalation entry for callers that assemble points themselves — the
    /// DSE frontier hands its surviving candidates here so the expensive
    /// tail is parallel and cache-deduplicated like any sweep.
    pub fn run_points(
        &self,
        name: &str,
        points: Vec<SweepPoint>,
    ) -> Result<(SweepOutcome, SweepStats), ScenarioError> {
        let (execs, _peak, corrupt) = self.execute(&points);
        Self::collect(name, points, execs).map(|(outcome, mut stats, _)| {
            stats.corrupt_healed = corrupt;
            (outcome, stats)
        })
    }

    /// Runs a study's point list, every spec as it stands
    /// ([`SweepPoint::study`]): without `metrics` through the cached path
    /// of [`SweepRunner::run_points`]; with it, each point runs
    /// metric-aware into a private registry, merged into `metrics` in list
    /// order (so the dump is the same for any worker count), uncached.
    pub fn run_study(
        &self,
        name: &str,
        specs: Vec<ScenarioSpec>,
        metrics: Option<&mut MetricsRegistry>,
    ) -> Result<(SweepOutcome, SweepStats), ScenarioError> {
        let points = SweepPoint::study(specs);
        let Some(metrics) = metrics else {
            return self.run_points(name, points);
        };
        let runs = parallel_ordered(&points, self.jobs, |_, point| {
            let mut local = MetricsRegistry::new();
            point
                .spec
                .run_with_metrics(&mut local)
                .map(|report| (report, local))
        });
        let execs = runs
            .into_iter()
            .map(|run| {
                run.map(|(report, local)| {
                    metrics.merge_labeled(&local, &[]);
                    (report, false, 0.0)
                })
            })
            .collect();
        Self::collect(name, points, execs).map(|(outcome, stats, _)| (outcome, stats))
    }

    /// Like [`SweepRunner::run`], but instruments the sweep into `metrics`:
    ///
    /// * deterministic per-point gauges derived from the outcome itself —
    ///   `sweep_flow_achieved_gb_s` and `sweep_flow_mean_latency_ns`,
    ///   labelled `{sweep, sweep_point, flow}` — byte-identical for any
    ///   worker count or cache state;
    /// * **volatile** execution counters (excluded from the default
    ///   OpenMetrics dump): `sweep_cache_hits`, `sweep_cache_misses`,
    ///   `sweep_cache_corrupt_healed`, `sweep_point_wall_seconds`,
    ///   `sweep_pool_occupancy_peak`, and `sweep_jobs`.
    pub fn run_with_metrics(
        &self,
        sweep: &SweepSpec,
        metrics: &mut MetricsRegistry,
    ) -> Result<(SweepOutcome, SweepStats), ScenarioError> {
        let points = sweep.expand()?;
        let (execs, peak, corrupt) = self.execute(&points);
        let (outcome, mut stats, walls) = Self::collect(&sweep.name, points, execs)?;
        stats.corrupt_healed = corrupt;

        metrics.describe(
            "sweep_flow_achieved_gb_s",
            MetricKind::Gauge,
            "Achieved bandwidth of one flow at one sweep point, GB/s.",
        );
        metrics.describe(
            "sweep_flow_mean_latency_ns",
            MetricKind::Gauge,
            "Mean end-to-end latency of one flow at one sweep point, ns.",
        );
        for point in &outcome.points {
            let Some(o) = point.report.outcome() else {
                continue;
            };
            for fr in &o.flows {
                let labels = [
                    ("sweep", outcome.sweep.as_str()),
                    ("sweep_point", point.label.as_str()),
                    ("flow", fr.name.as_str()),
                ];
                metrics.gauge_set("sweep_flow_achieved_gb_s", &labels, fr.achieved_gb_s);
                if let Some(lat) = fr.mean_latency_ns {
                    metrics.gauge_set("sweep_flow_mean_latency_ns", &labels, lat);
                }
            }
        }

        metrics.describe_volatile(
            "sweep_cache_hits",
            MetricKind::Counter,
            "Sweep points served from the on-disk result cache.",
        );
        metrics.describe_volatile(
            "sweep_cache_misses",
            MetricKind::Counter,
            "Sweep points executed on an engine this run.",
        );
        metrics.describe_volatile(
            "sweep_cache_corrupt_healed",
            MetricKind::Counter,
            "Corrupt cache entries healed by re-executing the point.",
        );
        metrics.describe_volatile(
            "sweep_point_wall_seconds",
            MetricKind::Gauge,
            "Wall-clock time one sweep point took (cache hits included).",
        );
        metrics.describe_volatile(
            "sweep_pool_occupancy_peak",
            MetricKind::Gauge,
            "Most sweep points in flight at once in the worker pool.",
        );
        metrics.describe_volatile(
            "sweep_jobs",
            MetricKind::Gauge,
            "Effective worker-thread count of the sweep run.",
        );
        let sweep_label = [("sweep", outcome.sweep.as_str())];
        metrics.counter_add("sweep_cache_hits", &sweep_label, stats.cached as f64);
        metrics.counter_add("sweep_cache_misses", &sweep_label, stats.executed as f64);
        metrics.counter_add(
            "sweep_cache_corrupt_healed",
            &sweep_label,
            stats.corrupt_healed as f64,
        );
        metrics.gauge_set("sweep_pool_occupancy_peak", &sweep_label, peak as f64);
        metrics.gauge_set(
            "sweep_jobs",
            &sweep_label,
            effective_jobs(self.jobs, stats.total) as f64,
        );
        for (point, wall) in outcome.points.iter().zip(walls) {
            metrics.gauge_set(
                "sweep_point_wall_seconds",
                &[
                    ("sweep", outcome.sweep.as_str()),
                    ("sweep_point", point.label.as_str()),
                ],
                wall,
            );
        }
        Ok((outcome, stats))
    }

    /// Runs the expanded points through the worker pool, returning per-point
    /// results (report, cache flag, wall seconds) plus the pool's peak
    /// occupancy and the count of corrupt cache entries healed by
    /// re-execution.
    #[allow(clippy::type_complexity)]
    fn execute(
        &self,
        points: &[SweepPoint],
    ) -> (
        Vec<Result<(ScenarioReport, bool, f64), ScenarioError>>,
        usize,
        usize,
    ) {
        if let (Some(dir), false) = (&self.cache_dir, points.is_empty()) {
            // Best-effort: an unwritable cache degrades to uncached runs.
            // A run with no points (`table1`, `noc_study`) creates nothing.
            let _ = std::fs::create_dir_all(dir);
        }
        let occupancy = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let corrupt = AtomicUsize::new(0);
        let results = parallel_ordered(points, self.jobs, |_, point| {
            let depth = occupancy.fetch_add(1, Ordering::Relaxed) + 1;
            peak.fetch_max(depth, Ordering::Relaxed);
            let started = std::time::Instant::now();
            let outcome = (|| {
                if let Some(dir) = &self.cache_dir {
                    match load_cache_entry(dir, &point.hash) {
                        CacheLookup::Hit(report) => return Ok((report, true)),
                        CacheLookup::Corrupt => {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                        CacheLookup::Miss => {}
                    }
                }
                let (report, _) =
                    run_and_publish(&point.spec, &point.hash, self.cache_dir.as_deref())?;
                Ok((report, false))
            })();
            occupancy.fetch_sub(1, Ordering::Relaxed);
            outcome.map(|(report, cached)| (report, cached, started.elapsed().as_secs_f64()))
        });
        (
            results,
            peak.load(Ordering::Relaxed),
            corrupt.load(Ordering::Relaxed),
        )
    }

    /// Folds executed points into the aggregate outcome, stats, and the
    /// per-point wall times (expansion order).
    #[allow(clippy::type_complexity)]
    fn collect(
        sweep: &str,
        points: Vec<SweepPoint>,
        execs: Vec<Result<(ScenarioReport, bool, f64), ScenarioError>>,
    ) -> Result<(SweepOutcome, SweepStats, Vec<f64>), ScenarioError> {
        let mut stats = SweepStats {
            total: points.len(),
            ..Default::default()
        };
        let mut out = Vec::with_capacity(points.len());
        let mut walls = Vec::with_capacity(points.len());
        for (point, result) in points.into_iter().zip(execs) {
            let (report, cached, wall) = result?;
            if cached {
                stats.cached += 1;
            } else {
                stats.executed += 1;
            }
            walls.push(wall);
            out.push(SweepPointResult {
                label: point.label,
                hash: point.hash,
                report,
            });
        }
        Ok((
            SweepOutcome {
                sweep: sweep.to_string(),
                points: out,
            },
            stats,
            walls,
        ))
    }
}

/// Path of the cache entry for `hash` under `dir` (`<hash>.json`).
pub fn cache_path(dir: &Path, hash: &str) -> PathBuf {
    dir.join(format!("{hash}.json"))
}

/// Content hash of a concrete spec — 16 hex digits of FNV-1a over its
/// canonical JSON, the same function [`SweepSpec::expand`] assigns to each
/// point. Lets external executors (the serving daemon) share one cache
/// namespace with the batch runner: `spec_hash(&point.spec) == point.hash`.
pub fn spec_hash(spec: &ScenarioSpec) -> String {
    format!("{:016x}", fnv1a64(spec.to_json().as_bytes()))
}

/// What a cache probe found.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A well-formed entry.
    Hit(ScenarioReport),
    /// No entry on disk.
    Miss,
    /// An entry exists but does not parse as a [`ScenarioReport`] —
    /// counted (never silent) and then re-executed like a miss.
    Corrupt,
}

/// The largest cache entry [`load_cache_entry`] reads, bytes. The largest
/// report the registry's 21 entries publish is 60,706 bytes (a five-flow
/// `fig5_sweep` point with its fluid traces), so this leaves 17× headroom
/// while a planted multi-GB file costs at most this much memory.
pub(crate) const MAX_CACHE_ENTRY_BYTES: u64 = 1 << 20;

/// Probes the cache for `hash`, distinguishing a missing entry from a
/// corrupt one so callers can count healing instead of hiding it. An entry
/// over `MAX_CACHE_ENTRY_BYTES` (1 MiB) is corrupt and is not read past the
/// bound.
pub fn load_cache_entry(dir: &Path, hash: &str) -> CacheLookup {
    let mut text = String::new();
    let read = std::fs::File::open(cache_path(dir, hash))
        .and_then(|f| f.take(MAX_CACHE_ENTRY_BYTES + 1).read_to_string(&mut text));
    if read.is_err() {
        return CacheLookup::Miss;
    }
    if text.len() as u64 > MAX_CACHE_ENTRY_BYTES {
        return CacheLookup::Corrupt;
    }
    match ScenarioReport::from_json(&text) {
        Ok(report) => CacheLookup::Hit(report),
        Err(_) => CacheLookup::Corrupt,
    }
}

/// Publishes a cache entry atomically: the bytes land in a unique temp file
/// in the same directory, then [`std::fs::rename`] over the final name.
/// Readers therefore see either no entry or a complete one — never a torn
/// prefix — and concurrent writers of the same hash each publish a whole
/// entry, last rename winning. Content-hashed keys make every winner
/// byte-equivalent, so the race is benign.
pub fn store_cache_entry(dir: &Path, hash: &str, json: &str) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        "{hash}.json.tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, cache_path(dir, hash)).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Runs one point and publishes its report to the cache under `hash` —
/// the one execution step [`SweepRunner`] and the serving daemon share.
/// The report's canonical JSON is rendered only when there is a cache to
/// publish it to, and is returned with the report, so a caller that also
/// needs the bytes serializes the report once. A failed write degrades to
/// an uncached run.
pub fn run_and_publish(
    spec: &ScenarioSpec,
    hash: &str,
    cache_dir: Option<&Path>,
) -> Result<(ScenarioReport, Option<String>), ScenarioError> {
    let report = spec.run()?;
    let json = cache_dir.map(|dir| {
        let json = report.to_json();
        let _ = store_cache_entry(dir, hash, &json);
        json
    });
    Ok((report, json))
}

/// Runs `f` over `items` on `jobs` worker threads (0 = one per core),
/// returning results **in input order** — the building block behind
/// [`SweepRunner`] and the DSE scorer.
///
/// Workers claim item indices from one shared cursor, in input order, so
/// a worker stuck on one long item leaves the rest to its idle peers.
///
/// Deterministic by construction: output slot `i` holds `f(i, &items[i])`
/// regardless of which worker ran it or when. A panicking `f` propagates.
pub fn parallel_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // The cursor only hands out indices; results reach the caller through
    // the slots' mutexes and the scope's join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let r = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Worker count a runner with `jobs` actually uses on `items` work items.
/// `jobs == 0` auto-sizes from the host's available parallelism; the
/// result is always ≥ 1 and never exceeds the item count, so the pool
/// neither deadlocks on zero workers nor spawns idle threads.
pub fn effective_jobs(jobs: usize, items: usize) -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    effective_jobs_with(jobs, items, avail)
}

/// Pure core of [`effective_jobs`]: `avail` is the host's available
/// parallelism. An explicit `jobs` value is taken as-is.
pub fn effective_jobs_with(jobs: usize, items: usize, avail: usize) -> usize {
    let jobs = if jobs == 0 { avail.max(1) } else { jobs };
    jobs.min(items.max(1))
}
