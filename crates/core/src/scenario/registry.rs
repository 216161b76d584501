//! Named scenario registry.
//!
//! Maps names (`fig3`, `table1`, `bdp_control`, …) to runnable scenarios.
//! Four kinds of entries exist:
//!
//! * **specs** — declarative [`ScenarioSpec`]s executed through a backend;
//! * **studies** — a point list, run as it stands by the sweep executor
//!   ([`SweepRunner::run_study`]), plus a render over its reports;
//! * **sweeps** ([`SweepSpec`]) and **searches** ([`DseSpec`]).
//!
//! The registry itself is domain-agnostic; the paper's built-ins are
//! registered by the benchmark crate (`chiplet_bench::paper_registry`),
//! which owns the point lists and table rendering.

use super::report::ScenarioReport;
use super::spec::{ScenarioError, ScenarioSpec};
use super::sweep::{SweepOutcome, SweepRunner, SweepSpec, SweepStats};
use crate::dse::{DseOutcome, DseRunner, DseSpec, DseStats};
use crate::metrics::MetricsRegistry;

/// What a registry entry builds.
// Entries are built one at a time and consumed immediately; the size gap
// between a full spec and a study's fn pointers costs nothing here.
#[allow(clippy::large_enum_variant)]
pub enum ScenarioKind {
    /// A declarative spec, run on its configured backend.
    Spec(ScenarioSpec),
    /// A study: the points `specs` builds, and `render` over their reports.
    Study {
        /// The study's registry name.
        name: &'static str,
        /// Builds the point list; called only when the study runs.
        specs: fn() -> Vec<ScenarioSpec>,
        /// Renders the study's text from the points' reports.
        render: fn(&[ScenarioReport]) -> String,
    },
    /// A declarative parameter sweep over a base spec.
    Sweep(SweepSpec),
    /// A design-space search: analytical scoring, Pareto frontier, and
    /// event-engine escalation.
    Dse(DseSpec),
}

/// One named scenario.
pub struct ScenarioEntry {
    /// Registry name (`fig3`, `bdp_control`, …).
    pub name: &'static str,
    /// One-line summary for `scenario list`.
    pub summary: &'static str,
    /// Builds the scenario (specs are constructed lazily so listing the
    /// registry stays cheap).
    pub build: fn() -> ScenarioKind,
}

/// What running a registry entry produced.
pub enum ScenarioRun {
    /// A spec's structured report.
    Report(ScenarioReport),
    /// A study's rendered text, its points' outcome and execution stats.
    Study(String, SweepOutcome, SweepStats),
    /// A sweep's aggregate outcome and execution stats.
    Sweep(SweepOutcome, SweepStats),
    /// A design-space search's frontier report and execution stats.
    Dse(DseOutcome, DseStats),
}

impl ScenarioKind {
    /// The entry's kind as listed by `scenario list` and
    /// `GET /v1/scenarios`: `spec`, `study`, `sweep` or `dse`.
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioKind::Spec(_) => "spec",
            ScenarioKind::Study { .. } => "study",
            ScenarioKind::Sweep(_) => "sweep",
            ScenarioKind::Dse(_) => "dse",
        }
    }

    /// Runs the scenario. Studies, sweeps and searches run with
    /// `settings`' worker count and cache directory, and searches with its
    /// budget. With `metrics`, the run's telemetry folds into it: specs and
    /// study points run through the metric-aware backends, and sweeps and
    /// searches add per-point gauges plus volatile execution counters.
    pub fn run(
        self,
        settings: &DseRunner,
        metrics: Option<&mut MetricsRegistry>,
    ) -> Result<ScenarioRun, ScenarioError> {
        let sweeps = SweepRunner {
            jobs: settings.jobs,
            cache_dir: settings.cache_dir.clone(),
        };
        Ok(match self {
            ScenarioKind::Spec(spec) => ScenarioRun::Report(match metrics {
                Some(m) => spec.run_with_metrics(m)?,
                None => spec.run()?,
            }),
            ScenarioKind::Study {
                name,
                specs,
                render,
            } => {
                let (outcome, stats) = sweeps.run_study(name, specs(), metrics)?;
                let reports: Vec<ScenarioReport> =
                    outcome.points.iter().map(|p| p.report.clone()).collect();
                ScenarioRun::Study(render(&reports), outcome, stats)
            }
            ScenarioKind::Sweep(sweep) => {
                let (outcome, stats) = match metrics {
                    Some(m) => sweeps.run_with_metrics(&sweep, m)?,
                    None => sweeps.run(&sweep)?,
                };
                ScenarioRun::Sweep(outcome, stats)
            }
            ScenarioKind::Dse(search) => {
                let (outcome, stats) = match metrics {
                    Some(m) => settings.run_with_metrics(&search, m)?,
                    None => settings.run(&search)?,
                };
                ScenarioRun::Dse(outcome, stats)
            }
        })
    }
}

/// A name → scenario table.
#[derive(Default)]
pub struct ScenarioRegistry {
    entries: Vec<ScenarioEntry>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an entry; names must be unique.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name.
    pub fn register(&mut self, entry: ScenarioEntry) {
        assert!(
            !self.entries.iter().any(|e| e.name == entry.name),
            "duplicate scenario '{}'",
            entry.name
        );
        self.entries.push(entry);
    }

    /// The entries, in registration order.
    pub fn entries(&self) -> &[ScenarioEntry] {
        &self.entries
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study(name: &'static str) -> ScenarioEntry {
        ScenarioEntry {
            name,
            summary: "",
            build: || ScenarioKind::Study {
                name: "s",
                specs: Vec::new,
                render: |reports| format!("{} reports", reports.len()),
            },
        }
    }

    #[test]
    fn register_get_and_order() {
        let mut reg = ScenarioRegistry::new();
        reg.register(study("a"));
        reg.register(study("b"));
        assert_eq!(reg.entries().len(), 2);
        assert_eq!(reg.entries()[0].name, "a");
        assert!(reg.get("b").is_some());
        assert!(reg.get("missing").is_none());
        let kind = (reg.get("b").unwrap().build)();
        assert_eq!(kind.kind(), "study");
        match kind.run(&DseRunner::default(), None) {
            Ok(ScenarioRun::Study(text, outcome, stats)) => {
                assert_eq!(text, "0 reports");
                assert_eq!(outcome.sweep, "s");
                assert!(outcome.points.is_empty());
                assert_eq!(stats, SweepStats::default());
            }
            _ => panic!("study should run"),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate scenario")]
    fn duplicate_names_rejected() {
        let mut reg = ScenarioRegistry::new();
        reg.register(study("x"));
        reg.register(study("x"));
    }
}
