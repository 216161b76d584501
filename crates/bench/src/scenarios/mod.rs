//! The paper's built-in scenarios, one module per figure/table/study.
//!
//! Every module renders the exact text `chiplet-scenario run <name>`
//! prints for it. [`resolve`] maps a command-line or HTTP target to a
//! kind-checked [`ScenarioKind`] through [`paper_registry`], and
//! [`render`] turns any run into its output. Experiments that are a single
//! declarative run are registered as [`ScenarioKind::Spec`] entries
//! (pure [`ScenarioSpec`]s, rendered generically); multi-run tables,
//! figures and comparisons are [`ScenarioKind::Study`] entries: a module's
//! `specs()` lists its points, the sweep executor runs them (cached, on
//! `--jobs` workers, servable), and its `render` folds the reports in list
//! order into its tables. `table1` and `noc_study` have no points:
//! `table1` prints preset parameters, and `noc_study` drives the NoC model
//! itself because no backend runs it.

pub mod ablation_monolithic;
pub mod ablation_traffic;
pub mod bdp_control;
pub mod dse;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod flit_study;
pub mod fused_stack;
pub mod noc_study;
pub mod numa_study;
pub mod sweeps;
pub mod table1;
pub mod table2;
pub mod table3;

use std::fmt::Write;

use chiplet_net::dse::DseSpec;
use chiplet_net::scenario::{
    ScenarioEntry, ScenarioKind, ScenarioRegistry, ScenarioReport, ScenarioRun, ScenarioSpec,
    SweepOutcome, SweepSpec,
};

use crate::{f1, TextTable};

/// Renders any [`ScenarioReport`] as the standard flow table (or the
/// canonical one-line "not supported" note).
pub fn render_report(report: &ScenarioReport) -> String {
    if let Some(note) = report.unsupported_note() {
        return format!("{note}\n");
    }
    let outcome = report.outcome().expect("not unsupported");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario {} — backend {}, platform {}, seed {}, horizon {} ns",
        outcome.scenario,
        outcome.backend,
        outcome.platform,
        outcome.seed,
        outcome.horizon.as_nanos(),
    );
    let mut t = TextTable::new(vec![
        "flow",
        "offered GB/s",
        "achieved GB/s",
        "mean ns",
        "P999 ns",
    ]);
    for f in &outcome.flows {
        t.row(vec![
            f.name.clone(),
            f.offered_gb_s.map_or("max".to_string(), f1),
            f1(f.achieved_gb_s),
            f.mean_latency_ns.map_or("-".to_string(), f1),
            f.p999_latency_ns.map_or("-".to_string(), f1),
        ]);
    }
    let _ = write!(out, "{}", t.render());
    out
}

/// Renders a sweep outcome as one row per (point, flow): the axis label,
/// the flow, and its achieved bandwidth and latency.
pub fn render_sweep(outcome: &SweepOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep {} — {} points",
        outcome.sweep,
        outcome.points.len()
    );
    let mut t = TextTable::new(vec![
        "point",
        "flow",
        "offered GB/s",
        "achieved GB/s",
        "mean ns",
        "P999 ns",
    ]);
    for p in &outcome.points {
        match p.report.outcome() {
            None => t.row(vec![
                p.label.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
            Some(o) => {
                for f in &o.flows {
                    t.row(vec![
                        p.label.clone(),
                        f.name.clone(),
                        f.offered_gb_s.map_or("max".to_string(), f1),
                        f1(f.achieved_gb_s),
                        f.mean_latency_ns.map_or("-".to_string(), f1),
                        f.p999_latency_ns.map_or("-".to_string(), f1),
                    ]);
                }
            }
        }
    }
    let _ = write!(out, "{}", t.render());
    out
}

/// Renders a run as its command-line output: the structured JSON with
/// `json` (a study's is the outcome of its points), the text tables
/// otherwise.
pub fn render(run: &ScenarioRun, json: bool) -> String {
    match (run, json) {
        (ScenarioRun::Report(report), true) => format!("{}\n", report.to_json()),
        (ScenarioRun::Report(report), false) => render_report(report),
        (ScenarioRun::Study(text, _, _), false) => text.clone(),
        (ScenarioRun::Sweep(outcome, _) | ScenarioRun::Study(_, outcome, _), true) => {
            format!("{}\n", outcome.to_json())
        }
        (ScenarioRun::Sweep(outcome, _), false) => render_sweep(outcome),
        (ScenarioRun::Dse(outcome, _), true) => format!("{}\n", outcome.to_json()),
        (ScenarioRun::Dse(outcome, _), false) => dse::render_dse(outcome),
    }
}

/// The command a target is resolved for. It picks how a JSON file parses
/// and which registry kinds a name may be.
#[derive(Clone, Copy, Debug)]
pub enum Verb {
    /// Any registry entry, or a [`ScenarioSpec`] file.
    Run,
    /// A sweep entry, or a [`SweepSpec`] file.
    Sweep,
    /// A design-space search entry, or a [`DseSpec`] file.
    Dse,
}

/// Why a target did not resolve.
#[derive(Debug)]
pub enum ResolveError {
    /// No registry entry has the name.
    Unknown(String),
    /// The entry is of a kind the verb does not take, or the file is
    /// unreadable or does not parse.
    Invalid(String),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Unknown(m) => write!(f, "{m} (try `chiplet-scenario list`)"),
            ResolveError::Invalid(m) => f.write_str(m),
        }
    }
}

/// Resolves a target for `verb`: a path ending in `.json`, or any
/// existing file, parses as the verb's spec type; anything else is a
/// registry name (see [`resolve_name`]).
pub fn resolve(verb: Verb, target: &str) -> Result<ScenarioKind, ResolveError> {
    if !(target.ends_with(".json") || std::path::Path::new(target).is_file()) {
        return resolve_name(verb, target);
    }
    let text = std::fs::read_to_string(target)
        .map_err(|e| ResolveError::Invalid(format!("reading {target}: {e}")))?;
    match verb {
        Verb::Run => ScenarioSpec::from_json(&text).map(ScenarioKind::Spec),
        Verb::Sweep => SweepSpec::from_json(&text).map(ScenarioKind::Sweep),
        Verb::Dse => DseSpec::from_json(&text).map(ScenarioKind::Dse),
    }
    .map_err(|e| ResolveError::Invalid(e.to_string()))
}

/// Looks a name up in [`paper_registry`] and builds it. `run` takes every
/// kind; `sweep` and `dse` take only their own.
pub fn resolve_name(verb: Verb, name: &str) -> Result<ScenarioKind, ResolveError> {
    let noun = match verb {
        Verb::Run => "scenario",
        Verb::Sweep => "sweep",
        Verb::Dse => "search",
    };
    let build = paper_registry()
        .get(name)
        .ok_or_else(|| ResolveError::Unknown(format!("unknown {noun} '{name}'")))?
        .build;
    let kind = build();
    match (verb, &kind) {
        (Verb::Run, _)
        | (Verb::Sweep, ScenarioKind::Sweep(_))
        | (Verb::Dse, ScenarioKind::Dse(_)) => Ok(kind),
        (Verb::Sweep, _) => Err(ResolveError::Invalid(format!("'{name}' is not a sweep"))),
        (Verb::Dse, _) => Err(ResolveError::Invalid(format!(
            "'{name}' is not a design-space search"
        ))),
    }
}

/// A [`ScenarioKind::Study`] entry named after its module `$m`: the
/// module's `specs` (or the given point-list builder) and its `render`.
macro_rules! study {
    ($m:ident, $summary:literal) => {
        study!($m, $m::specs, $summary)
    };
    ($m:ident, $specs:expr, $summary:literal) => {
        ScenarioEntry {
            name: stringify!($m),
            summary: $summary,
            build: || ScenarioKind::Study {
                name: stringify!($m),
                specs: $specs,
                render: $m::render,
            },
        }
    };
}

/// The registry of the paper's figures, tables, and companion studies.
pub fn paper_registry() -> ScenarioRegistry {
    let mut reg = ScenarioRegistry::new();
    for entry in [
        study!(
            table1,
            Vec::new,
            "Table 1: hardware specifications of the two processors"
        ),
        study!(
            table2,
            "Table 2: data-path latency breakdown (pointer chasing)"
        ),
        study!(table3, "Table 3: max bandwidth per core/CCX/CCD/CPU scope"),
        study!(fig3, "Figure 3: latency vs offered load on IF/GMI/P-Link"),
        study!(
            fig4,
            "Figure 4: sender-driven bandwidth partitioning, four cases"
        ),
        study!(
            fig5,
            "Figure 5: bandwidth harvesting under fluctuating demands"
        ),
        ScenarioEntry {
            name: "fig5_if_9634",
            summary: "Figure 5 panel on the 9634 IF, as a pure fluid ScenarioSpec",
            build: || ScenarioKind::Spec(fig5::spec_if_9634()),
        },
        ScenarioEntry {
            name: "fig5_plink_9634",
            summary: "Figure 5 panel on the 9634 P-Link, as a pure fluid ScenarioSpec",
            build: || ScenarioKind::Spec(fig5::spec_plink_9634()),
        },
        ScenarioEntry {
            name: "fig5_if_7302",
            summary: "Figure 5 panel on the unstable 7302 IF, as a pure fluid ScenarioSpec",
            build: || ScenarioKind::Spec(fig5::spec_if_7302()),
        },
        study!(fig6, "Figure 6: read/write interference on the EPYC 9634"),
        study!(
            bdp_control,
            "BDP-adaptive traffic control: the bandwidth/latency frontier"
        ),
        study!(
            numa_study,
            "NUMA/NPS study on the dual-socket 2x EPYC 7302 testbed"
        ),
        study!(
            ablation_traffic,
            "Ablation A: traffic-manager policies vs hardware partitioning"
        ),
        study!(
            ablation_monolithic,
            "Ablation B: the chiplet tax vs a monolithic baseline"
        ),
        study!(
            flit_study,
            "CXL FLIT-framing ablation: 68 B vs 256 B formats"
        ),
        study!(
            fused_stack,
            "Fused intra-/inter-host stack: 400 GbE DMA vs the chiplet network"
        ),
        study!(
            noc_study,
            Vec::new,
            "NoC design-space study: mesh/torus, buffered/bufferless"
        ),
        ScenarioEntry {
            name: "fig3_sweep",
            summary: "Figure 3 load axis as a 24-point event-engine sweep",
            build: || ScenarioKind::Sweep(sweeps::fig3_sweep()),
        },
        ScenarioEntry {
            name: "fig5_sweep",
            summary: "Figure 5 harvesting vs capacity x flow count (fluid sweep)",
            build: || ScenarioKind::Sweep(sweeps::fig5_sweep()),
        },
        ScenarioEntry {
            name: "dse_epyc",
            summary: "10,800-design search over both EPYC platforms, 16 escalated",
            build: || ScenarioKind::Dse(dse::dse_epyc()),
        },
        ScenarioEntry {
            name: "dse_smoke",
            summary: "480-design CI smoke search (determinism probe), 8 escalated",
            build: || ScenarioKind::Dse(dse::dse_smoke()),
        },
    ] {
        reg.register(entry);
    }
    reg
}
