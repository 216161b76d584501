//! `chiplet-scenario` — the declarative experiment runner.
//!
//! ```text
//! chiplet-scenario list
//! chiplet-scenario show <name>
//! chiplet-scenario run <name|file.json> [--jobs N] [--no-cache] [--cache-dir DIR] [--json]
//! chiplet-scenario sweep <name|file.json> [--jobs N] [--no-cache] [--cache-dir DIR] [--json]
//! chiplet-scenario dse <name|file.json> [--jobs N] [--budget N] [--json]
//! ```
//!
//! `list` prints the registry of the paper's built-in scenarios; `run`
//! executes any built-in by name or a [`ScenarioSpec`] JSON file and
//! prints its output (`--json` emits the structured [`ScenarioReport`]
//! instead); `show` prints a built-in declarative spec, sweep or search as
//! JSON — a starting point for custom scenario files; `sweep` expands a
//! [`SweepSpec`] (built-in or JSON file) and executes its points across
//! worker threads with an on-disk result cache (`results/cache` by
//! default). Sweep output is byte-identical for any `--jobs` value and for
//! cached vs fresh runs; execution stats go to stderr.
//!
//! `run`, `sweep` and `dse` share one path: the verb only picks how a JSON
//! file parses and which registry kinds a name may be, so `run fig5_sweep`
//! and `sweep fig5_sweep` execute, cache and print alike.
//!
//! `dse` runs a [`DseSpec`] design-space search: the candidate designs are
//! expanded deterministically, scored with the analytical estimator across
//! worker threads, Pareto-filtered, and the frontier escalated to full
//! event-engine runs through the cached sweep runner. Like sweeps, the
//! output is byte-identical for any `--jobs` value.
//!
//! [`ScenarioSpec`]: chiplet_net::scenario::ScenarioSpec
//! [`ScenarioReport`]: chiplet_net::scenario::ScenarioReport
//! [`SweepSpec`]: chiplet_net::scenario::SweepSpec
//! [`DseSpec`]: chiplet_net::dse::DseSpec

use std::path::PathBuf;
use std::process::ExitCode;

use chiplet_bench::scenarios::{paper_registry, render, resolve, resolve_name, Verb};
use chiplet_bench::TextTable;
use chiplet_net::dse::DseRunner;
use chiplet_net::metrics::MetricsRegistry;
use chiplet_net::scenario::{ScenarioKind, ScenarioRun};
use chiplet_sim::PhaseProfiler;

const USAGE: &str = "usage: chiplet-scenario <COMMAND>
commands:
  list                     print the built-in scenario registry
  show <name>              print a built-in spec, sweep or search as JSON
  run <name|file.json>     run any built-in or a ScenarioSpec JSON file;
                           sweep and dse built-ins take the options of
                           `sweep` and `dse` below and print their tally
      [--json]             print the structured report instead of text
      [--metrics PATH|-]   dump OpenMetrics telemetry (with -, the human
                           report moves to stderr so stdout stays pure)
      [--metrics-all]      include volatile execution metrics in the dump
      [--profile]          print a wall-time phase breakdown to stderr
                           (specs also get engine-level phase timers)
  sweep <name|file.json>   expand and run a SweepSpec across worker threads
      [--jobs N]           worker threads (default: one per core)
      [--no-cache]         skip the on-disk result cache
      [--cache-dir DIR]    cache directory (default: results/cache)
      [--json]             print the aggregate SweepOutcome as JSON
      [--metrics PATH|-]   dump OpenMetrics telemetry, as for run
      [--metrics-all]      include volatile execution metrics in the dump
      [--profile]          print a wall-time phase breakdown to stderr
  dse <name|file.json>     run a DseSpec design-space search: analytical
                           scoring, Pareto frontier, event-engine escalation
      [--jobs N]           scoring/escalation threads (default: one per core)
      [--budget N]         score only the first N candidates of the
                           deterministic expansion order
      [--no-cache]         skip the on-disk cache for escalated runs
      [--cache-dir DIR]    cache directory (default: results/cache)
      [--json]             print the DseOutcome as JSON
      [--metrics PATH|-]   dump OpenMetrics telemetry, as for run
      [--metrics-all]      include volatile execution metrics in the dump
      [--profile]          print a wall-time phase breakdown to stderr
  lint-metrics <PATH|->    validate an OpenMetrics dump (EOF terminator,
                           TYPE-before-sample, no duplicate series)";

/// Command-line options shared across subcommands.
struct Opts {
    json: bool,
    jobs: usize,
    cache: bool,
    cache_dir: PathBuf,
    budget: Option<usize>,
    metrics: Option<String>,
    metrics_all: bool,
    profile: bool,
}

impl Opts {
    /// Human-facing output: stdout normally, stderr when the OpenMetrics
    /// dump owns stdout (`--metrics -`).
    fn emit(&self, text: &str) {
        if self.metrics.as_deref() == Some("-") {
            eprint!("{text}");
        } else {
            print!("{text}");
        }
    }

    /// Writes the registry's OpenMetrics dump to the `--metrics` target.
    fn write_metrics(&self, m: &MetricsRegistry) -> Result<(), String> {
        let Some(target) = &self.metrics else {
            return Ok(());
        };
        let text = if self.metrics_all {
            m.to_openmetrics_with_volatile()
        } else {
            m.to_openmetrics()
        };
        if target == "-" {
            print!("{text}");
        } else {
            std::fs::write(target, &text).map_err(|e| format!("writing {target}: {e}"))?;
            eprintln!("wrote OpenMetrics dump to {target}");
        }
        Ok(())
    }
}

fn list() {
    let reg = paper_registry();
    let mut t = TextTable::new(vec!["name", "kind", "summary"]);
    for e in reg.entries() {
        t.row(vec![
            e.name.to_string(),
            (e.build)().kind().to_string(),
            e.summary.to_string(),
        ]);
    }
    t.print();
}

fn show(name: &str) -> Result<(), String> {
    match resolve_name(Verb::Run, name).map_err(|e| e.to_string())? {
        ScenarioKind::Spec(spec) => println!("{}", spec.to_json()),
        ScenarioKind::Sweep(sweep) => println!("{}", sweep.to_json()),
        ScenarioKind::Dse(search) => println!("{}", search.to_json()),
        ScenarioKind::Study(_) => {
            return Err(format!(
                "'{name}' is a composite study (it renders its own text); \
                 only declarative spec, sweep, and dse entries have a JSON form"
            ))
        }
    }
    Ok(())
}

/// `run`, `sweep` and `dse`: resolve the target for `verb`, run it, print
/// the sweep or search tally to stderr and the rendered output to stdout.
fn execute(verb: Verb, target: &str, opts: &Opts) -> Result<(), String> {
    let mut prof = if opts.profile {
        PhaseProfiler::enabled()
    } else {
        PhaseProfiler::disabled()
    };
    let ph_resolve = prof.register("cli/resolve");
    let ph_run = prof.register("cli/run");
    let ph_render = prof.register("cli/render");
    let ph_metrics = prof.register("cli/metrics-write");

    let t0 = prof.start();
    let mut kind = resolve(verb, target).map_err(|e| e.to_string())?;
    match &mut kind {
        ScenarioKind::Study(_) if opts.json => {
            return Err(format!(
                "'{target}' is a composite study rendering text; --json \
                 applies to declarative spec scenarios"
            ))
        }
        // Engine-level phase timers land in the volatile metric families
        // (visible via `--metrics … --metrics-all`).
        ScenarioKind::Spec(spec) if opts.profile => {
            spec.engine
                .get_or_insert_with(Default::default)
                .profile_phases = Some(true);
        }
        _ => {}
    }
    prof.record(ph_resolve, t0);
    let settings = DseRunner {
        jobs: opts.jobs,
        cache_dir: opts.cache.then(|| opts.cache_dir.clone()),
        budget: opts.budget,
    };
    let mut metrics = MetricsRegistry::new();
    let t0 = prof.start();
    let run = kind
        .run(&settings, opts.metrics.is_some().then_some(&mut metrics))
        .map_err(|e| e.to_string())?;
    prof.record(ph_run, t0);
    match &run {
        ScenarioRun::Sweep(outcome, stats) => eprintln!(
            "sweep {}: {} points ({} executed, {} cached)",
            outcome.sweep, stats.total, stats.executed, stats.cached
        ),
        ScenarioRun::Dse(outcome, stats) => eprintln!(
            "dse {}: {} candidates ({} scored, {} infeasible) at {:.1} µs/design, \
             frontier {}, escalated {} ({} executed, {} cached)",
            outcome.dse,
            stats.candidates,
            stats.scored,
            stats.infeasible,
            stats.estimator_ns / 1e3,
            stats.frontier,
            stats.escalated,
            stats.sweep.executed,
            stats.sweep.cached,
        ),
        ScenarioRun::Report(_) | ScenarioRun::Text(_) => {}
    }
    let t0 = prof.start();
    opts.emit(&render(&run, opts.json));
    prof.record(ph_render, t0);
    let t0 = prof.start();
    opts.write_metrics(&metrics)?;
    prof.record(ph_metrics, t0);
    if opts.profile {
        eprint!("{}", prof.report().table());
    }
    Ok(())
}

/// Validates an OpenMetrics dump with the workspace linter.
fn lint_metrics(path: &str) -> Result<(), String> {
    let text = if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
    };
    match chiplet_net::lint_openmetrics(&text) {
        Ok(()) => {
            eprintln!("{path}: OK ({} lines)", text.lines().count());
            Ok(())
        }
        Err(errors) => Err(errors.join("\n")),
    }
}

fn dispatch() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut opts = Opts {
        json: false,
        jobs: 0,
        cache: true,
        cache_dir: PathBuf::from("results/cache"),
        budget: None,
        metrics: None,
        metrics_all: false,
        profile: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--no-cache" => opts.cache = false,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs needs a number, got '{v}'"))?;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a value")?;
                opts.cache_dir = PathBuf::from(v);
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                opts.budget = Some(
                    v.parse()
                        .map_err(|_| format!("--budget needs a number, got '{v}'"))?,
                );
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a path (or -)")?;
                opts.metrics = Some(v.clone());
            }
            "--metrics-all" => opts.metrics_all = true,
            "--profile" => opts.profile = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            s if s.starts_with('-') && s != "-" => {
                return Err(format!("unknown flag {s}\n{USAGE}"))
            }
            s => positional.push(s),
        }
    }
    match positional.as_slice() {
        ["list"] => {
            list();
            Ok(())
        }
        ["show", name] => show(name),
        ["run", target] => execute(Verb::Run, target, &opts),
        ["sweep", target] => execute(Verb::Sweep, target, &opts),
        ["dse", target] => execute(Verb::Dse, target, &opts),
        ["lint-metrics", path] => lint_metrics(path),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
