//! `chiplet-scenario` — the declarative experiment runner.
//!
//! ```text
//! chiplet-scenario list
//! chiplet-scenario show <name>
//! chiplet-scenario run <name|file.json> [--jobs N] [--no-cache] [--cache-dir DIR] [--json]
//! chiplet-scenario sweep <name|file.json> [--jobs N] [--no-cache] [--cache-dir DIR] [--json]
//! chiplet-scenario dse <name|file.json> [--jobs N] [--budget N] [--json]
//! chiplet-scenario trace|critpath|blame <file.json> [--json] [--chrome FILE]
//!                  [--speedscope FILE] [--folded FILE] [--sysfs DIR]
//! chiplet-scenario top|lint-metrics <PATH|->
//! ```
//!
//! `list` prints the registry of the paper's built-in scenarios; `run`
//! executes any built-in by name or a [`ScenarioSpec`] JSON file and
//! prints its output (`--json` emits the structured [`ScenarioReport`],
//! or a study's [`SweepOutcome`], instead); `show` prints a built-in
//! declarative spec, sweep or search as JSON, or a study's point list — a
//! starting point for custom scenario files; `sweep` expands a
//! [`SweepSpec`] (built-in or JSON file) and executes its points across
//! worker threads with an on-disk result cache (`results/cache` by
//! default). Studies run their points through the same executor and
//! cache. Output is byte-identical for any `--jobs` value and for cached
//! vs fresh runs; execution stats go to stderr. The cache is keyed by
//! spec content only, so pass `--no-cache` after changing engine code.
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
//! `trace`, `critpath` and `blame` are the span-trace inspection views
//! (§4 #1/#5). They run an event-engine spec with hop tracing on and print
//! the per-hop latency breakdown, each flow's critical path, or the
//! cross-flow blame matrix. The spans also export as Chrome trace-event
//! JSON (ui.perfetto.dev), a speedscope profile or folded flamegraph
//! stacks, and the run's telemetry as the `/proc/chiplet-net` sysfs tree.
//! All of it is a pure function of the spec: byte-deterministic for a
//! given seed and sampling rate. `top` ranks the hottest links and flows
//! of an OpenMetrics dump.
//!
//! [`ScenarioSpec`]: chiplet_net::scenario::ScenarioSpec
//! [`ScenarioReport`]: chiplet_net::scenario::ScenarioReport
//! [`SweepSpec`]: chiplet_net::scenario::SweepSpec
//! [`SweepOutcome`]: chiplet_net::scenario::SweepOutcome
//! [`DseSpec`]: chiplet_net::dse::DseSpec

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use chiplet_bench::scenarios::{paper_registry, render, resolve, resolve_name, Verb};
use chiplet_bench::TextTable;
use chiplet_net::critpath::{point_names, to_speedscope, CritPathReport};
use chiplet_net::dse::DseRunner;
use chiplet_net::export_sysfs;
use chiplet_net::metrics::{MetricSample, MetricsRegistry};
use chiplet_net::scenario::{
    BackendKind, EventEngineBackend, ScenarioKind, ScenarioRun, SweepOutcome, SweepStats,
};
use chiplet_sim::PhaseProfiler;
use chiplet_topology::descriptor::ChipletNetDescriptor;

const USAGE: &str = "usage: chiplet-scenario <COMMAND>
commands:
  list                     print the built-in scenario registry
  show <name>              print a built-in spec, sweep or search as JSON,
                           or a study's point list as a JSON array of specs
  run <name|file.json>     run any built-in or a ScenarioSpec JSON file;
                           study, sweep and dse built-ins take the options
                           of `sweep` and `dse` below (a study takes --jobs,
                           --no-cache and --cache-dir) and print their
                           tally; they read and fill results/cache, so pass
                           --no-cache after changing engine code
      [--json]             print the structured report instead of text
                           (a study prints its points' SweepOutcome)
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
  trace <file.json>        run an event-engine spec file with hop tracing
                           on (every transaction, unless the spec sets
                           engine.trace_sampling) and print per-flow stats,
                           the per-hop breakdown and the bottleneck; every
                           registry spec runs on the fluid backend, so
                           registry names are rejected
  critpath <file.json>     print each flow's critical path
  blame <file.json>        print the cross-flow blame matrix
      [--json]             critpath and blame: print the report as JSON
      [--chrome FILE]      write the spans as Chrome trace-event JSON
      [--speedscope FILE]  write the spans as a speedscope profile
      [--folded FILE]      write folded flamegraph stacks
      [--sysfs DIR]        export the /proc/chiplet-net telemetry tree
  top <PATH|->             rank the hottest links and flows of an
                           OpenMetrics dump
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
    chrome: Option<String>,
    speedscope: Option<String>,
    folded: Option<String>,
    sysfs: Option<String>,
}

/// Writes `text` to stdout, the one path every stdout write takes. A
/// closed stdout (`chiplet-scenario … | head`) ends the process quietly
/// with exit 0 instead of panicking.
fn out(text: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("writing stdout: {e}")),
    }
}

impl Opts {
    /// Human-facing output: stdout normally, stderr when the OpenMetrics
    /// dump owns stdout (`--metrics -`).
    fn emit(&self, text: &str) -> Result<(), String> {
        if self.metrics.as_deref() == Some("-") {
            eprint!("{text}");
            Ok(())
        } else {
            out(text)
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
            out(&text)?;
        } else {
            std::fs::write(target, &text).map_err(|e| format!("writing {target}: {e}"))?;
            eprintln!("wrote OpenMetrics dump to {target}");
        }
        Ok(())
    }
}

fn list() -> Result<(), String> {
    let reg = paper_registry();
    let mut t = TextTable::new(vec!["name", "kind", "summary"]);
    for e in reg.entries() {
        t.row(vec![
            e.name.to_string(),
            (e.build)().kind().to_string(),
            e.summary.to_string(),
        ]);
    }
    out(&t.render())
}

fn show(name: &str) -> Result<(), String> {
    let json = match resolve_name(Verb::Run, name).map_err(|e| e.to_string())? {
        ScenarioKind::Spec(spec) => spec.to_json(),
        ScenarioKind::Study { specs, .. } => {
            serde_json::to_string_pretty(&specs()).expect("specs always serialize")
        }
        ScenarioKind::Sweep(sweep) => sweep.to_json(),
        ScenarioKind::Dse(search) => search.to_json(),
    };
    out(&format!("{json}\n"))
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
    // Engine-level phase timers land in the volatile metric families
    // (visible via `--metrics … --metrics-all`).
    if let ScenarioKind::Spec(spec) = &mut kind {
        if opts.profile {
            spec.engine
                .get_or_insert_with(Default::default)
                .profile_phases = Some(true);
        }
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
    let tally = |noun: &str, outcome: &SweepOutcome, stats: &SweepStats| {
        eprintln!(
            "{noun} {}: {} points ({} executed, {} cached)",
            outcome.sweep, stats.total, stats.executed, stats.cached
        )
    };
    match &run {
        ScenarioRun::Study(_, outcome, stats) => tally("study", outcome, stats),
        ScenarioRun::Sweep(outcome, stats) => tally("sweep", outcome, stats),
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
        ScenarioRun::Report(_) => {}
    }
    let t0 = prof.start();
    opts.emit(&render(&run, opts.json))?;
    prof.record(ph_render, t0);
    let t0 = prof.start();
    opts.write_metrics(&metrics)?;
    prof.record(ph_metrics, t0);
    if opts.profile {
        eprint!("{}", prof.report().table());
    }
    Ok(())
}

/// The span view `trace`, `critpath` or `blame` prints.
#[derive(Clone, Copy, PartialEq)]
enum View {
    Breakdown,
    Critpath,
    Blame,
}

impl View {
    /// The verb that selects this view.
    fn verb(self) -> &'static str {
        match self {
            View::Breakdown => "trace",
            View::Critpath => "critpath",
            View::Blame => "blame",
        }
    }
}

/// `trace`, `critpath` and `blame`: run an event-engine spec with hop
/// tracing on, print the view, then write the requested exports.
fn inspect(view: View, target: &str, opts: &Opts) -> Result<(), String> {
    let verb = view.verb();
    let mut spec = match resolve(Verb::Run, target).map_err(|e| e.to_string())? {
        ScenarioKind::Spec(spec) if spec.backend == BackendKind::Event => spec,
        ScenarioKind::Spec(_) => {
            return Err(format!(
                "'{target}' runs on the fluid backend; {verb} needs an event-engine spec"
            ))
        }
        kind => {
            return Err(format!(
                "'{target}' is a {}; {verb} needs an event-engine spec",
                kind.kind()
            ))
        }
    };
    // Sampling draws from its own derived stream, so turning tracing on
    // changes no simulated result.
    spec.engine
        .get_or_insert_with(Default::default)
        .trace_sampling
        .get_or_insert(1);
    let (result, topo) = EventEngineBackend::run_raw(&spec).map_err(|e| e.to_string())?;
    let trace = result.trace.as_ref().expect("trace_sampling is set");
    let names: Vec<String> = result.flows.iter().map(|f| f.name.clone()).collect();
    let points = point_names(&topo);
    let report = || CritPathReport::from_trace(trace, &names, &points);

    let mut text = String::new();
    match view {
        View::Breakdown => {
            let _ = writeln!(
                text,
                "scenario {} on {} — horizon {} µs, sampling 1-in-{}\n",
                spec.name,
                topo.spec().name,
                spec.horizon.as_nanos() as f64 / 1e3,
                trace.sampling,
            );
            for f in &result.flows {
                let _ = writeln!(
                    text,
                    "flow {:<12} achieved {:>8.2} GB/s  mean {:>8.2} ns  p999 {:>8.2} ns",
                    f.name,
                    f.achieved.as_gb_per_s(),
                    f.mean_latency_ns(),
                    f.p999_latency_ns(),
                );
            }
            let _ = writeln!(text, "\n{}", trace.breakdown_table());
            if let Some(b) = result.telemetry.bottleneck() {
                let _ = writeln!(
                    text,
                    "bottleneck: {:?} (util read {:.2} write {:.2})",
                    b.point, b.read.utilization, b.write.utilization
                );
            }
        }
        View::Critpath | View::Blame if opts.json => {
            let _ = writeln!(text, "{}", report().to_json());
        }
        View::Critpath | View::Blame => {
            let (title, table) = if view == View::Critpath {
                ("critical paths", report().flows_table())
            } else {
                ("blame matrix", report().blame_table())
            };
            let _ = writeln!(
                text,
                "{title}: {} on {} — sampling 1-in-{}\n",
                spec.name,
                topo.spec().name,
                trace.sampling,
            );
            text.push_str(&table);
        }
    }
    out(&text)?;

    let write = |path: &str, contents: String, note: &str| {
        std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))?;
        out(&format!("{note}\n"))
    };
    if let Some(path) = &opts.chrome {
        let note = format!("wrote Chrome trace JSON to {path} (load in ui.perfetto.dev)");
        write(path, trace.to_chrome_trace(&names), &note)?;
    }
    if let Some(path) = &opts.speedscope {
        let note = format!("wrote speedscope profile to {path} (load in speedscope.app)");
        write(path, to_speedscope(trace, &names, &points), &note)?;
    }
    if let Some(path) = &opts.folded {
        let note = format!("wrote folded flamegraph stacks to {path}");
        write(path, report().to_folded(), &note)?;
    }
    if let Some(dir) = &opts.sysfs {
        let desc = ChipletNetDescriptor::from_topology(&topo);
        export_sysfs(&desc, &result.telemetry, std::path::Path::new(dir))
            .map_err(|e| format!("exporting {dir}: {e}"))?;
        out(&format!("exported sysfs/procfs tree under {dir}\n"))?;
    }
    Ok(())
}

/// The text of a file, or of stdin for `-`.
fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

/// Ranks the hottest links and flows of an OpenMetrics dump.
///
/// Links rank by `chiplet_link_bytes_total` summed over direction; flows
/// rank by `chiplet_flow_bytes_total` + `fluid_flow_bytes_total`, with the
/// P99 latency pulled from the `chiplet_flow_latency_ns` summary when the
/// event engine measured one.
fn top(path: &str) -> Result<(), String> {
    let samples = chiplet_net::parse_openmetrics(&read_input(path)?)?;
    let key = |s: &MetricSample, label: &str| {
        s.label(label).map(|v| {
            (
                s.label("scenario").unwrap_or_default().to_string(),
                v.to_string(),
            )
        })
    };
    let mut links: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut flows: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut p99: BTreeMap<(String, String), f64> = BTreeMap::new();
    for s in &samples {
        match s.name.as_str() {
            "chiplet_link_bytes_total" => {
                if let Some(k) = key(s, "link_id") {
                    *links.entry(k).or_default() += s.value;
                }
            }
            "chiplet_flow_bytes_total" | "fluid_flow_bytes_total" => {
                if let Some(k) = key(s, "flow") {
                    *flows.entry(k).or_default() += s.value;
                }
            }
            "chiplet_flow_latency_ns" if s.label("quantile") == Some("0.99") => {
                if let Some(k) = key(s, "flow") {
                    p99.insert(k, s.value);
                }
            }
            _ => {}
        }
    }
    if links.is_empty() && flows.is_empty() {
        return Err(
            "no chiplet_link_bytes/chiplet_flow_bytes/fluid_flow_bytes series \
             in the dump (was it produced with --metrics?)"
                .into(),
        );
    }
    let ranked = |m: &BTreeMap<(String, String), f64>| {
        let mut v: Vec<((String, String), f64)> = m.iter().map(|(k, &b)| (k.clone(), b)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    };
    let mut text = String::new();
    if !links.is_empty() {
        let _ = writeln!(text, "hottest links:");
        let _ = writeln!(
            text,
            "  {:>4}  {:<12} {:>14}  scenario",
            "#", "link", "bytes"
        );
        for (i, ((scenario, link), bytes)) in ranked(&links).into_iter().enumerate() {
            let _ = writeln!(
                text,
                "  {:>4}  {:<12} {:>14.0}  {}",
                i + 1,
                link,
                bytes,
                scenario
            );
        }
    }
    if !flows.is_empty() {
        if !links.is_empty() {
            let _ = writeln!(text);
        }
        let _ = writeln!(text, "hottest flows:");
        let _ = writeln!(
            text,
            "  {:>4}  {:<22} {:>14}  {:>12}  scenario",
            "#", "flow", "bytes", "p99 ns"
        );
        for (i, (key, bytes)) in ranked(&flows).into_iter().enumerate() {
            let lat = p99.get(&key).map_or("-".to_string(), |l| format!("{l:.0}"));
            let _ = writeln!(
                text,
                "  {:>4}  {:<22} {:>14.0}  {:>12}  {}",
                i + 1,
                key.1,
                bytes,
                lat,
                key.0
            );
        }
    }
    out(&text)
}

/// Validates an OpenMetrics dump with the workspace linter.
fn lint_metrics(path: &str) -> Result<(), String> {
    let text = read_input(path)?;
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
        chrome: None,
        speedscope: None,
        folded: None,
        sysfs: None,
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
            "--chrome" => opts.chrome = Some(it.next().ok_or("--chrome needs a path")?.clone()),
            "--speedscope" => {
                opts.speedscope = Some(it.next().ok_or("--speedscope needs a path")?.clone())
            }
            "--folded" => opts.folded = Some(it.next().ok_or("--folded needs a path")?.clone()),
            "--sysfs" => opts.sysfs = Some(it.next().ok_or("--sysfs needs a directory")?.clone()),
            "--help" | "-h" => return Err(USAGE.to_string()),
            s if s.starts_with('-') && s != "-" => {
                return Err(format!("unknown flag {s}\n{USAGE}"))
            }
            s => positional.push(s),
        }
    }
    match positional.as_slice() {
        ["list"] => list(),
        ["show", name] => show(name),
        ["run", target] => execute(Verb::Run, target, &opts),
        ["sweep", target] => execute(Verb::Sweep, target, &opts),
        ["dse", target] => execute(Verb::Dse, target, &opts),
        ["trace", target] => inspect(View::Breakdown, target, &opts),
        ["critpath", target] => inspect(View::Critpath, target, &opts),
        ["blame", target] => inspect(View::Blame, target, &opts),
        ["top", path] => top(path),
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
