//! End-to-end benchmark of the chiplet toolchain.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_cold|dse_search|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints the host stamp, every metric with
//! its unit and sample count, the exact simulated-work counts, and, as the
//! last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md` for the workloads.

mod batch;
mod pipeline;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::{Accounting, Tracer};

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. `_ms` / `_s` are self
/// time per repetition (per request on `serve_mix`), `_us` the mean of one
/// call.
const PER_LAYER: &[(&str, &str)] = &[
    ("traced_wall_ms", "ms"),
    ("unaccounted_ms", "ms"),
    ("trace_overhead_ms", "ms"),
    ("fail_frac", "ratio"),
    ("lat_p50_ms.low", "ms"),
    ("lat_p50_ms.mid", "ms"),
    ("lat_p50_ms.high", "ms"),
    ("lat_p99_ms.low", "ms"),
    ("lat_p99_ms.mid", "ms"),
    ("lat_p99_ms.high", "ms"),
    ("max_rate_rps", "req/s"),
    ("sweep.expand_ms", "ms"),
    ("sweep.hash_ms", "ms"),
    ("sweep.pool_ms", "ms"),
    ("sweep.point_ms", "ms"),
    ("cache.probe_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("topology.resolve_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.issue_s", "s"),
    ("engine.stage_s", "s"),
    ("engine.granted_s", "s"),
    ("engine.complete_s", "s"),
    ("engine.reset_s", "s"),
    ("engine.policy_s", "s"),
    ("engine.demand_s", "s"),
    ("report.point_json_ms", "ms"),
    ("fluid.run_ms", "ms"),
    ("report.json_ms", "ms"),
    ("metrics.encode_ms", "ms"),
    ("dse.expand_ms", "ms"),
    ("dse.pool_ms", "ms"),
    ("dse.candidate_ms", "ms"),
    ("dse.topology_ms", "ms"),
    ("dse.estimate_ms", "ms"),
    ("dse.pareto_ms", "ms"),
    ("dse.escalate_ms", "ms"),
    ("gen.wait_ms", "ms"),
    ("gen.late_ms", "ms"),
    ("client.http_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.probe_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("sweep.hash_us", "us"),
    ("cache.probe_us", "us"),
    ("cache.store_us", "us"),
    ("topology.resolve_us", "us"),
    ("engine.plan_us", "us"),
    ("dse.topology_us", "us"),
    ("dse.estimate_us", "us"),
    ("serve.parse_us.p50", "us"),
    ("serve.parse_us.p99", "us"),
    ("serve.admit_us.p50", "us"),
    ("serve.admit_us.p99", "us"),
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.p99", "us"),
    ("serve.probe_us.p50", "us"),
    ("serve.probe_us.p99", "us"),
    ("serve.exec_us.p50", "us"),
    ("serve.exec_us.p99", "us"),
    ("serve.respond_us.p50", "us"),
    ("serve.respond_us.p99", "us"),
    ("cache.hit_ratio", "ratio"),
    ("fluid.alloc_memo_hit_ratio", "ratio"),
    ("sweep.pool_busy_frac", "ratio"),
    ("dse.pool_busy_frac", "ratio"),
    ("dse.frontier_ratio", "ratio"),
    ("dse.infeasible_ratio", "ratio"),
    ("serve.dedup_ratio", "ratio"),
    ("engine.txn", "count"),
    ("engine.events", "count"),
    ("engine.ns_per_txn", "ns"),
    ("engine.ns_per_event", "ns"),
    ("dse.candidates", "count"),
    ("dse.frontier", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.backlog_max", "count"),
];

/// The per-layer metric families (name prefixes) each workload enters. A
/// traced run that lacks a metric of a family its workload enters failed
/// to measure it, and that counts as a failed operation. Every other
/// metric of [`PER_LAYER`] belongs to a layer the workload never enters;
/// the JSON line, which carries the whole list, gives it 0.
const ENTERS: [(&str, &[&str]); 3] = [
    (
        "sweep_cold",
        &[
            "traced_wall_ms",
            "unaccounted_ms",
            "trace_overhead_ms",
            "fail_frac",
            "sweep.",
            "cache.",
            "topology.",
            "engine.",
            "report.",
            "fluid.",
            "metrics.",
        ],
    ),
    (
        "dse_search",
        &[
            "traced_wall_ms",
            "unaccounted_ms",
            "trace_overhead_ms",
            "fail_frac",
            "sweep.pool",
            "sweep.point",
            "cache.",
            "topology.",
            "engine.",
            "report.",
            "dse.",
        ],
    ),
    (
        "serve_mix",
        &[
            "traced_wall_ms",
            "unaccounted_ms",
            "trace_overhead_ms",
            "fail_frac",
            "lat_",
            "max_rate_rps",
            "gen.",
            "client.",
            "serve.",
            "cache.hit_ratio",
        ],
    ),
];

/// True when `workload` enters the layer of per-layer `metric`.
fn enters(workload: &str, metric: &str) -> bool {
    ENTERS
        .iter()
        .filter(|(w, _)| *w == workload)
        .flat_map(|(_, families)| families.iter())
        .any(|f| metric.starts_with(f))
}

/// Layers whose mean call duration is reported as `<layer>_us`.
const PER_CALL: [&str; 7] = [
    "sweep.hash",
    "cache.probe",
    "cache.store",
    "topology.resolve",
    "engine.plan",
    "dse.topology",
    "dse.estimate",
];

/// What a workload runs with.
pub struct Ctx {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Private scratch directory, removed when the run ends.
    pub work: PathBuf,
    /// Sweep and DSE jobs, serve workers, client connections: `nproc`.
    pub jobs: usize,
    /// Workload name.
    pub workload: String,
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    /// A value of `unit` measured over `samples` samples.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed, were refused or returned wrong output.
    pub failed: u64,
    /// What failed (first few kept).
    failures: Vec<String>,
    /// Informational lines.
    notes: Vec<String>,
    /// Exact simulated-work counts.
    counts: Vec<(String, u64)>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics: the JSON line of a traced run; printed on every
    /// run.
    pub layers: Vec<Metric>,
}

impl Report {
    /// Records one failed operation.
    pub fn fail(&mut self, what: String) {
        self.fail_n(1, what);
    }

    /// Records `n` failed operations.
    pub fn fail_n(&mut self, n: usize, what: String) {
        self.failed += n as u64;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    /// Adds an informational line.
    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    /// Records an exact count.
    pub fn count(&mut self, name: &str, v: u64) {
        self.counts.push((name.to_string(), v));
    }

    /// Writes the recorded spans to `.perfbench_out/`.
    pub fn write_spans(&mut self, ctx: &Ctx, tr: &Tracer) -> Result<(), String> {
        let dir = PathBuf::from(".perfbench_out");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-seed{}.spans.jsonl", ctx.workload, ctx.seed));
        std::fs::write(&path, trace::to_jsonl(&tr.spans())).map_err(|e| e.to_string())?;
        self.note(format!("spans written to {}", path.display()));
        Ok(())
    }
}

/// The self-time metrics of every layer in `acc`, per repetition, plus
/// the per-call means, the traced wall time and the unaccounted rest.
pub fn layer_metrics(acc: &Accounting, reps: f64) -> Vec<Metric> {
    let n = reps as usize;
    let mut m = vec![
        Metric::new("traced_wall_ms", acc.wall_ms / reps, "ms", n),
        Metric::new("unaccounted_ms", acc.unaccounted_ms / reps, "ms", n),
    ];
    for (&layer, &ms) in &acc.self_ms {
        let calls = acc.calls[layer].0 as usize;
        if pipeline::HANDLER_CLASSES.iter().any(|(_, l)| *l == layer) {
            m.push(Metric::new(
                &format!("{layer}_s"),
                ms / reps / 1e3,
                "s",
                calls,
            ));
        } else {
            m.push(Metric::new(&format!("{layer}_ms"), ms / reps, "ms", calls));
        }
    }
    for layer in PER_CALL {
        if let Some(&(calls, _)) = acc.calls.get(layer) {
            m.push(Metric::new(
                &format!("{layer}_us"),
                acc.mean_us(layer),
                "us",
                calls as usize,
            ));
        }
    }
    m
}

const USAGE: &str = "usage: perfbench --workload sweep_cold|dse_search|serve_mix \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !["sweep_cold", "dse_search", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .ok_or("--seconds must be a number in (0, 600]")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Ctx {
        seed,
        seconds,
        trace,
        work,
        jobs: stats::nproc(),
        workload,
    })
}

/// A JSON number; a value that is not finite (a failed measurement) is
/// written as the largest double, never as a fake good value.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn print_result(ctx: &Ctx, mut report: Report) {
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    let attempted = report.attempted as usize;
    report
        .layers
        .push(Metric::new("fail_frac", fail_frac, "ratio", attempted));
    // The contract line: end-to-end metrics untraced, per-layer traced. A
    // metric the workload should have measured but did not, or measured
    // as no number, is a failed operation, never a fake good value.
    let (wanted, got): (&[(&str, &str)], &[Metric]) = if ctx.trace {
        (PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &report.e2e)
    };
    let mut metrics = String::new();
    let mut missing = Vec::new();
    let mut not_entered = Vec::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match got.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => m.value,
            Some(_) => {
                missing.push(format!("metric {name} measured no finite value"));
                f64::NAN
            }
            None if ctx.trace && !enters(&ctx.workload, name) => {
                not_entered.push(*name);
                0.0
            }
            None => {
                missing.push(format!("metric {name} was not measured"));
                f64::NAN
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        );
    }
    for m in got {
        if !wanted.iter().any(|(n, _)| *n == m.name) {
            eprintln!("warning: metric {} is not in the benchmark's list", m.name);
        }
    }
    report.attempted += missing.len() as u64;
    for what in missing {
        report.fail(what);
    }
    if !not_entered.is_empty() {
        report.note(format!(
            "layers this workload never enters, 0 in the JSON line: {}",
            not_entered.join(", ")
        ));
    }

    println!("{}", stats::host_stamp());
    println!(
        "workload={} seed={} seconds={} trace={} jobs={}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8, ctx.jobs
    );
    for m in report.e2e.iter().chain(&report.layers) {
        println!(
            "metric {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for (name, v) in &report.counts {
        println!("count {name} = {v} (exact)");
    }
    for n in &report.notes {
        println!("note {n}");
    }
    for f in &report.failures {
        println!("FAILED {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let ticks = stats::cpu_ticks();
    let result = match ctx.workload.as_str() {
        "sweep_cold" => batch::sweep_cold(&ctx),
        "dse_search" => batch::dse_search(&ctx),
        _ => serve::serve_mix(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".perfbench_work");
    match result {
        Ok(mut report) => {
            let (steal, total) = stats::cpu_ticks();
            let share = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
            report.note(format!(
                "host CPU stolen by the hypervisor during the run: {share:.4}"
            ));
            print_result(&ctx, report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
