//! `chiplet-trace` — the span-trace inspection utility (§4 #1/#5).
//!
//! Runs a named traffic scenario with span-level hop tracing on and prints
//! the per-hop latency breakdown, a per-flow critical-path decomposition
//! (`critpath`), or the cross-flow blame matrix (`blame`); exports the raw
//! spans as Chrome trace-event JSON (loadable in `chrome://tracing` /
//! ui.perfetto.dev), speedscope profiles, folded flamegraph stacks, and/or
//! the `/proc/chiplet-net` sysfs tree with per-link time series.
//!
//! ```text
//! chiplet-trace [critpath|blame] [SCENARIO] [--platform 7302|9634]
//!               [--sampling N] [--horizon US] [--window US] [--json]
//!               [--chrome FILE] [--speedscope FILE] [--folded FILE]
//!               [--sysfs DIR] [--seed N]
//! ```
//!
//! Scenarios: `ccd-read` (default), `near-chase`, `two-flows`, `cxl-read`,
//! `socket-read`, and `fig3` (the Figure 3 loaded-latency traffic: CCD 0
//! reading all DIMMs — the trace-enabled analog of the fig3 study's GMI
//! panel). Each is compiled to a declarative
//! [`ScenarioSpec`](chiplet_net::scenario::ScenarioSpec) and executed
//! through the event backend (`--spec` prints the JSON instead of running).
//! All `critpath`/`blame` output is a pure function of the spans: byte-
//! deterministic for a given scenario, seed, and sampling rate.

use std::process::ExitCode;

use chiplet_mem::{OpKind, Pattern};
use chiplet_net::critpath::{point_names, to_speedscope, CritPathReport};
use chiplet_net::export_sysfs;
use chiplet_net::scenario::{
    BackendKind, CoreSelect, EngineFlow, EngineOptions, EventEngineBackend, ScenarioFlow,
    ScenarioSpec, TargetSpec, TopologyChoice,
};
use chiplet_sim::{SimDuration, SimTime};
use chiplet_topology::descriptor::ChipletNetDescriptor;
use chiplet_topology::{CoreId, DimmPosition, PlatformSpec, Topology};

const USAGE: &str = "usage: chiplet-trace [critpath|blame] [SCENARIO] [--platform 7302|9634] \
[--sampling N] [--horizon US] [--window US] [--json] [--chrome FILE] [--speedscope FILE] \
[--folded FILE] [--sysfs DIR] [--seed N] [--spec]
       chiplet-trace top <METRICS|->   (hottest links/flows from an OpenMetrics dump)
scenarios: ccd-read (default), near-chase, two-flows, cxl-read, socket-read, fig3";

/// What the run prints: the classic per-hop-class breakdown, the per-flow
/// critical-path decomposition, or the cross-flow blame matrix.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Breakdown,
    Critpath,
    Blame,
}

struct Args {
    mode: Mode,
    scenario: String,
    platform: String,
    sampling: u32,
    horizon_us: u64,
    window_us: u64,
    json: bool,
    chrome: Option<String>,
    speedscope: Option<String>,
    folded: Option<String>,
    sysfs: Option<String>,
    seed: u64,
    print_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Breakdown,
        scenario: "ccd-read".to_string(),
        platform: "7302".to_string(),
        sampling: 1,
        horizon_us: 40,
        window_us: 2,
        json: false,
        chrome: None,
        speedscope: None,
        folded: None,
        sysfs: None,
        seed: 42,
        print_spec: false,
    };
    let mut it = argv.iter().cloned();
    let mut positionals = 0usize;
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--platform" => args.platform = value("--platform")?,
            "--sampling" => {
                args.sampling = value("--sampling")?
                    .parse()
                    .map_err(|e| format!("--sampling: {e}"))?
            }
            "--horizon" => {
                args.horizon_us = value("--horizon")?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?
            }
            "--window" => {
                args.window_us = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?
            }
            "--json" => args.json = true,
            "--chrome" => args.chrome = Some(value("--chrome")?),
            "--speedscope" => args.speedscope = Some(value("--speedscope")?),
            "--folded" => args.folded = Some(value("--folded")?),
            "--sysfs" => args.sysfs = Some(value("--sysfs")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--spec" => args.print_spec = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            "critpath" if positionals == 0 && args.mode == Mode::Breakdown => {
                args.mode = Mode::Critpath;
            }
            "blame" if positionals == 0 && args.mode == Mode::Breakdown => {
                args.mode = Mode::Blame;
            }
            s if !s.starts_with('-') => {
                args.scenario = s.to_string();
                positionals += 1;
            }
            s => return Err(format!("unknown flag {s}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn flow(name: &str, cores: CoreSelect, target: TargetSpec) -> ScenarioFlow {
    ScenarioFlow {
        name: name.to_string(),
        demand: None,
        engine: Some(EngineFlow {
            cores,
            nic: None,
            target,
            op: None,
            pattern: None,
            working_set: None,
            start: None,
            stop: None,
        }),
        links: Vec::new(),
    }
}

/// The scenario's flows; errors on a scenario/platform mismatch.
fn flows(
    platform: &PlatformSpec,
    topo: &Topology,
    scenario: &str,
) -> Result<Vec<ScenarioFlow>, String> {
    Ok(match scenario {
        "ccd-read" => vec![flow("ccd0-read", CoreSelect::Ccd(0), TargetSpec::AllDimms)],
        "near-chase" => {
            let dimm = topo
                .dimm_at_position(CoreId(0), DimmPosition::Near)
                .ok_or("platform has no near DIMM")?;
            let mut f = flow(
                "near-chase",
                CoreSelect::Cores(vec![0]),
                TargetSpec::Dimms(vec![dimm.0]),
            );
            f.engine.as_mut().expect("engine mapping set").pattern = Some(Pattern::PointerChase);
            f.engine.as_mut().expect("engine mapping set").op = Some(OpKind::Read);
            vec![f]
        }
        "two-flows" => {
            let mut w = flow("ccx1-write", CoreSelect::Ccx(1), TargetSpec::AllDimms);
            w.engine.as_mut().expect("engine mapping set").op = Some(OpKind::WriteNonTemporal);
            vec![
                flow("ccx0-read", CoreSelect::Ccx(0), TargetSpec::AllDimms),
                w,
            ]
        }
        "cxl-read" => {
            if platform.cxl.is_none() {
                return Err("cxl-read needs a CXL platform (use --platform 9634)".into());
            }
            vec![flow("cxl-read", CoreSelect::Ccd(0), TargetSpec::Cxl(0))]
        }
        "socket-read" => vec![flow("socket-read", CoreSelect::All, TargetSpec::AllDimms)],
        // The Figure 3 loaded-latency traffic (CCD 0 reading every DIMM),
        // trace-enabled. The fig3 registry entry is a study (it renders
        // text panels, no spans), so attribution runs this representative
        // spec instead — same flow shape as the study's GMI panel.
        "fig3" => vec![flow(
            "fig3-gmi-read",
            CoreSelect::Ccd(0),
            TargetSpec::AllDimms,
        )],
        s => return Err(format!("unknown scenario {s}\n{USAGE}")),
    })
}

/// Renders the `top` view: hottest links and flows of a metrics dump.
///
/// Links rank by `chiplet_link_bytes_total` summed over direction; flows
/// rank by `chiplet_flow_bytes_total` + `fluid_flow_bytes_total`, with the
/// P99 latency pulled from the `chiplet_flow_latency_ns` summary when the
/// event engine measured one.
fn render_top(text: &str) -> Result<String, String> {
    use std::collections::BTreeMap;
    use std::fmt::Write;

    let samples = chiplet_net::parse_openmetrics(text)?;
    let qualifier = |s: &chiplet_net::metrics::MetricSample| {
        s.label("scenario").unwrap_or_default().to_string()
    };
    let mut links: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut flows: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut p99: BTreeMap<(String, String), f64> = BTreeMap::new();
    for s in &samples {
        match s.name.as_str() {
            "chiplet_link_bytes_total" => {
                let Some(link) = s.label("link_id") else {
                    continue;
                };
                *links.entry((qualifier(s), link.to_string())).or_default() += s.value;
            }
            "chiplet_flow_bytes_total" | "fluid_flow_bytes_total" => {
                let Some(flow) = s.label("flow") else {
                    continue;
                };
                *flows.entry((qualifier(s), flow.to_string())).or_default() += s.value;
            }
            "chiplet_flow_latency_ns" if s.label("quantile") == Some("0.99") => {
                if let Some(flow) = s.label("flow") {
                    p99.insert((qualifier(s), flow.to_string()), s.value);
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
    let mut out = String::new();
    if !links.is_empty() {
        let _ = writeln!(out, "hottest links:");
        let _ = writeln!(
            out,
            "  {:>4}  {:<12} {:>14}  scenario",
            "#", "link", "bytes"
        );
        for (i, ((scenario, link), bytes)) in ranked(&links).into_iter().enumerate() {
            let _ = writeln!(
                out,
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
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "hottest flows:");
        let _ = writeln!(
            out,
            "  {:>4}  {:<22} {:>14}  {:>12}  scenario",
            "#", "flow", "bytes", "p99 ns"
        );
        for (i, (key, bytes)) in ranked(&flows).into_iter().enumerate() {
            let lat = p99.get(&key).map_or("-".to_string(), |l| format!("{l:.0}"));
            let _ = writeln!(
                out,
                "  {:>4}  {:<22} {:>14.0}  {:>12}  {}",
                i + 1,
                key.1,
                bytes,
                lat,
                key.0
            );
        }
    }
    Ok(out)
}

fn run_top(path: &str) -> Result<(), String> {
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
    print!("{}", render_top(&text)?);
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("top") {
        let path = argv
            .get(1)
            .ok_or_else(|| format!("top needs a metrics file (or -)\n{USAGE}"))?;
        return run_top(path);
    }
    let args = parse_args(&argv)?;
    let platform_name = match args.platform.as_str() {
        "7302" => "epyc_7302",
        "9634" => "epyc_9634",
        p => return Err(format!("unknown platform {p} (7302 or 9634)")),
    };
    let topology = TopologyChoice::Named(platform_name.to_string());
    let platform = topology.platform().map_err(|e| e.to_string())?;
    let topo = Topology::build(&platform);
    let spec = ScenarioSpec {
        name: format!("chiplet-trace {}", args.scenario),
        description: "Span-trace inspection run".to_string(),
        topology,
        backend: BackendKind::Event,
        seed: Some(args.seed),
        horizon: SimTime::from_micros(args.horizon_us.max(5)),
        policy: Default::default(),
        engine: Some(EngineOptions {
            trace_window: Some(SimDuration::from_micros(args.window_us.max(1))),
            trace_sampling: Some(args.sampling.max(1)),
            ..Default::default()
        }),
        fluid: None,
        flows: flows(&platform, &topo, &args.scenario)?,
    };
    if args.print_spec {
        println!("{}", spec.to_json());
        return Ok(());
    }
    let (result, topo) = EventEngineBackend::run_raw(&spec).map_err(|e| e.to_string())?;
    let trace = result.trace.as_ref().expect("tracing was on");
    let names: Vec<String> = result.flows.iter().map(|f| f.name.clone()).collect();
    let points = point_names(&topo);

    match args.mode {
        Mode::Breakdown => {
            println!(
                "scenario {} on {} — horizon {} µs, sampling 1-in-{}\n",
                args.scenario,
                topo.spec().name,
                args.horizon_us.max(5),
                args.sampling.max(1),
            );
            for f in &result.flows {
                println!(
                    "flow {:<12} achieved {:>8.2} GB/s  mean {:>8.2} ns  p999 {:>8.2} ns",
                    f.name,
                    f.achieved.as_gb_per_s(),
                    f.mean_latency_ns(),
                    f.p999_latency_ns(),
                );
            }
            println!("\n{}", trace.breakdown_table());

            if let Some(b) = result.telemetry.bottleneck() {
                println!(
                    "bottleneck: {:?} (util read {:.2} write {:.2})",
                    b.point, b.read.utilization, b.write.utilization
                );
            }
        }
        Mode::Critpath | Mode::Blame => {
            let report = CritPathReport::from_trace(trace, &names, &points);
            if args.json {
                println!("{}", report.to_json());
            } else if args.mode == Mode::Critpath {
                println!(
                    "critical paths: {} on {} — sampling 1-in-{}\n",
                    args.scenario,
                    topo.spec().name,
                    args.sampling.max(1),
                );
                print!("{}", report.flows_table());
            } else {
                println!(
                    "blame matrix: {} on {} — sampling 1-in-{}\n",
                    args.scenario,
                    topo.spec().name,
                    args.sampling.max(1),
                );
                print!("{}", report.blame_table());
            }
        }
    }

    if let Some(path) = &args.chrome {
        std::fs::write(path, trace.to_chrome_trace(&names))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote Chrome trace JSON to {path} (load in ui.perfetto.dev)");
    }
    if let Some(path) = &args.speedscope {
        std::fs::write(path, to_speedscope(trace, &names, &points))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote speedscope profile to {path} (load in speedscope.app)");
    }
    if let Some(path) = &args.folded {
        let report = CritPathReport::from_trace(trace, &names, &points);
        std::fs::write(path, report.to_folded()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote folded flamegraph stacks to {path}");
    }
    if let Some(dir) = &args.sysfs {
        let desc = ChipletNetDescriptor::from_topology(&topo);
        export_sysfs(&desc, &result.telemetry, std::path::Path::new(dir))
            .map_err(|e| format!("exporting {dir}: {e}"))?;
        println!("exported sysfs/procfs tree under {dir}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
