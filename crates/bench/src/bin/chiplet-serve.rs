//! `chiplet-serve` — persistent scenario-serving daemon and its clients.
//!
//! ```text
//! chiplet-serve listen [--addr A] [--workers N] [--cache-dir D | --no-cache]
//!                      [--max-pending N] [--max-client-pending N]
//!                      [--access-log F] [--recorder N]
//! chiplet-serve submit <name|file.json> [--addr A] [--client ID] [--stream]
//! chiplet-serve hammer <name|file.json> [--addr A] [--submissions N] [--clients C]
//! chiplet-serve metrics [--addr A]
//! chiplet-serve status [--addr A]
//! chiplet-serve trace [--addr A] [--out F]
//! chiplet-serve lint-log <file.jsonl>
//! ```
//!
//! `listen` boots the daemon (see [`chiplet_bench::serve`]) and blocks;
//! `submit` POSTs a built-in or file spec/sweep and prints the response
//! body — for sweeps the bytes equal `chiplet-scenario sweep --json`;
//! `hammer` fires an open-loop load test proving byte identity, cache
//! integrity, metrics hygiene, and access-log/span integrity; `metrics`
//! scrapes and lints `GET /metrics`; `status` pretty-prints the live
//! `GET /v1/status` introspection document; `trace` exports the flight
//! recorder as Chrome trace-event JSON for `chrome://tracing` / Perfetto;
//! `lint-log` checks an access-log file offline (parseable JSONL,
//! monotone timestamps, unique ids, exact phase tiling).

use std::path::PathBuf;
use std::process::ExitCode;

use chiplet_bench::scenarios::{resolve, Verb};
use chiplet_bench::serve::hammer::{hammer, HammerOptions};
use chiplet_bench::serve::{http, obs, ServeConfig, Server};
use chiplet_net::lint_openmetrics;
use chiplet_net::scenario::ScenarioKind;

const USAGE: &str = "usage: chiplet-serve <COMMAND>
commands:
  listen                    boot the daemon and block
      [--addr A]            bind address (default 127.0.0.1:8091; port 0 = ephemeral)
      [--workers N]         point-executing workers (default: one per core)
      [--cache-dir D]       shared result cache (default: results/cache)
      [--no-cache]          disable the on-disk cache
      [--max-pending N]     global queued-point cap (default 4096)
      [--max-client-pending N]  per-client cap (default 2048)
      [--access-log F]      JSONL access log, one line per request (default: off)
      [--recorder N]        flight-recorder span capacity (default 256)
  submit <name|file.json>   POST a spec, sweep or study, print the response body
      [--addr A]            daemon address (default 127.0.0.1:8091)
      [--client ID]         fair-queue identity (default: anon)
      [--stream]            sweeps and studies: stream per-point progress lines
  hammer <name|file.json>   open-loop load test against the sweep's points
      [--addr A]            attack a running daemon (default: boot in-process)
      [--submissions N]     concurrent submissions (default 1000)
      [--clients C]         simulated client identities (default 4)
      [--cache-dir D]       cache dir for the in-process daemon
  metrics                   scrape GET /metrics, lint it, print it
      [--addr A]            daemon address (default 127.0.0.1:8091)
  status                    fetch GET /v1/status, print it
      [--addr A]            daemon address (default 127.0.0.1:8091)
  trace                     export the flight recorder as Chrome trace JSON
      [--addr A]            daemon address (default 127.0.0.1:8091)
      [--out F]             write to F instead of stdout
  lint-log <file.jsonl>     lint an access-log file offline";

const DEFAULT_ADDR: &str = "127.0.0.1:8091";

struct Opts {
    addr: Option<String>,
    /// The daemon `listen` boots; its flags parse straight onto it.
    serve: ServeConfig,
    /// `--cache-dir`, when given (hammer's in-process daemon).
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    client: String,
    stream: bool,
    submissions: usize,
    clients: usize,
    out: Option<PathBuf>,
}

impl Opts {
    fn addr(&self) -> &str {
        self.addr.as_deref().unwrap_or(DEFAULT_ADDR)
    }
}

/// Resolves a CLI target: a JSON file parses as a sweep, else as a spec;
/// a name hits the registry.
fn resolve_target(target: &str) -> Result<ScenarioKind, String> {
    resolve(Verb::Sweep, target)
        .or_else(|_| resolve(Verb::Run, target))
        .map_err(|e| e.to_string())
}

fn not_served(target: &str) -> String {
    format!(
        "'{target}' is not a declarative spec, sweep or study; the daemon \
         serves those only (run searches with `chiplet-scenario dse`)"
    )
}

fn listen(opts: &Opts) -> Result<(), String> {
    let mut cfg = ServeConfig {
        addr: opts.addr().into(),
        ..opts.serve.clone()
    };
    if opts.cache_dir.is_some() {
        cfg.cache_dir = opts.cache_dir.clone();
    }
    if opts.no_cache {
        cfg.cache_dir = None;
    }
    let server = Server::spawn(cfg).map_err(|e| format!("binding: {e}"))?;
    println!("listening on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Block forever; ^C tears the process (and with it the daemon) down.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn submit(target: &str, opts: &Opts) -> Result<(), String> {
    let addr = opts.addr();
    let client: String = opts.client.chars().take(64).collect();
    let stream = if opts.stream { "&stream=1" } else { "" };
    let (route, body) = match resolve_target(target)? {
        ScenarioKind::Spec(spec) => (format!("/v1/run?client={client}"), Some(spec.to_json())),
        ScenarioKind::Sweep(sweep) => (
            format!("/v1/sweep?client={client}{stream}"),
            Some(sweep.to_json()),
        ),
        // A study has no body form: the daemon builds its points by name.
        ScenarioKind::Study { name, .. } => (
            format!("/v1/sweep?name={name}&client={client}{stream}"),
            None,
        ),
        ScenarioKind::Dse(_) => return Err(not_served(target)),
    };
    let (status, text) = http::fetch(addr, "POST", &route, body.as_deref())
        .map_err(|e| format!("POST {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("daemon answered {status}: {}", text.trim_end()));
    }
    print!("{text}");
    Ok(())
}

fn run_hammer(target: &str, opts: &Opts) -> Result<(), String> {
    let sweep = match resolve_target(target)? {
        ScenarioKind::Sweep(sweep) => sweep,
        ScenarioKind::Dse(_) => return Err(not_served(target)),
        kind => {
            return Err(format!(
                "'{target}' is a {}; hammer needs a sweep to cycle points from",
                kind.kind()
            ))
        }
    };
    let report = hammer(
        &sweep,
        &HammerOptions {
            submissions: opts.submissions,
            clients: opts.clients,
            addr: opts.addr.clone(),
            cache_dir: opts.cache_dir.clone(),
        },
    )?;
    eprintln!("{}", report.summary());
    for e in &report.metrics_errors {
        eprintln!("metrics: {e}");
    }
    for e in &report.log_errors {
        eprintln!("access-log: {e}");
    }
    if report.ok() {
        Ok(())
    } else {
        Err("hammer found divergence (see summary above)".into())
    }
}

/// `GET route` on the daemon; anything but a 200 is an error.
fn get(opts: &Opts, route: &str) -> Result<String, String> {
    let addr = opts.addr();
    let (status, text) =
        http::fetch(addr, "GET", route, None).map_err(|e| format!("GET {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("daemon answered {status}"));
    }
    Ok(text)
}

fn metrics(opts: &Opts) -> Result<(), String> {
    let text = get(opts, "/metrics")?;
    lint_openmetrics(&text).map_err(|errs| errs.join("\n"))?;
    print!("{text}");
    eprintln!("metrics: OK ({} lines)", text.lines().count());
    Ok(())
}

fn trace(opts: &Opts) -> Result<(), String> {
    let text = get(opts, "/v1/trace")?;
    // Refuse to write a file Perfetto would reject.
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("daemon sent invalid trace JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_seq())
        .ok_or("daemon sent a trace without traceEvents")?
        .len();
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!(
                "wrote {} trace events to {} (open in chrome://tracing or ui.perfetto.dev)",
                events,
                path.display()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn lint_log(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    match obs::lint_access_log(&text) {
        Ok(records) => {
            eprintln!(
                "{path}: OK ({} request(s), all spans tile exactly)",
                records.len()
            );
            Ok(())
        }
        Err(errors) => Err(errors.join("\n")),
    }
}

fn num_arg(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    it.next()
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} needs a number"))
}

fn dispatch() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut opts = Opts {
        addr: None,
        serve: ServeConfig::default(),
        cache_dir: None,
        no_cache: false,
        client: "anon".into(),
        stream: false,
        submissions: 1000,
        clients: 4,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                opts.addr = Some(it.next().ok_or("--addr needs a value")?.clone());
            }
            "--workers" => opts.serve.workers = num_arg(&mut it, "--workers")?,
            "--no-cache" => opts.no_cache = true,
            "--cache-dir" => {
                opts.cache_dir = Some(PathBuf::from(it.next().ok_or("--cache-dir needs a value")?));
            }
            "--max-pending" => opts.serve.max_pending = num_arg(&mut it, "--max-pending")?,
            "--max-client-pending" => {
                opts.serve.max_client_pending = num_arg(&mut it, "--max-client-pending")?;
            }
            "--client" => {
                opts.client = it.next().ok_or("--client needs a value")?.clone();
            }
            "--stream" => opts.stream = true,
            "--submissions" => opts.submissions = num_arg(&mut it, "--submissions")?,
            "--clients" => opts.clients = num_arg(&mut it, "--clients")?,
            "--access-log" => {
                opts.serve.access_log = Some(PathBuf::from(
                    it.next().ok_or("--access-log needs a value")?,
                ));
            }
            "--recorder" => opts.serve.recorder = num_arg(&mut it, "--recorder")?,
            "--out" => {
                opts.out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            s if s.starts_with('-') => return Err(format!("unknown flag {s}\n{USAGE}")),
            s => positional.push(s),
        }
    }
    match positional.as_slice() {
        ["listen"] => listen(&opts),
        ["submit", target] => submit(target, &opts),
        ["hammer", target] => run_hammer(target, &opts),
        ["metrics"] => metrics(&opts),
        ["status"] => get(&opts, "/v1/status").map(|text| print!("{text}")),
        ["trace"] => trace(&opts),
        ["lint-log", file] => lint_log(file),
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
