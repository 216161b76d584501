//! Open-loop load-test client for the serving daemon.
//!
//! [`hammer`] fires N concurrent single-point submissions (one thread per
//! submission, released together — open loop, no pacing) from C simulated
//! client identities at a daemon, then proves three things:
//!
//! 1. **Byte identity** — every response equals the batch runner's report
//!    for that point, and the outcome assembled from the responses equals
//!    `chiplet-scenario sweep --json` byte for byte;
//! 2. **Cache integrity** — the shared cache directory holds no torn or
//!    unparseable entries and no leftover temp files;
//! 3. **Observability** — `GET /metrics` passes the workspace OpenMetrics
//!    linter and carries the per-client served-points series;
//! 4. **Span integrity** — the daemon runs with its access log on: after
//!    the load, the log must lint clean (parseable JSONL, monotone
//!    timestamps, unique ids), every successful submission's
//!    `X-Request-Id` must appear in it exactly once (no dropped or
//!    duplicated lines), every span's phase durations must sum *exactly*
//!    to its end-to-end time, and `GET /v1/status` / `GET /v1/trace`
//!    must serve valid documents.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use chiplet_net::lint_openmetrics;
use chiplet_net::scenario::{load_cache_entry, CacheLookup, SweepOutcome, SweepRunner, SweepSpec};

use super::{http, obs, ServeConfig, Server};

/// Load-test shape.
#[derive(Debug, Clone)]
pub struct HammerOptions {
    /// Concurrent submissions (threads) to fire.
    pub submissions: usize,
    /// Simulated client identities (`client0` … `clientC-1`).
    pub clients: usize,
    /// Attack an external daemon instead of booting one in-process.
    pub addr: Option<String>,
    /// Cache directory for the in-process daemon; `None` = fresh temp dir.
    pub cache_dir: Option<PathBuf>,
}

impl Default for HammerOptions {
    fn default() -> Self {
        HammerOptions {
            submissions: 1000,
            clients: 4,
            addr: None,
            cache_dir: None,
        }
    }
}

/// What the hammer found.
#[derive(Debug)]
pub struct HammerReport {
    /// Submissions fired.
    pub submissions: usize,
    /// Client identities used.
    pub clients: usize,
    /// Unique sweep points cycled through.
    pub unique_points: usize,
    /// Responses that did not match the batch runner's bytes.
    pub mismatches: usize,
    /// Submissions that never got a 200 (after retries).
    pub failures: usize,
    /// Torn/unparseable cache entries plus leftover temp files.
    pub torn_entries: usize,
    /// `GET /metrics` / `GET /v1/status` / `GET /v1/trace` errors
    /// (empty = clean).
    pub metrics_errors: Vec<String>,
    /// Access-log lint errors plus dropped/duplicated request-id findings
    /// (empty = clean; always empty against an external daemon, whose log
    /// file is out of reach).
    pub log_errors: Vec<String>,
    /// Logged spans whose phase durations did not sum exactly to their
    /// end-to-end time.
    pub span_violations: usize,
    /// Wall-clock of the submission phase.
    pub wall: Duration,
}

impl HammerReport {
    /// True when every check passed.
    pub fn ok(&self) -> bool {
        self.mismatches == 0
            && self.failures == 0
            && self.torn_entries == 0
            && self.metrics_errors.is_empty()
            && self.log_errors.is_empty()
            && self.span_violations == 0
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "hammer: {} submissions from {} clients over {} unique points in {:.2?}: \
             {} mismatches, {} failures, {} torn cache entries, metrics {}, \
             access log {}, {} span tiling violations",
            self.submissions,
            self.clients,
            self.unique_points,
            self.wall,
            self.mismatches,
            self.failures,
            self.torn_entries,
            if self.metrics_errors.is_empty() {
                "clean".to_string()
            } else {
                format!("DIRTY ({} errors)", self.metrics_errors.len())
            },
            if self.log_errors.is_empty() {
                "clean".to_string()
            } else {
                format!("DIRTY ({} errors)", self.log_errors.len())
            },
            self.span_violations,
        )
    }
}

/// POSTs one point with retries: 429s and connect failures back off and
/// retry (the whole purpose is to slam the admission path), anything else
/// is a failure. Returns the daemon-assigned `X-Request-Id` (when present)
/// alongside the body, so the caller can audit the access log.
fn submit_point(addr: &str, client: &str, body: &str) -> Result<(Option<String>, String), String> {
    let mut last = String::new();
    for attempt in 0..4000 {
        match http::fetch_with_headers(
            addr,
            "POST",
            &format!("/v1/run?client={client}"),
            Some(body),
        ) {
            Ok((200, headers, text)) => {
                let rid = http::header(&headers, "x-request-id").map(str::to_string);
                return Ok((rid, text));
            }
            Ok((429, _, _)) => {
                std::thread::sleep(Duration::from_millis(2 + (attempt % 7)));
            }
            Ok((status, _, text)) => return Err(format!("status {status}: {text}")),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    Err(format!("gave up after retries: {last}"))
}

/// Runs the load test. See the module docs for what is verified.
pub fn hammer(sweep: &SweepSpec, opts: &HammerOptions) -> Result<HammerReport, String> {
    let points = sweep.expand().map_err(|e| e.to_string())?;
    if points.is_empty() {
        return Err("sweep expands to zero points".into());
    }

    // The reference: the batch runner, no cache — the bytes the CLI prints.
    let (reference, _) = SweepRunner::with_jobs(0)
        .run(sweep)
        .map_err(|e| e.to_string())?;
    let expected: Vec<String> = reference
        .points
        .iter()
        .map(|p| format!("{}\n", p.report.to_json()))
        .collect();

    // Boot an in-process daemon unless aimed at an external one. The
    // in-process daemon always runs with the access log and flight
    // recorder on — the hammer's whole point is proving them under load.
    let mut scratch: Option<PathBuf> = None;
    let mut access_path: Option<PathBuf> = None;
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let (server, addr) = match &opts.addr {
        Some(a) => (None, a.clone()),
        None => {
            let dir = opts.cache_dir.clone().unwrap_or_else(|| {
                let d = std::env::temp_dir().join(format!(
                    "chiplet-serve-hammer-{}-{nonce:x}",
                    std::process::id()
                ));
                scratch = Some(d.clone());
                d
            });
            let log = std::env::temp_dir().join(format!(
                "chiplet-serve-hammer-access-{}-{nonce:x}.jsonl",
                std::process::id()
            ));
            access_path = Some(log.clone());
            let server = Server::spawn(ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers: 0,
                cache_dir: Some(dir),
                max_pending: opts.submissions + points.len() + 16,
                max_client_pending: opts.submissions + points.len() + 16,
                access_log: Some(log),
                recorder: 1024,
            })
            .map_err(|e| format!("booting daemon: {e}"))?;
            let addr = server.addr().to_string();
            (Some(server), addr)
        }
    };

    let bodies: Vec<String> = points.iter().map(|p| p.spec.to_json()).collect();
    let clients = opts.clients.max(1);
    let start = Barrier::new(opts.submissions);
    let mismatches = AtomicUsize::new(0);
    let failures = AtomicUsize::new(0);
    let request_ids: Mutex<Vec<String>> = Mutex::new(Vec::with_capacity(opts.submissions));
    let missing_rid = AtomicUsize::new(0);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(opts.submissions);
        for i in 0..opts.submissions {
            let (addr, start) = (&addr, &start);
            let (bodies, expected) = (&bodies, &expected);
            let (mismatches, failures) = (&mismatches, &failures);
            let (request_ids, missing_rid) = (&request_ids, &missing_rid);
            let h = std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(scope, move || {
                    let p = i % bodies.len();
                    let client = format!("client{}", i % clients);
                    start.wait();
                    match submit_point(addr, &client, &bodies[p]) {
                        Ok((rid, body)) => {
                            if body != expected[p] {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                            match rid {
                                Some(rid) => request_ids
                                    .lock()
                                    .expect("request id lock poisoned")
                                    .push(rid),
                                None => {
                                    missing_rid.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
                .expect("spawn submission thread");
            handles.push(h);
        }
        for h in handles {
            let _ = h.join();
        }
    });
    let wall = started.elapsed();
    let request_ids = request_ids.into_inner().expect("request id lock poisoned");

    // Assemble the aggregate from one served response per point and compare
    // it, byte for byte, against the batch runner's outcome.
    let mut mismatch_total = mismatches.load(Ordering::Relaxed);
    match assemble_outcome(&addr, sweep) {
        Ok(assembled) => {
            if assembled != format!("{}\n", reference.to_json()) {
                mismatch_total += 1;
            }
        }
        Err(_) => {
            mismatch_total += 1;
        }
    }

    // Metrics must lint and carry the per-client families, including the
    // new wall-clock span histograms.
    let mut metrics_errors = match http::fetch(&addr, "GET", "/metrics", None) {
        Ok((200, text)) => {
            let mut errs = lint_openmetrics(&text).err().unwrap_or_default();
            if !text.contains("chiplet_serve_client_points_total{") {
                errs.push("missing chiplet_serve_client_points series".into());
            }
            if !text.contains("chiplet_serve_cache_hits_total") {
                errs.push("missing chiplet_serve_cache_hits series".into());
            }
            for family in [
                "chiplet_serve_phase_ns",
                "chiplet_serve_queue_wait_ns",
                "chiplet_serve_e2e_ns",
                "chiplet_serve_requests_total",
            ] {
                if !text.contains(family) {
                    errs.push(format!("missing {family} series"));
                }
            }
            errs
        }
        Ok((status, _)) => vec![format!("GET /metrics returned {status}")],
        Err(e) => vec![format!("GET /metrics failed: {e}")],
    };

    // The introspection endpoints must serve valid documents.
    match http::fetch(&addr, "GET", "/v1/status", None) {
        Ok((200, text)) => match serde_json::from_str::<serde_json::Value>(&text) {
            Ok(doc) => {
                for key in ["workers", "queue_depth", "recorder", "recent", "slow"] {
                    if doc.get(key).is_none() {
                        metrics_errors.push(format!("/v1/status missing '{key}'"));
                    }
                }
            }
            Err(e) => metrics_errors.push(format!("/v1/status not JSON: {e}")),
        },
        Ok((status, _)) => metrics_errors.push(format!("GET /v1/status returned {status}")),
        Err(e) => metrics_errors.push(format!("GET /v1/status failed: {e}")),
    }
    match http::fetch(&addr, "GET", "/v1/trace", None) {
        Ok((200, text)) => match serde_json::from_str::<serde_json::Value>(&text) {
            Ok(doc) => {
                if doc.get("traceEvents").and_then(|e| e.as_seq()).is_none() {
                    metrics_errors.push("/v1/trace has no traceEvents array".into());
                }
            }
            Err(e) => metrics_errors.push(format!("/v1/trace not JSON: {e}")),
        },
        Ok((status, _)) => metrics_errors.push(format!("GET /v1/trace returned {status}")),
        Err(e) => metrics_errors.push(format!("GET /v1/trace failed: {e}")),
    }

    // Access-log audit: lints clean, every 200's request id exactly once,
    // spans tile. The daemon appends a span just *after* the response
    // bytes reach the client, so retry briefly before calling a line
    // dropped.
    let (mut log_errors, span_violations) = match &access_path {
        Some(path) => audit_access_log(path, &request_ids),
        None => (Vec::new(), 0),
    };
    let missing = missing_rid.load(Ordering::Relaxed);
    if missing > 0 {
        log_errors.push(format!("{missing} 200 response(s) lacked X-Request-Id"));
    }

    // Cache integrity: every entry parses, no temp files left behind.
    let torn_entries = match server.as_ref().and_then(|_| cache_dir_of(opts, &scratch)) {
        Some(dir) => count_torn(&dir),
        None => 0,
    };

    if let Some(s) = server {
        s.shutdown();
    }
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Some(log) = access_path {
        let _ = std::fs::remove_file(log);
    }

    Ok(HammerReport {
        submissions: opts.submissions,
        clients,
        unique_points: points.len(),
        mismatches: mismatch_total,
        failures: failures.load(Ordering::Relaxed),
        torn_entries,
        metrics_errors,
        log_errors,
        span_violations,
        wall,
    })
}

/// Lints the access log and cross-checks it against the request ids the
/// load threads collected: every id exactly once, no duplicates, every
/// span tiling exactly. Re-reads for up to ~1 s first — the daemon logs a
/// span right *after* its response lands, so the tail of the file can be
/// milliseconds behind the last client.
fn audit_access_log(path: &std::path::Path, request_ids: &[String]) -> (Vec<String>, usize) {
    let mut text = String::new();
    for _ in 0..100 {
        text = std::fs::read_to_string(path).unwrap_or_default();
        let logged = text.lines().count();
        if logged >= request_ids.len() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let records = match obs::lint_access_log(&text) {
        Ok(r) => r,
        Err(errs) => return (errs, 0),
    };
    let mut errors = Vec::new();
    let mut count: HashMap<&str, usize> = HashMap::new();
    for r in &records {
        *count.entry(r.id.as_str()).or_default() += 1;
    }
    for rid in request_ids {
        match count.get(rid.as_str()) {
            Some(1) => {}
            Some(n) => errors.push(format!("request {rid} logged {n} times")),
            None => errors.push(format!("request {rid} missing from access log")),
        }
    }
    let span_violations = records
        .iter()
        .filter(|r| r.phases.iter().map(|&(_, d)| d).sum::<u64>() != r.e2e_ns)
        .count();
    (errors, span_violations)
}

fn cache_dir_of(opts: &HammerOptions, scratch: &Option<PathBuf>) -> Option<PathBuf> {
    opts.cache_dir.clone().or_else(|| scratch.clone())
}

/// One non-streaming `/v1/sweep` round trip, returning the response body
/// (the aggregate outcome as the daemon serialized it).
fn assemble_outcome(addr: &str, sweep: &SweepSpec) -> Result<String, String> {
    let (status, body) = http::fetch(addr, "POST", "/v1/sweep", Some(&sweep.to_json()))
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    // Sanity: the body parses back into an outcome with every point.
    let outcome = SweepOutcome::from_json(body.trim_end()).map_err(|e| e.to_string())?;
    if outcome.points.is_empty() {
        return Err("daemon returned an empty outcome".into());
    }
    Ok(body)
}

/// Counts unparseable `*.json` entries and leftover `*.tmp-*` files.
fn count_torn(dir: &std::path::Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut torn = 0;
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.contains(".tmp-") {
            torn += 1;
        } else if let Some(hash) = name.strip_suffix(".json") {
            if !matches!(load_cache_entry(dir, hash), CacheLookup::Hit(_)) {
                torn += 1;
            }
        }
    }
    torn
}
