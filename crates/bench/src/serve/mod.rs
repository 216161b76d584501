//! `chiplet-serve` — the scenario-serving daemon.
//!
//! Promotes the batch `chiplet-scenario sweep` runner into a persistent
//! HTTP/JSON service: clients POST [`ScenarioSpec`]s or [`SweepSpec`]s, or
//! name a built-in spec, sweep or study, a
//! bounded worker pool executes the points with **round-robin fair queuing
//! across clients** ([`queue::FairQueue`]), identical points dedupe through
//! an in-flight single-flight map *and* the same content-addressed
//! `results/cache/` store the CLI uses, and `GET /metrics` exposes the
//! server's runtime state through the workspace's OpenMetrics encoder.
//!
//! Determinism carries over wholesale: a served point is executed and
//! published by the very same [`run_and_publish`] step as the batch
//! [`SweepRunner`](chiplet_net::scenario::SweepRunner) and keyed by the
//! same content hash ([`spec_hash`]), so responses are **byte-identical**
//! to `chiplet-scenario run/sweep --json` no matter how many clients race.
//!
//! ## Endpoints
//!
//! | Route | Behaviour |
//! |-------|-----------|
//! | `GET /healthz` | liveness probe (`ok`) |
//! | `GET /metrics` | OpenMetrics dump, volatile families included |
//! | `GET /v1/scenarios` | the built-in registry as JSON |
//! | `GET /v1/status` | live introspection: queue depths, worker occupancy, in-flight keys, recent + slow requests |
//! | `GET /v1/trace` | the flight recorder as Chrome trace-event JSON (Perfetto-ready) |
//! | `POST /v1/run?name=N` or body spec | one scenario report |
//! | `POST /v1/sweep?name=N` (sweep or study) or body sweep | aggregate [`SweepOutcome`] |
//! | `POST /v1/sweep?...&stream=1` | chunked JSONL per-point progress |
//!
//! All POST routes accept `?client=<id>` for fair-queue identity (default
//! `anon`). Over-limit submissions are rejected whole with a 429 — partial
//! admission would deadlock the sweep that submitted them.
//!
//! ## Observability
//!
//! Every submission carries an [`obs::ServeSpan`] from accept to the last
//! response byte: monotonic wall-clock timestamps at each phase boundary
//! whose consecutive differences tile end-to-end time exactly. Completed
//! spans land in the per-phase/per-client latency histograms behind
//! `GET /metrics`, the `--access-log` JSONL file (one line per request),
//! and the in-memory flight recorder behind `GET /v1/status` and
//! `GET /v1/trace`. Responses name their span in an `X-Request-Id`
//! header, so a slow request can be chased from the client's log to its
//! phase breakdown.

pub mod hammer;
pub mod http;
pub mod obs;
pub mod queue;

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use chiplet_net::metrics::{MetricKind, MetricsRegistry};
use chiplet_net::scenario::{
    load_cache_entry, run_and_publish, spec_hash, CacheLookup, ScenarioKind, ScenarioSpec,
    SweepOutcome, SweepPoint, SweepPointResult, SweepSpec,
};
use chiplet_sim::SimTime;

use crate::scenarios::{paper_registry, resolve_name, ResolveError, Verb};
use http::{read_request, write_response, write_response_with, ChunkedResponse, Request};
use obs::{Obs, ServeSpan};
use queue::FairQueue;

pub use chiplet_net::scenario::ScenarioReport;

/// How the daemon is sized and where it keeps its cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing points; 0 = one per available core.
    pub workers: usize,
    /// Shared content-addressed result cache; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Global cap on queued points (admission control).
    pub max_pending: usize,
    /// Per-client cap on queued points.
    pub max_client_pending: usize,
    /// Structured JSONL access log (one line per completed request);
    /// `None` disables it.
    pub access_log: Option<PathBuf>,
    /// Flight-recorder capacity: completed spans kept in memory for
    /// `GET /v1/status` / `GET /v1/trace`.
    pub recorder: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache_dir: Some(PathBuf::from("results/cache")),
            max_pending: 4096,
            max_client_pending: 2048,
            access_log: None,
            recorder: 256,
        }
    }
}

/// Describes the scenario-serving daemon's metric families: queue depth,
/// admission rejects, result-cache traffic, per-client served points, and
/// the request-scoped observability plane's phase/latency histograms.
/// All are **volatile** — they reflect one server process's runtime state,
/// so they belong in [`MetricsRegistry::to_openmetrics_with_volatile`]
/// scrapes (the daemon's `GET /metrics`) and never in deterministic dumps.
///
/// The histogram families are **wall-clock-stamped**: the daemon records
/// each observation at "nanoseconds since daemon start" in place of sim
/// time, so the registry's [`WindowedSketch`] machinery windows them over
/// real time and `/metrics` exposes live windowed p50/p99/p999 alongside
/// the whole-run quantiles. Durations are reported in nanoseconds.
///
/// [`WindowedSketch`]: chiplet_net::metrics::WindowedSketch
pub fn describe_serve_metrics(m: &mut MetricsRegistry) {
    m.describe_volatile(
        "chiplet_serve_queue_depth",
        MetricKind::Gauge,
        "Scenario points currently waiting in the serving daemon's queue.",
    );
    m.describe_volatile(
        "chiplet_serve_admission_rejects",
        MetricKind::Counter,
        "Submissions turned away because a queue capacity limit was hit.",
    );
    m.describe_volatile(
        "chiplet_serve_cache_hits",
        MetricKind::Counter,
        "Served points answered from the shared on-disk result cache.",
    );
    m.describe_volatile(
        "chiplet_serve_cache_misses",
        MetricKind::Counter,
        "Served points that required an engine execution.",
    );
    m.describe_volatile(
        "chiplet_serve_corrupt_healed",
        MetricKind::Counter,
        "Corrupt cache entries the daemon healed by re-executing the point.",
    );
    m.describe_volatile(
        "chiplet_serve_client_points",
        MetricKind::Counter,
        "Scenario points served, by submitting client.",
    );
    m.describe_volatile(
        "chiplet_serve_requests",
        MetricKind::Counter,
        "Completed HTTP submissions, by route and outcome.",
    );
    m.describe_volatile(
        "chiplet_serve_phase_ns",
        MetricKind::Histogram,
        "Wall-clock request phase durations (ns), by phase.",
    );
    m.describe_volatile(
        "chiplet_serve_queue_wait_ns",
        MetricKind::Histogram,
        "Wall-clock fair-queue wait per executed point (ns), by client.",
    );
    m.describe_volatile(
        "chiplet_serve_service_ns",
        MetricKind::Histogram,
        "Wall-clock point service time (ns), by client.",
    );
    m.describe_volatile(
        "chiplet_serve_e2e_ns",
        MetricKind::Histogram,
        "Wall-clock end-to-end request latency (ns), by client.",
    );
    m.describe_volatile(
        "chiplet_serve_busy_workers",
        MetricKind::Gauge,
        "Worker threads currently executing or probing a point.",
    );
    m.describe_volatile(
        "chiplet_serve_inflight_keys",
        MetricKind::Gauge,
        "Distinct point hashes currently executing (single-flight keys).",
    );
    m.describe_volatile(
        "chiplet_serve_access_log_lines",
        MetricKind::Counter,
        "Access-log lines written.",
    );
    m.describe_volatile(
        "chiplet_serve_recorder_evicted",
        MetricKind::Counter,
        "Completed spans evicted from the flight recorder's ring buffer.",
    );
}

/// A point's report with its canonical JSON, shared by the single-flight
/// leader and every submission parked behind it: `/v1/run` answers with
/// the bytes, `/v1/sweep` assembles its outcome from the report.
#[derive(Debug)]
struct PointReport {
    report: ScenarioReport,
    json: String,
}

/// How a served point's result was produced — the span's disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    Executed,
    CacheHit,
    /// Served by the single-flight leader's execution.
    Dedup,
}

impl Disposition {
    fn as_str(self) -> &'static str {
        match self {
            Disposition::Executed => "executed",
            Disposition::CacheHit => "cache_hit",
            Disposition::Dedup => "dedup",
        }
    }
}

/// A successfully served point.
#[derive(Debug)]
struct Served {
    point: Arc<PointReport>,
    disposition: Disposition,
}

/// The worker-side phase timestamps a point's reply carries back to the
/// connection handler (ns on the daemon clock).
#[derive(Debug, Clone, Copy)]
struct PointTiming {
    dequeued_ns: u64,
    probed_ns: u64,
    executed_ns: u64,
}

impl PointTiming {
    /// All three stamps at `ns`: the worker-side phases collapse there.
    fn at(ns: u64) -> PointTiming {
        PointTiming {
            dequeued_ns: ns,
            probed_ns: ns,
            executed_ns: ns,
        }
    }
}

/// What a worker sends back for one point.
type PointReply = (PointTiming, Result<Served, String>);

/// One queued scenario point.
struct WorkItem {
    hash: String,
    spec: ScenarioSpec,
    client: String,
    /// Stamped under the queue lock by [`ServeState::admit`], so a worker
    /// can never observe a dequeue that precedes its enqueue.
    enqueued_ns: u64,
    reply: mpsc::Sender<PointReply>,
}

/// A submission waiting for its point's result, with the timestamps it
/// had accrued by then: the single-flight leader, or one parked behind it.
struct Parked {
    item: WorkItem,
    dequeued_ns: u64,
    probed_ns: u64,
}

/// State shared between the accept loop, connection handlers, and workers.
struct ServeState {
    queue: Mutex<FairQueue<WorkItem>>,
    work_ready: Condvar,
    /// Single-flight: hash → submissions parked behind the executing one.
    inflight: Mutex<HashMap<String, Vec<Parked>>>,
    metrics: Mutex<MetricsRegistry>,
    cache_dir: Option<PathBuf>,
    /// The request-scoped observability plane: clock, request ids, flight
    /// recorder, access log.
    obs: Obs,
    /// Workers currently probing or executing a point.
    busy_workers: AtomicUsize,
    /// Pool size, for `/v1/status`.
    workers_total: usize,
    shutdown: AtomicBool,
}

/// Dumps the flight recorder to stderr when a worker thread dies by panic,
/// so the requests leading up to the crash are preserved even though the
/// process is going down.
struct PanicDump<'a>(&'a ServeState);

impl Drop for PanicDump<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let (spans, recorded, evicted) = self.0.obs.recorder.snapshot();
            eprintln!(
                "serve worker panicked; flight recorder holds {} span(s) \
                 ({recorded} recorded, {evicted} evicted), most recent last:",
                spans.len()
            );
            for s in &spans {
                eprintln!("  {}", compact(&s.to_value()));
            }
        }
    }
}

impl ServeState {
    fn count(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.metrics
            .lock()
            .expect("metrics lock poisoned")
            .counter_add(name, labels, v);
    }

    /// Completes one request span: access log, flight recorder, and the
    /// request-level histogram/counter families.
    fn complete_span(&self, span: ServeSpan) {
        let mut m = self.metrics.lock().expect("metrics lock poisoned");
        self.obs.complete(span, &mut m);
    }

    fn serve_point(&self, item: WorkItem, timing: PointTiming, served: Result<Served, String>) {
        {
            let mut m = self.metrics.lock().expect("metrics lock poisoned");
            let at = SimTime::from_nanos(timing.executed_ns);
            m.observe(
                "chiplet_serve_queue_wait_ns",
                &[("client", &item.client)],
                at,
                timing.dequeued_ns.saturating_sub(item.enqueued_ns) as f64,
            );
            if let Ok(s) = &served {
                if s.disposition == Disposition::Executed {
                    m.observe(
                        "chiplet_serve_service_ns",
                        &[("client", &item.client)],
                        at,
                        timing.executed_ns.saturating_sub(timing.probed_ns) as f64,
                    );
                }
                m.counter_add(
                    "chiplet_serve_client_points",
                    &[("client", &item.client)],
                    1.0,
                );
            }
        }
        // A dropped receiver (client hung up) is fine; the work is cached.
        let _ = item.reply.send((timing, served));
    }

    /// Blocks until a point is available or shutdown; round-robin fair.
    fn next_item(&self) -> Option<WorkItem> {
        let mut q = self.queue.lock().expect("queue lock poisoned");
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some((_, item)) = q.pop() {
                return Some(item);
            }
            q = self.work_ready.wait(q).expect("queue lock poisoned");
        }
    }

    /// One worker's service loop.
    fn work(&self) {
        let _panic_dump = PanicDump(self);
        while let Some(item) = self.next_item() {
            self.busy_workers.fetch_add(1, Ordering::SeqCst);
            self.run_item(item);
            self.busy_workers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Serves one dequeued point: cache probe → single-flight check →
    /// execution, stamping the worker-side span timestamps along the way.
    fn run_item(&self, item: WorkItem) {
        let dequeued_ns = self.obs.now_ns();
        // Cache probe first: hits never cost an execution slot.
        if let Some(dir) = &self.cache_dir {
            match load_cache_entry(dir, &item.hash) {
                CacheLookup::Hit(report) => {
                    self.count("chiplet_serve_cache_hits", &[], 1.0);
                    let timing = PointTiming {
                        dequeued_ns,
                        ..PointTiming::at(self.obs.now_ns())
                    };
                    let json = report.to_json();
                    let point = Arc::new(PointReport { report, json });
                    let disposition = Disposition::CacheHit;
                    self.serve_point(item, timing, Ok(Served { point, disposition }));
                    return;
                }
                CacheLookup::Corrupt => self.count("chiplet_serve_corrupt_healed", &[], 1.0),
                CacheLookup::Miss => {}
            }
        }
        // Single-flight: if this hash is already executing, park behind
        // it instead of burning a second worker on identical work. The
        // parked span keeps its own dequeue/probe timestamps; the leader
        // stamps its execution time at completion.
        {
            let mut infl = self.inflight.lock().expect("inflight lock poisoned");
            if let Some(waiters) = infl.get_mut(&item.hash) {
                let probed_ns = self.obs.now_ns();
                waiters.push(Parked {
                    item,
                    dequeued_ns,
                    probed_ns,
                });
                return;
            }
            infl.insert(item.hash.clone(), Vec::new());
        }
        let probed_ns = self.obs.now_ns();
        let outcome = run_and_publish(&item.spec, &item.hash, self.cache_dir.as_deref());
        let executed_ns = self.obs.now_ns();
        let result = match outcome {
            Ok((report, json)) => {
                let json = json.unwrap_or_else(|| report.to_json());
                Ok(Arc::new(PointReport { report, json }))
            }
            Err(e) => Err(e.to_string()),
        };
        self.count("chiplet_serve_cache_misses", &[], 1.0);
        let waiters = self
            .inflight
            .lock()
            .expect("inflight lock poisoned")
            .remove(&item.hash)
            .unwrap_or_default();
        let leader = Parked {
            item,
            dequeued_ns,
            probed_ns,
        };
        for (i, p) in std::iter::once(leader).chain(waiters).enumerate() {
            let served = result.clone().map(|point| {
                let disposition = if i == 0 {
                    Disposition::Executed
                } else {
                    // Dedup'd submissions count as hits: served without
                    // an execution of their own.
                    self.count("chiplet_serve_cache_hits", &[], 1.0);
                    Disposition::Dedup
                };
                Served { point, disposition }
            });
            let timing = PointTiming {
                dequeued_ns: p.dequeued_ns,
                probed_ns: p.probed_ns,
                executed_ns,
            };
            self.serve_point(p.item, timing, served);
        }
    }

    /// Admits a submission's points whole, or rejects them with a 429
    /// body. On admission, returns the enqueue timestamp — stamped *under
    /// the queue lock*, so no worker can dequeue a point before its
    /// enqueue stamp exists and queue wait can never go negative.
    fn admit(&self, client: &str, mut items: Vec<WorkItem>) -> Result<u64, String> {
        let mut q = self.queue.lock().expect("queue lock poisoned");
        let enqueued_ns = self.obs.now_ns();
        for it in &mut items {
            it.enqueued_ns = enqueued_ns;
        }
        match q.try_push_all(client, items) {
            Ok(()) => {
                drop(q);
                self.work_ready.notify_all();
                Ok(enqueued_ns)
            }
            Err((err, _returned)) => {
                drop(q);
                self.count(
                    "chiplet_serve_admission_rejects",
                    &[("client", client)],
                    1.0,
                );
                Err(err.to_string())
            }
        }
    }

    /// The live introspection document behind `GET /v1/status`.
    fn status_value(&self) -> serde_json::Value {
        let (depth, by_client) = {
            let q = self.queue.lock().expect("queue lock poisoned");
            (q.len(), q.per_client_depths())
        };
        let inflight: Vec<String> = {
            let mut keys: Vec<String> = self
                .inflight
                .lock()
                .expect("inflight lock poisoned")
                .keys()
                .cloned()
                .collect();
            keys.sort();
            keys
        };
        let (spans, recorded, evicted) = self.obs.recorder.snapshot();
        let recent: Vec<serde_json::Value> =
            spans.iter().rev().take(16).map(|s| s.to_value()).collect();
        let slow: Vec<serde_json::Value> = obs::slowest(&spans, 8)
            .iter()
            .map(|s| s.to_value())
            .collect();
        jobj(vec![
            ("uptime_ns", jnum(self.obs.now_ns())),
            ("workers", jnum(self.workers_total as u64)),
            (
                "busy_workers",
                jnum(self.busy_workers.load(Ordering::SeqCst) as u64),
            ),
            ("queue_depth", jnum(depth as u64)),
            (
                "queue_depth_by_client",
                jobj(
                    by_client
                        .iter()
                        .map(|(c, n)| (c.as_str(), jnum(*n as u64)))
                        .collect(),
                ),
            ),
            (
                "inflight_keys",
                serde_json::Value::Seq(inflight.iter().map(|k| jstr(k)).collect()),
            ),
            (
                "recorder",
                jobj(vec![
                    ("capacity", jnum(self.obs.recorder.capacity() as u64)),
                    ("recorded", jnum(recorded)),
                    ("evicted", jnum(evicted)),
                ]),
            ),
            ("recent", serde_json::Value::Seq(recent)),
            ("slow", serde_json::Value::Seq(slow)),
        ])
    }
}

/// A running daemon; dropping it shuts the listener and workers down.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and the worker pool, and returns.
    pub fn spawn(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let mut metrics = MetricsRegistry::new();
        describe_serve_metrics(&mut metrics);
        let state = Arc::new(ServeState {
            queue: Mutex::new(FairQueue::new(cfg.max_pending, cfg.max_client_pending)),
            work_ready: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            metrics: Mutex::new(metrics),
            cache_dir: cfg.cache_dir.clone(),
            obs: Obs::new(cfg.recorder, cfg.access_log.as_deref())?,
            busy_workers: AtomicUsize::new(0),
            workers_total: workers,
            shutdown: AtomicBool::new(false),
        });
        if let Some(dir) = &state.cache_dir {
            let _ = std::fs::create_dir_all(dir);
        }
        let pool: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || state.work())
                    .expect("spawn worker")
            })
            .collect();
        let accept_state = state.clone();
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_state))
            .expect("spawn accept loop");
        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            workers: pool,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.work_ready.notify_all();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServeState>) {
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let state = state.clone();
        // Modest stacks: thousands of concurrent connections are the point.
        let _ = std::thread::Builder::new()
            .name("serve-conn".into())
            .stack_size(512 * 1024)
            .spawn(move || {
                // The span's clock starts the moment the connection is
                // picked up; reading the request counts as `parse`.
                let accept_ns = state.obs.now_ns();
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(60)));
                if let Ok(req) = read_request(&mut stream) {
                    let _ = handle(&state, &mut stream, &req, accept_ns);
                }
            });
    }
}

/// The fair-queue identity of a request (`?client=`, default `anon`),
/// truncated so a hostile label can't bloat the metrics registry.
fn client_of(req: &Request) -> String {
    let c = req.param("client").unwrap_or("anon").trim();
    let c = if c.is_empty() { "anon" } else { c };
    c.chars().take(64).collect()
}

/// Builds a JSON object value with the given fields, in order (the
/// vendored `serde_json` has no `json!` macro).
fn jobj(fields: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn jstr(s: &str) -> serde_json::Value {
    serde_json::Value::Str(s.to_string())
}

fn jnum(n: u64) -> serde_json::Value {
    serde_json::Value::U64(n)
}

fn compact(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("values serialize")
}

fn json_error(msg: &str) -> String {
    compact(&jobj(vec![("error", jstr(msg))])) + "\n"
}

fn handle(
    state: &ServeState,
    stream: &mut TcpStream,
    req: &Request,
    accept_ns: u64,
) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => write_response(stream, 200, "text/plain", "ok\n"),
        ("GET", "/metrics") => {
            let depth = state.queue.lock().expect("queue lock poisoned").len();
            let inflight = state.inflight.lock().expect("inflight lock poisoned").len();
            let mut m = state.metrics.lock().expect("metrics lock poisoned");
            m.gauge_set("chiplet_serve_queue_depth", &[], depth as f64);
            m.gauge_set(
                "chiplet_serve_busy_workers",
                &[],
                state.busy_workers.load(Ordering::SeqCst) as f64,
            );
            m.gauge_set("chiplet_serve_inflight_keys", &[], inflight as f64);
            let text = m.to_openmetrics_with_volatile();
            drop(m);
            write_response(
                stream,
                200,
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                &text,
            )
        }
        ("GET", "/v1/status") => {
            let body =
                serde_json::to_string_pretty(&state.status_value()).expect("serializes") + "\n";
            write_response(stream, 200, "application/json", &body)
        }
        ("GET", "/v1/trace") => {
            let (spans, _, _) = state.obs.recorder.snapshot();
            let body = obs::chrome_trace(&spans);
            write_response(stream, 200, "application/json", &body)
        }
        ("GET", "/v1/scenarios") => {
            let reg = paper_registry();
            let entries: Vec<serde_json::Value> = reg
                .entries()
                .iter()
                .map(|e| {
                    jobj(vec![
                        ("name", jstr(e.name)),
                        ("kind", jstr((e.build)().kind())),
                        ("summary", jstr(e.summary)),
                    ])
                })
                .collect();
            let body = serde_json::to_string_pretty(&serde_json::Value::Seq(entries))
                .expect("serializes")
                + "\n";
            write_response(stream, 200, "application/json", &body)
        }
        ("POST", "/v1/run") => handle_run(state, stream, req, accept_ns),
        ("POST", "/v1/sweep") => handle_sweep(state, stream, req, accept_ns),
        (
            _,
            "/healthz" | "/metrics" | "/v1/scenarios" | "/v1/status" | "/v1/trace" | "/v1/run"
            | "/v1/sweep",
        ) => write_response(
            stream,
            405,
            "application/json",
            &json_error("method not allowed"),
        ),
        _ => write_response(
            stream,
            404,
            "application/json",
            &json_error("no such route"),
        ),
    }
}

/// Resolves a request to a [`ScenarioSpec`]: `?name=` looks up a registry
/// spec entry, otherwise the body must be a spec JSON.
fn resolve_spec(req: &Request) -> Result<ScenarioSpec, (u16, String)> {
    if let Some(name) = req.param("name") {
        return match resolve_name(Verb::Run, name).map_err(resolve_status)? {
            ScenarioKind::Spec(spec) => Ok(spec),
            _ => Err((
                400,
                format!("'{name}' is not a declarative spec; POST sweeps to /v1/sweep"),
            )),
        };
    }
    ScenarioSpec::from_json(body_text(req)?).map_err(|e| (400, e.to_string()))
}

/// Resolves a request to a named point list, mirroring [`resolve_spec`]:
/// a sweep (by name or body) expanded, or a study by name with its points
/// as they stand ([`SweepPoint::as_is`]) — the list `chiplet-scenario run
/// <name> --json` runs.
fn resolve_sweep(req: &Request) -> Result<(String, Vec<SweepPoint>), (u16, String)> {
    let sweep = match req.param("name") {
        Some(name) => match resolve_name(Verb::Run, name).map_err(resolve_status)? {
            ScenarioKind::Sweep(sweep) => sweep,
            ScenarioKind::Study { name, specs, .. } => {
                let points = specs().into_iter().map(SweepPoint::as_is).collect();
                return Ok((name.to_string(), points));
            }
            _ => return Err((400, format!("'{name}' is not a sweep or study"))),
        },
        None => SweepSpec::from_json(body_text(req)?).map_err(|e| (400, e.to_string()))?,
    };
    let points = sweep.expand().map_err(|e| (400, e.to_string()))?;
    Ok((sweep.name, points))
}

/// An unknown name is a 404; a name of the wrong kind is a 400.
fn resolve_status(err: ResolveError) -> (u16, String) {
    match err {
        ResolveError::Unknown(m) => (404, m),
        ResolveError::Invalid(m) => (400, m),
    }
}

/// A spec body, which must be non-empty UTF-8.
fn body_text(req: &Request) -> Result<&str, (u16, String)> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| (400, "body is not UTF-8".to_string()))?;
    if text.trim().is_empty() {
        return Err((400, "missing ?name= and empty body".to_string()));
    }
    Ok(text)
}

/// A span under construction on the connection-handler side: identity and
/// the handler-stamped timestamps, completed into a [`ServeSpan`] once the
/// response is on the wire.
struct SpanDraft {
    id: u64,
    client: String,
    route: &'static str,
    point: String,
    points: usize,
    accept_ns: u64,
    parsed_ns: u64,
    admitted_ns: u64,
}

impl SpanDraft {
    fn new(state: &ServeState, accept_ns: u64, client: String, route: &'static str) -> SpanDraft {
        SpanDraft {
            id: state.obs.next_request_id(),
            client,
            route,
            point: String::new(),
            points: 0,
            accept_ns,
            parsed_ns: accept_ns,
            admitted_ns: accept_ns,
        }
    }

    fn request_id(&self) -> String {
        format!("r-{:08}", self.id)
    }

    /// Answers a request that never reached a worker (resolve failure or
    /// admission reject): every post-parse phase collapses to zero width.
    fn reject(
        mut self,
        state: &ServeState,
        stream: &mut TcpStream,
        status: u16,
        msg: &str,
    ) -> std::io::Result<()> {
        let now = state.obs.now_ns();
        if self.parsed_ns == self.accept_ns {
            self.parsed_ns = now;
        }
        self.admitted_ns = now;
        self.respond(
            state,
            stream,
            status,
            &json_error(msg),
            "none",
            PointTiming::at(now),
        )
    }

    /// Writes a whole JSON response that names the span in `X-Request-Id`,
    /// then seals the span. The outcome follows from the status: `ok`,
    /// `rejected` (429) or `error`.
    fn respond(
        self,
        state: &ServeState,
        stream: &mut TcpStream,
        status: u16,
        body: &str,
        disposition: &'static str,
        timing: PointTiming,
    ) -> std::io::Result<()> {
        let rid = self.request_id();
        let r = write_response_with(
            stream,
            status,
            "application/json",
            body,
            &[("X-Request-Id", &rid)],
        );
        let outcome = match status {
            200 => "ok",
            429 => "rejected",
            _ => "error",
        };
        self.finish(state, status, outcome, disposition, timing);
        r
    }

    /// Seals the span — `done` stamped now, after the response bytes went
    /// out — and hands it to the observability plane. Timestamps are
    /// clamped monotone so the tiling invariant holds unconditionally.
    fn finish(
        self,
        state: &ServeState,
        status: u16,
        outcome: &'static str,
        disposition: &'static str,
        timing: PointTiming,
    ) {
        let done_ns = state.obs.now_ns();
        let mut t = [
            self.accept_ns,
            self.parsed_ns,
            self.admitted_ns,
            timing.dequeued_ns,
            timing.probed_ns,
            timing.executed_ns,
            done_ns,
        ];
        for i in 1..t.len() {
            t[i] = t[i].max(t[i - 1]);
        }
        state.complete_span(ServeSpan {
            id: self.id,
            client: self.client,
            route: self.route,
            point: self.point,
            points: self.points,
            status,
            outcome,
            disposition,
            accept_ns: t[0],
            parsed_ns: t[1],
            admitted_ns: t[2],
            dequeued_ns: t[3],
            probed_ns: t[4],
            executed_ns: t[5],
            done_ns: t[6],
        });
    }
}

fn handle_run(
    state: &ServeState,
    stream: &mut TcpStream,
    req: &Request,
    accept_ns: u64,
) -> std::io::Result<()> {
    let client = client_of(req);
    let mut draft = SpanDraft::new(state, accept_ns, client.clone(), "/v1/run");
    let spec = match resolve_spec(req) {
        Ok(s) => s,
        Err((status, msg)) => return draft.reject(state, stream, status, &msg),
    };
    draft.point = spec_hash(&spec);
    draft.points = 1;
    draft.parsed_ns = state.obs.now_ns();
    let (tx, rx) = mpsc::channel();
    let item = WorkItem {
        hash: draft.point.clone(),
        spec,
        client: client.clone(),
        enqueued_ns: 0,
        reply: tx,
    };
    draft.admitted_ns = match state.admit(&client, vec![item]) {
        Ok(t) => t,
        Err(msg) => return draft.reject(state, stream, 429, &msg),
    };
    let (status, body, disposition, timing) = match rx.recv() {
        Ok((timing, Ok(s))) => (
            200,
            format!("{}\n", s.point.json),
            s.disposition.as_str(),
            timing,
        ),
        Ok((timing, Err(msg))) => (400, json_error(&msg), "none", timing),
        Err(_) => (
            500,
            json_error("server shutting down"),
            "none",
            PointTiming::at(state.obs.now_ns()),
        ),
    };
    draft.respond(state, stream, status, &body, disposition, timing)
}

fn handle_sweep(
    state: &ServeState,
    stream: &mut TcpStream,
    req: &Request,
    accept_ns: u64,
) -> std::io::Result<()> {
    let client = client_of(req);
    let mut draft = SpanDraft::new(state, accept_ns, client.clone(), "/v1/sweep");
    let (name, points) = match resolve_sweep(req) {
        Ok(s) => s,
        Err((status, msg)) => return draft.reject(state, stream, status, &msg),
    };
    draft.point = format!("sweep:{name}");
    draft.points = points.len();
    draft.parsed_ns = state.obs.now_ns();
    let (items, receivers): (Vec<_>, Vec<_>) = points
        .iter()
        .map(|point| {
            let (tx, rx) = mpsc::channel();
            let item = WorkItem {
                hash: point.hash.clone(),
                spec: point.spec.clone(),
                client: client.clone(),
                enqueued_ns: 0,
                reply: tx,
            };
            (item, rx)
        })
        .unzip();
    draft.admitted_ns = match state.admit(&client, items) {
        Ok(t) => t,
        Err(msg) => return draft.reject(state, stream, 429, &msg),
    };
    let streamed = matches!(req.param("stream"), Some("1" | "true"));
    respond_sweep(state, stream, &name, &points, receivers, draft, streamed)
}

/// Per-point reply tallies of one sweep request.
#[derive(Debug, Default)]
struct Tally {
    executed: usize,
    cached: usize,
    failed: usize,
}

impl Tally {
    /// The sweep span's disposition.
    fn disposition(&self) -> &'static str {
        match (self.executed, self.cached) {
            (0, 0) => "none",
            (_, 0) => "executed",
            (0, _) => "cache_hit",
            _ => "mixed",
        }
    }
}

/// The one receive loop of both sweep forms: waits for each point's reply
/// in expansion order, tallies it, and hands it to `each` with its index.
/// A failed point arrives as `(400, message)`, a reply lost to shutdown as
/// `(500, message)`; `each` stops the loop by returning an error.
fn receive_points<E>(
    points: &[SweepPoint],
    receivers: Vec<mpsc::Receiver<PointReply>>,
    tally: &mut Tally,
    mut each: impl FnMut(usize, &SweepPoint, Result<Served, (u16, String)>) -> Result<(), E>,
) -> Result<(), E> {
    for (i, (point, rx)) in points.iter().zip(receivers).enumerate() {
        let reply = match rx.recv() {
            Ok((_, reply)) => reply.map_err(|msg| (400, msg)),
            Err(_) => Err((500, "server shutting down".to_string())),
        };
        match &reply {
            Ok(s) if s.disposition == Disposition::Executed => tally.executed += 1,
            Ok(_) => tally.cached += 1,
            Err(_) => tally.failed += 1,
        }
        each(i, point, reply)?;
    }
    Ok(())
}

/// Answers an admitted sweep. By default: wait for every point and answer
/// with the aggregate [`SweepOutcome`], assembled from the carried reports
/// — the same bytes `chiplet-scenario sweep --json` prints — or with the
/// first failed point's error. With `streamed`: one compact JSON line per
/// point (expansion order), then a `done` line with the tallies.
///
/// A sweep's queue/probe phases are per *point*, visible in the
/// queue-wait/service histograms; the request-level span charges
/// admission → last point reply to `exec`, so its phases still tile.
fn respond_sweep(
    state: &ServeState,
    stream: &mut TcpStream,
    sweep: &str,
    points: &[SweepPoint],
    receivers: Vec<mpsc::Receiver<PointReply>>,
    draft: SpanDraft,
    streamed: bool,
) -> std::io::Result<()> {
    let mut tally = Tally::default();
    let replied = |executed_ns: u64| PointTiming {
        executed_ns,
        ..PointTiming::at(draft.admitted_ns)
    };
    if !streamed {
        let mut results = Vec::with_capacity(points.len());
        let received = receive_points(points, receivers, &mut tally, |_, point, reply| {
            let report = match Arc::try_unwrap(reply?.point) {
                Ok(p) => p.report,
                Err(shared) => shared.report.clone(),
            };
            results.push(SweepPointResult {
                label: point.label.clone(),
                hash: point.hash.clone(),
                report,
            });
            Ok(())
        });
        let timing = replied(state.obs.now_ns());
        let (status, body) = match received {
            Ok(()) => {
                let outcome = SweepOutcome {
                    sweep: sweep.to_string(),
                    points: results,
                };
                (200, format!("{}\n", outcome.to_json()))
            }
            Err((status, msg)) => (status, json_error(&msg)),
        };
        let disposition = tally.disposition();
        return draft.respond(state, stream, status, &body, disposition, timing);
    }
    let rid = draft.request_id();
    let total = points.len() as u64;
    let mut executed_ns = None;
    // The response interleaves with execution; completing the span even
    // when the client hangs up mid-stream is why the body writes live in
    // an immediately-invoked closure instead of early returns.
    let r = (|| -> std::io::Result<()> {
        let mut resp = ChunkedResponse::begin_with(
            stream,
            200,
            "application/jsonl",
            &[("X-Request-Id", &rid)],
        )?;
        receive_points(points, receivers, &mut tally, |i, point, reply| {
            let mut fields = vec![
                ("event", jstr("point")),
                ("index", jnum(i as u64)),
                ("total", jnum(total)),
                ("label", jstr(&point.label)),
                ("hash", jstr(&point.hash)),
            ];
            match reply {
                Ok(s) => {
                    let cached = s.disposition != Disposition::Executed;
                    fields.push(("cached", serde_json::Value::Bool(cached)));
                    fields.push(("ok", serde_json::Value::Bool(true)));
                }
                Err((_, msg)) => {
                    fields.push(("ok", serde_json::Value::Bool(false)));
                    fields.push(("error", jstr(&msg)));
                }
            }
            resp.chunk(&format!("{}\n", compact(&jobj(fields))))
        })?;
        executed_ns = Some(state.obs.now_ns());
        let done = jobj(vec![
            ("event", jstr("done")),
            ("sweep", jstr(sweep)),
            ("total", jnum(total)),
            ("executed", jnum(tally.executed as u64)),
            ("cached", jnum(tally.cached as u64)),
            ("failed", jnum(tally.failed as u64)),
        ]);
        resp.chunk(&format!("{}\n", compact(&done)))?;
        resp.finish()
    })();
    let timing = replied(executed_ns.unwrap_or_else(|| state.obs.now_ns()));
    let outcome = if tally.failed > 0 || r.is_err() {
        "error"
    } else {
        "ok"
    };
    let disposition = tally.disposition();
    draft.finish(state, 200, outcome, disposition, timing);
    r
}
