//! Request-scoped observability for the serving daemon.
//!
//! Every submission the daemon accepts is carried through its lifetime by a
//! [`ServeSpan`]: one monotonic wall-clock timestamp per phase boundary —
//! accept → parse → admission → queue wait → single-flight/cache probe →
//! execution → response write. Phase durations are the *consecutive
//! differences* of those timestamps, so they **tile the end-to-end request
//! time exactly** (`Σ phases == e2e`, integer nanoseconds, no rounding) —
//! the same invariant PR 1 pinned for sim spans, now on the wall clock.
//!
//! Completed spans feed three sinks:
//!
//! * **histograms** — per-phase and per-client DDSketch latency families in
//!   the daemon's [`MetricsRegistry`] (volatile, so each series keeps one
//!   whole-uptime sketch and `GET /metrics` exposes its p50/p99/p999);
//! * **access log** — one structured JSON line per request
//!   ([`AccessLog`]), linted by [`lint_access_log`];
//! * **flight recorder** — a fixed-size in-memory ring of the last N spans
//!   ([`FlightRecorder`]), dumped by `GET /v1/status`, exported as
//!   Chrome/Perfetto trace JSON by `GET /v1/trace` (through the same
//!   [`ChromeTraceBuilder`] the sim tracer uses), and printed on worker
//!   panic.
//!
//! All timestamps are nanoseconds since the daemon's start ([`ServeClock`],
//! a shared `Instant` epoch — monotonic across threads), never absolute
//! wall time, so spans recorded by different threads order consistently.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use chiplet_net::metrics::MetricsRegistry;
use chiplet_net::trace::ChromeTraceBuilder;
use chiplet_sim::SimTime;

use super::{jnum, jobj, jstr};

/// The daemon's monotonic epoch: every span timestamp is nanoseconds since
/// this clock was created (at server boot).
#[derive(Debug)]
pub struct ServeClock {
    epoch: Instant,
}

impl Default for ServeClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeClock {
    /// Starts the epoch now.
    pub fn new() -> Self {
        ServeClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch. Monotonic and consistent across
    /// threads (backed by `Instant`).
    pub fn now_ns(&self) -> u64 {
        let d = self.epoch.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(d.subsec_nanos() as u64)
    }
}

/// The request phases, in timeline order. Each is the interval between two
/// consecutive span timestamps:
///
/// | phase | from → to | spent on |
/// |---|---|---|
/// | `parse`   | accept → parsed     | reading + resolving the submission |
/// | `admit`   | parsed → admitted   | admission control (cap checks, enqueue) |
/// | `queue`   | admitted → dequeued | waiting in the fair queue |
/// | `probe`   | dequeued → probed   | cache lookup + single-flight check |
/// | `exec`    | probed → executed   | engine execution and cache publication (or parked behind the single-flight leader / waiting for sweep points) |
/// | `respond` | executed → done     | serializing + streaming the response |
pub const PHASES: [&str; 6] = ["parse", "admit", "queue", "probe", "exec", "respond"];

/// One request's completed span: identity, outcome, and the phase-boundary
/// timestamps (ns since daemon start).
///
/// Timestamp invariant: `accept ≤ parsed ≤ admitted ≤ dequeued ≤ probed ≤
/// executed ≤ done`. Rejected or failed-before-execution requests collapse
/// the phases they never reached to zero width (equal adjacent
/// timestamps); multi-point sweep requests collapse `queue`/`probe` (which
/// are per-point, reported by the point histograms instead) and charge
/// admitted → last-point-reply to `exec`.
#[derive(Debug, Clone)]
pub struct ServeSpan {
    /// Monotone per-daemon request number (1-based).
    pub id: u64,
    /// Fair-queue client identity.
    pub client: String,
    /// Route served (`/v1/run` or `/v1/sweep`).
    pub route: &'static str,
    /// The point's content hash, or `sweep:<name>` for sweep submissions.
    pub point: String,
    /// Points the submission expanded to.
    pub points: usize,
    /// HTTP status answered.
    pub status: u16,
    /// `ok`, `error`, or `rejected`.
    pub outcome: &'static str,
    /// How the result was produced: `executed`, `cache_hit`, `dedup`
    /// (served by the single-flight leader), `mixed` (sweep with differing
    /// point dispositions), or `none` (no result was produced).
    pub disposition: &'static str,
    /// Connection accepted.
    pub accept_ns: u64,
    /// Submission parsed and resolved.
    pub parsed_ns: u64,
    /// Admitted into the fair queue (timestamp taken under the queue
    /// lock, so it always precedes the worker's dequeue).
    pub admitted_ns: u64,
    /// Picked up by a worker.
    pub dequeued_ns: u64,
    /// Cache / single-flight probe finished.
    pub probed_ns: u64,
    /// Execution finished (result available).
    pub executed_ns: u64,
    /// Response fully written.
    pub done_ns: u64,
}

impl ServeSpan {
    /// The request id string (`r-<zero-padded number>`), as returned to
    /// clients in the `X-Request-Id` header and written to the access log.
    pub fn request_id(&self) -> String {
        format!("r-{:08}", self.id)
    }

    /// The phase-boundary timestamps, timeline order.
    pub fn timestamps(&self) -> [u64; 7] {
        [
            self.accept_ns,
            self.parsed_ns,
            self.admitted_ns,
            self.dequeued_ns,
            self.probed_ns,
            self.executed_ns,
            self.done_ns,
        ]
    }

    /// `(phase name, duration ns)` for each of [`PHASES`]. Durations are
    /// consecutive timestamp differences, so when the timestamps are
    /// monotone (the construction guarantees it) they telescope:
    /// `Σ durations == e2e_ns()` exactly.
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        let t = self.timestamps();
        let mut out = [("", 0u64); 6];
        for i in 0..6 {
            out[i] = (PHASES[i], t[i + 1].saturating_sub(t[i]));
        }
        out
    }

    /// End-to-end wall time, ns.
    pub fn e2e_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.accept_ns)
    }

    /// The tiling invariant: timestamps monotone and `Σ phases == e2e`.
    pub fn tiles_exactly(&self) -> bool {
        let t = self.timestamps();
        t.windows(2).all(|w| w[0] <= w[1])
            && self.phases().iter().map(|&(_, d)| d).sum::<u64>() == self.e2e_ns()
    }

    /// The span as a JSON value — the access-log line shape (without the
    /// log-order fields `seq`/`t_ns`, which the [`AccessLog`] adds).
    pub fn to_value(&self) -> serde_json::Value {
        let mut fields = vec![
            ("id", jstr(&self.request_id())),
            ("client", jstr(&self.client)),
            ("route", jstr(self.route)),
            ("point", jstr(&self.point)),
            ("points", jnum(self.points as u64)),
            ("status", jnum(self.status as u64)),
            ("outcome", jstr(self.outcome)),
            ("disposition", jstr(self.disposition)),
            ("accept_ns", jnum(self.accept_ns)),
        ];
        fields.push((
            "phases",
            jobj(
                self.phases()
                    .iter()
                    .map(|&(name, d)| (name, jnum(d)))
                    .collect(),
            ),
        ));
        fields.push(("e2e_ns", jnum(self.e2e_ns())));
        jobj(fields)
    }
}

/// The structured JSONL access log: one line per completed request,
/// appended in completion order under one lock, flushed per line (tailing
/// the file always sees whole lines).
///
/// Line shape (field order fixed):
/// `{"seq":…,"t_ns":…,"id":"r-…","client":…,"route":…,"point":…,
/// "points":…,"status":…,"outcome":…,"disposition":…,"accept_ns":…,
/// "phases":{"parse":…,…},"e2e_ns":…}`.
/// `seq` increments by one per line and `t_ns` (daemon clock at append,
/// taken under the lock) is non-decreasing — [`lint_access_log`] enforces
/// both, plus phase tiling.
#[derive(Debug)]
pub struct AccessLog {
    inner: Mutex<(std::io::BufWriter<std::fs::File>, u64)>,
}

impl AccessLog {
    /// Creates (truncating) the log file.
    pub fn create(path: &Path) -> std::io::Result<AccessLog> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(AccessLog {
            inner: Mutex::new((std::io::BufWriter::new(file), 0)),
        })
    }

    /// Appends one span; returns false when the write failed (the daemon
    /// keeps serving — observability must never take requests down).
    pub fn append(&self, span: &ServeSpan, clock: &ServeClock) -> bool {
        let mut guard = self.inner.lock().expect("access log lock poisoned");
        let (writer, seq) = &mut *guard;
        *seq += 1;
        let t_ns = clock.now_ns();
        let fields = vec![("seq", jnum(*seq)), ("t_ns", jnum(t_ns))];
        let serde_json::Value::Map(span_fields) = span.to_value() else {
            unreachable!("span values are maps");
        };
        let mut line = jobj(fields);
        if let serde_json::Value::Map(m) = &mut line {
            m.extend(span_fields);
        }
        let text = serde_json::to_string(&line).expect("spans serialize");
        writeln!(writer, "{text}").is_ok() && writer.flush().is_ok()
    }
}

/// One parsed access-log line.
#[derive(Debug, Clone)]
pub struct AccessRecord {
    /// Line sequence number (1-based).
    pub seq: u64,
    /// Daemon-clock append time, ns.
    pub t_ns: u64,
    /// Request id (`r-…`).
    pub id: String,
    /// `ok` / `error` / `rejected`.
    pub outcome: String,
    /// Result disposition.
    pub disposition: String,
    /// `(phase, duration ns)` in [`PHASES`] order.
    pub phases: Vec<(String, u64)>,
    /// End-to-end wall time, ns.
    pub e2e_ns: u64,
}

/// Parses and lints an access log: every line must be valid JSON with the
/// required fields, `seq` must increment by one from 1, `t_ns` must be
/// non-decreasing, request ids must be unique, and every line's phase
/// durations must tile `e2e_ns` exactly. Returns the parsed records, or
/// every violation found.
pub fn lint_access_log(text: &str) -> Result<Vec<AccessRecord>, Vec<String>> {
    let mut errors = Vec::new();
    let mut records = Vec::new();
    let mut seen_ids = std::collections::BTreeSet::new();
    let (mut last_seq, mut last_t) = (0u64, 0u64);
    for (no, line) in text.lines().enumerate() {
        let lineno = no + 1;
        if line.trim().is_empty() {
            errors.push(format!("line {lineno}: empty line"));
            continue;
        }
        let value: serde_json::Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {lineno}: not JSON: {e}"));
                continue;
            }
        };
        let rec = match parse_record(&value) {
            Ok(r) => r,
            Err(e) => {
                errors.push(format!("line {lineno}: {e}"));
                continue;
            }
        };
        if rec.seq != last_seq + 1 {
            errors.push(format!(
                "line {lineno}: seq {} after {} (must increment by 1)",
                rec.seq, last_seq
            ));
        }
        if rec.t_ns < last_t {
            errors.push(format!(
                "line {lineno}: t_ns {} before {} (timestamps must be monotone)",
                rec.t_ns, last_t
            ));
        }
        if !seen_ids.insert(rec.id.clone()) {
            errors.push(format!("line {lineno}: duplicate request id '{}'", rec.id));
        }
        let sum: u64 = rec.phases.iter().map(|&(_, d)| d).sum();
        if sum != rec.e2e_ns {
            errors.push(format!(
                "line {lineno}: phase durations sum to {sum} but e2e_ns is {} \
                 (spans must tile exactly)",
                rec.e2e_ns
            ));
        }
        let names: Vec<&str> = rec.phases.iter().map(|(n, _)| n.as_str()).collect();
        if names != PHASES {
            errors.push(format!("line {lineno}: phases {names:?} != {PHASES:?}"));
        }
        last_seq = rec.seq;
        last_t = rec.t_ns;
        records.push(rec);
    }
    if errors.is_empty() {
        Ok(records)
    } else {
        Err(errors)
    }
}

fn parse_record(v: &serde_json::Value) -> Result<AccessRecord, String> {
    let num = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("missing numeric field '{k}'"))
    };
    let text = |k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(|x| x.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field '{k}'"))
    };
    let phases_v = v
        .get("phases")
        .and_then(|p| p.as_map())
        .ok_or("missing object field 'phases'")?;
    let mut phases = Vec::with_capacity(phases_v.len());
    for (name, d) in phases_v {
        let d = d
            .as_u64()
            .ok_or_else(|| format!("phase '{name}' duration is not a non-negative integer"))?;
        phases.push((name.clone(), d));
    }
    let (seq, t_ns, id) = (num("seq")?, num("t_ns")?, text("id")?);
    // Required fields the record does not keep.
    for k in ["client", "route", "point"] {
        text(k)?;
    }
    for k in ["points", "status"] {
        num(k)?;
    }
    Ok(AccessRecord {
        seq,
        t_ns,
        id,
        outcome: text("outcome")?,
        disposition: text("disposition")?,
        phases,
        e2e_ns: num("e2e_ns")?,
    })
}

/// Fixed-size in-memory ring of the last N completed spans — enough
/// history to answer "what just happened?" without unbounded growth.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<RecorderInner>,
}

#[derive(Debug, Default)]
struct RecorderInner {
    ring: VecDeque<Arc<ServeSpan>>,
    recorded: u64,
    evicted: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(RecorderInner::default()),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records a completed span, evicting the oldest at capacity. Returns
    /// true when an eviction happened.
    pub fn push(&self, span: Arc<ServeSpan>) -> bool {
        let mut inner = self.inner.lock().expect("recorder lock poisoned");
        inner.recorded += 1;
        let evict = inner.ring.len() == self.capacity;
        if evict {
            inner.ring.pop_front();
            inner.evicted += 1;
        }
        inner.ring.push_back(span);
        evict
    }

    /// The recorded spans oldest-first, plus `(recorded, evicted)` totals.
    pub fn snapshot(&self) -> (Vec<Arc<ServeSpan>>, u64, u64) {
        let inner = self.inner.lock().expect("recorder lock poisoned");
        (
            inner.ring.iter().cloned().collect(),
            inner.recorded,
            inner.evicted,
        )
    }
}

/// The slowest `k` spans of a snapshot, descending by end-to-end time.
/// Ties break on request id (older first) so the answer is deterministic
/// for a fixed snapshot.
pub fn slowest(spans: &[Arc<ServeSpan>], k: usize) -> Vec<Arc<ServeSpan>> {
    let mut sorted: Vec<Arc<ServeSpan>> = spans.to_vec();
    sorted.sort_by(|a, b| b.e2e_ns().cmp(&a.e2e_ns()).then(a.id.cmp(&b.id)));
    sorted.truncate(k);
    sorted
}

/// Converts recorder spans to Chrome trace-event JSON through the same
/// [`ChromeTraceBuilder`] the sim tracer uses, so daemon request timelines
/// open in `chrome://tracing` / Perfetto exactly like sim traces: one
/// *process* per client, one *track* (tid = request id) per request, an
/// umbrella `request` slice spanning e2e, and one nested slice per
/// non-empty phase. Args carry the request id, point, disposition and
/// outcome.
pub fn chrome_trace(spans: &[Arc<ServeSpan>]) -> String {
    use serde_json::Value;

    let mut clients: Vec<&str> = spans.iter().map(|s| s.client.as_str()).collect();
    clients.sort_unstable();
    clients.dedup();
    let pid_of = |client: &str| -> u64 {
        clients
            .binary_search(&client)
            .expect("every span client is indexed") as u64
            + 1
    };
    let mut trace = ChromeTraceBuilder::new();
    for c in &clients {
        trace.process_name(pid_of(c), c);
    }
    for span in spans {
        let pid = pid_of(&span.client);
        let tid = span.id;
        let args = vec![
            ("id", jstr(&span.request_id())),
            ("point", jstr(&span.point)),
            ("points", Value::U64(span.points as u64)),
            ("outcome", jstr(span.outcome)),
            ("disposition", jstr(span.disposition)),
        ];
        trace.complete(
            "request",
            "serve",
            span.accept_ns as f64 / 1000.0,
            span.e2e_ns() as f64 / 1000.0,
            pid,
            tid,
            args,
        );
        let t = span.timestamps();
        for (i, &(name, dur)) in span.phases().iter().enumerate() {
            if dur == 0 {
                continue;
            }
            trace.complete(
                name,
                "phase",
                t[i] as f64 / 1000.0,
                dur as f64 / 1000.0,
                pid,
                tid,
                vec![("id", jstr(&span.request_id()))],
            );
        }
    }
    trace.finish()
}

/// The observability plane one daemon carries: the clock, the request-id
/// source, the flight recorder, and the optional access log.
#[derive(Debug)]
pub struct Obs {
    /// The daemon's monotonic epoch.
    pub clock: ServeClock,
    next_id: AtomicU64,
    /// The completed-span ring buffer.
    pub recorder: FlightRecorder,
    /// The JSONL access log, when `--access-log` was given.
    pub access_log: Option<AccessLog>,
}

impl Obs {
    /// Builds the plane; creates the access-log file when a path is given.
    pub fn new(recorder_capacity: usize, access_log: Option<&Path>) -> std::io::Result<Obs> {
        Ok(Obs {
            clock: ServeClock::new(),
            next_id: AtomicU64::new(1),
            recorder: FlightRecorder::new(recorder_capacity),
            access_log: access_log.map(AccessLog::create).transpose()?,
        })
    }

    /// Nanoseconds since daemon start.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Allocates the next request id.
    pub fn next_request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Completes a span: append to the access log, push into the flight
    /// recorder, and record the request-level metric series (per-phase
    /// histograms, per-client e2e, request counters) into the
    /// daemon registry, the e2e series under `client_label`. Returns the
    /// shared span.
    pub fn complete(
        &self,
        span: ServeSpan,
        metrics: &mut MetricsRegistry,
        client_label: &str,
    ) -> Arc<ServeSpan> {
        debug_assert!(span.tiles_exactly(), "span phases must tile e2e: {span:?}");
        let at = SimTime::from_nanos(span.done_ns);
        for (phase, d) in span.phases() {
            metrics.observe("chiplet_serve_phase_ns", &[("phase", phase)], at, d as f64);
        }
        metrics.observe(
            "chiplet_serve_e2e_ns",
            &[("client", client_label)],
            at,
            span.e2e_ns() as f64,
        );
        metrics.counter_add(
            "chiplet_serve_requests",
            &[("route", span.route), ("outcome", span.outcome)],
            1.0,
        );
        if let Some(log) = &self.access_log {
            if log.append(&span, &self.clock) {
                metrics.counter_add("chiplet_serve_access_log_lines", &[], 1.0);
            }
        }
        let span = Arc::new(span);
        if self.recorder.push(span.clone()) {
            metrics.counter_add("chiplet_serve_recorder_evicted", &[], 1.0);
        }
        span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, base: u64, widths: [u64; 6]) -> ServeSpan {
        let mut t = [0u64; 7];
        t[0] = base;
        for i in 0..6 {
            t[i + 1] = t[i] + widths[i];
        }
        ServeSpan {
            id,
            client: format!("c{}", id % 3),
            route: "/v1/run",
            point: format!("hash{id}"),
            points: 1,
            status: 200,
            outcome: "ok",
            disposition: "executed",
            accept_ns: t[0],
            parsed_ns: t[1],
            admitted_ns: t[2],
            dequeued_ns: t[3],
            probed_ns: t[4],
            executed_ns: t[5],
            done_ns: t[6],
        }
    }

    #[test]
    fn phases_tile_e2e_exactly() {
        let s = span(1, 100, [3, 0, 250, 7, 90_000, 12]);
        assert!(s.tiles_exactly());
        assert_eq!(s.e2e_ns(), 3 + 250 + 7 + 90_000 + 12);
        let sum: u64 = s.phases().iter().map(|&(_, d)| d).sum();
        assert_eq!(sum, s.e2e_ns());
        // Zero-width phases are fine — they tile as zero.
        assert_eq!(s.phases()[1], ("admit", 0));
    }

    #[test]
    fn recorder_ring_evicts_oldest() {
        let rec = FlightRecorder::new(3);
        for i in 1..=5u64 {
            rec.push(Arc::new(span(i, i * 10, [1, 1, 1, 1, 1, 1])));
        }
        let (spans, recorded, evicted) = rec.snapshot();
        assert_eq!(recorded, 5);
        assert_eq!(evicted, 2);
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn slowest_orders_by_e2e_then_id() {
        let spans: Vec<Arc<ServeSpan>> = vec![
            Arc::new(span(1, 0, [1, 1, 1, 1, 100, 1])),
            Arc::new(span(2, 0, [1, 1, 1, 1, 500, 1])),
            Arc::new(span(3, 0, [1, 1, 1, 1, 100, 1])),
        ];
        let top = slowest(&spans, 2);
        assert_eq!(top[0].id, 2);
        assert_eq!(top[1].id, 1, "tie breaks to the older request");
    }

    #[test]
    fn access_log_lints_clean_and_catches_violations() {
        let dir = std::env::temp_dir().join(format!("chiplet-obs-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("access.jsonl");
        let log = AccessLog::create(&path).unwrap();
        let clock = ServeClock::new();
        for i in 1..=4u64 {
            assert!(log.append(&span(i, i * 1000, [1, 2, 3, 4, 5, 6]), &clock));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let records = lint_access_log(&text).expect("clean log lints");
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].id, "r-00000001");
        assert_eq!(records[3].seq, 4);
        assert_eq!(records[0].e2e_ns, 21);

        // A broken line, a bad seq, and a tiling violation all surface.
        let broken = format!("{}\nnot json\n", text.trim_end());
        let errs = lint_access_log(&broken).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not JSON")), "{errs:?}");

        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(1, 2);
        let swapped = lines.join("\n");
        let errs = lint_access_log(&swapped).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("seq")), "{errs:?}");

        let tampered = text.replace("\"e2e_ns\":21", "\"e2e_ns\":22");
        let errs = lint_access_log(&tampered).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("tile")), "{errs:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chrome_trace_exports_valid_deterministic_json() {
        let spans: Vec<Arc<ServeSpan>> = (1..=3u64)
            .map(|i| Arc::new(span(i, i * 100, [1, 0, 5, 2, 50, 3])))
            .collect();
        let json = chrome_trace(&spans);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap();
        // Clients c0/c1/c2 → 3 process_name metas; per span: 1 umbrella +
        // 5 non-empty phases (admit is zero-width).
        assert_eq!(events.len(), 3 + 3 * 6);
        let request_events: Vec<&serde_json::Value> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("request"))
            .collect();
        assert_eq!(request_events.len(), 3);
        for ev in &request_events {
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
            assert!(ev.get("args").unwrap().get("point").is_some());
        }
        assert_eq!(json, chrome_trace(&spans), "deterministic bytes");
    }

    #[test]
    fn complete_records_histograms_and_counters() {
        let mut metrics = MetricsRegistry::new();
        crate::serve::describe_serve_metrics(&mut metrics);
        let obs = Obs::new(8, None).unwrap();
        obs.complete(span(2, 50, [1, 1, 1, 1, 1, 1]), &mut metrics, "c2");
        assert_eq!(
            metrics.counter_value(
                "chiplet_serve_requests",
                &[("route", "/v1/run"), ("outcome", "ok")]
            ),
            Some(1.0)
        );
        assert_eq!(
            metrics
                .histogram("chiplet_serve_phase_ns", &[("phase", "exec")])
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            metrics
                .histogram("chiplet_serve_e2e_ns", &[("client", "c2")])
                .unwrap()
                .count(),
            1
        );
        // All of it is volatile: the deterministic dump stays empty.
        assert_eq!(metrics.to_openmetrics(), "# EOF\n");
        chiplet_net::lint_openmetrics(&metrics.to_openmetrics_with_volatile())
            .expect("volatile dump lints");
    }
}
