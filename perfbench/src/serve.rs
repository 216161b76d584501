//! The `serve_mix` workload: an in-process `chiplet_bench::serve::Server`
//! under an open-loop Poisson load of `POST /v1/run` requests.
//!
//! The mix is about 70 % cache hits on a hot set seeded at set-up, 25 %
//! fresh fig3-class points that execute and write the cache, and 5 %
//! repeats of the fresh point submitted last (single-flight dedup or a
//! just-written entry). Requests are due on a seeded schedule; at most
//! `nproc` connections are open at once, and a request that is due while
//! every connection is busy waits in the generator, its latency counted
//! from when it was due. Between the fixed-rate slices, closed-loop
//! replays of the same mix measure how fast the daemon serves.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use chiplet_bench::scenarios::sweeps::fig3_sweep;
use chiplet_bench::serve::http::{fetch, fetch_with_headers, header};
use chiplet_bench::serve::obs::lint_access_log;
use chiplet_bench::serve::{ServeConfig, Server};
use chiplet_net::scenario::{spec_hash, ScenarioSpec, SweepPoint, SweepRunner};
use chiplet_sim::{Bandwidth, DemandSchedule};

use crate::stats::{median, quantile, Rng};
use crate::trace::{account, Span, Tracer};
use crate::{Ctx, Metric, Report};

/// The latency limit on a rate's p99 that `max_rate_rps` must meet, ms.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// The fixed rates (req/s) reported as `lat_*_ms.<label>`, with the share
/// of `--seconds` each runs for: at 30 s, 1050 requests each. They are
/// 25, 50 and 75 % of 400 req/s, the lowest closed-loop capacity measured
/// on the reference host (see `README.md`).
pub const FIXED_RATES: [(&str, f64, f64); 3] = [
    ("low", 100.0, 0.35),
    ("mid", 200.0, 0.175),
    ("high", 300.0, 0.35 / 3.0),
];
/// The fixed rates and the closed-loop replays run interleaved, in this
/// many rounds of one slice each, so a slow spell of the host falls on
/// every slice alike.
const ROUNDS: usize = 10;
/// Requests in one closed-loop replay: sent back to back over `nproc`
/// connections, first send to last response is one `wall_s` sample.
const REPLAY_REQUESTS: usize = 300;
/// The label of a replay slice.
const REPLAY: &str = "replay";
/// The `max_rate_rps` ladder (req/s) from above `high` to the highest
/// closed-loop capacity measured on the reference host, climbed until a
/// rung misses the limit; each rung runs for `LADDER_SHARE` of
/// `--seconds`. The fixed rates are its lowest rungs.
pub const LADDER: [f64; 8] = [350.0, 400.0, 450.0, 500.0, 550.0, 600.0, 650.0, 700.0];
const LADDER_SHARE: f64 = 0.03;
/// Hot-set size: cached points the hits are drawn from.
const HOT_POINTS: usize = 64;
/// Set-ups timed for `setup_s`, median (the last daemon serves).
const SETUP_REPS: usize = 9;
/// Offered loads (GB/s) a fig3-class point draws from.
const DEMANDS: [f64; 8] = [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 32.0, 40.0];

/// What one request asks for.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A hot-set point (index).
    Hot(usize),
    /// A fresh point (index into the fresh list).
    Fresh(usize),
    /// A repeat of a fresh point (index into the fresh list).
    Repeat(usize),
}

/// One scheduled request and what happened to it (ns on the run clock).
#[derive(Debug, Clone)]
struct Sent {
    kind: Kind,
    due: u64,
    taken: u64,
    start: u64,
    end: u64,
    status: u16,
    request_id: Option<String>,
    /// Length and FNV-1a of the response body. Only these are kept, so
    /// the client's memory does not grow with the responses.
    body: (usize, u64),
    /// The start of the body, or the I/O error, of a non-200 answer.
    error: Option<String>,
}

impl Sent {
    fn latency_ms(&self) -> f64 {
        if self.status == 200 {
            self.end.saturating_sub(self.due) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }

    /// Time the generator itself was late: the send started after the
    /// request was due and a connection was free.
    fn late_ns(&self) -> u64 {
        self.start.saturating_sub(self.due.max(self.taken))
    }
}

/// A fig3-class point: CCD 0 of the EPYC 9634 reading all DIMMs at one
/// offered load, with its own seed.
fn fig3_point(base: &ScenarioSpec, tag: &str, seed: u64, demand: f64) -> SweepPoint {
    let mut spec = base.clone();
    spec.seed = Some(seed);
    spec.name = format!("serve_mix [{tag}]");
    spec.flows[0].demand = Some(DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(
        demand,
    ))));
    SweepPoint {
        label: tag.to_string(),
        hash: spec_hash(&spec),
        spec,
    }
}

/// One phase of a pass: rate label, rate (req/s), and each request's due
/// time (ns from the phase start) and kind.
type Phase = (String, f64, Vec<(u64, Kind)>);

/// The generated inputs of one pass: the request schedule per phase and
/// the fresh points it submits.
struct Plan {
    phases: Vec<Phase>,
    fresh: Vec<SweepPoint>,
}

/// The request mix, dealt in shuffled decks so every stretch of the
/// schedule holds the same shares: 14 hits, 5 fresh points, 1 repeat.
const DECK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2];

/// `n` Poisson arrivals at `rate` (all due at once when the rate is
/// infinite: a closed-loop replay), the mix dealt from [`DECK`]. Fresh
/// points cycle through [`DEMANDS`].
fn plan_phase(
    rng: &mut Rng,
    rate: f64,
    n: usize,
    base: &ScenarioSpec,
    seed: u64,
    fresh: &mut Vec<SweepPoint>,
) -> Vec<(u64, Kind)> {
    let mut t = 0.0f64;
    let mut reqs = Vec::with_capacity(n);
    let mut deck = DECK;
    for i in 0..n {
        if i % deck.len() == 0 {
            for j in (1..deck.len()).rev() {
                deck.swap(j, rng.below(j + 1));
            }
        }
        t += -(1.0 - rng.unit()).ln() / rate;
        let kind = match deck[i % deck.len()] {
            0 => Kind::Hot(rng.below(HOT_POINTS)),
            2 if !fresh.is_empty() => Kind::Repeat(fresh.len() - 1),
            _ => {
                let k = fresh.len();
                let point_seed = crate::stats::mix(seed ^ 0xf4e5 ^ ((k as u64) << 20));
                let demand = DEMANDS[(seed as usize).wrapping_add(k) % DEMANDS.len()];
                fresh.push(fig3_point(base, &format!("fresh {k}"), point_seed, demand));
                Kind::Fresh(k)
            }
        };
        reqs.push(((t * 1e9) as u64, kind));
    }
    reqs
}

/// Requests of an open-loop slice of `secs` at `rate`.
fn arrivals(rate: f64, secs: f64) -> usize {
    (rate * secs).round().max(1.0) as usize
}

/// The schedule of one pass: [`ROUNDS`] rounds of the fixed-rate slices,
/// and when `full`, a closed-loop replay in every round and the ladder
/// after them.
fn plan(seed: u64, pass: u64, secs: f64, full: bool) -> Plan {
    let mut base = fig3_sweep().base;
    base.seed = Some(seed);
    let mut rng = Rng::new(seed, 0x5e7e + pass);
    let mut fresh = Vec::new();
    let pass_seed = crate::stats::mix(seed ^ pass);
    let mut phases = Vec::new();
    for _ in 0..ROUNDS {
        for (label, rate, share) in FIXED_RATES {
            let n = arrivals(rate, secs * share / ROUNDS as f64);
            let reqs = plan_phase(&mut rng, rate, n, &base, pass_seed, &mut fresh);
            phases.push((label.to_string(), rate, reqs));
        }
        if full {
            let reqs = plan_phase(
                &mut rng,
                f64::INFINITY,
                REPLAY_REQUESTS,
                &base,
                pass_seed,
                &mut fresh,
            );
            phases.push((REPLAY.to_string(), f64::INFINITY, reqs));
        }
    }
    if full {
        for rate in LADDER {
            let n = arrivals(rate, secs * LADDER_SHARE);
            let reqs = plan_phase(&mut rng, rate, n, &base, pass_seed, &mut fresh);
            phases.push((format!("ladder {rate}"), rate, reqs));
        }
    }
    Plan { phases, fresh }
}

/// The hot set: fig3-class points at every offered load, several seeds.
fn hot_points(seed: u64) -> Vec<SweepPoint> {
    let mut base = fig3_sweep().base;
    base.seed = Some(seed);
    (0..HOT_POINTS)
        .map(|i| {
            let s = crate::stats::mix(seed ^ 0x407 ^ ((i as u64) << 24));
            fig3_point(&base, &format!("hot {i}"), s, DEMANDS[i % DEMANDS.len()])
        })
        .collect()
}

/// A running daemon with its cache seeded with the hot set.
struct Daemon {
    server: Server,
    addr: String,
    /// [`digest`] of each hot point's batch report, as the daemon sends it.
    hot: Vec<(usize, u64)>,
}

/// Spawns the daemon on a fresh cache and seeds the hot set through the
/// batch runner, which shares the daemon's cache namespace.
fn start(ctx: &Ctx, dir: &Path, access_log: Option<&Path>) -> Result<Daemon, String> {
    let cache = dir.join("cache");
    let server = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: ctx.jobs,
        cache_dir: Some(cache.clone()),
        access_log: access_log.map(Path::to_path_buf),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("spawn daemon: {e}"))?;
    let addr = server.addr().to_string();
    let runner = SweepRunner {
        jobs: ctx.jobs,
        cache_dir: Some(cache),
    };
    let (outcome, _) = runner
        .run_points("serve_mix/hot", hot_points(ctx.seed))
        .map_err(|e| e.to_string())?;
    let hot = outcome
        .points
        .iter()
        .map(|p| digest(&format!("{}\n", p.report.to_json())))
        .collect();
    match fetch(&addr, "GET", "/healthz", None) {
        Ok((200, _)) => Ok(Daemon { server, addr, hot }),
        other => Err(format!("daemon not healthy: {other:?}")),
    }
}

/// Length and FNV-1a 64 of a response body: what the check compares.
fn digest(text: &str) -> (usize, u64) {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (text.len(), h)
}

/// Fires one phase's schedule from `conns` connection threads and waits
/// for every response.
fn run_phase(
    clock: &Tracer,
    addr: &str,
    conns: usize,
    reqs: &[(u64, Kind)],
    bodies: &(Vec<String>, Vec<String>),
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Sent>> = Mutex::new(Vec::with_capacity(reqs.len()));
    let t0 = clock.now_ns();
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(offset, kind)) = reqs.get(i) else {
                    break;
                };
                let due = t0 + offset;
                let taken = clock.now_ns();
                if due > taken {
                    std::thread::sleep(Duration::from_nanos(due - taken));
                }
                let body = match kind {
                    Kind::Hot(h) => &bodies.0[h],
                    Kind::Fresh(f) | Kind::Repeat(f) => &bodies.1[f],
                };
                let start = clock.now_ns();
                let r = fetch_with_headers(addr, "POST", "/v1/run?client=gen", Some(body));
                let end = clock.now_ns();
                let (status, request_id, body, error) = match r {
                    Ok((status, headers, text)) => (
                        status,
                        header(&headers, "x-request-id").map(str::to_string),
                        digest(&text),
                        (status != 200).then(|| text.chars().take(120).collect()),
                    ),
                    Err(e) => (0, None, (0, 0), Some(e.to_string())),
                };
                out.lock().expect("results poisoned").push(Sent {
                    kind,
                    due,
                    taken,
                    start,
                    end,
                    status,
                    request_id,
                    body,
                    error,
                });
            });
        }
    });
    let mut v = out.into_inner().expect("results poisoned");
    v.sort_by_key(|r| r.due);
    v
}

/// Most requests waiting for a free connection at any instant.
fn backlog_max(sent: &[Sent]) -> usize {
    let mut ev: Vec<(u64, i32)> = Vec::new();
    for r in sent.iter().filter(|r| r.taken > r.due) {
        ev.push((r.due, 1));
        ev.push((r.taken, -1));
    }
    ev.sort();
    let (mut cur, mut max) = (0i32, 0i32);
    for (_, d) in ev {
        cur += d;
        max = max.max(cur);
    }
    max as usize
}

/// True when waiting for a connection grew across the phase: the last
/// quarter waited longer on average than the first by over a quarter of
/// the latency limit.
fn backlog_grows(sent: &[Sent]) -> bool {
    let q = sent.len() / 4;
    if q == 0 {
        return false;
    }
    let wait = |rs: &[Sent]| {
        rs.iter()
            .map(|r| r.taken.saturating_sub(r.due) as f64)
            .sum::<f64>()
            / rs.len() as f64
            / 1e6
    };
    wait(&sent[sent.len() - q..]) - wait(&sent[..q]) > LATENCY_LIMIT_MS / 4.0
}

/// One pass: the phases of `plan` against a fresh daemon, with each
/// phase's peak resident memory (MiB) and process CPU time (s).
struct Pass {
    daemon: Daemon,
    plan: Plan,
    results: Vec<Vec<Sent>>,
    rss: Vec<f64>,
    cpu: Vec<f64>,
}

fn run_pass(ctx: &Ctx, clock: &Tracer, daemon: Daemon, plan: Plan) -> Pass {
    let fresh_bodies: Vec<String> = plan.fresh.iter().map(|p| p.spec.to_json()).collect();
    let hot_bodies: Vec<String> = hot_points(ctx.seed)
        .iter()
        .map(|p| p.spec.to_json())
        .collect();
    let bodies = (hot_bodies, fresh_bodies);
    let mut pass = Pass {
        daemon,
        plan,
        results: Vec::new(),
        rss: Vec::new(),
        cpu: Vec::new(),
    };
    // Every fixed-rate slice runs; the ladder climbs only while no rung,
    // the fixed rates included, has missed the limit.
    for (label, _, reqs) in &pass.plan.phases {
        if label.starts_with("ladder") && rungs(&pass).iter().any(Rung::fails) {
            break;
        }
        crate::stats::reset_peak_rss();
        let cpu = crate::stats::process_cpu_s();
        let sent = run_phase(clock, &pass.daemon.addr, ctx.jobs, reqs, &bodies);
        pass.cpu.push(crate::stats::process_cpu_s() - cpu);
        pass.rss.push(crate::stats::peak_rss_mib());
        pass.results.push(sent);
    }
    for w in replay_walls(&pass) {
        eprintln!(
            "  replay: {REPLAY_REQUESTS} req closed-loop in {:.4} s = {:.1} req/s",
            w,
            REPLAY_REQUESTS as f64 / w
        );
    }
    for r in rungs(&pass) {
        eprintln!(
            "  rate {:>11}: {} req at {} req/s, p50 {:.3} ms, p99 {:.3} ms",
            r.label,
            r.requests(),
            r.rate,
            r.quantile(0.5),
            r.quantile(0.99)
        );
    }
    pass
}

/// The slices run at one rate.
struct Rung<'a> {
    label: &'a str,
    rate: f64,
    slices: Vec<&'a [Sent]>,
}

impl Rung<'_> {
    fn requests(&self) -> usize {
        self.slices.iter().map(|s| s.len()).sum()
    }

    /// The latency quantile `q` of each slice, median over the slices: a
    /// slow spell of the host that covers a minority of the rounds does
    /// not move it.
    fn quantile(&self, q: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|s| quantile(&s.iter().map(Sent::latency_ms).collect::<Vec<_>>(), q))
            .collect();
        median(&per_slice)
    }

    /// Missed the limit: p99 over it, or a slice whose wait for a
    /// connection kept growing.
    fn fails(&self) -> bool {
        self.quantile(0.99) > LATENCY_LIMIT_MS || self.slices.iter().any(|s| backlog_grows(s))
    }
}

/// The pass's open-loop results grouped by rate label, in order of first
/// run.
fn rungs(pass: &Pass) -> Vec<Rung<'_>> {
    let mut out: Vec<Rung> = Vec::new();
    for ((label, rate, _), sent) in pass.plan.phases.iter().zip(&pass.results) {
        if label == REPLAY {
            continue;
        }
        match out.iter_mut().find(|r| r.label == label) {
            Some(r) => r.slices.push(sent),
            None => out.push(Rung {
                label,
                rate: *rate,
                slices: vec![sent],
            }),
        }
    }
    out
}

/// The highest rate meeting the limit: the last passing rung (the fixed
/// rates are the lowest rungs), moved toward the first failing one by
/// where the p99 crosses the limit between them.
fn max_rate(pass: &Pass) -> (f64, usize) {
    let mut prev: Option<(f64, f64)> = None;
    let mut samples = 0;
    for rung in rungs(pass) {
        samples += rung.requests();
        let p99 = rung.quantile(0.99);
        if !rung.fails() {
            prev = Some((rung.rate, p99));
            continue;
        }
        // A rung that failed by a growing backlog, not by its p99, gives
        // no crossing to interpolate: the last passing rung stands.
        let (r0, l0) = prev.unwrap_or((0.0, 0.0));
        let frac = if p99.is_finite() && p99 > LATENCY_LIMIT_MS {
            ((LATENCY_LIMIT_MS - l0) / (p99 - l0)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        return (r0 + frac * (rung.rate - r0), samples);
    }
    (prev.map_or(0.0, |p| p.0), samples)
}

/// Checks every response body against the batch report of its spec.
fn check(ctx: &Ctx, pass: &Pass, report: &mut Report) -> Result<(), String> {
    let used = pass.results.iter().flatten().filter_map(|r| match r.kind {
        Kind::Fresh(f) | Kind::Repeat(f) => Some(f),
        Kind::Hot(_) => None,
    });
    let used = used.max().map_or(0, |m| m + 1);
    let (fresh, _) = SweepRunner::with_jobs(ctx.jobs)
        .run_points("serve_mix/fresh", pass.plan.fresh[..used].to_vec())
        .map_err(|e| e.to_string())?;
    let expected: Vec<(usize, u64)> = fresh
        .points
        .iter()
        .map(|p| digest(&format!("{}\n", p.report.to_json())))
        .collect();
    for r in pass.results.iter().flatten() {
        report.attempted += 1;
        let want = match r.kind {
            Kind::Hot(h) => pass.daemon.hot[h],
            Kind::Fresh(f) | Kind::Repeat(f) => expected[f],
        };
        if r.status != 200 || r.body != want {
            report.fail(format!("{:?}: status {} {:?}", r.kind, r.status, r.error));
        }
    }
    Ok(())
}

/// Seconds from first send to last response of each closed-loop replay.
fn replay_walls(pass: &Pass) -> Vec<f64> {
    let phases = pass.plan.phases.iter().zip(&pass.results);
    phases
        .filter(|((label, _, _), _)| label == REPLAY)
        .map(|(_, s)| {
            let first = s.iter().map(|r| r.start).min().unwrap_or(0);
            let last = s.iter().map(|r| r.end).max().unwrap_or(0);
            last.saturating_sub(first) as f64 / 1e9
        })
        .collect()
}

/// Process CPU seconds of each closed-loop replay: the daemon's threads
/// and the client's.
fn replay_cpu(pass: &Pass) -> Vec<f64> {
    let phases = pass.plan.phases.iter().zip(&pass.cpu);
    phases
        .filter(|((label, _, _), _)| label == REPLAY)
        .map(|(_, &c)| c)
        .collect()
}

/// The replays' wall and CPU time and the peak memory of the fixed-rate
/// and replay slices (end-to-end), the fixed rates' latency metrics, the
/// generator's lateness and its deepest backlog.
fn pass_metrics(pass: &Pass, report: &mut Report) -> (Vec<Metric>, Vec<Metric>, f64, usize) {
    let mut m = Vec::new();
    let fixed = pass.plan.phases.iter().zip(&pass.rss);
    let rss: Vec<f64> = fixed
        .filter(|((label, _, _), _)| !label.starts_with("ladder"))
        .map(|(_, &r)| r)
        .collect();
    for rung in rungs(pass) {
        if rung.label.starts_with("ladder") {
            continue;
        }
        let (label, n) = (rung.label, rung.requests());
        m.push(Metric::new(
            &format!("lat_p50_ms.{label}"),
            rung.quantile(0.5),
            "ms",
            n,
        ));
        m.push(Metric::new(
            &format!("lat_p99_ms.{label}"),
            rung.quantile(0.99),
            "ms",
            n,
        ));
        if n < 1000 {
            report.note(format!("rate {label}: only {n} requests (< 1000)"));
        }
    }
    let walls = replay_walls(pass);
    let mut e2e = vec![Metric::new("peak_rss_mb", median(&rss), "MiB", rss.len())];
    if !walls.is_empty() {
        // Neighbours on a shared host only ever add time to a replay that
        // keeps every core busy, so its wall time is the lower quartile of
        // the replays; the median is noted beside it. CPU time leaves the
        // stolen time out and is the median.
        e2e.push(Metric::new(
            "wall_s",
            quantile(&walls, 0.25),
            "s",
            walls.len(),
        ));
        report.note(format!("replay wall median = {:.6} s", median(&walls)));
        let cpu = replay_cpu(pass);
        e2e.push(Metric::new("cpu_s", median(&cpu), "s", cpu.len()));
    }
    let open = || {
        let phases = pass.plan.phases.iter().zip(&pass.results);
        phases
            .filter(|((label, _, _), _)| label != REPLAY)
            .map(|(_, s)| s)
    };
    let late: Vec<f64> = open().flatten().map(|r| r.late_ns() as f64 / 1e6).collect();
    let backlog = open().map(|s| backlog_max(s)).max().unwrap_or(0);
    (e2e, m, quantile(&late, 0.99), backlog)
}

/// The `serve_mix` workload.
pub fn serve_mix(ctx: &Ctx) -> Result<Report, String> {
    let clock = Tracer::new();
    let mut setup = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for r in 0..SETUP_REPS {
        let dir = ctx.work.join(format!("serve-{r}"));
        let t = Instant::now();
        let d = start(ctx, &dir, None)?;
        setup.push(t.elapsed().as_secs_f64());
        if let Some(old) = daemon.replace(d) {
            old.server.shutdown();
        }
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let pass = run_pass(ctx, &clock, daemon, plan(ctx.seed, 0, secs, true));
    let mut report = Report::default();
    check(ctx, &pass, &mut report)?;
    let (e2e, latency, late_p99, backlog) = pass_metrics(&pass, &mut report);
    report.count("gen.backlog_max", backlog as u64);
    report.note(format!("gen.late_p99_ms = {late_p99:.4} ms"));
    report.e2e = vec![Metric::new("setup_s", median(&setup), "s", setup.len())];
    report.e2e.extend(e2e);
    let (rate, n) = max_rate(&pass);
    let mut layers = latency;
    layers.push(Metric::new("max_rate_rps", rate, "req/s", n));
    let untraced_mean = mean_latency(&pass);
    pass.daemon.server.shutdown();

    if ctx.trace {
        let dir = ctx.work.join("serve-traced");
        let log = ctx.work.join("access.jsonl");
        let daemon = start(ctx, &dir, Some(&log))?;
        let traced = run_pass(ctx, &clock, daemon, plan(ctx.seed, 1, secs, false));
        check(ctx, &traced, &mut report)?;
        let (_, _, late_p99, backlog) = pass_metrics(&traced, &mut Report::default());
        let text = std::fs::read_to_string(&log).map_err(|e| e.to_string())?;
        let records = lint_access_log(&text).map_err(|e| e.join("; "))?;
        let tr = Tracer::new();
        let (n, unmatched) = spans_from(&tr, &traced, &records);
        if let Some(first) = unmatched.first() {
            report.fail_n(
                unmatched.len(),
                format!(
                    "{} responses have no access-log record (first: id {first})",
                    unmatched.len()
                ),
            );
        }
        report.write_spans(ctx, &tr)?;
        let acc = account(&tr.spans());
        layers.extend(crate::layer_metrics(&acc, n as f64));
        layers.push(Metric::new(
            "trace_overhead_ms",
            acc.wall_ms / n as f64 - untraced_mean,
            "ms",
            n,
        ));
        layers.extend(phase_quantiles(&records));
        for (name, disposition) in [
            ("serve.dedup_ratio", "dedup"),
            ("cache.hit_ratio", "cache_hit"),
        ] {
            let k = records.iter().filter(|r| r.disposition == disposition);
            layers.push(Metric::new(
                name,
                k.count() as f64 / records.len().max(1) as f64,
                "ratio",
                records.len(),
            ));
        }
        layers.push(Metric::new("gen.late_p99_ms", late_p99, "ms", n));
        layers.push(Metric::new("gen.backlog_max", backlog as f64, "count", n));
        traced.daemon.server.shutdown();
    }
    report.layers = layers;
    Ok(report)
}

/// Mean latency over the fixed rates, ms.
fn mean_latency(pass: &Pass) -> f64 {
    let fixed = pass.plan.phases.iter().zip(&pass.results);
    let lat: Vec<f64> = fixed
        .filter(|((label, _, _), _)| !label.starts_with("ladder") && label != REPLAY)
        .flat_map(|(_, sent)| sent.iter().map(Sent::latency_ms))
        .collect();
    lat.iter().sum::<f64>() / lat.len().max(1) as f64
}

/// Builds one span tree per request: the generator's wait for a free
/// connection, its own lateness, and the HTTP call, whose children are
/// the daemon's phases from the access log (matched by request id).
/// Returns the number of requests and the request ids the access log has
/// no record of.
fn spans_from(
    tr: &Tracer,
    pass: &Pass,
    records: &[chiplet_bench::serve::obs::AccessRecord],
) -> (usize, Vec<String>) {
    let by_id: HashMap<&str, &chiplet_bench::serve::obs::AccessRecord> =
        records.iter().map(|r| (r.id.as_str(), r)).collect();
    let mut n = 0;
    let mut unmatched = Vec::new();
    for r in pass.results.iter().flatten() {
        n += 1;
        let root = tr.id();
        let sent_at = r.due.max(r.taken);
        if r.taken > r.due {
            record(tr, root, "gen.wait", r.due, r.taken);
        }
        record(tr, root, "gen.late", sent_at, r.start);
        let http = tr.id();
        match r.request_id.as_deref().and_then(|id| by_id.get(id)) {
            Some(rec) => {
                let mut at = r.start;
                for (phase, dur) in &rec.phases {
                    tr.attribute(serve_layer(phase), http, at, *dur);
                    at += dur;
                }
            }
            None => unmatched.push(format!("{:?}", r.request_id)),
        }
        tr.record(Span {
            id: http,
            parent: root,
            name: "client.http",
            lanes: 1,
            start_ns: r.start,
            end_ns: r.end,
        });
        tr.record(Span {
            id: root,
            parent: 0,
            name: "request",
            lanes: 1,
            start_ns: r.due,
            end_ns: r.end,
        });
    }
    (n, unmatched)
}

fn record(tr: &Tracer, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) {
    tr.record(Span {
        id: tr.id(),
        parent,
        name,
        lanes: 1,
        start_ns,
        end_ns: end_ns.max(start_ns),
    });
}

fn serve_layer(phase: &str) -> &'static str {
    match phase {
        "parse" => "serve.parse",
        "admit" => "serve.admit",
        "queue" => "serve.queue",
        "probe" => "serve.probe",
        "exec" => "serve.exec",
        "respond" => "serve.respond",
        _ => "serve.other",
    }
}

/// p50 and p99 of each daemon phase, µs.
fn phase_quantiles(records: &[chiplet_bench::serve::obs::AccessRecord]) -> Vec<Metric> {
    let mut m = Vec::new();
    for phase in ["parse", "admit", "queue", "probe", "exec", "respond"] {
        let v: Vec<f64> = records
            .iter()
            .filter_map(|r| r.phases.iter().find(|(p, _)| p == phase))
            .map(|(_, d)| *d as f64 / 1e3)
            .collect();
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            m.push(Metric::new(
                &format!("serve.{phase}_us.{tag}"),
                quantile(&v, q),
                "us",
                v.len(),
            ));
        }
    }
    m
}
