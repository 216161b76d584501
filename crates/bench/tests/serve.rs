//! End-to-end tests of the scenario-serving daemon: byte identity with the
//! batch CLI, fair-queue admission control, streaming progress, cache
//! integrity under concurrent load, and metrics hygiene.

use std::path::{Path, PathBuf};

use chiplet_bench::scenarios::{fig5, paper_registry, render, resolve_name, Verb};
use chiplet_bench::serve::hammer::{hammer, HammerOptions};
use chiplet_bench::serve::{describe_serve_metrics, http, obs, ServeConfig, Server};
use chiplet_net::dse::DseRunner;
use chiplet_net::scenario::{
    cache_path, spec_hash, ScenarioKind, SweepOutcome, SweepRunner, SweepSpec,
};
use chiplet_net::{lint_openmetrics, MetricsRegistry};
use chiplet_sim::SimTime;
use chiplet_topology::PlatformSpec;

fn registered_sweep(name: &str) -> SweepSpec {
    match (paper_registry().get(name).expect("registered").build)() {
        ScenarioKind::Sweep(s) => s,
        _ => panic!("{name} is a sweep"),
    }
}

fn fig5_sweep() -> SweepSpec {
    registered_sweep("fig5_sweep")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("chiplet-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(cache_dir: Option<PathBuf>, max_pending: usize, max_client: usize) -> Server {
    spawn_with_log(cache_dir, max_pending, max_client, None)
}

fn spawn_with_log(
    cache_dir: Option<PathBuf>,
    max_pending: usize,
    max_client: usize,
    access_log: Option<PathBuf>,
) -> Server {
    Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_dir,
        max_pending,
        max_client_pending: max_client,
        access_log,
        recorder: 256,
    })
    .expect("daemon binds")
}

#[test]
fn served_sweep_bytes_match_the_batch_runner() {
    let dir = scratch_dir("bytes");
    let server = spawn(Some(dir.clone()), 4096, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();

    let (status, served) =
        http::fetch(&addr, "POST", "/v1/sweep?client=t1", Some(&sweep.to_json()))
            .expect("POST /v1/sweep");
    assert_eq!(status, 200, "{served}");

    let (batch, _) = SweepRunner::with_jobs(0).run(&sweep).expect("batch run");
    assert_eq!(
        served,
        format!("{}\n", batch.to_json()),
        "daemon and batch CLI must produce identical bytes"
    );

    // A second submission is served from cache/dedup — still identical.
    let (status, again) = http::fetch(&addr, "POST", "/v1/sweep?client=t2", Some(&sweep.to_json()))
        .expect("POST /v1/sweep");
    assert_eq!(status, 200);
    assert_eq!(again, served, "cached responses are byte-identical too");

    // And the named-registry route resolves to the same sweep.
    let (status, named) =
        http::fetch(&addr, "POST", "/v1/sweep?name=fig5_sweep", None).expect("named sweep");
    assert_eq!(status, 200);
    assert_eq!(named, served);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_study_bytes_match_the_batch_runner() {
    // A study name on /v1/sweep runs the study's points, as they stand,
    // through the per-point queue and cache: the body is `chiplet-scenario
    // run fig5 --json --no-cache`, and each point's cache entry is the one
    // a /v1/run of the same spec uses.
    let dir = scratch_dir("study");
    let server = spawn(Some(dir.clone()), 4096, 4096);
    let addr = server.addr().to_string();
    let (status, served) =
        http::fetch(&addr, "POST", "/v1/sweep?name=fig5&client=t1", None).expect("named study");
    assert_eq!(status, 200, "{served}");
    let batch = resolve_name(Verb::Run, "fig5")
        .expect("registered")
        .run(&DseRunner::default(), None)
        .expect("batch run");
    assert_eq!(served, render(&batch, true));

    let panel = fig5::spec_if_9634();
    assert!(cache_path(&dir, &spec_hash(&panel)).is_file());
    let (status, single) =
        http::fetch(&addr, "POST", "/v1/run", Some(&panel.to_json())).expect("POST /v1/run");
    assert_eq!(status, 200, "{single}");
    let outcome = SweepOutcome::from_json(served.trim_end()).expect("an outcome");
    assert_eq!(single, format!("{}\n", outcome.points[0].report.to_json()));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_sweep_reports_every_point_then_done() {
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let (status, body) = http::fetch(
        &addr,
        "POST",
        "/v1/sweep?client=s1&stream=1",
        Some(&sweep.to_json()),
    )
    .expect("streamed sweep");
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    let total = sweep.expand().unwrap().len();
    assert_eq!(
        lines.len(),
        total + 1,
        "one line per point plus done:\n{body}"
    );
    for (i, line) in lines[..total].iter().enumerate() {
        assert!(line.contains("\"event\":\"point\""), "{line}");
        assert!(line.contains(&format!("\"index\":{i}")), "{line}");
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    assert!(lines[total].contains("\"event\":\"done\""), "{body}");
    assert!(lines[total].contains("\"failed\":0"), "{body}");
    server.shutdown();
}

#[test]
fn over_limit_submissions_get_a_clean_429() {
    // Global cap below the sweep's point count: all-or-nothing admission
    // must reject the whole batch regardless of queue state.
    let server = spawn(None, 4, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let (status, body) = http::fetch(
        &addr,
        "POST",
        "/v1/sweep?client=big",
        Some(&sweep.to_json()),
    )
    .expect("POST /v1/sweep");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");

    // A single point still fits: the daemon stays serviceable.
    let point = &sweep.expand().unwrap()[0];
    let (status, _) = http::fetch(
        &addr,
        "POST",
        "/v1/run?client=small",
        Some(&point.spec.to_json()),
    )
    .expect("POST /v1/run");
    assert_eq!(status, 200);

    // The reject landed in the metrics, labelled by client.
    let (status, metrics) = http::fetch(&addr, "GET", "/metrics", None).expect("GET /metrics");
    assert_eq!(status, 200);
    lint_openmetrics(&metrics).expect("metrics lint");
    assert!(
        metrics.contains("chiplet_serve_admission_rejects_total{client=\"big\"} 1"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn per_client_cap_rejects_independently_of_global() {
    let server = spawn(None, 4096, 4);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let (status, body) = http::fetch(&addr, "POST", "/v1/sweep?client=c1", Some(&sweep.to_json()))
        .expect("POST /v1/sweep");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("client over limit"), "{body}");
    server.shutdown();
}

#[test]
fn bad_submissions_fail_cleanly() {
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let cases = [
        ("POST", "/v1/run", Some("{ not json"), 400),
        ("POST", "/v1/run", None, 400),
        ("POST", "/v1/run?name=fig99", None, 404),
        ("POST", "/v1/sweep?name=fig5_if_9634", None, 400), // a spec, not a sweep
        ("GET", "/v1/nowhere", None, 404),
        ("DELETE", "/v1/run", None, 405),
    ];
    for (method, route, body, want) in cases {
        let (status, text) = http::fetch(&addr, method, route, body).expect("request");
        assert_eq!(status, want, "{method} {route}: {text}");
        assert!(text.contains("\"error\""), "{method} {route}: {text}");
    }
    let (status, health) = http::fetch(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, health.as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn hostile_horizon_gets_a_400_and_every_worker_survives() {
    // A horizon inside the statistics warmup, or a zero-width engine window
    // or fluid step, is a 400 every time, and no worker dies for it: a
    // panicking worker answers 500 and leaves its single-flight entry
    // behind, so a resubmission hangs. One hostile spec per worker
    // (distinct seeds, so single-flight cannot fold them), each submitted
    // twice, then four valid specs at once must all be served.
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let example = include_str!("../../../examples/scenarios/ccd_vs_cxl.json");
    let fluid = include_str!("../../../examples/scenarios/link_share.json").replacen(
        "\"horizon\"",
        "\"seed\": 7, \"horizon\"",
        1,
    );
    let fluid_links = "\"fluid\": {\"links\": [{\"Named\": \"if_9634\"}]";
    let with_seed =
        |spec: &str, seed: u64| spec.replacen("\"seed\": 7", &format!("\"seed\": {seed}"), 1);
    let hostile = [
        (
            example.replacen("\"horizon\": 40000", "\"horizon\": 1000", 1),
            "must exceed the statistics warmup",
        ),
        (
            example.replacen(
                "\"policy\"",
                "\"engine\": {\"trace_window\": 0}, \"policy\"",
                1,
            ),
            "engine.trace_window must be positive",
        ),
        (
            example.replacen(
                "\"policy\"",
                "\"engine\": {\"metrics_window\": 0}, \"policy\"",
                1,
            ),
            "engine.metrics_window must be positive",
        ),
        (
            fluid.replacen(fluid_links, &format!("{fluid_links}, \"dt\": 0"), 1),
            "fluid.dt must be positive",
        ),
        (
            fluid.replacen(fluid_links, &format!("{fluid_links}, \"sample\": 0"), 1),
            "fluid.sample must be positive",
        ),
    ];
    for (spec, want) in &hostile {
        assert!(spec.contains("\"seed\": 7"), "{spec}");
        for seed in 0..4 {
            for _ in 0..2 {
                let (status, text) =
                    http::fetch(&addr, "POST", "/v1/run", Some(&with_seed(spec, seed)))
                        .expect("request");
                assert_eq!(status, 400, "{text}");
                assert!(text.contains(want), "{text}");
            }
        }
    }
    let valid: Vec<_> = (0..4)
        .map(|seed| {
            let (addr, spec) = (addr.clone(), with_seed(example, seed));
            std::thread::spawn(move || http::fetch(&addr, "POST", "/v1/run", Some(&spec)))
        })
        .collect();
    for handle in valid {
        let (status, text) = handle.join().expect("client thread").expect("request");
        assert_eq!(status, 200, "{text}");
    }
    server.shutdown();
}

#[test]
fn degenerate_inline_platform_gets_a_400_and_wedges_no_worker() {
    // An inline platform the topology builder cannot build used to panic
    // the worker (a 500, with the spec's hash left in flight). Every
    // degenerate shape must be a typed 400, and the daemon must still
    // serve a valid spec afterwards.
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let example = include_str!("../../../examples/scenarios/two_flows.json");
    let named = "{\"Named\": \"epyc_7302\"}";
    assert!(example.contains(named));
    let preset = PlatformSpec::epyc_7302;
    let no_umcs = {
        let mut p = preset();
        p.mem.umc_count = 0;
        p
    };
    let cases = [
        (
            PlatformSpec {
                ccd_count: 0,
                ..preset()
            },
            "platform has no cores",
        ),
        (no_umcs, "platform has no memory channels"),
        (
            PlatformSpec {
                socket_count: 2,
                ..preset()
            },
            "dual-socket platform has no xgmi spec",
        ),
        (
            PlatformSpec {
                quadrant_grid: (0, 1),
                ..preset()
            },
            "quadrant_grid 0x1 is empty",
        ),
    ];
    for (platform, want) in cases {
        let inline = format!(
            "{{\"Inline\": {}}}",
            serde_json::to_string(&platform).unwrap()
        );
        let spec = example.replacen(named, &inline, 1);
        for _ in 0..2 {
            let (status, text) = fetch_within(&addr, "POST", "/v1/run", Some(&spec));
            assert_eq!(status, 400, "{text}");
            assert!(text.contains(want), "{text}");
        }
    }
    let (status, text) = fetch_within(&addr, "POST", "/v1/run", Some(example));
    assert_eq!(status, 200, "{text}");
    server.shutdown();
}

/// [`http::fetch`] that fails the test instead of hanging when the daemon
/// never answers (a dead worker leaves its single-flight entry behind, so
/// a resubmission of the same spec would park forever).
fn fetch_within(addr: &str, method: &str, target: &str, body: Option<&str>) -> (u16, String) {
    let (tx, rx) = std::sync::mpsc::channel();
    let request = (addr.to_string(), method.to_string(), target.to_string());
    let body = body.map(str::to_string);
    let fetcher = std::thread::spawn(move || {
        let (addr, method, target) = request;
        let _ = tx.send(http::fetch(&addr, &method, &target, body.as_deref()));
    });
    let reply = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{method} {target}: no response within 10 s"));
    fetcher.join().expect("fetch thread");
    reply.expect("request")
}

#[test]
fn malformed_schedule_gets_a_400_and_wedges_no_worker() {
    // A demand schedule whose first piece starts after zero used to parse
    // and then panic the worker at its first lookup, leaving the spec's
    // hash in flight: the resubmission parked forever. Both submissions
    // must be 400s, and the daemon must then serve a valid spec with every
    // worker idle and nothing in flight.
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let good = include_str!("../../../examples/scenarios/link_share.json");
    let late = good.replacen("[[0, null]", "[[5, null]", 1);
    assert_ne!(late, good, "the edit must land");
    for _ in 0..2 {
        let (status, text) = fetch_within(&addr, "POST", "/v1/run", Some(&late));
        assert_eq!(status, 400, "{text}");
        assert!(text.contains("schedule must start at zero"), "{text}");
    }
    let (status, text) = fetch_within(&addr, "POST", "/v1/run", Some(good));
    assert_eq!(status, 200, "{text}");
    wait_until_idle(&addr);
    server.shutdown();
}

/// Polls `GET /v1/status` (bounded) until no worker is busy and no key is
/// in flight, failing the test if the daemon never settles. The worker
/// answers before it marks itself idle, so one read can race it.
fn wait_until_idle(addr: &str) {
    let settled = |text: &str| {
        let doc: serde_json::Value = serde_json::from_str(text).expect("status is JSON");
        let busy = doc.get("busy_workers").and_then(|v| v.as_u64());
        let inflight = doc
            .get("inflight_keys")
            .and_then(|v| v.as_array())
            .map(<[_]>::len);
        (busy, inflight) == (Some(0), Some(0))
    };
    let mut text = String::new();
    for _ in 0..200 {
        let (status, body) = fetch_within(addr, "GET", "/v1/status", None);
        assert_eq!(status, 200, "{body}");
        text = body;
        if settled(&text) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        settled(&text),
        "a worker stayed busy or a key in flight: {text}"
    );
}

#[test]
fn overlapping_cores_get_a_400_and_wedge_no_worker() {
    // Two flows on one core used to trip the engine's core-ownership
    // assertion: the worker died, the first POST got a 500 "server shutting
    // down", the resubmission parked forever behind the dead leader, and
    // `/v1/status` kept the worker busy and the hash in flight. Each spec
    // (distinct seeds, so single-flight cannot fold them) must be a 400
    // twice, and the daemon must then serve valid specs with every worker
    // idle and nothing in flight.
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let good = include_str!("../../../examples/scenarios/two_flows.json");
    let shared = good.replacen("{\"Ccx\": 1}", "{\"Ccx\": 0}", 1);
    assert_ne!(shared, good, "the edit must land");
    let with_seed =
        |spec: &str, seed: u64| spec.replacen("\"seed\": 42", &format!("\"seed\": {seed}"), 1);
    for seed in 0..4 {
        for _ in 0..2 {
            let spec = with_seed(&shared, seed);
            let (status, text) = fetch_within(&addr, "POST", "/v1/run", Some(&spec));
            assert_eq!(status, 400, "{text}");
            let want = "flows 'ccx0-read' and 'ccx1-write' both issue from core 0";
            assert!(text.contains(want), "{text}");
        }
    }
    let valid: Vec<_> = (0..4)
        .map(|seed| {
            let (addr, spec) = (addr.clone(), with_seed(good, seed));
            std::thread::spawn(move || fetch_within(&addr, "POST", "/v1/run", Some(&spec)))
        })
        .collect();
    for handle in valid {
        let (status, text) = handle.join().expect("client thread");
        assert_eq!(status, 200, "{text}");
    }
    wait_until_idle(&addr);
    server.shutdown();
}

#[test]
fn typed_json_errors_name_their_field_in_the_400_body() {
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let good = include_str!("../../../examples/scenarios/two_flows.json");
    let bad = good.replacen("{\"Ccx\": 1}", "{\"Ccx\": \"one\"}", 1);
    assert_ne!(bad, good, "the edit must land");
    let (status, text) = fetch_within(&addr, "POST", "/v1/run", Some(&bad));
    assert_eq!(status, 400, "{text}");
    assert!(
        text.contains("JSON error: flows[1].engine.cores.Ccx: expected u32"),
        "{text}"
    );
    server.shutdown();
}

#[test]
fn concurrent_identical_runs_execute_once() {
    // Single-flight: identical submissions released together on a cold
    // cache execute the point once. The first worker to reach it executes;
    // every later one parks behind it (or, arriving after the publish,
    // hits the cache). All answer with the batch report's bytes.
    const N: usize = 8;
    let dir = scratch_dir("single-flight");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log = dir.join("access.jsonl");
    let server = spawn_with_log(Some(dir.join("cache")), 4096, 4096, Some(log.clone()));
    let addr = server.addr().to_string();
    let point = registered_sweep("fig3_sweep")
        .expand()
        .expect("expand")
        .swap_remove(0);
    let batch = format!("{}\n", point.spec.run().expect("batch run").to_json());
    let body = point.spec.to_json();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(N));
    let clients: Vec<_> = (0..N)
        .map(|i| {
            let (addr, body, barrier) = (addr.clone(), body.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                let route = format!("/v1/run?client=c{i}");
                http::fetch(&addr, "POST", &route, Some(&body)).expect("POST /v1/run")
            })
        })
        .collect();
    for client in clients {
        let (status, text) = client.join().expect("client thread");
        assert_eq!(status, 200, "{text}");
        assert_eq!(text, batch, "served bytes differ from the batch report");
    }
    let (status, metrics) = http::fetch(&addr, "GET", "/metrics", None).expect("GET /metrics");
    assert_eq!(status, 200);
    assert!(
        metrics
            .lines()
            .any(|l| l == "chiplet_serve_cache_misses_total 1"),
        "{metrics}"
    );
    let records = read_access_log(&log, N);
    let dispositions: Vec<&str> = records.iter().map(|r| r.disposition.as_str()).collect();
    assert_eq!(
        dispositions.iter().filter(|&&d| d == "executed").count(),
        1,
        "{dispositions:?}"
    );
    assert!(
        dispositions
            .iter()
            .all(|d| matches!(*d, "executed" | "dedup" | "cache_hit")),
        "{dispositions:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads the access log once it holds at least `want` lines (the daemon
/// appends each line just after the response bytes reach the client, so a
/// fresh reader can race the final append) and lints it.
fn read_access_log(path: &Path, want: usize) -> Vec<obs::AccessRecord> {
    for _ in 0..200 {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        if text.lines().count() >= want {
            return obs::lint_access_log(&text).expect("access log lints clean");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("access log never reached {want} lines");
}

#[test]
fn status_endpoint_reports_live_introspection() {
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let (status, _) = http::fetch(&addr, "POST", "/v1/sweep?client=st", Some(&sweep.to_json()))
        .expect("POST /v1/sweep");
    assert_eq!(status, 200);

    let (status, doc) = http::fetch(&addr, "GET", "/v1/status", None).expect("GET /v1/status");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&doc).expect("status is JSON");
    assert_eq!(v.get("workers").and_then(|x| x.as_u64()), Some(4), "{doc}");
    for key in [
        "uptime_ns",
        "busy_workers",
        "queue_depth",
        "queue_depth_by_client",
        "inflight_keys",
        "recorder",
        "recent",
        "slow",
    ] {
        assert!(v.get(key).is_some(), "status lacks {key}:\n{doc}");
    }
    let recorder = v.get("recorder").expect("recorder");
    assert_eq!(
        recorder.get("capacity").and_then(|x| x.as_u64()),
        Some(256),
        "{doc}"
    );
    assert!(
        recorder.get("recorded").and_then(|x| x.as_u64()) >= Some(1),
        "{doc}"
    );

    // Every recorded span tiles exactly: Σ phase durations == e2e_ns.
    let recent = v.get("recent").and_then(|s| s.as_seq()).expect("recent");
    assert!(!recent.is_empty(), "{doc}");
    for entry in recent {
        let phases = entry
            .get("phases")
            .and_then(|p| p.as_map())
            .expect("phases");
        let sum: u64 = phases.iter().filter_map(|(_, d)| d.as_u64()).sum();
        assert_eq!(
            Some(sum),
            entry.get("e2e_ns").and_then(|x| x.as_u64()),
            "span does not tile: {doc}"
        );
    }
    server.shutdown();
}

#[test]
fn trace_endpoint_exports_valid_chrome_json() {
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let point = &sweep.expand().expect("expand")[0];
    for client in ["t1", "t2"] {
        let (status, _) = http::fetch(
            &addr,
            "POST",
            &format!("/v1/run?client={client}"),
            Some(&point.spec.to_json()),
        )
        .expect("POST /v1/run");
        assert_eq!(status, 200);
    }

    let (status, body) = http::fetch(&addr, "GET", "/v1/trace", None).expect("GET /v1/trace");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).expect("trace is JSON");
    assert_eq!(
        v.get("displayTimeUnit").and_then(|x| x.as_str()),
        Some("ns"),
        "{body}"
    );
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_seq())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "{body}");
    // One umbrella slice per request plus one slice per non-zero phase,
    // and the per-client process naming metadata.
    for cat in ["serve", "phase"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(|c| c.as_str()) == Some(cat)),
            "no {cat} events:\n{body}"
        );
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name")),
        "{body}"
    );
    server.shutdown();
}

#[test]
fn access_log_captures_every_request_exactly_once() {
    let dir = scratch_dir("log");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log = dir.join("access.jsonl");
    let server = spawn_with_log(None, 4096, 4096, Some(log.clone()));
    let addr = server.addr().to_string();
    let points = fig5_sweep().expand().expect("expand");

    let mut ids = Vec::new();
    for (i, point) in points.iter().cycle().take(6).enumerate() {
        let client = format!("c{}", i % 3);
        let (status, headers, body) = http::fetch_with_headers(
            &addr,
            "POST",
            &format!("/v1/run?client={client}"),
            Some(&point.spec.to_json()),
        )
        .expect("POST /v1/run");
        assert_eq!(status, 200, "{body}");
        ids.push(
            http::header(&headers, "X-Request-Id")
                .expect("X-Request-Id header")
                .to_string(),
        );
    }

    let records = read_access_log(&log, ids.len());
    assert_eq!(records.len(), ids.len(), "dropped or duplicated lines");
    for id in &ids {
        assert_eq!(
            records.iter().filter(|r| &r.id == id).count(),
            1,
            "{id} must be logged exactly once"
        );
    }
    // The lint already checks tiling; spot-check the fields tests rely on.
    for rec in &records {
        assert_eq!(rec.phases.iter().map(|&(_, d)| d).sum::<u64>(), rec.e2e_ns);
        assert_eq!(rec.outcome, "ok");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_metric_families_stay_out_of_default_dumps() {
    // Regression for batch byte-identity: every serving family is volatile,
    // so a default (non-volatile) dump — what the batch CLI writes — stays
    // byte-identical to a registry that never served anything.
    let mut m = MetricsRegistry::new();
    describe_serve_metrics(&mut m);
    let at = SimTime::from_nanos(1);
    m.observe("chiplet_serve_e2e_ns", &[("client", "c")], at, 123.0);
    m.observe("chiplet_serve_phase_ns", &[("phase", "exec")], at, 45.0);
    m.observe("chiplet_serve_queue_wait_ns", &[("client", "c")], at, 6.0);
    m.counter_add(
        "chiplet_serve_requests",
        &[("route", "/v1/run"), ("outcome", "ok")],
        1.0,
    );
    assert_eq!(
        m.to_openmetrics(),
        "# EOF\n",
        "a serve family leaked into the default dump"
    );
    let vol = m.to_openmetrics_with_volatile();
    lint_openmetrics(&vol).expect("volatile dump lints");
    for fam in [
        "chiplet_serve_e2e_ns",
        "chiplet_serve_phase_ns",
        "chiplet_serve_queue_wait_ns",
        "chiplet_serve_requests_total",
    ] {
        assert!(
            vol.contains(fam),
            "{fam} missing from volatile dump:\n{vol}"
        );
    }
}

#[test]
fn load_test_thousand_concurrent_submissions_match_batch_bytes() {
    // The acceptance load test: ≥ 1000 concurrent single-point submissions
    // from ≥ 4 clients, byte-identical to the batch CLI, zero torn cache
    // entries, metrics lint-clean. `hammer` verifies all of it internally;
    // the assertions below just surface which check failed.
    let report = hammer(
        &fig5_sweep(),
        &HammerOptions {
            submissions: 1000,
            clients: 4,
            addr: None,
            cache_dir: None,
        },
    )
    .expect("hammer runs");
    assert_eq!(report.mismatches, 0, "{}", report.summary());
    assert_eq!(report.failures, 0, "{}", report.summary());
    assert_eq!(report.torn_entries, 0, "{}", report.summary());
    assert!(
        report.metrics_errors.is_empty(),
        "metrics: {:?}",
        report.metrics_errors
    );
    assert!(
        report.log_errors.is_empty(),
        "access log: {:?}",
        report.log_errors
    );
    assert_eq!(
        report.span_violations,
        0,
        "phase spans must tile e2e exactly: {}",
        report.summary()
    );
    assert_eq!(report.submissions, 1000);
    assert_eq!(report.clients, 4);
}
