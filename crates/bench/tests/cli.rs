//! `chiplet-scenario` CLI error paths: bad input must exit non-zero with a
//! one-line diagnostic on stderr — never a panic or a zero exit.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn scenario_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chiplet-scenario"))
        .args(args)
        .output()
        .expect("chiplet-scenario spawns")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch file path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chiplet-cli-{}-{name}", std::process::id()))
}

#[test]
fn run_missing_file_fails_cleanly() {
    let out = scenario_cli(&["run", "/nonexistent/nowhere.json"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("/nonexistent/nowhere.json"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn run_malformed_json_fails_cleanly() {
    let path = scratch("malformed.json");
    std::fs::write(&path, "{ this is not json").unwrap();
    let out = scenario_cli(&["run", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("JSON error"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_invalid_spec_fails_cleanly() {
    // Structurally valid JSON referencing a platform that doesn't exist.
    let path = scratch("badplatform.json");
    let spec = r#"{
      "name": "bad",
      "description": "",
      "topology": { "Named": "epyc_1234" },
      "backend": "Event",
      "seed": 1,
      "horizon": 1000,
      "policy": "HardwareDefault",
      "engine": null,
      "fluid": null,
      "flows": []
    }"#;
    std::fs::write(&path, spec).unwrap();
    let out = scenario_cli(&["run", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown platform"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_degenerate_inline_platform_fails_cleanly() {
    // An inline platform the topology builder cannot build is a typed spec
    // error (exit 1), never a builder assertion (exit 101).
    let example = include_str!("../../../examples/scenarios/two_flows.json");
    let named = "{\"Named\": \"epyc_7302\"}";
    assert!(example.contains(named));
    let mut platform = chiplet_topology::PlatformSpec::epyc_7302();
    platform.ccd_count = 0;
    let inline = format!(
        "{{\"Inline\": {}}}",
        serde_json::to_string(&platform).unwrap()
    );
    let path = scratch("no-cores.json");
    std::fs::write(&path, example.replacen(named, &inline, 1)).unwrap();
    let out = scenario_cli(&["run", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(
        err.contains("invalid scenario: platform has no cores"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_overlapping_cores_fails_cleanly() {
    // Two flows on one core, or one flow listing a core twice, is a typed
    // spec error (exit 1), never the engine's ownership assertion (exit 101).
    let example = include_str!("../../../examples/scenarios/two_flows.json");
    for (name, from, to, want) in [
        (
            "shared-core.json",
            "{\"Ccx\": 1}",
            "{\"Cores\": [0]}",
            "flows 'ccx0-read' and 'ccx1-write' both issue from core 0",
        ),
        (
            "core-twice.json",
            "{\"Ccx\": 0}",
            "{\"Cores\": [3, 3]}",
            "flow 'ccx0-read' lists core 3 twice",
        ),
    ] {
        assert!(example.contains(from), "{name}");
        let path = scratch(name);
        std::fs::write(&path, example.replacen(from, to, 1)).unwrap();
        let out = scenario_cli(&["run", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{name}");
        let err = stderr_of(&out);
        assert!(
            err.contains("invalid scenario: ") && err.contains(want),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn run_horizon_within_warmup_fails_cleanly() {
    // A horizon at or below the statistics warmup, or a zero-width engine
    // window or fluid step, is a typed spec error (exit 1), never an engine
    // or time-series assertion (exit 101).
    let event = include_str!("../../../examples/scenarios/ccd_vs_cxl.json");
    let fluid = include_str!("../../../examples/scenarios/link_share.json");
    let fluid_links = "\"fluid\": {\"links\": [{\"Named\": \"if_9634\"}]";
    for (name, example, from, to, want) in [
        (
            "short-horizon.json",
            event,
            "\"horizon\": 40000",
            "\"horizon\": 1000".to_string(),
            "must exceed the statistics warmup",
        ),
        (
            "long-warmup.json",
            event,
            "\"policy\"",
            "\"engine\": {\"warmup\": 50000}, \"policy\"".to_string(),
            "must exceed the statistics warmup",
        ),
        (
            "zero-trace-window.json",
            event,
            "\"policy\"",
            "\"engine\": {\"trace_window\": 0}, \"policy\"".to_string(),
            "engine.trace_window must be positive",
        ),
        (
            "zero-metrics-window.json",
            event,
            "\"policy\"",
            "\"engine\": {\"metrics_window\": 0}, \"policy\"".to_string(),
            "engine.metrics_window must be positive",
        ),
        (
            "zero-dt.json",
            fluid,
            fluid_links,
            format!("{fluid_links}, \"dt\": 0"),
            "fluid.dt must be positive",
        ),
        (
            "zero-sample.json",
            fluid,
            fluid_links,
            format!("{fluid_links}, \"sample\": 0"),
            "fluid.sample must be positive",
        ),
    ] {
        let path = scratch(name);
        assert!(example.contains(from), "{name}");
        std::fs::write(&path, example.replacen(from, &to, 1)).unwrap();
        let out = scenario_cli(&["run", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{name}");
        let err = stderr_of(&out);
        assert!(
            err.contains("invalid scenario") && err.contains(want),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn run_unknown_name_fails_cleanly() {
    let out = scenario_cli(&["run", "fig99"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown scenario 'fig99'"), "{err}");
}

#[test]
fn sweep_missing_file_fails_cleanly() {
    let out = scenario_cli(&["sweep", "/nonexistent/sweep.json"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("/nonexistent/sweep.json"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn sweep_malformed_json_fails_cleanly() {
    let path = scratch("badsweep.json");
    std::fs::write(&path, "[1, 2,").unwrap();
    let out = scenario_cli(&["sweep", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("JSON error"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_unknown_name_fails_cleanly() {
    let out = scenario_cli(&["sweep", "no_such_sweep"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown sweep 'no_such_sweep'"), "{err}");
}

#[test]
fn verbs_reject_targets_of_the_wrong_kind() {
    // The span views run one event-engine spec: a study, a sweep, a search
    // or a fluid spec is a one-line typed error (exit 1).
    let fluid = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/link_share.json"
    );
    for (verb, target, want) in [
        ("sweep", "fig3", "'fig3' is not a sweep"),
        (
            "trace",
            "fig3",
            "'fig3' is a study; trace needs an event-engine spec",
        ),
        (
            "critpath",
            "fig5_sweep",
            "'fig5_sweep' is a sweep; critpath needs an event-engine spec",
        ),
        (
            "blame",
            "dse_smoke",
            "'dse_smoke' is a dse; blame needs an event-engine spec",
        ),
        ("trace", fluid, "runs on the fluid backend"),
    ] {
        let out = scenario_cli(&[verb, target]);
        assert_eq!(out.status.code(), Some(1), "{verb} {target}");
        let err = stderr_of(&out);
        assert!(err.contains(want), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
    }
}

#[test]
fn closed_stdout_is_a_quiet_stop() {
    // `… | head -1`: the reader goes away while the CLI still writes. The
    // ~700 KB dump outgrows any pipe buffer, so a write must meet the
    // closed pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_chiplet-scenario"))
        .args(["run", "fig5", "--metrics", "-"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("chiplet-scenario spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("chiplet-scenario exits");
    let err = stderr_of(&out);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}

#[test]
fn sweep_rejects_invalid_axes_cleanly() {
    // A well-formed SweepSpec whose axis targets a flow that doesn't exist.
    let path = scratch("badaxis.json");
    let sweep = r#"{
      "name": "bad_axis",
      "description": "",
      "base": {
        "name": "base",
        "description": "",
        "topology": { "Named": "epyc_9634" },
        "backend": "Fluid",
        "seed": 1,
        "horizon": 1000000,
        "policy": "HardwareDefault",
        "engine": null,
        "fluid": { "links": [ { "Named": "if_9634" } ], "dt": null, "sample": null },
        "flows": [ { "name": "f", "demand": null, "engine": null, "links": [0] } ]
      },
      "axes": [ { "DemandGbS": { "flow": "ghost", "values": [null] } } ]
    }"#;
    std::fs::write(&path, sweep).unwrap();
    let out = scenario_cli(&["sweep", path.to_str().unwrap(), "--no-cache"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown flow"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_flags_fail_cleanly() {
    let out = scenario_cli(&["sweep", "fig5_sweep", "--jobs"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--jobs needs a value"));

    let out = scenario_cli(&["sweep", "fig5_sweep", "--jobs", "many"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--jobs needs a number"));

    for flag in ["--frobnicate", "--engine-workers"] {
        let out = scenario_cli(&["run", "fig5_if_9634", flag, "4"]);
        assert!(!out.status.success());
        assert!(stderr_of(&out).contains(&format!("unknown flag {flag}")));
    }
}

#[test]
fn sweep_runs_end_to_end_with_cache() {
    let dir = scratch("cachedir");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let cold = scenario_cli(&["sweep", "fig5_sweep", "--json", "--cache-dir", dir_s]);
    assert!(cold.status.success(), "{}", stderr_of(&cold));
    assert!(
        stderr_of(&cold).contains("0 cached"),
        "{}",
        stderr_of(&cold)
    );

    let warm = scenario_cli(&["sweep", "fig5_sweep", "--json", "--cache-dir", dir_s]);
    assert!(warm.status.success(), "{}", stderr_of(&warm));
    assert!(
        stderr_of(&warm).contains("0 executed"),
        "{}",
        stderr_of(&warm)
    );

    assert_eq!(cold.stdout, warm.stdout, "cache must be transparent");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_on_a_sweep_uses_the_cache_like_sweep() {
    // `run` and `sweep` share one execution path: `run <sweep name>` honours
    // the cache, prints the tally, and prints the same bytes as `sweep`.
    let dir = scratch("run-sweep-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let run = |verb| scenario_cli(&[verb, "fig5_sweep", "--json", "--cache-dir", dir_s]);
    let cold = run("run");
    assert!(cold.status.success(), "{}", stderr_of(&cold));
    let warm = run("run");
    assert!(warm.status.success(), "{}", stderr_of(&warm));
    assert!(
        stderr_of(&warm).contains("0 executed"),
        "{}",
        stderr_of(&warm)
    );
    let sweep = run("sweep");
    assert!(sweep.status.success(), "{}", stderr_of(&sweep));
    assert_eq!(cold.stdout, sweep.stdout, "run and sweep print alike");
    assert_eq!(warm.stdout, sweep.stdout, "cache must be transparent");
    let _ = std::fs::remove_dir_all(&dir);
}
