//! Golden and determinism checks for the latency-attribution exports.
//!
//! `tests/golden/critpath_fig3.json` pins the exact stdout of
//! `chiplet-scenario critpath examples/scenarios/trace_fig3.json --json`:
//! the attribution pipeline is pure arithmetic over a seeded deterministic
//! run, so the report must be byte-identical across invocations, machines,
//! and build profiles.

use std::path::PathBuf;
use std::process::{Command, Output};

const CRITPATH_GOLDEN: &str = include_str!("../../../tests/golden/critpath_fig3.json");

/// The Figure 3 loaded-latency traffic with tracing on.
const FIG3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/scenarios/trace_fig3.json"
);

fn trace_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chiplet-scenario"))
        .args(args)
        .output()
        .expect("chiplet-scenario spawns")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "chiplet-scenario failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch file path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chiplet-critpath-{}-{name}", std::process::id()))
}

#[test]
fn critpath_fig3_json_is_pinned_and_deterministic() {
    let a = stdout_of(&trace_cli(&["critpath", FIG3, "--json"]));
    let b = stdout_of(&trace_cli(&["critpath", FIG3, "--json"]));
    assert_eq!(a, b, "critpath JSON must be byte-stable across runs");
    assert_eq!(a, CRITPATH_GOLDEN, "critpath JSON drifted from the golden");
}

#[test]
fn critpath_fig3_speedscope_export_is_valid_and_stable() {
    let path = scratch("fig3.speedscope.json");
    let arg = path.to_str().unwrap();
    stdout_of(&trace_cli(&["critpath", FIG3, "--speedscope", arg]));
    let first = std::fs::read_to_string(&path).unwrap();
    stdout_of(&trace_cli(&["critpath", FIG3, "--speedscope", arg]));
    let second = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(first, second, "speedscope export must be byte-stable");

    use serde_json::Value;
    let doc: Value = serde_json::from_str(&first).expect("speedscope export parses");
    assert_eq!(
        doc.get("exporter").and_then(Value::as_str),
        Some("chiplet-scenario")
    );
    let frames = doc
        .get("shared")
        .and_then(|s| s.get("frames"))
        .and_then(Value::as_array)
        .expect("frame table");
    assert!(frames.len() > 2, "frames beyond the wait/service leaves");
    let profiles = doc
        .get("profiles")
        .and_then(Value::as_array)
        .expect("profiles array");
    assert!(!profiles.is_empty());
    for p in profiles {
        // Every sample stack must index into the shared frame table and
        // carry exactly one weight.
        let samples = p.get("samples").and_then(Value::as_array).expect("samples");
        let weights = p.get("weights").and_then(Value::as_array).expect("weights");
        assert_eq!(samples.len(), weights.len());
        for s in samples {
            for idx in s.as_array().expect("stack") {
                let idx = idx.as_f64().expect("frame index") as usize;
                assert!(idx < frames.len(), "frame index {idx} out of table");
            }
        }
    }
}

#[test]
fn blame_and_folded_outputs_are_deterministic() {
    let folded_path = scratch("fig3.folded");
    let arg = folded_path.to_str().unwrap();
    let a = stdout_of(&trace_cli(&["blame", FIG3, "--folded", arg]));
    let first = std::fs::read_to_string(&folded_path).unwrap();
    let b = stdout_of(&trace_cli(&["blame", FIG3, "--folded", arg]));
    let second = std::fs::read_to_string(&folded_path).unwrap();
    let _ = std::fs::remove_file(&folded_path);
    assert_eq!(a, b, "blame table must be byte-stable");
    assert_eq!(first, second, "folded export must be byte-stable");

    // Folded lines are pre-sorted `flow;hop;phase weight` records with
    // integral weights — exactly what flamegraph.pl consumes.
    let mut lines: Vec<&str> = first.lines().collect();
    assert!(!lines.is_empty());
    let already = lines.clone();
    lines.sort_unstable();
    assert_eq!(lines, already, "folded output arrives sorted");
    for line in &lines {
        let (stack, weight) = line.rsplit_once(' ').expect("stack and weight");
        assert_eq!(stack.split(';').count(), 3, "flow;hop;phase in {line}");
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("integral weight in {line}"));
    }
}
