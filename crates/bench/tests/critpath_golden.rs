//! Golden and determinism checks for the latency-attribution exports.
//!
//! `tests/golden/critpath_fig3.json` pins the exact stdout of
//! `chiplet-scenario critpath examples/scenarios/trace_fig3.json --json`:
//! the attribution pipeline is pure arithmetic over a seeded deterministic
//! run, so the report must be byte-identical across invocations, machines,
//! and build profiles. The other views that name capacity points (`blame
//! --json`, the Chrome trace and the sysfs tree) are pinned by length and
//! FNV-1a 64.

mod digest;

use std::path::PathBuf;
use std::process::{Command, Output};

use digest::len_and_fnv1a;

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

/// A directory tree as one text: every file's path relative to `root`,
/// sorted, each followed by the file's bytes.
fn tree_text(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut text = String::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap();
        text.push_str(&format!("{}\n", rel.display()));
        text.push_str(&std::fs::read_to_string(&path).unwrap());
    }
    text
}

/// The views that name capacity points, pinned by `(length, FNV-1a 64)`:
/// `blame --json`, the `trace` Chrome export and the `trace --sysfs` tree
/// (sorted relative paths plus file bytes). `cxl_read.json` covers the
/// per-CCD CXL port, P-Link and socket-NoC points besides the links.
#[test]
fn capacity_point_views_match_their_pins() {
    let pins = [
        (
            "trace_fig3.json",
            [
                (10_373, 0xa938_c012_7c11_6cdd),
                (21_688_010, 0x524f_b7b3_7b8a_7397),
                (67_030, 0xc556_18dc_8846_98ef),
            ],
        ),
        (
            "cxl_read.json",
            [
                (7_932, 0x3bae_dfde_b0b8_578c),
                (18_266_288, 0x30b7_334a_fdf0_42ea),
                (216_389, 0x8222_ecc5_54ce_c292),
            ],
        ),
    ];
    let mut got = Vec::new();
    for (file, _) in &pins {
        let spec = format!(
            "{}/../../examples/scenarios/{file}",
            env!("CARGO_MANIFEST_DIR")
        );
        let blame = stdout_of(&trace_cli(&["blame", &spec, "--json"]));
        let chrome_path = scratch(&format!("{file}.chrome.json"));
        let sysfs_dir = scratch(&format!("{file}.sysfs"));
        stdout_of(&trace_cli(&[
            "trace",
            &spec,
            "--chrome",
            chrome_path.to_str().unwrap(),
            "--sysfs",
            sysfs_dir.to_str().unwrap(),
        ]));
        let chrome = std::fs::read_to_string(&chrome_path).unwrap();
        let _ = std::fs::remove_file(&chrome_path);
        let sysfs = tree_text(&sysfs_dir);
        let _ = std::fs::remove_dir_all(&sysfs_dir);
        got.push((
            *file,
            [
                len_and_fnv1a(&blame),
                len_and_fnv1a(&chrome),
                len_and_fnv1a(&sysfs),
            ],
        ));
    }
    assert_eq!(got, pins);
}
