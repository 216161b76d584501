//! CI perf-regression gate: compares a fresh `CRITERION_JSON` run against
//! the committed `BENCH_engine.json` baseline.
//!
//! ```text
//! bench-check <fresh.jsonl> [baseline.json] [--max-regression <frac>]
//! ```
//!
//! The fresh file holds one JSON object per line (as emitted by the
//! vendored criterion with `CRITERION_JSON=<path>`); the baseline maps
//! bench ids to `{"before_mean_ns": …, "after_mean_ns": …}`. A bench
//! regresses when its fresh mean exceeds the baseline `after_mean_ns` by
//! more than the allowed fraction (default 0.25). Benches absent from the
//! baseline are reported but never fail the job, so adding a bench does
//! not require re-pinning in the same change.
//!
//! The baseline may also carry a `"ratios"` array of
//! `{"name": …, "num": id, "den": id, "max_ratio": …}` entries. Each one
//! gates the quotient of two *fresh* `min_ns` values from the same run —
//! a machine-independent bound (host speed cancels) over the noise-robust
//! statistic (interference only ever adds time), so it can be far tighter
//! than the absolute envelope. `--max-regression` does not apply to
//! ratios; entries whose benches didn't run this time are reported but
//! never fail the job.

use std::process::ExitCode;

use serde_json::Value;

const DEFAULT_MAX_REGRESSION: f64 = 0.25;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut max_regression = DEFAULT_MAX_REGRESSION;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-regression" {
            let v = it.next().expect("--max-regression needs a value");
            max_regression = v.parse().expect("--max-regression must be a number");
        } else {
            paths.push(a);
        }
    }
    let fresh_path = paths.first().copied().unwrap_or_else(|| {
        eprintln!("usage: bench-check <fresh.jsonl> [baseline.json] [--max-regression <frac>]");
        std::process::exit(2);
    });
    let baseline_path = paths.get(1).copied().unwrap_or("BENCH_engine.json");

    let fresh_text =
        std::fs::read_to_string(fresh_path).unwrap_or_else(|e| panic!("reading {fresh_path}: {e}"));
    let baseline_text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("reading {baseline_path}: {e}"));
    let baseline: Value =
        serde_json::from_str(&baseline_text).expect("baseline must be valid JSON");
    let benches = baseline
        .get("benches")
        .expect("baseline must carry a \"benches\" object");

    let mut failures = 0u32;
    let mut checked = 0u32;
    let mut fresh_mins: Vec<(String, f64)> = Vec::new();
    for line in fresh_text.lines().filter(|l| !l.trim().is_empty()) {
        let row: Value = serde_json::from_str(line).expect("fresh line must be valid JSON");
        let id = row
            .get("id")
            .and_then(Value::as_str)
            .expect("fresh row needs an id");
        let mean = row
            .get("mean_ns")
            .and_then(Value::as_f64)
            .expect("fresh row needs mean_ns");
        let min = row.get("min_ns").and_then(Value::as_f64).unwrap_or(mean);
        fresh_mins.push((id.to_string(), min));
        let Some(pinned) = benches
            .get(id)
            .and_then(|b| b.get("after_mean_ns"))
            .and_then(Value::as_f64)
        else {
            println!("  new   {id}: {mean:.0} ns (no baseline, not gated)");
            continue;
        };
        checked += 1;
        let ratio = mean / pinned;
        if ratio > 1.0 + max_regression {
            failures += 1;
            println!(
                "  FAIL  {id}: {mean:.0} ns vs pinned {pinned:.0} ns ({:+.1}% > {:.0}% allowed)",
                (ratio - 1.0) * 100.0,
                max_regression * 100.0
            );
        } else {
            println!(
                "  ok    {id}: {mean:.0} ns vs pinned {pinned:.0} ns ({:+.1}%)",
                (ratio - 1.0) * 100.0
            );
        }
        // Optional second envelope: a bench may pin `max_vs_before`, capping
        // the fresh mean against `before_mean_ns` — the mean recorded before
        // the change the baseline documents, so an engine row can never
        // quietly fall back past the engine it replaced.
        let entry = benches.get(id);
        if let (Some(cap), Some(before)) = (
            entry
                .and_then(|b| b.get("max_vs_before"))
                .and_then(Value::as_f64),
            entry
                .and_then(|b| b.get("before_mean_ns"))
                .and_then(Value::as_f64),
        ) {
            checked += 1;
            let vs = mean / before;
            if vs > cap {
                failures += 1;
                println!(
                    "  FAIL  {id}: {mean:.0} ns is ×{vs:.3} of pre-change {before:.0} ns \
                     (> ×{cap:.2} allowed)"
                );
            } else {
                println!("  ok    {id}: ×{vs:.3} of pre-change mean (≤ ×{cap:.2})");
            }
        }
    }

    let lookup = |id: &str| fresh_mins.iter().find(|(i, _)| i == id).map(|&(_, m)| m);
    for ratio in baseline
        .get("ratios")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let name = ratio
            .get("name")
            .and_then(Value::as_str)
            .expect("ratio entry needs a name");
        let num_id = ratio
            .get("num")
            .and_then(Value::as_str)
            .expect("ratio entry needs a num bench id");
        let den_id = ratio
            .get("den")
            .and_then(Value::as_str)
            .expect("ratio entry needs a den bench id");
        let max_ratio = ratio
            .get("max_ratio")
            .and_then(Value::as_f64)
            .expect("ratio entry needs max_ratio");
        let (Some(num), Some(den)) = (lookup(num_id), lookup(den_id)) else {
            println!("  skip  ratio {name}: {num_id} / {den_id} (not both in this run)");
            continue;
        };
        checked += 1;
        let measured = num / den;
        if measured > max_ratio {
            failures += 1;
            println!(
                "  FAIL  ratio {name}: {num_id}/{den_id} = {measured:.4} > {max_ratio:.4} allowed"
            );
        } else {
            println!("  ok    ratio {name}: {num_id}/{den_id} = {measured:.4} (≤ {max_ratio:.4})");
        }
    }

    if checked == 0 {
        eprintln!("bench-check: no fresh bench overlapped the baseline — wrong file?");
        return ExitCode::from(2);
    }
    if failures > 0 {
        eprintln!("bench-check: {failures} bench(es) regressed beyond the allowed envelope");
        return ExitCode::FAILURE;
    }
    println!("bench-check: {checked} bench(es) within the envelope");
    ExitCode::SUCCESS
}
