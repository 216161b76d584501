//! Estimator validation: the `chiplet-dse` analytical proxies vs the
//! event engine, across every event-engine scenario the paper registry
//! ships.
//!
//! The estimator trades fidelity for a ~1000x cheaper evaluation; this
//! suite pins the exchange rate. For every declarative event-engine spec,
//! every point of every event-engine sweep, and a deterministic sample of
//! the design-space searches' candidates, it runs both the estimator and
//! the engine and checks each flow against the documented envelope
//! (README "Design-space exploration"):
//!
//! * achieved bandwidth: estimator within **±15%** of the engine;
//! * mean latency: estimator/engine ratio within **[0.7, 1.4]**.
//!
//! Offenders are collected and reported together, so a regression shows
//! the whole landscape rather than the first bad point.

use chiplet_bench::scenarios::paper_registry;
use chiplet_net::dse::estimate_design;
use chiplet_net::scenario::{BackendKind, ScenarioKind, ScenarioSpec};

const BW_TOL: f64 = 0.15;
const LAT_LO: f64 = 0.7;
const LAT_HI: f64 = 1.4;

/// Runs `spec` on both paths and appends one line per out-of-envelope
/// flow to `failures` (or per broken run — an estimator error on a spec
/// the engine accepts is itself a failure).
fn validate(tag: &str, spec: &ScenarioSpec, failures: &mut Vec<String>) {
    let est = match estimate_design(spec) {
        Ok(e) => e,
        Err(e) => {
            failures.push(format!("{tag}: estimator rejected the spec: {e}"));
            return;
        }
    };
    let report = match spec.run() {
        Ok(r) => r,
        Err(e) => {
            failures.push(format!("{tag}: engine rejected the spec: {e}"));
            return;
        }
    };
    let Some(outcome) = report.outcome() else {
        failures.push(format!("{tag}: engine produced no outcome"));
        return;
    };
    for f in &outcome.flows {
        let Some(ef) = est.flows.iter().find(|e| e.name == f.name) else {
            failures.push(format!("{tag}/{}: flow missing from the estimate", f.name));
            continue;
        };
        if f.achieved_gb_s > 0.0 {
            let ratio = ef.achieved_gb_s / f.achieved_gb_s;
            if !((1.0 - BW_TOL)..=(1.0 + BW_TOL)).contains(&ratio) {
                failures.push(format!(
                    "{tag}/{}: bandwidth est {:.2} vs engine {:.2} GB/s (ratio {:.3})",
                    f.name, ef.achieved_gb_s, f.achieved_gb_s, ratio
                ));
            }
        }
        if let Some(lat) = f.mean_latency_ns {
            if lat > 0.0 && ef.latency_ns > 0.0 {
                let ratio = ef.latency_ns / lat;
                if !(LAT_LO..=LAT_HI).contains(&ratio) {
                    failures.push(format!(
                        "{tag}/{}: latency est {:.1} vs engine {:.1} ns (ratio {:.3})",
                        f.name, ef.latency_ns, lat, ratio
                    ));
                }
            }
        }
    }
}

#[test]
fn estimator_tracks_the_event_engine_across_the_registry() {
    let reg = paper_registry();
    let mut failures = Vec::new();
    let mut covered = 0usize;
    for entry in reg.entries() {
        match (entry.build)() {
            ScenarioKind::Spec(spec) => {
                if spec.backend == BackendKind::Event {
                    validate(entry.name, &spec, &mut failures);
                    covered += 1;
                }
            }
            ScenarioKind::Sweep(sweep) => {
                if sweep.base.backend != BackendKind::Event {
                    continue;
                }
                for point in sweep.expand().expect("sweep expands") {
                    validate(&point.label, &point.spec, &mut failures);
                    covered += 1;
                }
            }
            ScenarioKind::Dse(search) => {
                // Every candidate is an event-engine spec; a full DES pass
                // over thousands is what the estimator exists to avoid, so
                // sample a deterministic stride across the expansion.
                let points = search.expand().expect("search expands");
                let stride = (points.len() / 8).max(1);
                for point in points.iter().step_by(stride) {
                    validate(&point.label, &point.spec, &mut failures);
                    covered += 1;
                }
            }
            ScenarioKind::Study { .. } => {}
        }
    }
    assert!(
        covered >= 30,
        "validation corpus shrank to {covered} event-engine runs; \
         update this suite deliberately"
    );
    assert!(
        failures.is_empty(),
        "{} of {} runs outside the documented envelope \
         (bandwidth ±{:.0}%, latency ratio [{LAT_LO}, {LAT_HI}]):\n{}",
        failures.len(),
        covered,
        BW_TOL * 100.0,
        failures.join("\n")
    );
}
