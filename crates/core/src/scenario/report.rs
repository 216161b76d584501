//! The common result both backends produce.

use chiplet_sim::stats::TracePoint;
use chiplet_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One flow's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowReport {
    /// Flow name, from the spec.
    pub name: String,
    /// Offered load, GB/s, when the scenario throttled the flow.
    #[serde(default)]
    pub offered_gb_s: Option<f64>,
    /// Achieved bandwidth over the measured window, GB/s.
    pub achieved_gb_s: f64,
    /// Mean end-to-end latency, ns. The fluid backend doesn't measure
    /// latency, so this is absent there.
    #[serde(default)]
    pub mean_latency_ns: Option<f64>,
    /// P999 end-to-end latency, ns.
    #[serde(default)]
    pub p999_latency_ns: Option<f64>,
    /// Transactions issued (event backend only).
    #[serde(default)]
    pub issued: u64,
    /// Transactions completed in the measured window (event backend only).
    #[serde(default)]
    pub completed: u64,
    /// Bandwidth time series, when the scenario requested traces (always
    /// present on the fluid backend — traces are its native output).
    #[serde(default)]
    pub trace: Vec<TracePoint>,
}

/// A completed scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Which backend ran it: `event` or `fluid`.
    pub backend: String,
    /// Platform name.
    pub platform: String,
    /// The seed that produced this report.
    pub seed: u64,
    /// The run horizon.
    pub horizon: SimTime,
    /// Per-flow outcomes, in spec order.
    pub flows: Vec<FlowReport>,
}

impl ScenarioOutcome {
    /// Looks a flow up by name.
    pub fn flow(&self, name: &str) -> Option<&FlowReport> {
        self.flows.iter().find(|f| f.name == name)
    }
}

/// What a scenario run produced: a result, or a structured explanation of
/// why the platform can't run it (so callers stop re-implementing
/// "not supported" strings).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioReport {
    /// The run completed.
    Completed(ScenarioOutcome),
    /// The platform can't exercise this scenario.
    Unsupported {
        /// What was asked for.
        scenario: String,
        /// The platform that can't run it.
        platform: String,
        /// Why (e.g. "platform has no CXL device").
        reason: String,
    },
}

impl ScenarioReport {
    /// The outcome, when the run completed.
    pub fn outcome(&self) -> Option<&ScenarioOutcome> {
        match self {
            ScenarioReport::Completed(o) => Some(o),
            ScenarioReport::Unsupported { .. } => None,
        }
    }

    /// The canonical one-line rendering of an unsupported report.
    pub fn unsupported_note(&self) -> Option<String> {
        match self {
            ScenarioReport::Completed(_) => None,
            ScenarioReport::Unsupported {
                scenario, platform, ..
            } => Some(format!("{scenario} on {platform}: not supported")),
        }
    }

    /// Serializes to pretty JSON, deterministically.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario reports always serialize")
    }

    /// Parses back from [`ScenarioReport::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}
