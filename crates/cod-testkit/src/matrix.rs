//! The scenario matrix: operator kind x GPU generation x LAN fault plan x
//! cluster size, each cell run through the invariant-checked harness.
//!
//! The sweep is the regression net for every future scale/perf PR: it proves
//! the whole cluster still initializes, keeps lock-step, stays within score
//! bounds and starves nothing, under every fault plan of [`cod_net::plans`].
//! Results are written as machine-readable JSON (`SCENARIOS_cod.json`) in the
//! same spirit as the benchmark layer's `BENCH_cod.json`.

use cod_cb::CbError;
use cod_json::Json;
use cod_net::plans::{self, NamedPlan};
use crane_sim::{GpuGeneration, OperatorKind, SimulatorConfig};

use crate::harness::{run_scenario, ScenarioOutcome, ScenarioSpec};

/// Configuration of a matrix sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixConfig {
    /// Reduced sweep for CI smoke runs.
    pub quick: bool,
    /// Base seed mixed into every scenario's simulation and fault seeds.
    pub seed: u64,
    /// Frames per scenario.
    pub frames: usize,
}

impl MatrixConfig {
    /// The full sweep (72 scenarios).
    pub fn full() -> MatrixConfig {
        MatrixConfig { quick: false, seed: 0xC0D, frames: 240 }
    }

    /// The `--quick` sweep (6 scenarios, fixed seeds) run by CI.
    pub fn quick() -> MatrixConfig {
        MatrixConfig { quick: true, seed: 0xC0D, frames: 150 }
    }
}

/// Builds the scenario list for a sweep configuration.
pub fn scenario_specs(config: &MatrixConfig) -> Vec<ScenarioSpec> {
    let (operators, gpus, channel_counts): (&[OperatorKind], &[GpuGeneration], &[usize]) =
        if config.quick {
            (&[OperatorKind::Exam, OperatorKind::Reckless], &[GpuGeneration::Tnt2], &[3])
        } else {
            (
                &[OperatorKind::Idle, OperatorKind::Exam, OperatorKind::Reckless],
                &[GpuGeneration::Tnt2, GpuGeneration::NextGeneration],
                &[2, 3],
            )
        };

    let mut specs = Vec::new();
    for operator in operators {
        for gpu in gpus {
            for channels in channel_counts {
                let plans =
                    if config.quick { plans::quick(config.seed) } else { plans::all(config.seed) };
                for NamedPlan { name, plan } in plans {
                    let sim_config = SimulatorConfig {
                        operator: *operator,
                        gpu: *gpu,
                        display_channels: *channels,
                        display_width: 64,
                        display_height: 48,
                        exam_frames: config.frames,
                        seed: config.seed ^ 0x0C0D_CAFE,
                        ..SimulatorConfig::default()
                    };
                    let id = format!("{}-{}-c{}-{}", operator.name(), gpu.name(), channels, name);
                    specs.push(
                        ScenarioSpec::new(&id, sim_config, config.frames).with_fault_plan(plan),
                    );
                }
            }
        }
    }
    specs
}

/// One row of the matrix summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario id (`<operator>-<gpu>-c<channels>-<plan>`).
    pub name: String,
    /// The `(sim_seed, fault_seed)` pair that reproduces the run.
    pub seeds: (u64, u64),
    /// Whether every invariant held.
    pub passed: bool,
    /// First violation, if any.
    pub first_violation: Option<String>,
    /// Frames executed.
    pub frames_run: u64,
    /// Final exam score.
    pub score: f64,
    /// Synchronized surround-view frame rate.
    pub synchronized_fps: f64,
    /// Fraction of datagram deliveries lost (loss model plus faults).
    pub drop_ratio: f64,
    /// Fingerprint of the telemetry trace (hex), for replay comparison.
    pub trace_fingerprint: u64,
}

impl ScenarioResult {
    fn from_outcome(outcome: &ScenarioOutcome) -> ScenarioResult {
        ScenarioResult {
            name: outcome.name.clone(),
            seeds: outcome.seeds,
            passed: outcome.passed(),
            first_violation: outcome.violations.first().map(ToString::to_string),
            frames_run: outcome.report.frames_run,
            score: outcome.report.score,
            synchronized_fps: outcome.report.synchronized_fps,
            drop_ratio: outcome.report.lan.drop_ratio(),
            trace_fingerprint: outcome.trace.fingerprint(),
        }
    }
}

/// The machine-readable result of a whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSummary {
    /// The sweep configuration.
    pub config: MatrixConfig,
    /// One row per scenario, in sweep order.
    pub results: Vec<ScenarioResult>,
}

impl MatrixSummary {
    /// Whether every scenario passed every invariant.
    pub fn all_passed(&self) -> bool {
        self.results.iter().all(|r| r.passed)
    }

    /// The failing scenario names.
    pub fn failures(&self) -> Vec<&str> {
        self.results.iter().filter(|r| !r.passed).map(|r| r.name.as_str()).collect()
    }

    /// Serializes to the `SCENARIOS_cod.json` schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str("cod-scenarios-v1".to_owned())),
            ("quick".to_owned(), Json::Bool(self.config.quick)),
            // Seeds are full u64s, which f64 JSON numbers cannot carry exactly
            // above 2^53 — serialized as hex strings like the fingerprints.
            ("seed".to_owned(), Json::Str(format!("{:#x}", self.config.seed))),
            ("frames_per_scenario".to_owned(), Json::Num(self.config.frames as f64)),
            ("all_passed".to_owned(), Json::Bool(self.all_passed())),
            (
                "scenarios".to_owned(),
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            let mut members = vec![
                                ("name".to_owned(), Json::Str(r.name.clone())),
                                ("sim_seed".to_owned(), Json::Str(format!("{:#x}", r.seeds.0))),
                                ("fault_seed".to_owned(), Json::Str(format!("{:#x}", r.seeds.1))),
                                ("passed".to_owned(), Json::Bool(r.passed)),
                                ("frames_run".to_owned(), Json::Num(r.frames_run as f64)),
                                ("score".to_owned(), Json::Num(r.score)),
                                ("synchronized_fps".to_owned(), Json::Num(r.synchronized_fps)),
                                ("drop_ratio".to_owned(), Json::Num(r.drop_ratio)),
                                (
                                    "trace_fingerprint".to_owned(),
                                    Json::Str(format!("{:016x}", r.trace_fingerprint)),
                                ),
                            ];
                            if let Some(violation) = &r.first_violation {
                                members.push((
                                    "first_violation".to_owned(),
                                    Json::Str(violation.clone()),
                                ));
                            }
                            Json::Obj(members)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "  scenario                     | ok | frames |  score | sync fps | drop % | trace\n",
        );
        out.push_str(
            "  -----------------------------+----+--------+--------+----------+--------+-----------------\n",
        );
        for r in &self.results {
            out.push_str(&format!(
                "  {:<28} | {}  | {:>6} | {:>6.1} | {:>8.1} | {:>6.2} | {:016x}\n",
                r.name,
                if r.passed { "y" } else { "N" },
                r.frames_run,
                r.score,
                r.synchronized_fps,
                r.drop_ratio * 100.0,
                r.trace_fingerprint,
            ));
        }
        out
    }
}

/// Runs the whole sweep.
///
/// # Errors
///
/// Returns the first hard error raised by any scenario (invariant violations
/// are recorded in the summary, not raised).
pub fn run_matrix(config: &MatrixConfig) -> Result<MatrixSummary, CbError> {
    let mut results = Vec::new();
    for spec in scenario_specs(config) {
        let outcome = run_scenario(&spec)?;
        results.push(ScenarioResult::from_outcome(&outcome));
    }
    Ok(MatrixSummary { config: *config, results })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_sizes_match_the_documented_matrix() {
        // Quick: 2 operators x 1 gpu x 1 size x 3 plans.
        assert_eq!(scenario_specs(&MatrixConfig::quick()).len(), 6);
        // Full: 3 operators x 2 gpus x 2 sizes x 6 plans.
        assert_eq!(scenario_specs(&MatrixConfig::full()).len(), 72);
    }

    #[test]
    fn scenario_names_are_unique_and_descriptive() {
        let specs = scenario_specs(&MatrixConfig::full());
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate scenario names");
        assert!(specs.iter().any(|s| s.name == "exam-tnt2-c3-loss5"));
    }

    #[test]
    fn summary_json_round_trips_through_the_bench_parser() {
        let summary = MatrixSummary {
            config: MatrixConfig::quick(),
            results: vec![ScenarioResult {
                name: "exam-tnt2-c3-loss5".to_owned(),
                seeds: (1, 2),
                passed: true,
                first_violation: None,
                frames_run: 150,
                score: 100.0,
                synchronized_fps: 14.4,
                drop_ratio: 0.05,
                trace_fingerprint: 0xdead_beef,
            }],
        };
        let text = summary.to_json().to_pretty();
        let parsed = Json::parse(&text).expect("summary is valid JSON");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some("cod-scenarios-v1"));
        assert_eq!(parsed.get("all_passed").and_then(Json::as_bool), Some(true));
        let rows = parsed.get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("trace_fingerprint").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        // Seeds are hex strings so u64 values above 2^53 survive the artifact.
        assert_eq!(rows[0].get("sim_seed").and_then(Json::as_str), Some("0x1"));
        assert_eq!(rows[0].get("fault_seed").and_then(Json::as_str), Some("0x2"));
    }

    #[test]
    fn seeds_above_f64_precision_survive_serialization() {
        let big = (1u64 << 53) + 1;
        let summary = MatrixSummary {
            config: MatrixConfig { quick: true, seed: big, frames: 1 },
            results: vec![],
        };
        let text = summary.to_json().to_pretty();
        let parsed = Json::parse(&text).unwrap();
        let roundtrip = parsed.get("seed").and_then(Json::as_str).unwrap();
        let value = u64::from_str_radix(roundtrip.trim_start_matches("0x"), 16).unwrap();
        assert_eq!(value, big);
    }
}
