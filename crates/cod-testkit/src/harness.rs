//! The scenario harness: seeded, replayable, invariant-checked session runs.
//!
//! A [`ScenarioSpec`] fully determines a run — simulator configuration
//! (including its seed), fault plan (including *its* seed) and frame count —
//! so [`run_scenario`] is a pure function of the spec: running it twice yields
//! bit-identical [`SessionReport`]s and [`TelemetryTrace`]s. When a regression
//! breaks that, `TelemetryTrace::first_divergence` pins the first bad frame.

use cod_cb::CbError;
use cod_net::FaultPlan;
use crane_sim::{CraneSimulator, FrameDigest, SessionReport, SimulatorConfig, TelemetryTrace};

use crate::invariants::{standard_invariants, FrameContext, Invariant, InvariantViolation};

/// A complete description of one reproducible scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Name used in reports and the scenario-matrix summary.
    pub name: String,
    /// Simulator configuration (carries the simulation seed).
    pub config: SimulatorConfig,
    /// Fault plan installed after CB initialization (carries the fault seed).
    pub fault_plan: FaultPlan,
    /// Number of executive frames to run.
    pub frames: usize,
}

impl ScenarioSpec {
    /// A fault-free scenario.
    pub fn new(name: &str, config: SimulatorConfig, frames: usize) -> ScenarioSpec {
        ScenarioSpec { name: name.to_owned(), config, fault_plan: FaultPlan::none(), frames }
    }

    /// Attaches a fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ScenarioSpec {
        self.fault_plan = plan;
        self
    }

    /// The seed to quote when reporting a failure of this scenario: replaying
    /// with the same `(sim_seed, fault_seed)` pair reproduces the run exactly.
    pub fn seeds(&self) -> (u64, u64) {
        (self.config.seed, self.fault_plan.seed)
    }
}

/// Everything a scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Name of the scenario.
    pub name: String,
    /// The seeds the run used (quote these to reproduce a failure).
    pub seeds: (u64, u64),
    /// The final session report.
    pub report: SessionReport,
    /// The frame-by-frame telemetry trace.
    pub trace: TelemetryTrace,
    /// First violation of each invariant that failed, in frame order.
    pub violations: Vec<InvariantViolation>,
}

impl ScenarioOutcome {
    /// Whether every invariant held for the whole run.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs a scenario to completion: builds the simulator, installs the fault
/// plan, then interleaves frame execution with trace recording and the
/// standard invariant battery.
///
/// # Errors
///
/// Returns the first hard error raised by a module or the backbone (invariant
/// violations are *recorded*, not raised).
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioOutcome, CbError> {
    run_scenario_with(spec, standard_invariants())
}

/// Like [`run_scenario`] but with a caller-supplied invariant battery.
///
/// # Errors
///
/// Returns the first hard error raised by a module or the backbone.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    mut invariants: Vec<Box<dyn Invariant>>,
) -> Result<ScenarioOutcome, CbError> {
    let mut simulator = CraneSimulator::new(spec.config)?;
    simulator.set_fault_plan(spec.fault_plan.clone());

    let mut trace = TelemetryTrace::new();
    let mut violations: Vec<InvariantViolation> = Vec::new();
    // Each invariant reports at most its first violation; afterwards it is
    // retired so a persistent failure does not flood the outcome.
    let mut fired = vec![false; invariants.len()];

    for _ in 0..spec.frames {
        let record = simulator.step_frame()?;
        let lan = simulator.cluster().lan_stats();
        // The digest and the invariants read the telemetry in place: nothing
        // is copied per frame but what the digest keeps.
        simulator.telemetry().read(|snapshot| {
            trace.record(FrameDigest::capture(record.frame, record.now, snapshot, &lan));
            let ctx = FrameContext { frame: record.frame, simulator: &simulator, snapshot };
            for (invariant, fired) in invariants.iter_mut().zip(fired.iter_mut()) {
                if *fired {
                    continue;
                }
                if let Err(detail) = invariant.check(&ctx) {
                    *fired = true;
                    violations.push(InvariantViolation {
                        frame: record.frame,
                        invariant: invariant.name(),
                        detail,
                    });
                }
            }
        });
    }

    Ok(ScenarioOutcome {
        name: spec.name.clone(),
        seeds: spec.seeds(),
        report: simulator.report(),
        trace,
        violations,
    })
}

/// Runs the scenario twice and returns the outcomes plus the first frame at
/// which their traces diverge (`None` proves determinism).
///
/// # Errors
///
/// Returns the first hard error raised by either run.
pub fn replay_check(
    spec: &ScenarioSpec,
) -> Result<(ScenarioOutcome, ScenarioOutcome, Option<u64>), CbError> {
    let first = run_scenario(spec)?;
    let second = run_scenario(spec)?;
    let divergence = first.trace.first_divergence(&second.trace);
    Ok((first, second, divergence))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crane_sim::OperatorKind;

    fn tiny_config(seed: u64) -> SimulatorConfig {
        SimulatorConfig {
            operator: OperatorKind::Idle,
            display_width: 64,
            display_height: 48,
            exam_frames: 0,
            seed,
            ..SimulatorConfig::default()
        }
    }

    #[test]
    fn outcome_carries_trace_report_and_seeds() {
        let spec = ScenarioSpec::new("t", tiny_config(11), 25)
            .with_fault_plan(FaultPlan::seeded(5).with_drop_probability(0.02));
        let outcome = run_scenario(&spec).unwrap();
        assert_eq!(outcome.trace.len(), 25);
        assert_eq!(outcome.report.frames_run, 25);
        assert_eq!(outcome.seeds, (11, 5));
        assert!(outcome.passed(), "{:?}", outcome.violations);
    }

    #[test]
    fn replay_check_proves_determinism() {
        let spec = ScenarioSpec::new("replay", tiny_config(29), 30)
            .with_fault_plan(FaultPlan::seeded(13).with_drop_probability(0.05));
        let (first, second, divergence) = replay_check(&spec).unwrap();
        assert_eq!(divergence, None);
        assert_eq!(first.report, second.report);
        assert_eq!(first.trace.fingerprint(), second.trace.fingerprint());
    }

    #[test]
    fn different_fault_seeds_diverge() {
        let spec_a = ScenarioSpec::new("a", tiny_config(1), 30)
            .with_fault_plan(FaultPlan::seeded(1).with_drop_probability(0.05));
        let spec_b = ScenarioSpec::new("b", tiny_config(1), 30)
            .with_fault_plan(FaultPlan::seeded(2).with_drop_probability(0.05));
        let a = run_scenario(&spec_a).unwrap();
        let b = run_scenario(&spec_b).unwrap();
        assert!(a.trace.first_divergence(&b.trace).is_some());
        assert_ne!(a.trace.fingerprint(), b.trace.fingerprint());
    }

    #[test]
    fn a_custom_invariant_can_fail_and_is_reported_once() {
        struct AlwaysFails;
        impl Invariant for AlwaysFails {
            fn name(&self) -> &'static str {
                "always-fails"
            }
            fn check(&mut self, _ctx: &FrameContext<'_>) -> Result<(), String> {
                Err("synthetic".to_owned())
            }
        }
        let spec = ScenarioSpec::new("fail", tiny_config(3), 10);
        let outcome = run_scenario_with(&spec, vec![Box::new(AlwaysFails)]).unwrap();
        assert_eq!(outcome.violations.len(), 1, "a persistent violation must not flood");
        assert_eq!(outcome.violations[0].invariant, "always-fails");
        assert_eq!(outcome.violations[0].frame, 0);
        assert!(!outcome.passed());
    }
}
