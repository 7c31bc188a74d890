//! Deterministic fault-injection and scenario-matrix harness for the COD.
//!
//! The paper's cluster runs eight desktop PCs over a LAN, so the failures that
//! matter are distributed ones: lost, duplicated and reordered datagrams,
//! latency spikes and short partitions. This crate turns those into
//! *reproducible test inputs*, in the simulation-testing style of turmoil and
//! FoundationDB, layered on the deterministic in-process LAN of [`cod_net`]:
//!
//! * [`cod_net::plans`] — named, seeded [`cod_net::FaultPlan`]s (clean, 2%/5%
//!   loss, latency spike, duplication + reordering, partition blip), shared
//!   with the fleet workload generator;
//! * [`invariants`] — cluster-wide safety properties checked after every
//!   frame: CB channel-table consistency, frame-sync lock-step monotonicity,
//!   score bounds, no-LP-starvation;
//! * [`harness`] — [`harness::run_scenario`]: a pure function from a seeded
//!   [`harness::ScenarioSpec`] to a [`crane_sim::SessionReport`] plus a
//!   frame-by-frame [`crane_sim::TelemetryTrace`]; same spec ⇒ bit-identical
//!   outcome, and [`crane_sim::TelemetryTrace::first_divergence`] pins the
//!   first differing frame when not;
//! * [`matrix`] — the operator x GPU x fault-plan x cluster-size sweep and its
//!   machine-readable `SCENARIOS_cod.json` summary;
//! * [`fleet_invariants`] — the same idea one level up, for the `cod-fleet`
//!   serving layer: session conservation, shard capacity, no starvation, and
//!   bit-exact `FLEET_cod.json` replay from a fixed seed;
//! * [`gates`] — the registry of every standing gate of the workspace (bench,
//!   audit, scenario matrix, fleet, trace), one row each at one size, run by
//!   the `gates` binary.
//!
//! Reproducing a failure is always the same recipe: take the `(sim_seed,
//! fault_seed)` pair printed with the scenario, rebuild the spec, re-run.
//!
//! ```
//! use cod_net::FaultPlan;
//! use cod_testkit::harness::{run_scenario, ScenarioSpec};
//! use crane_sim::{OperatorKind, SimulatorConfig};
//!
//! let config = SimulatorConfig {
//!     operator: OperatorKind::Idle,
//!     display_width: 64,
//!     display_height: 48,
//!     ..SimulatorConfig::default()
//! };
//! let spec = ScenarioSpec::new("smoke", config, 20)
//!     .with_fault_plan(FaultPlan::seeded(7).with_drop_probability(0.05));
//! let outcome = run_scenario(&spec).unwrap();
//! assert!(outcome.passed(), "{:?}", outcome.violations);
//! assert_eq!(outcome.trace.len(), 20);
//! ```

pub mod fleet_invariants;
pub mod gates;
pub mod harness;
pub mod invariants;
pub mod matrix;

pub use fleet_invariants::{
    batch_equivalence_check, batch_shape_coverage_check, check_fleet_outcome, fleet_replay_check,
    migration_transparency_check, obs_equivalence_check, wallclock_equivalence_check,
};
pub use harness::{replay_check, run_scenario, run_scenario_with, ScenarioOutcome, ScenarioSpec};
pub use invariants::{standard_invariants, FrameContext, Invariant, InvariantViolation};
pub use matrix::{run_matrix, scenario_specs, MatrixConfig, MatrixSummary, ScenarioResult};
