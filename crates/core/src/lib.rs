//! The mobile-crane training simulator on a Cluster Of Desktop computers.
//!
//! This crate is the top of the reproduction: it assembles the seven modules
//! of the paper's Figure 3 — dashboard, motion platform controller, instructor
//! monitor, scenario module, dynamics model, visual display and audio module —
//! as independent Logical Processes, plugs them into the Communication
//! Backbone, distributes them across the eight rack-mounted desktop computers
//! of Figure 11, and runs training or licensing-exam sessions on the result.
//!
//! Quick start:
//!
//! ```
//! use crane_sim::{CraneSimulator, SimulatorConfig};
//!
//! let config = SimulatorConfig { exam_frames: 200, ..SimulatorConfig::default() };
//! let mut simulator = CraneSimulator::new(config).expect("simulator builds");
//! simulator.run().expect("session runs");
//! let report = simulator.report();
//! assert!(report.frames_run >= 200);
//! assert!(report.synchronized_fps > 5.0);
//! ```

pub mod audio;
pub mod config;
pub mod dashboard;
pub mod dynamics;
pub mod fom;
pub mod instructor;
pub mod motion;
pub mod operator;
pub mod scenario;
pub mod simulator;
pub mod telemetry;
pub mod visual;

pub use config::{
    FidelityTier, GpuGeneration, OperatorKind, SimulatorConfig, SCORE_DRIFT_TOLERANCE,
};
pub use fom::CraneFom;
pub use operator::{ExamOperator, IdleOperator, Observation, Operator, RecklessOperator};
pub use simulator::{step_frames_batch_traced, BatchStepStats, CraneSimulator, SessionReport};
pub use telemetry::{FrameDigest, SharedTelemetry, TelemetrySnapshot, TelemetryTrace};
