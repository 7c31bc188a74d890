//! The experiments of `EXPERIMENTS.md`, as library code.
//!
//! Each submodule owns one experiment: it prints the experiment's
//! reproduction table (the analytic series the paper's figures correspond
//! to), times the experiment's headline routine through
//! [`crate::measure::measure`], and returns an
//! [`crate::report::ExperimentResult`]. The `benches/` targets and the
//! `bench_report` runner binary are both thin wrappers over these functions,
//! so `cargo bench` output and `BENCH_cod.json` can never disagree.

pub mod audio_mix;
pub mod cluster_speedup;
pub mod collision;
pub mod dynamics;
pub mod fidelity_tiers;
pub mod fleet;
pub mod framerate;
pub mod hetero_fleet;
pub mod init_protocol;
pub mod observability;
pub mod platform;
pub mod routing;
pub mod sync_overhead;
pub mod wallclock;

use crate::measure::MeasureConfig;
use crate::report::ExperimentResult;

/// How an experiment run should behave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentCtx {
    /// Measurement budget for the timed routines.
    pub measure: MeasureConfig,
    /// Whether to print the reproduction tables while running.
    pub tables: bool,
}

impl ExperimentCtx {
    /// Environment-derived defaults (`COD_BENCH_QUICK` selects the reduced
    /// budget), tables on.
    pub fn from_env() -> ExperimentCtx {
        ExperimentCtx { measure: MeasureConfig::from_env(), tables: true }
    }

    /// A context with the reduced `--quick` budget.
    pub fn quick() -> ExperimentCtx {
        ExperimentCtx { measure: MeasureConfig::quick(), tables: true }
    }

    /// A trimmed copy of the measurement budget for secondary measurements
    /// (reproduction-table sweeps, derived metrics) so they stay cheap
    /// relative to the headline routine.
    pub fn secondary_measure(&self) -> MeasureConfig {
        MeasureConfig {
            samples: (self.measure.samples / 3).max(3),
            bootstrap_resamples: (self.measure.bootstrap_resamples / 4).max(20),
            ..self.measure
        }
    }
}

/// Runs all the experiments in order, E1 first.
pub fn all(ctx: &ExperimentCtx) -> Vec<ExperimentResult> {
    vec![
        framerate::run(ctx),
        dynamics::run(ctx),
        collision::run(ctx),
        platform::run(ctx),
        routing::run(ctx),
        init_protocol::run(ctx),
        sync_overhead::run(ctx),
        cluster_speedup::run(ctx),
        fleet::run(ctx),
        hetero_fleet::run(ctx),
        fidelity_tiers::run(ctx),
        wallclock::run(ctx),
        observability::run(ctx),
        audio_mix::run(ctx),
    ]
}
