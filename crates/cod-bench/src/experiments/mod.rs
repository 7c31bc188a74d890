//! The experiments of `EXPERIMENTS.md`, as library code.
//!
//! Each submodule owns one experiment: it prints the experiment's
//! reproduction table (the analytic series the paper's figures correspond
//! to), times the experiment's headline routine through
//! [`crate::measure::measure`], and returns an
//! [`crate::report::ExperimentResult`]. [`EXPERIMENTS`] lists them once; the
//! `experiments` bench target and the `bench_report` runner binary both walk
//! it, so `cargo bench` output and `BENCH_cod.json` can never disagree.

pub mod audio_mix;
pub mod cluster_speedup;
pub mod collision;
pub mod dynamics;
pub mod fidelity_tiers;
pub mod framerate;
pub mod init_protocol;
pub mod observability;
pub mod platform;
pub mod routing;
pub mod sync_overhead;

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

/// One row of [`EXPERIMENTS`]: the `EXPERIMENTS.md` id, the short name and
/// the function that runs it.
pub type Experiment = (&'static str, &'static str, fn(&ExperimentCtx) -> ExperimentResult);

/// Every experiment, E1 first. Retired ids (E9–E11, E13) keep their numbers
/// and have no row.
pub const EXPERIMENTS: [Experiment; 11] = [
    ("E1", "framerate", framerate::run),
    ("E2", "dynamics", dynamics::run),
    ("E3", "collision", collision::run),
    ("E4", "platform", platform::run),
    ("E5", "routing", routing::run),
    ("E6", "init_protocol", init_protocol::run),
    ("E7", "sync_overhead", sync_overhead::run),
    ("E8", "cluster_speedup", cluster_speedup::run),
    ("E12", "fidelity_tiers", fidelity_tiers::run),
    ("E14", "observability", observability::run),
    ("E15", "audio_mix", audio_mix::run),
];

/// The experiment whose id (`"E8"`) or name (`"cluster_speedup"`) is `key`.
pub fn lookup(key: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|(id, name, _)| *id == key || *name == key)
}

/// Runs all the experiments in order, E1 first.
pub fn all(ctx: &ExperimentCtx) -> Vec<ExperimentResult> {
    EXPERIMENTS.iter().map(|(_, _, run)| run(ctx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_table_matches_the_document_and_the_lookup() {
        let doc = include_str!("../../EXPERIMENTS.md");
        for (i, (id, name, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i]
                    .iter()
                    .all(|(other_id, other_name, _)| other_id != id && other_name != name),
                "{id} {name} is listed twice"
            );
            let heading = format!("## {id} — `{name}`");
            assert!(doc.lines().any(|line| line == heading), "EXPERIMENTS.md lacks '{heading}'");
        }
        for retired in ["E9", "E10", "E11", "E13"] {
            assert!(lookup(retired).is_none(), "retired {retired} is back in the table");
        }
        assert_eq!(lookup("E8").map(|e| e.1), Some("cluster_speedup"));
        assert_eq!(lookup("cluster_speedup").map(|e| e.0), Some("E8"));
        assert!(lookup("fleet").is_none());
    }
}
