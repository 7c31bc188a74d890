//! Experiment E12 — fidelity tiers: what the `Coarse` tier costs in
//! score accuracy.
//!
//! `FidelityTier::Coarse` lets a session run on a decimated rack (one
//! display channel, the integrator stepped at an eighth of the frame rate)
//! that is an order of magnitude cheaper in modeled cost. That is only
//! useful if the cheap tier stays *score-compatible*: a Batch session
//! graded on the Coarse tier must reach (close to) the verdict the full
//! rack would have reached. E12 measures the per-spec final-score drift
//! between tiers over a seeded sample of session specs, beside each spec's
//! sequential-cost multiplier. What the tier buys a fleet — capacity, live
//! promotion and demotion — is gated by `fleet_report --quick`'s tiered pair.

use cod_fleet::{generate, WorkloadConfig};
use crane_sim::{CraneSimulator, FidelityTier, SCORE_DRIFT_TOLERANCE};

use super::ExperimentCtx;
use crate::measure::measure;
use crate::report::{DerivedMetric, ExperimentResult};

/// Session specs sampled for the drift table.
const DRIFT_SPECS: usize = 6;
/// Frames per sampled drift session — long enough for reckless operators to
/// rack up scored collisions, so the tiers have something to disagree about.
const DRIFT_FRAMES: usize = 400;

/// Runs one sampled spec to completion on one tier; returns the final score
/// and the modeled sequential cost per session frame in microseconds.
fn run_tier(config: &crane_sim::SimulatorConfig, tier: FidelityTier) -> (f64, f64) {
    let mut tiered = config.clone();
    tiered.tier = tier;
    let mut sim = CraneSimulator::new(tiered).expect("simulator builds");
    sim.run_frames(DRIFT_FRAMES).expect("session runs");
    (sim.report().score, sim.session_cost_hint().0 as f64)
}

/// Runs E12 and returns its result.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let sample = generate(&WorkloadConfig {
        sessions: DRIFT_SPECS,
        seed: 0xC0D,
        base_frames: DRIFT_FRAMES,
        mean_interarrival_ticks: 1,
    });
    if ctx.tables {
        println!(
            "\n=== E12: fidelity tiers ({DRIFT_SPECS} specs x {DRIFT_FRAMES} frames, modeled \
             time) ==="
        );
        println!("session spec                             | full  | coarse| drift | cost x");
    }
    let mut max_drift: f64 = 0.0;
    let mut cost_multipliers = Vec::new();
    for arrival in &sample {
        let (full_score, full_cost) = run_tier(&arrival.spec.config, FidelityTier::Full);
        let (coarse_score, coarse_cost) = run_tier(&arrival.spec.config, FidelityTier::Coarse);
        let drift = (full_score - coarse_score).abs();
        let multiplier = full_cost / coarse_cost.max(1.0);
        max_drift = max_drift.max(drift);
        cost_multipliers.push(multiplier);
        if ctx.tables {
            println!(
                "{:<40} | {full_score:>5.1} | {coarse_score:>5.1} | {drift:>5.1} | \
                 {multiplier:>5.1}x",
                arrival.spec.name
            );
        }
    }
    let mean_cost_multiplier =
        cost_multipliers.iter().sum::<f64>() / cost_multipliers.len().max(1) as f64;
    if ctx.tables {
        println!(
            "max drift {max_drift:.1} points (tolerance {SCORE_DRIFT_TOLERANCE}); mean \
             sequential cost multiplier {mean_cost_multiplier:.1}x\n"
        );
    }

    // Headline routine: one Coarse-tier drift session of the first spec.
    let timed_config = &sample[0].spec.config;
    let m = measure(&ctx.measure, || {
        run_tier(timed_config, FidelityTier::Coarse);
    });

    ExperimentResult {
        id: "E12".into(),
        name: "fidelity_tiers".into(),
        metric: format!("run one {DRIFT_FRAMES}-frame Coarse-tier session"),
        timing: m.stats,
        iters_per_sample: m.iters_per_sample,
        comparison: None,
        derived: vec![
            DerivedMetric::new("max_score_drift", "points", max_drift),
            DerivedMetric::new("score_drift_tolerance", "points", SCORE_DRIFT_TOLERANCE),
            DerivedMetric::new("mean_cost_multiplier", "x", mean_cost_multiplier),
        ],
        notes: "Scores and costs are modeled, so the drift table is deterministic; bench_report \
                gates max_score_drift <= the pinned tolerance, and `fleet_report --quick` \
                gates the fleet-scale capacity multiplier plus at least one live promotion \
                and demotion per tiered run."
            .into(),
    }
}
