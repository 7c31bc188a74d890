//! Experiment E12 — fidelity tiers: what the `Coarse` tier costs in
//! score accuracy and what it buys in serving capacity.
//!
//! `FidelityTier::Coarse` lets a session run on a decimated rack (one
//! display channel, the integrator stepped at an eighth of the frame rate)
//! that is an order of magnitude cheaper in modeled cost. That is only
//! useful if the cheap tier stays *score-compatible*: a Batch session
//! graded on the Coarse tier must reach (close to) the verdict the full
//! rack would have reached. E12 measures both sides of the bargain — the
//! per-spec final-score drift between tiers over a seeded sample of session
//! specs, and the throughput multiplier a bursty fleet gets from serving
//! its coarse-eligible classes on the cheap tier with live retiering.

use cod_fleet::{
    generate, run_fleet, ExecutionMode, FleetConfig, PlacementPolicy, ShardConfig, WorkloadConfig,
};
use crane_sim::{CraneSimulator, FidelityTier, SCORE_DRIFT_TOLERANCE};

use super::ExperimentCtx;
use crate::measure::measure;
use crate::report::{DerivedMetric, ExperimentResult};

/// Session specs sampled for the drift table.
const DRIFT_SPECS: usize = 6;
/// Frames per sampled drift session — long enough for reckless operators to
/// rack up scored collisions, so the tiers have something to disagree about.
const DRIFT_FRAMES: usize = 400;

/// The tiered-capacity pair: a burst on a small homogeneous rack, with the
/// queue bounded so it drains to calm while a Training session is still
/// resident (the configuration the testkit's tier invariants also pin).
fn burst_config(tiering: bool) -> FleetConfig {
    FleetConfig {
        shards: 2,
        shard: ShardConfig {
            slots: 2,
            batch_frames: 8,
            pool_per_shape: 1,
            ..ShardConfig::default()
        },
        shard_speeds: Vec::new(),
        placement: PlacementPolicy::SpeedWeighted,
        preemption: false,
        migration: false,
        tiering,
        max_pending: 4,
        workload: WorkloadConfig {
            sessions: 16,
            seed: 0xC0D,
            base_frames: 32,
            mean_interarrival_ticks: 0,
        },
        execution: ExecutionMode::Modeled,
        obs: Default::default(),
    }
}

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
    // Side one: per-spec score drift and per-frame cost across the tiers.
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

    // Side two: the capacity multiplier live tiering buys on a burst. The
    // same sessions complete in the same ticks on both sides (tick dynamics
    // are tier-independent); only the modeled serving time shrinks.
    let all_full = run_fleet(&burst_config(false)).expect("fleet drains");
    let tiered = run_fleet(&burst_config(true)).expect("fleet drains");
    assert_eq!(all_full.completed, tiered.completed, "tiering must not change completions");
    let capacity_multiplier = tiered.sessions_per_sec() / all_full.sessions_per_sec().max(1e-12);

    if ctx.tables {
        println!(
            "max drift {max_drift:.1} points (tolerance {SCORE_DRIFT_TOLERANCE}); mean \
             sequential cost multiplier {mean_cost_multiplier:.1}x"
        );
        println!(
            "burst capacity: tiered {:.2} vs all-Full {:.2} sessions/s ({capacity_multiplier:.2}x, \
             {} demotions / {} promotions)\n",
            tiered.sessions_per_sec(),
            all_full.sessions_per_sec(),
            tiered.demoted,
            tiered.promoted,
        );
    }

    // Headline routine: drain the tiered burst fleet, live retiering included.
    let timed_config = burst_config(true);
    let m = measure(&ctx.measure, || {
        run_fleet(&timed_config).expect("fleet drains");
    });

    ExperimentResult {
        id: "E12".into(),
        name: "fidelity_tiers".into(),
        bench_target: "fidelity_tiers".into(),
        metric: "drain a 16-session burst fleet with live fidelity retiering".into(),
        timing: m.stats,
        iters_per_sample: m.iters_per_sample,
        comparison: None,
        derived: vec![
            DerivedMetric::new("max_score_drift", "points", max_drift),
            DerivedMetric::new("score_drift_tolerance", "points", SCORE_DRIFT_TOLERANCE),
            DerivedMetric::new("mean_cost_multiplier", "x", mean_cost_multiplier),
            DerivedMetric::new("capacity_multiplier", "x", capacity_multiplier),
            DerivedMetric::new("sessions_per_sec_all_full", "1/s", all_full.sessions_per_sec()),
            DerivedMetric::new("sessions_per_sec_tiered", "1/s", tiered.sessions_per_sec()),
        ],
        notes: "Scores and costs are modeled, so both sides are deterministic; bench_report \
                gates max_score_drift <= the pinned tolerance, and `fleet_report --quick` \
                gates the fleet-scale capacity multiplier plus at least one live promotion \
                and demotion per tiered run."
            .into(),
    }
}
