//! Experiment E14 — observability overhead: what arming the deterministic
//! trace sink costs on the batched serving path.
//!
//! The `cod-trace` hooks ride the fleet's hottest loop — every cohort step
//! bumps the frame and cohort counters, every tick records a makespan
//! histogram sample, every admission decision appends an event. The sinks
//! are only acceptable if a traced drain stays within a few percent of an
//! untraced one; otherwise nobody arms them in production and the
//! observability layer observes nothing. E14 times the same burst drain with
//! `ObsConfig::Disabled` (the default null-pointer path) and with
//! `ObsConfig::Deterministic` (every hook live) in alternation — one untraced
//! and one traced drain per sample — and derives the relative overhead that
//! the `gates` runner gates at ≤ 5% from the median of the per-pair ratios, so a
//! shift in machine speed during the run cancels instead of landing between
//! two blocks of samples.

use cod_fleet::{
    run_fleet, run_fleet_traced, ExecutionMode, FleetConfig, FleetReport, ObsConfig,
    PlacementPolicy, ShardConfig, WorkloadConfig,
};

use crate::measure::{measure_pairs, median, MeasureConfig, PairedMeasurement};
use crate::report::{DerivedMetric, ExperimentResult};

/// The ceiling the `gates` runner enforces on the traced-over-untraced slowdown.
pub const TRACING_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// The batched serving path under test: a burst of same-epoch arrivals on a
/// small homogeneous rack, so shards step multi-member cohorts through
/// `step_frames_batch_traced` every tick — the loop the hooks ride.
fn serving_config(obs: ObsConfig) -> FleetConfig {
    FleetConfig {
        shards: 2,
        shard: ShardConfig {
            slots: 4,
            batch_frames: 8,
            pool_per_shape: 1,
            ..ShardConfig::default()
        },
        shard_speeds: Vec::new(),
        placement: PlacementPolicy::SpeedWeighted,
        preemption: false,
        migration: false,
        tiering: false,
        max_pending: 8,
        workload: WorkloadConfig {
            sessions: 16,
            seed: 0xC0D,
            base_frames: 32,
            mean_interarrival_ticks: 0,
        },
        execution: ExecutionMode::Modeled,
        obs,
    }
}

/// Runs E14 and returns its result.
pub fn run() -> ExperimentResult {
    // Sanity first: the hooks observe the drain, they must never steer it —
    // the fingerprinted report has to come out byte-identical either way.
    let untraced_outcome = run_fleet(&serving_config(ObsConfig::Disabled)).expect("fleet drains");
    let (traced_outcome, _, artifacts) =
        run_fleet_traced(&serving_config(ObsConfig::Deterministic)).expect("fleet drains");
    assert_eq!(
        FleetReport::from_outcome(&untraced_outcome).to_json().to_pretty(),
        FleetReport::from_outcome(&traced_outcome).to_json().to_pretty(),
        "tracing must not change a byte of FLEET_cod.json"
    );
    let det = artifacts.det.expect("Deterministic arms the det sink");

    let untraced_config = serving_config(ObsConfig::Disabled);
    let traced_config = serving_config(ObsConfig::Deterministic);
    let PairedMeasurement { baseline: untraced, candidate: traced, ratios } = measure_pairs(
        &MeasureConfig::default(),
        || {
            run_fleet(&untraced_config).expect("fleet drains");
        },
        || {
            run_fleet_traced(&traced_config).expect("fleet drains");
        },
    );
    let overhead_pct = (median(&ratios) - 1.0) * 100.0;

    println!("\n=== E14: observability overhead (16-session burst, batched, modeled) ===");
    println!("sink          | median/drain | events recorded");
    println!("disabled      | {:>12} | {:>15}", crate::report::format_ns(untraced.stats.median), 0);
    println!(
        "deterministic | {:>12} | {:>15}",
        crate::report::format_ns(traced.stats.median),
        det.events().len()
    );
    println!(
        "overhead {overhead_pct:+.2}% (ceiling {TRACING_OVERHEAD_CEILING_PCT:.1}%); \
         {} frames / {} cohorts counted, fingerprint {:#018x}\n",
        det.counter("frames_stepped"),
        det.counter("cohorts_stepped"),
        det.fingerprint(),
    );

    ExperimentResult {
        id: "E14".into(),
        name: "observability".into(),
        comparison: None,
        derived: vec![
            DerivedMetric::new("tracing_overhead_pct", "%", overhead_pct),
            DerivedMetric::new("tracing_overhead_ceiling_pct", "%", TRACING_OVERHEAD_CEILING_PCT),
            DerivedMetric::new("untraced_median_ns", "ns", untraced.stats.median),
            DerivedMetric::new("traced_median_ns", "ns", traced.stats.median),
            DerivedMetric::new("events_recorded", "events", det.events().len() as f64),
            DerivedMetric::new("frames_counted", "frames", det.counter("frames_stepped") as f64),
        ],
        notes: "Overhead is the median traced-over-untraced ratio of back-to-back drain pairs on \
                the batched serving path; the gates runner (`cargo run --release -p \
                cod-testkit --bin gates`) gates it at the pinned ceiling in its `bench` row \
                'E14 tracing overhead on the serving path'. The outcome equality asserted \
                inside the experiment plus the byte-identity rows of its `trace` source \
                pin the correctness side."
            .into(),
    }
}
