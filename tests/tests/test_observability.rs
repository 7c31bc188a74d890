//! The observability layer's determinism contract, end to end: the
//! deterministic sink (`OBS_cod.json`) must be a pure function of the seed —
//! byte-identical across runs, execution modes and thread counts — while the
//! wall-clock sink records real spans without perturbing a single byte of
//! the fingerprinted fleet report. And with tracing disabled (the default),
//! nothing records at all.

use cod_fleet::{
    run_fleet, run_fleet_traced, ExecutionMode, FleetConfig, FleetReport, ObsConfig,
    PlacementPolicy, ShardConfig, WorkloadConfig,
};
use cod_testkit::obs_equivalence_check;

/// A heterogeneous fleet with every mechanism on, so the deterministic sink
/// sees every event kind the fleet can emit.
fn traced_config(seed: u64) -> FleetConfig {
    FleetConfig {
        shards: 2,
        shard: ShardConfig {
            slots: 2,
            batch_frames: 8,
            pool_per_shape: 1,
            ..ShardConfig::default()
        },
        shard_speeds: vec![2.0, 0.5],
        placement: PlacementPolicy::SpeedWeighted,
        preemption: true,
        migration: true,
        tiering: true,
        max_pending: 4,
        workload: WorkloadConfig {
            sessions: 12,
            seed,
            base_frames: 24,
            mean_interarrival_ticks: 1,
        },
        execution: ExecutionMode::Modeled,
        obs: ObsConfig::Full,
    }
}

#[test]
fn obs_report_is_byte_identical_across_execution_modes_and_thread_counts() {
    let (reference, divergences) = obs_equivalence_check(&traced_config(0xC0D), &[1, 4]).unwrap();
    assert!(reference.contains("cod-obs-v1"), "the report must carry its schema");
    for (label, divergence) in divergences {
        assert_eq!(divergence, None, "OBS_cod.json diverged from the modeled run under {label}");
    }
}

#[test]
fn obs_report_is_byte_identical_across_same_seed_runs() {
    let config = traced_config(7);
    let drain = || {
        let (_, _, artifacts) = run_fleet_traced(&config).unwrap();
        artifacts.det.expect("Full arms the det sink").to_report_json(config.workload.seed)
    };
    assert_eq!(drain().to_pretty(), drain().to_pretty());
}

#[test]
fn different_seeds_produce_different_obs_fingerprints() {
    // The byte-identity gates above would be vacuous if the sink ignored the
    // workload: two seeds must disagree.
    let fingerprint = |seed: u64| {
        let (_, _, artifacts) = run_fleet_traced(&traced_config(seed)).unwrap();
        artifacts.det.expect("Full arms the det sink").fingerprint()
    };
    assert_ne!(fingerprint(1), fingerprint(2));
}

#[test]
fn det_sink_records_the_fleet_ledger_and_the_hot_loop_counters() {
    let config = traced_config(0xC0D);
    let (outcome, _, artifacts) = run_fleet_traced(&config).unwrap();
    let det = artifacts.det.expect("Full arms the det sink");
    // The sink's run-level aggregates (the admission model's counters and
    // the shard records' move totals) must agree with the outcome's
    // sessions, each of which counts its own moves.
    let completed = outcome.sessions.len() as u64;
    assert_eq!(det.counter("ticks_run"), outcome.ticks_run);
    assert_eq!(det.counter("completed"), completed);
    assert_eq!(det.counter("preempted"), outcome.preempted());
    let migrated: u32 = outcome.sessions.iter().map(|s| s.migrated).sum();
    assert!(migrated > 0, "a 4x speed gap must migrate, or the check below is vacuous");
    assert_eq!(det.counter("migrated"), u64::from(migrated));
    assert_eq!(det.events_of("preempt") as u64, outcome.preempted());
    assert_eq!(det.events_of("migrate") as u64, outcome.migrated());
    assert_eq!(det.events_of("demote") as u64, outcome.demoted());
    // Frame counters flow up from the shard hot loop.
    assert!(det.counter("frames_stepped") > 0, "the hot loop must count frames");
    assert!(det.counter("cohorts_stepped") > 0, "batched stepping must count cohorts");
    // Histograms key on modeled time only.
    let makespan = det.histogram("tick_makespan_us").expect("per-tick histogram");
    assert_eq!(makespan.count(), outcome.ticks_run);
    let latency = det.histogram("session_latency_ticks").expect("per-session histogram");
    assert_eq!(latency.count(), completed);
}

#[test]
fn serialized_obs_report_carries_the_stepping_counters_and_no_memo_key() {
    let config = traced_config(0xC0D);
    let (_, _, artifacts) = run_fleet_traced(&config).unwrap();
    let det = artifacts.det.expect("Full arms the det sink");
    let report = det.to_report_json(config.workload.seed).to_pretty();
    assert!(report.contains("\"frames_stepped\""), "{report}");
    assert!(report.contains("\"cohorts_stepped\""), "{report}");
    assert!(!report.contains("\"memo_"), "the cohort memo is gone, its counters with it");
}

#[test]
fn wall_sink_records_worker_lanes_without_touching_the_fleet_report() {
    let mut config = traced_config(0xC0D);
    config.execution = ExecutionMode::WallClock { threads: 4 };
    let (traced_outcome, _, artifacts) = run_fleet_traced(&config).unwrap();
    let trace = artifacts.wall.expect("Full arms the wall sink");
    assert_eq!(trace.lanes(), 5, "a driver lane plus one lane per worker");
    assert!(trace.event_count() > 0, "a drained run must record spans");
    // Worker lanes only: the driver's own `step-phase` span is a `step` too.
    let steps: usize = (1..trace.lanes()).map(|lane| trace.count_of(lane, "step")).sum();
    assert_eq!(
        steps as u64,
        traced_outcome.ticks_run * config.shards as u64,
        "one step span per shard per tick, whichever worker ran it"
    );
    // And the fingerprinted report is byte-identical to an untraced run's.
    let mut untraced = config.clone();
    untraced.obs = ObsConfig::Disabled;
    let untraced_outcome = run_fleet(&untraced).unwrap();
    assert_eq!(
        FleetReport::from_outcome(&traced_outcome).to_json().to_pretty(),
        FleetReport::from_outcome(&untraced_outcome).to_json().to_pretty(),
        "arming tracing must not change a byte of FLEET_cod.json"
    );
}

#[test]
fn disabled_obs_returns_no_artifacts_and_the_same_outcome() {
    let mut config = traced_config(3);
    config.obs = ObsConfig::Disabled;
    let (outcome, _, artifacts) = run_fleet_traced(&config).unwrap();
    assert!(artifacts.det.is_none(), "disabled obs must arm no deterministic sink");
    assert!(artifacts.wall.is_none(), "disabled obs must arm no wall sink");
    // run_fleet_traced with obs off is exactly run_fleet.
    assert_eq!(outcome, run_fleet(&config).unwrap());
}
