//! Determinism under the wall-clock executor: the same seeded workload
//! served at 1, 2, 4 and 8 worker threads must produce a byte-identical
//! serialized fleet report and digest-identical per-session telemetry.
//!
//! The wall-clock executor hands whole shards to whichever worker takes
//! them first, so thread scheduling decides *when* a shard is stepped —
//! never what it computes, what order results are folded in, or what the
//! sessions' telemetry traces record. These tests pin that contract on the
//! fleets where it is hardest to keep: heterogeneous racks with preemption
//! and live migration, and tiered bursts with live retiering, including
//! thread counts well above the shard count (8 threads on 2 shards leaves
//! most workers parked).

use std::collections::BTreeMap;

use cod_fleet::{
    run_fleet, run_fleet_timed, ExecutionMode, FleetConfig, PlacementPolicy, ShardConfig,
    WorkloadConfig,
};
use cod_testkit::wallclock_equivalence_check;

/// Thread counts swept by every test, deliberately straddling the shard
/// count on both sides.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A heterogeneous fleet under pressure: speeds far apart, preemption and
/// migration on, so the executor must reproduce the outcome of the runs
/// where scheduling pressure is most tempting to leak.
fn hetero_config(seed: u64) -> FleetConfig {
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
        tiering: false,
        max_pending: 8,
        workload: WorkloadConfig {
            sessions: 16,
            seed,
            base_frames: 32,
            mean_interarrival_ticks: 1,
        },
        execution: ExecutionMode::Modeled,
        obs: Default::default(),
    }
}

/// A tiered burst: every session at the door at once, live retiering on.
fn tiered_burst_config(seed: u64) -> FleetConfig {
    let mut config = hetero_config(seed);
    config.shard_speeds = Vec::new();
    config.preemption = false;
    config.migration = false;
    config.tiering = true;
    config.max_pending = 4;
    config.workload.mean_interarrival_ticks = 0;
    config
}

/// Per-session telemetry digests keyed by session id.
fn telemetry_digests(config: &FleetConfig) -> BTreeMap<u64, u64> {
    run_fleet(config).expect("fleet drains").sessions.iter().map(|s| (s.id, s.telemetry)).collect()
}

#[test]
fn hetero_report_is_byte_identical_at_every_thread_count() {
    let (modeled, divergences) =
        wallclock_equivalence_check(&hetero_config(0xC0D), &THREADS).unwrap();
    assert!(modeled.preempted() > 0, "the workload must exercise preemption");
    assert!(modeled.migrated() > 0, "the workload must exercise migration");
    for (threads, divergence) in divergences {
        assert_eq!(
            divergence, None,
            "the serialized report diverged from the modeled run under {threads} threads"
        );
    }
}

#[test]
fn tiered_burst_report_is_byte_identical_at_every_thread_count() {
    let (modeled, divergences) =
        wallclock_equivalence_check(&tiered_burst_config(0xC0D), &THREADS).unwrap();
    assert!(modeled.demoted() > 0, "the burst must exercise live demotion");
    assert!(modeled.promoted() > 0, "the drain must exercise live promotion");
    for (threads, divergence) in divergences {
        assert_eq!(
            divergence, None,
            "the serialized report diverged from the modeled run under {threads} threads"
        );
    }
}

#[test]
fn telemetry_digests_are_identical_at_every_thread_count() {
    let reference = telemetry_digests(&hetero_config(0xC0D));
    assert!(!reference.is_empty(), "the workload must complete sessions");
    assert!(
        reference.values().any(|&digest| digest != 0),
        "telemetry digests must witness real traces"
    );
    for threads in THREADS {
        let mut config = hetero_config(0xC0D);
        config.execution = ExecutionMode::WallClock { threads };
        assert_eq!(
            telemetry_digests(&config),
            reference,
            "per-session telemetry digests diverged under {threads} threads"
        );
    }
}

#[test]
fn worker_instrumentation_is_present_and_non_degenerate() {
    // The per-worker counters are observability, not outcome: they must be
    // sized to the pool, account for every task the pool ran (and, with more
    // workers than shards, show somebody parked), and a modeled run is the
    // 1-thread pool: one entry, the driver's, which stepped every task.
    let mut config = hetero_config(0xC0D);
    config.execution = ExecutionMode::WallClock { threads: 4 };
    let (outcome, stats) = run_fleet_timed(&config).unwrap();
    assert!(!outcome.sessions.is_empty());
    assert_eq!(stats.worker_steals.len(), 4, "one steal counter per worker");
    assert_eq!(stats.worker_idle_spins.len(), 4, "one idle counter per worker");
    // Every shard is stepped exactly once per tick, by some worker.
    assert_eq!(
        stats.worker_tasks.iter().sum::<u64>(),
        stats.ticks * config.shards as u64,
        "the task ledger must close over {} ticks: {:?}",
        stats.ticks,
        stats.worker_tasks
    );
    assert!(
        stats.worker_idle_spins.iter().sum::<u64>() > 0,
        "4 workers on 2 shards cannot all stay busy: {:?}",
        stats.worker_idle_spins
    );

    let modeled = run_fleet_timed(&hetero_config(0xC0D)).unwrap().1;
    assert_eq!(modeled.threads, 1);
    assert_eq!(modeled.worker_steals, [0], "one steal counter, the driver's");
    assert_eq!(modeled.worker_idle_spins, [0], "the driver alone never waits");
    assert_eq!(modeled.worker_tasks, [modeled.ticks * config.shards as u64]);
}

#[test]
fn different_seeds_still_produce_different_telemetry() {
    // The digest gate above would be vacuous if every workload digested to
    // the same bytes; two different seeds must disagree somewhere.
    let a = telemetry_digests(&hetero_config(1));
    let b = telemetry_digests(&hetero_config(2));
    assert_ne!(
        a.values().collect::<Vec<_>>(),
        b.values().collect::<Vec<_>>(),
        "telemetry digests must depend on the workload"
    );
}
