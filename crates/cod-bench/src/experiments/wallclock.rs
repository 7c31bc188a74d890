//! Experiment E13 — wall-clock execution: modeled versus real sessions/sec
//! under the executor pool.
//!
//! Every other fleet experiment accounts throughput in *modeled* time, which
//! is what keeps their numbers deterministic. E13 is the one experiment that
//! reads the real clock: it serves the standard E9 workload under
//! [`ExecutionMode::WallClock`] at 1, 2 and 4 worker threads and reports
//! sessions per *wall* second for each, beside the modeled figure. The
//! wall rows vary run to run — that is the point of measuring them — so the
//! experiment also asserts the part that must *not* vary: the serialized
//! fleet report at every thread count is byte-identical to the modeled run's.
//! Thread scheduling decides when a shard is stepped, never what it computes,
//! and the wall timings live beside the outcome, not inside it.

use cod_fleet::{
    run_fleet, run_fleet_timed, ExecutionMode, FleetConfig, FleetReport, ShardConfig,
    WorkloadConfig,
};

use super::ExperimentCtx;
use crate::measure::measure;
use crate::report::{DerivedMetric, ExperimentResult};

/// Worker-thread counts swept by the reproduction table.
const THREADS: [usize; 3] = [1, 2, 4];

/// The E9 workload, served under an explicit execution mode.
fn config(execution: ExecutionMode) -> FleetConfig {
    FleetConfig {
        shards: 4,
        shard: ShardConfig {
            slots: 4,
            batch_frames: 8,
            pool_per_shape: 2,
            ..ShardConfig::default()
        },
        max_pending: 16,
        workload: WorkloadConfig {
            sessions: 32,
            seed: 0xC0D,
            base_frames: 24,
            mean_interarrival_ticks: 1,
        },
        execution,
        ..FleetConfig::quick(4, 0)
    }
}

/// Runs E13 and returns its result.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    // The modeled run is the determinism reference: every wall-clock run
    // below must serialize to exactly these bytes.
    let modeled = run_fleet(&config(ExecutionMode::Modeled)).expect("fleet drains");
    let reference = FleetReport::from_outcome(&modeled).to_json().to_pretty();
    let modeled_sps = modeled.sessions_per_sec();

    if ctx.tables {
        println!("\n=== E13: wall-clock execution (32 sessions, 4 shards) ===");
        println!("threads | sessions/s (wall) | wall     | report bytes");
        println!("modeled | {modeled_sps:>17.2} |      --- | reference");
    }
    let mut wall_sps = Vec::new();
    for threads in THREADS {
        let (outcome, stats) =
            run_fleet_timed(&config(ExecutionMode::WallClock { threads })).expect("fleet drains");
        let bytes = FleetReport::from_outcome(&outcome).to_json().to_pretty();
        assert_eq!(
            bytes, reference,
            "wall-clock report at {threads} threads diverged from the modeled report"
        );
        let sps = stats.sessions_per_wall_sec(outcome.completed);
        if ctx.tables {
            println!("{threads:>7} | {sps:>17.1} | {:>8.2?} | identical", stats.wall);
        }
        wall_sps.push(sps);
    }
    let scaling = wall_sps[2] / wall_sps[0].max(1e-12);
    if ctx.tables {
        println!(
            "wall scaling 1 -> 4 threads: {scaling:.2}x (real speedup needs real cores; \
             `fleet_report --wallclock` gates >= 1.5x on 4+-core runners)\n"
        );
    }

    // Headline routine: serve the fleet to drain under a 2-thread executor.
    let timed_config = config(ExecutionMode::WallClock { threads: 2 });
    let m = measure(&ctx.measure, || {
        run_fleet(&timed_config).expect("fleet drains");
    });

    ExperimentResult {
        id: "E13".into(),
        name: "wallclock".into(),
        bench_target: "wallclock".into(),
        metric: "serve a 32-session fleet to drain under a 2-thread executor pool".into(),
        timing: m.stats,
        iters_per_sample: m.iters_per_sample,
        comparison: None,
        derived: vec![
            DerivedMetric::new("sessions_per_sec_modeled", "1/s", modeled_sps),
            DerivedMetric::new("sessions_per_wall_sec_1_thread", "1/s", wall_sps[0]),
            DerivedMetric::new("sessions_per_wall_sec_2_threads", "1/s", wall_sps[1]),
            DerivedMetric::new("sessions_per_wall_sec_4_threads", "1/s", wall_sps[2]),
            DerivedMetric::new("wall_scaling_1_to_4_threads", "x", scaling),
        ],
        notes: "The wall rows are real time and vary run to run; the deterministic part — the \
                serialized fleet report — is asserted byte-identical across thread counts and \
                to the modeled run, which is why wall timings are kept beside the outcome \
                rather than inside the report fingerprint. `fleet_report --quick --wallclock` \
                gates >= 1.5x wall scaling from 1 to 4 threads on 4+-core runners."
            .into(),
    }
}
