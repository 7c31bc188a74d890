//! Fleet serving: dozens of concurrent crane-simulator sessions on a pool of
//! *unequal* shards — priority admission with preemption, speed-weighted
//! placement, live session migration, fidelity tiering and simulator
//! recycling, end to end. A retired rack is pooled on the shard that ran it,
//! and a shard about to serve a shape it has no rack of borrows one from a
//! sibling's pool, re-stamped to its own CPU speed, so the fleet builds a
//! shape again only when no shard holds one.
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```

use cod_fleet::{
    run_fleet_traced, ExecutionMode, FleetConfig, ObsConfig, PlacementPolicy, Priority,
    ShardConfig, WorkloadConfig,
};

fn main() {
    // One double-speed machine plus three half-speed ones — the paper's
    // premise (commodity desktop PCs) taken seriously: they are never equal.
    let config = FleetConfig {
        shards: 4,
        shard: ShardConfig {
            slots: 4,
            batch_frames: 8,
            pool_per_shape: 2,
            ..ShardConfig::default()
        },
        shard_speeds: vec![2.0, 0.5, 0.5, 0.5],
        placement: PlacementPolicy::SpeedWeighted,
        preemption: true,
        migration: true,
        tiering: true,
        max_pending: 16,
        workload: WorkloadConfig {
            sessions: 48,
            seed: 0xC0D,
            base_frames: 48,
            mean_interarrival_ticks: 1,
        },
        execution: ExecutionMode::WallClock { threads: 4 },
        obs: ObsConfig::Full,
    };

    println!(
        "serving {} sessions (priority x operator x GPU x channels x fault-plan mix, seed {:#x})",
        config.workload.sessions, config.workload.seed
    );
    println!(
        "fleet: {} shards (speeds {:?}) x {} slots, {} frames per session per tick, queue bound {}",
        config.shards,
        config.shard_speeds,
        config.shard.slots,
        config.shard.batch_frames,
        config.max_pending
    );
    println!(
        "policies: speed-weighted placement, preemption on, live migration on, fidelity tiering on\n"
    );

    let (outcome, wall, traces) = run_fleet_traced(&config).expect("fleet drains");
    let report = cod_fleet::FleetReport::from_outcome(&outcome);
    print!("{}", report.render_table());

    println!("\nfirst and last sessions through the door:");
    for s in outcome.sessions.iter().take(3).chain(outcome.sessions.iter().rev().take(2).rev()) {
        println!(
            "  {:<32} shard {} | arrived t{:<3} done t{:<3} | {} frames | score {:>5.1}{}{}{}",
            s.name,
            s.shard,
            s.arrived_tick,
            s.completed_tick,
            s.frames,
            s.score,
            if s.preempted > 0 { " | preempted" } else { "" },
            if s.migrated > 0 { " | migrated" } else { "" },
            if s.demoted > 0 { " | demoted" } else { "" },
        );
    }

    // Racks built from scratch vs sessions served by a pooled rack, the
    // borrowed ones included.
    let recycled: u64 = outcome.shard_stats.iter().map(|s| s.sims_recycled).sum();
    let built: u64 = outcome.shard_stats.iter().map(|s| s.sims_built).sum();
    let completed = outcome.sessions.len() as u64;
    println!(
        "\n{completed} sessions served by {built} built racks ({recycled} recycled through \
         reset_for_session)"
    );
    println!(
        "{} preemptions, {} live migrations, {} promotions, {} demotions; interactive p95 {:.1} \
         ticks vs batch p95 {:.1}",
        outcome.preempted(),
        outcome.migrated(),
        outcome.promoted(),
        outcome.demoted(),
        outcome.latency_percentile_ticks_where(95.0, |s| s.priority == Priority::Interactive),
        outcome.latency_percentile_ticks_where(95.0, |s| s.priority == Priority::Batch),
    );
    println!(
        "modeled throughput {:.2} sessions/s over {:.1} s of serving time",
        outcome.sessions_per_sec(),
        outcome.elapsed_modeled.as_secs_f64()
    );
    println!(
        "wall clock: {:.2} sessions/s over {:.2} s real on {} stepping threads \
         (outcome identical at any thread count)",
        wall.sessions_per_wall_sec(completed),
        wall.wall.as_secs_f64(),
        wall.threads,
    );

    // Observability artifacts: the Perfetto trace of this run plus the
    // deterministic metrics aggregate (identical bytes every run of this
    // seed — open the trace in https://ui.perfetto.dev or about://tracing).
    let trace = traces.wall.expect("obs: Full arms the wall sink");
    let det = traces.det.expect("obs: Full arms the deterministic sink");
    std::fs::create_dir_all("target/obs").expect("create target/obs");
    let trace_path = "target/obs/fleet_serving_trace.json";
    std::fs::write(trace_path, trace.to_chrome_json().to_pretty()).expect("write trace");
    println!("\nperfetto trace: {trace_path} ({} events)", trace.event_count());
    println!(
        "obs metrics: {} frames stepped in {} cohorts",
        det.counter("frames_stepped"),
        det.counter("cohorts_stepped"),
    );
    println!(
        "obs events: {} placements, {} rejections, {} preemptions, {} migrations",
        det.events_of("place"),
        det.events_of("reject"),
        det.events_of("preempt"),
        det.events_of("migrate"),
    );
    let makespan = det.histogram("tick_makespan_us").expect("per-tick histogram");
    println!(
        "obs tick makespan: mean {:.0} us, min {} us, max {} us over {} ticks",
        makespan.mean(),
        makespan.min(),
        makespan.max(),
        makespan.count(),
    );
    println!("obs fingerprint: {:#018x} (byte-stable per seed)", det.fingerprint());
}
