//! Runs the fleet serving benchmark and writes the machine-readable
//! `FLEET_cod.json` report.
//!
//! ```text
//! cargo run --release -p cod-fleet --bin fleet_report [-- --quick] [--seed N] [--shards N] [--out PATH]
//! ```
//!
//! The same seeded workload is served seven times:
//!
//! 1. on one shard (the scaling baseline);
//! 2. on `--shards` homogeneous shards — the ratio of modeled sessions/sec is
//!    the fleet's scaling factor, gated at >= 2x for 4+ shards;
//! 3. on the heterogeneous fleet (1×2.0-speed + 3×0.5-speed) with
//!    residency-only placement;
//! 4. on the same heterogeneous fleet with speed-weighted placement,
//!    priorities, preemption and live migration engaged;
//! 5. on the aware fleet with halved slots (the priority-pressure run), so
//!    the fleet saturates and preemption genuinely fires; and
//! 6. + 7. the tiered-capacity pair: a burst workload (every session at the
//!    door at once) served all-Full and then with fidelity tiering on —
//!    same rack, same seed, only the tiering policy differs.
//!
//! With `--wallclock`, the headline fleet run is additionally served under
//! the executor pool at 1 thread (the driver alone, no thread spawned) and 4
//! (the driver plus 3 workers) ([`cod_fleet::ExecutionMode::WallClock`]):
//! the two runs' reports must be byte-identical to the headline report
//! (thread scheduling must never leak into the deterministic output), and —
//! on runners with at least 4 cores — real sessions/sec must scale by at
//! least [`WALLCLOCK_SCALING_FLOOR`]x from 1 to 4 threads. On smaller
//! machines the scaling gate downgrades to an informational line (no pool
//! buys real parallelism without cores); the byte-identity gate always
//! applies. An ungated line prints the 1-thread run's wall time over a
//! modeled run's: what the pool itself costs.
//!
//! Exits non-zero if the homogeneous scaling drops below 2x, if the
//! speed-weighted heterogeneous run does not strictly beat the
//! residency-only one (the E10 gate), if the aware run never migrates, if
//! the pressure run never preempts, if interactive-class p95 latency
//! regresses above batch-class p95 under pressure, or if the tiered run
//! fails its gates: modeled capacity at least [`TIERED_CAPACITY_FLOOR`]x the
//! all-Full run, at least one live promotion and one live demotion, and the
//! largest per-session final-score drift within the pinned
//! [`SCORE_DRIFT_TOLERANCE`]. The report carries no wall-clock stamp: two
//! runs with the same seed produce byte-identical files — preemption,
//! migration and retiering included.

use std::collections::BTreeMap;
use std::process::ExitCode;

use cod_fleet::{
    document, run_fleet, run_fleet_timed, ExecutionMode, FleetConfig, FleetReport, PlacementPolicy,
    Priority, TieredSection, WallStopwatch,
};
use crane_sim::SCORE_DRIFT_TOLERANCE;

/// Minimum acceptable sessions/sec scaling from one shard to the full fleet.
const SCALING_FLOOR: f64 = 2.0;

/// Minimum acceptable *wall-clock* sessions/sec scaling from 1 to 4 executor
/// threads under `--wallclock`. Deliberately conservative: shard batches are
/// coarse and the workload small, so perfect 4x is never on the table, and
/// small CI runners share cores with the rest of the job — 1.5x is the floor
/// real parallelism must clear, not a target.
const WALLCLOCK_SCALING_FLOOR: f64 = 1.5;

/// Minimum acceptable modeled-capacity multiplier of the tiered run over the
/// all-Full run on the same rack and seed.
const TIERED_CAPACITY_FLOOR: f64 = 2.0;

const USAGE: &str =
    "usage: fleet_report [--quick] [--wallclock] [--seed N] [--shards N] [--out PATH]";

struct Args {
    quick: bool,
    wallclock: bool,
    seed: u64,
    shards: usize,
    out: String,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        wallclock: false,
        seed: 0xC0D,
        shards: 4,
        out: "FLEET_cod.json".into(),
        help: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--wallclock" => args.wallclock = true,
            "--seed" => {
                args.seed = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("--seed needs an integer\n{USAGE}"))?;
            }
            "--shards" => {
                args.shards = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--shards needs a positive integer\n{USAGE}"))?;
            }
            "--out" => {
                args.out = argv.next().ok_or_else(|| format!("--out needs a path\n{USAGE}"))?;
            }
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let make_config = |shards: usize| {
        if args.quick {
            FleetConfig::quick(shards, args.seed)
        } else {
            FleetConfig::full(shards, args.seed)
        }
    };
    // The heterogeneous pair: same workload, 1×2.0 + 3×0.5 shards; only the
    // serving policies differ between the two runs.
    let hetero_base = FleetConfig { shard_speeds: vec![2.0, 0.5, 0.5, 0.5], ..make_config(4) };
    let hetero_naive = FleetConfig {
        placement: PlacementPolicy::LeastResident,
        preemption: false,
        migration: false,
        ..hetero_base.clone()
    };
    let hetero_aware = FleetConfig {
        placement: PlacementPolicy::SpeedWeighted,
        preemption: true,
        migration: true,
        ..hetero_base
    };
    // The priority-pressure run: the aware stack with halved slots, so the
    // fleet saturates and preemption actually fires. Purely a gate run; it
    // is not part of the E10 pair (whose two sides must differ only in
    // policy) and is not written to the report.
    let mut hetero_pressure = hetero_aware.clone();
    hetero_pressure.shard.slots /= 2;

    // The tiered-capacity pair: the homogeneous rack under a burst workload
    // (every session arrives at once, so admission pressure is real), served
    // all-Full and then with fidelity tiering on. Preemption and migration
    // are engaged on both sides — tiering concentrates the expensive Full
    // residents on few shards, and without rebalancing the busiest shard
    // would mask most of the capacity the Coarse tier frees. Identical
    // except for the tiering flag.
    let mut tiered_full = make_config(args.shards);
    tiered_full.workload.mean_interarrival_ticks = 0;
    tiered_full.preemption = true;
    tiered_full.migration = true;
    // Admit just under half the burst: the capacity question is how fast the
    // fleet *serves* a backlog, so the queue must be deep enough to keep the
    // Coarse tail long — but bounded, because the bound is what lets the
    // queue drain to calm while a Training session is still resident, and a
    // calm tick with a live Training candidate is what makes the promotion
    // path fire inside this run.
    tiered_full.max_pending = tiered_full.workload.sessions / 2 - 2;
    let tiered_on = FleetConfig { tiering: true, ..tiered_full.clone() };

    let workload = make_config(args.shards).workload;
    println!(
        "fleet serving: {} sessions (seed {:#x}), {} shards vs 1-shard baseline, plus the \
         heterogeneous 1x2.0 + 3x0.5 pair ({} mode)",
        workload.sessions,
        args.seed,
        args.shards,
        if args.quick { "quick" } else { "full" },
    );

    let timed = |config: &FleetConfig, label: &str| match run_fleet(config) {
        Ok(outcome) => Ok(FleetReport::from_outcome(&outcome)),
        Err(err) => Err(format!("{label} run failed: {err}")),
    };

    let wall = WallStopwatch::start();
    let baseline = match timed(&make_config(1), "baseline") {
        Ok(report) => report,
        Err(msg) => return die(&msg),
    };
    let baseline_wall = wall.read();
    let wall = WallStopwatch::start();
    let fleet = match timed(&make_config(args.shards), "fleet") {
        Ok(report) => report,
        Err(msg) => return die(&msg),
    };
    let fleet_wall = wall.read();
    let wall = WallStopwatch::start();
    let naive = match timed(&hetero_naive, "heterogeneous least-resident") {
        Ok(report) => report,
        Err(msg) => return die(&msg),
    };
    let aware = match timed(&hetero_aware, "heterogeneous speed-weighted") {
        Ok(report) => report,
        Err(msg) => return die(&msg),
    };
    let pressure = match timed(&hetero_pressure, "heterogeneous priority-pressure") {
        Ok(report) => report,
        Err(msg) => return die(&msg),
    };
    let hetero_wall = wall.read();
    // The tiered pair keeps its outcomes: the score-drift gate pairs the two
    // runs' sessions by id, which the serialized reports no longer carry.
    let wall = WallStopwatch::start();
    let all_full_outcome = match run_fleet(&tiered_full) {
        Ok(outcome) => outcome,
        Err(err) => return die(&format!("all-Full burst run failed: {err}")),
    };
    let tiered_outcome = match run_fleet(&tiered_on) {
        Ok(outcome) => outcome,
        Err(err) => return die(&format!("tiered burst run failed: {err}")),
    };
    let tiered_wall = wall.read();
    let full_scores: BTreeMap<u64, f64> =
        all_full_outcome.sessions.iter().map(|s| (s.id, s.score)).collect();
    let max_score_drift = tiered_outcome
        .sessions
        .iter()
        .filter_map(|s| full_scores.get(&s.id).map(|full| (s.score - full).abs()))
        .fold(0.0_f64, f64::max);
    let tiered = TieredSection {
        all_full: FleetReport::from_outcome(&all_full_outcome),
        tiered: FleetReport::from_outcome(&tiered_outcome),
        max_score_drift,
    };

    println!("\n--- 1-shard baseline ({baseline_wall:.2?} wall) ---");
    print!("{}", baseline.render_table());
    println!("\n--- {}-shard fleet ({fleet_wall:.2?} wall) ---", args.shards);
    print!("{}", fleet.render_table());
    println!("\n--- heterogeneous pair ({hetero_wall:.2?} wall) ---");
    println!("residency-only placement:");
    print!("{}", naive.render_table());
    println!("speed-weighted + priorities + preemption + migration:");
    print!("{}", aware.render_table());
    println!("priority pressure (halved slots, saturating):");
    print!("{}", pressure.render_table());
    println!("\n--- tiered-capacity pair, burst workload ({tiered_wall:.2?} wall) ---");
    println!("all-Full:");
    print!("{}", tiered.all_full.render_table());
    println!("fidelity tiering on:");
    print!("{}", tiered.tiered.render_table());

    let text =
        document(&baseline, &fleet, Some((&naive, &aware)), Some(&tiered), args.quick).to_pretty();
    if let Err(err) = std::fs::write(&args.out, text) {
        return die(&format!("cannot write {}: {err}", args.out));
    }
    println!("\nwrote {}", args.out);

    let mut failed = false;
    let scaling = if baseline.sessions_per_sec > 0.0 {
        fleet.sessions_per_sec / baseline.sessions_per_sec
    } else {
        0.0
    };
    if args.shards >= 4 && scaling < SCALING_FLOOR {
        eprintln!(
            "REGRESSION: sessions/sec scaling {scaling:.2}x (1 -> {} shards) fell below the {SCALING_FLOOR:.1}x floor",
            args.shards
        );
        failed = true;
    } else {
        println!(
            "sessions/sec scaling 1 -> {} shards: {scaling:.2}x (floor {SCALING_FLOOR:.1}x) — ok",
            args.shards
        );
    }

    // E10 gate: on unequal machines, weighing placement by speed-scaled
    // backlog must strictly beat counting residents.
    if aware.sessions_per_sec <= naive.sessions_per_sec {
        eprintln!(
            "REGRESSION: speed-weighted placement {:.2}/s does not beat residency-only {:.2}/s \
             on the 1x2.0 + 3x0.5 fleet",
            aware.sessions_per_sec, naive.sessions_per_sec
        );
        failed = true;
    } else {
        println!(
            "heterogeneous fleet: speed-weighted {:.2}/s vs residency-only {:.2}/s ({:.2}x) — ok",
            aware.sessions_per_sec,
            naive.sessions_per_sec,
            aware.sessions_per_sec / naive.sessions_per_sec
        );
    }

    // Priority gate, on the pressure run (halved slots so the fleet
    // saturates): preemption must actually fire — a gate over a mechanism
    // the run never exercised proves nothing — and interactive sessions
    // must not wait longer than batch sessions at the tail. Percentiles of
    // an empty class read 0.0, so only compare classes that completed
    // sessions (an exotic --seed could drain one class empty).
    if pressure.preempted == 0 {
        eprintln!(
            "REGRESSION: the saturated priority run performed no preemption — the priority gate \
             is vacuous"
        );
        failed = true;
    } else {
        println!("preemptions in the saturated priority run: {} — ok", pressure.preempted);
    }
    let int_p95 = pressure.class_latency_p95[Priority::Interactive.index()];
    let bat_p95 = pressure.class_latency_p95[Priority::Batch.index()];
    let int_n = pressure.class_completed[Priority::Interactive.index()];
    let bat_n = pressure.class_completed[Priority::Batch.index()];
    if int_n == 0 || bat_n == 0 {
        println!(
            "priority latency gate skipped: {int_n} interactive / {bat_n} batch sessions \
             completed — nothing to compare"
        );
    } else if int_p95 > bat_p95 {
        eprintln!(
            "REGRESSION: interactive-class p95 latency {int_p95:.1} ticks exceeds batch-class \
             p95 {bat_p95:.1} ticks despite priority admission"
        );
        failed = true;
    } else {
        println!("interactive p95 {int_p95:.1} ticks <= batch p95 {bat_p95:.1} ticks — ok");
    }

    // The determinism contract is exercised under migration: the aware run
    // must actually migrate, or the byte-exact replay gate proves nothing.
    if aware.migrated == 0 {
        eprintln!(
            "REGRESSION: the heterogeneous run performed no migration — the replay gate is vacuous"
        );
        failed = true;
    } else {
        println!("live migrations in the heterogeneous run: {} — ok", aware.migrated);
    }

    // Fidelity-tier gates, on the burst pair. Capacity: shedding fidelity
    // must buy back at least TIERED_CAPACITY_FLOOR x of modeled serving
    // capacity over the all-Full run. Liveness: at least one live demotion
    // (pressure was real) and one live promotion (spare capacity bought
    // fidelity back) — a tier gate over a fleet that never retiered proves
    // nothing. Fidelity: the largest per-session final-score drift between
    // the two runs stays within the pinned tolerance.
    let capacity = if tiered.all_full.sessions_per_sec > 0.0 {
        tiered.tiered.sessions_per_sec / tiered.all_full.sessions_per_sec
    } else {
        0.0
    };
    if capacity < TIERED_CAPACITY_FLOOR {
        eprintln!(
            "REGRESSION: tiered capacity multiplier {capacity:.2}x fell below the \
             {TIERED_CAPACITY_FLOOR:.1}x floor ({:.2}/s tiered vs {:.2}/s all-Full)",
            tiered.tiered.sessions_per_sec, tiered.all_full.sessions_per_sec
        );
        failed = true;
    } else {
        println!(
            "tiered capacity: {:.2}/s vs all-Full {:.2}/s ({capacity:.2}x, floor \
             {TIERED_CAPACITY_FLOOR:.1}x) — ok",
            tiered.tiered.sessions_per_sec, tiered.all_full.sessions_per_sec
        );
    }
    if tiered.tiered.demoted == 0 || tiered.tiered.promoted == 0 {
        eprintln!(
            "REGRESSION: the tiered burst run retiered too little ({} demotions, {} promotions) \
             — the fidelity gates are vacuous",
            tiered.tiered.demoted, tiered.tiered.promoted
        );
        failed = true;
    } else {
        println!(
            "live retiering in the tiered run: {} demotions, {} promotions — ok",
            tiered.tiered.demoted, tiered.tiered.promoted
        );
    }
    if tiered.max_score_drift > SCORE_DRIFT_TOLERANCE {
        eprintln!(
            "REGRESSION: tiered final-score drift {:.2} exceeds the pinned tolerance {:.1}",
            tiered.max_score_drift, SCORE_DRIFT_TOLERANCE
        );
        failed = true;
    } else {
        println!(
            "tiered final-score drift {:.2} within tolerance {:.1} — ok",
            tiered.max_score_drift, SCORE_DRIFT_TOLERANCE
        );
    }

    // Wall-clock gates (--wallclock): the executor pool must
    // reproduce the headline fleet report byte for byte at any thread count,
    // and — given cores to run on — real sessions/sec must scale with worker
    // threads. Byte identity is checked unconditionally; the scaling floor
    // only applies on 4+-core machines, because no executor can conjure
    // parallel speedup out of a single core.
    if args.wallclock {
        let reference = fleet.to_json().to_pretty();
        let (mut wall_sps, mut walls) = (Vec::new(), Vec::new());
        for threads in [1usize, 4] {
            let config = FleetConfig {
                execution: ExecutionMode::WallClock { threads },
                ..make_config(args.shards)
            };
            let (outcome, stats) = match run_fleet_timed(&config) {
                Ok(pair) => pair,
                Err(err) => {
                    return die(&format!("wall-clock run ({threads} threads) failed: {err}"))
                }
            };
            let bytes = FleetReport::from_outcome(&outcome).to_json().to_pretty();
            if bytes != reference {
                eprintln!(
                    "REGRESSION: the wall-clock report at {threads} threads diverges from the \
                     headline fleet report — thread scheduling leaked into the deterministic \
                     output"
                );
                failed = true;
            }
            let sps = stats.sessions_per_wall_sec(outcome.completed);
            println!(
                "wall-clock {threads} thread(s): {sps:.1} sessions/s real ({:.2?} wall, {} \
                 ticks) — report byte-identical: {}",
                stats.wall,
                stats.ticks,
                if bytes == reference { "yes" } else { "NO" },
            );
            // How the race unfolded, thread by thread: tasks run, times
            // parked with nothing ready. Worker 0 is the driver itself.
            // Diagnostic only — none of it is in the report bytes above.
            println!("      worker      tasks      parks");
            for (i, (tasks, parks)) in
                stats.worker_tasks.iter().zip(&stats.worker_idle_spins).enumerate()
            {
                let worker = if i == 0 { "0 (driver)".to_string() } else { i.to_string() };
                println!("  {worker:>10} {tasks:>10} {parks:>10}");
            }
            wall_sps.push(sps);
            walls.push(stats.wall);
        }
        // The pool's own cost, shown and not gated: a 1-thread pool steps on
        // the driver alone, so its wall over a modeled drain of the same
        // config is what the executor adds.
        let modeled_wall = match run_fleet_timed(&make_config(args.shards)) {
            Ok((_, stats)) => stats.wall,
            Err(err) => return die(&format!("modeled reference run failed: {err}")),
        };
        let single_wall = walls[0];
        println!(
            "executor overhead: 1-thread wall {single_wall:.2?} / modeled wall \
             {modeled_wall:.2?} = {:.2}x (informational)",
            single_wall.as_secs_f64() / modeled_wall.as_secs_f64().max(1e-12),
        );
        let scaling = wall_sps[1] / wall_sps[0].max(1e-12);
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if cores >= 4 {
            if scaling < WALLCLOCK_SCALING_FLOOR {
                eprintln!(
                    "REGRESSION: wall-clock scaling {scaling:.2}x (1 -> 4 threads) fell below \
                     the {WALLCLOCK_SCALING_FLOOR:.1}x floor on a {cores}-core machine"
                );
                failed = true;
            } else {
                println!(
                    "wall-clock scaling 1 -> 4 threads: {scaling:.2}x (floor \
                     {WALLCLOCK_SCALING_FLOOR:.1}x) — ok"
                );
            }
        } else {
            println!(
                "wall-clock scaling 1 -> 4 threads: {scaling:.2}x measured, but only {cores} \
                 core(s) available — the {WALLCLOCK_SCALING_FLOOR:.1}x floor applies on 4+-core \
                 runners"
            );
        }
    }

    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn die(msg: &str) -> ExitCode {
    eprintln!("fleet_report: {msg}");
    ExitCode::FAILURE
}
