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
//! The headline fleet run is then served three more times: under the
//! executor pool at 1 thread (the driver alone, no thread spawned) and 4 (the
//! driver plus 3 workers) ([`cod_fleet::ExecutionMode::WallClock`]), and once
//! more modeled with a stopwatch. The two pool runs' reports must be
//! byte-identical to the headline report (thread scheduling must never leak
//! into the deterministic output), and — on runners with at least 4 cores —
//! real sessions/sec must scale by at least [`WALLCLOCK_SCALING_FLOOR`]x from
//! 1 to 4 threads. On smaller machines the scaling gate downgrades to an
//! informational line (no pool buys real parallelism without cores). An
//! ungated line prints the 1-thread run's wall time over the modeled run's:
//! what the pool itself costs.
//!
//! Exits non-zero if the homogeneous scaling drops below 2x, if the
//! speed-weighted heterogeneous run does not strictly beat the
//! residency-only one, if the aware run never migrates, if the pressure run
//! never preempts, if interactive-class p95 latency regresses above
//! batch-class p95 under pressure, if the tiered run fails its gates
//! (modeled capacity at least [`TIERED_CAPACITY_FLOOR`]x the all-Full run, at
//! least one live promotion and one live demotion, and the largest
//! per-session final-score drift within the pinned
//! [`SCORE_DRIFT_TOLERANCE`]), or if an executor gate fails. Every gate is
//! printed before it exits. The report carries no wall-clock stamp: two runs
//! with the same seed produce byte-identical files — preemption, migration
//! and retiering included.

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
/// threads. Deliberately conservative: shard batches are
/// coarse and the workload small, so perfect 4x is never on the table, and
/// small CI runners share cores with the rest of the job — 1.5x is the floor
/// real parallelism must clear, not a target.
const WALLCLOCK_SCALING_FLOOR: f64 = 1.5;

/// Minimum acceptable modeled-capacity multiplier of the tiered run over the
/// all-Full run on the same rack and seed.
const TIERED_CAPACITY_FLOOR: f64 = 2.0;

const USAGE: &str = "usage: fleet_report [--quick] [--seed N] [--shards N] [--out PATH]";

struct Args {
    quick: bool,
    seed: u64,
    shards: usize,
    out: String,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { quick: false, seed: 0xC0D, shards: 4, out: "FLEET_cod.json".into(), help: false };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
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
    // is not part of the heterogeneous pair (whose two sides must differ only in
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

    // The gates, one row each: whether it held and what it measured. A row
    // prints as "<text> — ok", or as "REGRESSION: <text>" and fails the run.
    let mut gates: Vec<(bool, String)> = Vec::new();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let scaling = ratio(fleet.sessions_per_sec, baseline.sessions_per_sec);
    gates.push((
        args.shards < 4 || scaling >= SCALING_FLOOR,
        format!(
            "sessions/sec scaling 1 -> {} shards: {scaling:.2}x (floor {SCALING_FLOOR:.1}x)",
            args.shards
        ),
    ));
    // On unequal machines, weighing placement by speed-scaled backlog must
    // strictly beat counting residents.
    gates.push((
        aware.sessions_per_sec > naive.sessions_per_sec,
        format!(
            "heterogeneous fleet: speed-weighted {:.2}/s vs residency-only {:.2}/s ({:.2}x)",
            aware.sessions_per_sec,
            naive.sessions_per_sec,
            ratio(aware.sessions_per_sec, naive.sessions_per_sec)
        ),
    ));
    // On the pressure run (halved slots so the fleet saturates), preemption
    // must actually fire — a gate over a mechanism the run never exercised
    // proves nothing — and interactive sessions must not wait longer than
    // batch sessions at the tail. Percentiles of an empty class read 0.0, so
    // only compare classes that completed sessions (an exotic --seed could
    // drain one class empty).
    gates.push((
        pressure.preempted > 0,
        format!("preemptions in the saturated priority run: {}", pressure.preempted),
    ));
    let int_p95 = pressure.class_latency_p95[Priority::Interactive.index()];
    let bat_p95 = pressure.class_latency_p95[Priority::Batch.index()];
    let int_n = pressure.class_completed[Priority::Interactive.index()];
    let bat_n = pressure.class_completed[Priority::Batch.index()];
    if int_n == 0 || bat_n == 0 {
        println!(
            "priority latency gate skipped: {int_n} interactive / {bat_n} batch sessions \
             completed — nothing to compare"
        );
    } else {
        let held = int_p95 <= bat_p95;
        let relation = if held { "<=" } else { ">" };
        gates.push((
            held,
            format!("interactive p95 {int_p95:.1} ticks {relation} batch p95 {bat_p95:.1} ticks"),
        ));
    }
    // The determinism contract is exercised under migration: the aware run
    // must actually migrate, or the byte-exact replay gate proves nothing.
    gates.push((
        aware.migrated > 0,
        format!("live migrations in the heterogeneous run: {}", aware.migrated),
    ));
    // Fidelity tiers, on the burst pair. Capacity: shedding fidelity must buy
    // back modeled serving capacity over the all-Full run. Liveness: at least
    // one live demotion (pressure was real) and one live promotion (spare
    // capacity bought fidelity back), or the tier gates are vacuous.
    // Fidelity: the largest per-session final-score drift stays within the
    // pinned tolerance.
    let capacity = ratio(tiered.tiered.sessions_per_sec, tiered.all_full.sessions_per_sec);
    gates.push((
        capacity >= TIERED_CAPACITY_FLOOR,
        format!(
            "tiered capacity: {:.2}/s vs all-Full {:.2}/s ({capacity:.2}x, floor \
             {TIERED_CAPACITY_FLOOR:.1}x)",
            tiered.tiered.sessions_per_sec, tiered.all_full.sessions_per_sec
        ),
    ));
    gates.push((
        tiered.tiered.demoted > 0 && tiered.tiered.promoted > 0,
        format!(
            "live retiering in the tiered run: {} demotions, {} promotions",
            tiered.tiered.demoted, tiered.tiered.promoted
        ),
    ));
    gates.push((
        tiered.max_score_drift <= SCORE_DRIFT_TOLERANCE,
        format!(
            "tiered final-score drift {:.2} (tolerance {SCORE_DRIFT_TOLERANCE:.1})",
            tiered.max_score_drift
        ),
    ));

    // The executor pool serves the headline fleet at 1 thread (the driver
    // alone) and 4 (the driver plus 3 workers). Thread scheduling must never
    // leak into the deterministic output, so both reports must equal the
    // headline report byte for byte.
    let reference = fleet.to_json().to_pretty();
    let (mut wall_sps, mut walls) = (Vec::new(), Vec::new());
    println!();
    for threads in [1usize, 4] {
        let config = FleetConfig {
            execution: ExecutionMode::WallClock { threads },
            ..make_config(args.shards)
        };
        let (outcome, stats) = match run_fleet_timed(&config) {
            Ok(pair) => pair,
            Err(err) => return die(&format!("wall-clock run ({threads} threads) failed: {err}")),
        };
        let same = FleetReport::from_outcome(&outcome).to_json().to_pretty() == reference;
        let sps = stats.sessions_per_wall_sec(outcome.completed);
        println!(
            "wall-clock {threads} thread(s): {sps:.1} sessions/s real ({:.2?} wall, {} ticks)",
            stats.wall, stats.ticks,
        );
        // How the race unfolded, thread by thread: tasks run, times parked
        // with nothing ready. Worker 0 is the driver itself. Diagnostic
        // only — none of it is in the report bytes.
        println!("      worker      tasks      parks");
        for (i, (tasks, parks)) in
            stats.worker_tasks.iter().zip(&stats.worker_idle_spins).enumerate()
        {
            let worker = if i == 0 { "0 (driver)".to_string() } else { i.to_string() };
            println!("  {worker:>10} {tasks:>10} {parks:>10}");
        }
        gates.push((
            same,
            format!(
                "wall-clock report at {threads} thread(s) byte-identical to the headline: {}",
                if same { "yes" } else { "NO" }
            ),
        ));
        wall_sps.push(sps);
        walls.push(stats.wall);
    }
    // The pool's own cost, shown and not gated: a 1-thread pool steps on the
    // driver alone, so its wall over a modeled drain of the same config is
    // what the executor adds.
    let modeled_wall = match run_fleet_timed(&make_config(args.shards)) {
        Ok((_, stats)) => stats.wall,
        Err(err) => return die(&format!("modeled reference run failed: {err}")),
    };
    println!(
        "executor overhead: 1-thread wall {:.2?} / modeled wall {modeled_wall:.2?} = {:.2}x \
         (informational)",
        walls[0],
        ratio(walls[0].as_secs_f64(), modeled_wall.as_secs_f64()),
    );
    // No executor conjures parallel speedup out of fewer than 4 cores, so the
    // wall-scaling floor only applies on 4+-core machines.
    let wall_scaling = ratio(wall_sps[1], wall_sps[0]);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let scaling_line = format!(
        "wall-clock scaling 1 -> 4 threads: {wall_scaling:.2}x (floor \
         {WALLCLOCK_SCALING_FLOOR:.1}x on 4+-core runners)"
    );
    if cores >= 4 {
        gates.push((wall_scaling >= WALLCLOCK_SCALING_FLOOR, scaling_line));
    } else {
        println!("{scaling_line}; only {cores} core(s) here, so not gated");
    }

    // Every gate is evaluated and printed, so a run that regresses two of
    // them says so in one pass.
    let mut failed = false;
    for (held, text) in gates {
        if held {
            println!("{text} — ok");
        } else {
            eprintln!("REGRESSION: {text}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn die(msg: &str) -> ExitCode {
    eprintln!("fleet_report: {msg}");
    ExitCode::FAILURE
}
