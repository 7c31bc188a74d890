//! Runs the traced fleet serving benchmark and writes the deterministic
//! observability report `OBS_cod.json` plus a Perfetto-loadable wall-clock
//! trace `TRACE_cod.json`.
//!
//! ```text
//! cargo run --release -p cod-fleet --bin trace_report [-- --quick] [--seed N] \
//!     [--out PATH] [--trace-out PATH]
//! ```
//!
//! Gates (exit non-zero on any failure):
//!
//! 1. **Byte identity per seed** — two same-seed runs under
//!    [`ExecutionMode::Modeled`] must drain byte-identical `OBS_cod.json`
//!    bytes.
//! 2. **Byte identity across execution modes** — the same seed under
//!    `WallClock { threads: 1 }` and `WallClock { threads: 4 }` must
//!    reproduce the modeled run's `OBS_cod.json` byte for byte: thread
//!    scheduling must never leak into the deterministic sink.
//! 3. **Fingerprint separation** — arming tracing must not change a single
//!    byte of `FLEET_cod.json`: the report of a traced run must equal the
//!    report of an untraced run of the same configuration.
//! 4. **Perfetto export** — the 4-thread wall-clock run must produce a
//!    non-empty Chrome trace-event file with at least one per-worker lane
//!    and at least one `step` span on a worker lane (every shard is stepped
//!    by some worker every tick, so a run that recorded none means the hook
//!    is broken, not that the race was unlucky).

use std::process::ExitCode;

use cod_fleet::{ExecutionMode, FleetConfig, FleetReport, ObsConfig};

const USAGE: &str = "usage: trace_report [--quick] [--seed N] [--out PATH] [--trace-out PATH]";

struct Args {
    quick: bool,
    seed: u64,
    out: String,
    trace_out: String,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        seed: 0xC0D,
        out: "OBS_cod.json".into(),
        trace_out: "TRACE_cod.json".into(),
        help: false,
    };
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
            "--out" => {
                args.out = argv.next().ok_or_else(|| format!("--out needs a path\n{USAGE}"))?;
            }
            "--trace-out" => {
                args.trace_out =
                    argv.next().ok_or_else(|| format!("--trace-out needs a path\n{USAGE}"))?;
            }
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs `config` with the deterministic sink armed and returns the drained
/// `OBS_cod.json` bytes.
fn obs_bytes(config: &FleetConfig, label: &str) -> Result<String, String> {
    let mut traced = config.clone();
    traced.obs = ObsConfig::Deterministic;
    let (_, _, artifacts) =
        cod_fleet::run_fleet_traced(&traced).map_err(|err| format!("{label} run failed: {err}"))?;
    let det = artifacts.det.ok_or_else(|| format!("{label} run armed no deterministic sink"))?;
    Ok(det.to_report_json(traced.workload.seed).to_pretty())
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

    // The headline configuration: the heterogeneous serving stack with
    // priorities, preemption, migration and tiering all engaged, so the
    // deterministic sink sees every event kind the fleet can emit.
    let mut base = FleetConfig::heterogeneous_quick(args.seed);
    base.tiering = true;
    base.execution = ExecutionMode::Modeled;
    if !args.quick {
        base.workload = cod_fleet::WorkloadConfig::full(args.seed);
    }

    println!(
        "tracing {} sessions (seed {:#x}) over {} shards, {} mode",
        base.workload.sessions,
        args.seed,
        base.shards,
        if args.quick { "quick" } else { "full" },
    );

    let mut failed = false;

    // Gate 1: byte identity per seed under the modeled mode.
    let reference = match obs_bytes(&base, "modeled") {
        Ok(bytes) => bytes,
        Err(msg) => return die(&msg),
    };
    match obs_bytes(&base, "modeled rerun") {
        Ok(bytes) if bytes == reference => {
            println!("OBS_cod.json byte-identical across two same-seed runs — ok");
        }
        Ok(_) => {
            eprintln!("REGRESSION: two same-seed modeled runs drained different OBS_cod.json");
            failed = true;
        }
        Err(msg) => return die(&msg),
    }

    // Gate 2: byte identity across execution modes — the deterministic sink
    // must be blind to who stepped the shards.
    for mode in [ExecutionMode::WallClock { threads: 1 }, ExecutionMode::WallClock { threads: 4 }] {
        let mut config = base.clone();
        config.execution = mode;
        match obs_bytes(&config, &format!("{mode:?}")) {
            Ok(bytes) if bytes == reference => {
                println!("OBS_cod.json byte-identical under {mode:?} — ok");
            }
            Ok(_) => {
                eprintln!(
                    "REGRESSION: OBS_cod.json under {mode:?} diverges from the modeled run — \
                     thread scheduling leaked into the deterministic sink"
                );
                failed = true;
            }
            Err(msg) => return die(&msg),
        }
    }

    // Gate 3: fingerprint separation — arming tracing must not perturb
    // FLEET_cod.json by a single byte.
    {
        let untraced = match cod_fleet::run_fleet(&base) {
            Ok(outcome) => FleetReport::from_outcome(&outcome).to_json().to_pretty(),
            Err(err) => return die(&format!("untraced run failed: {err}")),
        };
        let mut traced = base.clone();
        traced.obs = ObsConfig::Full;
        let fleet_bytes = match cod_fleet::run_fleet_traced(&traced) {
            Ok((outcome, _, _)) => FleetReport::from_outcome(&outcome).to_json().to_pretty(),
            Err(err) => return die(&format!("traced run failed: {err}")),
        };
        if fleet_bytes == untraced {
            println!("FLEET_cod.json untouched by arming tracing — ok");
        } else {
            eprintln!(
                "REGRESSION: arming tracing changed FLEET_cod.json — observability leaked into \
                 the fingerprinted report"
            );
            failed = true;
        }
    }

    // Gate 4: the Perfetto export of a 4-thread wall-clock run. Every shard
    // is stepped by some worker every tick, so a `step` span on a worker
    // lane is guaranteed, not racy; lane 0's `step-phase` is the driver's.
    let mut wallclock = base.clone();
    wallclock.execution = ExecutionMode::WallClock { threads: 4 };
    wallclock.obs = ObsConfig::Full;
    let (trace, det) = match cod_fleet::run_fleet_traced(&wallclock) {
        Ok((_, _, artifacts)) => (
            artifacts.wall.expect("obs: Full arms the wall sink"),
            artifacts.det.expect("obs: Full arms the deterministic sink"),
        ),
        Err(err) => return die(&format!("wall-clock traced run failed: {err}")),
    };
    let chrome = trace.to_chrome_json();
    let events = chrome.get("traceEvents").and_then(|e| e.as_arr()).map_or(0, |a| a.len());
    let step_spans: usize = (1..trace.lanes()).map(|lane| trace.count_of(lane, "step")).sum();
    if events == 0 {
        eprintln!("REGRESSION: the wall-clock trace is empty");
        failed = true;
    } else if trace.lanes() < 2 {
        eprintln!("REGRESSION: the wall-clock trace carries no per-worker lane");
        failed = true;
    } else if step_spans == 0 {
        eprintln!(
            "REGRESSION: a 4-thread wall-clock run recorded no step span on any worker lane — \
             the executor hooks are broken"
        );
        failed = true;
    } else {
        println!(
            "perfetto trace: {events} events across {} lanes, {step_spans} worker step spans — ok",
            trace.lanes(),
        );
    }

    // Write the artifacts: the modeled-mode OBS report (the reference bytes
    // of gates 1-2) and the wall-clock run's Chrome trace.
    if let Err(err) = std::fs::write(&args.out, &reference) {
        return die(&format!("cannot write {}: {err}", args.out));
    }
    println!("wrote {}", args.out);
    if let Err(err) = std::fs::write(&args.trace_out, chrome.to_pretty()) {
        return die(&format!("cannot write {}: {err}", args.trace_out));
    }
    println!("wrote {}", args.trace_out);
    println!(
        "deterministic sink: {} frames stepped, {} cohorts, fingerprint {:#018x}",
        det.counter("frames_stepped"),
        det.counter("cohorts_stepped"),
        det.fingerprint(),
    );

    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn die(msg: &str) -> ExitCode {
    eprintln!("trace_report: {msg}");
    ExitCode::FAILURE
}
