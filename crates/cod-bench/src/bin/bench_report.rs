//! Runs every experiment of `EXPERIMENTS.md` in one pass, prints the
//! paper-style comparison table and writes the machine-readable
//! `BENCH_cod.json` report.
//!
//! ```text
//! cargo run --release -p cod-bench --bin bench_report [-- --quick] [--out PATH] [--no-tables]
//! ```
//!
//! `--quick` selects the reduced measurement budget used by the CI smoke run;
//! `--out` overrides the report path (default `BENCH_cod.json` in the current
//! directory). Exits non-zero if the COD-vs-single-PC speedup regresses below
//! 3× — the repo's standing perf anchor — if the E12 Coarse-vs-Full score
//! drift escapes the pinned tolerance, if E11 batched stepping costs more
//! than scalar (below its 0.9× non-regression floor), if the E14 tracing
//! overhead escapes its 5% ceiling, or if the E15 audio kernel falls below
//! 3× over per-sample libm synthesis.

use std::path::PathBuf;
use std::process::ExitCode;

use cod_bench::experiments::{self, ExperimentCtx};
use cod_bench::measure::MeasureConfig;
use cod_bench::report::BenchReport;

/// Minimum acceptable COD-vs-single-PC speedup on the default scene.
const SPEEDUP_FLOOR: f64 = 3.0;

/// Minimum acceptable E11 batched-over-scalar serving speedup at 8
/// same-shape residents per shard. A non-regression floor: the WaveBank memo
/// was the whole batching win while a waveform column cost thousands of libm
/// calls; with the block kernel a column is cheap either way and E11 reads
/// ~1.0x, so the gate is only that batching may not cost more than scalar
/// (the margin absorbs runner noise).
const BATCH_SPEEDUP_FLOOR: f64 = 0.9;

const USAGE: &str = "usage: bench_report [--quick] [--out PATH] [--no-tables]";

struct Args {
    quick: bool,
    tables: bool,
    help: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { quick: false, tables: true, help: false, out: PathBuf::from("BENCH_cod.json") };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--no-tables" => args.tables = false,
            "--out" => {
                args.out =
                    PathBuf::from(argv.next().ok_or_else(|| "--out needs a path".to_owned())?);
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

    let measure = if args.quick { MeasureConfig::quick() } else { MeasureConfig::from_env() };
    let ctx = ExperimentCtx { measure, tables: args.tables };
    println!(
        "running experiments E1-E15 ({} budget: {} samples/experiment)...",
        if args.quick { "quick" } else { "full" },
        measure.samples
    );

    let results = experiments::all(&ctx);
    for result in &results {
        println!("{}", result.summary());
    }

    let report = BenchReport::new(args.quick, cod_bench::measure::wall_unix_ms(), results);
    println!("\n=== measured vs paper ===\n{}", report.comparison_table());

    if let Err(error) = report.write_file(&args.out) {
        eprintln!("failed to write {}: {error}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} experiments)", args.out.display(), report.experiments.len());

    // Every gate is evaluated and printed, so a run that regresses two of
    // them says so in one pass.
    let mut failed = false;

    // Regression gate: the 8-PC COD must keep beating one desktop PC clearly.
    let speedup = report
        .experiment("E8")
        .and_then(|e| e.comparison.as_ref())
        .map(|c| c.measured)
        .unwrap_or(0.0);
    if speedup < SPEEDUP_FLOOR {
        eprintln!("REGRESSION: COD speedup {speedup:.2}x fell below the {SPEEDUP_FLOOR:.1}x floor");
        failed = true;
    } else {
        println!("COD speedup {speedup:.2}x (floor {SPEEDUP_FLOOR:.1}x) — ok");
    }

    // Regression gate: the Coarse tier must stay score-compatible with the
    // full rack on the E12 spec sample.
    let drift = report
        .experiment("E12")
        .and_then(|e| e.derived.iter().find(|d| d.name == "max_score_drift"))
        .map(|d| d.value)
        .unwrap_or(f64::INFINITY);
    if drift > crane_sim::SCORE_DRIFT_TOLERANCE {
        eprintln!(
            "REGRESSION: E12 Coarse-vs-Full score drift {drift:.1} points escaped the \
             {:.1}-point tolerance",
            crane_sim::SCORE_DRIFT_TOLERANCE
        );
        failed = true;
    } else {
        println!(
            "E12 score drift {drift:.1} points (tolerance {:.1}) — ok",
            crane_sim::SCORE_DRIFT_TOLERANCE
        );
    }

    // Regression gate: batched lockstep stepping may not cost more than
    // scalar at the 8-resident cohort E11 sweeps (identity is asserted inside
    // the experiment; this gate is about the speed).
    let batch_speedup = report
        .experiment("E11")
        .and_then(|e| e.derived.iter().find(|d| d.name == "batched_speedup_8_residents"))
        .map(|d| d.value)
        .unwrap_or(0.0);
    if batch_speedup < BATCH_SPEEDUP_FLOOR {
        eprintln!(
            "REGRESSION: E11 batched stepping speedup {batch_speedup:.2}x at 8 residents fell \
             below the {BATCH_SPEEDUP_FLOOR:.1}x floor"
        );
        failed = true;
    } else {
        println!(
            "E11 batched stepping {batch_speedup:.2}x at 8 residents (floor \
             {BATCH_SPEEDUP_FLOOR:.1}x) — ok"
        );
    }

    // Regression gate: arming the deterministic trace sink must stay cheap
    // enough to leave on — E14 pins the ceiling.
    let overhead = report
        .experiment("E14")
        .and_then(|e| e.derived.iter().find(|d| d.name == "tracing_overhead_pct"))
        .map(|d| d.value)
        .unwrap_or(f64::INFINITY);
    let ceiling = cod_bench::experiments::observability::TRACING_OVERHEAD_CEILING_PCT;
    if overhead > ceiling {
        eprintln!(
            "REGRESSION: E14 tracing overhead {overhead:+.2}% escaped the {ceiling:.1}% ceiling \
             on the batched serving path"
        );
        failed = true;
    } else {
        println!("E14 tracing overhead {overhead:+.2}% (ceiling {ceiling:.1}%) — ok");
    }

    // Regression gate: the render path must stay off per-sample libm — E15's
    // pointwise-over-kernel ratio collapses to ~1x if it comes back.
    let kernel_speedup = report
        .experiment("E15")
        .and_then(|e| e.derived.iter().find(|d| d.name == "kernel_speedup_over_pointwise"))
        .map(|d| d.value)
        .unwrap_or(0.0);
    let floor = cod_bench::experiments::audio_mix::KERNEL_SPEEDUP_FLOOR;
    if kernel_speedup < floor {
        eprintln!(
            "REGRESSION: E15 audio kernel {kernel_speedup:.2}x over pointwise synthesis fell \
             below the {floor:.1}x floor"
        );
        failed = true;
    } else {
        println!("E15 audio kernel {kernel_speedup:.2}x over pointwise (floor {floor:.1}x) — ok");
    }

    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
