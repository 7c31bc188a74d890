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
//! drift escapes the pinned tolerance, if the E14 tracing overhead escapes
//! its 5% ceiling, if the E15 audio kernel falls below 3× over per-sample
//! libm synthesis, or if a gated experiment did not report its metric.

use std::path::PathBuf;
use std::process::ExitCode;

use cod_bench::experiments::audio_mix::KERNEL_SPEEDUP_FLOOR;
use cod_bench::experiments::observability::TRACING_OVERHEAD_CEILING_PCT;
use cod_bench::experiments::{self, ExperimentCtx, EXPERIMENTS};
use cod_bench::measure::MeasureConfig;
use cod_bench::report::BenchReport;
use crane_sim::SCORE_DRIFT_TOLERANCE;

/// Minimum acceptable COD-vs-single-PC speedup on the default scene.
const SPEEDUP_FLOOR: f64 = 3.0;

/// Which side of its bound a gated metric must stay on.
enum Bound {
    Floor,
    Ceiling,
}

/// The regression gates: `(experiment, metric, bound, direction, label)`.
/// `metric` names one of the experiment's derived metrics; `None` reads the
/// measured side of its paper comparison.
const GATES: [(&str, Option<&str>, f64, Bound, &str); 4] = [
    // The 8-PC COD must keep beating one desktop PC clearly.
    ("E8", None, SPEEDUP_FLOOR, Bound::Floor, "COD speedup (x)"),
    // The Coarse tier must stay score-compatible with the full rack.
    (
        "E12",
        Some("max_score_drift"),
        SCORE_DRIFT_TOLERANCE,
        Bound::Ceiling,
        "E12 Coarse-vs-Full score drift (points)",
    ),
    // Arming the deterministic trace sink must stay cheap enough to leave on.
    (
        "E14",
        Some("tracing_overhead_pct"),
        TRACING_OVERHEAD_CEILING_PCT,
        Bound::Ceiling,
        "E14 tracing overhead on the serving path (%)",
    ),
    // The render path must stay off per-sample libm: the ratio collapses to
    // ~1x if it comes back.
    (
        "E15",
        Some("kernel_speedup_over_pointwise"),
        KERNEL_SPEEDUP_FLOOR,
        Bound::Floor,
        "E15 audio kernel over pointwise synthesis (x)",
    ),
];

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
        "running the {} experiments ({} budget: {} samples/experiment)...",
        EXPERIMENTS.len(),
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
    for (id, metric, bound, direction, label) in GATES {
        let experiment = report.experiment(id);
        let value = match metric {
            Some(name) => {
                experiment.and_then(|e| e.derived.iter().find(|d| d.name == name)).map(|d| d.value)
            }
            None => experiment.and_then(|e| e.comparison.as_ref()).map(|c| c.measured),
        };
        let Some(value) = value else {
            let metric = metric.unwrap_or("paper comparison");
            eprintln!("REGRESSION: {label}: {id} reported no `{metric}`, gate not evaluated");
            failed = true;
            continue;
        };
        let (side, ok) = match direction {
            Bound::Floor => ("floor", value >= bound),
            Bound::Ceiling => ("ceiling", value <= bound),
        };
        if ok {
            println!("{label} {value:.2} ({side} {bound:.2}) — ok");
        } else {
            eprintln!("REGRESSION: {label} {value:.2} is past the {bound:.2} {side}");
            failed = true;
        }
    }

    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
