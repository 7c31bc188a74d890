//! Runs every experiment of `EXPERIMENTS.md` in one pass, prints the
//! paper-style comparison table and writes the machine-readable
//! `BENCH_cod.json` report.
//!
//! ```text
//! cargo run --release -p cod-bench --bin bench_report [-- --out PATH]
//! ```
//!
//! `--out` overrides the report path (default `BENCH_cod.json` in the current
//! directory). Exits non-zero if any gate of `cod_bench::report::GATES`
//! fails: the COD-vs-single-PC speedup regresses below 3× — the repo's
//! standing perf anchor — the E12 Coarse-vs-Full score drift escapes the
//! pinned tolerance, the E14 tracing overhead escapes its 5% ceiling, the
//! E15 audio kernel falls below 3× over per-sample libm synthesis, or a
//! gated experiment did not report its metric.

use std::path::PathBuf;
use std::process::ExitCode;

use cod_bench::experiments::{self, EXPERIMENTS};
use cod_bench::report::BenchReport;

const USAGE: &str = "usage: bench_report [--out PATH]";

/// The report path, or `None` when `--help` asked for the usage line.
fn parse_args() -> Result<Option<PathBuf>, String> {
    let mut out = PathBuf::from("BENCH_cod.json");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(argv.next().ok_or_else(|| "--out needs a path".to_owned())?);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Some(out))
}

fn main() -> ExitCode {
    let out = match parse_args() {
        Ok(Some(out)) => out,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    println!("running the {} experiments...", EXPERIMENTS.len());
    let report = BenchReport::new(cod_bench::measure::wall_unix_ms(), experiments::all());
    println!("\n=== measured vs paper ===\n{}", report.comparison_table());

    if let Err(error) = report.write_file(&out) {
        eprintln!("failed to write {}: {error}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} experiments)", out.display(), report.experiments.len());

    // Every gate is evaluated and printed, so a run that regresses two of
    // them says so in one pass.
    let mut failed = false;
    for row in report.gate_rows() {
        if row.passed() {
            println!("{row}");
        } else {
            eprintln!("{row}");
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
