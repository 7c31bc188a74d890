//! The `cargo bench` entry point for the experiments of
//! `crates/cod-bench/EXPERIMENTS.md`.
//!
//! ```text
//! cargo bench                                    # every experiment, E1 first
//! cargo bench --bench experiments -- E8          # one experiment, by id
//! cargo bench --bench experiments -- routing     # ... or by name
//! ```
//!
//! Each experiment runs through the same library code as `bench_report`, so
//! both report identical statistics. An unknown id or name exits non-zero
//! and lists the valid ones. Set `COD_BENCH_QUICK=1` for a smoke run.

use std::process::ExitCode;

use cod_bench::experiments::{lookup, Experiment, ExperimentCtx, EXPERIMENTS};

fn main() -> ExitCode {
    let mut selected: Vec<&Experiment> = Vec::new();
    // Cargo passes `--bench` to every bench target; it selects nothing here.
    for key in std::env::args().skip(1).filter(|arg| arg != "--bench") {
        let Some(experiment) = lookup(&key) else {
            let valid: Vec<String> =
                EXPERIMENTS.iter().map(|(id, name, _)| format!("{id} ({name})")).collect();
            eprintln!("unknown experiment '{key}'; valid: {}", valid.join(", "));
            return ExitCode::FAILURE;
        };
        selected.push(experiment);
    }
    if selected.is_empty() {
        selected.extend(&EXPERIMENTS);
    }
    let ctx = ExperimentCtx::from_env();
    for (_, _, run) in selected {
        println!("{}", run(&ctx).summary());
    }
    ExitCode::SUCCESS
}
