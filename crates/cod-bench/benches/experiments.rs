//! The `cargo bench` entry point for the experiments of
//! `crates/cod-bench/EXPERIMENTS.md`.
//!
//! ```text
//! cargo bench                                        # every experiment, E1 first
//! cargo bench --bench experiments -- E8              # one experiment, by id
//! cargo bench --bench experiments -- audio_mix       # ... or by name
//! ```
//!
//! Each experiment runs through the same library code as the `gates` runner and
//! prints its reproduction table; the measured-vs-paper table of the selected
//! experiments follows. An unknown id or name exits non-zero and lists the
//! valid ones.

use std::process::ExitCode;

use cod_bench::experiments::{lookup, Experiment, EXPERIMENTS};
use cod_bench::report::BenchReport;

fn main() -> ExitCode {
    let mut selected: Vec<&Experiment> = Vec::new();
    // Cargo passes `--bench` to every bench target; it selects nothing here.
    #[allow(clippy::disallowed_methods, reason = "a binary reads its arguments at its entry point")]
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
    let results = selected.iter().map(|(_, _, run)| run()).collect();
    print!("{}", BenchReport::new(cod_bench::measure::wall_unix_ms(), results).comparison_table());
    ExitCode::SUCCESS
}
