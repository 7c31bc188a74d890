//! Runs every standing gate of the workspace at its one size and prints one
//! table of gate rows.
//!
//! ```text
//! cargo run --release -p cod-testkit --bin gates
//! ```
//!
//! Each source of `cod_testkit::gates::SOURCES` writes its `*_cod.json`
//! artifacts to the working directory. Every row is printed before the
//! process exits, non-zero if any row failed.

use std::process::ExitCode;

use cod_fleet::WallStopwatch;
use cod_testkit::gates::{GateRow, SOURCES};

fn usage() -> String {
    let mut text = String::from(
        "usage: gates\n\nRuns every standing gate at its one size, writes the artifacts to the \
         working directory, prints one table of gate rows and exits non-zero if any row \
         failed.\n\nsources:\n",
    );
    for source in &SOURCES {
        text.push_str(&format!("  {:<9} {}\n", source.name, source.artifacts));
    }
    text
}

fn main() -> ExitCode {
    #[allow(clippy::disallowed_methods, reason = "a binary reads its arguments at its entry point")]
    if let Some(arg) = std::env::args().nth(1) {
        if arg == "--help" || arg == "-h" {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        eprint!("unknown argument '{arg}'\n{}", usage());
        return ExitCode::FAILURE;
    }

    let mut rows = Vec::new();
    let mut walls = Vec::new();
    for source in &SOURCES {
        println!("\n=== {} ===", source.name);
        let stopwatch = WallStopwatch::start();
        match (source.run)() {
            Ok(source_rows) => rows.extend(source_rows.into_iter().map(|row| (source.name, row))),
            Err(why) => rows.push((source.name, GateRow::broken(why))),
        }
        walls.push(format!("{} {:.2?}", source.name, stopwatch.read()));
    }

    println!("\n=== gates ({}) ===", walls.join(", "));
    for (source, row) in &rows {
        println!("{source:<9} {row}");
    }
    let failed = rows.iter().filter(|(_, row)| !row.passed()).count();
    if failed > 0 {
        eprintln!("{failed} of {} gate rows failed", rows.len());
        return ExitCode::FAILURE;
    }
    println!("all {} gate rows passed", rows.len());
    ExitCode::SUCCESS
}
