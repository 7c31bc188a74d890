//! Experiment E13 (`wallclock`) — modeled vs wall-clock sessions/sec under
//! the executor pool; see `crates/cod-bench/EXPERIMENTS.md`. Thin
//! wrapper over `cod_bench::experiments::wallclock` so `cargo bench` and
//! `bench_report` report identical statistics. Set `COD_BENCH_QUICK=1` for a
//! smoke run.

use cod_bench::experiments::{wallclock, ExperimentCtx};

fn main() {
    let result = wallclock::run(&ExperimentCtx::from_env());
    println!("{}", result.summary());
}
