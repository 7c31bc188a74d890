//! Experiment E15 (`audio_mix`) — one audio frame through the block-oscillator
//! kernel vs per-sample libm synthesis; see `crates/cod-bench/EXPERIMENTS.md`.
//! Thin wrapper over `cod_bench::experiments::audio_mix` so `cargo bench` and
//! `bench_report` report identical statistics. Set `COD_BENCH_QUICK=1` for a
//! smoke run.

use cod_bench::experiments::{audio_mix, ExperimentCtx};

fn main() {
    let result = audio_mix::run(&ExperimentCtx::from_env());
    println!("{}", result.summary());
}
