//! Experiment E7 — the cost of the frame-synchronization server.
//!
//! The paper attributes the drop to 16 fps to "the overhead of the
//! synchronization among the three graphical computers". The reproduction
//! table quantifies the swap-lock barrier for 1–6 display channels through
//! the analytic model.

use cod_cluster::SyncBarrierModel;
use cod_net::Micros;

use crate::report::{Comparison, DerivedMetric, ExperimentResult};

fn barrier_model() -> SyncBarrierModel {
    SyncBarrierModel { round_trip: Micros::from_millis(1), server_processing: Micros(500) }
}

/// Per-channel render times for the paper's scene: every channel renders the
/// same 3 235-polygon view, with a small spread from load.
fn render_times(channels: usize) -> Vec<Micros> {
    (0..channels).map(|i| Micros::from_millis(58 + i as u64)).collect()
}

fn print_table() {
    println!("\n=== E7: swap-lock overhead vs number of display channels ===");
    println!("channels | free-run fps | synchronized fps | overhead %");
    let model = barrier_model();
    for channels in 1..=6usize {
        let times = render_times(channels);
        let free = SyncBarrierModel::unsynchronized_period(&times);
        let sync = model.synchronized_period(&times);
        println!(
            "{channels:>8} | {:>12.1} | {:>16.1} | {:>9.1}",
            1.0 / free.as_secs_f64(),
            1.0 / sync.as_secs_f64(),
            model.overhead_fraction(&times) * 100.0
        );
    }
    println!();
}

/// Runs E7 and returns its result.
pub fn run() -> ExperimentResult {
    print_table();
    let model = barrier_model();
    let times = render_times(3);
    let sync_fps = 1.0 / model.synchronized_period(&times).as_secs_f64();
    ExperimentResult {
        id: "E7".into(),
        name: "sync_overhead".into(),
        comparison: Some(Comparison {
            quantity: "synchronized fps with 3 channels at ~60 ms render (barrier model)".into(),
            unit: "fps".into(),
            measured: sync_fps,
            paper: 16.0,
        }),
        derived: vec![DerivedMetric::new(
            "swap_lock_overhead_3_channels",
            "%",
            model.overhead_fraction(&times) * 100.0,
        )],
        notes: "The paper's 16 fps already includes this overhead; the model isolates it.".into(),
    }
}
