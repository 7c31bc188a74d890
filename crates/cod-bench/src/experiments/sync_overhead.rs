//! Experiment E7 — the cost of the frame-synchronization server.
//!
//! The paper attributes the drop to 16 fps to "the overhead of the
//! synchronization among the three graphical computers". The reproduction
//! table quantifies the swap-lock barrier for 1–6 display channels through
//! `cod_cluster::synchronized_period`, the same period the rack reports.

use cod_cluster::synchronized_period;
use cod_net::Micros;

use crate::report::{Comparison, DerivedMetric, ExperimentResult};

/// The barrier this experiment models: a 1 ms LAN round trip plus 0.5 ms of
/// server processing. It is half the rack's `SWAP_LOCK_BARRIER` (3 ms), which
/// E1 and the session report use; each experiment keeps its own figure.
const BARRIER: Micros = Micros(1_500);

/// Per-channel render times for the paper's scene: every channel renders the
/// same 3 235-polygon view, with a small spread from load.
fn render_times(channels: usize) -> Vec<Micros> {
    (0..channels).map(|i| Micros::from_millis(58 + i as u64)).collect()
}

/// Share of the synchronized frame period spent on the barrier.
fn overhead_fraction(times: &[Micros]) -> f64 {
    BARRIER.as_secs_f64() / synchronized_period(times, BARRIER).as_secs_f64()
}

fn print_table() {
    println!("\n=== E7: swap-lock overhead vs number of display channels ===");
    println!("channels | free-run fps | synchronized fps | overhead %");
    for channels in 1..=6usize {
        let times = render_times(channels);
        let free = times.iter().copied().max().expect("at least one channel");
        let sync = synchronized_period(&times, BARRIER);
        println!(
            "{channels:>8} | {:>12.1} | {:>16.1} | {:>9.1}",
            1.0 / free.as_secs_f64(),
            1.0 / sync.as_secs_f64(),
            overhead_fraction(&times) * 100.0
        );
    }
    println!();
}

/// Runs E7 and returns its result.
pub fn run() -> ExperimentResult {
    print_table();
    let times = render_times(3);
    let sync_fps = 1.0 / synchronized_period(&times, BARRIER).as_secs_f64();
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
            overhead_fraction(&times) * 100.0,
        )],
        notes: "The paper's 16 fps already includes this overhead; the model isolates it.".into(),
    }
}
