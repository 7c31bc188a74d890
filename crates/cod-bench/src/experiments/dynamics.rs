//! Experiment E2 — the inertia oscillation of the lift hook.
//!
//! The reproduction table shows the swing-decay series after the boom stops
//! for several cargo masses.

use crane_physics::CablePendulum;
use sim_math::Vec3;

use crate::report::ExperimentResult;

const DT: f64 = 1.0 / 60.0;

fn print_table() {
    println!("\n=== E2: inertia oscillation of the lift hook (decay after the boom stops) ===");
    println!("cargo (t) | peak swing (m) | swing after 5 s | swing after 15 s | at rest");
    for cargo_tonnes in [0.5f64, 2.0, 5.0, 20.0] {
        let mut suspension = Vec3::new(0.0, 15.0, 0.0);
        let mut pendulum = CablePendulum::new(suspension, 6.0, 120.0);
        pendulum.attach_cargo(cargo_tonnes * 1_000.0);
        // Slew the boom tip sideways for 1.5 s, then stop.
        let mut peak: f64 = 0.0;
        for i in 0..90 {
            suspension = Vec3::new(0.06 * i as f64, 15.0, 0.0);
            pendulum.step(suspension, 6.0, DT);
            peak = peak.max(pendulum.swing_amplitude(suspension));
        }
        let mut after_5 = 0.0;
        for i in 0..(15 * 60) {
            pendulum.step(suspension, 6.0, DT);
            if i == 5 * 60 {
                after_5 = pendulum.swing_amplitude(suspension);
            }
        }
        let after_15 = pendulum.swing_amplitude(suspension);
        println!(
            "{cargo_tonnes:>9.1} | {peak:>14.2} | {after_5:>15.3} | {after_15:>16.3} | {}",
            pendulum.is_at_rest(suspension)
        );
    }
    println!();
}

/// Runs E2 and returns its result.
pub fn run() -> ExperimentResult {
    print_table();
    ExperimentResult {
        id: "E2".into(),
        name: "dynamics".into(),
        comparison: None,
        derived: vec![],
        notes: "The paper describes the hook's inertia oscillation qualitatively; the decay \
                table is the reproduction."
            .into(),
    }
}
