//! Experiment E2 — per-frame cost of the dynamics module and the inertia
//! oscillation of the lift hook.
//!
//! The reproduction table shows the swing-decay series after the boom stops
//! for several cargo masses; the timed routine is one full dynamics frame
//! (vehicle, crane rig and cable pendulum at 60 Hz).

use crane_physics::terrain::FlatTerrain;
use crane_physics::{
    CablePendulum, CraneControls, CraneRig, CraneVehicle, DriveControls, VehicleParams,
};
use sim_math::Vec3;

use super::ExperimentCtx;
use crate::measure::measure;
use crate::report::{DerivedMetric, ExperimentResult};

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
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    if ctx.tables {
        print_table();
    }

    let terrain = FlatTerrain::default();
    let mut vehicle = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
    let mut rig = CraneRig::default();
    let mut pendulum = CablePendulum::new(Vec3::new(0.0, 15.0, 0.0), 6.0, 120.0);
    pendulum.attach_cargo(5_000.0);
    let m = measure(&ctx.measure, || {
        vehicle.step(
            DriveControls { throttle: 0.7, steering: 0.2, ..Default::default() },
            &terrain,
            DT,
        );
        rig.step(CraneControls { slew: 0.4, luff: 0.2, ..Default::default() }, DT);
        let tip = rig.boom_tip_world(&vehicle.chassis_transform());
        std::hint::black_box(pendulum.step(tip, 6.0, DT));
    });

    // How many whole dynamics frames fit into a 60 Hz visual frame budget.
    let frames_per_budget = (1e9 / 60.0) / m.stats.median.max(1.0);
    ExperimentResult {
        id: "E2".into(),
        name: "dynamics".into(),
        metric: "one 60 Hz dynamics frame (vehicle + rig + 5 t cable pendulum)".into(),
        timing: m.stats,
        iters_per_sample: m.iters_per_sample,
        comparison: None,
        derived: vec![
            DerivedMetric::new("dynamics_frames_per_60hz_budget", "frames", frames_per_budget),
            DerivedMetric::new("dynamics_frame_median_us", "us", m.stats.median / 1_000.0),
        ],
        notes: "The paper gives no per-frame number for the dynamics PC; the derived budget \
                ratio shows how far the module is from saturating one 60 Hz frame here."
            .into(),
    }
}
