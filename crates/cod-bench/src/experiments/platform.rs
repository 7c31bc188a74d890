//! Experiment E4 — the motion-platform controller.
//!
//! The reproduction table shows how pose interpolation keeps the platform
//! smooth across visual frame rates (16–60 Hz); the timed routine is one
//! visual frame of the full controller (cue push + washout + interpolation +
//! servo steps), with the Stewart-platform inverse kinematics reported as a
//! derived metric.

use motion_platform::{
    inverse_kinematics, MotionController, MotionCue, PlatformPose, StewartGeometry,
};
use sim_math::Vec3;

use super::ExperimentCtx;
use crate::measure::measure;
use crate::report::{DerivedMetric, ExperimentResult};

fn print_table() {
    println!("\n=== E4: pose interpolation synchronized with the visual frame rate ===");
    println!("visual fps | servo rate | max pose step per servo tick (m + rad)");
    for fps in [16.0f64, 30.0, 60.0] {
        let mut controller = MotionController::new(fps, 7);
        let servo_hz = 192.0;
        let mut previous = PlatformPose::neutral();
        let mut max_step: f64 = 0.0;
        for frame in 0..64 {
            controller.push_cue(MotionCue {
                acceleration: Vec3::new(0.0, 0.0, if frame % 16 < 8 { 2.5 } else { -2.5 }),
                engine_intensity: 0.6,
                ..Default::default()
            });
            for _ in 0..(servo_hz / fps) as usize {
                let (pose, _) = controller.servo_step(1.0 / servo_hz);
                max_step = max_step.max(pose.distance(&previous));
                previous = pose;
            }
        }
        println!("{fps:>10.0} | {servo_hz:>10.0} | {max_step:>10.4}");
    }
    println!();
}

/// Runs E4 and returns its result.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    if ctx.tables {
        print_table();
    }

    let mut controller = MotionController::new(16.0, 3);
    let m = measure(&ctx.measure, || {
        controller.push_cue(MotionCue {
            acceleration: Vec3::new(0.5, 0.0, 1.5),
            pitch: 0.02,
            roll: -0.01,
            yaw_rate: 0.1,
            engine_intensity: 0.7,
        });
        for _ in 0..12 {
            std::hint::black_box(controller.servo_step(1.0 / (16.0 * 12.0)));
        }
    });

    let geometry = StewartGeometry::training_platform();
    let pose = PlatformPose::from_euler(Vec3::new(0.05, 0.02, -0.04), 0.02, 0.06, -0.03);
    let ik = measure(&ctx.secondary_measure(), || {
        std::hint::black_box(inverse_kinematics(&geometry, &pose));
    });

    ExperimentResult {
        id: "E4".into(),
        name: "platform".into(),
        metric: "one 16 Hz visual frame of the motion controller (12 servo steps)".into(),
        timing: m.stats,
        iters_per_sample: m.iters_per_sample,
        comparison: None,
        derived: vec![
            DerivedMetric::new("inverse_kinematics_median_ns", "ns", ik.stats.median),
            DerivedMetric::new("controller_frame_median_us", "us", m.stats.median / 1_000.0),
        ],
        notes: "Interpolation quality (the table) is the paper's claim; timing shows the \
                controller is far below the 6 ms module budget used for placement."
            .into(),
    }
}
