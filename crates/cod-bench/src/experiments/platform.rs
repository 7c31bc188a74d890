//! Experiment E4 — the motion-platform controller.
//!
//! The reproduction table shows how pose interpolation keeps the platform
//! smooth across visual frame rates (16–60 Hz).

use motion_platform::{MotionController, MotionCue, PlatformPose};
use sim_math::Vec3;

use crate::report::ExperimentResult;

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
pub fn run() -> ExperimentResult {
    print_table();
    ExperimentResult {
        id: "E4".into(),
        name: "platform".into(),
        comparison: None,
        derived: vec![],
        notes: "The paper claims the platform moves smoothly at the 16 fps visual rate; the \
                interpolation table is the reproduction."
            .into(),
    }
}
