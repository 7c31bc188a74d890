//! The licensing exam of Figure 9: a scripted trainee drives the crane to the
//! testing ground, lifts the cargo and carries it along the barred trajectory.
//! Exits non-zero unless the exam completes with a pass.
//!
//! ```text
//! cargo run --release --example licensing_exam
//! ```

use std::process::ExitCode;

use crane_sim::{CraneSimulator, OperatorKind, SimulatorConfig};

fn main() -> ExitCode {
    let config = SimulatorConfig {
        operator: OperatorKind::Exam,
        exam_frames: 0, // driven manually below
        cargo_mass_kg: 1_200.0,
        ..SimulatorConfig::default()
    };
    let mut simulator = CraneSimulator::new(config).expect("simulator builds");
    let course = simulator.course();
    println!(
        "licensing exam: {:.0} m driving leg, {} bars on the cargo trajectory",
        course.driving_distance(),
        course.bars.len()
    );

    let mut last_phase = String::new();
    // Up to five simulated minutes at the 16 fps executive rate.
    for chunk in 0..60 {
        simulator.run_frames(80).expect("frames run");
        let snap = simulator.snapshot();
        if snap.scenario.phase != last_phase {
            println!(
                "t = {:6.1} s  phase -> {:<9} score {:3.0}  crane at ({:6.1}, {:6.1})",
                snap.scenario.elapsed,
                snap.scenario.phase,
                snap.scenario.score,
                snap.crane.chassis_position.x,
                snap.crane.chassis_position.z,
            );
            last_phase = snap.scenario.phase.clone();
        }
        if snap.scenario.complete {
            break;
        }
        if chunk == 59 {
            println!("time budget exhausted before completion (phase {})", snap.scenario.phase);
        }
    }

    let report = simulator.report();
    println!("\n--- exam result ----------------------------------------------");
    println!("final phase : {}", report.phase);
    println!("score       : {:.0}", report.score);
    println!("bar hits    : {}", report.bar_hits);
    println!("passed      : {}", if report.passed { "YES" } else { "no" });
    println!("hook swing  : {:.2} m (max)", report.max_hook_swing);
    println!("collisions  : {}", report.collisions);
    if report.passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
