//! End-to-end exam scenario tests: the scripted trainee makes progress
//! through the licensing course and the scoring pipeline reacts.

use crane_sim::{CraneSimulator, OperatorKind, SimulatorConfig};

fn config(operator: OperatorKind) -> SimulatorConfig {
    SimulatorConfig {
        operator,
        exam_frames: 0,
        display_width: 64,
        display_height: 48,
        ..SimulatorConfig::default()
    }
}

/// Frames within which the scripted trainee must finish the exam: 60
/// simulated seconds at the 16 fps executive rate.
const EXAM_FRAME_BOUND: usize = 960;

#[test]
fn exam_operator_completes_and_passes_the_exam() {
    let mut simulator = CraneSimulator::new(config(OperatorKind::Exam)).unwrap();
    let start = simulator.snapshot().crane.chassis_position;
    let mut phases: Vec<String> = Vec::new();
    let mut frames = 0;
    let snap = loop {
        simulator.run_frames(16).unwrap();
        frames += 16;
        let snap = simulator.snapshot();
        if phases.last() != Some(&snap.scenario.phase) {
            phases.push(snap.scenario.phase.clone());
        }
        if snap.scenario.complete || frames >= EXAM_FRAME_BOUND {
            break snap;
        }
    };
    assert_eq!(phases, ["Driving", "Lifting", "Traverse", "Return", "Complete"], "{frames} frames");
    assert!(snap.scenario.passed, "{:?}", snap.scenario);
    let travelled = snap.crane.chassis_position.distance(start);
    assert!(travelled > 40.0, "crane only travelled {travelled:.1} m");
    // The instructor's status window tracks the exam.
    assert!(snap.status_window.boom_raise_deg > 0.0);
    assert_eq!(snap.status_window.score, snap.scenario.score);
}

#[test]
fn idle_operator_never_loses_points_and_stays_near_the_start() {
    let mut simulator = CraneSimulator::new(config(OperatorKind::Idle)).unwrap();
    simulator.run_frames(300).unwrap();
    let snap = simulator.snapshot();
    assert_eq!(snap.scenario.score, 100.0);
    assert_eq!(snap.scenario.bar_hits, 0);
    assert_eq!(snap.scenario.phase, "Driving");
    // With nobody at the controls the crane may creep on the rolling terrain
    // (there is no parking brake in the model) but it never gets anywhere near
    // the testing ground a hundred metres away.
    let start = simulator.course().start_position;
    assert!(snap.crane.chassis_position.distance(start) < 60.0);
}

#[test]
fn reckless_operator_eventually_triggers_alarms_and_keeps_score_bounded() {
    let mut simulator = CraneSimulator::new(config(OperatorKind::Reckless)).unwrap();
    simulator.run_frames(600).unwrap();
    let snap = simulator.snapshot();
    assert!(snap.scenario.score >= 0.0 && snap.scenario.score <= 100.0);
    assert!(
        !snap.alarm_events.is_empty(),
        "a reckless operator should have tripped at least one alarm"
    );
    // The audio module keeps producing output throughout.
    assert!(snap.audio_rms > 0.0);
}
