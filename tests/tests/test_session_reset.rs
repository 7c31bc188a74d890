//! Session recycling must be invisible: a simulator reset with
//! [`CraneSimulator::reset_for_session`] has to replay a freshly built one
//! bit for bit — telemetry trace, LAN and fault counters, frame-sync
//! barriers, scores, everything the per-frame digest captures.

use cod_net::{FaultPlan, Micros};
use crane_sim::{CraneSimulator, FrameDigest, OperatorKind, SimulatorConfig, TelemetryTrace};

fn config(operator: OperatorKind, seed: u64) -> SimulatorConfig {
    SimulatorConfig {
        operator,
        display_width: 64,
        display_height: 48,
        exam_frames: 0,
        seed,
        ..SimulatorConfig::default()
    }
}

/// Runs `frames` frames, recording the bit-exact per-frame digest trace.
fn trace_frames(sim: &mut CraneSimulator, frames: usize) -> TelemetryTrace {
    let mut trace = TelemetryTrace::new();
    for _ in 0..frames {
        let record = sim.step_frame().expect("frame runs");
        let snapshot = sim.snapshot();
        let lan = sim.cluster().lan_stats();
        trace.record(FrameDigest::capture(record.frame, record.now, &snapshot, &lan));
    }
    trace
}

#[test]
fn reset_replays_a_fresh_build_bit_for_bit() {
    let seed = 0xA11CE;
    // Reference: a fresh simulator running 40 frames.
    let mut fresh = CraneSimulator::new(config(OperatorKind::Exam, seed)).unwrap();
    let fresh_trace = trace_frames(&mut fresh, 40);

    // Candidate: same build, a session of different length runs first, then
    // the rack is recycled for the reference seed.
    let mut recycled = CraneSimulator::new(config(OperatorKind::Exam, 0xDEAD)).unwrap();
    trace_frames(&mut recycled, 73);
    recycled.reset_for_session(seed).unwrap();
    let recycled_trace = trace_frames(&mut recycled, 40);

    assert_eq!(
        fresh_trace.first_divergence(&recycled_trace),
        None,
        "recycled session diverged from the fresh build"
    );
    assert_eq!(fresh_trace.fingerprint(), recycled_trace.fingerprint());
    assert_eq!(fresh.report(), recycled.report());
}

#[test]
fn a_rack_restamped_to_another_speed_replays_a_rack_built_at_it() {
    let seed = 0x5EED;
    let slow = SimulatorConfig { cpu_speed: 0.5, ..config(OperatorKind::Exam, seed) };
    let mut fresh = CraneSimulator::new(slow).unwrap();

    // A rack built on a double-speed machine serves a session there, is
    // pooled, and is handed to a half-speed machine.
    let fast = SimulatorConfig { cpu_speed: 2.0, ..config(OperatorKind::Exam, 0xFA57) };
    let mut moved = CraneSimulator::new(fast).unwrap();
    moved.run_frames(25).unwrap();
    moved.set_cpu_speed(0.5);
    moved.reset_for_session(seed).unwrap();
    assert_eq!(moved.config(), fresh.config());

    for frame in 0..60 {
        let (want, got) = (fresh.step_frame().unwrap(), moved.step_frame().unwrap());
        assert_eq!(want, got, "frame {frame}: record (modeled cost included)");
        assert_eq!(fresh.telemetry_digest(), moved.telemetry_digest(), "frame {frame}");
    }
    assert_eq!(fresh.session_cost_hint(), moved.session_cost_hint());
    assert_eq!(fresh.report(), moved.report());
}

#[test]
fn reset_clears_faulty_session_state() {
    let seed = 7;
    let mut fresh = CraneSimulator::new(config(OperatorKind::Idle, seed)).unwrap();
    let fresh_trace = trace_frames(&mut fresh, 30);

    // First session runs under heavy injected faults; the plan and its
    // counters must not leak into the next session.
    let mut recycled = CraneSimulator::new(config(OperatorKind::Idle, 3)).unwrap();
    recycled.set_fault_plan(FaultPlan::seeded(11).with_drop_probability(0.2));
    trace_frames(&mut recycled, 50);
    assert!(recycled.cluster().lan_stats().fault_drops > 0, "faults must have fired");

    recycled.reset_for_session(seed).unwrap();
    assert_eq!(recycled.cluster().lan_stats(), Default::default(), "LAN counters leaked");
    let recycled_trace = trace_frames(&mut recycled, 30);
    assert_eq!(fresh_trace.first_divergence(&recycled_trace), None);
}

#[test]
fn reset_restores_frame_sync_barriers_and_telemetry() {
    let mut sim = CraneSimulator::new(config(OperatorKind::Idle, 21)).unwrap();
    sim.run_frames(25).unwrap();
    let before = sim.snapshot();
    assert!(before.channel_frames_swapped.iter().any(|s| *s > 0), "lock-step never progressed");

    sim.reset_for_session(21).unwrap();
    let after = sim.snapshot();
    assert_eq!(after, Default::default(), "telemetry leaked across the reset");
    assert_eq!(sim.cluster().metrics().frames_run, 0, "executive metrics leaked");

    // The barrier restarts from frame zero and runs again.
    sim.run_frames(25).unwrap();
    let resumed = sim.snapshot();
    assert_eq!(resumed.channel_frames_swapped, before.channel_frames_swapped);
}

#[test]
fn reset_with_a_new_seed_stays_deterministic() {
    // The session seed feeds the LAN jitter and vibration models; whatever it
    // changes, a reset to the same seed must replay the exact same session.
    let mut sim = CraneSimulator::new(config(OperatorKind::Exam, 1)).unwrap();
    trace_frames(&mut sim, 30);
    sim.reset_for_session(2).unwrap();
    let second = trace_frames(&mut sim, 30);
    sim.reset_for_session(2).unwrap();
    let third = trace_frames(&mut sim, 30);
    assert_eq!(second.first_divergence(&third), None, "same seed must replay exactly");
}

#[test]
fn fault_plans_installed_after_reset_replay_exactly() {
    let run = |warm: bool| {
        let mut sim = CraneSimulator::new(config(OperatorKind::Idle, 5)).unwrap();
        if warm {
            sim.set_fault_plan(FaultPlan::seeded(99).with_drop_probability(0.5));
            trace_frames(&mut sim, 20);
            sim.reset_for_session(5).unwrap();
        }
        sim.set_fault_plan(FaultPlan::seeded(13).with_drop_probability(0.05));
        trace_frames(&mut sim, 40)
    };
    let fresh = run(false);
    let recycled = run(true);
    assert_eq!(fresh.first_divergence(&recycled), None);
    assert_eq!(fresh.fingerprint(), recycled.fingerprint());
}

#[test]
fn reports_of_identical_sessions_are_equal_even_with_micros_now() {
    // `Micros` time rewinds to the session epoch on reset; frame records and
    // reports must agree exactly with a fresh build.
    let mut fresh = CraneSimulator::new(config(OperatorKind::Reckless, 31)).unwrap();
    let fresh_first = fresh.step_frame().unwrap();

    let mut recycled = CraneSimulator::new(config(OperatorKind::Reckless, 31)).unwrap();
    recycled.run_frames(11).unwrap();
    recycled.reset_for_session(31).unwrap();
    let recycled_first = recycled.step_frame().unwrap();

    assert_eq!(fresh_first, recycled_first, "first frame after reset differs");
    assert_eq!(fresh_first.now, recycled_first.now, "session epoch mismatch");
    assert!(fresh_first.now > Micros::ZERO);
}
