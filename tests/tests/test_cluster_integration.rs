//! Cross-crate integration tests: the frame-synchronized surround view
//! (experiments E1/E3/E12) and the cluster-vs-single-PC comparison (E6).

use cod_cluster::ComputerId;
use cod_net::Micros;
use crane_sim::{
    CraneSimulator, FrameDigest, GpuGeneration, OperatorKind, SimulatorConfig, TelemetryTrace,
};

fn base_config() -> SimulatorConfig {
    SimulatorConfig {
        operator: OperatorKind::Idle,
        exam_frames: 0,
        display_width: 64,
        display_height: 48,
        ..SimulatorConfig::default()
    }
}

/// Runs `frames` frames, recording the bit-exact per-frame digest trace.
fn trace_frames(sim: &mut CraneSimulator, frames: usize) -> TelemetryTrace {
    let mut trace = TelemetryTrace::new();
    for _ in 0..frames {
        let record = sim.step_frame().unwrap();
        let lan = sim.cluster().lan_stats();
        trace.record(FrameDigest::capture(record.frame, record.now, &sim.snapshot(), &lan));
    }
    trace
}

#[test]
fn a_pixel_rendering_rack_does_not_disturb_racks_built_after_it() {
    // Every rack in the process shares one training world; a channel that
    // renders pixels animates a copy of its own, never the shared one.
    let cost_model = SimulatorConfig { operator: OperatorKind::Exam, ..base_config() };
    let mut before = CraneSimulator::new(cost_model).unwrap();
    let pixels = SimulatorConfig {
        render_pixels: true,
        display_width: 32,
        display_height: 24,
        ..cost_model
    };
    let mut rendering = CraneSimulator::new(pixels).unwrap();
    rendering.run_frames(20).unwrap();
    let mut after = CraneSimulator::new(cost_model).unwrap();

    let (expected, replayed) = (trace_frames(&mut before, 40), trace_frames(&mut after, 40));
    assert_eq!(expected.first_divergence(&replayed), None);
    assert_eq!(expected.fingerprint(), replayed.fingerprint());
}

#[test]
fn synchronized_surround_view_lands_in_the_papers_regime() {
    let mut simulator = CraneSimulator::new(base_config()).unwrap();
    simulator.run_frames(60).unwrap();
    let report = simulator.report();
    // Paper §4: 16 fps for the synchronized three-channel view of 3 235 polygons.
    assert!(
        report.synchronized_fps > 13.0 && report.synchronized_fps < 19.0,
        "synchronized fps {}",
        report.synchronized_fps
    );
    // Synchronization costs something, so the free-running channel is faster.
    assert!(report.free_running_fps > report.synchronized_fps);
    // The sync overhead is a modest fraction of the frame, not a majority.
    let overhead = 1.0 - report.synchronized_fps / report.free_running_fps;
    assert!(overhead > 0.01 && overhead < 0.3, "overhead fraction {overhead}");
}

#[test]
fn next_generation_hardware_clears_the_thirty_fps_bar() {
    let mut config = base_config();
    config.gpu = GpuGeneration::NextGeneration;
    config.target_fps = 60.0;
    let mut simulator = CraneSimulator::new(config).unwrap();
    simulator.run_frames(60).unwrap();
    let report = simulator.report();
    assert!(
        report.free_running_fps > 30.0,
        "faster hardware should exceed 30 fps, got {}",
        report.free_running_fps
    );
}

#[test]
fn distributed_cluster_beats_the_single_computer_baseline() {
    let mut simulator = CraneSimulator::new(base_config()).unwrap();
    simulator.run_frames(60).unwrap();
    let report = simulator.report();
    assert!(
        report.cluster_fps > report.sequential_fps * 2.0,
        "expected a clear pipelining speedup: cluster {} vs sequential {}",
        report.cluster_fps,
        report.sequential_fps
    );
}

#[test]
fn extra_display_channel_joins_without_restarting_the_system() {
    let mut simulator = CraneSimulator::new(base_config()).unwrap();
    simulator.run_frames(30).unwrap();
    let channels_before = simulator.report().channel_frame_times.len();
    simulator.add_extra_display().unwrap();
    simulator.run_frames(80).unwrap();
    let report = simulator.report();
    assert_eq!(report.channel_frame_times.len(), channels_before + 1);
    assert!(report.channel_frame_times.iter().all(|t| *t > Micros::ZERO));
    // The original channels keep making progress after the join.
    assert!(report.frames_run >= 110);
}

#[test]
fn lan_carries_data_but_co_resident_modules_stay_local() {
    let mut simulator = CraneSimulator::new(base_config()).unwrap();
    simulator.run_frames(50).unwrap();
    let report = simulator.report();
    assert!(report.lan.datagrams_sent > 100, "state updates should cross the LAN");
    assert!(report.established_channels > 10);
}

#[test]
fn every_interaction_a_cb_receives_reaches_a_resident_subscriber() {
    // Only CBs hosting a subscriber join an interaction class's LAN group.
    let mut simulator = CraneSimulator::new(SimulatorConfig::default()).unwrap();
    simulator.run().unwrap();
    let cluster = simulator.cluster();
    let stats: Vec<_> = (0..cluster.computer_count())
        .map(|i| cluster.computer(ComputerId(i)).kernel().stats())
        .collect();
    assert_eq!(stats.iter().map(|s| s.interactions_unread).collect::<Vec<_>>(), [0; 8]);
    let sent: u64 = stats.iter().map(|s| s.interactions_sent).sum();
    let delivered: u64 = stats.iter().map(|s| s.interactions_delivered).sum();
    assert!(sent >= 2_000 && delivered >= sent, "{sent} sent, {delivered} delivered");
}
