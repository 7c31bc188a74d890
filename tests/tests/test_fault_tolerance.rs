//! Fault-tolerance and determinism suite driving `cod-testkit`.
//!
//! Proves the two acceptance properties of the testkit:
//!
//! 1. **Determinism** — two runs of the same seeded scenario (including its
//!    fault plan) produce bit-identical `SessionReport`s and telemetry traces.
//! 2. **Fault tolerance** — under 5% datagram loss, duplication + reordering,
//!    latency spikes and a short partition, the exam scenario still completes
//!    with every cluster invariant holding.
//!
//! To reproduce any failure, take the printed `(sim seed, fault seed)` pair
//! and rebuild the same `ScenarioSpec` (see README "Testing").

use cod_net::{FaultPlan, Micros, NodeId};
use cod_testkit::{replay_check, run_scenario, ScenarioSpec};
use crane_sim::{OperatorKind, SimulatorConfig};

fn exam_config(seed: u64) -> SimulatorConfig {
    SimulatorConfig {
        operator: OperatorKind::Exam,
        display_width: 64,
        display_height: 48,
        exam_frames: 0,
        seed,
        ..SimulatorConfig::default()
    }
}

#[test]
fn same_seed_and_fault_plan_reproduce_bit_identical_sessions() {
    let spec = ScenarioSpec::new("determinism", exam_config(0xDE7E_4213), 200)
        .with_fault_plan(FaultPlan::seeded(0xFA17).with_drop_probability(0.05));
    let (first, second, divergence) = replay_check(&spec).unwrap();
    assert_eq!(
        divergence,
        None,
        "replay diverged (seeds {:?}): first bad frame {divergence:?}",
        spec.seeds()
    );
    assert_eq!(first.report, second.report, "SessionReports must be bit-identical");
    assert_eq!(first.trace, second.trace);
    assert_eq!(first.trace.fingerprint(), second.trace.fingerprint());
    // Faults really were injected — this is not a trivially clean run.
    assert!(first.report.lan.fault_drops > 0, "no faults injected");
}

#[test]
fn traces_pin_the_first_divergent_frame_between_different_fault_streams() {
    let base = ScenarioSpec::new("a", exam_config(7), 120)
        .with_fault_plan(FaultPlan::seeded(1).with_drop_probability(0.05));
    let other = ScenarioSpec::new("b", exam_config(7), 120)
        .with_fault_plan(FaultPlan::seeded(2).with_drop_probability(0.05));
    let a = run_scenario(&base).unwrap();
    let b = run_scenario(&other).unwrap();
    let frame = a.trace.first_divergence(&b.trace);
    assert!(frame.is_some(), "different fault seeds must alter the frame-level behaviour");
    // The divergence is symmetric.
    assert_eq!(frame, b.trace.first_divergence(&a.trace));
}

#[test]
fn exam_completes_under_five_percent_datagram_loss_with_all_invariants() {
    let spec = ScenarioSpec::new("exam-loss5", exam_config(0xC0D), 400)
        .with_fault_plan(FaultPlan::seeded(0x10_55).with_drop_probability(0.05));
    let outcome = run_scenario(&spec).unwrap();
    assert!(
        outcome.passed(),
        "invariants violated (seeds {:?}): {:?}",
        outcome.seeds,
        outcome.violations
    );
    assert_eq!(outcome.report.frames_run, 400);
    // The surround view kept swapping despite the loss.
    let snap_swaps = outcome.trace.digests.last().unwrap().channel_swaps.clone();
    assert!(
        snap_swaps.iter().all(|s| *s > 60),
        "displays barely progressed under loss: {snap_swaps:?}"
    );
    // The operator still drove to the testing ground and began the lift.
    assert_eq!(outcome.report.phase, "Lifting");
    assert!(outcome.report.lan.fault_drops > 100, "loss plan barely fired");
}

#[test]
fn duplication_and_reordering_do_not_break_lock_step() {
    let plan =
        FaultPlan::seeded(0xD0_0D).with_duplicate_probability(0.15).with_reordering(0.15, 70_000);
    let spec = ScenarioSpec::new("exam-chaos", exam_config(0xC0D), 300).with_fault_plan(plan);
    let outcome = run_scenario(&spec).unwrap();
    assert!(outcome.passed(), "{:?}", outcome.violations);
    let stats = &outcome.report.lan;
    assert!(stats.fault_duplicates > 100, "duplication plan barely fired");
    assert!(stats.fault_reorders > 100, "reorder plan barely fired");
}

#[test]
fn a_partitioned_display_computer_rejoins_and_catches_up() {
    // Display-0 (node 0) falls off the LAN from t = 2 s to t = 3 s.
    let plan = FaultPlan::seeded(0xB11F).with_partition(
        Micros::from_secs(2),
        Micros::from_secs(3),
        vec![NodeId(0)],
    );
    let spec = ScenarioSpec::new("exam-partition", exam_config(0xC0D), 300).with_fault_plan(plan);
    let outcome = run_scenario(&spec).unwrap();
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert!(outcome.report.lan.partition_drops > 0, "partition never fired");
    // After healing, lock-step recovered rather than deadlocked: the surround
    // view ends within a few swaps of an identically-seeded clean run.
    let clean = run_scenario(&ScenarioSpec::new("exam-clean", exam_config(0xC0D), 300)).unwrap();
    let clean_swaps = clean.trace.digests.last().unwrap().channel_swaps[0];
    let final_swaps = outcome.trace.digests.last().unwrap().channel_swaps.clone();
    assert!(
        final_swaps.iter().all(|s| *s + 10 >= clean_swaps),
        "lock-step never recovered: {final_swaps:?} vs clean {clean_swaps}"
    );
    let max = final_swaps.iter().max().unwrap();
    let min = final_swaps.iter().min().unwrap();
    assert!(max - min <= 1, "channels diverged after heal: {final_swaps:?}");
}

#[test]
fn latency_spike_delays_but_does_not_derail_the_session() {
    let plan =
        FaultPlan::seeded(0x5717).with_spike(Micros::from_secs(2), Micros::from_secs(4), 80_000);
    let spec = ScenarioSpec::new("exam-spike", exam_config(0xC0D), 300).with_fault_plan(plan);
    let outcome = run_scenario(&spec).unwrap();
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert_eq!(outcome.report.frames_run, 300);
    // The spike run must differ from a clean run of the same seeds.
    let clean = run_scenario(&ScenarioSpec::new("exam-clean", exam_config(0xC0D), 300)).unwrap();
    assert!(outcome.trace.first_divergence(&clean.trace).is_some());
}

#[test]
fn quick_scenario_matrix_passes_every_invariant() {
    let summary = cod_testkit::run_matrix(&cod_testkit::MatrixConfig::quick()).unwrap();
    assert!(summary.all_passed(), "failing scenarios: {:?}", summary.failures());
    assert_eq!(summary.results.len(), 6);
    // The summary serializes to valid JSON for the CI artifact.
    let text = summary.to_json().to_pretty();
    assert!(text.contains("cod-scenarios-v1"));
}
