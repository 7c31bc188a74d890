//! Experiment E8 — pipelining on the COD versus a single desktop computer.
//!
//! The paper's motivation (§1, §5) is that "by carefully exploring the
//! parallelism among the tasks of a virtual reality system, we can easily
//! interconnect several computers by networking and employing pipeline
//! techniques" to replace a multiprocessor mainframe. One 120-frame idle
//! session on the full eight-computer simulator prices that claim: the
//! executive records each computer's peak frame cost, and the reproduction
//! table packs the rack's eight computers, at those peaks, onto 1–8 desktop
//! PCs. One PC runs at the session's sequential frame rate and four or more
//! at its cluster frame rate; their ratio is the COD speedup, the repo's
//! ~3.4× regression anchor.

use cod_cluster::{balance_load, LpLoad, Placement};
use crane_sim::{CraneSimulator, OperatorKind, SimulatorConfig};

use crate::report::{Comparison, DerivedMetric, ExperimentResult};

/// The ~3.4× eight-PC-COD-versus-single-PC speedup the seed measured; kept
/// as the regression anchor for perf work (ROADMAP).
pub const PAPER_SPEEDUP_ANCHOR: f64 = 3.4;

/// The floor the `gates` runner enforces on the COD speedup.
pub const SPEEDUP_FLOOR: f64 = 3.0;

/// A 120-frame idle session on the full eight-computer simulator.
fn idle_session() -> CraneSimulator {
    let mut simulator = CraneSimulator::new(SimulatorConfig {
        operator: OperatorKind::Idle,
        exam_frames: 120,
        display_width: 64,
        display_height: 48,
        ..SimulatorConfig::default()
    })
    .expect("simulator builds");
    simulator.run().expect("session runs");
    simulator
}

/// The rack's computers packed onto 1..=8 desktop PCs, each computer costed
/// at the peak frame cost the executive recorded for it.
fn placements(simulator: &CraneSimulator) -> Vec<Placement> {
    let costs = &simulator.cluster().metrics().computer_cost;
    let loads: Vec<LpLoad> = simulator
        .rack_layout()
        .iter()
        .zip(costs)
        .map(|((computer, _), cost)| LpLoad::new(computer, cost.peak))
        .collect();
    (1..=8).map(|computers| balance_load(&loads, computers)).collect()
}

/// Runs E8 and returns its result.
pub fn run() -> ExperimentResult {
    let simulator = idle_session();
    let frame_period = simulator.cluster().frame_period();
    println!("\n=== E8: frame rate vs number of desktop computers (measured peaks, packed) ===");
    println!("computers | frame period | fps");
    for (computers, placement) in (1..).zip(placements(&simulator)) {
        println!(
            "{computers:>9} | {:>12} | {:>5.2}",
            placement.makespan.to_string(),
            placement.achievable_fps(frame_period)
        );
    }
    let report = simulator.report();
    let (cluster_fps, sequential_fps) = (report.cluster_fps, report.sequential_fps);
    let speedup = cluster_fps / sequential_fps.max(1e-9);
    println!(
        "measured: cluster {cluster_fps:.2} fps vs single PC {sequential_fps:.2} fps \
         (speedup {speedup:.2}x)\n"
    );
    ExperimentResult {
        id: "E8".into(),
        name: "cluster_speedup".into(),
        comparison: Some(Comparison {
            quantity: "COD vs single-PC frame-rate speedup".into(),
            unit: "x".into(),
            measured: speedup,
            paper: PAPER_SPEEDUP_ANCHOR,
        }),
        derived: vec![
            DerivedMetric::new("cluster_fps", "fps", cluster_fps),
            DerivedMetric::new("sequential_fps", "fps", sequential_fps),
        ],
        notes: "Speedup comes from the executive's recorded per-computer module costs over a \
                120-frame idle session; 3.4x is the seed's regression anchor."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_ends_at_the_sessions_own_frame_rates() {
        let simulator = idle_session();
        let frame_period = simulator.cluster().frame_period();
        let report = simulator.report();
        let rows = placements(&simulator);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].achievable_fps(frame_period), report.sequential_fps, "1 PC");
        assert_eq!(rows[7].achievable_fps(frame_period), report.cluster_fps, "8 PCs");
        for pair in rows.windows(2) {
            assert!(pair[1].makespan <= pair[0].makespan, "a period grew with one more PC");
        }
    }
}
