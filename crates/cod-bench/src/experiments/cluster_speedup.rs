//! Experiment E8 — pipelining on the COD versus a single desktop computer.
//!
//! The reproduction table gives the analytic frame rate for 1–8 computers
//! (load-balanced placement of the paper's seven modules plus the sync
//! server). A 120-frame idle session on the full eight-computer simulator
//! then yields the modeled cluster and sequential frame rates whose ratio is
//! the COD speedup — the repo's ~3.4× regression anchor (see
//! `examples/cluster_scaling`).

use cod_cluster::{balance_load, LpLoad, PipelineModel, StageCost};
use cod_net::Micros;
use crane_sim::{CraneSimulator, OperatorKind, SimulatorConfig};

use crate::report::{Comparison, DerivedMetric, ExperimentResult};

/// The ~3.4× eight-PC-COD-versus-single-PC speedup the seed measured; kept
/// as the regression anchor for perf work (ROADMAP).
pub const PAPER_SPEEDUP_ANCHOR: f64 = 3.4;

/// The floor the `gates` runner enforces on the COD speedup.
pub const SPEEDUP_FLOOR: f64 = 3.0;

fn module_costs() -> Vec<StageCost> {
    vec![
        StageCost::new("visual-0", Micros::from_millis(60)),
        StageCost::new("visual-1", Micros::from_millis(60)),
        StageCost::new("visual-2", Micros::from_millis(60)),
        StageCost::new("sync-server", Micros(500)),
        StageCost::new("dynamics", Micros::from_millis(15)),
        StageCost::new("dashboard", Micros::from_millis(2)),
        StageCost::new("scenario", Micros::from_millis(1)),
        StageCost::new("instructor", Micros::from_millis(2)),
        StageCost::new("audio", Micros::from_millis(3)),
        StageCost::new("motion-platform", Micros::from_millis(6)),
    ]
}

fn print_table() {
    let stages = module_costs();
    let model = PipelineModel::new(stages.clone(), Micros(200));
    println!("\n=== E8: frame rate vs number of desktop computers (load-balanced) ===");
    println!("computers | frame period | fps");
    for computers in 1..=8usize {
        let loads: Vec<LpLoad> = stages.iter().map(|s| LpLoad::new(&s.name, s.cost)).collect();
        let placement = balance_load(&loads, computers);
        println!(
            "{computers:>9} | {:>12} | {:>5.1}",
            placement.makespan,
            1.0 / placement.makespan.as_secs_f64()
        );
    }
    println!(
        "pipeline speedup (8 PCs vs 1 PC): {:.2}x   end-to-end latency: {}",
        model.speedup(),
        model.pipeline_latency()
    );
    println!();
}

/// The measured cluster and sequential frame rates of a 120-frame idle
/// session on the full simulator: `(cluster_fps, sequential_fps)`.
pub fn measured_fps() -> (f64, f64) {
    let mut simulator = CraneSimulator::new(SimulatorConfig {
        operator: OperatorKind::Idle,
        exam_frames: 120,
        display_width: 64,
        display_height: 48,
        ..SimulatorConfig::default()
    })
    .expect("simulator builds");
    simulator.run().expect("session runs");
    let report = simulator.report();
    (report.cluster_fps, report.sequential_fps)
}

/// Runs E8 and returns its result.
pub fn run() -> ExperimentResult {
    print_table();
    let (cluster_fps, sequential_fps) = measured_fps();
    let speedup = cluster_fps / sequential_fps.max(1e-9);
    println!(
        "measured: cluster {cluster_fps:.1} fps vs single PC {sequential_fps:.1} fps \
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
