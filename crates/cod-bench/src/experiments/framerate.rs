//! Experiment E1 — surround-view frame rate versus polygon budget.
//!
//! The headline result of the paper's §4: 16 fps at 3 235 polygons with the
//! synchronized three-channel surround view on TNT2-class hardware. The
//! reproduction table sweeps the polygon budget through the GPU cost model.

use crane_scene::world::TrainingWorld;
use render_sim::{GpuCostModel, SurroundView};

use crate::report::{Comparison, DerivedMetric, ExperimentResult};

/// Polygon count the paper quotes its measured frame rate at.
pub const PAPER_POLYGONS: usize = 3_235;
/// Frame rate the paper measured at [`PAPER_POLYGONS`].
pub const PAPER_FPS: f64 = 16.0;

fn print_table() {
    println!("\n=== E1: surround-view frame rate vs polygon budget (TNT2-class model) ===");
    println!("polygons | sync fps | free-run fps | next-gen sync fps");
    let mut next_gen = SurroundView::paper_configuration();
    next_gen.set_cost_model(GpuCostModel::next_generation());
    for polygons in [500usize, 1_000, 2_000, PAPER_POLYGONS, 5_000, 8_000, 12_000, 20_000] {
        let paper = SurroundView::paper_configuration().estimate(polygons);
        let faster = next_gen.estimate(polygons);
        println!(
            "{polygons:>8} | {:>8.1} | {:>12.1} | {:>17.1}",
            paper.synchronized_fps(),
            paper.free_running_fps(),
            faster.synchronized_fps()
        );
    }
    println!();
}

/// Runs E1 and returns its result.
pub fn run() -> ExperimentResult {
    print_table();
    let headline = SurroundView::paper_configuration().estimate(PAPER_POLYGONS);
    ExperimentResult {
        id: "E1".into(),
        name: "framerate".into(),
        comparison: Some(Comparison {
            quantity: "synchronized surround-view fps at 3235 polygons (cost model)".into(),
            unit: "fps".into(),
            measured: headline.synchronized_fps(),
            paper: PAPER_FPS,
        }),
        derived: vec![
            DerivedMetric::new("free_running_fps_model", "fps", headline.free_running_fps()),
            DerivedMetric::new(
                "training_world_polygons",
                "polygons",
                TrainingWorld::shared().polygon_count() as f64,
            ),
        ],
        notes: "The fps comparison comes from the calibrated TNT2-class GPU cost model.".into(),
    }
}
