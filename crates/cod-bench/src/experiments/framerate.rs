//! Experiment E1 — surround-view frame rate versus polygon budget.
//!
//! The headline result of the paper's §4: 16 fps at 3 235 polygons with the
//! synchronized three-channel surround view on TNT2-class hardware. The
//! reproduction table sweeps the polygon budget through the GPU cost model
//! and the rack's swap-lock period (`cod_cluster::synchronized_period` with
//! its 3 ms barrier).

use cod_cluster::{synchronized_period, SWAP_LOCK_BARRIER};
use cod_net::Micros;
use crane_scene::world::TrainingWorld;
use render_sim::GpuCostModel;

use crate::report::{Comparison, DerivedMetric, ExperimentResult};

/// Polygon count the paper quotes its measured frame rate at.
pub const PAPER_POLYGONS: usize = 3_235;
/// Frame rate the paper measured at [`PAPER_POLYGONS`].
pub const PAPER_FPS: f64 = 16.0;

/// Synchronized fps of the rack's swap-locked surround view when every
/// channel takes `channel` per frame.
fn synchronized_fps(channel: Micros) -> f64 {
    GpuCostModel::fps(synchronized_period(&[channel], SWAP_LOCK_BARRIER))
}

fn print_table() {
    println!("\n=== E1: surround-view frame rate vs polygon budget (TNT2-class model) ===");
    println!("polygons | sync fps | free-run fps | next-gen sync fps");
    for polygons in [500usize, 1_000, 2_000, PAPER_POLYGONS, 5_000, 8_000, 12_000, 20_000] {
        let paper = GpuCostModel::tnt2_class().frame_time_for_scene(polygons);
        let faster = GpuCostModel::next_generation().frame_time_for_scene(polygons);
        println!(
            "{polygons:>8} | {:>8.1} | {:>12.1} | {:>17.1}",
            synchronized_fps(paper),
            GpuCostModel::fps(paper),
            synchronized_fps(faster)
        );
    }
    println!();
}

/// Runs E1 and returns its result.
pub fn run() -> ExperimentResult {
    print_table();
    let headline = GpuCostModel::tnt2_class().frame_time_for_scene(PAPER_POLYGONS);
    ExperimentResult {
        id: "E1".into(),
        name: "framerate".into(),
        comparison: Some(Comparison {
            quantity: "synchronized surround-view fps at 3235 polygons (cost model)".into(),
            unit: "fps".into(),
            measured: synchronized_fps(headline),
            paper: PAPER_FPS,
        }),
        derived: vec![
            DerivedMetric::new("free_running_fps_model", "fps", GpuCostModel::fps(headline)),
            DerivedMetric::new(
                "training_world_polygons",
                "polygons",
                TrainingWorld::shared().polygon_count() as f64,
            ),
        ],
        notes: "The fps comparison comes from the calibrated TNT2-class GPU cost model.".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_reproduces_the_sixteen_fps_regime() {
        let channel = GpuCostModel::tnt2_class().frame_time_for_scene(PAPER_POLYGONS);
        let fps = synchronized_fps(channel);
        assert!(fps > 14.0 && fps < 18.0, "synchronized fps = {fps}");
        // Removing the synchronization overhead buys a measurable speedup,
        // which is what the paper's §5 hints at.
        let free = GpuCostModel::fps(channel);
        assert!(free > fps);
        assert!(1.0 - fps / free > 0.02, "sync overhead {}", 1.0 - fps / free);
    }

    #[test]
    fn faster_hardware_raises_the_frame_rate() {
        let old = synchronized_fps(GpuCostModel::tnt2_class().frame_time_for_scene(3_235));
        let new = synchronized_fps(GpuCostModel::next_generation().frame_time_for_scene(3_235));
        assert!(new > old * 2.0, "old {old}, new {new}");
    }
}
