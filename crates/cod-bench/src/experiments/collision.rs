//! Experiment E3 — the multi-level collision detection of §3.6.
//!
//! The reproduction table compares exact-test counts of the bounding-sphere →
//! AABB → exact hierarchy (with the uniform-grid broad phase) against the
//! naive all-exact baseline as the obstacle count grows.

use crane_physics::collision::CollisionWorld;
use crane_scene::bounds::Aabb;
use crane_scene::world::TrainingWorld;
use sim_math::Vec3;

use crate::report::{DerivedMetric, ExperimentResult};

fn synthetic_world(obstacles: usize) -> CollisionWorld {
    let mut world = CollisionWorld::new();
    let per_row = (obstacles as f64).sqrt().ceil() as usize;
    for i in 0..obstacles {
        let x = (i % per_row) as f64 * 6.0;
        let z = (i / per_row) as f64 * 6.0;
        world.add_static(
            &format!("obstacle-{i}"),
            Aabb::from_center_half_extents(Vec3::new(x, 1.0, z), Vec3::new(1.0, 1.0, 1.0)),
            i % 7 == 0,
        );
    }
    world
}

/// Exact-test counts (multi-level, naive) for a probe query against a
/// synthetic world of the given size.
fn exact_test_counts(obstacles: usize) -> (u64, u64) {
    let mut world = synthetic_world(obstacles);
    world.build_grid(12.0);
    world.reset_stats();
    let probe = Vec3::new(30.0, 1.0, 30.0);
    world.query_sphere(probe, 1.0);
    let hierarchical = world.stats().exact_tests;
    world.reset_stats();
    world.query_sphere_naive(probe, 1.0);
    let naive = world.stats().exact_tests;
    (hierarchical, naive)
}

fn print_table() {
    println!("\n=== E3: multi-level collision detection vs naive baseline ===");
    println!("obstacles | exact tests (multi-level) | exact tests (naive) | reduction");
    for obstacles in [10usize, 100, 500, 2_000, 5_000] {
        let (hierarchical, naive) = exact_test_counts(obstacles);
        println!(
            "{obstacles:>9} | {hierarchical:>25} | {naive:>19} | {:>8.1}x",
            naive as f64 / hierarchical.max(1) as f64
        );
    }
    println!();
}

/// Runs E3 and returns its result.
pub fn run() -> ExperimentResult {
    print_table();
    let (hierarchical, naive) = exact_test_counts(2_000);
    ExperimentResult {
        id: "E3".into(),
        name: "collision".into(),
        comparison: None,
        derived: vec![
            DerivedMetric::new(
                "exact_test_reduction_2000_obstacles",
                "x",
                naive as f64 / hierarchical.max(1) as f64,
            ),
            DerivedMetric::new(
                "trajectory_waypoints",
                "points",
                TrainingWorld::shared().course.trajectory.len() as f64,
            ),
        ],
        notes: "The paper describes the hierarchy qualitatively; the derived reduction factor \
                is the quantity its §3.6 argues for."
            .into(),
    }
}
