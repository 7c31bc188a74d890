//! The mobile-crane training world.
//!
//! Assembles the scene the implemented simulator displayed: the driving area,
//! the testing ground with the licensing course of Figure 9, surrounding
//! buildings and trees, and the articulated mobile crane itself. The polygon
//! budget tracks the 3 235 polygons reported in the paper's §4.

use std::sync::{Arc, OnceLock};

use sim_math::{Transform, Vec3};

use crate::bounds::Aabb;
use crate::course::Course;
use crate::graph::{NodeId, SceneGraph};
use crate::mesh::Color;
use crate::primitives::{cuboid, cylinder, ground_plane, obstacle_bar};
use crate::terrain_mesh::heightfield_mesh;

/// Height of the training ground at `(x, z)` in metres.
///
/// The driving area has gentle rolling hills (the paper's §3.6 calls out
/// terrain following and the danger of the crane's high centre of gravity);
/// the testing ground (z > 45 m) is flat so the lifting exam is level.
pub fn training_ground_height(x: f64, z: f64) -> f64 {
    if z > 45.0 {
        return 0.0;
    }
    let rolling = 0.8 * (x * 0.08).sin() * (z * 0.05).cos() + 0.4 * (z * 0.11).sin();
    // Blend smoothly to zero approaching the testing ground.
    let blend = ((45.0 - z) / 10.0).clamp(0.0, 1.0);
    rolling * blend
}

/// Handles to the scene-graph nodes that the simulator animates every frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CraneNodes {
    /// Crane chassis (root of the crane hierarchy).
    pub chassis: NodeId,
    /// Superstructure / cab that slews on top of the chassis.
    pub superstructure: NodeId,
    /// Derrick boom, luffed and telescoped.
    pub boom: NodeId,
    /// Hoist cable from boom tip to hook.
    pub cable: NodeId,
    /// Lift hook.
    pub hook: NodeId,
    /// The cargo to be lifted in the exam.
    pub cargo: NodeId,
}

/// One static obstacle with a precomputed world-space bound (used by the
/// multi-level collision detection of the dynamics module).
#[derive(Debug, Clone, PartialEq)]
pub struct Obstacle {
    /// Scene node of the obstacle.
    pub node: NodeId,
    /// Descriptive name.
    pub name: String,
    /// World-space bounding box.
    pub aabb: Aabb,
    /// Whether colliding with it deducts exam points (the course bars do).
    pub scored: bool,
}

/// The complete training world: scene graph, course definition and obstacle list.
#[derive(Debug, Clone)]
pub struct TrainingWorld {
    /// The renderable scene.
    pub scene: SceneGraph,
    /// The licensing-exam course.
    pub course: Course,
    /// Nodes animated by the simulator.
    pub crane: CraneNodes,
    /// Static obstacles for collision detection.
    pub obstacles: Vec<Obstacle>,
}

impl TrainingWorld {
    /// Builds the standard training world with the licensing-exam course.
    pub fn build() -> TrainingWorld {
        let course = Course::licensing_exam();
        let mut scene = SceneGraph::new();
        let mut obstacles = Vec::new();

        // --- Terrain -----------------------------------------------------
        let terrain = heightfield_mesh(
            0.0,
            10.0,
            160.0,
            180.0,
            26,
            26,
            Color::GROUND,
            training_ground_height,
        );
        let terrain_mesh = scene.add_mesh(terrain);
        scene.add_node("terrain", None, Transform::identity(), Some(terrain_mesh));

        // Flat concrete slab of the testing ground.
        let slab = ground_plane(Vec3::new(0.0, 0.02, 60.0), 50.0, 32.0, 10, 8, Color::CONCRETE);
        let slab_mesh = scene.add_mesh(slab);
        scene.add_node("testing-ground", None, Transform::identity(), Some(slab_mesh));

        // Driving road from the start point to the testing ground.
        let road = ground_plane(Vec3::new(-1.0, 0.05, 0.0), 8.0, 95.0, 2, 24, Color::GRAY);
        let road_mesh = scene.add_mesh(road);
        scene.add_node("road", None, Transform::identity(), Some(road_mesh));

        // --- Surrounding structures ---------------------------------------
        let building_positions = [
            (Vec3::new(-45.0, 0.0, 20.0), Vec3::new(18.0, 12.0, 14.0)),
            (Vec3::new(45.0, 0.0, 10.0), Vec3::new(14.0, 9.0, 20.0)),
            (Vec3::new(-40.0, 0.0, 75.0), Vec3::new(12.0, 15.0, 12.0)),
            (Vec3::new(45.0, 0.0, 80.0), Vec3::new(16.0, 7.0, 10.0)),
            (Vec3::new(-50.0, 0.0, -30.0), Vec3::new(10.0, 6.0, 10.0)),
            (Vec3::new(40.0, 0.0, -45.0), Vec3::new(20.0, 10.0, 12.0)),
        ];
        for (i, (pos, size)) in building_positions.iter().enumerate() {
            let mesh =
                cuboid(Vec3::new(0.0, size.y / 2.0, 0.0), *size, Color::CONCRETE.scaled(0.9));
            let mesh_index = scene.add_mesh(mesh);
            let node = scene.add_node(
                &format!("building-{i}"),
                None,
                Transform::from_translation(*pos),
                Some(mesh_index),
            );
            obstacles.push(Obstacle {
                node,
                name: format!("building-{i}"),
                aabb: scene.instance_aabb(node).expect("building has a mesh"),
                scored: false,
            });
        }

        // Trees lining the driving area.
        for i in 0..24 {
            let angle = i as f64 * 0.7;
            let x = -70.0 + (i % 8) as f64 * 20.0 + 3.0 * angle.sin();
            let z = -60.0 + (i / 8) as f64 * 55.0 + 4.0 * angle.cos();
            let trunk = cylinder(Vec3::new(0.0, 2.0, 0.0), 0.3, 4.0, 6, Color::new(90, 60, 30));
            let mut tree = trunk;
            let crown = cylinder(Vec3::new(0.0, 5.5, 0.0), 1.8, 3.0, 6, Color::new(40, 120, 50));
            tree.merge(&crown);
            let mesh_index = scene.add_mesh(tree);
            scene.add_node(
                &format!("tree-{i}"),
                None,
                Transform::from_translation(Vec3::new(x, training_ground_height(x, z), z)),
                Some(mesh_index),
            );
        }

        // Fence posts around the testing ground.
        for i in 0..28 {
            let t = i as f64 / 28.0;
            let (x, z) = if t < 0.5 {
                (-26.0 + 52.0 * (t * 2.0), if i % 2 == 0 { 43.0 } else { 77.0 })
            } else {
                (if i % 2 == 0 { -26.0 } else { 26.0 }, 43.0 + 34.0 * ((t - 0.5) * 2.0))
            };
            let post = cuboid(Vec3::new(0.0, 0.75, 0.0), Vec3::new(0.15, 1.5, 0.15), Color::GRAY);
            let mesh_index = scene.add_mesh(post);
            scene.add_node(
                &format!("fence-{i}"),
                None,
                Transform::from_translation(Vec3::new(x, 0.0, z)),
                Some(mesh_index),
            );
        }

        // --- Course furniture ----------------------------------------------
        // Pickup and turn-around circles drawn as thin cylinders.
        for (name, center, radius) in [
            ("pickup-zone", course.pickup_center, course.pickup_radius),
            ("turnaround-zone", course.turnaround_center, course.turnaround_radius),
        ] {
            let ring =
                cylinder(Vec3::new(0.0, 0.05, 0.0), radius, 0.1, 24, Color::new(240, 240, 240));
            let mesh_index = scene.add_mesh(ring);
            scene.add_node(name, None, Transform::from_translation(center), Some(mesh_index));
        }

        // The obstacle bars of Figure 9, each on two support posts.
        for (i, bar) in course.bars.iter().enumerate() {
            let mesh = obstacle_bar(bar.from, bar.to, bar.thickness, Color::SAFETY_RED);
            let mesh_index = scene.add_mesh(mesh);
            let node =
                scene.add_node(&format!("bar-{i}"), None, Transform::identity(), Some(mesh_index));
            obstacles.push(Obstacle {
                node,
                name: format!("bar-{i}"),
                aabb: scene.instance_aabb(node).expect("bar has a mesh").inflated(0.05),
                scored: true,
            });
            for (end, which) in [(bar.from, "a"), (bar.to, "b")] {
                let post = cuboid(
                    Vec3::new(0.0, end.y / 2.0, 0.0),
                    Vec3::new(0.2, end.y, 0.2),
                    Color::SAFETY_RED.scaled(0.8),
                );
                let mesh_index = scene.add_mesh(post);
                scene.add_node(
                    &format!("bar-{i}-post-{which}"),
                    None,
                    Transform::from_translation(Vec3::new(end.x, 0.0, end.z)),
                    Some(mesh_index),
                );
            }
        }

        // --- The mobile crane ------------------------------------------------
        let chassis_mesh = scene.add_mesh(cuboid(
            Vec3::new(0.0, 1.1, 0.0),
            Vec3::new(2.6, 1.2, 7.0),
            Color::CRANE_YELLOW,
        ));
        let chassis = scene.add_node(
            "crane-chassis",
            None,
            Transform::from_translation(course.start_position),
            Some(chassis_mesh),
        );

        // Wheels.
        for (i, (dx, dz)) in
            [(-1.2, 2.4), (1.2, 2.4), (-1.2, -2.4), (1.2, -2.4), (-1.2, 0.0), (1.2, 0.0)]
                .iter()
                .enumerate()
        {
            let wheel = cylinder(Vec3::ZERO, 0.6, 0.4, 10, Color::new(30, 30, 30));
            let mesh_index = scene.add_mesh(wheel);
            scene.add_node(
                &format!("wheel-{i}"),
                Some(chassis),
                Transform::new(
                    Vec3::new(*dx, 0.6, *dz),
                    sim_math::Quat::from_axis_angle(Vec3::unit_z(), std::f64::consts::FRAC_PI_2),
                ),
                Some(mesh_index),
            );
        }

        let super_mesh = scene.add_mesh(cuboid(
            Vec3::new(0.0, 0.9, -0.5),
            Vec3::new(2.4, 1.8, 3.2),
            Color::CRANE_YELLOW.scaled(0.95),
        ));
        let superstructure = scene.add_node(
            "crane-superstructure",
            Some(chassis),
            Transform::from_translation(Vec3::new(0.0, 1.7, -1.0)),
            Some(super_mesh),
        );

        let boom_mesh = scene.add_mesh(cuboid(
            Vec3::new(0.0, 0.0, -6.0),
            Vec3::new(0.6, 0.6, 12.0),
            Color::CRANE_YELLOW.scaled(0.85),
        ));
        let boom = scene.add_node(
            "crane-boom",
            Some(superstructure),
            Transform::from_translation(Vec3::new(0.0, 1.2, 0.5)),
            Some(boom_mesh),
        );

        let cable_mesh = scene.add_mesh(cylinder(
            Vec3::new(0.0, -2.5, 0.0),
            0.04,
            5.0,
            6,
            Color::new(60, 60, 60),
        ));
        let cable = scene.add_node(
            "hoist-cable",
            Some(boom),
            Transform::from_translation(Vec3::new(0.0, 0.0, -12.0)),
            Some(cable_mesh),
        );

        let hook_mesh = scene.add_mesh(cuboid(
            Vec3::new(0.0, -0.3, 0.0),
            Vec3::new(0.5, 0.6, 0.3),
            Color::new(80, 80, 90),
        ));
        let hook = scene.add_node(
            "lift-hook",
            Some(cable),
            Transform::from_translation(Vec3::new(0.0, -5.0, 0.0)),
            Some(hook_mesh),
        );

        let cargo_mesh = scene.add_mesh(cuboid(
            Vec3::new(0.0, 0.6, 0.0),
            Vec3::new(1.6, 1.2, 1.6),
            Color::new(150, 80, 40),
        ));
        let cargo = scene.add_node(
            "cargo",
            None,
            Transform::from_translation(course.pickup_center),
            Some(cargo_mesh),
        );

        let crane = CraneNodes { chassis, superstructure, boom, cable, hook, cargo };
        TrainingWorld { scene, course, crane, obstacles }
    }

    /// The process's one training world, built by [`TrainingWorld::build`] on
    /// first use and shared by every rack after that.
    ///
    /// This is a constant computed once, not a cache: `build` takes no input
    /// and reads no seed, clock or environment, so every call in every process
    /// would produce the same world, and nothing can invalidate or replace
    /// it. Sharing it therefore cannot make a session depend on which racks
    /// were built before it, which is what the determinism contract needs.
    /// Holders never write through the `Arc`; a display that animates the
    /// crane takes its own copy with [`Arc::make_mut`].
    pub fn shared() -> Arc<TrainingWorld> {
        static WORLD: OnceLock<Arc<TrainingWorld>> = OnceLock::new();
        Arc::clone(WORLD.get_or_init(|| Arc::new(TrainingWorld::build())))
    }

    /// Total number of polygons in the world (the paper's scene had 3 235).
    pub fn polygon_count(&self) -> usize {
        self.scene.polygon_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polygon_budget_matches_the_paper_scale() {
        let world = TrainingWorld::build();
        let polys = world.polygon_count();
        // The paper reports 3 235 polygons; stay within a reasonable band of it.
        assert!(polys >= 2_600 && polys <= 4_200, "polygon count {polys} is out of band");
    }

    #[test]
    fn crane_hierarchy_is_connected() {
        let world = TrainingWorld::build();
        let scene = &world.scene;
        // The hook must move when the chassis moves (it hangs off the boom).
        let hook_before = scene.world_transform(world.crane.hook).translation;
        let mut scene = world.scene.clone();
        scene.set_local_transform(
            world.crane.chassis,
            Transform::from_translation(world.course.start_position + Vec3::new(5.0, 0.0, 0.0)),
        );
        let hook_after = scene.world_transform(world.crane.hook).translation;
        assert!((hook_after.x - hook_before.x - 5.0).abs() < 1e-9);
    }

    #[test]
    fn scored_obstacles_are_the_bars() {
        let world = TrainingWorld::build();
        let scored = world.obstacles.iter().filter(|o| o.scored).count();
        assert_eq!(scored, world.course.bars.len());
        assert!(world.obstacles.len() > scored, "buildings must also be obstacles");
        for o in &world.obstacles {
            assert!(!o.aabb.is_empty(), "{} has an empty bound", o.name);
        }
    }

    #[test]
    fn testing_ground_is_flat_and_driving_area_is_not() {
        assert_eq!(training_ground_height(0.0, 60.0), 0.0);
        assert_eq!(training_ground_height(-10.0, 77.0), 0.0);
        let bumpy = (0..50)
            .map(|i| training_ground_height(i as f64 * 1.7 - 40.0, -30.0 + i as f64))
            .fold(0.0f64, |acc, h| acc.max(h.abs()));
        assert!(bumpy > 0.1, "driving terrain should not be perfectly flat");
    }

    #[test]
    fn cargo_starts_in_the_pickup_zone() {
        let world = TrainingWorld::build();
        let cargo = world.scene.world_transform(world.crane.cargo).translation;
        assert!(world.course.in_pickup_zone(cargo));
    }

    #[test]
    fn shared_world_is_one_allocation_equal_to_a_fresh_build() {
        let (first, second) = (TrainingWorld::shared(), TrainingWorld::shared());
        assert!(Arc::ptr_eq(&first, &second), "every caller gets the same world");
        let built = TrainingWorld::build();
        assert_eq!(first.polygon_count(), built.polygon_count());
        assert_eq!(first.obstacles, built.obstacles);
        assert_eq!(first.course, built.course);
    }

    #[test]
    fn named_nodes_can_be_found() {
        let world = TrainingWorld::build();
        for name in ["terrain", "crane-chassis", "crane-boom", "lift-hook", "cargo", "bar-0"] {
            assert!(world.scene.find(name).is_some(), "missing node {name}");
        }
    }
}
