//! Multi-level collision detection (paper §3.6, after Moore & Wilhelms).
//!
//! "When the mobile crane and its lift hook are moved in the virtual
//! environment, the dynamic computation uses the multi-level collision
//! detection algorithm to effectively perceive the collision if there is any."
//!
//! The hierarchy has three levels, each cheaper than the next and each pruning
//! work for the one below:
//!
//! 1. **Bounding sphere** — one distance comparison per obstacle.
//! 2. **Axis-aligned box** — overlap test against the obstacle's AABB.
//! 3. **Exact** — closest-point computation producing the contact point,
//!    normal and penetration depth.
//!
//! An optional uniform [`broad::SpatialGrid`] prunes the level-1 candidate set
//! for large obstacle counts; the collision benchmark (experiment E7) compares
//! the hierarchy against the naive all-exact baseline.

pub mod broad;
pub mod response;

use sim_math::Vec3;

use crane_scene::bounds::Aabb;
use crane_scene::world::Obstacle;

use self::broad::SpatialGrid;

/// Which level of the hierarchy confirmed a contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionLevel {
    /// Bounding-sphere overlap only (used for statistics, never reported as a contact).
    BoundingSphere,
    /// AABB overlap only.
    Aabb,
    /// Exact narrow-phase contact.
    Exact,
}

/// A confirmed contact against a static obstacle.
#[derive(Debug, Clone, PartialEq)]
pub struct Contact {
    /// Index of the obstacle within the collision world.
    pub obstacle: usize,
    /// Obstacle name.
    pub name: String,
    /// Contact point on the obstacle surface (world space).
    pub point: Vec3,
    /// Contact normal pointing from the obstacle toward the query shape.
    pub normal: Vec3,
    /// Penetration depth in metres.
    pub depth: f64,
    /// Whether hitting this obstacle deducts exam points.
    pub scored: bool,
}

/// Counters describing how much work each level performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollisionStats {
    /// Level-1 bounding-sphere tests executed.
    pub sphere_tests: u64,
    /// Level-2 AABB tests executed.
    pub aabb_tests: u64,
    /// Level-3 exact tests executed.
    pub exact_tests: u64,
    /// Contacts reported.
    pub contacts: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct StaticShape {
    name: String,
    aabb: Aabb,
    sphere_center: Vec3,
    sphere_radius: f64,
    scored: bool,
}

/// The set of static obstacles collision queries run against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollisionWorld {
    statics: Vec<StaticShape>,
    grid: Option<SpatialGrid>,
    stats: CollisionStats,
}

impl CollisionWorld {
    /// Creates an empty collision world.
    pub fn new() -> CollisionWorld {
        CollisionWorld::default()
    }

    /// Builds a collision world from the scene's obstacle list.
    pub fn from_obstacles(obstacles: &[Obstacle]) -> CollisionWorld {
        let mut world = CollisionWorld::new();
        for o in obstacles {
            world.add_static(&o.name, o.aabb, o.scored);
        }
        world
    }

    /// Adds a static obstacle described by its AABB. Returns its index.
    pub fn add_static(&mut self, name: &str, aabb: Aabb, scored: bool) -> usize {
        self.statics.push(StaticShape {
            name: name.to_owned(),
            aabb,
            sphere_center: aabb.center(),
            sphere_radius: aabb.bounding_radius(),
            scored,
        });
        self.grid = None; // the acceleration structure is stale
        self.statics.len() - 1
    }

    /// Number of obstacles.
    pub fn len(&self) -> usize {
        self.statics.len()
    }

    /// Whether the world has no obstacles.
    pub fn is_empty(&self) -> bool {
        self.statics.is_empty()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> CollisionStats {
        self.stats
    }

    /// Resets the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = CollisionStats::default();
    }

    /// Builds a uniform grid over the obstacles to prune level-1 candidates.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive.
    pub fn build_grid(&mut self, cell_size: f64) {
        self.grid = Some(SpatialGrid::build(
            cell_size,
            self.statics.iter().map(|s| s.aabb).collect::<Vec<_>>().as_slice(),
        ));
    }

    fn candidates(&self, query: &Aabb) -> Vec<usize> {
        match &self.grid {
            Some(grid) => grid.candidates(query),
            None => (0..self.statics.len()).collect(),
        }
    }

    /// Multi-level query of a sphere (the lift hook or the hanging cargo)
    /// against every obstacle. Returns all confirmed contacts.
    pub fn query_sphere(&mut self, center: Vec3, radius: f64) -> Vec<Contact> {
        let query_aabb = Aabb::from_center_half_extents(center, Vec3::splat(radius));
        let mut contacts = Vec::new();
        for index in self.candidates(&query_aabb) {
            let shape = &self.statics[index];
            // Level 1: bounding spheres.
            self.stats.sphere_tests += 1;
            let center_distance = center.distance(shape.sphere_center);
            if center_distance > radius + shape.sphere_radius {
                continue;
            }
            // Level 2: AABB overlap.
            self.stats.aabb_tests += 1;
            if !shape.aabb.intersects(&query_aabb) {
                continue;
            }
            // Level 3: exact sphere-vs-box.
            self.stats.exact_tests += 1;
            if let Some(contact) = sphere_box_contact(center, radius, &shape.aabb) {
                self.stats.contacts += 1;
                contacts.push(Contact {
                    obstacle: index,
                    name: shape.name.clone(),
                    point: contact.0,
                    normal: contact.1,
                    depth: contact.2,
                    scored: shape.scored,
                });
            }
        }
        contacts
    }

    /// Naive baseline: runs the exact test against every obstacle without any
    /// pruning. Produces the same contacts as [`CollisionWorld::query_sphere`];
    /// exists so the E7 benchmark can quantify what the hierarchy saves.
    pub fn query_sphere_naive(&mut self, center: Vec3, radius: f64) -> Vec<Contact> {
        let mut contacts = Vec::new();
        for (index, shape) in self.statics.iter().enumerate() {
            self.stats.exact_tests += 1;
            if let Some(contact) = sphere_box_contact(center, radius, &shape.aabb) {
                self.stats.contacts += 1;
                contacts.push(Contact {
                    obstacle: index,
                    name: shape.name.clone(),
                    point: contact.0,
                    normal: contact.1,
                    depth: contact.2,
                    scored: shape.scored,
                });
            }
        }
        contacts
    }

    /// Multi-level query of a moving box (the carried cargo) given by its AABB.
    pub fn query_aabb(&mut self, query: Aabb) -> Vec<Contact> {
        let query_center = query.center();
        let query_radius = query.bounding_radius();
        let mut contacts = Vec::new();
        for index in self.candidates(&query) {
            let shape = &self.statics[index];
            self.stats.sphere_tests += 1;
            if query_center.distance(shape.sphere_center) > query_radius + shape.sphere_radius {
                continue;
            }
            self.stats.aabb_tests += 1;
            if !shape.aabb.intersects(&query) {
                continue;
            }
            self.stats.exact_tests += 1;
            if let Some((point, normal, depth)) = box_box_contact(&query, &shape.aabb) {
                self.stats.contacts += 1;
                contacts.push(Contact {
                    obstacle: index,
                    name: shape.name.clone(),
                    point,
                    normal,
                    depth,
                    scored: shape.scored,
                });
            }
        }
        contacts
    }
}

/// Exact sphere-versus-box test. Returns `(point, normal, depth)` on contact.
fn sphere_box_contact(center: Vec3, radius: f64, aabb: &Aabb) -> Option<(Vec3, Vec3, f64)> {
    let closest = aabb.closest_point(center);
    let to_center = center - closest;
    let distance = to_center.length();
    if distance > radius {
        return None;
    }
    if distance > 1e-9 {
        Some((closest, to_center / distance, radius - distance))
    } else {
        // Sphere centre inside the box: push out along the smallest overlap axis.
        let half = aabb.half_extents();
        let local = center - aabb.center();
        let overlaps = [
            (half.x - local.x.abs(), Vec3::new(local.x.signum(), 0.0, 0.0)),
            (half.y - local.y.abs(), Vec3::new(0.0, local.y.signum(), 0.0)),
            (half.z - local.z.abs(), Vec3::new(0.0, 0.0, local.z.signum())),
        ];
        let (depth, normal) = overlaps
            .into_iter()
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
            .expect("three axes");
        Some((center, normal.normalized_or(Vec3::unit_y()), depth + radius))
    }
}

/// Exact box-versus-box test. Returns `(point, normal, depth)` on contact.
fn box_box_contact(a: &Aabb, b: &Aabb) -> Option<(Vec3, Vec3, f64)> {
    if !a.intersects(b) {
        return None;
    }
    let delta = a.center() - b.center();
    let overlap = a.half_extents() + b.half_extents()
        - Vec3::new(delta.x.abs(), delta.y.abs(), delta.z.abs());
    let axes = [
        (overlap.x, Vec3::new(delta.x.signum(), 0.0, 0.0)),
        (overlap.y, Vec3::new(0.0, delta.y.signum(), 0.0)),
        (overlap.z, Vec3::new(0.0, 0.0, delta.z.signum())),
    ];
    let (depth, normal) =
        axes.into_iter().min_by(|x, y| x.0.partial_cmp(&y.0).expect("finite")).expect("three axes");
    let point = b.closest_point(a.center());
    Some((point, normal.normalized_or(Vec3::unit_y()), depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bar_world() -> CollisionWorld {
        let mut w = CollisionWorld::new();
        w.add_static(
            "bar-0",
            Aabb::new(Vec3::new(-5.0, 1.8, -0.2), Vec3::new(5.0, 2.2, 0.2)),
            true,
        );
        w.add_static(
            "building",
            Aabb::new(Vec3::new(20.0, 0.0, 20.0), Vec3::new(30.0, 10.0, 30.0)),
            false,
        );
        w
    }

    #[test]
    fn sphere_hits_the_bar_and_reports_scored_contact() {
        let mut w = bar_world();
        let contacts = w.query_sphere(Vec3::new(0.0, 2.5, 0.0), 0.5);
        assert_eq!(contacts.len(), 1);
        let c = &contacts[0];
        assert_eq!(c.name, "bar-0");
        assert!(c.scored);
        assert!(c.depth > 0.0 && c.depth <= 0.5 + 0.4);
        assert!(c.normal.y > 0.9, "hook above the bar should be pushed up");
    }

    #[test]
    fn distant_sphere_is_pruned_at_level_one() {
        let mut w = bar_world();
        let contacts = w.query_sphere(Vec3::new(100.0, 50.0, 100.0), 0.5);
        assert!(contacts.is_empty());
        let stats = w.stats();
        assert_eq!(stats.sphere_tests, 2);
        assert_eq!(stats.aabb_tests, 0, "far objects must be rejected by the sphere level");
        assert_eq!(stats.exact_tests, 0);
    }

    #[test]
    fn hierarchy_and_naive_agree_on_contacts() {
        let mut w = bar_world();
        for p in [
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(4.9, 2.0, 0.1),
            Vec3::new(25.0, 5.0, 25.0),
            Vec3::new(-8.0, 2.0, 0.0),
            Vec3::new(0.0, 10.0, 0.0),
        ] {
            let fast: Vec<usize> = w.query_sphere(p, 0.6).iter().map(|c| c.obstacle).collect();
            let naive: Vec<usize> =
                w.query_sphere_naive(p, 0.6).iter().map(|c| c.obstacle).collect();
            assert_eq!(fast, naive, "disagreement at {p:?}");
        }
    }

    #[test]
    fn hierarchy_does_fewer_exact_tests_than_naive() {
        let mut world = CollisionWorld::new();
        for i in 0..500 {
            let x = (i % 25) as f64 * 8.0;
            let z = (i / 25) as f64 * 8.0;
            world.add_static(
                &format!("obstacle-{i}"),
                Aabb::from_center_half_extents(Vec3::new(x, 1.0, z), Vec3::splat(1.0)),
                false,
            );
        }
        world.reset_stats();
        world.query_sphere(Vec3::new(40.0, 1.0, 40.0), 1.0);
        let hierarchical = world.stats().exact_tests;
        world.reset_stats();
        world.query_sphere_naive(Vec3::new(40.0, 1.0, 40.0), 1.0);
        let naive = world.stats().exact_tests;
        assert!(hierarchical * 10 < naive, "hierarchy {hierarchical} vs naive {naive}");
    }

    #[test]
    fn grid_pruning_matches_full_scan() {
        let mut with_grid = CollisionWorld::new();
        let mut without = CollisionWorld::new();
        for i in 0..200 {
            let x = (i % 20) as f64 * 5.0;
            let z = (i / 20) as f64 * 5.0;
            let aabb = Aabb::from_center_half_extents(Vec3::new(x, 1.0, z), Vec3::splat(0.8));
            with_grid.add_static(&format!("o{i}"), aabb, false);
            without.add_static(&format!("o{i}"), aabb, false);
        }
        with_grid.build_grid(10.0);
        for p in
            [Vec3::new(12.0, 1.0, 17.0), Vec3::new(50.0, 1.0, 22.0), Vec3::new(-5.0, 1.0, -5.0)]
        {
            let a: Vec<usize> = with_grid.query_sphere(p, 1.2).iter().map(|c| c.obstacle).collect();
            let b: Vec<usize> = without.query_sphere(p, 1.2).iter().map(|c| c.obstacle).collect();
            assert_eq!(a, b);
        }
        assert!(with_grid.stats().sphere_tests < without.stats().sphere_tests);
    }

    #[test]
    fn box_query_detects_cargo_bar_overlap() {
        let mut w = bar_world();
        let cargo =
            Aabb::from_center_half_extents(Vec3::new(0.0, 2.0, 0.0), Vec3::new(0.8, 0.6, 0.8));
        let contacts = w.query_aabb(cargo);
        assert_eq!(contacts.len(), 1);
        assert!(contacts[0].depth > 0.0);
        let clear = w
            .query_aabb(Aabb::from_center_half_extents(Vec3::new(0.0, 8.0, 0.0), Vec3::splat(0.5)));
        assert!(clear.is_empty());
    }

    #[test]
    fn deep_penetration_is_handled() {
        let mut w = CollisionWorld::new();
        w.add_static("block", Aabb::from_center_half_extents(Vec3::ZERO, Vec3::splat(2.0)), false);
        let contacts = w.query_sphere(Vec3::new(0.1, 0.0, 0.0), 0.5);
        assert_eq!(contacts.len(), 1);
        assert!(contacts[0].depth >= 0.5);
        assert!(contacts[0].normal.length() > 0.99);
    }

    #[test]
    fn world_from_scene_obstacles() {
        let training = crane_scene::world::TrainingWorld::build();
        let mut w = CollisionWorld::from_obstacles(&training.obstacles);
        assert_eq!(w.len(), training.obstacles.len());
        // A sphere at a bar of the course must collide.
        let bar = &training.course.bars[0];
        let contacts = w.query_sphere(bar.center(), 0.5);
        assert!(contacts.iter().any(|c| c.scored));
    }

    proptest! {
        #[test]
        fn prop_hierarchy_never_misses_a_naive_contact(
            px in -20.0..20.0f64, py in -5.0..10.0f64, pz in -20.0..20.0f64, r in 0.1..3.0f64) {
            let mut w = bar_world();
            let p = Vec3::new(px, py, pz);
            let fast: Vec<usize> = w.query_sphere(p, r).iter().map(|c| c.obstacle).collect();
            let naive: Vec<usize> = w.query_sphere_naive(p, r).iter().map(|c| c.obstacle).collect();
            prop_assert_eq!(fast, naive);
        }
    }
}
