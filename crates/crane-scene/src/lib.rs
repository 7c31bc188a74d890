//! Scene substrate for the mobile-crane simulator.
//!
//! The original system rendered a training ground of 3 235 polygons on three
//! display channels (paper §4). This crate provides the geometry side of that:
//! triangle meshes and primitive generators, a scene graph with hierarchical
//! transforms, axis-aligned bounds, a terrain mesh builder, the training world
//! itself, and the licensing-exam course of Figure 9 (driving path, lift zone,
//! barred trajectory).
//!
//! In the paper every display PC held its own copy of the world. Here many
//! racks run in one process, so the world is built once per process and
//! shared: [`TrainingWorld::shared`] hands out one immutable world, and a
//! display that animates the crane copies it first.
//!
//! ```
//! use crane_scene::world::TrainingWorld;
//!
//! let world = TrainingWorld::shared();
//! // The scene stays close to the polygon budget reported in the paper.
//! let polys = world.scene.polygon_count();
//! assert!(polys > 2_500 && polys < 4_500, "polygon count {polys}");
//! ```

pub mod bounds;
pub mod course;
pub mod graph;
pub mod mesh;
pub mod primitives;
pub mod terrain_mesh;
pub mod world;

pub use bounds::Aabb;
pub use course::{Bar, Course, CoursePhase};
pub use graph::{NodeId, SceneGraph};
pub use mesh::{Color, Mesh};
pub use world::TrainingWorld;
