//! The rendering pipeline: scene graph in, shaded framebuffer and statistics out.

use cod_net::Micros;
use crane_scene::graph::SceneGraph;
use crane_scene::mesh::Color;
use sim_math::Vec3;

use crate::camera::Camera;
use crate::cost::GpuCostModel;
use crate::framebuffer::Framebuffer;
use crate::frustum::Frustum;
use crate::raster::rasterize_triangle;

/// Statistics of one rendered frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Triangles in the scene graph.
    pub triangles_in_scene: usize,
    /// Triangles submitted after frustum culling of whole instances.
    pub triangles_submitted: usize,
    /// Triangles that produced at least one fragment.
    pub triangles_drawn: usize,
    /// Pixels written to the framebuffer (after the depth test).
    pub pixels_written: usize,
    /// Instances culled entirely by the frustum test.
    pub instances_culled: usize,
}

impl RenderStats {
    /// Frame time this workload would take on the given hardware model.
    pub fn frame_time(&self, model: &GpuCostModel) -> Micros {
        model.frame_time(self.triangles_submitted, self.pixels_written.max(1))
    }
}

/// A software renderer for one display channel.
#[derive(Debug)]
pub struct Renderer {
    framebuffer: Framebuffer,
    background: Color,
    light_direction: Vec3,
}

impl Renderer {
    /// Creates a renderer with a framebuffer of the given size.
    pub fn new(width: usize, height: usize) -> Renderer {
        Renderer {
            framebuffer: Framebuffer::new(width, height),
            background: Color::SKY,
            light_direction: Vec3::new(-0.4, -1.0, 0.3),
        }
    }

    /// The last rendered framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.framebuffer
    }

    /// Sets the background (sky) color.
    pub fn set_background(&mut self, color: Color) {
        self.background = color;
    }

    /// Renders the scene from `camera` and returns the frame statistics.
    pub fn render(&mut self, scene: &SceneGraph, camera: &Camera) -> RenderStats {
        let mut stats =
            RenderStats { triangles_in_scene: scene.polygon_count(), ..Default::default() };
        self.framebuffer.clear(self.background);
        let view_projection = camera.view_projection();
        let frustum = Frustum::from_view_projection(&view_projection);

        for instance in scene.instances() {
            let aabb = match scene.instance_aabb(instance.node) {
                Some(aabb) => aabb,
                None => continue,
            };
            if !frustum.intersects_aabb(&aabb) {
                stats.instances_culled += 1;
                continue;
            }
            for i in 0..instance.mesh.polygon_count() {
                let local = instance.mesh.triangle(i);
                let world = [
                    instance.world.apply(local[0]),
                    instance.world.apply(local[1]),
                    instance.world.apply(local[2]),
                ];
                let normal = instance.world.apply_direction(instance.mesh.triangle_normal(i));
                stats.triangles_submitted += 1;
                let r = rasterize_triangle(
                    &mut self.framebuffer,
                    &view_projection,
                    world,
                    normal,
                    instance.mesh.color,
                    self.light_direction,
                );
                if r.drawn {
                    stats.triangles_drawn += 1;
                }
                stats.pixels_written += r.pixels_written;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crane_scene::world::TrainingWorld;

    #[test]
    fn training_world_renders_with_visible_geometry() {
        let world = TrainingWorld::build();
        let mut renderer = Renderer::new(160, 120);
        // Operator view from behind the crane's start position.
        let camera = Camera::look_at(
            Vec3::new(0.0, 6.0, -55.0),
            world.scene.world_transform(world.crane.chassis).translation + Vec3::new(0.0, 2.0, 0.0),
        );
        let stats = renderer.render(&world.scene, &camera);
        assert!(stats.triangles_in_scene > 2_500);
        assert!(stats.triangles_submitted > 0);
        assert!(stats.triangles_drawn > 50, "drawn {}", stats.triangles_drawn);
        assert!(stats.pixels_written > 1_000, "pixels {}", stats.pixels_written);
        assert!(
            renderer.framebuffer().covered_pixels(Color::SKY) > 1_000,
            "framebuffer mostly empty"
        );
    }

    #[test]
    fn frustum_culling_reduces_submitted_triangles() {
        let world = TrainingWorld::build();
        let mut renderer = Renderer::new(80, 60);
        // Looking straight down the course only a subset of the scene is visible.
        let camera = Camera::look_at(Vec3::new(0.0, 3.0, 50.0), Vec3::new(0.0, 2.0, 65.0));
        let stats = renderer.render(&world.scene, &camera);
        assert!(stats.instances_culled > 0, "nothing was culled");
        assert!(stats.triangles_submitted < stats.triangles_in_scene);
    }

    #[test]
    fn stats_convert_to_frame_time() {
        let stats = RenderStats {
            triangles_in_scene: 3_235,
            triangles_submitted: 3_235,
            triangles_drawn: 2_000,
            pixels_written: 200_000,
            instances_culled: 0,
        };
        let t = stats.frame_time(&GpuCostModel::tnt2_class());
        assert!(t.as_millis() > 30 && t.as_millis() < 90, "frame time {t}");
    }

    #[test]
    fn looking_at_empty_sky_draws_nothing() {
        let world = TrainingWorld::build();
        let mut renderer = Renderer::new(80, 60);
        let camera = Camera::look_at(Vec3::new(0.0, 500.0, 0.0), Vec3::new(0.0, 1_000.0, 0.0));
        let stats = renderer.render(&world.scene, &camera);
        assert_eq!(stats.pixels_written, 0);
        assert_eq!(renderer.framebuffer().covered_pixels(Color::SKY), 0);
    }
}
