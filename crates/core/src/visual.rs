//! One visual display channel (paper §3.7, §4) as a Logical Process.
//!
//! Each of the three display computers runs one instance of this module. It
//! shares the process's training world (a pixel-rendering channel copies it
//! on first render), animates the crane nodes from the reflected state when
//! it renders pixels, renders (or cost-models) its view, and participates in
//! the swap-lock protocol run by the synchronization server so the three
//! monitors present a consistent surround view.

use std::sync::Arc;

use cod_cb::{CbApi, CbError, ClassRegistry};
use cod_cluster::{FrameSyncClient, LogicalProcess};
use cod_net::Micros;
use crane_scene::world::TrainingWorld;
use render_sim::{Camera, GpuCostModel, Renderer};
use sim_math::{Quat, Transform, Vec3};

use crate::fom::{CraneFom, CraneStateMsg, HookStateMsg};
use crate::telemetry::SharedTelemetry;

/// One display channel of the surround view.
pub struct VisualDisplayLp {
    name: String,
    fom: CraneFom,
    telemetry: SharedTelemetry,

    channel: usize,
    yaw_offset: f64,
    /// The process's shared training world; a pixel-rendering channel copies
    /// it on first render and animates its own copy from then on.
    world: Arc<TrainingWorld>,
    /// Polygons in `world`, read once: the count does not depend on where the
    /// crane nodes are, so the cost model never needs the animated scene.
    polygon_count: usize,
    renderer: Option<Renderer>,
    cost_model: GpuCostModel,
    sync: FrameSyncClient,

    crane: CraneStateMsg,
    hook: HookStateMsg,
    last_frame_time: Micros,
    frames_rendered: u64,
}

impl VisualDisplayLp {
    /// Creates display channel `channel` of `channel_count`, spreading the
    /// channels over roughly 120 degrees of yaw.
    ///
    /// When `render_pixels` is false the module runs the cost model only,
    /// which is what the frame-rate experiments need; set it to true to
    /// produce real images (screenshots in the examples).
    ///
    /// `_registry` is unused (the attribute ids live in `fom`); the parameter
    /// stays until `benchmark/`, which calls this constructor, is re-bound.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        _registry: ClassRegistry,
        fom: CraneFom,
        channel: usize,
        channel_count: usize,
        width: usize,
        height: usize,
        render_pixels: bool,
        cost_model: GpuCostModel,
        telemetry: SharedTelemetry,
    ) -> VisualDisplayLp {
        assert!(channel < channel_count, "channel index out of range");
        let per_channel = 120f64.to_radians() / channel_count as f64;
        let yaw_offset = (channel as f64 - (channel_count as f64 - 1.0) / 2.0) * per_channel;
        let world = TrainingWorld::shared();
        VisualDisplayLp {
            name: format!("visual-{channel}"),
            sync: FrameSyncClient::new(fom.sync, channel as u32),
            fom,
            telemetry,
            channel,
            yaw_offset,
            polygon_count: world.polygon_count(),
            world,
            renderer: if render_pixels { Some(Renderer::new(width, height)) } else { None },
            cost_model,
            crane: CraneStateMsg::default(),
            hook: HookStateMsg::default(),
            last_frame_time: Micros::ZERO,
            frames_rendered: 0,
        }
    }

    /// Number of frames this channel has rendered.
    pub fn frames_rendered(&self) -> u64 {
        self.frames_rendered
    }

    /// The camera of this channel: inside the cab, turned by the channel's yaw offset.
    pub fn camera(&self) -> Camera {
        let eye = self.crane.chassis_position + Vec3::new(0.0, 3.2, 1.5);
        let mut camera = Camera {
            position: eye,
            yaw: self.crane.chassis_yaw,
            pitch: -0.05,
            ..Camera::default()
        };
        camera = camera.with_yaw_offset(self.yaw_offset);
        camera
    }

    fn render_frame(&mut self) -> Micros {
        let frame_time = match self.renderer.as_mut() {
            Some(renderer) => {
                // The first call copies the shared world; later ones animate
                // this channel's own copy in place.
                let world = Arc::make_mut(&mut self.world);
                animate_scene(world, &self.crane, &self.hook);
                let camera = {
                    let eye = self.crane.chassis_position + Vec3::new(0.0, 3.2, 1.5);
                    Camera {
                        position: eye,
                        yaw: self.crane.chassis_yaw + self.yaw_offset,
                        pitch: -0.05,
                        ..Camera::default()
                    }
                };
                let stats = renderer.render(&world.scene, &camera);
                stats.frame_time(&self.cost_model)
            }
            None => self.cost_model.frame_time_for_scene(self.polygon_count),
        };
        self.frames_rendered += 1;
        frame_time
    }
}

/// Poses the crane and cargo nodes of `world` from the reflected crane and
/// hook state.
fn animate_scene(world: &mut TrainingWorld, crane: &CraneStateMsg, hook: &HookStateMsg) {
    let nodes = world.crane;
    let chassis_rotation =
        Quat::from_yaw_pitch_roll(crane.chassis_yaw, crane.chassis_pitch, crane.chassis_roll);
    world.scene.set_local_transform(
        nodes.chassis,
        Transform::new(crane.chassis_position, chassis_rotation),
    );
    world.scene.set_local_transform(
        nodes.superstructure,
        Transform::new(
            Vec3::new(0.0, 1.7, -1.0),
            Quat::from_axis_angle(Vec3::unit_y(), crane.slew_angle),
        ),
    );
    world.scene.set_local_transform(
        nodes.boom,
        Transform::new(
            Vec3::new(0.0, 1.2, 0.5),
            Quat::from_axis_angle(Vec3::unit_x(), -crane.luff_angle),
        ),
    );
    // The cargo is a root-level node: place it from the reflected state.
    world.scene.set_local_transform(nodes.cargo, Transform::from_translation(hook.cargo_position));
}

impl LogicalProcess for VisualDisplayLp {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.subscribe_object_class(self.fom.crane_state)?;
        cb.subscribe_object_class(self.fom.hook_state)?;
        self.sync.init(cb)
    }

    fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
        for reflection in cb.reflections() {
            if reflection.class == self.fom.crane_state {
                self.crane = CraneStateMsg::from_values(&self.fom, &reflection.values);
            } else if reflection.class == self.fom.hook_state {
                self.hook = HookStateMsg::from_values(&self.fom, &reflection.values);
            }
        }

        if self.sync.is_waiting() {
            // Blocked on the swap lock: poll for the release, re-reporting
            // ready if the barrier looks stalled (lost LAN datagram).
            self.sync.poll_release(cb);
            self.sync.resend_ready_if_stalled(cb)?;
            self.last_frame_time = Micros(500);
        } else {
            let frame_time = self.render_frame();
            self.last_frame_time = frame_time;
            self.sync.report_ready(cb)?;
        }

        let channel = self.channel;
        let frame_time = self.last_frame_time;
        let frames = self.sync.frames_swapped();
        self.telemetry.update(|t| {
            if t.channel_frame_times.len() <= channel {
                t.channel_frame_times.resize(channel + 1, Micros::ZERO);
            }
            if t.channel_frames_swapped.len() <= channel {
                t.channel_frames_swapped.resize(channel + 1, 0);
            }
            if frame_time > Micros(1_000) {
                t.channel_frame_times[channel] = frame_time;
            }
            t.channel_frames_swapped[channel] = frames;
            t.frames = t.frames.max(frames);
        });
        Ok(())
    }

    fn last_step_cost(&self) -> Micros {
        self.last_frame_time
    }

    fn begin_session(&mut self, _cb: &mut dyn CbApi, _seed: u64) -> Result<(), CbError> {
        // The scene graph and renderer are the expensive reusable assets; a
        // rendering channel overwrites its copy's transforms from the
        // reflected state on every frame, so only the reflected copies and
        // the barrier state reset.
        self.sync.reset_session();
        self.crane = CraneStateMsg::default();
        self.hook = HookStateMsg::default();
        self.last_frame_time = Micros::ZERO;
        self.frames_rendered = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A PPM screenshot of the last rendered frame, if pixel rendering is enabled.
    fn screenshot_ppm(lp: &VisualDisplayLp) -> Option<Vec<u8>> {
        lp.renderer.as_ref().map(|r| r.framebuffer().to_ppm())
    }

    fn display(render_pixels: bool) -> VisualDisplayLp {
        let (registry, fom) = CraneFom::standard();
        VisualDisplayLp::new(
            registry,
            fom,
            1,
            3,
            80,
            60,
            render_pixels,
            GpuCostModel::tnt2_class(),
            SharedTelemetry::new(),
        )
    }

    #[test]
    fn cost_model_only_channel_reports_paper_scale_frame_times() {
        let mut lp = display(false);
        let t = lp.render_frame();
        assert!(t.as_millis() > 30 && t.as_millis() < 90, "frame time {t}");
        assert_eq!(lp.frames_rendered(), 1);
        assert!(screenshot_ppm(&lp).is_none());
    }

    #[test]
    fn pixel_rendering_channel_produces_a_screenshot() {
        let mut lp = display(true);
        lp.crane.chassis_position = Vec3::new(0.0, 0.0, -40.0);
        lp.render_frame();
        let ppm = screenshot_ppm(&lp).expect("renderer enabled");
        assert!(ppm.starts_with(b"P6"));
        assert!(ppm.len() > 80 * 60);
    }

    #[test]
    fn channels_share_the_world_until_one_renders_pixels() {
        let (mut left, right) = (display(false), display(false));
        let mut pixels = display(true);
        left.render_frame();
        assert!(Arc::ptr_eq(&left.world, &right.world), "cost-model channels share one world");
        assert!(Arc::ptr_eq(&pixels.world, &left.world), "nothing is copied before a frame");

        pixels.crane.chassis_position = Vec3::new(4.0, 0.0, -20.0);
        pixels.crane.chassis_yaw = 0.3;
        pixels.render_frame();
        assert!(!Arc::ptr_eq(&pixels.world, &left.world), "the rendering channel has its own");

        let chassis = left.world.crane.chassis;
        let built = TrainingWorld::build().scene.world_transform(chassis);
        assert_eq!(TrainingWorld::shared().scene.world_transform(chassis), built);
        assert_ne!(pixels.world.scene.world_transform(chassis), built);
    }

    #[test]
    fn channels_spread_across_the_surround_fov() {
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();
        let left = VisualDisplayLp::new(
            registry.clone(),
            fom,
            0,
            3,
            32,
            24,
            false,
            GpuCostModel::tnt2_class(),
            telemetry.clone(),
        );
        let right = VisualDisplayLp::new(
            registry,
            fom,
            2,
            3,
            32,
            24,
            false,
            GpuCostModel::tnt2_class(),
            telemetry,
        );
        assert!(left.yaw_offset < 0.0 && right.yaw_offset > 0.0);
        assert!((right.yaw_offset - left.yaw_offset).to_degrees() > 70.0);
        assert!((right.camera().yaw - left.camera().yaw).to_degrees() > 70.0);
    }

    #[test]
    #[should_panic]
    fn channel_index_must_be_in_range() {
        let (registry, fom) = CraneFom::standard();
        let _ = VisualDisplayLp::new(
            registry,
            fom,
            3,
            3,
            32,
            24,
            false,
            GpuCostModel::tnt2_class(),
            SharedTelemetry::new(),
        );
    }
}
