//! The three-channel surround view (paper §3.7 and §4).
//!
//! "Three monitors are used to provide around 120 degrees of surround view.
//! This surround view system is fully synchronized with each other so that a
//! consistent view will be displayed." Each channel is a [`Renderer`] with the
//! same eye point but a different yaw offset; the swap-lock model adds the
//! synchronization overhead the fourth computer imposed.

use cod_net::Micros;
use crane_scene::graph::SceneGraph;

use crate::camera::Camera;
use crate::cost::GpuCostModel;
use crate::pipeline::{RenderStats, Renderer};

/// Per-frame statistics of the whole surround view.
#[derive(Debug, Clone, PartialEq)]
pub struct SurroundStats {
    /// Per-channel render statistics (left to right).
    pub channels: Vec<RenderStats>,
    /// Per-channel modeled frame times.
    pub channel_times: Vec<Micros>,
    /// Frame period of the synchronized (swap-locked) view.
    pub synchronized_period: Micros,
    /// Frame period the slowest channel would achieve free-running.
    pub free_running_period: Micros,
}

impl SurroundStats {
    /// Synchronized frame rate in frames per second.
    pub fn synchronized_fps(&self) -> f64 {
        GpuCostModel::fps(self.synchronized_period)
    }

    /// Free-running frame rate of the slowest channel.
    pub fn free_running_fps(&self) -> f64 {
        GpuCostModel::fps(self.free_running_period)
    }

    /// Fraction of the synchronized frame spent on synchronization overhead.
    pub fn sync_overhead_fraction(&self) -> f64 {
        if self.synchronized_period == Micros::ZERO {
            return 0.0;
        }
        (self.synchronized_period.0 - self.free_running_period.0) as f64
            / self.synchronized_period.0 as f64
    }
}

/// The three (or more) display channels of the simulator.
#[derive(Debug)]
pub struct SurroundView {
    renderers: Vec<Renderer>,
    yaw_offsets: Vec<f64>,
    cost_model: GpuCostModel,
    /// Swap-lock barrier overhead per frame (LAN round trip + server processing).
    pub barrier_overhead: Micros,
}

impl SurroundView {
    /// Creates a surround view with `channels` channels of `width` x `height`
    /// pixels each, spreading `total_fov` radians of yaw across the channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize, width: usize, height: usize, total_fov: f64) -> SurroundView {
        assert!(channels > 0, "at least one display channel is required");
        let per_channel = total_fov / channels as f64;
        let yaw_offsets = (0..channels)
            .map(|i| (i as f64 - (channels as f64 - 1.0) / 2.0) * per_channel)
            .collect();
        SurroundView {
            renderers: (0..channels).map(|_| Renderer::new(width, height)).collect(),
            yaw_offsets,
            cost_model: GpuCostModel::tnt2_class(),
            barrier_overhead: Micros::from_millis(3),
        }
    }

    /// The standard configuration of the paper: three 640x480 channels
    /// covering roughly 120 degrees.
    pub fn paper_configuration() -> SurroundView {
        SurroundView::new(3, 640, 480, 120f64.to_radians())
    }

    /// Replaces the hardware cost model (e.g. with [`GpuCostModel::next_generation`]).
    pub fn set_cost_model(&mut self, model: GpuCostModel) {
        self.cost_model = model;
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.renderers.len()
    }

    /// Access to one channel's renderer (for screenshots).
    pub fn renderer(&self, channel: usize) -> &Renderer {
        &self.renderers[channel]
    }

    /// Renders every channel from `center_camera` (each channel applies its yaw
    /// offset) and returns the per-frame statistics including the swap-lock model.
    pub fn render(&mut self, scene: &SceneGraph, center_camera: &Camera) -> SurroundStats {
        let mut channels = Vec::with_capacity(self.renderers.len());
        let mut channel_times = Vec::with_capacity(self.renderers.len());
        for (renderer, yaw) in self.renderers.iter_mut().zip(&self.yaw_offsets) {
            let camera = center_camera.with_yaw_offset(*yaw);
            let stats = renderer.render(scene, &camera);
            channel_times.push(stats.frame_time(&self.cost_model));
            channels.push(stats);
        }
        let free_running_period = channel_times.iter().copied().max().unwrap_or(Micros::ZERO);
        SurroundStats {
            channels,
            channel_times,
            synchronized_period: free_running_period + self.barrier_overhead,
            free_running_period,
        }
    }

    /// Frame-time estimate without rendering: uses the cost model's standard
    /// screen coverage for a scene of `triangles` polygons per channel.
    pub fn estimate(&self, triangles: usize) -> SurroundStats {
        let per_channel = self.cost_model.frame_time_for_scene(triangles);
        let channel_times = vec![per_channel; self.renderers.len()];
        SurroundStats {
            channels: Vec::new(),
            channel_times,
            synchronized_period: per_channel + self.barrier_overhead,
            free_running_period: per_channel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crane_scene::world::TrainingWorld;
    use sim_math::Vec3;

    #[test]
    fn paper_configuration_reproduces_the_sixteen_fps_regime() {
        let view = SurroundView::paper_configuration();
        let stats = view.estimate(3_235);
        let fps = stats.synchronized_fps();
        assert!(fps > 14.0 && fps < 18.0, "synchronized fps = {fps}");
        // Removing the synchronization overhead buys a measurable speedup,
        // which is what the paper's §5 hints at.
        assert!(stats.free_running_fps() > fps);
        assert!(stats.sync_overhead_fraction() > 0.02);
    }

    #[test]
    fn channels_see_different_parts_of_the_world() {
        let world = TrainingWorld::build();
        let mut view = SurroundView::new(3, 80, 60, 120f64.to_radians());
        let camera = Camera::look_at(Vec3::new(0.0, 4.0, -50.0), Vec3::new(0.0, 2.0, 60.0));
        let stats = view.render(&world.scene, &camera);
        assert_eq!(stats.channels.len(), 3);
        // The three channels cover different yaw ranges and therefore submit
        // different triangle counts.
        let submitted: Vec<usize> = stats.channels.iter().map(|c| c.triangles_submitted).collect();
        assert!(submitted.iter().any(|s| *s != submitted[0]), "channels identical: {submitted:?}");
        assert!(stats.synchronized_period > stats.free_running_period);
    }

    #[test]
    fn golden_image_checksums_of_the_three_channels() {
        // The golden-image regression: render the three 64x48 channels of the
        // standard training world from a fixed camera and compare framebuffer
        // checksums, replacing eyeballing of the PPM screenshots. If a change
        // *intentionally* alters rendering, regenerate with:
        //   view.renderer(c).framebuffer().checksum()
        // and update the constants below.
        let world = TrainingWorld::build();
        let mut view = SurroundView::new(3, 64, 48, 120f64.to_radians());
        let camera = Camera::look_at(Vec3::new(0.0, 5.0, -55.0), Vec3::new(0.0, 2.0, 40.0));
        view.render(&world.scene, &camera);
        let checksums: [u64; 3] =
            core::array::from_fn(|c| view.renderer(c).framebuffer().checksum());

        // The scene path goes through f64 sin/cos, whose last-ulp results are
        // platform-libm dependent, so the exact constants are only asserted on
        // the platform CI runs; other platforms still get the structural and
        // stability checks below.
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            const GOLDEN: [u64; 3] =
                [0x6ba0_2a5c_fb05_12d8, 0xc2ac_e342_ecfd_a978, 0xf84d_f7aa_497e_61fb];
            assert_eq!(
                checksums, GOLDEN,
                "surround rendering changed; if intentional, update the golden checksums"
            );
        }
        // The three views really are distinct images.
        assert_ne!(checksums[0], checksums[1]);
        assert_ne!(checksums[1], checksums[2]);

        // Re-rendering the same frame is bit-stable (the golden values are
        // meaningful, not an accident of initialization).
        view.render(&world.scene, &camera);
        let again: [u64; 3] = core::array::from_fn(|c| view.renderer(c).framebuffer().checksum());
        assert_eq!(again, checksums);
    }

    #[test]
    fn more_channels_do_not_change_the_synchronized_period_model() {
        let three = SurroundView::new(3, 64, 48, 2.0).estimate(3_000);
        let five = SurroundView::new(5, 64, 48, 2.5).estimate(3_000);
        // Channels render in parallel on their own computers, so the period is
        // set by the per-channel time plus the barrier, independent of count.
        assert_eq!(three.synchronized_period, five.synchronized_period);
    }

    #[test]
    fn faster_hardware_raises_the_frame_rate() {
        let mut view = SurroundView::paper_configuration();
        let old = view.estimate(3_235).synchronized_fps();
        view.set_cost_model(GpuCostModel::next_generation());
        let new = view.estimate(3_235).synchronized_fps();
        assert!(new > old * 2.0, "old {old}, new {new}");
    }

    #[test]
    #[should_panic]
    fn zero_channels_rejected() {
        let _ = SurroundView::new(0, 64, 48, 1.0);
    }
}
