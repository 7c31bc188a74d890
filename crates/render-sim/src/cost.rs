//! Period-accurate GPU cost model.
//!
//! The display computers of the original system used TNT2 M64 accelerators;
//! the measured result was 16 fps for 3 235 polygons on three synchronized
//! channels (paper §4). This model converts per-frame workload (triangles
//! submitted, pixels filled) into a frame time with coefficients calibrated so
//! that the reproduction lands in the same regime: a single channel renders the
//! training world in roughly 55 ms and the three-channel swap-locked surround
//! view comes out at roughly 16 fps.

use cod_net::Micros;

/// Cost coefficients of one display channel (CPU + AGP + GPU of one desktop PC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCostModel {
    /// Fixed per-frame overhead (scene traversal, state changes, buffer swap), microseconds.
    pub frame_overhead_us: f64,
    /// Cost per triangle submitted (transform, lighting, setup), microseconds.
    pub per_triangle_us: f64,
    /// Cost per pixel filled, nanoseconds.
    pub per_pixel_ns: f64,
}

impl Default for GpuCostModel {
    fn default() -> Self {
        GpuCostModel::tnt2_class()
    }
}

impl GpuCostModel {
    /// Coefficients representative of the TNT2-class accelerator and the
    /// ~600 MHz desktop CPUs of the paper's rack.
    pub fn tnt2_class() -> GpuCostModel {
        GpuCostModel { frame_overhead_us: 8_000.0, per_triangle_us: 12.0, per_pixel_ns: 38.0 }
    }

    /// A roughly 4x faster card of a couple of years later, used by the
    /// "further accelerating the frame rate is possible" ablation.
    pub fn next_generation() -> GpuCostModel {
        GpuCostModel { frame_overhead_us: 4_000.0, per_triangle_us: 3.0, per_pixel_ns: 10.0 }
    }

    /// Estimated frame time for `triangles` submitted triangles and
    /// `pixels_filled` shaded pixels.
    pub fn frame_time(&self, triangles: usize, pixels_filled: usize) -> Micros {
        let us = self.frame_overhead_us
            + self.per_triangle_us * triangles as f64
            + self.per_pixel_ns * pixels_filled as f64 / 1_000.0;
        Micros(us.round() as u64)
    }

    /// Estimated frame time assuming a typical depth-complexity coverage of a
    /// 640x480 channel (the resolution of the original displays).
    pub fn frame_time_for_scene(&self, triangles: usize) -> Micros {
        // Empirically the training world fills roughly 70 % of the screen with
        // an average depth complexity of 1.6.
        let pixels = (640.0 * 480.0 * 0.7 * 1.6) as usize;
        self.frame_time(triangles, pixels)
    }

    /// Frames per second for a given frame time. Unlike
    /// [`Micros::rate_hz`], which reads a zero period as "not timed yet" and
    /// returns 0, a zero render time is infinitely fast here
    /// (`fps_of_zero_frame_time_is_infinite` pins it).
    pub fn fps(frame_time: Micros) -> f64 {
        if frame_time == Micros::ZERO {
            f64::INFINITY
        } else {
            1.0 / frame_time.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scene_lands_near_the_reported_regime() {
        let model = GpuCostModel::tnt2_class();
        let single_channel = model.frame_time_for_scene(3_235);
        let fps = GpuCostModel::fps(single_channel);
        // A single free-running channel should be in the high-teens of fps;
        // the swap-locked three-channel view (sync overhead added elsewhere)
        // then lands at the paper's 16 fps.
        assert!(fps > 14.0 && fps < 22.0, "single-channel fps = {fps}");
    }

    #[test]
    fn cost_grows_with_triangles_and_pixels() {
        let model = GpuCostModel::tnt2_class();
        assert!(model.frame_time(10_000, 100_000) > model.frame_time(1_000, 100_000));
        assert!(model.frame_time(1_000, 400_000) > model.frame_time(1_000, 100_000));
    }

    #[test]
    fn faster_hardware_is_faster() {
        let old = GpuCostModel::tnt2_class().frame_time_for_scene(3_235);
        let new = GpuCostModel::next_generation().frame_time_for_scene(3_235);
        assert!(new < old);
        assert!(GpuCostModel::fps(new) > 30.0, "next-gen hardware should clear the 30 fps bar");
    }

    #[test]
    fn fps_of_zero_frame_time_is_infinite() {
        assert!(GpuCostModel::fps(Micros::ZERO).is_infinite());
    }
}
