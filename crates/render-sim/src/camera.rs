//! The viewing camera.

use sim_math::{Mat4, Vec3};

/// A perspective camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Eye position in world space.
    pub position: Vec3,
    /// Yaw about +Y in radians (0 looks along -Z... see [`Camera::forward`]).
    pub yaw: f64,
    /// Pitch in radians (positive looks up).
    pub pitch: f64,
    /// Vertical field of view in radians.
    pub fov_y: f64,
    /// Aspect ratio (width / height).
    pub aspect: f64,
    /// Near clip distance.
    pub near: f64,
    /// Far clip distance.
    pub far: f64,
}

impl Default for Camera {
    fn default() -> Self {
        Camera {
            position: Vec3::new(0.0, 2.0, 0.0),
            yaw: 0.0,
            pitch: 0.0,
            fov_y: 50f64.to_radians(),
            aspect: 4.0 / 3.0,
            near: 0.5,
            far: 400.0,
        }
    }
}

impl Camera {
    /// A camera at `position` looking toward `target`.
    pub fn look_at(position: Vec3, target: Vec3) -> Camera {
        let dir = (target - position).normalized_or(Vec3::new(0.0, 0.0, 1.0));
        Camera { position, yaw: dir.x.atan2(dir.z), pitch: dir.y.asin(), ..Camera::default() }
    }

    /// The forward (viewing) direction.
    pub fn forward(&self) -> Vec3 {
        Vec3::new(
            self.pitch.cos() * self.yaw.sin(),
            self.pitch.sin(),
            self.pitch.cos() * self.yaw.cos(),
        )
    }

    /// A copy with the yaw rotated by `delta` radians (used by the surround view).
    pub fn with_yaw_offset(&self, delta: f64) -> Camera {
        Camera { yaw: self.yaw + delta, ..*self }
    }

    /// View matrix (world to camera space).
    pub fn view_matrix(&self) -> Mat4 {
        Mat4::look_at(self.position, self.position + self.forward(), Vec3::unit_y())
    }

    /// Projection matrix.
    pub fn projection_matrix(&self) -> Mat4 {
        Mat4::perspective(self.fov_y, self.aspect, self.near, self.far)
    }

    /// Combined view-projection matrix.
    pub fn view_projection(&self) -> Mat4 {
        self.projection_matrix() * self.view_matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn look_at_faces_the_target() {
        let cam = Camera::look_at(Vec3::new(0.0, 5.0, -10.0), Vec3::new(0.0, 5.0, 0.0));
        assert!(cam.forward().dot(Vec3::unit_z()) > 0.99);
    }

    #[test]
    fn point_in_front_projects_inside_ndc() {
        let cam = Camera::look_at(Vec3::new(0.0, 2.0, -10.0), Vec3::new(0.0, 2.0, 0.0));
        let clip = cam.view_projection().transform_point(Vec3::new(0.0, 2.0, 0.0));
        assert!(clip.x.abs() <= 1.0 && clip.y.abs() <= 1.0 && clip.z.abs() <= 1.0);
    }

    #[test]
    fn point_behind_projects_outside() {
        let cam = Camera::look_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 10.0));
        let (_, w) = cam.view_projection().transform_homogeneous(Vec3::new(0.0, 0.0, -5.0));
        assert!(w < 0.0, "points behind the camera have negative clip w");
    }

    #[test]
    fn yaw_offset_rotates_forward() {
        let cam = Camera::look_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 10.0));
        let left = cam.with_yaw_offset(40f64.to_radians());
        assert!((left.forward().dot(cam.forward()) - 40f64.to_radians().cos()).abs() < 1e-9);
    }
}
