//! Column-major 3x3 and 4x4 matrices.

use crate::vec::Vec3;
use std::ops::Mul;

/// A 3x3 matrix stored as three columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Columns of the matrix.
    pub cols: [Vec3; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::identity()
    }
}

impl Mat3 {
    /// The identity matrix.
    pub fn identity() -> Mat3 {
        Mat3 { cols: [Vec3::unit_x(), Vec3::unit_y(), Vec3::unit_z()] }
    }

    /// Builds a matrix from three column vectors.
    pub fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Mat3 {
        Mat3 { cols: [c0, c1, c2] }
    }

    /// Rotation about the X axis by `angle` radians.
    pub fn rotation_x(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_cols(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, c, s), Vec3::new(0.0, -s, c))
    }

    /// Rotation about the Y axis by `angle` radians.
    pub fn rotation_y(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_cols(Vec3::new(c, 0.0, -s), Vec3::new(0.0, 1.0, 0.0), Vec3::new(s, 0.0, c))
    }

    /// Rotation about the Z axis by `angle` radians.
    pub fn rotation_z(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_cols(Vec3::new(c, s, 0.0), Vec3::new(-s, c, 0.0), Vec3::new(0.0, 0.0, 1.0))
    }

    /// Transposed matrix.
    pub fn transposed(&self) -> Mat3 {
        Mat3::from_cols(
            Vec3::new(self.cols[0].x, self.cols[1].x, self.cols[2].x),
            Vec3::new(self.cols[0].y, self.cols[1].y, self.cols[2].y),
            Vec3::new(self.cols[0].z, self.cols[1].z, self.cols[2].z),
        )
    }

    /// Determinant of the matrix.
    pub fn determinant(&self) -> f64 {
        self.cols[0].dot(self.cols[1].cross(self.cols[2]))
    }

    /// Transforms a vector.
    pub fn transform(&self, v: Vec3) -> Vec3 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z
    }
}

impl Mul for Mat3 {
    type Output = Mat3;

    fn mul(self, rhs: Mat3) -> Mat3 {
        Mat3::from_cols(
            self.transform(rhs.cols[0]),
            self.transform(rhs.cols[1]),
            self.transform(rhs.cols[2]),
        )
    }
}

/// A 4x4 matrix stored row-major as `m[row][col]`, used by the rendering pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Rows of the matrix.
    pub m: [[f64; 4]; 4],
}

impl Default for Mat4 {
    fn default() -> Self {
        Mat4::identity()
    }
}

impl Mat4 {
    /// The identity matrix.
    pub fn identity() -> Mat4 {
        let mut m = [[0.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        Mat4 { m }
    }

    /// Translation matrix.
    pub fn translation(t: Vec3) -> Mat4 {
        let mut m = Mat4::identity();
        m.m[0][3] = t.x;
        m.m[1][3] = t.y;
        m.m[2][3] = t.z;
        m
    }

    /// Uniform or per-axis scale matrix.
    pub fn scale(s: Vec3) -> Mat4 {
        let mut m = Mat4::identity();
        m.m[0][0] = s.x;
        m.m[1][1] = s.y;
        m.m[2][2] = s.z;
        m
    }

    /// Embeds a 3x3 rotation into a 4x4 matrix.
    pub fn from_mat3(r: &Mat3) -> Mat4 {
        let mut m = Mat4::identity();
        for col in 0..3 {
            m.m[0][col] = r.cols[col].x;
            m.m[1][col] = r.cols[col].y;
            m.m[2][col] = r.cols[col].z;
        }
        m
    }

    /// Right-handed perspective projection.
    ///
    /// `fov_y` is the vertical field of view in radians, `aspect` is width/height,
    /// `near`/`far` are the positive clip-plane distances.
    ///
    /// # Panics
    ///
    /// Panics if `near <= 0`, `far <= near` or `aspect <= 0`.
    pub fn perspective(fov_y: f64, aspect: f64, near: f64, far: f64) -> Mat4 {
        assert!(near > 0.0 && far > near && aspect > 0.0, "invalid projection parameters");
        let f = 1.0 / (fov_y / 2.0).tan();
        let mut m = Mat4 { m: [[0.0; 4]; 4] };
        m.m[0][0] = f / aspect;
        m.m[1][1] = f;
        m.m[2][2] = (far + near) / (near - far);
        m.m[2][3] = (2.0 * far * near) / (near - far);
        m.m[3][2] = -1.0;
        m
    }

    /// Right-handed look-at view matrix.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4 {
        let forward = (target - eye).normalized_or(Vec3::new(0.0, 0.0, -1.0));
        let right = forward.cross(up).normalized_or(Vec3::unit_x());
        let true_up = right.cross(forward);
        let mut m = Mat4::identity();
        m.m[0] = [right.x, right.y, right.z, -right.dot(eye)];
        m.m[1] = [true_up.x, true_up.y, true_up.z, -true_up.dot(eye)];
        m.m[2] = [-forward.x, -forward.y, -forward.z, forward.dot(eye)];
        m
    }

    /// Transforms a point (w = 1) and performs the perspective divide.
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        let (v, w) = self.transform_homogeneous(p);
        if w.abs() <= crate::EPSILON {
            v
        } else {
            v / w
        }
    }

    /// Transforms a point (w = 1) returning the un-divided result and `w`.
    pub fn transform_homogeneous(&self, p: Vec3) -> (Vec3, f64) {
        let x = self.m[0][0] * p.x + self.m[0][1] * p.y + self.m[0][2] * p.z + self.m[0][3];
        let y = self.m[1][0] * p.x + self.m[1][1] * p.y + self.m[1][2] * p.z + self.m[1][3];
        let z = self.m[2][0] * p.x + self.m[2][1] * p.y + self.m[2][2] * p.z + self.m[2][3];
        let w = self.m[3][0] * p.x + self.m[3][1] * p.y + self.m[3][2] * p.z + self.m[3][3];
        (Vec3::new(x, y, z), w)
    }

    /// Transforms a direction (w = 0); translation is ignored.
    pub fn transform_direction(&self, d: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * d.x + self.m[0][1] * d.y + self.m[0][2] * d.z,
            self.m[1][0] * d.x + self.m[1][1] * d.y + self.m[1][2] * d.z,
            self.m[2][0] * d.x + self.m[2][1] * d.y + self.m[2][2] * d.z,
        )
    }
}

impl Mul for Mat4 {
    type Output = Mat4;

    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4 { m: [[0.0; 4]; 4] };
        for r in 0..4 {
            for c in 0..4 {
                out.m[r][c] = (0..4).map(|k| self.m[r][k] * rhs.m[k][c]).sum();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn mat3_identity_is_noop() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::identity().transform(v), v);
    }

    #[test]
    fn mat3_rotation_y_quarter_turn() {
        let v = Mat3::rotation_y(FRAC_PI_2).transform(Vec3::unit_x());
        assert!(approx_eq(v.x, 0.0, 1e-12));
        assert!(approx_eq(v.z, -1.0, 1e-12));
    }

    #[test]
    fn mat3_rotation_determinant_is_one() {
        for a in [0.1, 0.7, 2.3] {
            assert!(approx_eq(Mat3::rotation_x(a).determinant(), 1.0, 1e-12));
            assert!(approx_eq(Mat3::rotation_z(a).determinant(), 1.0, 1e-12));
        }
    }

    #[test]
    fn mat4_translation_moves_points_not_directions() {
        let t = Mat4::translation(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(t.transform_point(Vec3::ZERO), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(t.transform_direction(Vec3::unit_x()), Vec3::unit_x());
    }

    #[test]
    fn mat4_mul_composes() {
        let a = Mat4::translation(Vec3::new(1.0, 0.0, 0.0));
        let b = Mat4::translation(Vec3::new(0.0, 2.0, 0.0));
        let p = (a * b).transform_point(Vec3::ZERO);
        assert_eq!(p, Vec3::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn look_at_centers_target_on_axis() {
        let view = Mat4::look_at(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, Vec3::unit_y());
        let p = view.transform_point(Vec3::ZERO);
        assert!(approx_eq(p.x, 0.0, 1e-9));
        assert!(approx_eq(p.y, 0.0, 1e-9));
        assert!(approx_eq(p.z, -10.0, 1e-9));
    }

    #[test]
    fn perspective_maps_near_plane_center() {
        let proj = Mat4::perspective(FRAC_PI_2, 1.0, 1.0, 100.0);
        let p = proj.transform_point(Vec3::new(0.0, 0.0, -1.0));
        assert!(approx_eq(p.z, -1.0, 1e-9));
    }

    #[test]
    #[should_panic]
    fn perspective_rejects_bad_params() {
        let _ = Mat4::perspective(1.0, 1.0, -1.0, 10.0);
    }
}
