//! Unit quaternions for representing 3D orientation.

use crate::mat::Mat3;
use crate::vec::Vec3;
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk`, normally kept at unit length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    pub w: f64,
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::identity()
    }
}

impl Quat {
    /// The identity rotation.
    pub const fn identity() -> Quat {
        Quat { w: 1.0, x: 0.0, y: 0.0, z: 0.0 }
    }

    /// Creates a quaternion from raw components (not normalized).
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Quat {
        Quat { w, x, y, z }
    }

    /// Creates a rotation of `angle` radians about `axis`.
    ///
    /// A zero axis yields the identity rotation.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Quat {
        match axis.normalized() {
            None => Quat::identity(),
            Some(a) => {
                let (s, c) = (angle / 2.0).sin_cos();
                Quat::new(c, a.x * s, a.y * s, a.z * s)
            }
        }
    }

    /// Creates a rotation from yaw (about Y), pitch (about X) and roll (about Z),
    /// applied in yaw → pitch → roll order. All angles in radians.
    pub fn from_yaw_pitch_roll(yaw: f64, pitch: f64, roll: f64) -> Quat {
        let qy = Quat::from_axis_angle(Vec3::unit_y(), yaw);
        let qp = Quat::from_axis_angle(Vec3::unit_x(), pitch);
        let qr = Quat::from_axis_angle(Vec3::unit_z(), roll);
        qy * qp * qr
    }

    /// Extracts `(yaw, pitch, roll)` matching [`Quat::from_yaw_pitch_roll`].
    pub fn to_yaw_pitch_roll(&self) -> (f64, f64, f64) {
        // Rotate basis vectors and recover the angles from the rotation matrix
        // entries of the Y-X-Z (yaw-pitch-roll) convention.
        let m = self.to_mat3();
        // column-major: m.cols[c] is image of basis vector c
        let m00 = m.cols[0].x;
        let m02 = m.cols[2].x;
        let m10 = m.cols[0].y;
        let m11 = m.cols[1].y;
        let m12 = m.cols[2].y;
        let m20 = m.cols[0].z;
        let m22 = m.cols[2].z;
        let pitch = (-m12).asin().clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
        if m12.abs() < 0.999_999 {
            let yaw = m02.atan2(m22);
            let roll = m10.atan2(m11);
            (yaw, pitch, roll)
        } else {
            // Gimbal lock: pitch at +-90 degrees; put all remaining rotation in yaw.
            let yaw = (-m20).atan2(m00);
            (yaw, pitch, 0.0)
        }
    }

    /// Squared norm.
    pub fn norm_squared(&self) -> f64 {
        self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Norm.
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Returns the normalized quaternion; the identity if the norm is (nearly) zero.
    pub fn normalized(&self) -> Quat {
        let n = self.norm();
        if n <= crate::EPSILON {
            Quat::identity()
        } else {
            Quat::new(self.w / n, self.x / n, self.y / n, self.z / n)
        }
    }

    /// Rotates a vector by this quaternion.
    pub fn rotate(&self, v: Vec3) -> Vec3 {
        let u = Vec3::new(self.x, self.y, self.z);
        let s = self.w;
        u * (2.0 * u.dot(v)) + v * (s * s - u.dot(u)) + u.cross(v) * (2.0 * s)
    }

    /// Converts to a 3x3 rotation matrix.
    pub fn to_mat3(&self) -> Mat3 {
        Mat3::from_cols(
            self.rotate(Vec3::unit_x()),
            self.rotate(Vec3::unit_y()),
            self.rotate(Vec3::unit_z()),
        )
    }

    /// Dot product of two quaternions.
    pub fn dot(&self, rhs: &Quat) -> f64 {
        self.w * rhs.w + self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Spherical linear interpolation between unit quaternions.
    ///
    /// `t` is not clamped; `t = 0` returns `self`, `t = 1` returns `rhs`
    /// (up to sign, taking the shortest arc).
    pub fn slerp(&self, rhs: &Quat, t: f64) -> Quat {
        let mut cos_theta = self.dot(rhs);
        let mut end = *rhs;
        if cos_theta < 0.0 {
            cos_theta = -cos_theta;
            end = Quat::new(-rhs.w, -rhs.x, -rhs.y, -rhs.z);
        }
        if cos_theta > 0.9995 {
            // Nearly identical: fall back to normalized lerp.
            return Quat::new(
                self.w + (end.w - self.w) * t,
                self.x + (end.x - self.x) * t,
                self.y + (end.y - self.y) * t,
                self.z + (end.z - self.z) * t,
            )
            .normalized();
        }
        let theta = cos_theta.clamp(-1.0, 1.0).acos();
        let sin_theta = theta.sin();
        let a = ((1.0 - t) * theta).sin() / sin_theta;
        let b = (t * theta).sin() / sin_theta;
        Quat::new(
            self.w * a + end.w * b,
            self.x * a + end.x * b,
            self.y * a + end.y * b,
            self.z * a + end.z * b,
        )
        .normalized()
    }

    /// Angular distance in radians between two unit quaternions.
    pub fn angle_to(&self, rhs: &Quat) -> f64 {
        let d = self.dot(rhs).abs().clamp(-1.0, 1.0);
        2.0 * d.acos()
    }
}

impl Mul for Quat {
    type Output = Quat;

    /// Hamilton product; `a * b` applies `b` first, then `a`.
    fn mul(self, r: Quat) -> Quat {
        Quat::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(Quat::identity().rotate(v).distance(v) < 1e-12);
    }

    #[test]
    fn axis_angle_quarter_turn_about_y() {
        let q = Quat::from_axis_angle(Vec3::unit_y(), FRAC_PI_2);
        let v = q.rotate(Vec3::unit_x());
        assert!(approx_eq(v.z, -1.0, 1e-12));
        assert!(approx_eq(v.x, 0.0, 1e-12));
    }

    #[test]
    fn zero_axis_gives_identity() {
        let q = Quat::from_axis_angle(Vec3::ZERO, 1.0);
        assert_eq!(q, Quat::identity());
    }

    #[test]
    fn slerp_endpoints_and_midpoint() {
        let a = Quat::identity();
        let b = Quat::from_axis_angle(Vec3::unit_y(), FRAC_PI_2);
        assert!(a.slerp(&b, 0.0).angle_to(&a) < 1e-9);
        assert!(a.slerp(&b, 1.0).angle_to(&b) < 1e-9);
        let mid = a.slerp(&b, 0.5);
        assert!(approx_eq(mid.angle_to(&a), FRAC_PI_4, 1e-9));
    }

    #[test]
    fn yaw_pitch_roll_roundtrip() {
        let (yaw, pitch, roll) = (0.4, -0.3, 0.9);
        let q = Quat::from_yaw_pitch_roll(yaw, pitch, roll);
        let (y2, p2, r2) = q.to_yaw_pitch_roll();
        assert!(approx_eq(yaw, y2, 1e-9));
        assert!(approx_eq(pitch, p2, 1e-9));
        assert!(approx_eq(roll, r2, 1e-9));
    }

    #[test]
    fn mat3_conversion_matches_rotate() {
        let q = Quat::from_yaw_pitch_roll(1.0, 0.2, -0.5);
        let m = q.to_mat3();
        let v = Vec3::new(0.5, 1.5, -2.0);
        assert!(m.transform(v).distance(q.rotate(v)) < 1e-9);
    }

    fn arb_quat() -> impl Strategy<Value = Quat> {
        (-PI..PI, -1.0..1.0f64, -PI..PI).prop_map(|(a, b, c)| Quat::from_yaw_pitch_roll(a, b, c))
    }

    proptest! {
        #[test]
        fn prop_rotation_preserves_length(q in arb_quat(), x in -10.0..10.0f64, y in -10.0..10.0f64, z in -10.0..10.0f64) {
            let v = Vec3::new(x, y, z);
            prop_assert!((q.rotate(v).length() - v.length()).abs() < 1e-9);
        }

        #[test]
        fn prop_composition_matches_sequential(a in arb_quat(), b in arb_quat(), x in -5.0..5.0f64) {
            let v = Vec3::new(x, 1.0, -2.0);
            let lhs = (a * b).rotate(v);
            let rhs = a.rotate(b.rotate(v));
            prop_assert!(lhs.distance(rhs) < 1e-9);
        }

        #[test]
        fn prop_unit_norm(q in arb_quat()) {
            prop_assert!((q.norm() - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_normalized_restores_unit_length(w in -4.0..4.0f64, x in -4.0..4.0f64,
                                                y in -4.0..4.0f64, z in -4.0..4.0f64) {
            let q = Quat::new(w, x, y, z);
            let n = q.normalized();
            // Any raw quaternion normalizes to exact unit length (or identity
            // for the near-zero case).
            prop_assert!((n.norm() - 1.0).abs() < 1e-12);
        }

        #[test]
        fn prop_slerp_preserves_unit_norm(a in arb_quat(), b in arb_quat(), t in 0.0..1.0f64) {
            let s = a.slerp(&b, t);
            prop_assert!((s.norm() - 1.0).abs() < 1e-9, "slerp denormalized: {}", s.norm());
        }

        #[test]
        fn prop_slerp_angle_is_monotone_along_t(a in arb_quat(), b in arb_quat()) {
            // The angular distance from the start grows with t on [0, 1].
            let quarter = a.slerp(&b, 0.25);
            let half = a.slerp(&b, 0.5);
            let full = a.slerp(&b, 1.0);
            prop_assert!(a.angle_to(&quarter) <= a.angle_to(&half) + 1e-9);
            prop_assert!(a.angle_to(&half) <= a.angle_to(&full) + 1e-9);
        }

        #[test]
        fn prop_unit_norm_preserved_across_1k_composed_steps(axis_x in -1.0..1.0f64,
                                                             axis_y in -1.0..1.0f64,
                                                             angle in 0.001..0.1f64) {
            // Repeatedly composing a small per-frame rotation (as the dynamics
            // module does every step) must not drift off the unit sphere when
            // renormalizing, which is what the visual channels rely on.
            let step = Quat::from_axis_angle(Vec3::new(axis_x, axis_y, 1.0), angle);
            let mut q = Quat::identity();
            for _ in 0..1_000 {
                q = (step * q).normalized();
            }
            prop_assert!((q.norm() - 1.0).abs() < 1e-12, "drifted to {}", q.norm());
            // The orientation stays a genuine rotation: lengths are preserved.
            let v = Vec3::new(0.3, -1.2, 2.0);
            prop_assert!((q.rotate(v).length() - v.length()).abs() < 1e-9);
        }
    }
}
