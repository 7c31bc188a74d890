//! Rigid-body transform (translation + rotation).

use crate::quat::Quat;
use crate::vec::Vec3;

/// A rigid transform: rotation followed by translation.
///
/// Used for scene-graph node poses, the crane chassis pose, and the motion
/// platform pose.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Transform {
    /// Translation component.
    pub translation: Vec3,
    /// Rotation component (unit quaternion).
    pub rotation: Quat,
}

impl Transform {
    /// The identity transform.
    pub fn identity() -> Transform {
        Transform { translation: Vec3::ZERO, rotation: Quat::identity() }
    }

    /// Creates a transform from a translation and rotation.
    pub fn new(translation: Vec3, rotation: Quat) -> Transform {
        Transform { translation, rotation }
    }

    /// Creates a pure translation.
    pub fn from_translation(translation: Vec3) -> Transform {
        Transform { translation, rotation: Quat::identity() }
    }

    /// Applies the transform to a point.
    pub fn apply(&self, p: Vec3) -> Vec3 {
        self.rotation.rotate(p) + self.translation
    }

    /// Applies only the rotation to a direction.
    pub fn apply_direction(&self, d: Vec3) -> Vec3 {
        self.rotation.rotate(d)
    }

    /// Composes two transforms: `self.then(child)` maps child-local points into
    /// the parent space of `self`.
    pub fn then(&self, child: &Transform) -> Transform {
        Transform {
            translation: self.apply(child.translation),
            rotation: self.rotation * child.rotation,
        }
    }

    /// Interpolates between two rigid transforms (lerp for translation, slerp
    /// for rotation). `t` outside `[0, 1]` extrapolates linearly for the
    /// translation and clamps along the arc for the rotation.
    pub fn interpolate(&self, other: &Transform, t: f64) -> Transform {
        Transform {
            translation: self.translation.lerp(other.translation, t),
            rotation: self.rotation.slerp(&other.rotation, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn apply_rotates_then_translates() {
        let t = Transform::new(
            Vec3::new(10.0, 0.0, 0.0),
            Quat::from_axis_angle(Vec3::unit_y(), FRAC_PI_2),
        );
        let p = t.apply(Vec3::unit_x());
        assert!((p.x - 10.0).abs() < 1e-9);
        assert!((p.z + 1.0).abs() < 1e-9);
    }

    #[test]
    fn composition_matches_sequential_application() {
        let a =
            Transform::new(Vec3::new(1.0, 0.0, 0.0), Quat::from_axis_angle(Vec3::unit_y(), 0.5));
        let b =
            Transform::new(Vec3::new(0.0, 2.0, 0.0), Quat::from_axis_angle(Vec3::unit_x(), -0.3));
        let p = Vec3::new(0.7, -1.1, 2.2);
        assert!(a.then(&b).apply(p).distance(a.apply(b.apply(p))) < 1e-9);
    }

    #[test]
    fn interpolation_endpoints() {
        let a = Transform::from_translation(Vec3::ZERO);
        let b =
            Transform::new(Vec3::new(2.0, 0.0, 0.0), Quat::from_axis_angle(Vec3::unit_y(), 1.0));
        assert!(a.interpolate(&b, 0.0).translation.distance(a.translation) < 1e-12);
        assert!(a.interpolate(&b, 1.0).translation.distance(b.translation) < 1e-12);
        let mid = a.interpolate(&b, 0.5);
        assert!((mid.translation.x - 1.0).abs() < 1e-12);
    }
}
