//! Stewart-platform geometry: where the six joints sit on the base and the platform.

use sim_math::{Quat, Vec3};

/// The pose of the moving platform relative to its neutral position.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlatformPose {
    /// Translation of the platform centre (metres; surge, heave, sway).
    pub translation: Vec3,
    /// Orientation of the platform (roll, pitch, yaw).
    pub rotation: Quat,
}

impl PlatformPose {
    /// The neutral pose.
    pub fn neutral() -> PlatformPose {
        PlatformPose::default()
    }

    /// A pose from Euler angles (yaw, pitch, roll in radians) and a translation.
    pub fn from_euler(translation: Vec3, yaw: f64, pitch: f64, roll: f64) -> PlatformPose {
        PlatformPose { translation, rotation: Quat::from_yaw_pitch_roll(yaw, pitch, roll) }
    }

    /// Linear interpolation (slerp for the rotation) toward `other`.
    pub fn interpolate(&self, other: &PlatformPose, t: f64) -> PlatformPose {
        PlatformPose {
            translation: self.translation.lerp(other.translation, t),
            rotation: self.rotation.slerp(&other.rotation, t),
        }
    }

    /// A scalar measure of how far this pose is from another (metres plus
    /// radians weighted by one metre per radian) — used for smoothness checks.
    pub fn distance(&self, other: &PlatformPose) -> f64 {
        self.translation.distance(other.translation) + self.rotation.angle_to(&other.rotation)
    }
}

/// Joint layout of a six-legged Stewart platform.
#[derive(Debug, Clone, PartialEq)]
pub struct StewartGeometry {
    /// Base joint positions in base coordinates (Y up, origin at base centre).
    pub base_joints: [Vec3; 6],
    /// Platform joint positions in platform coordinates (origin at platform centre).
    pub platform_joints: [Vec3; 6],
    /// Height of the platform centre above the base centre in the neutral pose.
    pub neutral_height: f64,
}

impl StewartGeometry {
    /// Builds the classic 6-6 layout from radii and pairing angles.
    ///
    /// # Panics
    ///
    /// Panics if a radius or the neutral height is not positive.
    pub fn symmetric(
        base_radius: f64,
        platform_radius: f64,
        neutral_height: f64,
        half_angle: f64,
    ) -> StewartGeometry {
        assert!(base_radius > 0.0 && platform_radius > 0.0 && neutral_height > 0.0);
        let mut base_joints = [Vec3::ZERO; 6];
        let mut platform_joints = [Vec3::ZERO; 6];
        for pair in 0..3 {
            let centre_angle = pair as f64 * 120f64.to_radians();
            for (k, sign) in [(0usize, -1.0f64), (1usize, 1.0f64)] {
                let index = pair * 2 + k;
                let base_angle = centre_angle + sign * half_angle;
                // Platform joints are rotated 60 degrees so legs cross.
                let platform_angle = centre_angle + 60f64.to_radians() + sign * half_angle;
                base_joints[index] =
                    Vec3::new(base_radius * base_angle.cos(), 0.0, base_radius * base_angle.sin());
                platform_joints[index] = Vec3::new(
                    platform_radius * platform_angle.cos(),
                    0.0,
                    platform_radius * platform_angle.sin(),
                );
            }
        }
        StewartGeometry { base_joints, platform_joints, neutral_height }
    }

    /// The platform installed under the crane mockup: a medium-excursion
    /// training base of roughly two metres diameter.
    pub fn training_platform() -> StewartGeometry {
        StewartGeometry::symmetric(1.1, 0.8, 1.05, 12f64.to_radians())
    }

    /// The world-space position of platform joint `i` for a given pose.
    pub fn platform_joint_world(&self, pose: &PlatformPose, i: usize) -> Vec3 {
        pose.rotation.rotate(self.platform_joints[i])
            + pose.translation
            + Vec3::new(0.0, self.neutral_height, 0.0)
    }

    /// Leg length of actuator `i` for the given pose.
    pub fn leg_length(&self, pose: &PlatformPose, i: usize) -> f64 {
        self.platform_joint_world(pose, i).distance(self.base_joints[i])
    }

    /// Leg lengths in the neutral pose.
    pub fn neutral_leg_lengths(&self) -> [f64; 6] {
        let neutral = PlatformPose::neutral();
        let mut out = [0.0; 6];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.leg_length(&neutral, i);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_layout_has_equal_neutral_legs() {
        let g = StewartGeometry::training_platform();
        let legs = g.neutral_leg_lengths();
        for pair in legs.windows(2) {
            assert!((pair[0] - pair[1]).abs() < 1e-9, "legs unequal: {legs:?}");
        }
        assert!(legs[0] > g.neutral_height, "legs must be longer than the height alone");
    }

    #[test]
    fn heave_lengthens_every_leg() {
        let g = StewartGeometry::training_platform();
        let up = PlatformPose { translation: Vec3::new(0.0, 0.15, 0.0), ..Default::default() };
        let neutral = g.neutral_leg_lengths();
        for (i, &length) in neutral.iter().enumerate() {
            assert!(g.leg_length(&up, i) > length);
        }
    }

    #[test]
    fn roll_lengthens_one_side_and_shortens_the_other() {
        let g = StewartGeometry::training_platform();
        let rolled = PlatformPose::from_euler(Vec3::ZERO, 0.0, 0.0, 8f64.to_radians());
        let neutral = g.neutral_leg_lengths();
        let deltas: Vec<f64> = (0..6).map(|i| g.leg_length(&rolled, i) - neutral[i]).collect();
        assert!(deltas.iter().any(|d| *d > 1e-4));
        assert!(deltas.iter().any(|d| *d < -1e-4));
    }

    #[test]
    fn pose_interpolation_endpoints_and_distance() {
        let a = PlatformPose::neutral();
        let b = PlatformPose::from_euler(Vec3::new(0.1, 0.0, 0.0), 0.0, 0.2, 0.0);
        assert!(a.interpolate(&b, 0.0).distance(&a) < 1e-12);
        assert!(a.interpolate(&b, 1.0).distance(&b) < 1e-9);
        assert!(a.distance(&b) > 0.2);
    }

    #[test]
    #[should_panic]
    fn non_positive_radius_rejected() {
        let _ = StewartGeometry::symmetric(0.0, 1.0, 1.0, 0.2);
    }
}
