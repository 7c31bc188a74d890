//! Classical washout filtering.
//!
//! A motion platform can only travel centimetres while the vehicle travels
//! metres, so the controller "washes out" sustained accelerations: the onset of
//! an acceleration is reproduced by translating the platform (high-pass path),
//! sustained acceleration is converted into a gravity-aligned tilt the rider
//! cannot distinguish from it (tilt-coordination, low-pass path), and the
//! platform always creeps back to neutral.

use sim_math::{HighPass, LowPass, Vec3};

use crate::geometry::PlatformPose;

/// The classical washout filter producing platform poses from vehicle motion.
#[derive(Debug, Clone, PartialEq)]
pub struct WashoutFilter {
    /// Scale from vehicle acceleration to platform displacement (m per m/s^2).
    pub translation_gain: f64,
    /// Scale from sustained acceleration to tilt (rad per m/s^2).
    pub tilt_gain: f64,
    /// Maximum platform translation magnitude in metres.
    pub max_translation: f64,
    /// Maximum tilt in radians.
    pub max_tilt: f64,
    hp_x: HighPass,
    hp_y: HighPass,
    hp_z: HighPass,
    lp_x: LowPass,
    lp_z: LowPass,
    hp_yaw: HighPass,
}

impl Default for WashoutFilter {
    fn default() -> Self {
        WashoutFilter {
            translation_gain: 0.012,
            tilt_gain: 0.05,
            max_translation: 0.18,
            max_tilt: 18f64.to_radians(),
            hp_x: HighPass::new(0.4),
            hp_y: HighPass::new(0.4),
            hp_z: HighPass::new(0.4),
            lp_x: LowPass::new(0.25),
            lp_z: LowPass::new(0.25),
            hp_yaw: HighPass::new(0.5),
        }
    }
}

impl WashoutFilter {
    /// Feeds one sample of vehicle body acceleration (m/s^2, body frame),
    /// body pitch/roll from terrain following, and yaw rate (rad/s), and
    /// returns the commanded platform pose.
    pub fn update(
        &mut self,
        acceleration: Vec3,
        vehicle_pitch: f64,
        vehicle_roll: f64,
        yaw_rate: f64,
        dt: f64,
    ) -> PlatformPose {
        // Onset cues: high-passed acceleration becomes a transient displacement.
        let tx = self.hp_x.update(acceleration.x, dt) * self.translation_gain;
        let ty = self.hp_y.update(acceleration.y, dt) * self.translation_gain;
        let tz = self.hp_z.update(acceleration.z, dt) * self.translation_gain;
        let mut translation = Vec3::new(tx, ty, tz);
        let len = translation.length();
        if len > self.max_translation {
            translation *= self.max_translation / len;
        }

        // Sustained cues: low-passed acceleration becomes tilt coordination,
        // added to the terrain-following attitude of the vehicle itself.
        let sustained_x = self.lp_x.update(acceleration.x, dt);
        let sustained_z = self.lp_z.update(acceleration.z, dt);
        let pitch =
            (vehicle_pitch + sustained_z * self.tilt_gain).clamp(-self.max_tilt, self.max_tilt);
        let roll =
            (vehicle_roll - sustained_x * self.tilt_gain).clamp(-self.max_tilt, self.max_tilt);
        let yaw = self.hp_yaw.update(yaw_rate, dt) * 0.1;

        PlatformPose::from_euler(translation, yaw, pitch, roll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 1.0 / 60.0;

    #[test]
    fn sustained_acceleration_washes_out_of_the_translation() {
        let mut w = WashoutFilter::default();
        let mut last = PlatformPose::neutral();
        // One minute of constant forward acceleration.
        for _ in 0..3600 {
            last = w.update(Vec3::new(0.0, 0.0, 2.0), 0.0, 0.0, 0.0, DT);
        }
        assert!(last.translation.length() < 0.01, "sustained cue did not wash out");
        // ... but it remains represented as a tilt.
        let (_, pitch, _) = last.rotation.to_yaw_pitch_roll();
        assert!(pitch.abs() > 0.02, "tilt coordination missing");
    }

    #[test]
    fn onset_produces_a_transient_translation() {
        let mut w = WashoutFilter::default();
        w.update(Vec3::ZERO, 0.0, 0.0, 0.0, DT);
        let onset = w.update(Vec3::new(0.0, 0.0, 3.0), 0.0, 0.0, 0.0, DT);
        assert!(onset.translation.z.abs() > 1e-4, "no onset cue");
    }

    #[test]
    fn translation_never_exceeds_the_excursion_limit() {
        let mut w = WashoutFilter::default();
        for i in 0..2000 {
            let a = Vec3::new((i as f64 * 0.1).sin() * 50.0, 0.0, (i as f64 * 0.07).cos() * 50.0);
            let pose = w.update(a, 0.0, 0.0, 0.0, DT);
            assert!(pose.translation.length() <= w.max_translation + 1e-9);
        }
    }

    #[test]
    fn terrain_attitude_passes_through_and_is_clamped() {
        let mut w = WashoutFilter::default();
        let pose = w.update(Vec3::ZERO, 0.1, -0.08, 0.0, DT);
        let (_, pitch, roll) = pose.rotation.to_yaw_pitch_roll();
        assert!((pitch - 0.1).abs() < 0.02);
        assert!((roll + 0.08).abs() < 0.02);
        let extreme = w.update(Vec3::ZERO, 1.0, -1.0, 0.0, DT);
        let (_, pitch, roll) = extreme.rotation.to_yaw_pitch_roll();
        assert!(pitch <= w.max_tilt + 1e-9);
        assert!(roll >= -w.max_tilt - 1e-9);
    }
}
