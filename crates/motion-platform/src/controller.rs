//! The motion platform controller.
//!
//! Combines washout filtering, frame-rate-synchronized interpolation, engine
//! vibration and actuator limiting into the single object the simulator's
//! motion-platform module (an LP on the cluster) drives every frame.

use sim_math::Vec3;

use crate::actuator::{Actuator, ActuatorLimits};
use crate::geometry::{PlatformPose, StewartGeometry};
use crate::interpolate::PoseInterpolator;
use crate::kinematics::inverse_kinematics;
use crate::vibration::VibrationGenerator;
use crate::washout::WashoutFilter;

/// One motion cue produced by the dynamics module, one per visual frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MotionCue {
    /// Vehicle body acceleration in m/s^2 (body frame: x right, y up, z forward).
    pub acceleration: Vec3,
    /// Chassis pitch from terrain following, radians.
    pub pitch: f64,
    /// Chassis roll from terrain following, radians.
    pub roll: f64,
    /// Yaw rate, radians per second.
    pub yaw_rate: f64,
    /// Engine intensity in `[0, 1]` (drives the vibration level).
    pub engine_intensity: f64,
}

/// The full motion-platform controller.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionController {
    geometry: StewartGeometry,
    washout: WashoutFilter,
    interpolator: PoseInterpolator,
    vibration: VibrationGenerator,
    actuators: [Actuator; 6],
    engine_intensity: f64,
    cue_interval: f64,
}

impl MotionController {
    /// Creates a controller for the training platform, expecting motion cues at
    /// `visual_fps` frames per second.
    ///
    /// # Panics
    ///
    /// Panics if `visual_fps` is not positive.
    pub fn new(visual_fps: f64, seed: u64) -> MotionController {
        assert!(visual_fps > 0.0, "visual frame rate must be positive");
        let geometry = StewartGeometry::training_platform();
        let neutral = geometry.neutral_leg_lengths();
        let limits = ActuatorLimits {
            min_length: neutral[0] - 0.35,
            max_length: neutral[0] + 0.35,
            max_rate: 0.5,
        };
        MotionController {
            geometry,
            washout: WashoutFilter::default(),
            interpolator: PoseInterpolator::new(1.0 / visual_fps),
            vibration: VibrationGenerator::new(seed),
            actuators: [Actuator::new(limits, neutral[0]); 6],
            engine_intensity: 0.0,
            cue_interval: 1.0 / visual_fps,
        }
    }

    /// Re-synchronizes the interpolation with a new visual frame rate
    /// (paper §3.4: the interpolation frequency must follow the display).
    ///
    /// # Panics
    ///
    /// Panics if `visual_fps` is not positive.
    pub fn set_visual_fps(&mut self, visual_fps: f64) {
        assert!(visual_fps > 0.0, "visual frame rate must be positive");
        self.cue_interval = 1.0 / visual_fps;
        self.interpolator.set_cue_interval(self.cue_interval);
    }

    /// Feeds one motion cue (called once per visual frame by the dynamics LP).
    pub fn push_cue(&mut self, cue: MotionCue) {
        let pose = self.washout.update(
            cue.acceleration,
            cue.pitch,
            cue.roll,
            cue.yaw_rate,
            self.cue_interval,
        );
        self.engine_intensity = cue.engine_intensity.clamp(0.0, 1.0);
        self.interpolator.push_cue(pose);
    }

    /// Runs one servo update of `dt` seconds and returns the commanded pose
    /// (after interpolation and vibration) together with the six achieved
    /// actuator lengths.
    pub fn servo_step(&mut self, dt: f64) -> (PlatformPose, [f64; 6]) {
        let pose = self.interpolator.advance(dt);
        let pose = self.vibration.apply(pose, self.engine_intensity, dt);
        let targets = inverse_kinematics(&self.geometry, &pose);
        let mut achieved = [0.0; 6];
        for (i, actuator) in self.actuators.iter_mut().enumerate() {
            achieved[i] = actuator.drive_toward(targets[i], dt);
        }
        (pose, achieved)
    }

    /// Whether any actuator hit a stroke or rate limit on the last servo step.
    pub fn any_actuator_saturated(&self) -> bool {
        self.actuators.iter().any(|a| a.saturated)
    }

    /// The platform geometry in use.
    pub fn geometry(&self) -> &StewartGeometry {
        &self.geometry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_platform_stays_near_neutral_with_small_rumble() {
        let mut c = MotionController::new(16.0, 7);
        c.push_cue(MotionCue { engine_intensity: 0.2, ..Default::default() });
        let mut max_offset: f64 = 0.0;
        for _ in 0..200 {
            let (pose, legs) = c.servo_step(1.0 / 200.0);
            max_offset = max_offset.max(pose.translation.horizontal().length());
            for l in legs {
                assert!(l.is_finite());
            }
        }
        assert!(max_offset < 0.05);
    }

    #[test]
    fn braking_cue_pitches_the_platform() {
        let mut c = MotionController::new(16.0, 7);
        // Sustained deceleration (braking): acceleration opposite to forward (+z).
        for _ in 0..64 {
            c.push_cue(MotionCue {
                acceleration: Vec3::new(0.0, 0.0, -3.0),
                engine_intensity: 0.5,
                ..Default::default()
            });
            for _ in 0..12 {
                c.servo_step(1.0 / 192.0);
            }
        }
        let (pose, _) = c.servo_step(1.0 / 192.0);
        let (_, pitch, _) = pose.rotation.to_yaw_pitch_roll();
        assert!(pitch.abs() > 0.02, "no tilt coordination under braking: {pitch}");
    }

    #[test]
    fn actuators_respect_limits_under_violent_cues() {
        let mut c = MotionController::new(16.0, 3);
        for i in 0..128 {
            c.push_cue(MotionCue {
                acceleration: Vec3::new(
                    ((i % 7) as f64 - 3.0) * 20.0,
                    10.0,
                    ((i % 5) as f64 - 2.0) * 20.0,
                ),
                pitch: 0.5,
                roll: -0.5,
                yaw_rate: 2.0,
                engine_intensity: 1.0,
            });
            for _ in 0..12 {
                let (_, legs) = c.servo_step(1.0 / 192.0);
                for l in legs {
                    assert!(
                        l >= c.actuators[0].limits.min_length - 1e-9
                            && l <= c.actuators[0].limits.max_length + 1e-9
                    );
                }
            }
        }
        assert!(c.any_actuator_saturated(), "violent input should saturate something");
    }

    #[test]
    fn servo_motion_is_smooth_between_cues() {
        let mut c = MotionController::new(16.0, 11);
        c.push_cue(MotionCue {
            acceleration: Vec3::new(2.0, 0.0, 3.0),
            engine_intensity: 0.8,
            ..Default::default()
        });
        let (mut previous, _) = c.servo_step(1.0 / 192.0);
        for _ in 0..48 {
            let (pose, _) = c.servo_step(1.0 / 192.0);
            assert!(pose.distance(&previous) < 0.03, "pose jumped");
            previous = pose;
        }
    }

    #[test]
    fn changing_visual_fps_keeps_working() {
        let mut c = MotionController::new(16.0, 1);
        c.push_cue(MotionCue::default());
        c.set_visual_fps(30.0);
        c.push_cue(MotionCue { acceleration: Vec3::new(0.0, 0.0, 1.0), ..Default::default() });
        let (pose, _) = c.servo_step(1.0 / 192.0);
        assert!(pose.translation.is_finite());
    }

    #[test]
    #[should_panic]
    fn zero_fps_rejected() {
        let _ = MotionController::new(0.0, 1);
    }
}
