//! Pose interpolation synchronized with the visual frame rate.
//!
//! "The motion platform controller must smoothly transform the posture of the
//! platform between the consecutive statuses. In addition, the frequency of
//! this interpolation should be synchronized with the visual display in order
//! not to disorder the sensorium of the user" (paper §3.4). Motion cues arrive
//! at the visual frame rate (16–30 Hz) while the platform servo loop runs much
//! faster; this interpolator fills the gap.

use crate::geometry::PlatformPose;

/// Interpolates between the last two received motion cues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseInterpolator {
    previous: PlatformPose,
    target: PlatformPose,
    /// Seconds between cues (one visual frame period).
    cue_interval: f64,
    /// Seconds elapsed since the last cue.
    elapsed: f64,
}

impl PoseInterpolator {
    /// Creates an interpolator expecting cues every `cue_interval` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `cue_interval` is not positive.
    pub fn new(cue_interval: f64) -> PoseInterpolator {
        assert!(cue_interval > 0.0, "cue interval must be positive");
        PoseInterpolator {
            previous: PlatformPose::neutral(),
            target: PlatformPose::neutral(),
            cue_interval,
            elapsed: 0.0,
        }
    }

    /// Feeds a new motion cue (called once per visual frame).
    pub fn push_cue(&mut self, pose: PlatformPose) {
        self.previous = self.sample_at(self.elapsed);
        self.target = pose;
        self.elapsed = 0.0;
    }

    /// Advances the servo clock by `dt` seconds and returns the interpolated pose.
    pub fn advance(&mut self, dt: f64) -> PlatformPose {
        self.elapsed += dt;
        self.sample_at(self.elapsed)
    }

    fn sample_at(&self, elapsed: f64) -> PlatformPose {
        let t = (elapsed / self.cue_interval).clamp(0.0, 1.0);
        self.previous.interpolate(&self.target, t)
    }

    /// The most recently received cue.
    pub fn target(&self) -> PlatformPose {
        self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_math::Vec3;

    fn cue(x: f64) -> PlatformPose {
        PlatformPose::from_euler(Vec3::new(x, 0.0, 0.0), 0.0, 0.0, 0.0)
    }

    #[test]
    fn reaches_the_cue_by_the_next_frame() {
        let mut interp = PoseInterpolator::new(1.0 / 16.0);
        interp.push_cue(cue(0.1));
        let mut pose = PlatformPose::neutral();
        for _ in 0..10 {
            pose = interp.advance(1.0 / 160.0);
        }
        assert!((pose.translation.x - 0.1).abs() < 1e-9);
    }

    #[test]
    fn motion_is_smooth_between_cues() {
        let mut interp = PoseInterpolator::new(1.0 / 16.0);
        interp.push_cue(cue(0.12));
        let mut previous = PlatformPose::neutral();
        let mut max_step = 0.0f64;
        for _ in 0..20 {
            let pose = interp.advance(1.0 / 320.0);
            max_step = max_step.max(pose.distance(&previous));
            previous = pose;
        }
        // At 320 Hz servo rate each step may cover at most 1/20 of the cue.
        assert!(max_step < 0.12 / 10.0, "interpolation jumped by {max_step}");
    }

    #[test]
    fn late_cue_does_not_cause_a_jump_backwards() {
        let mut interp = PoseInterpolator::new(1.0 / 16.0);
        interp.push_cue(cue(0.1));
        // Sample beyond one frame (the visual channel stalled).
        let held = interp.advance(0.2);
        assert!((held.translation.x - 0.1).abs() < 1e-9, "holds the last target");
        // New cue arrives; motion continues from the held pose.
        interp.push_cue(cue(0.05));
        let next = interp.advance(1.0 / 320.0);
        assert!(next.translation.x <= 0.1 + 1e-9 && next.translation.x >= 0.05 - 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        let _ = PoseInterpolator::new(0.0);
    }
}
