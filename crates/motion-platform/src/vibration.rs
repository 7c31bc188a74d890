//! Engine vibration injection.
//!
//! "Since the mobile crane is a heavy industrial instrument, it will create
//! noisy sounds and vibration while its engine is ignited. The motion platform
//! controller constantly generates a random up-and-down vibration to
//! realistically simulate this situation" (paper §3.4).

use sim_math::{ValueNoise, Vec3};

use crate::geometry::PlatformPose;

/// Deterministic engine-rumble generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VibrationGenerator {
    noise: ValueNoise,
    /// Peak vertical displacement at full intensity, in metres.
    pub amplitude: f64,
    /// Base rumble frequency in hertz.
    pub frequency: f64,
    time: f64,
}

impl VibrationGenerator {
    /// Creates a generator with a deterministic seed.
    pub fn new(seed: u64) -> VibrationGenerator {
        VibrationGenerator {
            noise: ValueNoise::new(seed),
            amplitude: 0.006,
            frequency: 13.0,
            time: 0.0,
        }
    }

    /// Advances time by `dt` seconds and returns the vibration offset for an
    /// engine running at `intensity` in `[0, 1]` (idle to full throttle).
    pub fn sample(&mut self, intensity: f64, dt: f64) -> Vec3 {
        self.time += dt;
        let intensity = intensity.clamp(0.0, 1.0);
        let phase = self.time * self.frequency;
        let vertical = self.noise.fractal(phase, 3) * self.amplitude * (0.4 + 0.6 * intensity);
        let lateral = self.noise.fractal(phase + 1000.0, 2) * self.amplitude * 0.3 * intensity;
        Vec3::new(lateral, vertical, 0.0)
    }

    /// Adds the vibration to a commanded pose.
    pub fn apply(&mut self, pose: PlatformPose, intensity: f64, dt: f64) -> PlatformPose {
        let offset = self.sample(intensity, dt);
        PlatformPose { translation: pose.translation + offset, rotation: pose.rotation }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vibration_is_deterministic_per_seed() {
        let mut a = VibrationGenerator::new(5);
        let mut b = VibrationGenerator::new(5);
        for _ in 0..100 {
            assert_eq!(a.sample(0.7, 0.01), b.sample(0.7, 0.01));
        }
        let mut c = VibrationGenerator::new(6);
        let differs = (0..100).any(|_| a.sample(0.7, 0.01) != c.sample(0.7, 0.01));
        assert!(differs);
    }

    #[test]
    fn vibration_is_bounded_and_nonzero_when_running() {
        let mut v = VibrationGenerator::new(1);
        let mut peak: f64 = 0.0;
        for _ in 0..1000 {
            let s = v.sample(1.0, 1.0 / 60.0);
            peak = peak.max(s.length());
            assert!(s.length() <= v.amplitude * 2.0);
        }
        assert!(peak > v.amplitude * 0.2, "engine running but platform still");
    }

    #[test]
    fn idle_engine_vibrates_less_than_full_throttle() {
        let measure = |intensity: f64| {
            let mut v = VibrationGenerator::new(9);
            (0..2000).map(|_| v.sample(intensity, 1.0 / 60.0).length()).fold(0.0f64, f64::max)
        };
        assert!(measure(0.0) < measure(1.0));
    }

    #[test]
    fn apply_offsets_the_pose() {
        let mut v = VibrationGenerator::new(2);
        let pose = PlatformPose::neutral();
        let vibrated = v.apply(pose, 1.0, 0.3);
        assert!(vibrated.translation.length() > 0.0);
        assert_eq!(vibrated.rotation, pose.rotation);
    }
}
