//! Actuator stroke and rate limits.

use sim_math::interp::move_toward;

/// Stroke and rate limits of one hydraulic actuator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuatorLimits {
    /// Minimum leg length in metres.
    pub min_length: f64,
    /// Maximum leg length in metres.
    pub max_length: f64,
    /// Maximum extension/retraction rate in metres per second.
    pub max_rate: f64,
}

impl Default for ActuatorLimits {
    fn default() -> Self {
        ActuatorLimits { min_length: 1.0, max_length: 1.9, max_rate: 0.45 }
    }
}

impl ActuatorLimits {
    /// Whether `length` is within the stroke.
    pub fn within_stroke(&self, length: f64) -> bool {
        length >= self.min_length && length <= self.max_length
    }
}

/// One actuator with its current length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Actuator {
    /// Stroke and rate limits.
    pub limits: ActuatorLimits,
    /// Current leg length in metres.
    pub length: f64,
    /// Whether the last command had to be clamped (stroke or rate limit hit).
    pub saturated: bool,
}

impl Actuator {
    /// Creates an actuator at the given initial length, clamped into the stroke.
    pub fn new(limits: ActuatorLimits, length: f64) -> Actuator {
        Actuator {
            limits,
            length: length.clamp(limits.min_length, limits.max_length),
            saturated: false,
        }
    }

    /// Drives the actuator toward `target` for `dt` seconds, respecting the
    /// rate and stroke limits. Returns the achieved length.
    pub fn drive_toward(&mut self, target: f64, dt: f64) -> f64 {
        let clamped_target = target.clamp(self.limits.min_length, self.limits.max_length);
        let reachable = move_toward(self.length, clamped_target, self.limits.max_rate * dt);
        self.saturated =
            (clamped_target - target).abs() > 1e-9 || (reachable - clamped_target).abs() > 1e-9;
        self.length = reachable;
        self.length
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_limit_caps_travel_per_step() {
        let mut a = Actuator::new(ActuatorLimits::default(), 1.4);
        let achieved = a.drive_toward(1.9, 0.1);
        assert!((achieved - 1.445).abs() < 1e-12);
        assert!(a.saturated);
    }

    #[test]
    fn stroke_limit_is_respected() {
        let mut a = Actuator::new(ActuatorLimits::default(), 1.85);
        for _ in 0..100 {
            a.drive_toward(5.0, 0.1);
        }
        assert!((a.length - a.limits.max_length).abs() < 1e-12);
        assert!(a.saturated);
    }

    #[test]
    fn reachable_target_clears_saturation() {
        let mut a = Actuator::new(ActuatorLimits::default(), 1.4);
        a.drive_toward(1.41, 0.1);
        assert!(!a.saturated);
        assert!((a.length - 1.41).abs() < 1e-12);
    }

    #[test]
    fn construction_clamps_into_stroke() {
        let a = Actuator::new(ActuatorLimits::default(), 0.2);
        assert_eq!(a.length, a.limits.min_length);
        assert!(a.limits.within_stroke(a.length));
    }
}
