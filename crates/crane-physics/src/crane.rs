//! The articulated mobile crane: slew, luff, telescope and hoist kinematics.

use sim_math::{clamp, Quat, Transform, Vec3};

/// Mechanical limits and rates of the crane's actuators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CraneLimits {
    /// Minimum boom luffing (elevation) angle in radians.
    pub min_luff: f64,
    /// Maximum boom luffing angle in radians.
    pub max_luff: f64,
    /// Minimum boom length in metres (fully retracted).
    pub min_boom_length: f64,
    /// Maximum boom length in metres (fully telescoped).
    pub max_boom_length: f64,
    /// Minimum hoist cable length in metres.
    pub min_cable_length: f64,
    /// Maximum hoist cable length in metres.
    pub max_cable_length: f64,
    /// Maximum slew rate in radians per second.
    pub max_slew_rate: f64,
    /// Maximum luffing rate in radians per second.
    pub max_luff_rate: f64,
    /// Maximum telescoping rate in metres per second.
    pub max_telescope_rate: f64,
    /// Maximum hoisting rate in metres per second.
    pub max_hoist_rate: f64,
    /// Maximum safe working radius in metres; beyond this the overload alarm trips.
    pub max_working_radius: f64,
}

impl Default for CraneLimits {
    fn default() -> Self {
        // Representative values for a 25 t rough-terrain mobile crane.
        CraneLimits {
            min_luff: 10f64.to_radians(),
            max_luff: 78f64.to_radians(),
            min_boom_length: 9.0,
            max_boom_length: 30.0,
            min_cable_length: 1.0,
            max_cable_length: 28.0,
            max_slew_rate: 0.35,
            max_luff_rate: 0.12,
            max_telescope_rate: 0.8,
            max_hoist_rate: 1.2,
            max_working_radius: 22.0,
        }
    }
}

/// Operator inputs to the crane superstructure (the two joysticks of §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CraneControls {
    /// Slew command in `[-1, 1]` (left joystick X).
    pub slew: f64,
    /// Luffing command in `[-1, 1]` (left joystick Y; positive raises the boom).
    pub luff: f64,
    /// Telescope command in `[-1, 1]` (right joystick Y).
    pub telescope: f64,
    /// Hoist command in `[-1, 1]` (right joystick X; positive lowers the hook).
    pub hoist: f64,
}

impl CraneControls {
    /// Clamps every channel into `[-1, 1]`.
    pub fn clamped(self) -> CraneControls {
        CraneControls {
            slew: clamp(self.slew, -1.0, 1.0),
            luff: clamp(self.luff, -1.0, 1.0),
            telescope: clamp(self.telescope, -1.0, 1.0),
            hoist: clamp(self.hoist, -1.0, 1.0),
        }
    }
}

/// Kinematic state of the crane superstructure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CraneState {
    /// Slew (swing) angle of the superstructure about +Y, in radians.
    pub slew_angle: f64,
    /// Luffing (elevation) angle of the boom above horizontal, in radians.
    pub luff_angle: f64,
    /// Boom length in metres.
    pub boom_length: f64,
    /// Hoist cable length in metres.
    pub cable_length: f64,
}

impl Default for CraneState {
    fn default() -> Self {
        CraneState {
            slew_angle: 0.0,
            luff_angle: 45f64.to_radians(),
            boom_length: 12.0,
            cable_length: 6.0,
        }
    }
}

/// The crane rig: state plus limits, plus the geometry needed for kinematics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CraneRig {
    /// Current actuator state.
    pub state: CraneState,
    /// Mechanical limits.
    pub limits: CraneLimits,
    /// Offset of the boom pivot above/behind the chassis origin, in chassis space.
    pub pivot_offset: Vec3,
}

impl Default for CraneRig {
    fn default() -> Self {
        CraneRig {
            state: CraneState::default(),
            limits: CraneLimits::default(),
            pivot_offset: Vec3::new(0.0, 2.9, -0.5),
        }
    }
}

impl CraneRig {
    /// Creates a rig with explicit state and limits.
    pub fn new(state: CraneState, limits: CraneLimits) -> CraneRig {
        CraneRig { state, limits, ..CraneRig::default() }
    }

    /// Advances the actuators by `dt` seconds under the given controls,
    /// enforcing rate and travel limits. Returns the new state.
    pub fn step(&mut self, controls: CraneControls, dt: f64) -> CraneState {
        let c = controls.clamped();
        let l = &self.limits;
        let s = &mut self.state;
        s.slew_angle += c.slew * l.max_slew_rate * dt;
        s.slew_angle = sim_math::wrap_to_pi(s.slew_angle);
        s.luff_angle = clamp(s.luff_angle + c.luff * l.max_luff_rate * dt, l.min_luff, l.max_luff);
        s.boom_length = clamp(
            s.boom_length + c.telescope * l.max_telescope_rate * dt,
            l.min_boom_length,
            l.max_boom_length,
        );
        s.cable_length = clamp(
            s.cable_length + c.hoist * l.max_hoist_rate * dt,
            l.min_cable_length,
            l.max_cable_length,
        );
        *s
    }

    /// Rotation of the superstructure relative to the chassis.
    pub fn superstructure_rotation(&self) -> Quat {
        Quat::from_axis_angle(Vec3::unit_y(), self.state.slew_angle)
    }

    /// Position of the boom pivot in chassis space.
    pub fn boom_pivot(&self) -> Vec3 {
        self.pivot_offset
    }

    /// Position of the boom tip in chassis space.
    pub fn boom_tip(&self) -> Vec3 {
        let along = Vec3::new(0.0, self.state.luff_angle.sin(), -self.state.luff_angle.cos())
            * self.state.boom_length;
        self.pivot_offset + self.superstructure_rotation().rotate(along)
    }

    /// Position of the boom tip in world space given the chassis pose.
    pub fn boom_tip_world(&self, chassis: &Transform) -> Vec3 {
        chassis.apply(self.boom_tip())
    }

    /// Where the hook would hang at rest (straight below the boom tip by the
    /// cable length), in world space.
    pub fn hook_rest_position(&self, chassis: &Transform) -> Vec3 {
        self.boom_tip_world(chassis) - Vec3::new(0.0, self.state.cable_length, 0.0)
    }

    /// Horizontal working radius: distance from the slew axis to the boom tip,
    /// measured on the ground plane (the quantity the load-moment alarm uses).
    pub fn working_radius(&self) -> f64 {
        let tip = self.boom_tip();
        (tip - self.pivot_offset).horizontal().length()
    }

    /// Whether the boom is outside the safe working envelope (the "derrick boom
    /// overshoots the safety zone" alarm of Figure 5).
    pub fn outside_safety_zone(&self) -> bool {
        self.working_radius() > self.limits.max_working_radius
            || self.state.luff_angle <= self.limits.min_luff + 1e-9
    }

    /// Fraction of the maximum working radius currently in use, in `[0, ...)`.
    pub fn radius_utilization(&self) -> f64 {
        self.working_radius() / self.limits.max_working_radius
    }

    /// Boom elongation as a fraction of the telescoping range, in `[0, 1]`
    /// (one of the Status-window gauges of Figure 5).
    pub fn boom_extension_fraction(&self) -> f64 {
        let l = &self.limits;
        (self.state.boom_length - l.min_boom_length) / (l.max_boom_length - l.min_boom_length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rates_and_limits_are_enforced() {
        let mut rig = CraneRig::default();
        let start = rig.state;
        // Full-up luff command for one second.
        rig.step(CraneControls { luff: 1.0, ..Default::default() }, 1.0);
        assert!(
            (rig.state.luff_angle - (start.luff_angle + rig.limits.max_luff_rate)).abs() < 1e-9
        );
        // Saturate at the maximum.
        for _ in 0..1000 {
            rig.step(CraneControls { luff: 1.0, ..Default::default() }, 0.1);
        }
        assert!((rig.state.luff_angle - rig.limits.max_luff).abs() < 1e-9);
        // Telescope and cable limits.
        for _ in 0..1000 {
            rig.step(CraneControls { telescope: 1.0, hoist: 1.0, ..Default::default() }, 0.1);
        }
        assert!((rig.state.boom_length - rig.limits.max_boom_length).abs() < 1e-9);
        assert!((rig.state.cable_length - rig.limits.max_cable_length).abs() < 1e-9);
    }

    #[test]
    fn controls_are_clamped() {
        let mut rig = CraneRig::default();
        let before = rig.state.slew_angle;
        rig.step(CraneControls { slew: 10.0, ..Default::default() }, 1.0);
        assert!((rig.state.slew_angle - before - rig.limits.max_slew_rate).abs() < 1e-9);
    }

    #[test]
    fn boom_tip_rises_with_luff_and_extends_with_telescope() {
        let mut rig = CraneRig::default();
        rig.state.luff_angle = 30f64.to_radians();
        rig.state.boom_length = 10.0;
        let low = rig.boom_tip();
        rig.state.luff_angle = 70f64.to_radians();
        let high = rig.boom_tip();
        assert!(high.y > low.y);
        assert!(high.horizontal().length() < low.horizontal().length());

        rig.state.boom_length = 20.0;
        let long = rig.boom_tip();
        assert!(long.y > high.y);
    }

    #[test]
    fn slew_rotates_the_tip_about_the_vertical_axis() {
        let mut rig = CraneRig::default();
        rig.state.slew_angle = 0.0;
        let before = rig.boom_tip();
        rig.state.slew_angle = std::f64::consts::FRAC_PI_2;
        let after = rig.boom_tip();
        assert!((before.y - after.y).abs() < 1e-9, "slew must not change tip height");
        assert!(
            (before - rig.pivot_offset).horizontal().length()
                - (after - rig.pivot_offset).horizontal().length()
                < 1e-9
        );
        assert!(before.horizontal().distance(after.horizontal()) > 1.0);
    }

    #[test]
    fn hook_rest_position_hangs_straight_down() {
        let rig = CraneRig::default();
        let chassis = Transform::from_translation(Vec3::new(5.0, 0.0, 7.0));
        let tip = rig.boom_tip_world(&chassis);
        let hook = rig.hook_rest_position(&chassis);
        assert!((tip.x - hook.x).abs() < 1e-12);
        assert!((tip.z - hook.z).abs() < 1e-12);
        assert!((tip.y - hook.y - rig.state.cable_length).abs() < 1e-12);
    }

    #[test]
    fn safety_zone_alarm_trips_at_long_radius_and_low_boom() {
        let mut rig = CraneRig::default();
        rig.state.luff_angle = 45f64.to_radians();
        rig.state.boom_length = 12.0;
        assert!(!rig.outside_safety_zone());
        // Lower the boom fully and telescope out: radius exceeds the safe limit.
        rig.state.luff_angle = rig.limits.min_luff;
        rig.state.boom_length = rig.limits.max_boom_length;
        assert!(rig.outside_safety_zone());
        assert!(rig.radius_utilization() > 1.0);
    }

    #[test]
    fn extension_fraction_spans_unit_interval() {
        let mut rig = CraneRig::default();
        rig.state.boom_length = rig.limits.min_boom_length;
        assert!(rig.boom_extension_fraction().abs() < 1e-12);
        rig.state.boom_length = rig.limits.max_boom_length;
        assert!((rig.boom_extension_fraction() - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_state_always_within_limits(cmds in proptest::collection::vec((-2.0..2.0f64, -2.0..2.0f64, -2.0..2.0f64, -2.0..2.0f64), 1..200)) {
            let mut rig = CraneRig::default();
            for (slew, luff, telescope, hoist) in cmds {
                rig.step(CraneControls { slew, luff, telescope, hoist }, 0.25);
                let s = rig.state;
                let l = rig.limits;
                prop_assert!(s.luff_angle >= l.min_luff - 1e-9 && s.luff_angle <= l.max_luff + 1e-9);
                prop_assert!(s.boom_length >= l.min_boom_length - 1e-9 && s.boom_length <= l.max_boom_length + 1e-9);
                prop_assert!(s.cable_length >= l.min_cable_length - 1e-9 && s.cable_length <= l.max_cable_length + 1e-9);
                prop_assert!(s.slew_angle >= -std::f64::consts::PI - 1e-9 && s.slew_angle <= std::f64::consts::PI + 1e-9);
            }
        }
    }
}
