//! Tip-over stability and load-moment computation.
//!
//! Driving a mobile crane "is also a dangerous process" because "its center of
//! gravity is higher than that of other types of vehicle" (paper §3.6), and
//! overloading the boom at a long radius is the classic cause of tip-over
//! accidents the training device exists to prevent. This module computes the
//! load-moment utilization and a tip-over verdict; the instructor monitor turns
//! them into the alarm lights of Figure 5.

use crate::GRAVITY;

/// Static properties of the crane used for stability computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityModel {
    /// Mass of the crane itself, in kilograms.
    pub crane_mass: f64,
    /// Height of the crane's own centre of gravity above ground, in metres.
    pub cg_height: f64,
    /// Half-width of the support base (outriggers or wheel track), in metres.
    pub support_half_width: f64,
    /// Rated load moment in newton-metres (manufacturer limit).
    pub rated_moment: f64,
}

impl Default for StabilityModel {
    fn default() -> Self {
        StabilityModel {
            crane_mass: 25_000.0,
            cg_height: 1.6,
            support_half_width: 2.4,
            rated_moment: 650_000.0,
        }
    }
}

/// The stability verdict for one instant of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityReport {
    /// Overturning moment produced by the suspended load, in newton-metres.
    pub load_moment: f64,
    /// Fraction of the rated moment in use (1.0 = at the limit).
    pub moment_utilization: f64,
    /// Restoring moment of the crane's own weight about the tipping edge.
    pub restoring_moment: f64,
    /// Ratio of overturning to restoring moment (>= 1.0 means tipping).
    pub tipping_ratio: f64,
    /// Whether the overload alarm should sound (>= 90 % of the rated moment).
    pub overload_alarm: bool,
    /// Whether the crane is actually tipping over.
    pub tipping: bool,
}

impl StabilityModel {
    /// Evaluates stability for a suspended `load_mass` (kg) at horizontal
    /// `working_radius` (m) while the chassis is rolled by `roll` radians
    /// (terrain side slope).
    pub fn evaluate(&self, load_mass: f64, working_radius: f64, roll: f64) -> StabilityReport {
        let load_moment = load_mass * GRAVITY * working_radius.max(0.0);
        let moment_utilization =
            if self.rated_moment > 0.0 { load_moment / self.rated_moment } else { f64::INFINITY };

        // Tipping about the edge of the support base. A side slope both shifts
        // the crane's own CG toward the edge and adds to the load's lever arm.
        let cg_shift = self.cg_height * roll.sin().abs();
        let effective_arm = (self.support_half_width - cg_shift).max(0.0);
        let restoring_moment = self.crane_mass * GRAVITY * effective_arm;
        let overturning =
            load_mass * GRAVITY * ((working_radius - self.support_half_width).max(0.0) + cg_shift);
        let tipping_ratio =
            if restoring_moment > 0.0 { overturning / restoring_moment } else { f64::INFINITY };

        StabilityReport {
            load_moment,
            moment_utilization,
            restoring_moment,
            tipping_ratio,
            overload_alarm: moment_utilization >= 0.9,
            tipping: tipping_ratio >= 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unloaded_crane_is_stable() {
        let report = StabilityModel::default().evaluate(0.0, 10.0, 0.0);
        assert_eq!(report.load_moment, 0.0);
        assert!(!report.overload_alarm);
        assert!(!report.tipping);
        assert_eq!(report.tipping_ratio, 0.0);
    }

    #[test]
    fn utilization_grows_with_mass_and_radius() {
        let m = StabilityModel::default();
        let light_short = m.evaluate(1_000.0, 5.0, 0.0);
        let heavy_short = m.evaluate(5_000.0, 5.0, 0.0);
        let heavy_long = m.evaluate(5_000.0, 15.0, 0.0);
        assert!(heavy_short.moment_utilization > light_short.moment_utilization);
        assert!(heavy_long.moment_utilization > heavy_short.moment_utilization);
    }

    #[test]
    fn overload_alarm_at_ninety_percent() {
        let m = StabilityModel::default();
        // 90 % of 650 kNm at 10 m radius needs ~5.96 t.
        assert!(!m.evaluate(5_500.0, 10.0, 0.0).overload_alarm);
        assert!(m.evaluate(6_100.0, 10.0, 0.0).overload_alarm);
    }

    #[test]
    fn extreme_load_at_long_radius_tips_the_crane() {
        let m = StabilityModel::default();
        let safe = m.evaluate(3_000.0, 8.0, 0.0);
        assert!(!safe.tipping);
        let unsafe_lift = m.evaluate(20_000.0, 20.0, 0.0);
        assert!(unsafe_lift.tipping, "ratio = {}", unsafe_lift.tipping_ratio);
    }

    #[test]
    fn side_slope_reduces_the_margin() {
        let m = StabilityModel::default();
        let flat = m.evaluate(6_000.0, 14.0, 0.0);
        let sloped = m.evaluate(6_000.0, 14.0, 12f64.to_radians());
        assert!(sloped.tipping_ratio > flat.tipping_ratio);
        assert!(sloped.restoring_moment < flat.restoring_moment);
    }

    proptest! {
        #[test]
        fn prop_reports_are_finite_and_monotone_in_mass(mass in 0.0..30_000.0f64,
                                                        radius in 0.0..25.0f64,
                                                        roll in -0.3..0.3f64) {
            let m = StabilityModel::default();
            let r = m.evaluate(mass, radius, roll);
            prop_assert!(r.load_moment.is_finite());
            prop_assert!(r.tipping_ratio.is_finite());
            let heavier = m.evaluate(mass + 1_000.0, radius, roll);
            prop_assert!(heavier.moment_utilization >= r.moment_utilization);
            prop_assert!(heavier.tipping_ratio >= r.tipping_ratio - 1e-12);
        }
    }
}
