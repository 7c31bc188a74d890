//! Inertia oscillation of the lift hook (paper §3.6).
//!
//! "When the derrick boom is moving, the dynamic module computes the inertia of
//! the lift hook acts on the cable based upon the moving direction, speed and
//! weight of the cargo. When the derrick boom is stopped from moving, the same
//! computation of the inertia will be repeated and the cable is oscillated
//! until a full stop."
//!
//! The hook (plus any attached cargo) is modelled as a point mass hanging from
//! the boom tip on a stiff, damped cable constraint and integrated with small
//! fixed substeps. Moving the suspension point (the boom tip) injects inertia
//! into the bob; aerodynamic and structural damping make the oscillation decay
//! to a full stop once the boom is stationary.

use sim_math::Vec3;

use crate::GRAVITY;

/// The hook-and-cargo pendulum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CablePendulum {
    /// World position of the bob (hook + cargo).
    pub position: Vec3,
    /// World velocity of the bob.
    pub velocity: Vec3,
    /// Mass of the hook block alone, in kilograms.
    pub hook_mass: f64,
    /// Mass of the attached cargo, in kilograms (zero when nothing is hooked).
    pub cargo_mass: f64,
    /// Structural damping ratio of the cable (dimensionless, per unit mass).
    pub damping: f64,
    /// Cable stiffness (N/m per kilogram of suspended mass).
    pub stiffness: f64,
    /// Fixed substep used internally, in seconds.
    pub substep: f64,
}

impl CablePendulum {
    /// Creates a pendulum at rest hanging `cable_length` metres below `suspension`.
    ///
    /// # Panics
    ///
    /// Panics if `hook_mass` is not positive or `cable_length` is negative.
    pub fn new(suspension: Vec3, cable_length: f64, hook_mass: f64) -> CablePendulum {
        assert!(hook_mass > 0.0, "hook mass must be positive");
        assert!(cable_length >= 0.0, "cable length cannot be negative");
        CablePendulum {
            position: suspension - Vec3::new(0.0, cable_length, 0.0),
            velocity: Vec3::ZERO,
            hook_mass,
            cargo_mass: 0.0,
            damping: 0.55,
            stiffness: 400.0,
            substep: 1.0 / 240.0,
        }
    }

    /// Total suspended mass (hook plus cargo).
    pub fn total_mass(&self) -> f64 {
        self.hook_mass + self.cargo_mass
    }

    /// Attaches a cargo of `mass` kilograms to the hook.
    ///
    /// # Panics
    ///
    /// Panics if `mass` is negative.
    pub fn attach_cargo(&mut self, mass: f64) {
        assert!(mass >= 0.0, "cargo mass cannot be negative");
        self.cargo_mass = mass;
    }

    /// Releases the cargo.
    // audit:allow(dead-surface): ROADMAP item 4b — wire it into exam scoring or delete it.
    pub fn release_cargo(&mut self) {
        self.cargo_mass = 0.0;
    }

    /// Advances the pendulum by `dt` seconds with the suspension point (boom
    /// tip) at `suspension` and the commanded cable length `cable_length`.
    pub fn step(&mut self, suspension: Vec3, cable_length: f64, dt: f64) {
        CablePendulum::step_batch(&mut [(self, suspension, cable_length)], dt);
    }

    /// Advances every lane by `dt` seconds in lockstep: one substep sweep
    /// across all pendulums, then the next substep. Each lane is
    /// `(pendulum, suspension, cable_length)`. Per lane this performs exactly
    /// the arithmetic of [`CablePendulum::step`] in exactly its order (the
    /// substep schedule depends only on `dt` and the shared `substep`), so a
    /// batch of N lanes is bit-identical to N scalar steps.
    ///
    /// # Panics
    ///
    /// Panics if the lanes do not all share the same `substep` — lockstep
    /// needs a common substep schedule.
    pub fn step_batch(lanes: &mut [(&mut CablePendulum, Vec3, f64)], dt: f64) {
        debug_assert!(dt >= 0.0);
        let Some(substep) = lanes.first().map(|(p, _, _)| p.substep) else {
            return;
        };
        assert!(
            lanes.iter().all(|(p, _, _)| p.substep == substep),
            "lockstep pendulum lanes must share a substep"
        );
        let mut remaining = dt;
        while remaining > 1e-12 {
            let h = remaining.min(substep);
            for (pendulum, suspension, cable_length) in lanes.iter_mut() {
                pendulum.substep_once(*suspension, *cable_length, h);
            }
            remaining -= h;
        }
    }

    fn substep_once(&mut self, suspension: Vec3, cable_length: f64, h: f64) {
        let to_bob = self.position - suspension;
        let distance = to_bob.length().max(1e-6);
        let direction = to_bob / distance;

        // Stiff cable: pulls the bob toward the commanded length. A cable can
        // pull but not push, so slack cable exerts no force.
        let stretch = distance - cable_length;
        let mut accel = Vec3::new(0.0, -GRAVITY, 0.0);
        if stretch > 0.0 {
            accel -= direction * (self.stiffness * stretch);
            // Damp the radial velocity so the cable does not bounce like a spring.
            let radial_speed = self.velocity.dot(direction);
            accel -= direction * (2.0 * self.stiffness.sqrt() * radial_speed);
        }
        // Pendular (tangential) damping: air drag plus cable friction.
        accel -= self.velocity * self.damping;

        self.velocity += accel * h;
        self.position += self.velocity * h;
    }

    /// Horizontal swing amplitude: distance of the bob from the vertical line
    /// through the suspension point, in metres.
    pub fn swing_amplitude(&self, suspension: Vec3) -> f64 {
        (self.position - suspension).horizontal().length()
    }

    /// Swing angle from the vertical, in radians.
    pub fn swing_angle(&self, suspension: Vec3) -> f64 {
        let to_bob = suspension - self.position;
        if to_bob.length() < 1e-9 {
            return 0.0;
        }
        to_bob.horizontal().length().atan2(to_bob.y.abs())
    }

    /// Whether the pendulum has effectively come to a full stop.
    pub fn is_at_rest(&self, suspension: Vec3) -> bool {
        self.velocity.length() < 0.02 && self.swing_amplitude(suspension) < 0.05
    }

    /// The tension currently carried by the cable (newtons, zero when slack).
    // audit:allow(dead-surface): ROADMAP item 4b — wire it into exam scoring or delete it.
    pub fn cable_tension(&self, suspension: Vec3, cable_length: f64) -> f64 {
        let stretch = (self.position - suspension).length() - cable_length;
        if stretch <= 0.0 {
            0.0
        } else {
            self.stiffness * stretch * self.total_mass()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 1.0 / 60.0;

    #[test]
    fn hangs_at_rest_under_a_static_boom() {
        let suspension = Vec3::new(0.0, 15.0, 0.0);
        let mut p = CablePendulum::new(suspension, 6.0, 120.0);
        for _ in 0..600 {
            p.step(suspension, 6.0, DT);
        }
        assert!(p.is_at_rest(suspension));
        assert!((p.position.x).abs() < 1e-3);
        assert!((suspension.y - p.position.y - 6.0).abs() < 0.2, "cable length held");
    }

    #[test]
    fn boom_motion_injects_inertia_oscillation() {
        let mut suspension = Vec3::new(0.0, 15.0, 0.0);
        let mut p = CablePendulum::new(suspension, 6.0, 120.0);
        p.attach_cargo(2_000.0);
        // Slew the boom tip sideways for two seconds.
        let mut max_swing: f64 = 0.0;
        for i in 0..120 {
            suspension = Vec3::new(0.05 * i as f64, 15.0, 0.0);
            p.step(suspension, 6.0, DT);
            max_swing = max_swing.max(p.swing_amplitude(suspension));
        }
        assert!(max_swing > 0.2, "boom motion should swing the cargo, got {max_swing}");
    }

    #[test]
    fn oscillation_decays_to_full_stop_after_boom_stops() {
        let mut suspension = Vec3::new(0.0, 15.0, 0.0);
        let mut p = CablePendulum::new(suspension, 6.0, 120.0);
        p.attach_cargo(1_000.0);
        for i in 0..90 {
            suspension = Vec3::new(0.08 * i as f64, 15.0, 0.0);
            p.step(suspension, 6.0, DT);
        }
        let swinging = p.swing_amplitude(suspension);
        assert!(swinging > 0.1);
        // Boom now holds still; the oscillation must die out (paper: "until a full stop").
        for _ in 0..(60 * 60) {
            p.step(suspension, 6.0, DT);
        }
        assert!(p.is_at_rest(suspension), "pendulum still swinging after a minute");
        assert!(p.swing_amplitude(suspension) < swinging / 4.0);
    }

    #[test]
    fn amplitude_decay_is_monotonic_over_windows() {
        let suspension = Vec3::new(0.0, 12.0, 0.0);
        let mut p = CablePendulum::new(suspension, 5.0, 150.0);
        // Start displaced.
        p.position += Vec3::new(1.5, 0.3, 0.0);
        let mut window_peaks = Vec::new();
        for _ in 0..6 {
            let mut peak: f64 = 0.0;
            for _ in 0..240 {
                p.step(suspension, 5.0, DT);
                peak = peak.max(p.swing_amplitude(suspension));
            }
            window_peaks.push(peak);
        }
        for pair in window_peaks.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "amplitude grew: {window_peaks:?}");
        }
    }

    /// The swing period of `p` released 1 m to the side under a fixed
    /// suspension: twice the mean time between the first five zero crossings
    /// of its horizontal offset, each crossing interpolated within its frame.
    fn measured_period(mut p: CablePendulum, suspension: Vec3, cable_length: f64) -> f64 {
        p.position += Vec3::new(1.0, 0.0, 0.0);
        let mut crossings = Vec::new();
        let (mut t, mut x) = (0.0, p.position.x - suspension.x);
        while crossings.len() < 5 {
            p.step(suspension, cable_length, DT);
            let next = p.position.x - suspension.x;
            if x != 0.0 && next.signum() != x.signum() {
                crossings.push(t + DT * x / (x - next));
            }
            (t, x) = (t + DT, next);
            assert!(t < 120.0, "fewer than five zero crossings in two minutes");
        }
        2.0 * (crossings[4] - crossings[0]) / 4.0
    }

    #[test]
    fn heavier_cargo_swings_with_same_period_but_more_tension() {
        for cable_length in [8.0, 20.0] {
            for damping in [0.55, 0.0] {
                let suspension = Vec3::new(0.0, cable_length + 12.0, 0.0);
                let mut light = CablePendulum::new(suspension, cable_length, 100.0);
                light.damping = damping;
                let mut heavy = light;
                heavy.attach_cargo(5_000.0);

                // Closed form of the damped small-angle pendulum x'' + c x' + (g/L) x = 0.
                let omega = (GRAVITY / cable_length - (damping / 2.0).powi(2)).sqrt();
                let closed_form = 2.0 * std::f64::consts::PI / omega;
                let (light_period, heavy_period) = (
                    measured_period(light, suspension, cable_length),
                    measured_period(heavy, suspension, cable_length),
                );
                let case = format!("L = {cable_length} m, c = {damping}");
                assert!(
                    (heavy_period / light_period - 1.0).abs() < 0.005,
                    "{case}: light {light_period:.3} s, heavy {heavy_period:.3} s"
                );
                for period in [light_period, heavy_period] {
                    assert!(
                        (period / closed_form - 1.0).abs() < 0.005,
                        "{case}: measured {period:.3} s, closed form {closed_form:.3} s"
                    );
                }

                light.position += Vec3::new(1.0, 0.0, 0.0);
                heavy.position += Vec3::new(1.0, 0.0, 0.0);
                for _ in 0..120 {
                    light.step(suspension, cable_length, DT);
                    heavy.step(suspension, cable_length, DT);
                }
                let tension = |p: &CablePendulum| p.cable_tension(suspension, cable_length);
                assert!(tension(&heavy) > tension(&light), "{case}");
            }
        }
    }

    #[test]
    fn lowering_the_cable_lowers_the_hook() {
        let suspension = Vec3::new(0.0, 15.0, 0.0);
        let mut p = CablePendulum::new(suspension, 3.0, 120.0);
        for _ in 0..240 {
            p.step(suspension, 3.0, DT);
        }
        let high = p.position.y;
        for _ in 0..1200 {
            p.step(suspension, 9.0, DT);
        }
        let low = p.position.y;
        assert!(high - low > 5.0, "hook did not follow the cable: {high} -> {low}");
    }

    #[test]
    fn slack_cable_exerts_no_tension() {
        let suspension = Vec3::new(0.0, 10.0, 0.0);
        let mut p = CablePendulum::new(suspension, 5.0, 100.0);
        // Put the bob well above its rest point: the cable is slack.
        p.position = suspension - Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(p.cable_tension(suspension, 5.0), 0.0);
    }

    #[test]
    fn batched_lanes_are_bit_identical_to_scalar_steps() {
        let make = |k: usize| {
            let suspension = Vec3::new(0.2 * k as f64, 14.0 + k as f64, -0.1 * k as f64);
            let mut p = CablePendulum::new(suspension, 5.0 + 0.5 * k as f64, 110.0);
            p.attach_cargo(400.0 * k as f64);
            p.position += Vec3::new(0.8, 0.0, 0.3 * k as f64);
            (p, suspension)
        };
        let mut batched: Vec<(CablePendulum, Vec3)> = (0..6).map(make).collect();
        let mut scalar = batched.clone();
        for frame in 0..240 {
            // Moving suspension points keep the cohort's dynamics divergent.
            let sway = 0.02 * frame as f64;
            let mut lanes: Vec<(&mut CablePendulum, Vec3, f64)> = batched
                .iter_mut()
                .enumerate()
                .map(|(k, (p, base))| (p, *base + Vec3::new(sway, 0.0, 0.0), 5.0 + 0.5 * k as f64))
                .collect();
            CablePendulum::step_batch(&mut lanes, DT);
            for (k, (p, base)) in scalar.iter_mut().enumerate() {
                p.step(*base + Vec3::new(sway, 0.0, 0.0), 5.0 + 0.5 * k as f64, DT);
            }
        }
        for (k, ((a, _), (b, _))) in batched.iter().zip(scalar.iter()).enumerate() {
            assert_eq!(a.position.x.to_bits(), b.position.x.to_bits(), "lane {k} diverged");
            assert_eq!(a.position.y.to_bits(), b.position.y.to_bits(), "lane {k} diverged");
            assert_eq!(a.position.z.to_bits(), b.position.z.to_bits(), "lane {k} diverged");
            assert_eq!(a.velocity.x.to_bits(), b.velocity.x.to_bits(), "lane {k} diverged");
            assert_eq!(a.velocity.y.to_bits(), b.velocity.y.to_bits(), "lane {k} diverged");
            assert_eq!(a.velocity.z.to_bits(), b.velocity.z.to_bits(), "lane {k} diverged");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        CablePendulum::step_batch(&mut [], DT);
    }

    #[test]
    #[should_panic]
    fn mixed_substep_batch_rejected() {
        let suspension = Vec3::new(0.0, 10.0, 0.0);
        let mut a = CablePendulum::new(suspension, 5.0, 100.0);
        let mut b = CablePendulum::new(suspension, 5.0, 100.0);
        b.substep = 1.0 / 120.0;
        CablePendulum::step_batch(&mut [(&mut a, suspension, 5.0), (&mut b, suspension, 5.0)], DT);
    }

    #[test]
    #[should_panic]
    fn zero_mass_rejected() {
        let _ = CablePendulum::new(Vec3::ZERO, 5.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_cargo_rejected() {
        let mut p = CablePendulum::new(Vec3::ZERO, 5.0, 10.0);
        p.attach_cargo(-1.0);
    }
}
