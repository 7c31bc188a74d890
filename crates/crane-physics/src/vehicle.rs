//! Driving model of the mobile crane with terrain following (paper §3.6).

use sim_math::{clamp, Quat, Transform, Vec3};

use crate::terrain::Terrain;

/// Parameters of the crane carrier vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleParams {
    /// Total vehicle mass in kilograms.
    pub mass: f64,
    /// Wheelbase in metres.
    pub wheelbase: f64,
    /// Maximum steering angle of the front axle in radians.
    pub max_steer: f64,
    /// Maximum engine drive force in newtons.
    pub max_drive_force: f64,
    /// Maximum braking force in newtons.
    pub max_brake_force: f64,
    /// Quadratic drag coefficient (N per (m/s)^2).
    pub drag: f64,
    /// Rolling resistance force in newtons.
    pub rolling_resistance: f64,
    /// Maximum forward speed in metres per second (a mobile crane is slow).
    pub max_speed: f64,
}

impl Default for VehicleParams {
    fn default() -> Self {
        VehicleParams {
            mass: 25_000.0,
            wheelbase: 4.2,
            max_steer: 32f64.to_radians(),
            max_drive_force: 90_000.0,
            max_brake_force: 160_000.0,
            drag: 18.0,
            rolling_resistance: 2_500.0,
            max_speed: 11.0,
        }
    }
}

/// Driver inputs from the dashboard mockup (steering wheel, gas pedal, brake).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DriveControls {
    /// Steering wheel position in `[-1, 1]` (positive steers left).
    pub steering: f64,
    /// Gas pedal in `[0, 1]`.
    pub throttle: f64,
    /// Brake pedal in `[0, 1]`.
    pub brake: f64,
    /// Reverse gear selected.
    pub reverse: bool,
}

impl DriveControls {
    /// Clamps every channel into its valid range.
    pub fn clamped(self) -> DriveControls {
        DriveControls {
            steering: clamp(self.steering, -1.0, 1.0),
            throttle: clamp(self.throttle, 0.0, 1.0),
            brake: clamp(self.brake, 0.0, 1.0),
            reverse: self.reverse,
        }
    }
}

/// The crane carrier: a bicycle-model vehicle that follows the terrain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CraneVehicle {
    /// Vehicle parameters.
    pub params: VehicleParams,
    /// Ground-plane position (x, z); y is taken from the terrain.
    pub position: Vec3,
    /// Heading angle about +Y in radians (0 faces +Z).
    pub heading: f64,
    /// Signed forward speed in metres per second (negative when reversing).
    pub speed: f64,
    /// Chassis pitch from terrain following, in radians.
    pub pitch: f64,
    /// Chassis roll from terrain following, in radians.
    pub roll: f64,
}

impl CraneVehicle {
    /// Creates a vehicle at `position` facing `heading`.
    pub fn new(params: VehicleParams, position: Vec3, heading: f64) -> CraneVehicle {
        CraneVehicle { params, position, heading, speed: 0.0, pitch: 0.0, roll: 0.0 }
    }

    /// Forward unit vector on the ground plane.
    pub fn forward(&self) -> Vec3 {
        Vec3::new(self.heading.sin(), 0.0, self.heading.cos())
    }

    /// Advances the vehicle by `dt` seconds over `terrain`.
    pub fn step(&mut self, controls: DriveControls, terrain: &dyn Terrain, dt: f64) {
        let c = controls.clamped();
        let p = self.params;

        // Longitudinal dynamics.
        let direction = if c.reverse { -1.0 } else { 1.0 };
        let drive = direction * c.throttle * p.max_drive_force;
        let brake = if self.speed.abs() > 1e-3 {
            -self.speed.signum() * c.brake * p.max_brake_force
        } else {
            0.0
        };
        let drag = -self.speed * self.speed.abs() * p.drag;
        let rolling =
            if self.speed.abs() > 1e-3 { -self.speed.signum() * p.rolling_resistance } else { 0.0 };
        // Grade resistance: gravity component along the direction of travel.
        // The terrain normal tilts away from the uphill direction, so its
        // horizontal part dotted with the forward vector is negative when
        // climbing — which is exactly the sign the resisting force needs.
        let grade = terrain.normal(self.position.x, self.position.z);
        let slope_along =
            self.forward().dot(Vec3::new(grade.x, 0.0, grade.z)) * crate::GRAVITY * p.mass;

        let force = drive + brake + drag + rolling + slope_along;
        let accel = force / p.mass;
        let new_speed = self.speed + accel * dt;
        // Braking never reverses the direction of travel by itself.
        self.speed =
            if c.throttle < 1e-6 && new_speed * self.speed < 0.0 { 0.0 } else { new_speed };
        self.speed = clamp(self.speed, -p.max_speed * 0.4, p.max_speed);

        // Bicycle-model yaw rate.
        let steer = c.steering * p.max_steer;
        if steer.abs() > 1e-6 && self.speed.abs() > 1e-3 {
            let turn_radius = p.wheelbase / steer.tan();
            self.heading = sim_math::wrap_to_pi(self.heading + self.speed / turn_radius * dt);
        }

        // Integrate ground-plane position and follow the terrain height.
        let delta = self.forward() * (self.speed * dt);
        self.position += delta;
        self.position.y = terrain.height(self.position.x, self.position.z);

        // Terrain following: derive pitch and roll from wheel contact points.
        let ahead = self.position + self.forward() * (p.wheelbase / 2.0);
        let behind = self.position - self.forward() * (p.wheelbase / 2.0);
        let right = self.forward().cross(Vec3::unit_y());
        let left_p = self.position - right * 1.3;
        let right_p = self.position + right * 1.3;
        let h_ahead = terrain.height(ahead.x, ahead.z);
        let h_behind = terrain.height(behind.x, behind.z);
        let h_left = terrain.height(left_p.x, left_p.z);
        let h_right = terrain.height(right_p.x, right_p.z);
        self.pitch = ((h_behind - h_ahead) / p.wheelbase).atan();
        self.roll = ((h_right - h_left) / 2.6).atan();
    }

    /// The chassis pose (terrain-following height, heading, pitch and roll).
    pub fn chassis_transform(&self) -> Transform {
        let rotation = Quat::from_axis_angle(Vec3::unit_y(), self.heading)
            * Quat::from_axis_angle(Vec3::unit_x(), self.pitch)
            * Quat::from_axis_angle(Vec3::unit_z(), self.roll);
        Transform::new(self.position, rotation)
    }

    /// Speed as displayed on the dashboard, in kilometres per hour.
    pub fn speed_kmh(&self) -> f64 {
        self.speed.abs() * 3.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::{FlatTerrain, FnTerrain};

    const DT: f64 = 1.0 / 60.0;

    #[test]
    fn accelerates_and_respects_top_speed() {
        let terrain = FlatTerrain::default();
        let mut v = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
        for _ in 0..(60 * 60) {
            v.step(DriveControls { throttle: 1.0, ..Default::default() }, &terrain, DT);
        }
        assert!(v.speed > 5.0);
        assert!(v.speed <= v.params.max_speed + 1e-9);
        assert!(v.position.z > 100.0, "vehicle did not move forward");
        assert!(v.speed_kmh() > 18.0);
    }

    #[test]
    fn braking_stops_without_reversing() {
        let terrain = FlatTerrain::default();
        let mut v = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
        for _ in 0..600 {
            v.step(DriveControls { throttle: 1.0, ..Default::default() }, &terrain, DT);
        }
        for _ in 0..600 {
            v.step(DriveControls { brake: 1.0, ..Default::default() }, &terrain, DT);
        }
        assert!(v.speed.abs() < 1e-6, "vehicle still moving: {}", v.speed);
    }

    #[test]
    fn steering_turns_the_heading() {
        let terrain = FlatTerrain::default();
        let mut v = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
        for _ in 0..600 {
            v.step(
                DriveControls { throttle: 0.6, steering: 1.0, ..Default::default() },
                &terrain,
                DT,
            );
        }
        assert!(v.heading.abs() > 0.3, "heading barely changed: {}", v.heading);
    }

    #[test]
    fn reverse_gear_moves_backwards() {
        let terrain = FlatTerrain::default();
        let mut v = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
        for _ in 0..600 {
            v.step(
                DriveControls { throttle: 0.5, reverse: true, ..Default::default() },
                &terrain,
                DT,
            );
        }
        assert!(v.position.z < -1.0);
        assert!(v.speed < 0.0);
    }

    #[test]
    fn terrain_following_sets_height_pitch_and_roll() {
        // A side slope: height rises with x.
        let terrain = FnTerrain::new(|x: f64, _z: f64| 0.2 * x);
        let mut v = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
        for _ in 0..300 {
            v.step(DriveControls { throttle: 0.5, ..Default::default() }, &terrain, DT);
        }
        assert!((v.position.y - 0.2 * v.position.x).abs() < 1e-9);
        assert!(v.roll.abs() > 0.05, "side slope should roll the chassis");

        // A climb: height rises with z (direction of travel).
        let climb = FnTerrain::new(|_x: f64, z: f64| 0.15 * z);
        let mut v = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
        for _ in 0..300 {
            v.step(DriveControls { throttle: 1.0, ..Default::default() }, &climb, DT);
        }
        assert!(v.pitch.abs() > 0.05, "climb should pitch the chassis");
    }

    #[test]
    fn uphill_grade_slows_the_vehicle() {
        let flat = FlatTerrain::default();
        let climb = FnTerrain::new(|_x: f64, z: f64| 0.3 * z);
        let mut on_flat = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
        let mut on_climb = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
        // Five seconds of full throttle, before either vehicle saturates the
        // speed limiter on the climb.
        for _ in 0..300 {
            on_flat.step(DriveControls { throttle: 1.0, ..Default::default() }, &flat, DT);
            on_climb.step(DriveControls { throttle: 1.0, ..Default::default() }, &climb, DT);
        }
        assert!(
            on_climb.speed < on_flat.speed - 1.0,
            "grade resistance missing: climb {} vs flat {}",
            on_climb.speed,
            on_flat.speed
        );
    }

    #[test]
    fn chassis_transform_matches_state() {
        let terrain = FlatTerrain { height: 1.5 };
        let mut v = CraneVehicle::new(VehicleParams::default(), Vec3::new(3.0, 0.0, 4.0), 0.7);
        v.step(DriveControls::default(), &terrain, DT);
        let t = v.chassis_transform();
        assert!((t.translation.y - 1.5).abs() < 1e-12);
        let fwd = t.apply_direction(Vec3::unit_z());
        assert!(fwd.dot(v.forward()) > 0.99);
    }
}
