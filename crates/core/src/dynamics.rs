//! The dynamics module (paper §3.6) as a Logical Process.
//!
//! Consumes operator inputs, advances the vehicle, crane rig, hook pendulum,
//! terrain following and collision detection, and publishes the crane and hook
//! state every frame. Collisions are announced as interactions so the audio
//! module can play the clang and the scenario module can deduct points.

use std::collections::BTreeMap;

use cod_cb::{CbApi, CbError, ClassRegistry, ObjectId};
use cod_cluster::LogicalProcess;
use cod_net::Micros;
use crane_physics::collision::response::resolve_contact;
use crane_physics::collision::CollisionWorld;
use crane_physics::terrain::FnTerrain;
use crane_physics::{
    CablePendulum, CraneControls, CraneRig, CraneVehicle, DriveControls, StabilityModel,
    VehicleParams,
};
use crane_scene::world::{training_ground_height, TrainingWorld};
use sim_math::Vec3;

use crate::fom::{CollisionMsg, CraneFom, CraneStateMsg, HookStateMsg};
use crate::operator::Observation;
use crate::telemetry::SharedTelemetry;

/// How close the empty hook must come to the cargo for the rigger to attach it.
const ATTACH_DISTANCE: f64 = 1.5;
/// Minimum simulated seconds between two scored collision events against the
/// same obstacle (debounces a scraping contact into one deduction).
const COLLISION_COOLDOWN: f64 = 2.0;

/// The dynamics model Logical Process.
pub struct DynamicsLp {
    fom: CraneFom,
    telemetry: SharedTelemetry,

    vehicle: CraneVehicle,
    rig: CraneRig,
    pendulum: CablePendulum,
    collision: CollisionWorld,
    terrain: FnTerrain<fn(f64, f64) -> f64>,
    stability: StabilityModel,

    start_position: Vec3,
    start_heading: f64,
    cargo_rest_position: Vec3,
    cargo_mass: f64,
    cargo_attached: bool,

    observation: Observation,
    crane_object: Option<ObjectId>,
    hook_object: Option<ObjectId>,
    collision_cooldowns: BTreeMap<String, f64>,
    elapsed: f64,
    previous_speed: f64,
    step_cost: Micros,
}

impl DynamicsLp {
    /// Creates the dynamics module for the standard training world.
    ///
    /// `_registry` is unused (an attribute's id is its position); the parameter
    /// stays until `benchmark/`, which calls this constructor, is re-bound.
    pub fn new(
        _registry: ClassRegistry,
        fom: CraneFom,
        cargo_mass: f64,
        telemetry: SharedTelemetry,
    ) -> DynamicsLp {
        let world = TrainingWorld::shared();
        let course = &world.course;
        let start = course.start_position;
        let vehicle = CraneVehicle::new(VehicleParams::default(), start, course.start_heading);
        let rig = CraneRig::default();
        let boom_tip = rig.boom_tip_world(&vehicle.chassis_transform());
        let pendulum = CablePendulum::new(boom_tip, rig.state.cable_length, 120.0);
        let cargo_rest_position = course.pickup_center + Vec3::new(0.0, 0.6, 0.0);
        let mut collision = CollisionWorld::from_obstacles(&world.obstacles);
        collision.build_grid(12.0);
        DynamicsLp {
            fom,
            telemetry,
            vehicle,
            rig,
            pendulum,
            collision,
            terrain: FnTerrain::new(training_ground_height),
            stability: StabilityModel::default(),
            start_position: start,
            start_heading: course.start_heading,
            cargo_rest_position,
            cargo_mass,
            cargo_attached: false,
            observation: Observation::default(),
            crane_object: None,
            hook_object: None,
            collision_cooldowns: BTreeMap::new(),
            elapsed: 0.0,
            previous_speed: 0.0,
            step_cost: Micros::from_millis(15),
        }
    }

    /// Whether the cargo is currently hanging from the hook.
    pub fn cargo_attached(&self) -> bool {
        self.cargo_attached
    }

    fn cargo_position(&self) -> Vec3 {
        if self.cargo_attached {
            self.pendulum.position - Vec3::new(0.0, 0.6, 0.0)
        } else {
            self.cargo_rest_position
        }
    }

    fn crane_state_msg(&self) -> CraneStateMsg {
        let chassis = self.vehicle.chassis_transform();
        let load = if self.cargo_attached { self.cargo_mass } else { 0.0 };
        let stability = self.stability.evaluate(load, self.rig.working_radius(), self.vehicle.roll);
        CraneStateMsg {
            chassis_position: self.vehicle.position,
            chassis_yaw: self.vehicle.heading,
            chassis_pitch: self.vehicle.pitch,
            chassis_roll: self.vehicle.roll,
            speed: self.vehicle.speed,
            engine_intensity: (self.observation.input.throttle.abs()
                + self.vehicle.speed.abs() / 10.0)
                .clamp(0.1, 1.0),
            slew_angle: self.rig.state.slew_angle,
            luff_angle: self.rig.state.luff_angle,
            boom_length: self.rig.state.boom_length,
            cable_length: self.rig.state.cable_length,
            boom_tip: self.rig.boom_tip_world(&chassis),
            radius_utilization: self.rig.radius_utilization(),
            moment_utilization: stability.moment_utilization,
        }
    }

    fn hook_state_msg(&self, boom_tip: Vec3) -> HookStateMsg {
        HookStateMsg {
            hook_position: self.pendulum.position,
            cargo_position: self.cargo_position(),
            swing_angle: self.pendulum.swing_angle(boom_tip),
            cargo_attached: self.cargo_attached,
            cargo_mass: if self.cargo_attached { self.cargo_mass } else { 0.0 },
        }
    }
}

impl LogicalProcess for DynamicsLp {
    fn name(&self) -> &str {
        "dynamics"
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.publish_object_class(self.fom.crane_state)?;
        cb.publish_object_class(self.fom.hook_state)?;
        cb.subscribe_object_class(self.fom.operator_input)?;
        self.crane_object = Some(cb.register_object(self.fom.crane_state)?);
        self.hook_object = Some(cb.register_object(self.fom.hook_state)?);
        Ok(())
    }

    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError> {
        self.elapsed += dt;

        // 1. Pull the freshest operator input.
        self.observation.reflect(&self.fom, cb);

        // 2. Vehicle and crane rig kinematics.
        self.previous_speed = self.vehicle.speed;
        let input = &self.observation.input;
        let drive = DriveControls {
            steering: input.steering,
            throttle: input.throttle,
            brake: input.brake,
            reverse: input.reverse,
        };
        self.vehicle.step(drive, &self.terrain, dt);
        let crane_controls = CraneControls {
            slew: input.slew,
            luff: input.luff,
            telescope: input.telescope,
            hoist: input.hoist,
        };
        self.rig.step(crane_controls, dt);

        // 3. Hook pendulum under the moving boom tip.
        let chassis = self.vehicle.chassis_transform();
        let boom_tip = self.rig.boom_tip_world(&chassis);
        self.pendulum.step(boom_tip, self.rig.state.cable_length, dt);

        // 4. Cargo pickup.
        if !self.cargo_attached
            && self.pendulum.position.distance(self.cargo_rest_position) < ATTACH_DISTANCE
        {
            self.cargo_attached = true;
            self.pendulum.attach_cargo(self.cargo_mass);
        }

        // 5. Multi-level collision detection for the hook / carried cargo.
        for cooldown in self.collision_cooldowns.values_mut() {
            *cooldown -= dt;
        }
        let probe_radius = if self.cargo_attached { 1.1 } else { 0.5 };
        let contacts = self.collision.query_sphere(self.pendulum.position, probe_radius);
        for contact in contacts {
            let resolution =
                resolve_contact(self.pendulum.position, self.pendulum.velocity, &contact, 0.3);
            self.pendulum.position = resolution.position;
            self.pendulum.velocity = resolution.velocity;
            let ready =
                self.collision_cooldowns.get(&contact.name).map(|c| *c <= 0.0).unwrap_or(true);
            if ready && resolution.impulse > 0.05 {
                self.collision_cooldowns.insert(contact.name.clone(), COLLISION_COOLDOWN);
                let msg = CollisionMsg {
                    location: contact.point,
                    impulse: resolution.impulse,
                    obstacle: contact.name.clone(),
                    scored: contact.scored,
                };
                cb.send_interaction(self.fom.collision, msg.to_values())?;
            }
        }

        // 6. Publish the new state.
        let crane_msg = self.crane_state_msg();
        let hook_msg = self.hook_state_msg(boom_tip);
        cb.update_attributes(
            self.crane_object.expect("init registered the crane object"),
            crane_msg.to_values(),
        )?;
        cb.update_attributes(
            self.hook_object.expect("init registered the hook object"),
            hook_msg.to_values(),
        )?;

        // 7. Telemetry.
        let swing = self.pendulum.swing_amplitude(boom_tip);
        self.telemetry.update(|t| {
            t.crane = crane_msg;
            t.hook = hook_msg;
            t.max_swing = t.max_swing.max(swing);
            t.last_swing = swing;
        });
        Ok(())
    }

    fn last_step_cost(&self) -> Micros {
        self.step_cost
    }

    fn begin_session(&mut self, _cb: &mut dyn CbApi, _seed: u64) -> Result<(), CbError> {
        // Rebuild the moving bodies exactly as the constructor does; the
        // static assets (collision world, terrain, registered objects) are the
        // reusable part and stay untouched.
        self.vehicle =
            CraneVehicle::new(VehicleParams::default(), self.start_position, self.start_heading);
        self.rig = CraneRig::default();
        let boom_tip = self.rig.boom_tip_world(&self.vehicle.chassis_transform());
        self.pendulum = CablePendulum::new(boom_tip, self.rig.state.cable_length, 120.0);
        self.cargo_attached = false;
        self.observation = Observation::default();
        self.collision_cooldowns.clear();
        self.elapsed = 0.0;
        self.previous_speed = 0.0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::CraneFom;
    use cod_cluster::{Cluster, ClusterConfig};

    fn single_pc_cluster() -> (Cluster, ClassRegistry, CraneFom, SharedTelemetry) {
        let (registry, fom) = CraneFom::standard();
        let cluster = Cluster::new(ClusterConfig::default(), registry.clone());
        (cluster, registry, fom, SharedTelemetry::new())
    }

    #[test]
    fn dynamics_publishes_state_every_frame() {
        let (mut cluster, registry, fom, telemetry) = single_pc_cluster();
        let pc = cluster.add_computer("dynamics-pc");
        cluster
            .add_lp(pc, Box::new(DynamicsLp::new(registry, fom, 1_000.0, telemetry.clone())))
            .unwrap();
        cluster.initialize().unwrap();
        cluster.run_frames(30).unwrap();
        let snap = telemetry.snapshot();
        // The published chassis is the idle crane at the course start, not
        // the message default at the origin 40 m away.
        let start = TrainingWorld::shared().course.start_position;
        let offset = snap.crane.chassis_position.horizontal().distance(start.horizontal());
        assert!(offset < 1.0, "idle chassis published {offset:.2} m from the start");
        assert!(snap.crane.cable_length > 0.0);
        assert!(snap.hook.hook_position.y > 0.0);
        assert!(!snap.hook.cargo_attached, "nothing should attach while idle at the start");
    }

    #[test]
    fn hook_starts_near_the_boom_tip_rest_position() {
        let (registry, fom) = CraneFom::standard();
        let lp = DynamicsLp::new(registry, fom, 500.0, SharedTelemetry::new());
        let chassis = lp.vehicle.chassis_transform();
        let tip = lp.rig.boom_tip_world(&chassis);
        assert!(lp.pendulum.position.y < tip.y);
        assert!((tip.horizontal() - lp.pendulum.position.horizontal()).length() < 0.5);
        assert!(!lp.cargo_attached());
    }

    #[test]
    fn cargo_position_tracks_the_hook_once_attached() {
        let (registry, fom) = CraneFom::standard();
        let mut lp = DynamicsLp::new(registry, fom, 800.0, SharedTelemetry::new());
        assert_eq!(lp.cargo_position(), lp.cargo_rest_position);
        lp.cargo_attached = true;
        lp.pendulum.position = Vec3::new(1.0, 4.0, 2.0);
        assert!(lp.cargo_position().distance(Vec3::new(1.0, 3.4, 2.0)) < 1e-9);
    }
}
