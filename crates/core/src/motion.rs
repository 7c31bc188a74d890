//! The motion platform controller module (paper §3.4) as a Logical Process.
//!
//! Converts the reflected crane state into motion cues, runs the washout and
//! interpolation pipeline of the `motion-platform` crate at a servo rate much
//! higher than the visual frame rate, and keeps the interpolation synchronized
//! with the displayed frames so the rider's vestibular and visual senses agree.

use cod_cb::{CbApi, CbError, ClassRegistry};
use cod_cluster::LogicalProcess;
use cod_net::Micros;
use motion_platform::{MotionController, MotionCue};
use sim_math::Vec3;

use crate::fom::{CraneFom, CraneStateMsg};
use crate::telemetry::SharedTelemetry;

/// Servo updates performed per visual frame.
const SERVO_SUBSTEPS: usize = 12;

/// Decorrelates the platform's vibration stream from the other consumers of
/// the session seed (the LAN jitter model draws from the raw seed).
const MOTION_SEED_SALT: u64 = 0x5eed;

/// The motion-platform controller Logical Process.
pub struct MotionPlatformLp {
    fom: CraneFom,
    telemetry: SharedTelemetry,
    visual_fps: f64,
    controller: MotionController,
    crane: CraneStateMsg,
    previous_speed: f64,
    previous_yaw: f64,
    cues_processed: u64,
}

impl MotionPlatformLp {
    /// Creates the module, synchronized to `visual_fps` frames per second.
    /// `seed` is the session seed; the module salts it before seeding its
    /// vibration model.
    ///
    /// `_registry` is unused (the attribute ids live in `fom`); the parameter
    /// stays until `benchmark/`, which calls this constructor, is re-bound.
    pub fn new(
        _registry: ClassRegistry,
        fom: CraneFom,
        visual_fps: f64,
        seed: u64,
        telemetry: SharedTelemetry,
    ) -> MotionPlatformLp {
        MotionPlatformLp {
            fom,
            telemetry,
            visual_fps,
            controller: MotionController::new(visual_fps, seed ^ MOTION_SEED_SALT),
            crane: CraneStateMsg::default(),
            previous_speed: 0.0,
            previous_yaw: 0.0,
            cues_processed: 0,
        }
    }

    /// Number of motion cues processed so far.
    pub fn cues_processed(&self) -> u64 {
        self.cues_processed
    }
}

impl LogicalProcess for MotionPlatformLp {
    fn name(&self) -> &str {
        "motion-platform"
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.subscribe_object_class(self.fom.crane_state)
    }

    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError> {
        for reflection in cb.reflections() {
            if reflection.class == self.fom.crane_state {
                self.crane = CraneStateMsg::from_values(&self.fom, &reflection.values);
            }
        }

        // Derive body-frame cues from the reflected state.
        let forward_accel =
            if dt > 0.0 { (self.crane.speed - self.previous_speed) / dt } else { 0.0 };
        let yaw_rate = if dt > 0.0 {
            sim_math::wrap_to_pi(self.crane.chassis_yaw - self.previous_yaw) / dt
        } else {
            0.0
        };
        self.previous_speed = self.crane.speed;
        self.previous_yaw = self.crane.chassis_yaw;

        let cue = MotionCue {
            acceleration: Vec3::new(0.0, 0.0, forward_accel),
            pitch: self.crane.chassis_pitch,
            roll: self.crane.chassis_roll,
            yaw_rate,
            engine_intensity: self.crane.engine_intensity,
        };
        self.controller.push_cue(cue);
        self.cues_processed += 1;

        // Servo loop: interpolate the pose at a much higher rate than the cue rate.
        let servo_dt = dt / SERVO_SUBSTEPS as f64;
        let mut saturated = false;
        for _ in 0..SERVO_SUBSTEPS {
            self.controller.servo_step(servo_dt);
            saturated |= self.controller.any_actuator_saturated();
        }
        self.telemetry.update(|t| t.platform_saturated |= saturated);
        Ok(())
    }

    fn last_step_cost(&self) -> Micros {
        Micros::from_millis(6)
    }

    fn begin_session(&mut self, _cb: &mut dyn CbApi, seed: u64) -> Result<(), CbError> {
        self.controller = MotionController::new(self.visual_fps, seed ^ MOTION_SEED_SALT);
        self.crane = CraneStateMsg::default();
        self.previous_speed = 0.0;
        self.previous_yaw = 0.0;
        self.cues_processed = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_cluster::{Cluster, ClusterConfig};

    #[test]
    fn motion_module_consumes_cues_in_a_cluster() {
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();
        let mut cluster = Cluster::new(ClusterConfig::default(), registry.clone());
        let pc = cluster.add_computer("motion-pc");
        cluster
            .add_lp(pc, Box::new(MotionPlatformLp::new(registry, fom, 16.0, 1, telemetry.clone())))
            .unwrap();
        cluster.initialize().unwrap();
        cluster.run_frames(20).unwrap();
        // The module processed one cue per frame even with no publisher around.
        // (Its crane state stays at defaults, which is a quiet platform.)
        assert!(!telemetry.snapshot().platform_saturated);
    }

    #[test]
    fn standalone_step_derives_accelerations() {
        let (registry, fom) = CraneFom::standard();
        let mut lp = MotionPlatformLp::new(registry, fom, 16.0, 2, SharedTelemetry::new());
        lp.crane.speed = 2.0;
        assert_eq!(lp.cues_processed(), 0);
        assert_eq!(lp.previous_speed, 0.0);
    }
}
