//! The scenario control module (paper §3.5) as a Logical Process.
//!
//! Manages the state changes of the virtual world and evaluates the trainee:
//! drive from the starting point to the testing ground, lift the cargo out of
//! the white circle, carry it along the barred trajectory to the far side and
//! back, losing points for every bar collision. The score is published so the
//! instructor's Status window can display it live.

use cod_cb::{CbApi, CbError, ClassRegistry, ObjectId};
use cod_cluster::LogicalProcess;
use cod_net::Micros;
use crane_scene::course::{Course, CoursePhase};

use crate::fom::{CollisionMsg, CraneFom, CraneStateMsg, HookStateMsg, ScenarioStateMsg};
use crate::telemetry::SharedTelemetry;

/// Points deducted for each scored bar collision.
pub const BAR_COLLISION_PENALTY: f64 = 10.0;
/// Score required to pass the licensing exam.
pub const PASSING_SCORE: f64 = 60.0;
/// Time limit of the exam in seconds.
pub const TIME_LIMIT: f64 = 900.0;

/// The scenario / scoring Logical Process.
pub struct ScenarioLp {
    fom: CraneFom,
    course: Course,
    telemetry: SharedTelemetry,

    phase: CoursePhase,
    score: f64,
    elapsed: f64,
    bar_hits: u32,
    crane: CraneStateMsg,
    hook: HookStateMsg,
    state_object: Option<ObjectId>,
}

impl ScenarioLp {
    /// Creates the scenario module for the licensing-exam course.
    ///
    /// `_registry` is unused (the attribute ids live in `fom`); the parameter
    /// stays until `benchmark/`, which calls this constructor, is re-bound.
    pub fn new(_registry: ClassRegistry, fom: CraneFom, telemetry: SharedTelemetry) -> ScenarioLp {
        ScenarioLp {
            fom,
            course: Course::licensing_exam(),
            telemetry,
            phase: CoursePhase::Driving,
            score: 100.0,
            elapsed: 0.0,
            bar_hits: 0,
            crane: CraneStateMsg::default(),
            hook: HookStateMsg::default(),
            state_object: None,
        }
    }

    /// Current phase of the exam.
    pub fn phase(&self) -> CoursePhase {
        self.phase
    }

    /// Current score.
    pub fn score(&self) -> f64 {
        self.score
    }

    fn phase_name(&self) -> &'static str {
        match self.phase {
            CoursePhase::Driving => "Driving",
            CoursePhase::Lifting => "Lifting",
            CoursePhase::Traverse => "Traverse",
            CoursePhase::Return => "Return",
            CoursePhase::Complete => "Complete",
        }
    }

    /// Evaluates the phase-transition rules against the latest state. Exposed
    /// for unit testing; the LP calls it every frame.
    pub fn advance_phase(&mut self) {
        let cargo = self.hook.cargo_position;
        match self.phase {
            CoursePhase::Driving => {
                let at_ground = self
                    .crane
                    .chassis_position
                    .horizontal()
                    .distance(self.course.pickup_center.horizontal())
                    < 14.0;
                if at_ground && self.crane.speed.abs() < 0.5 {
                    self.phase = CoursePhase::Lifting;
                }
            }
            CoursePhase::Lifting => {
                if self.hook.cargo_attached && cargo.y > self.course.carry_height - 1.0 {
                    self.phase = CoursePhase::Traverse;
                }
            }
            CoursePhase::Traverse => {
                if self.course.in_turnaround_zone(cargo) {
                    self.phase = CoursePhase::Return;
                }
            }
            CoursePhase::Return => {
                if self.course.in_pickup_zone(cargo) {
                    self.phase = CoursePhase::Complete;
                }
            }
            CoursePhase::Complete => {}
        }
        if self.elapsed > TIME_LIMIT {
            self.phase = CoursePhase::Complete;
        }
    }

    fn message(&self) -> ScenarioStateMsg {
        let complete = self.phase == CoursePhase::Complete;
        ScenarioStateMsg {
            phase: self.phase_name().to_owned(),
            score: self.score,
            elapsed: self.elapsed,
            complete,
            passed: complete && self.score >= PASSING_SCORE && self.elapsed <= TIME_LIMIT,
            bar_hits: self.bar_hits,
        }
    }
}

impl LogicalProcess for ScenarioLp {
    fn name(&self) -> &str {
        "scenario"
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.publish_object_class(self.fom.scenario_state)?;
        cb.subscribe_object_class(self.fom.crane_state)?;
        cb.subscribe_object_class(self.fom.hook_state)?;
        cb.subscribe_interaction_class(self.fom.collision)?;
        self.state_object = Some(cb.register_object(self.fom.scenario_state)?);
        Ok(())
    }

    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError> {
        self.elapsed += dt;
        for reflection in cb.reflections() {
            if reflection.class == self.fom.crane_state {
                self.crane = CraneStateMsg::from_values(&self.fom, &reflection.values);
            } else if reflection.class == self.fom.hook_state {
                self.hook = HookStateMsg::from_values(&self.fom, &reflection.values);
            }
        }
        for interaction in cb.interactions() {
            if interaction.class == self.fom.collision {
                let collision = CollisionMsg::from_values(&self.fom, &interaction.parameters);
                if collision.scored {
                    self.bar_hits += 1;
                    self.score = (self.score - BAR_COLLISION_PENALTY).max(0.0);
                }
                self.telemetry.update(|t| t.collisions.push(collision));
            }
        }
        self.advance_phase();

        let message = self.message();
        cb.update_attributes(
            self.state_object.expect("init registered the scenario object"),
            message.to_values(&self.fom),
        )?;
        self.telemetry.update(|t| t.scenario = message.clone());
        Ok(())
    }

    fn last_step_cost(&self) -> Micros {
        Micros::from_millis(1)
    }

    fn begin_session(&mut self, _cb: &mut dyn CbApi, _seed: u64) -> Result<(), CbError> {
        self.phase = CoursePhase::Driving;
        self.score = 100.0;
        self.elapsed = 0.0;
        self.bar_hits = 0;
        self.crane = CraneStateMsg::default();
        self.hook = HookStateMsg::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_math::Vec3;

    fn scenario() -> ScenarioLp {
        let (registry, fom) = CraneFom::standard();
        ScenarioLp::new(registry, fom, SharedTelemetry::new())
    }

    #[test]
    fn exam_starts_in_the_driving_phase_with_full_score() {
        let s = scenario();
        assert_eq!(s.phase(), CoursePhase::Driving);
        assert_eq!(s.score(), 100.0);
        assert_eq!(s.message().phase, "Driving");
        assert!(!s.message().complete);
    }

    #[test]
    fn phases_advance_with_the_right_conditions() {
        let mut s = scenario();
        // Arrive at the testing ground and stop.
        s.crane.chassis_position = s.course.pickup_center + Vec3::new(5.0, 0.0, -5.0);
        s.crane.speed = 0.1;
        s.advance_phase();
        assert_eq!(s.phase(), CoursePhase::Lifting);

        // Cargo attached and lifted to carry height.
        s.hook.cargo_attached = true;
        s.hook.cargo_position = s.course.pickup_center + Vec3::new(0.0, s.course.carry_height, 0.0);
        s.advance_phase();
        assert_eq!(s.phase(), CoursePhase::Traverse);

        // Cargo reaches the turn-around zone.
        s.hook.cargo_position = s.course.turnaround_center + Vec3::new(0.5, 3.0, 0.0);
        s.advance_phase();
        assert_eq!(s.phase(), CoursePhase::Return);

        // Cargo brought back to the pickup circle.
        s.hook.cargo_position = s.course.pickup_center + Vec3::new(0.2, 0.5, 0.1);
        s.advance_phase();
        assert_eq!(s.phase(), CoursePhase::Complete);
        assert!(s.message().passed);
    }

    #[test]
    fn time_limit_ends_the_exam_without_passing() {
        let mut s = scenario();
        s.elapsed = TIME_LIMIT + 1.0;
        s.advance_phase();
        assert_eq!(s.phase(), CoursePhase::Complete);
        assert!(!s.message().passed, "running out of time must not pass the exam");
    }

    #[test]
    fn bar_hits_deduct_points_but_never_below_zero() {
        let mut s = scenario();
        for _ in 0..15 {
            s.bar_hits += 1;
            s.score = (s.score - BAR_COLLISION_PENALTY).max(0.0);
        }
        assert_eq!(s.score(), 0.0);
        assert_eq!(s.message().bar_hits, 15);
        assert!(!s.message().passed);
    }
}
