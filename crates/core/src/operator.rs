//! Operator models: what sits in the mockup seat.
//!
//! The physical trainer has a human trainee at the wheel; the reproduction
//! substitutes scripted operator policies so sessions are deterministic and
//! the scenario/scoring pipeline can be exercised end to end. What a policy
//! sees is an [`Observation`], the reflected world state every module keeps.

use cod_cb::CbApi;
use crane_scene::course::Course;
use sim_math::{wrap_to_pi, Vec3};

use crate::fom::{CraneFom, CraneStateMsg, HookStateMsg, OperatorInputMsg, ScenarioStateMsg};

/// The latest state of each object class, as reflected to one LP: what a
/// module knows of the world, and what the operator in the cab observes (the
/// dashboard reflects it for them). A class the LP does not subscribe to
/// stays at its default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observation {
    /// Latest crane state.
    pub crane: CraneStateMsg,
    /// Latest hook/cargo state.
    pub hook: HookStateMsg,
    /// Latest scenario state (phase and score).
    pub scenario: ScenarioStateMsg,
    /// Latest operator inputs.
    pub input: OperatorInputMsg,
}

impl Observation {
    /// Folds the reflections queued for the calling LP into the latest state,
    /// in arrival order.
    pub fn reflect(&mut self, fom: &CraneFom, cb: &mut dyn CbApi) {
        for reflection in cb.reflections() {
            let values = &reflection.values;
            if reflection.class == fom.crane_state {
                self.crane = CraneStateMsg::from_values(values);
            } else if reflection.class == fom.hook_state {
                self.hook = HookStateMsg::from_values(values);
            } else if reflection.class == fom.scenario_state {
                self.scenario = ScenarioStateMsg::from_values(values);
            } else if reflection.class == fom.operator_input {
                self.input = OperatorInputMsg::from_values(values);
            }
        }
    }
}

/// An operator policy.
pub trait Operator: Send {
    /// Policy name (for telemetry).
    fn name(&self) -> &str;

    /// Produces the control inputs for one frame of `dt` seconds.
    fn control(&mut self, observation: &Observation, dt: f64) -> OperatorInputMsg;

    /// Puts the operator back in the seat for a fresh session: any internal
    /// clock or progress state returns to its initial value. Stateless
    /// policies may keep the default no-op.
    fn reset(&mut self) {}
}

/// Nobody at the controls.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleOperator;

impl Operator for IdleOperator {
    fn name(&self) -> &str {
        "idle"
    }

    fn control(&mut self, _observation: &Observation, _dt: f64) -> OperatorInputMsg {
        OperatorInputMsg::default()
    }
}

/// A careless trainee: full throttle, wild steering, violent boom commands.
/// Used to generate collisions and alarms for the instructor-monitor tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecklessOperator {
    time: f64,
}

impl Operator for RecklessOperator {
    fn name(&self) -> &str {
        "reckless"
    }

    fn control(&mut self, _observation: &Observation, dt: f64) -> OperatorInputMsg {
        self.time += dt;
        OperatorInputMsg {
            steering: (self.time * 0.9).sin(),
            throttle: 1.0,
            brake: 0.0,
            reverse: false,
            slew: (self.time * 0.7).sin(),
            luff: -(self.time * 0.5).cos(),
            telescope: 1.0,
            hoist: (self.time * 0.8).sin(),
        }
    }

    fn reset(&mut self) {
        self.time = 0.0;
    }
}

/// A competent trainee executing the licensing exam of Figure 9.
#[derive(Debug, Clone)]
pub struct ExamOperator {
    course: Course,
    waypoint_index: usize,
    time: f64,
}

impl ExamOperator {
    /// Creates an exam operator for the given course.
    pub fn new(course: Course) -> ExamOperator {
        ExamOperator { course, waypoint_index: 0, time: 0.0 }
    }

    /// Index of the driving waypoint currently targeted.
    pub fn waypoint_index(&self) -> usize {
        self.waypoint_index
    }

    fn drive_toward(
        &mut self,
        target: Vec3,
        observation: &Observation,
        slow_down: bool,
    ) -> OperatorInputMsg {
        let crane = &observation.crane;
        let to_target = target - crane.chassis_position;
        let distance = to_target.horizontal().length();
        let desired_heading = to_target.x.atan2(to_target.z);
        let heading_error = wrap_to_pi(desired_heading - crane.chassis_yaw);

        let steering = (heading_error * 1.5).clamp(-1.0, 1.0);
        let target_speed = if slow_down { (distance * 0.4).min(3.0) } else { 6.0 };
        let speed_error = target_speed - crane.speed;
        OperatorInputMsg {
            steering,
            throttle: (speed_error * 0.6).clamp(0.0, 1.0),
            brake: (-speed_error * 0.4).clamp(0.0, 1.0),
            reverse: false,
            ..Default::default()
        }
    }

    fn boom_toward(
        &self,
        target: Vec3,
        observation: &Observation,
        target_hook_height: f64,
    ) -> OperatorInputMsg {
        let crane = &observation.crane;
        let hook = &observation.hook;
        // Desired slew: at slew 0 the boom points along the chassis -Z axis, so
        // the world heading of the boom is `yaw + slew + pi`; solve for the slew
        // that points it at the target.
        let to_target = target - crane.chassis_position;
        let target_heading = to_target.x.atan2(to_target.z);
        let desired_slew = wrap_to_pi(target_heading + std::f64::consts::PI - crane.chassis_yaw);
        let slew_error = wrap_to_pi(desired_slew - crane.slew_angle);

        // Desired working radius vs current: trim with the telescope.
        let desired_radius = to_target.horizontal().length();
        let current_radius = (crane.boom_tip - crane.chassis_position).horizontal().length();
        let radius_error = desired_radius - current_radius;

        // Hook height control with the hoist (positive hoist pays out cable).
        let height_error = hook.hook_position.y - target_hook_height;

        OperatorInputMsg {
            slew: (slew_error * 2.0).clamp(-1.0, 1.0),
            telescope: (radius_error * 0.8).clamp(-1.0, 1.0),
            luff: (-radius_error * 0.3).clamp(-0.4, 0.4),
            hoist: (height_error * 0.8).clamp(-1.0, 1.0),
            brake: 1.0,
            ..Default::default()
        }
    }
}

impl Operator for ExamOperator {
    fn name(&self) -> &str {
        "exam"
    }

    fn control(&mut self, observation: &Observation, dt: f64) -> OperatorInputMsg {
        self.time += dt;
        let phase = observation.scenario.phase.as_str();
        match phase {
            "Driving" => {
                let waypoints = &self.course.driving_waypoints;
                if self.waypoint_index < waypoints.len() {
                    let target = waypoints[self.waypoint_index];
                    let distance =
                        (target - observation.crane.chassis_position).horizontal().length();
                    if distance < 4.0 {
                        self.waypoint_index += 1;
                    }
                }
                let last = self.waypoint_index + 1 >= self.course.driving_waypoints.len();
                let target =
                    self.course.driving_waypoints.get(self.waypoint_index).copied().unwrap_or(
                        *self.course.driving_waypoints.last().expect("course has waypoints"),
                    );
                self.drive_toward(target, observation, last)
            }
            "Lifting" => {
                // Reach over the pickup circle and lower the hook to the cargo,
                // then the scenario advances once the cargo is attached and high.
                let target_height = if observation.hook.cargo_attached {
                    self.course.carry_height
                } else {
                    observation.hook.cargo_position.y + 0.5
                };
                self.boom_toward(self.course.pickup_center, observation, target_height)
            }
            "Traverse" => self.boom_toward(
                self.course.turnaround_center,
                observation,
                self.course.carry_height,
            ),
            "Return" => {
                self.boom_toward(self.course.pickup_center, observation, self.course.carry_height)
            }
            _ => OperatorInputMsg { brake: 1.0, ..Default::default() },
        }
    }

    fn reset(&mut self) {
        self.waypoint_index = 0;
        self.time = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation_at(position: Vec3, yaw: f64, phase: &str) -> Observation {
        Observation {
            crane: CraneStateMsg {
                chassis_position: position,
                chassis_yaw: yaw,
                boom_tip: position + Vec3::new(0.0, 10.0, -8.0),
                ..Default::default()
            },
            hook: HookStateMsg {
                hook_position: position + Vec3::new(0.0, 5.0, -8.0),
                cargo_position: Vec3::new(-15.0, 0.6, 60.0),
                ..Default::default()
            },
            scenario: ScenarioStateMsg { phase: phase.to_owned(), ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn idle_operator_does_nothing() {
        let mut op = IdleOperator;
        let input = op.control(&observation_at(Vec3::ZERO, 0.0, "Driving"), 0.1);
        assert_eq!(input, OperatorInputMsg::default());
    }

    #[test]
    fn reckless_operator_floors_the_throttle() {
        let mut op = RecklessOperator::default();
        let input = op.control(&observation_at(Vec3::ZERO, 0.0, "Driving"), 0.1);
        assert_eq!(input.throttle, 1.0);
        assert!(input.slew.abs() <= 1.0);
    }

    #[test]
    fn exam_operator_accelerates_toward_the_first_waypoint() {
        let course = Course::licensing_exam();
        let mut op = ExamOperator::new(course.clone());
        let obs = observation_at(course.start_position, 0.0, "Driving");
        let input = op.control(&obs, 1.0 / 16.0);
        assert!(input.throttle > 0.3, "should accelerate, got {input:?}");
        assert!(input.steering.abs() < 0.5, "the first waypoint is straight ahead");
    }

    #[test]
    fn exam_operator_steers_toward_an_offset_waypoint() {
        let course = Course::licensing_exam();
        let mut op = ExamOperator::new(course.clone());
        // Stand far to the right of the first waypoint: it must steer left (negative x error).
        let obs = observation_at(course.start_position + Vec3::new(20.0, 0.0, 0.0), 0.0, "Driving");
        let input = op.control(&obs, 1.0 / 16.0);
        assert!(input.steering.abs() > 0.3, "expected a steering correction, got {input:?}");
    }

    #[test]
    fn exam_operator_advances_waypoints_as_it_reaches_them() {
        let course = Course::licensing_exam();
        let mut op = ExamOperator::new(course.clone());
        for (i, wp) in course.driving_waypoints.iter().enumerate() {
            let obs = observation_at(*wp, 0.0, "Driving");
            op.control(&obs, 0.1);
            assert!(op.waypoint_index() >= i.min(course.driving_waypoints.len() - 1));
        }
        assert!(op.waypoint_index() >= course.driving_waypoints.len() - 1);
    }

    #[test]
    fn exam_operator_lowers_the_hook_during_lifting() {
        let course = Course::licensing_exam();
        let mut op = ExamOperator::new(course.clone());
        let mut obs = observation_at(Vec3::new(-5.0, 0.0, 55.0), 0.0, "Lifting");
        obs.hook.hook_position = Vec3::new(-14.0, 8.0, 60.0);
        obs.hook.cargo_position = course.pickup_center + Vec3::new(0.0, 0.6, 0.0);
        let input = op.control(&obs, 1.0 / 16.0);
        assert!(input.hoist > 0.2, "hook is above the cargo: pay out cable, got {input:?}");
        assert!(input.brake > 0.5, "vehicle must hold still while lifting");
    }
}
