//! The instructor monitor (paper §3.3) as a Logical Process.
//!
//! Maintains the Status window of Figure 5 (boom swing angle, boom raise
//! angle, cable length, boom elongation, live score, alarm lamps) and the
//! Dashboard window of Figure 6 (the mirror of the mockup instruments), raises
//! alarm interactions when the trainee misbehaves, and lets the instructor
//! inject instrument faults for trouble-shooting training.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cod_cb::{CbApi, CbError, ClassRegistry};
use cod_cluster::LogicalProcess;
use cod_net::Micros;

use crate::fom::{alarm_codes, AlarmMsg, CollisionMsg, CraneFom, FaultMsg};
use crate::operator::Observation;
use crate::telemetry::{SharedTelemetry, StatusWindow};

/// A handle the instructor's console uses to inject instrument faults into the
/// running system (clicking an indicator in the Dashboard window).
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    queue: Arc<Mutex<Vec<FaultMsg>>>,
}

impl FaultInjector {
    /// Queues a fault to be sent on the instructor module's next step.
    pub fn inject(&self, fault: FaultMsg) {
        self.queue.lock().expect("fault queue poisoned").push(fault);
    }

    fn drain(&self) -> Vec<FaultMsg> {
        self.queue.lock().expect("fault queue poisoned").drain(..).collect()
    }
}

/// Chassis roll or pitch beyond which the tip-over alarm lights (radians).
const TIP_OVER_ATTITUDE: f64 = 0.14;
/// Seconds a bar-collision alarm stays lit.
const COLLISION_ALARM_HOLD: f64 = 2.0;

/// The instructor monitor Logical Process.
pub struct InstructorLp {
    fom: CraneFom,
    telemetry: SharedTelemetry,
    injector: FaultInjector,

    observation: Observation,
    alarms: BTreeMap<u32, bool>,
    collision_alarm_timer: f64,
}

impl InstructorLp {
    /// Creates the instructor module and the fault-injection handle for its console.
    ///
    /// `_registry` is unused (an attribute's id is its position); the parameter
    /// stays until `benchmark/`, which calls this constructor, is re-bound.
    pub fn new(
        _registry: ClassRegistry,
        fom: CraneFom,
        telemetry: SharedTelemetry,
    ) -> (InstructorLp, FaultInjector) {
        let injector = FaultInjector::default();
        (
            InstructorLp {
                fom,
                telemetry,
                injector: injector.clone(),
                observation: Observation::default(),
                alarms: BTreeMap::new(),
                collision_alarm_timer: 0.0,
            },
            injector,
        )
    }

    /// Computes the desired alarm states from the latest state. Exposed for
    /// unit tests; the LP evaluates it every frame.
    pub fn desired_alarms(&self) -> BTreeMap<u32, bool> {
        let crane = &self.observation.crane;
        let mut desired = BTreeMap::new();
        desired.insert(alarm_codes::SAFETY_ZONE, crane.radius_utilization > 1.0);
        desired.insert(alarm_codes::OVERLOAD, crane.moment_utilization >= 0.9);
        desired.insert(
            alarm_codes::TIP_OVER,
            crane.chassis_roll.abs() > TIP_OVER_ATTITUDE
                || crane.chassis_pitch.abs() > TIP_OVER_ATTITUDE,
        );
        desired.insert(alarm_codes::BAR_COLLISION, self.collision_alarm_timer > 0.0);
        desired
    }

    fn status_window(&self) -> StatusWindow {
        let Observation { crane, scenario, .. } = &self.observation;
        StatusWindow {
            boom_swing_deg: crane.slew_angle.to_degrees(),
            boom_raise_deg: crane.luff_angle.to_degrees(),
            cable_length_m: crane.cable_length,
            boom_length_m: crane.boom_length,
            score: scenario.score,
            phase: scenario.phase.clone(),
            active_alarms: self
                .alarms
                .iter()
                .filter(|(_, active)| **active)
                .map(|(code, _)| *code)
                .collect(),
        }
    }
}

impl LogicalProcess for InstructorLp {
    fn name(&self) -> &str {
        "instructor"
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.subscribe_object_class(self.fom.crane_state)?;
        cb.subscribe_object_class(self.fom.scenario_state)?;
        cb.subscribe_interaction_class(self.fom.collision)?;
        Ok(())
    }

    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError> {
        self.observation.reflect(&self.fom, cb);
        self.collision_alarm_timer = (self.collision_alarm_timer - dt).max(0.0);
        for interaction in cb.interactions() {
            if interaction.class == self.fom.collision {
                let collision = CollisionMsg::from_values(&interaction.parameters);
                if collision.scored {
                    self.collision_alarm_timer = COLLISION_ALARM_HOLD;
                }
            }
        }

        // Raise / clear alarms on state changes.
        let desired = self.desired_alarms();
        for (code, active) in &desired {
            let previous = self.alarms.get(code).copied().unwrap_or(false);
            if previous != *active {
                let message = match *code {
                    alarm_codes::SAFETY_ZONE => "derrick boom outside the safety zone",
                    alarm_codes::OVERLOAD => "load moment above 90% of rated",
                    alarm_codes::TIP_OVER => "chassis attitude indicates tip-over risk",
                    alarm_codes::BAR_COLLISION => "course bar struck",
                    _ => "alarm",
                };
                let alarm = AlarmMsg { code: *code, active: *active, message: message.to_owned() };
                cb.send_interaction(self.fom.alarm, alarm.to_values())?;
                if *active {
                    let code = *code;
                    self.telemetry.update(|t| t.alarm_events.push(code));
                }
            }
        }
        self.alarms = desired;

        // Forward queued instructor fault injections to the dashboard.
        for fault in self.injector.drain() {
            cb.send_interaction(self.fom.fault, fault.to_values())?;
        }

        // Publish the two instructor windows into telemetry.
        let status = self.status_window();
        self.telemetry.update(|t| {
            t.status_window = status.clone();
            for (code, active) in &self.alarms {
                t.alarms.insert(*code, *active);
            }
        });
        Ok(())
    }

    fn last_step_cost(&self) -> Micros {
        Micros::from_millis(2)
    }

    fn begin_session(&mut self, _cb: &mut dyn CbApi, _seed: u64) -> Result<(), CbError> {
        self.observation = Observation::default();
        self.alarms.clear();
        self.collision_alarm_timer = 0.0;
        // Faults queued by the previous session's instructor die with it.
        let _ = self.injector.drain();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instructor() -> (InstructorLp, FaultInjector) {
        let (registry, fom) = CraneFom::standard();
        InstructorLp::new(registry, fom, SharedTelemetry::new())
    }

    #[test]
    fn no_alarms_in_a_nominal_state() {
        let (mut lp, _) = instructor();
        lp.observation.crane.radius_utilization = 0.5;
        lp.observation.crane.moment_utilization = 0.3;
        let alarms = lp.desired_alarms();
        assert!(alarms.values().all(|a| !a));
    }

    #[test]
    fn overload_and_safety_zone_alarms_trip_on_thresholds() {
        let (mut lp, _) = instructor();
        lp.observation.crane.radius_utilization = 1.1;
        lp.observation.crane.moment_utilization = 0.95;
        let alarms = lp.desired_alarms();
        assert!(alarms[&alarm_codes::SAFETY_ZONE]);
        assert!(alarms[&alarm_codes::OVERLOAD]);
        assert!(!alarms[&alarm_codes::TIP_OVER]);
    }

    #[test]
    fn tip_over_alarm_follows_chassis_attitude() {
        let (mut lp, _) = instructor();
        lp.observation.crane.chassis_roll = 0.2;
        assert!(lp.desired_alarms()[&alarm_codes::TIP_OVER]);
    }

    #[test]
    fn status_window_mirrors_the_state_in_degrees() {
        let (mut lp, _) = instructor();
        lp.observation.crane.slew_angle = std::f64::consts::FRAC_PI_2;
        lp.observation.crane.luff_angle = 1.0;
        lp.observation.crane.cable_length = 7.5;
        lp.observation.crane.boom_length = 14.0;
        lp.observation.scenario.score = 80.0;
        lp.observation.scenario.phase = "Traverse".into();
        let w = lp.status_window();
        assert!((w.boom_swing_deg - 90.0).abs() < 1e-9);
        assert!((w.boom_raise_deg - 57.29578).abs() < 1e-3);
        assert_eq!(w.cable_length_m, 7.5);
        assert_eq!(w.boom_length_m, 14.0);
        assert_eq!(w.score, 80.0);
        assert_eq!(w.phase, "Traverse");
    }

    #[test]
    fn fault_injector_queues_are_shared() {
        let (lp, injector) = instructor();
        injector.inject(FaultMsg { instrument: "speedometer".into(), value: 10.0 });
        assert_eq!(lp.injector.drain().len(), 1);
        assert_eq!(lp.injector.drain().len(), 0);
    }
}
