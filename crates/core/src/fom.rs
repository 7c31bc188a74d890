//! The federation object model of the crane simulator.
//!
//! Every module exchanges state through the object and interaction classes
//! declared here, mirroring how the original system routed "event messages"
//! between its seven modules over the Communication Backbone.

use cod_cb::{
    AttributeId, AttributeValues, CbError, ClassRegistry, InteractionClassId, ObjectClassId, Value,
};
use cod_cluster::FrameSyncFom;
use sim_math::Vec3;
use std::sync::OnceLock;

/// Declares the attribute-id table of one class: a struct with one
/// [`AttributeId`] per attribute, whose field names *are* the attribute names
/// declared in the FOM, resolved once when the class is registered so the
/// typed messages below address attributes by id, never by name.
macro_rules! attribute_ids {
    ($table:ident { $($attribute:ident),+ $(,)? }) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct $table {
            $($attribute: AttributeId),+
        }

        impl $table {
            const NAMES: &'static [&'static str] = &[$(stringify!($attribute)),+];

            fn resolve(id_of: impl Fn(&str) -> Option<AttributeId>) -> $table {
                $table { $($attribute: id_of(stringify!($attribute)).expect("declared above")),+ }
            }
        }
    };
}

attribute_ids!(CraneStateIds {
    chassis_position,
    chassis_yaw,
    chassis_pitch,
    chassis_roll,
    speed,
    engine_intensity,
    slew_angle,
    luff_angle,
    boom_length,
    cable_length,
    boom_tip,
    radius_utilization,
    moment_utilization,
});
attribute_ids!(HookStateIds {
    hook_position,
    cargo_position,
    swing_angle,
    cargo_attached,
    cargo_mass
});
attribute_ids!(OperatorInputIds {
    steering,
    throttle,
    brake,
    reverse,
    slew,
    luff,
    telescope,
    hoist
});
attribute_ids!(ScenarioStateIds { phase, score, elapsed, complete, passed, bar_hits });
attribute_ids!(CollisionIds { location, impulse, obstacle, scored });
attribute_ids!(AlarmIds { code, active, message });
attribute_ids!(FaultIds { instrument, value });

/// Handles to every class the crane simulator declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CraneFom {
    /// Crane chassis + superstructure state published by the dynamics module.
    pub crane_state: ObjectClassId,
    /// Hook / cargo state published by the dynamics module.
    pub hook_state: ObjectClassId,
    /// Operator inputs published by the dashboard module.
    pub operator_input: ObjectClassId,
    /// Scenario phase and score published by the scenario module.
    pub scenario_state: ObjectClassId,
    /// Collision events sent by the dynamics module.
    pub collision: InteractionClassId,
    /// Alarm events sent by the instructor monitor.
    pub alarm: InteractionClassId,
    /// Instrument fault injections sent by the instructor monitor (Figure 6:
    /// "the instrument display may be used for trouble shooting training").
    pub fault: InteractionClassId,
    /// Frame-synchronization interactions of the surround view.
    pub sync: FrameSyncFom,
    crane_state_ids: CraneStateIds,
    hook_state_ids: HookStateIds,
    operator_input_ids: OperatorInputIds,
    scenario_state_ids: ScenarioStateIds,
    collision_ids: CollisionIds,
    alarm_ids: AlarmIds,
    fault_ids: FaultIds,
}

impl CraneFom {
    /// Declares every class in `registry` and resolves the attribute ids the
    /// typed messages use.
    ///
    /// # Errors
    ///
    /// Returns an error if any class name is already taken.
    pub fn register(registry: &mut ClassRegistry) -> Result<CraneFom, CbError> {
        let crane_state = registry.register_object_class("CraneState", CraneStateIds::NAMES)?;
        let hook_state = registry.register_object_class("HookState", HookStateIds::NAMES)?;
        let operator_input =
            registry.register_object_class("OperatorInput", OperatorInputIds::NAMES)?;
        let scenario_state =
            registry.register_object_class("ScenarioState", ScenarioStateIds::NAMES)?;
        let collision =
            registry.register_interaction_class("CollisionEvent", CollisionIds::NAMES)?;
        let alarm = registry.register_interaction_class("AlarmEvent", AlarmIds::NAMES)?;
        let fault = registry.register_interaction_class("FaultInjection", FaultIds::NAMES)?;
        let sync = FrameSyncFom::register(registry)?;
        Ok(CraneFom {
            crane_state,
            hook_state,
            operator_input,
            scenario_state,
            collision,
            alarm,
            fault,
            sync,
            crane_state_ids: CraneStateIds::resolve(|a| registry.attribute_id(crane_state, a)),
            hook_state_ids: HookStateIds::resolve(|a| registry.attribute_id(hook_state, a)),
            operator_input_ids: OperatorInputIds::resolve(|a| {
                registry.attribute_id(operator_input, a)
            }),
            scenario_state_ids: ScenarioStateIds::resolve(|a| {
                registry.attribute_id(scenario_state, a)
            }),
            collision_ids: CollisionIds::resolve(|p| registry.parameter_id(collision, p)),
            alarm_ids: AlarmIds::resolve(|p| registry.parameter_id(alarm, p)),
            fault_ids: FaultIds::resolve(|p| registry.parameter_id(fault, p)),
        })
    }

    /// The standard registry plus handles in one call.
    ///
    /// The registry is built once per process and handed out as clones that
    /// share its tables, the way [`crane_scene::TrainingWorld::shared`] hands
    /// out the world. Every build registers the same classes in the same
    /// order, so sharing one cannot make a rack depend on what was built
    /// before it; a caller that registers more classes gets its own copy.
    pub fn standard() -> (ClassRegistry, CraneFom) {
        static STANDARD: OnceLock<(ClassRegistry, CraneFom)> = OnceLock::new();
        STANDARD
            .get_or_init(|| {
                let mut registry = ClassRegistry::new();
                let fom =
                    CraneFom::register(&mut registry).expect("fresh registry has no name clashes");
                (registry, fom)
            })
            .clone()
    }
}

fn f64_of(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

fn vec3_of(v: Option<&Value>) -> Vec3 {
    v.and_then(Value::as_vec3).map(Vec3::from).unwrap_or(Vec3::ZERO)
}

fn bool_of(v: Option<&Value>) -> bool {
    v.and_then(Value::as_bool).unwrap_or(false)
}

fn text_of(v: Option<&Value>) -> String {
    v.and_then(Value::as_text).map(str::to_owned).unwrap_or_default()
}

fn u32_of(v: Option<&Value>) -> u32 {
    v.and_then(Value::as_u32).unwrap_or(0)
}

/// Crane state as published by the dynamics module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CraneStateMsg {
    pub chassis_position: Vec3,
    pub chassis_yaw: f64,
    pub chassis_pitch: f64,
    pub chassis_roll: f64,
    pub speed: f64,
    pub engine_intensity: f64,
    pub slew_angle: f64,
    pub luff_angle: f64,
    pub boom_length: f64,
    pub cable_length: f64,
    pub boom_tip: Vec3,
    pub radius_utilization: f64,
    pub moment_utilization: f64,
}

impl CraneStateMsg {
    /// Encodes into attribute values.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let a = &fom.crane_state_ids;
        AttributeValues::from([
            (a.chassis_position, Value::Vec3(self.chassis_position.into())),
            (a.chassis_yaw, Value::F64(self.chassis_yaw)),
            (a.chassis_pitch, Value::F64(self.chassis_pitch)),
            (a.chassis_roll, Value::F64(self.chassis_roll)),
            (a.speed, Value::F64(self.speed)),
            (a.engine_intensity, Value::F64(self.engine_intensity)),
            (a.slew_angle, Value::F64(self.slew_angle)),
            (a.luff_angle, Value::F64(self.luff_angle)),
            (a.boom_length, Value::F64(self.boom_length)),
            (a.cable_length, Value::F64(self.cable_length)),
            (a.boom_tip, Value::Vec3(self.boom_tip.into())),
            (a.radius_utilization, Value::F64(self.radius_utilization)),
            (a.moment_utilization, Value::F64(self.moment_utilization)),
        ])
    }

    /// Decodes from attribute values (missing attributes default to zero).
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> CraneStateMsg {
        let a = &fom.crane_state_ids;
        CraneStateMsg {
            chassis_position: vec3_of(values.get(&a.chassis_position)),
            chassis_yaw: f64_of(values.get(&a.chassis_yaw)),
            chassis_pitch: f64_of(values.get(&a.chassis_pitch)),
            chassis_roll: f64_of(values.get(&a.chassis_roll)),
            speed: f64_of(values.get(&a.speed)),
            engine_intensity: f64_of(values.get(&a.engine_intensity)),
            slew_angle: f64_of(values.get(&a.slew_angle)),
            luff_angle: f64_of(values.get(&a.luff_angle)),
            boom_length: f64_of(values.get(&a.boom_length)),
            cable_length: f64_of(values.get(&a.cable_length)),
            boom_tip: vec3_of(values.get(&a.boom_tip)),
            radius_utilization: f64_of(values.get(&a.radius_utilization)),
            moment_utilization: f64_of(values.get(&a.moment_utilization)),
        }
    }
}

/// Hook and cargo state as published by the dynamics module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HookStateMsg {
    pub hook_position: Vec3,
    pub cargo_position: Vec3,
    pub swing_angle: f64,
    pub cargo_attached: bool,
    pub cargo_mass: f64,
}

impl HookStateMsg {
    /// Encodes into attribute values.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let a = &fom.hook_state_ids;
        AttributeValues::from([
            (a.hook_position, Value::Vec3(self.hook_position.into())),
            (a.cargo_position, Value::Vec3(self.cargo_position.into())),
            (a.swing_angle, Value::F64(self.swing_angle)),
            (a.cargo_attached, Value::Bool(self.cargo_attached)),
            (a.cargo_mass, Value::F64(self.cargo_mass)),
        ])
    }

    /// Decodes from attribute values.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> HookStateMsg {
        let a = &fom.hook_state_ids;
        HookStateMsg {
            hook_position: vec3_of(values.get(&a.hook_position)),
            cargo_position: vec3_of(values.get(&a.cargo_position)),
            swing_angle: f64_of(values.get(&a.swing_angle)),
            cargo_attached: bool_of(values.get(&a.cargo_attached)),
            cargo_mass: f64_of(values.get(&a.cargo_mass)),
        }
    }
}

/// Operator inputs as published by the dashboard module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OperatorInputMsg {
    pub steering: f64,
    pub throttle: f64,
    pub brake: f64,
    pub reverse: bool,
    pub slew: f64,
    pub luff: f64,
    pub telescope: f64,
    pub hoist: f64,
}

impl OperatorInputMsg {
    /// Encodes into attribute values.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let a = &fom.operator_input_ids;
        AttributeValues::from([
            (a.steering, Value::F64(self.steering)),
            (a.throttle, Value::F64(self.throttle)),
            (a.brake, Value::F64(self.brake)),
            (a.reverse, Value::Bool(self.reverse)),
            (a.slew, Value::F64(self.slew)),
            (a.luff, Value::F64(self.luff)),
            (a.telescope, Value::F64(self.telescope)),
            (a.hoist, Value::F64(self.hoist)),
        ])
    }

    /// Decodes from attribute values.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> OperatorInputMsg {
        let a = &fom.operator_input_ids;
        OperatorInputMsg {
            steering: f64_of(values.get(&a.steering)),
            throttle: f64_of(values.get(&a.throttle)),
            brake: f64_of(values.get(&a.brake)),
            reverse: bool_of(values.get(&a.reverse)),
            slew: f64_of(values.get(&a.slew)),
            luff: f64_of(values.get(&a.luff)),
            telescope: f64_of(values.get(&a.telescope)),
            hoist: f64_of(values.get(&a.hoist)),
        }
    }
}

/// Scenario phase and score as published by the scenario module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioStateMsg {
    pub phase: String,
    pub score: f64,
    pub elapsed: f64,
    pub complete: bool,
    pub passed: bool,
    pub bar_hits: u32,
}

impl ScenarioStateMsg {
    /// Encodes into attribute values.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let a = &fom.scenario_state_ids;
        AttributeValues::from([
            (a.phase, Value::Text(self.phase.clone())),
            (a.score, Value::F64(self.score)),
            (a.elapsed, Value::F64(self.elapsed)),
            (a.complete, Value::Bool(self.complete)),
            (a.passed, Value::Bool(self.passed)),
            (a.bar_hits, Value::U32(self.bar_hits)),
        ])
    }

    /// Decodes from attribute values.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> ScenarioStateMsg {
        let a = &fom.scenario_state_ids;
        ScenarioStateMsg {
            phase: text_of(values.get(&a.phase)),
            score: f64_of(values.get(&a.score)),
            elapsed: f64_of(values.get(&a.elapsed)),
            complete: bool_of(values.get(&a.complete)),
            passed: bool_of(values.get(&a.passed)),
            bar_hits: u32_of(values.get(&a.bar_hits)),
        }
    }
}

/// A collision event sent by the dynamics module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollisionMsg {
    pub location: Vec3,
    pub impulse: f64,
    pub obstacle: String,
    pub scored: bool,
}

impl CollisionMsg {
    /// Encodes into interaction parameters.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let p = &fom.collision_ids;
        AttributeValues::from([
            (p.location, Value::Vec3(self.location.into())),
            (p.impulse, Value::F64(self.impulse)),
            (p.obstacle, Value::Text(self.obstacle.clone())),
            (p.scored, Value::Bool(self.scored)),
        ])
    }

    /// Decodes from interaction parameters.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> CollisionMsg {
        let p = &fom.collision_ids;
        CollisionMsg {
            location: vec3_of(values.get(&p.location)),
            impulse: f64_of(values.get(&p.impulse)),
            obstacle: text_of(values.get(&p.obstacle)),
            scored: bool_of(values.get(&p.scored)),
        }
    }
}

/// An alarm raised (or cleared) by the instructor monitor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlarmMsg {
    pub code: u32,
    pub active: bool,
    pub message: String,
}

/// Well-known alarm codes of the Status window (Figure 5).
pub mod alarm_codes {
    /// Derrick boom outside the safety zone.
    pub const SAFETY_ZONE: u32 = 1;
    /// Load moment above 90 % of the rated moment.
    pub const OVERLOAD: u32 = 2;
    /// A scored obstacle (bar) was struck.
    pub const BAR_COLLISION: u32 = 3;
    /// The chassis roll/pitch indicates a tip-over risk while driving.
    pub const TIP_OVER: u32 = 4;
}

impl AlarmMsg {
    /// Encodes into interaction parameters.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let p = &fom.alarm_ids;
        AttributeValues::from([
            (p.code, Value::U32(self.code)),
            (p.active, Value::Bool(self.active)),
            (p.message, Value::Text(self.message.clone())),
        ])
    }

    /// Decodes from interaction parameters.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> AlarmMsg {
        let p = &fom.alarm_ids;
        AlarmMsg {
            code: u32_of(values.get(&p.code)),
            active: bool_of(values.get(&p.active)),
            message: text_of(values.get(&p.message)),
        }
    }
}

/// A fault injected by the instructor into a dashboard instrument.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultMsg {
    /// Name of the instrument (e.g. "speedometer").
    pub instrument: String,
    /// Value the instrument is forced to display.
    pub value: f64,
}

impl FaultMsg {
    /// Encodes into interaction parameters.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let p = &fom.fault_ids;
        AttributeValues::from([
            (p.instrument, Value::Text(self.instrument.clone())),
            (p.value, Value::F64(self.value)),
        ])
    }

    /// Decodes from interaction parameters.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> FaultMsg {
        let p = &fom.fault_ids;
        FaultMsg {
            instrument: text_of(values.get(&p.instrument)),
            value: f64_of(values.get(&p.value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fom_registers_all_classes() {
        let (registry, fom) = CraneFom::standard();
        assert!(registry.object_class_count() >= 4);
        assert!(registry.interaction_class_count() >= 5);
        assert!(registry.contains_object_class(fom.crane_state));
        assert!(registry.contains_interaction_class(fom.collision));
    }

    #[test]
    fn standard_fom_equals_a_fresh_registration() {
        let mut fresh = ClassRegistry::new();
        let fresh_fom = CraneFom::register(&mut fresh).unwrap();
        for _ in 0..2 {
            let (registry, fom) = CraneFom::standard();
            assert_eq!(registry, fresh);
            assert_eq!(fom, fresh_fom);
        }
    }

    #[test]
    fn crane_state_roundtrips() {
        let (_, fom) = CraneFom::standard();
        let msg = CraneStateMsg {
            chassis_position: Vec3::new(1.0, 2.0, 3.0),
            chassis_yaw: 0.5,
            chassis_pitch: -0.1,
            chassis_roll: 0.05,
            speed: 4.2,
            engine_intensity: 0.7,
            slew_angle: 1.1,
            luff_angle: 0.8,
            boom_length: 14.0,
            cable_length: 6.5,
            boom_tip: Vec3::new(2.0, 12.0, 5.0),
            radius_utilization: 0.6,
            moment_utilization: 0.4,
        };
        let values = msg.to_values(&fom);
        assert_eq!(CraneStateMsg::from_values(&fom, &values), msg);
    }

    #[test]
    fn remaining_messages_roundtrip() {
        let (_, fom) = CraneFom::standard();
        let hook = HookStateMsg {
            hook_position: Vec3::new(0.0, 5.0, 1.0),
            cargo_position: Vec3::new(0.0, 1.0, 1.0),
            swing_angle: 0.2,
            cargo_attached: true,
            cargo_mass: 1500.0,
        };
        assert_eq!(HookStateMsg::from_values(&fom, &hook.to_values(&fom)), hook);

        let input = OperatorInputMsg {
            steering: -0.3,
            throttle: 0.9,
            reverse: true,
            hoist: -0.5,
            ..Default::default()
        };
        assert_eq!(OperatorInputMsg::from_values(&fom, &input.to_values(&fom)), input);

        let scenario = ScenarioStateMsg {
            phase: "Traverse".into(),
            score: 80.0,
            elapsed: 125.0,
            complete: false,
            passed: false,
            bar_hits: 2,
        };
        assert_eq!(ScenarioStateMsg::from_values(&fom, &scenario.to_values(&fom)), scenario);

        let collision = CollisionMsg {
            location: Vec3::unit_x(),
            impulse: 3.0,
            obstacle: "bar-1".into(),
            scored: true,
        };
        assert_eq!(CollisionMsg::from_values(&fom, &collision.to_values(&fom)), collision);

        let alarm =
            AlarmMsg { code: alarm_codes::OVERLOAD, active: true, message: "overload".into() };
        assert_eq!(AlarmMsg::from_values(&fom, &alarm.to_values(&fom)), alarm);

        let fault = FaultMsg { instrument: "speedometer".into(), value: 55.0 };
        assert_eq!(FaultMsg::from_values(&fom, &fault.to_values(&fom)), fault);
    }

    #[test]
    fn missing_attributes_default_to_zero() {
        let (_, fom) = CraneFom::standard();
        let empty = AttributeValues::new();
        let msg = CraneStateMsg::from_values(&fom, &empty);
        assert_eq!(msg.speed, 0.0);
        assert_eq!(msg.chassis_position, Vec3::ZERO);
    }
}
