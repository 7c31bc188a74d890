//! The federation object model (FOM) of the crane simulator.
//!
//! Every module exchanges state through the object and interaction classes
//! declared here, mirroring how the original system routed "event messages"
//! between its seven modules over the Communication Backbone. Every computer
//! of a rack registers these classes in the same order, the way every
//! federate of an HLA federation shares one FOM file.
//!
//! Each class is declared once, as one field list in one [`fom_classes!`]
//! invocation: a field's name is the attribute name registered with the CB
//! and its position in the list is the attribute's
//! [`AttributeId`](cod_cb::AttributeId), so the typed messages address
//! attributes by position and never look a name up. To add an attribute, add
//! one `name: Type` line to its class's declaration; the type needs a
//! [`FomValue`](cod_cb::FomValue) impl (`f64`, [`Vec3`], `bool`, `u32` and
//! `String` have one). Append the line at the end of the list: the id is the
//! position, so an attribute inserted mid-list moves the ids of all that
//! follow it, and with them the bytes on the wire and every fingerprint taken
//! of a session.

use cod_cb::{fom_classes, CbError, ClassRegistry, InteractionClassId, ObjectClassId};
use cod_cluster::FrameSyncClasses;
use sim_math::Vec3;
use std::sync::OnceLock;

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
    pub sync: FrameSyncClasses,
}

impl CraneFom {
    /// Declares every class in `registry`, in the order the wire relies on.
    ///
    /// # Errors
    ///
    /// Returns an error if any class name is already taken.
    pub fn register(registry: &mut ClassRegistry) -> Result<CraneFom, CbError> {
        Ok(CraneFom {
            crane_state: registry.register_object_class("CraneState", CraneStateMsg::NAMES)?,
            hook_state: registry.register_object_class("HookState", HookStateMsg::NAMES)?,
            operator_input: registry
                .register_object_class("OperatorInput", OperatorInputMsg::NAMES)?,
            scenario_state: registry
                .register_object_class("ScenarioState", ScenarioStateMsg::NAMES)?,
            collision: registry
                .register_interaction_class("CollisionEvent", CollisionMsg::NAMES)?,
            alarm: registry.register_interaction_class("AlarmEvent", AlarmMsg::NAMES)?,
            fault: registry.register_interaction_class("FaultInjection", FaultMsg::NAMES)?,
            sync: FrameSyncClasses::register(registry)?,
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

fom_classes! {
    /// Crane state as published by the dynamics module.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct CraneStateMsg {
        chassis_position: Vec3,
        chassis_yaw: f64,
        chassis_pitch: f64,
        chassis_roll: f64,
        speed: f64,
        engine_intensity: f64,
        slew_angle: f64,
        luff_angle: f64,
        boom_length: f64,
        cable_length: f64,
        boom_tip: Vec3,
        radius_utilization: f64,
        moment_utilization: f64,
    }

    /// Hook and cargo state as published by the dynamics module.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct HookStateMsg {
        hook_position: Vec3,
        cargo_position: Vec3,
        swing_angle: f64,
        cargo_attached: bool,
        cargo_mass: f64,
    }

    /// Operator inputs as published by the dashboard module.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct OperatorInputMsg {
        steering: f64,
        throttle: f64,
        brake: f64,
        reverse: bool,
        slew: f64,
        luff: f64,
        telescope: f64,
        hoist: f64,
    }

    /// Scenario phase and score as published by the scenario module.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct ScenarioStateMsg {
        phase: String,
        score: f64,
        elapsed: f64,
        complete: bool,
        passed: bool,
        bar_hits: u32,
    }

    /// A collision event sent by the dynamics module.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct CollisionMsg {
        location: Vec3,
        impulse: f64,
        obstacle: String,
        scored: bool,
    }

    /// An alarm raised (or cleared) by the instructor monitor.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct AlarmMsg {
        code: u32,
        active: bool,
        message: String,
    }

    /// A fault injected by the instructor into a dashboard instrument.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct FaultMsg {
        /// Name of the instrument (e.g. "speedometer").
        instrument: String,
        /// Value the instrument is forced to display.
        value: f64,
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use cod_cb::{AttributeId, AttributeValues, Value, ValueRef};

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

    /// The wire contract: each kind's class names in id order, each with its
    /// attribute names in id order and the [`Value`] variant each carries.
    /// Every computer of a rack decodes by these ids, so a renamed, reordered
    /// or retyped attribute fails here by name.
    const OBJECT_CLASSES: &[(&str, &[(&str, &str)])] = &[
        (
            "CraneState",
            &[
                ("chassis_position", "Vec3"),
                ("chassis_yaw", "F64"),
                ("chassis_pitch", "F64"),
                ("chassis_roll", "F64"),
                ("speed", "F64"),
                ("engine_intensity", "F64"),
                ("slew_angle", "F64"),
                ("luff_angle", "F64"),
                ("boom_length", "F64"),
                ("cable_length", "F64"),
                ("boom_tip", "Vec3"),
                ("radius_utilization", "F64"),
                ("moment_utilization", "F64"),
            ],
        ),
        (
            "HookState",
            &[
                ("hook_position", "Vec3"),
                ("cargo_position", "Vec3"),
                ("swing_angle", "F64"),
                ("cargo_attached", "Bool"),
                ("cargo_mass", "F64"),
            ],
        ),
        (
            "OperatorInput",
            &[
                ("steering", "F64"),
                ("throttle", "F64"),
                ("brake", "F64"),
                ("reverse", "Bool"),
                ("slew", "F64"),
                ("luff", "F64"),
                ("telescope", "F64"),
                ("hoist", "F64"),
            ],
        ),
        (
            "ScenarioState",
            &[
                ("phase", "Text"),
                ("score", "F64"),
                ("elapsed", "F64"),
                ("complete", "Bool"),
                ("passed", "Bool"),
                ("bar_hits", "U32"),
            ],
        ),
    ];

    /// The interaction half of the wire contract; the frame-sync classes come
    /// last, and `cod_cluster::framesync` declares their messages.
    const INTERACTION_CLASSES: &[(&str, &[(&str, &str)])] = &[
        (
            "CollisionEvent",
            &[("location", "Vec3"), ("impulse", "F64"), ("obstacle", "Text"), ("scored", "Bool")],
        ),
        ("AlarmEvent", &[("code", "U32"), ("active", "Bool"), ("message", "Text")]),
        ("FaultInjection", &[("instrument", "Text"), ("value", "F64")]),
        ("FrameReady", &[("channel", "U32"), ("frame", "U32")]),
        ("FrameGo", &[("frame", "U32")]),
    ];

    fn variant(value: ValueRef) -> &'static str {
        match value {
            ValueRef::Bool(_) => "Bool",
            ValueRef::U32(_) => "U32",
            ValueRef::F64(_) => "F64",
            ValueRef::Vec3(_) => "Vec3",
            ValueRef::Text(_) => "Text",
            ValueRef::Bytes(_) => "Bytes",
        }
    }

    /// `(id, variant)` of each encoded value, in encoding order.
    fn layout(values: &AttributeValues) -> Vec<(u16, &'static str)> {
        values.iter().map(|(id, value)| (id.0, variant(value))).collect()
    }

    /// What the contract table says a full update of `attributes` encodes to.
    fn contract_layout(attributes: &[(&str, &'static str)]) -> Vec<(u16, &'static str)> {
        attributes.iter().enumerate().map(|(id, (_, kind))| (id as u16, *kind)).collect()
    }

    fn names(attributes: &[(&str, &str)]) -> Vec<String> {
        attributes.iter().map(|(name, _)| (*name).to_owned()).collect()
    }

    #[test]
    fn the_standard_registry_matches_the_wire_contract() {
        let (registry, _) = CraneFom::standard();
        assert_eq!(registry.object_class_count(), OBJECT_CLASSES.len());
        for (id, (name, attributes)) in OBJECT_CLASSES.iter().enumerate() {
            let class = registry.object_class(ObjectClassId(id as u16)).unwrap();
            assert_eq!((class.name.as_str(), &class.attributes), (*name, &names(attributes)));
        }
        assert_eq!(registry.interaction_class_count(), INTERACTION_CLASSES.len());
        for (id, (name, parameters)) in INTERACTION_CLASSES.iter().enumerate() {
            let class = registry.interaction_class(InteractionClassId(id as u16)).unwrap();
            assert_eq!((class.name.as_str(), &class.parameters), (*name, &names(parameters)));
        }

        // A default message of each class encodes every attribute, by
        // position, as the variant the table names.
        let encoded = [
            CraneStateMsg::default().to_values(),
            HookStateMsg::default().to_values(),
            OperatorInputMsg::default().to_values(),
            ScenarioStateMsg::default().to_values(),
            CollisionMsg::default().to_values(),
            AlarmMsg::default().to_values(),
            FaultMsg::default().to_values(),
        ];
        let contract = OBJECT_CLASSES.iter().chain(INTERACTION_CLASSES);
        for (values, (name, attributes)) in encoded.iter().zip(contract) {
            assert_eq!(layout(values), contract_layout(attributes), "{name}");
        }
    }

    fn sample_crane() -> CraneStateMsg {
        CraneStateMsg {
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
        }
    }

    fn sample_hook() -> HookStateMsg {
        HookStateMsg {
            hook_position: Vec3::new(0.0, 5.0, 1.0),
            cargo_position: Vec3::new(0.0, 1.0, 1.0),
            swing_angle: 0.2,
            cargo_attached: true,
            cargo_mass: 1500.0,
        }
    }

    fn sample_input() -> OperatorInputMsg {
        OperatorInputMsg {
            steering: -0.3,
            throttle: 0.9,
            reverse: true,
            hoist: -0.5,
            ..Default::default()
        }
    }

    fn sample_scenario() -> ScenarioStateMsg {
        ScenarioStateMsg {
            phase: "Traverse".into(),
            score: 80.0,
            elapsed: 125.0,
            complete: false,
            passed: false,
            bar_hits: 2,
        }
    }

    fn sample_collision() -> CollisionMsg {
        CollisionMsg {
            location: Vec3::unit_x(),
            impulse: 3.0,
            obstacle: "bar-1".into(),
            scored: true,
        }
    }

    fn sample_alarm() -> AlarmMsg {
        AlarmMsg { code: alarm_codes::OVERLOAD, active: true, message: "overload".into() }
    }

    fn sample_fault() -> FaultMsg {
        FaultMsg { instrument: "speedometer".into(), value: 55.0 }
    }

    #[test]
    fn crane_state_roundtrips() {
        let msg = sample_crane();
        let values = msg.to_values();
        assert_eq!(CraneStateMsg::from_values(&values), msg);
    }

    #[test]
    fn remaining_messages_roundtrip() {
        let hook = sample_hook();
        assert_eq!(HookStateMsg::from_values(&hook.to_values()), hook);
        let input = sample_input();
        assert_eq!(OperatorInputMsg::from_values(&input.to_values()), input);
        let scenario = sample_scenario();
        assert_eq!(ScenarioStateMsg::from_values(&scenario.to_values()), scenario);
        let collision = sample_collision();
        assert_eq!(CollisionMsg::from_values(&collision.to_values()), collision);
        let alarm = sample_alarm();
        assert_eq!(AlarmMsg::from_values(&alarm.to_values()), alarm);
        let fault = sample_fault();
        assert_eq!(FaultMsg::from_values(&fault.to_values()), fault);
    }

    /// The set each field's [`Value`] makes when inserted in id order.
    fn inserted(values: Vec<Value>) -> AttributeValues {
        values.into_iter().enumerate().map(|(id, v)| (AttributeId(id as u16), v)).collect()
    }

    /// `to_values` writes each field straight into the encoding; the bytes
    /// are the ones inserting each field's [`Value`] in id order writes.
    #[test]
    fn each_class_encodes_as_its_values_inserted_in_id_order() {
        let vec3 = |v: Vec3| Value::Vec3(v.into());
        let text = |s: &str| Value::Text(s.to_owned());
        let c = sample_crane();
        let crane = vec![
            vec3(c.chassis_position),
            Value::F64(c.chassis_yaw),
            Value::F64(c.chassis_pitch),
            Value::F64(c.chassis_roll),
            Value::F64(c.speed),
            Value::F64(c.engine_intensity),
            Value::F64(c.slew_angle),
            Value::F64(c.luff_angle),
            Value::F64(c.boom_length),
            Value::F64(c.cable_length),
            vec3(c.boom_tip),
            Value::F64(c.radius_utilization),
            Value::F64(c.moment_utilization),
        ];
        assert_eq!(c.to_values(), inserted(crane));
        let h = sample_hook();
        let hook = vec![
            vec3(h.hook_position),
            vec3(h.cargo_position),
            Value::F64(h.swing_angle),
            Value::Bool(h.cargo_attached),
            Value::F64(h.cargo_mass),
        ];
        assert_eq!(h.to_values(), inserted(hook));
        let i = sample_input();
        let input = vec![
            Value::F64(i.steering),
            Value::F64(i.throttle),
            Value::F64(i.brake),
            Value::Bool(i.reverse),
            Value::F64(i.slew),
            Value::F64(i.luff),
            Value::F64(i.telescope),
            Value::F64(i.hoist),
        ];
        assert_eq!(i.to_values(), inserted(input));
        let s = sample_scenario();
        let scenario = vec![
            text(&s.phase),
            Value::F64(s.score),
            Value::F64(s.elapsed),
            Value::Bool(s.complete),
            Value::Bool(s.passed),
            Value::U32(s.bar_hits),
        ];
        assert_eq!(s.to_values(), inserted(scenario));
        let c = sample_collision();
        let collision =
            vec![vec3(c.location), Value::F64(c.impulse), text(&c.obstacle), Value::Bool(c.scored)];
        assert_eq!(c.to_values(), inserted(collision));
        let a = sample_alarm();
        let alarm = vec![Value::U32(a.code), Value::Bool(a.active), text(&a.message)];
        assert_eq!(a.to_values(), inserted(alarm));
        let f = sample_fault();
        assert_eq!(f.to_values(), inserted(vec![text(&f.instrument), Value::F64(f.value)]));
    }

    #[test]
    fn missing_attributes_default_to_zero() {
        let empty = AttributeValues::new();
        let msg = CraneStateMsg::from_values(&empty);
        assert_eq!(msg.speed, 0.0);
        assert_eq!(msg.chassis_position, Vec3::ZERO);
    }
}
