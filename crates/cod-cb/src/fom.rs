//! Federation Object Model (FOM): the declared object and interaction classes.
//!
//! The paper adopts the HLA notions of *Publish Object Class* and *Subscribe
//! Object Class*; this module holds the class/attribute declarations that both
//! sides of a virtual channel agree on. Every computer of the cluster is
//! compiled against the same [`ClassRegistry`], exactly as every federate of an
//! HLA federation shares the same FOM file.

use crate::error::CbError;
use sim_math::Vec3;
use std::fmt;
use std::sync::Arc;

/// Identifies an object class declared in the FOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectClassId(pub u16);

/// Identifies an interaction class declared in the FOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InteractionClassId(pub u16);

/// Identifies an attribute within an object class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AttributeId(pub u16);

/// A typed attribute or parameter value carried over the Communication Backbone.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean flag (e.g. an alarm state).
    Bool(bool),
    /// Unsigned integer (e.g. a score, a frame number).
    U32(u32),
    /// Double-precision scalar (e.g. a boom angle in radians).
    F64(f64),
    /// Three-component vector (e.g. a position or velocity).
    Vec3([f64; 3]),
    /// Short text (e.g. a scenario phase name).
    Text(String),
    /// Raw bytes for anything else.
    Bytes(Vec<u8>),
}

impl Value {
    /// Returns the scalar if this value is an `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the vector if this value is a `Vec3`.
    pub fn as_vec3(&self) -> Option<[f64; 3]> {
        match self {
            Value::Vec3(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the flag if this value is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the integer if this value is a `U32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::U32(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the text if this value is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::U32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.4}"),
            Value::Vec3(v) => write!(f, "[{:.3}, {:.3}, {:.3}]", v[0], v[1], v[2]),
            Value::Text(v) => write!(f, "{v}"),
            Value::Bytes(v) => write!(f, "<{} bytes>", v.len()),
        }
    }
}

/// A Rust type an attribute may have, and the one [`Value`] variant it
/// travels as. [`fom_classes!`](crate::fom_classes) encodes and decodes
/// every field through it.
pub trait FomValue: Default {
    /// The value on the wire.
    fn to_value(&self) -> Value;

    /// The value read back, if `value` is this type's variant.
    fn from_value(value: &Value) -> Option<Self>;
}

impl FomValue for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }

    fn from_value(value: &Value) -> Option<f64> {
        value.as_f64()
    }
}

impl FomValue for Vec3 {
    fn to_value(&self) -> Value {
        Value::Vec3((*self).into())
    }

    fn from_value(value: &Value) -> Option<Vec3> {
        value.as_vec3().map(Vec3::from)
    }
}

impl FomValue for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn from_value(value: &Value) -> Option<bool> {
        value.as_bool()
    }
}

impl FomValue for u32 {
    fn to_value(&self) -> Value {
        Value::U32(*self)
    }

    fn from_value(value: &Value) -> Option<u32> {
        value.as_u32()
    }
}

impl FomValue for String {
    fn to_value(&self) -> Value {
        Value::Text(self.clone())
    }

    fn from_value(value: &Value) -> Option<String> {
        value.as_text().map(str::to_owned)
    }
}

/// Declares FOM classes, each as one field list: for each, its message
/// struct with one public field per attribute, the attribute names in id
/// order (`NAMES`, to register the class with), and the encoder and decoder
/// that put each attribute under its position. A field's type needs a
/// [`FomValue`] impl.
#[macro_export]
macro_rules! fom_classes {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $msg:ident {
            $($(#[$field_meta:meta])* $field:ident: $ty:ty),+ $(,)?
        }
    )+) => {$(
        $(#[$meta])*
        $vis struct $msg {
            $($(#[$field_meta])* pub $field: $ty),+
        }

        impl $msg {
            /// The attribute names; the index of a name is its id.
            const NAMES: &'static [&'static str] = &[$(stringify!($field)),+];

            /// Encodes every attribute under its position.
            pub fn to_values(&self) -> $crate::AttributeValues {
                [$($crate::FomValue::to_value(&self.$field)),+]
                    .into_iter()
                    .enumerate()
                    .map(|(id, value)| ($crate::AttributeId(id as u16), value))
                    .collect()
            }

            /// Decodes from attribute values: an attribute that is missing, or
            /// that carries another kind of value, reads as zero.
            pub fn from_values(values: &$crate::AttributeValues) -> $msg {
                let mut by_position = (0..).map(|id| values.get(&$crate::AttributeId(id)));
                $msg {
                    $($field: by_position
                        .next()
                        .flatten()
                        .and_then($crate::FomValue::from_value)
                        .unwrap_or_default()),+
                }
            }
        }
    )+};
}

/// A set of attribute values keyed by attribute id — the payload of an
/// *Update Attribute Values* / *Reflect Attribute Values* exchange.
///
/// A flat vector of `(id, value)` pairs kept sorted by id. An update carries a
/// handful of attributes, is built once by an LP, cloned per subscriber,
/// decoded per delivery and read once, so one contiguous allocation serves it
/// better than a tree node. Iteration is in ascending id order and two sets
/// compare equal whatever order they were built in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributeValues {
    entries: Vec<(AttributeId, Value)>,
}

impl AttributeValues {
    /// Creates an empty set.
    pub fn new() -> AttributeValues {
        AttributeValues::default()
    }

    /// Creates an empty set with room for `capacity` attributes.
    pub fn with_capacity(capacity: usize) -> AttributeValues {
        AttributeValues { entries: Vec::with_capacity(capacity) }
    }

    /// Sets the value of `id`, returning the value it replaces, if any.
    pub fn insert(&mut self, id: AttributeId, value: Value) -> Option<Value> {
        // Encoders and the wire decoder insert in ascending id order.
        if self.entries.last().is_none_or(|(last, _)| *last < id) {
            self.entries.push((id, value));
            return None;
        }
        match self.entries.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (id, value));
                None
            }
        }
    }

    /// The value of `id`, if present. O(1) when the set holds every id below
    /// `id` — a full update carries all attributes of its class, so id N sits
    /// at index N — and a binary search otherwise.
    pub fn get(&self, id: &AttributeId) -> Option<&Value> {
        match self.entries.get(id.0 as usize) {
            Some((at_index, value)) if at_index == id => Some(value),
            _ => self
                .entries
                .binary_search_by_key(id, |(k, _)| *k)
                .ok()
                .map(|at| &self.entries[at].1),
        }
    }

    /// Number of attributes in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the set holds no attribute.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttributeId, &Value)> {
        self.into_iter()
    }
}

impl<'a> IntoIterator for &'a AttributeValues {
    type Item = (&'a AttributeId, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (AttributeId, Value)>,
        fn(&'a (AttributeId, Value)) -> (&'a AttributeId, &'a Value),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(id, value)| (id, value))
    }
}

impl std::ops::Index<&AttributeId> for AttributeValues {
    type Output = Value;

    /// # Panics
    ///
    /// Panics if `id` is not in the set.
    fn index(&self, id: &AttributeId) -> &Value {
        self.get(id).expect("attribute id not present in AttributeValues")
    }
}

impl FromIterator<(AttributeId, Value)> for AttributeValues {
    /// Later pairs replace earlier ones with the same id.
    fn from_iter<I: IntoIterator<Item = (AttributeId, Value)>>(pairs: I) -> AttributeValues {
        let pairs = pairs.into_iter();
        let mut values = AttributeValues::with_capacity(pairs.size_hint().0);
        for (id, value) in pairs {
            values.insert(id, value);
        }
        values
    }
}

impl<const N: usize> From<[(AttributeId, Value); N]> for AttributeValues {
    fn from(pairs: [(AttributeId, Value); N]) -> AttributeValues {
        pairs.into_iter().collect()
    }
}

/// Declaration of one object class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectClassDef {
    /// Class name, unique within the FOM.
    pub name: String,
    /// Attribute names; the index of a name is its [`AttributeId`].
    pub attributes: Vec<String>,
}

/// Declaration of one interaction class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionClassDef {
    /// Class name, unique within the FOM.
    pub name: String,
    /// Parameter names; the index of a name is its [`AttributeId`].
    pub parameters: Vec<String>,
}

/// The shared declaration of every object and interaction class in the federation.
///
/// The class tables sit behind one [`Arc`], so a clone — every kernel, LP
/// and cluster of a rack holds one — is a reference count, not a copy of
/// every name. The `register_*` methods copy the tables first if they are
/// shared ([`Arc::make_mut`]), so a registry still behaves as a value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassRegistry {
    classes: Arc<ClassTables>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ClassTables {
    object_classes: Vec<ObjectClassDef>,
    interaction_classes: Vec<InteractionClassDef>,
}

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Declares an object class with its attributes and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`CbError::DuplicateName`] if the class name or an attribute
    /// name within the class is repeated.
    pub fn register_object_class(
        &mut self,
        name: &str,
        attributes: &[&str],
    ) -> Result<ObjectClassId, CbError> {
        if self.classes.object_classes.iter().any(|c| c.name == name) {
            return Err(CbError::DuplicateName(name.to_owned()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for a in attributes {
            if !seen.insert(*a) {
                return Err(CbError::DuplicateName(format!("{name}.{a}")));
            }
        }
        let tables = Arc::make_mut(&mut self.classes);
        let id = ObjectClassId(tables.object_classes.len() as u16);
        tables.object_classes.push(ObjectClassDef {
            name: name.to_owned(),
            attributes: attributes.iter().map(|s| (*s).to_owned()).collect(),
        });
        Ok(id)
    }

    /// Declares an interaction class with its parameters and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`CbError::DuplicateName`] if the class name is repeated.
    pub fn register_interaction_class(
        &mut self,
        name: &str,
        parameters: &[&str],
    ) -> Result<InteractionClassId, CbError> {
        if self.classes.interaction_classes.iter().any(|c| c.name == name) {
            return Err(CbError::DuplicateName(name.to_owned()));
        }
        let tables = Arc::make_mut(&mut self.classes);
        let id = InteractionClassId(tables.interaction_classes.len() as u16);
        tables.interaction_classes.push(InteractionClassDef {
            name: name.to_owned(),
            parameters: parameters.iter().map(|s| (*s).to_owned()).collect(),
        });
        Ok(id)
    }

    /// Looks up an object class by name.
    pub fn object_class_by_name(&self, name: &str) -> Option<ObjectClassId> {
        self.classes
            .object_classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ObjectClassId(i as u16))
    }

    /// The definition of an object class, if it exists.
    pub fn object_class(&self, id: ObjectClassId) -> Option<&ObjectClassDef> {
        self.classes.object_classes.get(id.0 as usize)
    }

    /// The definition of an interaction class, if it exists.
    pub fn interaction_class(&self, id: InteractionClassId) -> Option<&InteractionClassDef> {
        self.classes.interaction_classes.get(id.0 as usize)
    }

    /// The id of an attribute of an object class, looked up by name.
    pub fn attribute_id(&self, class: ObjectClassId, attribute: &str) -> Option<AttributeId> {
        self.object_class(class)?
            .attributes
            .iter()
            .position(|a| a == attribute)
            .map(|i| AttributeId(i as u16))
    }

    /// The id of a parameter of an interaction class, looked up by name.
    pub fn parameter_id(&self, class: InteractionClassId, parameter: &str) -> Option<AttributeId> {
        self.interaction_class(class)?
            .parameters
            .iter()
            .position(|p| p == parameter)
            .map(|i| AttributeId(i as u16))
    }

    /// Number of declared object classes.
    pub fn object_class_count(&self) -> usize {
        self.classes.object_classes.len()
    }

    /// Number of declared interaction classes.
    pub fn interaction_class_count(&self) -> usize {
        self.classes.interaction_classes.len()
    }

    /// True when `id` names a declared object class.
    pub fn contains_object_class(&self, id: ObjectClassId) -> bool {
        (id.0 as usize) < self.classes.object_classes.len()
    }

    /// True when `id` names a declared interaction class.
    pub fn contains_interaction_class(&self, id: InteractionClassId) -> bool {
        (id.0 as usize) < self.classes.interaction_classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (ClassRegistry, ObjectClassId, InteractionClassId) {
        let mut r = ClassRegistry::new();
        let crane = r
            .register_object_class("CraneState", &["position", "boom_angle", "cable_length"])
            .unwrap();
        let collision =
            r.register_interaction_class("CollisionEvent", &["location", "impulse"]).unwrap();
        (r, crane, collision)
    }

    #[test]
    fn lookup_by_name_and_id() {
        let (r, crane, collision) = sample();
        assert_eq!(r.object_class_by_name("CraneState"), Some(crane));
        assert_eq!(r.object_class(crane).unwrap().attributes.len(), 3);
        assert_eq!(r.attribute_id(crane, "boom_angle"), Some(AttributeId(1)));
        assert_eq!(r.parameter_id(collision, "impulse"), Some(AttributeId(1)));
        assert_eq!(r.attribute_id(crane, "missing"), None);
        assert!(r.contains_object_class(crane));
        assert!(!r.contains_object_class(ObjectClassId(99)));
    }

    #[test]
    fn duplicate_class_name_rejected() {
        let (mut r, _, _) = sample();
        assert!(matches!(
            r.register_object_class("CraneState", &["x"]),
            Err(CbError::DuplicateName(_))
        ));
    }

    #[test]
    fn clones_share_their_tables_until_one_registers() {
        let (original, crane, _) = sample();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.classes, &copy.classes), "a clone copies no table");
        copy.register_object_class("Extra", &["x"]).unwrap();
        assert!(!Arc::ptr_eq(&original.classes, &copy.classes));
        assert_eq!((original.object_class_count(), copy.object_class_count()), (1, 2));
        assert_eq!(copy.object_class(crane), original.object_class(crane));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut r = ClassRegistry::new();
        assert!(matches!(
            r.register_object_class("Bad", &["a", "a"]),
            Err(CbError::DuplicateName(_))
        ));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::F64(3.5).as_f64(), Some(3.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::U32(7).as_u32(), Some(7));
        assert_eq!(Value::Vec3([1.0, 2.0, 3.0]).as_vec3(), Some([1.0, 2.0, 3.0]));
        assert_eq!(Value::Text("go".into()).as_text(), Some("go"));
        assert_eq!(Value::F64(1.0).as_bool(), None);
    }

    mod attribute_values_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Drives the flat container and a `BTreeMap` oracle with the same
        /// insert sequence (any order, repeated ids) and compares every
        /// observable.
        fn assert_matches_oracle(inserts: &[(u16, u32)]) {
            let mut flat = AttributeValues::new();
            let mut oracle = BTreeMap::new();
            for (id, v) in inserts {
                let (id, value) = (AttributeId(*id), Value::U32(*v));
                assert_eq!(flat.insert(id, value.clone()), oracle.insert(id, value));
            }
            assert_eq!(flat.len(), oracle.len());
            assert_eq!(flat.is_empty(), oracle.is_empty());
            for id in (0..24).map(AttributeId) {
                assert_eq!(flat.get(&id), oracle.get(&id));
            }
            for (id, value) in &oracle {
                assert_eq!(&flat[id], value);
            }
            let in_order: Vec<_> = oracle.iter().collect();
            assert_eq!(flat.iter().collect::<Vec<_>>(), in_order.clone());
            assert_eq!((&flat).into_iter().collect::<Vec<_>>(), in_order);

            // Equality does not depend on build order, and `collect()`
            // keeps the last value of a repeated id.
            let pairs = || inserts.iter().map(|(id, v)| (AttributeId(*id), Value::U32(*v)));
            assert_eq!(&pairs().collect::<AttributeValues>(), &flat);
            let ascending: AttributeValues =
                oracle.iter().map(|(id, v)| (*id, v.clone())).collect();
            let descending: AttributeValues =
                oracle.iter().rev().map(|(id, v)| (*id, v.clone())).collect();
            assert_eq!(&ascending, &flat);
            assert_eq!(&descending, &flat);
        }

        proptest! {
            #[test]
            fn prop_matches_a_btreemap_oracle(
                inserts in proptest::collection::vec((0u16..24, any::<u32>()), 0..40),
            ) {
                assert_matches_oracle(&inserts);
            }
        }

        /// `get` looks at index `id` first. Random draws almost never produce
        /// the set that serves: every id of `0..n` present. That set, and the
        /// same set with one id missing — every id above the hole is present
        /// but one slot below its index, and the hole's own slot holds another
        /// id — go through the oracle here, built in both directions.
        #[test]
        fn dense_sets_and_dense_sets_with_a_hole_match_the_oracle() {
            for n in 0..=24u16 {
                for hole in (0..n).map(Some).chain([None]) {
                    let ascending: Vec<(u16, u32)> = (0..n)
                        .filter(|id| Some(*id) != hole)
                        .map(|id| (id, 1000 + u32::from(id)))
                        .collect();
                    let descending: Vec<(u16, u32)> = ascending.iter().rev().copied().collect();
                    assert_matches_oracle(&ascending);
                    assert_matches_oracle(&descending);
                }
            }
        }

        #[test]
        #[should_panic(expected = "attribute id not present")]
        fn indexing_a_missing_id_whose_slot_is_occupied_panics() {
            let values: AttributeValues = [0u16, 1, 3, 4]
                .into_iter()
                .map(|id| (AttributeId(id), Value::Bool(true)))
                .collect();
            assert_eq!(values[&AttributeId(3)], Value::Bool(true));
            let _ = &values[&AttributeId(2)];
        }

        #[test]
        fn from_array_sorts_and_keeps_the_last_duplicate() {
            let values: AttributeValues = [
                (AttributeId(7), Value::Bool(true)),
                (AttributeId(2), Value::U32(1)),
                (AttributeId(7), Value::Bool(false)),
            ]
            .into();
            let ids: Vec<u16> = values.iter().map(|(id, _)| id.0).collect();
            assert_eq!(ids, [2, 7]);
            assert_eq!(values[&AttributeId(7)], Value::Bool(false));
            assert_eq!(AttributeValues::with_capacity(8), AttributeValues::new());
        }
    }

    #[test]
    fn value_display_is_nonempty() {
        for v in [
            Value::Bool(false),
            Value::U32(1),
            Value::F64(0.5),
            Value::Vec3([0.0; 3]),
            Value::Text("t".into()),
            Value::Bytes(vec![1, 2]),
        ] {
            assert!(!format!("{v}").is_empty());
        }
    }
}
