//! Federation Object Model (FOM): the declared object and interaction classes.
//!
//! The paper adopts the HLA notions of *Publish Object Class* and *Subscribe
//! Object Class*; this module holds the class/attribute declarations that both
//! sides of a virtual channel agree on. Every computer of the cluster is
//! compiled against the same [`ClassRegistry`], exactly as every federate of an
//! HLA federation shares the same FOM file.

use crate::codec::{self, Reader, ValueRef, Writer};
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
/// travels as. [`fom_classes!`](crate::fom_classes) encodes every field
/// straight into the bytes of an [`AttributeValues`] through it, and reads it
/// straight back out.
pub trait FomValue: Default {
    /// The tag the variant is encoded under.
    const TAG: u8;

    /// Length of the value's encoding, its tag not included.
    fn encoded_len(&self) -> usize;

    /// Appends the value's encoding, its tag not included.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads the value off the front of `bytes`, which hold a well-formed
    /// encoding of this type's variant, and moves `bytes` past it.
    fn read(bytes: &mut &[u8]) -> Self;
}

// The methods below are `#[inline]` because the classes whose fields they
// read and write are declared in other crates, and an out-of-line call per
// field doubles the cost of `from_values`.

/// The next `N` bytes of an encoding already validated.
#[inline]
fn take<const N: usize>(bytes: &mut &[u8]) -> [u8; N] {
    let (head, rest) = bytes.split_first_chunk().expect("a set holds whole values");
    *bytes = rest;
    *head
}

impl FomValue for f64 {
    const TAG: u8 = codec::TAG_F64;

    #[inline]
    fn encoded_len(&self) -> usize {
        8
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_be_bytes());
    }

    #[inline]
    fn read(bytes: &mut &[u8]) -> f64 {
        f64::from_bits(u64::from_be_bytes(take(bytes)))
    }
}

impl FomValue for Vec3 {
    const TAG: u8 = codec::TAG_VEC3;

    #[inline]
    fn encoded_len(&self) -> usize {
        24
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        let mut xyz = [0; 24];
        for (bytes, v) in xyz.chunks_exact_mut(8).zip([self.x, self.y, self.z]) {
            bytes.copy_from_slice(&v.to_bits().to_be_bytes());
        }
        out.extend_from_slice(&xyz);
    }

    #[inline]
    fn read(bytes: &mut &[u8]) -> Vec3 {
        let xyz: [u8; 24] = take(bytes);
        let at = |i| f64::from_bits(codec::be_u64(&xyz, i));
        Vec3::new(at(0), at(8), at(16))
    }
}

impl FomValue for bool {
    const TAG: u8 = codec::TAG_BOOL;

    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    #[inline]
    fn read(bytes: &mut &[u8]) -> bool {
        take::<1>(bytes)[0] != 0
    }
}

impl FomValue for u32 {
    const TAG: u8 = codec::TAG_U32;

    #[inline]
    fn encoded_len(&self) -> usize {
        4
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }

    #[inline]
    fn read(bytes: &mut &[u8]) -> u32 {
        u32::from_be_bytes(take(bytes))
    }
}

impl FomValue for String {
    const TAG: u8 = codec::TAG_TEXT;

    #[inline]
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    #[inline]
    fn read(bytes: &mut &[u8]) -> String {
        let len = u32::read(bytes) as usize;
        let (text, rest) = bytes.split_at(len);
        *bytes = rest;
        std::str::from_utf8(text).expect("a set holds valid text").to_owned()
    }
}

/// Declares FOM classes, each as one field list: for each, its message
/// struct with one public field per attribute, the attribute names in id
/// order (`NAMES`, to register the class with), and the encoder and decoder
/// that put each attribute under its position. A field's type needs a
/// [`FomValue`] impl.
///
/// `to_values` encodes each field straight into the bytes of one
/// [`AttributeValues`], sized once: no [`Value`] is built. `from_values`
/// reads the fields back in one pass over those bytes. An update of the
/// whole class holds ids `0..n`, so each field is the entry the reader
/// stands at; any other set — a missing attribute, an attribute of another
/// variant, ids this class does not declare — goes through one general
/// walk, and a field it does not find with its own variant reads as zero.
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
                let mut fields = $crate::fom::FieldWriter::for_values(&[
                    $($crate::FomValue::encoded_len(&self.$field)),+
                ]);
                $(fields.write(&self.$field);)+
                fields.finish()
            }

            /// Decodes from attribute values: an attribute that is missing, or
            /// that carries another kind of value, reads as zero.
            pub fn from_values(values: &$crate::AttributeValues) -> $msg {
                let mut fields = $crate::fom::FieldReader::new(values);
                $msg { $($field: fields.read()),+ }
            }
        }
    )+};
}

/// Builds the [`AttributeValues`] of a whole class, one field after the
/// other: the n-th field written goes under id n. Only
/// [`fom_classes!`](crate::fom_classes) uses it.
#[doc(hidden)]
#[derive(Debug)]
pub struct FieldWriter {
    values: AttributeValues,
}

impl FieldWriter {
    /// A writer whose set has room for values of exactly these encoded
    /// lengths, so writing them allocates once.
    #[inline]
    pub fn for_values(value_lens: &[usize]) -> FieldWriter {
        let len = value_lens.iter().map(|len| ENTRY_HEAD_BYTES + len).sum();
        FieldWriter { values: AttributeValues::with_capacity(len) }
    }

    /// Appends `value` under the next id.
    #[inline]
    pub fn write<T: FomValue>(&mut self, value: &T) {
        let AttributeValues { count, entries } = &mut self.values;
        let [hi, lo] = count.to_be_bytes();
        entries.extend_from_slice(&[hi, lo, T::TAG]);
        value.encode(entries);
        *count += 1;
    }

    /// The set written.
    #[inline]
    pub fn finish(self) -> AttributeValues {
        self.values
    }
}

/// Reads the fields of a class out of an [`AttributeValues`] in one pass, by
/// position: the n-th read is attribute n. Only
/// [`fom_classes!`](crate::fom_classes) uses it.
#[doc(hidden)]
#[derive(Debug)]
pub struct FieldReader<'a> {
    /// The entries not passed yet.
    rest: &'a [u8],
    /// The id of the next field read.
    id: u16,
}

impl<'a> FieldReader<'a> {
    /// A reader at the first entry of `values`.
    #[inline]
    pub fn new(values: &'a AttributeValues) -> FieldReader<'a> {
        FieldReader { rest: &values.entries, id: 0 }
    }

    /// The next field: the entry with its id, if it carries `T`'s variant,
    /// else zero. A dense set has that entry first, where the reader stands;
    /// any other set goes through the general walk.
    #[inline]
    pub fn read<T: FomValue>(&mut self) -> T {
        let id = self.id;
        self.id += 1;
        // The value is read off a local, so `self.rest` never has its
        // address taken and stays in a register across the fields.
        let (mut rest, found) = match self.rest.split_first_chunk() {
            Some((&[hi, lo, tag], value))
                if u16::from_be_bytes([hi, lo]) == id && tag == T::TAG =>
            {
                (value, true)
            }
            _ => seek(self.rest, id, T::TAG),
        };
        let value = if found { T::read(&mut rest) } else { T::default() };
        self.rest = rest;
        value
    }
}

/// The general walk over the entries `rest` starts with: passes over the
/// entries below `id`, and over entry `id` itself unless it is encoded under
/// `tag`. Returns what is left, and whether it starts at the value of entry
/// `id`.
#[cold]
fn seek(mut rest: &[u8], id: u16, tag: u8) -> (&[u8], bool) {
    while let Some((&[hi, lo, at_tag], value)) = rest.split_first_chunk() {
        let at = u16::from_be_bytes([hi, lo]);
        if at > id {
            break;
        }
        if at == id && at_tag == tag {
            return (value, true);
        }
        let mut entry = Reader::new(rest);
        entry.attribute().expect("a set holds whole, valid entries");
        rest = entry.rest();
        if at == id {
            break;
        }
    }
    (rest, false)
}

/// Bytes of an entry's id and tag.
const ENTRY_HEAD_BYTES: usize = 3;

/// A set of attribute values keyed by attribute id — the payload of an
/// *Update Attribute Values* / *Reflect Attribute Values* exchange.
///
/// The set is its own wire encoding: a count, kept beside the bytes, then
/// the bytes of `count` entries, each an id, a tag and a value, with ids
/// strictly ascending and each value in its one canonical form (a `Bool` is
/// 0 or 1). An update is built by an LP, copied per subscriber and per
/// channel, received and read once, so every hop handles bytes only: writing
/// a set into a datagram is one copy, a local fan-out clones bytes, and a
/// received canonical set is validated and copied. No [`Value`] tree is
/// built on the way: a class's `from_values` reads its fields straight from
/// the bytes, and [`AttributeValues::get`] and [`AttributeValues::iter`]
/// borrow values out of them. Equality is bitwise on the encoding: a NaN
/// equals itself, and `0.0` differs from `-0.0`.
#[derive(Clone, Default, PartialEq)]
pub struct AttributeValues {
    pub(crate) count: u16,
    pub(crate) entries: Vec<u8>,
}

impl AttributeValues {
    /// Creates an empty set.
    pub fn new() -> AttributeValues {
        AttributeValues::default()
    }

    /// Creates an empty set with room for `capacity` bytes of entries.
    #[inline]
    pub fn with_capacity(capacity: usize) -> AttributeValues {
        AttributeValues { count: 0, entries: Vec::with_capacity(capacity) }
    }

    /// Sets the value of `id`, returning the value it replaces, if any.
    pub fn insert(&mut self, id: AttributeId, value: Value) -> Option<Value> {
        let mut entry = Reader::new(&self.entries);
        for _ in 0..self.count {
            let start = self.entries.len() - entry.rest().len();
            let (at, old) = entry.attribute().expect("a set holds whole, valid entries");
            if at < id {
                continue;
            }
            let end = self.entries.len() - entry.rest().len();
            let (old, replaced) =
                if at == id { (Some(old.to_value()), end) } else { (None, start) };
            let mut encoded = Vec::new();
            Writer::new(&mut encoded).u16(id.0).value(&value);
            self.entries.splice(start..replaced, encoded);
            self.count += u16::from(old.is_none());
            return old;
        }
        // Every id in the set is below `id`: the new entry goes last.
        Writer::new(&mut self.entries).u16(id.0).value(&value);
        self.count += 1;
        None
    }

    /// The value of `id`, if present, borrowed from the encoding.
    pub fn get(&self, id: &AttributeId) -> Option<ValueRef<'_>> {
        self.iter().take_while(|(at, _)| at <= id).find(|(at, _)| at == id).map(|(_, v)| v)
    }

    /// Number of attributes in the set.
    pub fn len(&self) -> usize {
        usize::from(self.count)
    }

    /// True when the set holds no attribute.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `(id, value)` pairs in ascending id order, each value borrowed
    /// from the encoding.
    pub fn iter(&self) -> impl Iterator<Item = (AttributeId, ValueRef<'_>)> {
        let mut entries = Reader::new(&self.entries);
        (0..self.count).map(move |_| entries.attribute().expect("a set holds whole, valid entries"))
    }
}

impl fmt::Debug for AttributeValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter().map(|(id, value)| (id.0, value))).finish()
    }
}

impl FromIterator<(AttributeId, Value)> for AttributeValues {
    /// Later pairs replace earlier ones with the same id.
    fn from_iter<I: IntoIterator<Item = (AttributeId, Value)>>(pairs: I) -> AttributeValues {
        let mut values = AttributeValues::new();
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

    mod attribute_values_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Drives the encoded set and a `BTreeMap` oracle with the same
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
                assert_eq!(flat.get(&id).map(ValueRef::to_value).as_ref(), oracle.get(&id));
            }
            let in_order: Vec<_> = oracle.iter().map(|(id, v)| (*id, v.clone())).collect();
            assert_eq!(flat.iter().map(|(id, v)| (id, v.to_value())).collect::<Vec<_>>(), in_order);

            // The encoding does not depend on build order, and `collect()`
            // keeps the last value of a repeated id.
            let pairs = || inserts.iter().map(|(id, v)| (AttributeId(*id), Value::U32(*v)));
            assert_eq!(&pairs().collect::<AttributeValues>(), &flat);
            let ascending: AttributeValues =
                oracle.iter().map(|(id, v)| (*id, v.clone())).collect();
            let descending: AttributeValues =
                oracle.iter().rev().map(|(id, v)| (*id, v.clone())).collect();
            assert_eq!(&ascending, &flat);
            assert_eq!(&descending, &flat);

            // The set is the canonical wire encoding of its entries.
            let mut wire = Vec::new();
            let mut w = Writer::new(&mut wire);
            w.u16(oracle.len() as u16);
            for (id, value) in &oracle {
                w.u16(id.0).value(value);
            }
            assert_eq!((flat.count, flat.entries.as_slice()), (oracle.len() as u16, &wire[2..]));
        }

        proptest! {
            #[test]
            fn prop_matches_a_btreemap_oracle(
                inserts in proptest::collection::vec((0u16..24, any::<u32>()), 0..40),
            ) {
                assert_matches_oracle(&inserts);
            }
        }

        /// A full update holds every id of `0..n`, which random draws almost
        /// never produce. That set, and the same set with one id missing, go
        /// through the oracle here, built in both directions.
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
        fn a_missing_id_between_present_ones_reads_as_none() {
            let values: AttributeValues = [0u16, 1, 3, 4]
                .into_iter()
                .map(|id| (AttributeId(id), Value::Bool(true)))
                .collect();
            assert_eq!(values.get(&AttributeId(3)), Some(ValueRef::Bool(true)));
            assert_eq!(values.get(&AttributeId(2)), None);
            assert_eq!(values.get(&AttributeId(5)), None);
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
            assert_eq!(values.get(&AttributeId(7)), Some(ValueRef::Bool(false)));
            assert_eq!(AttributeValues::with_capacity(8), AttributeValues::new());
        }

        #[test]
        fn equality_is_bitwise_on_the_encoding() {
            let one = |v: f64| AttributeValues::from([(AttributeId(0), Value::F64(v))]);
            assert_eq!(one(f64::NAN), one(f64::NAN));
            assert_ne!(one(0.0), one(-0.0));
        }
    }

    /// One field of every type a class may declare, and ids past the end of
    /// the list, for the decoder's oracle below.
    mod typed_codec {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        crate::fom_classes! {
            #[derive(Debug, Clone, PartialEq, Default)]
            struct EveryType {
                scalar: f64,
                vector: Vec3,
                flag: bool,
                count: u32,
                text: String,
            }
        }

        /// The `kind`-th variant, its payload drawn from `seed`.
        fn value(kind: u8, seed: u32) -> Value {
            let x = f64::from(seed) / 7.0;
            match kind % 6 {
                0 => Value::Bool(seed % 2 == 1),
                1 => Value::U32(seed),
                2 => Value::F64(x),
                3 => Value::Vec3([x, -x, 0.5]),
                4 => Value::Text(format!("t{seed}")),
                _ => Value::Bytes(seed.to_be_bytes().to_vec()),
            }
        }

        /// What `from_values` must read for a set built by `inserts`: per
        /// field, the last value inserted under its id if it has the field's
        /// variant, else zero.
        fn oracle(inserts: &[(u16, Value)]) -> EveryType {
            let last: BTreeMap<u16, &Value> = inserts.iter().map(|(id, v)| (*id, v)).collect();
            let mut msg = EveryType::default();
            if let Some(Value::F64(v)) = last.get(&0) {
                msg.scalar = *v;
            }
            if let Some(Value::Vec3(v)) = last.get(&1) {
                msg.vector = Vec3::from(*v);
            }
            if let Some(Value::Bool(v)) = last.get(&2) {
                msg.flag = *v;
            }
            if let Some(Value::U32(v)) = last.get(&3) {
                msg.count = *v;
            }
            if let Some(Value::Text(v)) = last.get(&4) {
                msg.text.clone_from(v);
            }
            msg
        }

        proptest! {
            #[test]
            fn prop_from_values_reads_the_last_right_variant_value_else_zero(
                draws in proptest::collection::vec((0u16..8, any::<u8>(), any::<u32>()), 0..16),
            ) {
                let inserts: Vec<(u16, Value)> =
                    draws.iter().map(|(id, kind, seed)| (*id, value(*kind, *seed))).collect();
                let values: AttributeValues =
                    inserts.iter().map(|(id, v)| (AttributeId(*id), v.clone())).collect();
                prop_assert_eq!(EveryType::from_values(&values), oracle(&inserts));
            }
        }

        /// The sets the random draws above rarely produce: the whole class in
        /// id order, the whole class permuted, and each single field missing
        /// or carrying the wrong variant.
        #[test]
        fn dense_permuted_partial_and_wrong_variant_sets_match_the_oracle() {
            let msg = EveryType {
                scalar: -2.5,
                vector: Vec3::new(1.0, 2.0, 3.0),
                flag: true,
                count: 7,
                text: "jib".into(),
            };
            let fields: Vec<(u16, Value)> =
                msg.to_values().iter().map(|(id, v)| (id.0, v.to_value())).collect();
            let read = |inserts: &[(u16, Value)]| {
                let values: AttributeValues =
                    inserts.iter().map(|(id, v)| (AttributeId(*id), v.clone())).collect();
                EveryType::from_values(&values)
            };
            assert_eq!(read(&fields), msg);
            let reversed: Vec<_> = fields.iter().rev().cloned().collect();
            assert_eq!(read(&reversed), msg);
            for hole in 0..fields.len() {
                let mut partial = fields.clone();
                partial.remove(hole);
                assert_eq!(read(&partial), oracle(&partial), "field {hole} missing");
                let mut wrong = fields.clone();
                let kind = if matches!(wrong[hole].1, Value::U32(_)) { 2 } else { 1 };
                wrong[hole].1 = value(kind, 3);
                assert_eq!(read(&wrong), oracle(&wrong), "field {hole} of another variant");
            }
        }

        #[test]
        fn to_values_encodes_each_field_as_its_value_would_be_inserted() {
            let msg = EveryType {
                scalar: f64::NAN,
                vector: Vec3::new(-0.0, 1e300, 3.0),
                flag: true,
                count: u32::MAX,
                text: "swing".into(),
            };
            let inserted: AttributeValues = [
                (AttributeId(0), Value::F64(f64::NAN)),
                (AttributeId(1), Value::Vec3([-0.0, 1e300, 3.0])),
                (AttributeId(2), Value::Bool(true)),
                (AttributeId(3), Value::U32(u32::MAX)),
                (AttributeId(4), Value::Text("swing".into())),
            ]
            .into();
            let encoded = msg.to_values();
            assert_eq!(EveryType::NAMES, ["scalar", "vector", "flag", "count", "text"]);
            assert_eq!(encoded, inserted);
            assert_eq!(encoded.entries.capacity(), encoded.entries.len(), "sized once");
            assert_eq!(EveryType::from_values(&encoded).text, "swing");
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
