//! Compact binary codec for Communication Backbone wire messages.
//!
//! The original CB spoke raw datagrams on the LAN; this module provides the
//! equivalent hand-rolled big-endian encoding on `std` alone — no
//! serialization framework — so the exact wire cost of every message is
//! visible and is charged faithfully by the simulated LAN's bandwidth model.

use crate::error::CbError;
use crate::fom::{AttributeId, AttributeValues, Value};
use cod_net::{Addr, Micros, NodeId, Port};

/// The tag each [`Value`] variant is encoded under.
pub(crate) const TAG_BOOL: u8 = 0;
pub(crate) const TAG_U32: u8 = 1;
pub(crate) const TAG_F64: u8 = 2;
pub(crate) const TAG_VEC3: u8 = 3;
pub(crate) const TAG_TEXT: u8 = 4;
pub(crate) const TAG_BYTES: u8 = 5;

/// A bounds-checked reader over a received payload. Every fixed-size value —
/// a message's fixed fields, an attribute's id and tag, a scalar or a vector —
/// costs one bounds check; a length-prefixed string costs two.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

#[cold]
fn truncated(needed: usize, available: usize) -> CbError {
    CbError::Codec(format!("truncated message: needed {needed} more bytes, {available} available"))
}

/// An attribute value as it sits in an encoding — a payload or an
/// [`AttributeValues`]: text and bytes are borrowed, so a value only read is
/// never copied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// See [`Value::Bool`].
    Bool(bool),
    /// See [`Value::U32`].
    U32(u32),
    /// See [`Value::F64`].
    F64(f64),
    /// See [`Value::Vec3`].
    Vec3([f64; 3]),
    /// See [`Value::Text`].
    Text(&'a str),
    /// See [`Value::Bytes`].
    Bytes(&'a [u8]),
}

impl ValueRef<'_> {
    /// The owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::U32(v) => Value::U32(v),
            ValueRef::F64(v) => Value::F64(v),
            ValueRef::Vec3(v) => Value::Vec3(v),
            ValueRef::Text(v) => Value::Text(v.to_owned()),
            ValueRef::Bytes(v) => Value::Bytes(v.to_vec()),
        }
    }
}

/// The big-endian `u16` at `at` in a fixed-size field block.
#[inline(always)]
pub(crate) fn be_u16<const N: usize>(block: &[u8; N], at: usize) -> u16 {
    u16::from_be_bytes([block[at], block[at + 1]])
}

/// The big-endian `u64` at `at` in a fixed-size field block.
#[inline(always)]
pub(crate) fn be_u64<const N: usize>(block: &[u8; N], at: usize) -> u64 {
    let mut bytes = [0; 8];
    bytes.copy_from_slice(&block[at..at + 8]);
    u64::from_be_bytes(bytes)
}

/// The cluster address at `at` in a fixed-size field block.
#[inline(always)]
pub(crate) fn addr_at<const N: usize>(block: &[u8; N], at: usize) -> Addr {
    Addr::new(NodeId(be_u16(block, at)), Port(be_u16(block, at + 2)))
}

impl<'a> Reader<'a> {
    /// Wraps a payload for decoding.
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// The bytes not read yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Takes the next `N` bytes with one bounds check.
    #[inline(always)]
    pub(crate) fn take<const N: usize>(&mut self) -> Result<&'a [u8; N], CbError> {
        match self.buf.split_first_chunk::<N>() {
            Some((head, rest)) => {
                self.buf = rest;
                Ok(head)
            }
            None => Err(truncated(N, self.buf.len())),
        }
    }

    /// Takes a length-prefixed byte string.
    fn bytes(&mut self) -> Result<&'a [u8], CbError> {
        let len = u32::from_be_bytes(*self.take()?) as usize;
        let (head, rest) =
            self.buf.split_at_checked(len).ok_or_else(|| truncated(len, self.buf.len()))?;
        self.buf = rest;
        Ok(head)
    }

    /// Reads an attribute-value map's count, refusing one the rest of the
    /// payload could not hold.
    pub(crate) fn attribute_count(&mut self) -> Result<usize, CbError> {
        let count = u16::from_be_bytes(*self.take()?) as usize;
        // The count is the sender's claim: nothing is reserved for more
        // attributes than the payload that is actually left could hold.
        if self.buf.len() < count * MIN_ATTRIBUTE_BYTES {
            return Err(truncated(count * MIN_ATTRIBUTE_BYTES, self.buf.len()));
        }
        Ok(count)
    }

    /// Reads one attribute: its id and tag in one bounds check, then its value.
    pub(crate) fn attribute(&mut self) -> Result<(AttributeId, ValueRef<'a>), CbError> {
        let &[hi, lo, tag] = self.take()?;
        Ok((AttributeId(u16::from_be_bytes([hi, lo])), self.value(tag)?))
    }

    /// Reads a value encoded under `tag`.
    fn value(&mut self, tag: u8) -> Result<ValueRef<'a>, CbError> {
        Ok(match tag {
            TAG_BOOL => ValueRef::Bool(self.take::<1>()?[0] != 0),
            TAG_U32 => ValueRef::U32(u32::from_be_bytes(*self.take()?)),
            TAG_F64 => ValueRef::F64(f64::from_bits(u64::from_be_bytes(*self.take()?))),
            TAG_VEC3 => {
                let xyz = self.take::<24>()?;
                let at = |i| f64::from_bits(be_u64(xyz, i));
                ValueRef::Vec3([at(0), at(8), at(16)])
            }
            TAG_TEXT => ValueRef::Text(
                std::str::from_utf8(self.bytes()?)
                    .map_err(|e| CbError::Codec(format!("invalid utf-8: {e}")))?,
            ),
            TAG_BYTES => ValueRef::Bytes(self.bytes()?),
            tag => return Err(CbError::Codec(format!("unknown value tag {tag}"))),
        })
    }

    /// Reads an attribute-value map, failing exactly where reading each of
    /// its entries with [`Reader::attribute`] fails. One walk checks that
    /// the entries are canonical — ids strictly ascending and every `Bool` 0
    /// or 1 — without decoding a fixed-size value; a canonical map is then
    /// copied as it stands, and any other is normalised through
    /// [`AttributeValues::insert`], so ids may arrive in any order and a
    /// repeated id keeps its last value.
    pub(crate) fn attribute_values(&mut self) -> Result<AttributeValues, CbError> {
        let count = self.attribute_count()?;
        let entries = self.buf;
        let (mut canonical, mut lowest_next_id) = (true, 0);
        for _ in 0..count {
            let &[hi, lo, tag] = self.take()?;
            match tag {
                TAG_BOOL => canonical &= self.take::<1>()?[0] <= 1,
                TAG_U32 => {
                    self.take::<4>()?;
                }
                TAG_F64 => {
                    self.take::<8>()?;
                }
                TAG_VEC3 => {
                    self.take::<24>()?;
                }
                _ => {
                    self.value(tag)?;
                }
            }
            let id = u32::from(u16::from_be_bytes([hi, lo]));
            canonical &= id >= lowest_next_id;
            lowest_next_id = id + 1;
        }
        let entries = &entries[..entries.len() - self.buf.len()];
        if canonical {
            return Ok(AttributeValues { count: count as u16, entries: entries.to_vec() });
        }
        let mut reader = Reader::new(entries);
        let mut values = AttributeValues::new();
        for _ in 0..count {
            let (id, value) = reader.attribute()?;
            values.insert(id, value.to_value());
        }
        Ok(values)
    }
}

/// Smallest encoding of one attribute: a `u16` id, a tag byte and a `Bool`.
const MIN_ATTRIBUTE_BYTES: usize = 4;

/// A writer that appends an encoded payload to a caller-owned buffer.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Creates a writer appending to `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { buf }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a big-endian `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Writes a cluster address.
    pub fn addr(&mut self, a: Addr) -> &mut Self {
        self.u16(a.node.0).u16(a.port.0)
    }

    /// Writes a simulated timestamp.
    pub fn micros(&mut self, t: Micros) -> &mut Self {
        self.u64(t.0)
    }

    /// Writes one typed [`Value`].
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Bool(b) => {
                self.u8(TAG_BOOL).u8(u8::from(*b));
            }
            Value::U32(x) => {
                self.u8(TAG_U32).u32(*x);
            }
            Value::F64(x) => {
                self.u8(TAG_F64).f64(*x);
            }
            Value::Vec3(x) => {
                self.u8(TAG_VEC3).f64(x[0]).f64(x[1]).f64(x[2]);
            }
            Value::Text(s) => {
                self.u8(TAG_TEXT).string(s);
            }
            Value::Bytes(b) => {
                self.u8(TAG_BYTES).bytes(b);
            }
        }
        self
    }

    /// Writes an attribute-value map: its count, then a copy of its
    /// encoded entries.
    pub fn attribute_values(&mut self, values: &AttributeValues) -> &mut Self {
        self.u16(values.count);
        self.buf.extend_from_slice(&values.entries);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut buf = Vec::new();
        Writer::new(&mut buf)
            .u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .f64(-2.5)
            .string("crane")
            .addr(Addr::new(NodeId(3), Port(9)));
        let mut r = Reader::new(&buf);
        assert_eq!(*r.take::<1>().unwrap(), [7]);
        assert_eq!(u16::from_be_bytes(*r.take().unwrap()), 300);
        assert_eq!(u32::from_be_bytes(*r.take().unwrap()), 70_000);
        assert_eq!(be_u64(r.take::<8>().unwrap(), 0), 1 << 40);
        assert_eq!(f64::from_bits(be_u64(r.take::<8>().unwrap(), 0)), -2.5);
        assert_eq!(r.bytes().unwrap(), b"crane");
        assert_eq!(addr_at(r.take::<4>().unwrap(), 0), Addr::new(NodeId(3), Port(9)));
        assert!(r.buf.is_empty());
    }

    #[test]
    fn writer_lays_out_big_endian_bytes() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).u8(7).u16(0x0102).u32(0x0304_0506).f64(1.0).bytes(b"ok");
        let expected: [u8; 21] =
            [7, 1, 2, 3, 4, 5, 6, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, b'o', b'k'];
        assert_eq!(buf, expected);
    }

    #[test]
    fn value_roundtrip_all_variants() {
        let values = [
            Value::Bool(true),
            Value::U32(42),
            Value::F64(3.125),
            Value::Vec3([1.0, -2.0, 0.5]),
            Value::Text("lift the cargo".to_owned()),
            Value::Bytes(vec![0, 1, 2, 255]),
        ];
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        for (id, v) in values.iter().enumerate() {
            w.u16(id as u16).value(v);
        }
        let mut r = Reader::new(&buf);
        for (id, v) in values.iter().enumerate() {
            let (read_id, read) = r.attribute().unwrap();
            assert_eq!((read_id, &read.to_value()), (AttributeId(id as u16), v));
        }
        assert!(r.buf.is_empty());
    }

    #[test]
    fn attribute_values_roundtrip() {
        let mut values = AttributeValues::new();
        values.insert(AttributeId(0), Value::F64(1.25));
        values.insert(AttributeId(3), Value::Vec3([0.0, 9.8, 0.0]));
        values.insert(AttributeId(7), Value::Text("ok".into()));
        let mut buf = Vec::new();
        Writer::new(&mut buf).attribute_values(&values);
        let decoded = Reader::new(&buf).attribute_values().unwrap();
        assert_eq!(decoded, values);
    }

    /// An attribute-value map as a hostile sender would write it: the claimed
    /// `count`, then `(id, U32)` entries exactly as given.
    fn raw_attribute_values(count: u16, entries: &[(u16, u32)]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u16(count);
        for (id, v) in entries {
            w.u16(*id).value(&Value::U32(*v));
        }
        buf
    }

    #[test]
    fn attribute_count_larger_than_the_payload_is_a_codec_error() {
        // 65 535 claimed attributes, none present, then one present: either
        // way the claim is refused before anything is reserved for it.
        for entries in [&[][..], &[(0, 1)][..]] {
            let buf = raw_attribute_values(u16::MAX, entries);
            assert!(matches!(Reader::new(&buf).attribute_values(), Err(CbError::Codec(_))));
        }
        // A count the payload could hold by size alone still fails cleanly
        // when the entries run out.
        let buf = raw_attribute_values(2, &[(0, 1)]);
        assert!(matches!(Reader::new(&buf).attribute_values(), Err(CbError::Codec(_))));
    }

    #[test]
    fn duplicate_attribute_ids_keep_the_last_value() {
        let buf = raw_attribute_values(3, &[(4, 10), (1, 20), (4, 30)]);
        let decoded = Reader::new(&buf).attribute_values().unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded.get(&AttributeId(4)), Some(ValueRef::U32(30)));
        assert_eq!(decoded.get(&AttributeId(1)), Some(ValueRef::U32(20)));
    }

    #[test]
    fn unsorted_attribute_ids_decode_to_the_same_set_as_sorted_ones() {
        let sorted = raw_attribute_values(3, &[(1, 10), (5, 50), (9, 90)]);
        let shuffled = raw_attribute_values(3, &[(9, 90), (1, 10), (5, 50)]);
        let decoded = Reader::new(&shuffled).attribute_values().unwrap();
        assert_eq!(decoded, Reader::new(&sorted).attribute_values().unwrap());
        let ids: Vec<u16> = decoded.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, [1, 5, 9]);
    }

    #[test]
    fn truncated_message_is_a_codec_error() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).u64(99);
        let mut r = Reader::new(&buf[..4]);
        assert!(matches!(r.take::<8>(), Err(CbError::Codec(_))));
    }

    #[test]
    fn unknown_value_tag_is_an_error() {
        // Attribute 0 with tag 200.
        let buf = [0, 0, 200u8, 0, 0];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.attribute(), Err(CbError::Codec(_))));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        // Attribute 0 as text whose bytes are not UTF-8.
        let mut buf = Vec::new();
        Writer::new(&mut buf).u16(0).u8(4).bytes(&[0xff, 0xfe]);
        assert!(matches!(Reader::new(&buf).attribute(), Err(CbError::Codec(_))));
    }
}
