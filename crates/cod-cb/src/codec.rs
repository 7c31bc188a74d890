//! Compact binary codec for Communication Backbone wire messages.
//!
//! The original CB spoke raw datagrams on the LAN; this module provides the
//! equivalent hand-rolled big-endian encoding on `std` alone — no
//! serialization framework — so the exact wire cost of every message is
//! visible and is charged faithfully by the simulated LAN's bandwidth model.

use crate::error::CbError;
use crate::fom::{AttributeId, AttributeValues, Value};
use cod_net::{Addr, Micros, NodeId, Port};

/// A bounds-checked reader over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

#[cold]
fn truncated(needed: usize, available: usize) -> CbError {
    CbError::Codec(format!("truncated message: needed {needed} more bytes, {available} available"))
}

impl<'a> Reader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Remaining bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next `N` bytes: the one bounds check a primitive read makes.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CbError> {
        match self.buf.split_first_chunk::<N>() {
            Some((head, rest)) => {
                self.buf = rest;
                Ok(*head)
            }
            None => Err(truncated(N, self.buf.len())),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CbError> {
        self.take::<1>().map(|[v]| v)
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CbError> {
        self.take().map(u16::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CbError> {
        self.take().map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CbError> {
        self.take().map(u64::from_be_bytes)
    }

    /// Reads a big-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, CbError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CbError> {
        let len = self.u32()? as usize;
        let (head, rest) =
            self.buf.split_at_checked(len).ok_or_else(|| truncated(len, self.buf.len()))?;
        self.buf = rest;
        Ok(head.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CbError> {
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|e| CbError::Codec(format!("invalid utf-8: {e}")))
    }

    /// Reads a cluster address.
    pub fn addr(&mut self) -> Result<Addr, CbError> {
        let node = self.u16()?;
        let port = self.u16()?;
        Ok(Addr::new(NodeId(node), Port(port)))
    }

    /// Reads a simulated timestamp.
    pub fn micros(&mut self) -> Result<Micros, CbError> {
        Ok(Micros(self.u64()?))
    }

    /// Reads one typed [`Value`].
    pub fn value(&mut self) -> Result<Value, CbError> {
        match self.u8()? {
            0 => Ok(Value::Bool(self.u8()? != 0)),
            1 => Ok(Value::U32(self.u32()?)),
            2 => Ok(Value::F64(self.f64()?)),
            3 => Ok(Value::Vec3([self.f64()?, self.f64()?, self.f64()?])),
            4 => Ok(Value::Text(self.string()?)),
            5 => Ok(Value::Bytes(self.bytes()?)),
            tag => Err(CbError::Codec(format!("unknown value tag {tag}"))),
        }
    }

    /// Reads an attribute-value map. Ids may arrive in any order; a repeated
    /// id keeps its last value.
    pub fn attribute_values(&mut self) -> Result<AttributeValues, CbError> {
        let count = self.u16()? as usize;
        // The count is the sender's claim: reserve no more than the payload
        // that is actually left could hold.
        if self.buf.len() < count * MIN_ATTRIBUTE_BYTES {
            return Err(truncated(count * MIN_ATTRIBUTE_BYTES, self.buf.len()));
        }
        let mut values = AttributeValues::with_capacity(count);
        for _ in 0..count {
            let id = AttributeId(self.u16()?);
            let value = self.value()?;
            values.insert(id, value);
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
                self.u8(0).u8(u8::from(*b));
            }
            Value::U32(x) => {
                self.u8(1).u32(*x);
            }
            Value::F64(x) => {
                self.u8(2).f64(*x);
            }
            Value::Vec3(x) => {
                self.u8(3).f64(x[0]).f64(x[1]).f64(x[2]);
            }
            Value::Text(s) => {
                self.u8(4).string(s);
            }
            Value::Bytes(b) => {
                self.u8(5).bytes(b);
            }
        }
        self
    }

    /// Writes an attribute-value map.
    pub fn attribute_values(&mut self, values: &AttributeValues) -> &mut Self {
        self.u16(values.len() as u16);
        for (id, value) in values {
            self.u16(id.0);
            self.value(value);
        }
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
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.string().unwrap(), "crane");
        assert_eq!(r.addr().unwrap(), Addr::new(NodeId(3), Port(9)));
        assert_eq!(r.remaining(), 0);
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
        let values = vec![
            Value::Bool(true),
            Value::U32(42),
            Value::F64(3.125),
            Value::Vec3([1.0, -2.0, 0.5]),
            Value::Text("lift the cargo".to_owned()),
            Value::Bytes(vec![0, 1, 2, 255]),
        ];
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        for v in &values {
            w.value(v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            assert_eq!(&r.value().unwrap(), v);
        }
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
        assert_eq!(decoded[&AttributeId(4)], Value::U32(30));
        assert_eq!(decoded[&AttributeId(1)], Value::U32(20));
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
        assert!(matches!(r.u64(), Err(CbError::Codec(_))));
    }

    #[test]
    fn unknown_value_tag_is_an_error() {
        let buf = [200u8, 0, 0];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.value(), Err(CbError::Codec(_))));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).bytes(&[0xff, 0xfe]);
        assert!(matches!(Reader::new(&buf).string(), Err(CbError::Codec(_))));
    }
}
