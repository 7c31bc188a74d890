//! Wire messages exchanged between Communication Backbone instances.
//!
//! These are the datagrams that actually cross the cluster LAN. The protocol
//! messages mirror the paper's §2.3 vocabulary (SUBSCRIPTION, ACKNOWLEDGE,
//! CHANNEL CONNECTION) plus the data-plane messages that implement the
//! *Update Attribute Values* / *Reflect Attribute Values* services,
//! interactions and LP withdrawal.

use crate::channel::ChannelId;
use crate::codec::{addr_at, be_u16, be_u64, Reader, Writer};
use crate::error::CbError;
use crate::fom::{AttributeValues, InteractionClassId, ObjectClassId};
use crate::kernel::{LpId, ObjectId};
use cod_net::{Addr, Micros};

/// A message exchanged between two CBs (or broadcast to all CBs).
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Broadcast periodically by a subscribing CB until acknowledged (paper §2.3).
    Subscription {
        /// CB that hosts the subscribing LP.
        subscriber_cb: Addr,
        /// The subscribing LP.
        subscriber_lp: LpId,
        /// Object class being subscribed.
        class: ObjectClassId,
    },
    /// Sent by a publishing CB in response to a matching subscription.
    Acknowledge {
        /// CB that hosts the publishing LP.
        publisher_cb: Addr,
        /// The publishing LP.
        publisher_lp: LpId,
        /// Object class being acknowledged.
        class: ObjectClassId,
    },
    /// Sent by the subscribing CB to the acknowledging CB to build the virtual channel.
    ChannelConnection {
        /// Channel identifier allocated by the subscriber CB.
        channel: ChannelId,
        /// CB that hosts the subscribing LP.
        subscriber_cb: Addr,
        /// The subscribing LP.
        subscriber_lp: LpId,
        /// The publishing LP the channel connects to.
        publisher_lp: LpId,
        /// Object class carried by the channel.
        class: ObjectClassId,
    },
    /// Confirms that the virtual channel has been recorded by the publisher CB
    /// (the "ACKNOWLEDGE received again" of the paper).
    ChannelAck {
        /// The established channel.
        channel: ChannelId,
    },
    /// Data-plane push: *Update Attribute Values* routed over a virtual channel.
    UpdateAttributes {
        /// Channel the update travels on.
        channel: ChannelId,
        /// Object instance being updated.
        object: ObjectId,
        /// The object's class.
        class: ObjectClassId,
        /// Simulation timestamp of the update.
        timestamp: Micros,
        /// Attribute values.
        values: AttributeValues,
    },
    /// An interaction (transient event such as a collision), multicast to the
    /// group of its class.
    Interaction {
        /// Interaction class.
        class: InteractionClassId,
        /// Sending LP.
        sender_lp: LpId,
        /// Simulation timestamp.
        timestamp: Micros,
        /// Parameter values.
        parameters: AttributeValues,
    },
    /// Graceful withdrawal of an LP; its channels are torn down.
    Withdraw {
        /// The departing LP.
        lp: LpId,
    },
}

const TAG_SUBSCRIPTION: u8 = 1;
const TAG_ACKNOWLEDGE: u8 = 2;
const TAG_CHANNEL_CONNECTION: u8 = 3;
const TAG_CHANNEL_ACK: u8 = 4;
const TAG_UPDATE: u8 = 5;
const TAG_INTERACTION: u8 = 6;
// Tag 7 is retired and must not be reused: it decodes as an unknown tag.
const TAG_WITHDRAW: u8 = 8;

/// Offset of the big-endian channel id in an encoded
/// [`WireMessage::UpdateAttributes`] — right after the tag byte. Encodings of
/// one update for different channels differ in these eight bytes only.
const UPDATE_CHANNEL_OFFSET: usize = 1;

/// Appends the encoding of an [`WireMessage::UpdateAttributes`] built from
/// borrowed values, so a publisher encodes without giving its values up.
pub(crate) fn append_update(
    payload: &mut Vec<u8>,
    channel: ChannelId,
    object: ObjectId,
    class: ObjectClassId,
    timestamp: Micros,
    values: &AttributeValues,
) {
    Writer::new(payload)
        .u8(TAG_UPDATE)
        .u64(channel.0)
        .u64(object.0)
        .u16(class.0)
        .micros(timestamp)
        .attribute_values(values);
}

/// Appends a copy of the update already encoded at `payload[update]`,
/// readdressed to `channel`: fanning one update out over N channels is one
/// encode and N - 1 byte copies.
pub(crate) fn append_update_copy(
    payload: &mut Vec<u8>,
    update: std::ops::Range<usize>,
    channel: ChannelId,
) {
    let id_at = payload.len() + UPDATE_CHANNEL_OFFSET;
    payload.extend_from_within(update);
    payload[id_at..id_at + 8].copy_from_slice(&channel.0.to_be_bytes());
}

/// Appends the encoding of an [`WireMessage::Interaction`] built from
/// borrowed parameters.
pub(crate) fn append_interaction(
    payload: &mut Vec<u8>,
    class: InteractionClassId,
    sender_lp: LpId,
    timestamp: Micros,
    parameters: &AttributeValues,
) {
    Writer::new(payload)
        .u8(TAG_INTERACTION)
        .u16(class.0)
        .u64(sender_lp.0)
        .micros(timestamp)
        .attribute_values(parameters);
}

impl WireMessage {
    /// Encodes the message into a datagram payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(128);
        self.encode_into(&mut payload);
        payload
    }

    /// Appends the encoded message to `payload`, leaving what is already there
    /// in place, so a sender can queue several datagrams in one buffer.
    pub fn encode_into(&self, payload: &mut Vec<u8>) {
        let mut w = Writer::new(payload);
        match self {
            WireMessage::Subscription { subscriber_cb, subscriber_lp, class } => {
                w.u8(TAG_SUBSCRIPTION).addr(*subscriber_cb).u64(subscriber_lp.0).u16(class.0);
            }
            WireMessage::Acknowledge { publisher_cb, publisher_lp, class } => {
                w.u8(TAG_ACKNOWLEDGE).addr(*publisher_cb).u64(publisher_lp.0).u16(class.0);
            }
            WireMessage::ChannelConnection {
                channel,
                subscriber_cb,
                subscriber_lp,
                publisher_lp,
                class,
            } => {
                w.u8(TAG_CHANNEL_CONNECTION)
                    .u64(channel.0)
                    .addr(*subscriber_cb)
                    .u64(subscriber_lp.0)
                    .u64(publisher_lp.0)
                    .u16(class.0);
            }
            WireMessage::ChannelAck { channel } => {
                w.u8(TAG_CHANNEL_ACK).u64(channel.0);
            }
            WireMessage::UpdateAttributes { channel, object, class, timestamp, values } => {
                append_update(payload, *channel, *object, *class, *timestamp, values);
            }
            WireMessage::Interaction { class, sender_lp, timestamp, parameters } => {
                append_interaction(payload, *class, *sender_lp, *timestamp, parameters);
            }
            WireMessage::Withdraw { lp } => {
                w.u8(TAG_WITHDRAW).u64(lp.0);
            }
        }
    }

    /// Decodes a message from a datagram payload.
    ///
    /// # Errors
    ///
    /// Returns [`CbError::Codec`] when the payload is truncated or malformed.
    pub fn decode(payload: &[u8]) -> Result<WireMessage, CbError> {
        let mut r = Reader::new(payload);
        let &[tag] = r.take()?;
        // Each message's fixed fields are one block, read with one bounds check.
        Ok(match tag {
            TAG_SUBSCRIPTION => {
                let f = r.take::<14>()?;
                WireMessage::Subscription {
                    subscriber_cb: addr_at(f, 0),
                    subscriber_lp: LpId(be_u64(f, 4)),
                    class: ObjectClassId(be_u16(f, 12)),
                }
            }
            TAG_ACKNOWLEDGE => {
                let f = r.take::<14>()?;
                WireMessage::Acknowledge {
                    publisher_cb: addr_at(f, 0),
                    publisher_lp: LpId(be_u64(f, 4)),
                    class: ObjectClassId(be_u16(f, 12)),
                }
            }
            TAG_CHANNEL_CONNECTION => {
                let f = r.take::<30>()?;
                WireMessage::ChannelConnection {
                    channel: ChannelId(be_u64(f, 0)),
                    subscriber_cb: addr_at(f, 8),
                    subscriber_lp: LpId(be_u64(f, 12)),
                    publisher_lp: LpId(be_u64(f, 20)),
                    class: ObjectClassId(be_u16(f, 28)),
                }
            }
            TAG_CHANNEL_ACK => {
                WireMessage::ChannelAck { channel: ChannelId(be_u64(r.take::<8>()?, 0)) }
            }
            TAG_UPDATE => {
                let f = r.take::<26>()?;
                WireMessage::UpdateAttributes {
                    channel: ChannelId(be_u64(f, 0)),
                    object: ObjectId(be_u64(f, 8)),
                    class: ObjectClassId(be_u16(f, 16)),
                    timestamp: Micros(be_u64(f, 18)),
                    values: r.attribute_values()?,
                }
            }
            TAG_INTERACTION => {
                let f = r.take::<18>()?;
                WireMessage::Interaction {
                    class: InteractionClassId(be_u16(f, 0)),
                    sender_lp: LpId(be_u64(f, 2)),
                    timestamp: Micros(be_u64(f, 10)),
                    parameters: r.attribute_values()?,
                }
            }
            TAG_WITHDRAW => WireMessage::Withdraw { lp: LpId(be_u64(r.take::<8>()?, 0)) },
            tag => return Err(CbError::Codec(format!("unknown wire message tag {tag}"))),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fom::{AttributeId, Value};
    use cod_net::{NodeId, Port};
    use proptest::prelude::*;

    fn sample_values() -> AttributeValues {
        let mut v = AttributeValues::new();
        v.insert(AttributeId(0), Value::Vec3([1.0, 2.0, 3.0]));
        v.insert(AttributeId(1), Value::F64(0.25));
        v.insert(AttributeId(2), Value::Bool(true));
        v
    }

    fn all_samples() -> Vec<WireMessage> {
        vec![
            WireMessage::Subscription {
                subscriber_cb: Addr::new(NodeId(2), Port(1)),
                subscriber_lp: LpId(0x0002_0000_0001),
                class: ObjectClassId(4),
            },
            WireMessage::Acknowledge {
                publisher_cb: Addr::new(NodeId(5), Port(1)),
                publisher_lp: LpId(77),
                class: ObjectClassId(4),
            },
            WireMessage::ChannelConnection {
                channel: ChannelId(9),
                subscriber_cb: Addr::new(NodeId(2), Port(1)),
                subscriber_lp: LpId(3),
                publisher_lp: LpId(77),
                class: ObjectClassId(4),
            },
            WireMessage::ChannelAck { channel: ChannelId(9) },
            WireMessage::UpdateAttributes {
                channel: ChannelId(9),
                object: ObjectId(12),
                class: ObjectClassId(4),
                timestamp: Micros(123_456),
                values: sample_values(),
            },
            WireMessage::Interaction {
                class: InteractionClassId(2),
                sender_lp: LpId(3),
                timestamp: Micros(50),
                parameters: sample_values(),
            },
            WireMessage::Withdraw { lp: LpId(3) },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        // One buffer shared by every message: each encoding is appended
        // behind the ones before it and nothing already queued is touched.
        let mut queued = vec![0xEE; 3];
        let tags: Vec<u8> = all_samples().iter().map(|msg| msg.encode()[0]).collect();
        assert_eq!(tags, [1, 2, 3, 4, 5, 6, 8], "one sample per variant");
        for msg in all_samples() {
            let encoded = msg.encode();
            let decoded = WireMessage::decode(&encoded).unwrap();
            assert_eq!(decoded, msg);
            let before = queued.clone();
            msg.encode_into(&mut queued);
            assert_eq!(queued[..before.len()], before, "encode_into must only append");
            assert_eq!(queued[before.len()..], encoded);
        }
    }

    #[test]
    fn an_update_copy_differs_from_a_fresh_encode_in_the_channel_id_only() {
        let update = |channel| WireMessage::UpdateAttributes {
            channel: ChannelId(channel),
            object: ObjectId(12),
            class: ObjectClassId(4),
            timestamp: Micros(123_456),
            values: sample_values(),
        };
        let (a, b) = (update(0x0102_0304_0506_0708).encode(), update(u64::MAX - 9).encode());
        let differing: Vec<usize> = (0..a.len()).filter(|i| a[*i] != b[*i]).collect();
        let id_bytes = UPDATE_CHANNEL_OFFSET..UPDATE_CHANNEL_OFFSET + 8;
        assert_eq!(differing, id_bytes.clone().collect::<Vec<_>>());
        assert_eq!(a[id_bytes], 0x0102_0304_0506_0708u64.to_be_bytes());

        // Copying `a` behind itself under `b`'s channel id gives `b`.
        let mut arena = a.clone();
        append_update_copy(&mut arena, 0..a.len(), ChannelId(u64::MAX - 9));
        assert_eq!(arena[..a.len()], a);
        assert_eq!(arena[a.len()..], b);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(WireMessage::decode(&[]).is_err());
        assert!(WireMessage::decode(&[99, 1, 2, 3]).is_err());
        // Tag 7, channel 1, time 99: a whole null message as it was encoded
        // while the tag was in use. Retired, it is an unknown tag like 99.
        let null = [7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 99];
        match WireMessage::decode(&null) {
            Err(CbError::Codec(text)) => assert_eq!(text, "unknown wire message tag 7"),
            other => panic!("tag 7 decoded to {other:?}"),
        }
    }

    /// Width of every read `decode` makes on `sample_values()`; `false` marks
    /// the attribute-count pre-check, which looks ahead without consuming.
    /// An attribute's id and tag are one read, its fixed-size value another.
    fn sample_values_reads() -> Vec<(usize, bool)> {
        let mut reads = vec![(2, true), (12, false)];
        for value_bytes in [24, 8, 1] {
            reads.extend([(3, true), (value_bytes, true)]);
        }
        reads
    }

    /// The reads `decode` makes on each of `all_samples()`, in the same order:
    /// the tag, then the message's fixed fields as one block.
    fn all_sample_reads() -> Vec<Vec<(usize, bool)>> {
        let fixed = |widths: &[usize]| widths.iter().map(|n| (*n, true)).collect::<Vec<_>>();
        let with_values = |widths: &[usize]| [fixed(widths), sample_values_reads()].concat();
        vec![
            fixed(&[1, 14]),
            fixed(&[1, 14]),
            fixed(&[1, 30]),
            fixed(&[1, 8]),
            with_values(&[1, 26]),
            with_values(&[1, 18]),
            fixed(&[1, 8]),
        ]
    }

    #[test]
    fn truncation_is_rejected_for_every_variant() {
        for (msg, reads) in all_samples().into_iter().zip(all_sample_reads()) {
            let encoded = msg.encode();
            let consumed: usize = reads.iter().filter(|r| r.1).map(|r| r.0).sum();
            assert_eq!(consumed, encoded.len(), "read table out of date for {msg:?}");
            for cut in 0..encoded.len() {
                // The first read the prefix cannot serve names its own width
                // and what was left for it.
                let mut left = cut;
                let (needed, _) = *reads
                    .iter()
                    .find(|(width, consumes)| {
                        let short = *width > left;
                        if !short && *consumes {
                            left -= width;
                        }
                        short
                    })
                    .expect("a strict prefix runs out");
                match WireMessage::decode(&encoded[..cut]) {
                    Err(CbError::Codec(text)) => assert_eq!(
                        text,
                        format!("truncated message: needed {needed} more bytes, {left} available"),
                        "{msg:?} cut at {cut}"
                    ),
                    other => panic!("truncated {msg:?} at {cut} decoded to {other:?}"),
                }
            }
        }
    }

    /// `all_samples()` with the two attribute-carrying messages holding one
    /// value of every kind, so hostile bytes reach every value decoder.
    fn sweep_samples() -> Vec<WireMessage> {
        let every_kind: AttributeValues = [
            (AttributeId(0), Value::Bool(true)),
            (AttributeId(1), Value::U32(7)),
            (AttributeId(2), Value::F64(-0.5)),
            (AttributeId(3), Value::Vec3([1.0, 2.0, 3.0])),
            (AttributeId(4), Value::Text("jib".into())),
            (AttributeId(5), Value::Bytes(vec![0xAB, 0xCD])),
        ]
        .into();
        let mut samples = all_samples();
        for msg in samples.iter_mut() {
            match msg {
                WireMessage::UpdateAttributes { values, .. } => *values = every_kind.clone(),
                WireMessage::Interaction { parameters, .. } => *parameters = every_kind.clone(),
                _ => {}
            }
        }
        samples
    }

    /// Every strict prefix and every single-byte replacement of the encoding
    /// of each of `samples`, named for the failure message.
    fn mutations(samples: &[WireMessage]) -> Vec<(String, Vec<u8>)> {
        let mut payloads = Vec::new();
        for encoded in samples.iter().map(WireMessage::encode) {
            let variant = encoded[0];
            for cut in 0..encoded.len() {
                payloads.push((format!("tag {variant} cut at {cut}"), encoded[..cut].to_vec()));
            }
            for at in 0..encoded.len() {
                for byte in (0..=u8::MAX).filter(|b| *b != encoded[at]) {
                    let mut bad = encoded.clone();
                    bad[at] = byte;
                    payloads.push((format!("tag {variant} byte {at} = {byte:#04x}"), bad));
                }
            }
        }
        payloads
    }

    /// Every strict prefix and every single-byte replacement of one encoding
    /// of each variant, named for the failure message.
    pub(crate) fn hostile_payloads() -> Vec<(String, Vec<u8>)> {
        mutations(&sweep_samples())
    }

    /// The decoder as it was before each fixed-size value became one bounds
    /// check: one check per primitive read. It is the reference the decoder
    /// is swept against, and nothing else uses it.
    mod reference {
        use super::*;
        use crate::fom::Value;
        use cod_net::{NodeId, Port};

        struct Reader<'a> {
            buf: &'a [u8],
        }

        fn truncated(needed: usize, available: usize) -> CbError {
            CbError::Codec(format!(
                "truncated message: needed {needed} more bytes, {available} available"
            ))
        }

        impl Reader<'_> {
            fn take<const N: usize>(&mut self) -> Result<[u8; N], CbError> {
                match self.buf.split_first_chunk::<N>() {
                    Some((head, rest)) => {
                        self.buf = rest;
                        Ok(*head)
                    }
                    None => Err(truncated(N, self.buf.len())),
                }
            }

            fn u8(&mut self) -> Result<u8, CbError> {
                self.take::<1>().map(|[v]| v)
            }

            fn u16(&mut self) -> Result<u16, CbError> {
                self.take().map(u16::from_be_bytes)
            }

            fn u32(&mut self) -> Result<u32, CbError> {
                self.take().map(u32::from_be_bytes)
            }

            fn u64(&mut self) -> Result<u64, CbError> {
                self.take().map(u64::from_be_bytes)
            }

            fn f64(&mut self) -> Result<f64, CbError> {
                self.u64().map(f64::from_bits)
            }

            fn bytes(&mut self) -> Result<Vec<u8>, CbError> {
                let len = self.u32()? as usize;
                let (head, rest) =
                    self.buf.split_at_checked(len).ok_or_else(|| truncated(len, self.buf.len()))?;
                self.buf = rest;
                Ok(head.to_vec())
            }

            fn string(&mut self) -> Result<String, CbError> {
                let raw = self.bytes()?;
                String::from_utf8(raw).map_err(|e| CbError::Codec(format!("invalid utf-8: {e}")))
            }

            fn addr(&mut self) -> Result<Addr, CbError> {
                let node = self.u16()?;
                let port = self.u16()?;
                Ok(Addr::new(NodeId(node), Port(port)))
            }

            fn micros(&mut self) -> Result<Micros, CbError> {
                Ok(Micros(self.u64()?))
            }

            fn value(&mut self) -> Result<Value, CbError> {
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

            fn attribute_values(&mut self) -> Result<AttributeValues, CbError> {
                let count = self.u16()? as usize;
                if self.buf.len() < count * 4 {
                    return Err(truncated(count * 4, self.buf.len()));
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

        pub(super) fn decode(payload: &[u8]) -> Result<WireMessage, CbError> {
            let mut r = Reader { buf: payload };
            let msg = match r.u8()? {
                TAG_SUBSCRIPTION => WireMessage::Subscription {
                    subscriber_cb: r.addr()?,
                    subscriber_lp: LpId(r.u64()?),
                    class: ObjectClassId(r.u16()?),
                },
                TAG_ACKNOWLEDGE => WireMessage::Acknowledge {
                    publisher_cb: r.addr()?,
                    publisher_lp: LpId(r.u64()?),
                    class: ObjectClassId(r.u16()?),
                },
                TAG_CHANNEL_CONNECTION => WireMessage::ChannelConnection {
                    channel: ChannelId(r.u64()?),
                    subscriber_cb: r.addr()?,
                    subscriber_lp: LpId(r.u64()?),
                    publisher_lp: LpId(r.u64()?),
                    class: ObjectClassId(r.u16()?),
                },
                TAG_CHANNEL_ACK => WireMessage::ChannelAck { channel: ChannelId(r.u64()?) },
                TAG_UPDATE => WireMessage::UpdateAttributes {
                    channel: ChannelId(r.u64()?),
                    object: ObjectId(r.u64()?),
                    class: ObjectClassId(r.u16()?),
                    timestamp: r.micros()?,
                    values: r.attribute_values()?,
                },
                TAG_INTERACTION => WireMessage::Interaction {
                    class: InteractionClassId(r.u16()?),
                    sender_lp: LpId(r.u64()?),
                    timestamp: r.micros()?,
                    parameters: r.attribute_values()?,
                },
                TAG_WITHDRAW => WireMessage::Withdraw { lp: LpId(r.u64()?) },
                tag => return Err(CbError::Codec(format!("unknown wire message tag {tag}"))),
            };
            Ok(msg)
        }
    }

    /// The same message, compared bit for bit: a mangled `F64` may be a NaN,
    /// which `PartialEq` never calls equal to itself.
    fn same(a: &WireMessage, b: &WireMessage) -> bool {
        a.encode() == b.encode() && format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn the_decoder_agrees_with_the_reference_on_every_prefix_and_byte_replacement() {
        let (mut built, mut refused) = (0, 0);
        for (case, payload) in mutations(&all_samples()).iter().chain(&hostile_payloads()) {
            match (WireMessage::decode(payload), reference::decode(payload)) {
                (Ok(a), Ok(b)) if same(&a, &b) => built += 1,
                (Err(CbError::Codec(_)), Err(CbError::Codec(_))) => refused += 1,
                (new, old) => panic!("{case}: decoded to {new:?}, the reference to {old:?}"),
            }
        }
        assert!(built > 0 && refused > 0, "{built} built, {refused} refused");
    }

    /// The attribute-value map that an update or interaction payload carries
    /// behind its tag and fixed fields, as [`Reader::attribute_values`] reads
    /// it and as reading each entry with [`Reader::attribute`] and inserting
    /// it builds it: both fail on the same payloads with the same error, and
    /// otherwise build the same set and stop at the same byte.
    #[test]
    fn the_attribute_walk_fails_exactly_where_reading_each_attribute_fails() {
        let (mut copied, mut normalised, mut refused) = (0, 0, 0);
        for (case, payload) in mutations(&all_samples()).iter().chain(&hostile_payloads()) {
            let fixed = match payload.first() {
                Some(&TAG_UPDATE) => 26,
                Some(&TAG_INTERACTION) => 18,
                _ => continue,
            };
            let Some(map) = payload.get(1 + fixed..) else { continue };
            let mut by_entry = Reader::new(map);
            let reference = by_entry.attribute_count().and_then(|count| {
                let mut values = AttributeValues::new();
                for _ in 0..count {
                    let (id, value) = by_entry.attribute()?;
                    values.insert(id, value.to_value());
                }
                Ok(values)
            });
            let mut reading = Reader::new(map);
            match (reference, reading.attribute_values()) {
                (Ok(expected), Ok(values)) => {
                    assert_eq!(values, expected, "{case}");
                    let left = by_entry.rest().len();
                    assert_eq!(reading.rest().len(), left, "{case}");
                    // A canonical map is copied whole; the others were rebuilt.
                    let (count, entries) = (&map[..2], &map[2..map.len() - left]);
                    if count == values.count.to_be_bytes() && entries == values.entries {
                        copied += 1;
                    } else {
                        normalised += 1;
                    }
                }
                (Err(expected), Err(read)) => {
                    assert_eq!(read.to_string(), expected.to_string(), "{case}");
                    refused += 1;
                }
                (expected, read) => panic!("{case}: {expected:?} by entry, {read:?} read"),
            }
        }
        assert!(copied > 0 && normalised > 0 && refused > 0, "{copied} {normalised} {refused}");
    }

    #[test]
    fn every_prefix_and_byte_replacement_decodes_without_panicking() {
        let payloads = hostile_payloads();
        let encoded_len: usize = sweep_samples().iter().map(|msg| msg.encode().len()).sum();
        assert_eq!(payloads.len(), encoded_len * 256, "a prefix and 255 replacements per byte");
        let mut decoded = 0;
        for (case, payload) in &payloads {
            match std::panic::catch_unwind(|| WireMessage::decode(payload)) {
                Ok(result) => decoded += usize::from(result.is_ok()),
                Err(_) => panic!("decode panicked on {case}"),
            }
        }
        // A replaced payload byte still decodes; a prefix never does.
        assert!(decoded > 0 && decoded < payloads.len(), "{decoded} of {}", payloads.len());
    }

    proptest! {
        #[test]
        fn prop_update_roundtrip(channel in any::<u64>(), object in any::<u64>(), class in any::<u16>(),
                                 ts in any::<u64>(), scalar in -1e6..1e6f64) {
            let mut values = AttributeValues::new();
            values.insert(AttributeId(0), Value::F64(scalar));
            let msg = WireMessage::UpdateAttributes {
                channel: ChannelId(channel),
                object: ObjectId(object),
                class: ObjectClassId(class),
                timestamp: Micros(ts),
                values,
            };
            prop_assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
        }

        #[test]
        fn prop_random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = WireMessage::decode(&data);
        }
    }
}
