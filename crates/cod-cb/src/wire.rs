//! Wire messages exchanged between Communication Backbone instances.
//!
//! These are the datagrams that actually cross the cluster LAN. The protocol
//! messages mirror the paper's §2.3 vocabulary (SUBSCRIPTION, ACKNOWLEDGE,
//! CHANNEL CONNECTION) plus the data-plane messages that implement the
//! *Update Attribute Values* / *Reflect Attribute Values* services,
//! interactions and LP withdrawal.

use crate::channel::ChannelId;
use crate::codec::{Reader, Writer};
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
    /// A broadcast interaction (transient event such as a collision).
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

#[cfg(test)]
mod tests {
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
    fn sample_values_reads() -> Vec<(usize, bool)> {
        let mut reads = vec![(2, true), (12, false)];
        for value_bytes in [&[8, 8, 8][..], &[8], &[1]] {
            reads.extend([(2, true), (1, true)]);
            reads.extend(value_bytes.iter().map(|n| (*n, true)));
        }
        reads
    }

    /// The reads `decode` makes on each of `all_samples()`, in the same order.
    fn all_sample_reads() -> Vec<Vec<(usize, bool)>> {
        let fixed = |widths: &[usize]| widths.iter().map(|n| (*n, true)).collect::<Vec<_>>();
        let with_values = |widths: &[usize]| [fixed(widths), sample_values_reads()].concat();
        vec![
            fixed(&[1, 2, 2, 8, 2]),
            fixed(&[1, 2, 2, 8, 2]),
            fixed(&[1, 8, 2, 2, 8, 8, 2]),
            fixed(&[1, 8]),
            with_values(&[1, 8, 8, 2, 8]),
            with_values(&[1, 2, 8, 8]),
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
