//! Wire messages exchanged between Communication Backbone instances.
//!
//! These are the datagrams that actually cross the cluster LAN. The protocol
//! messages mirror the paper's §2.3 vocabulary (SUBSCRIPTION, ACKNOWLEDGE,
//! CHANNEL CONNECTION) plus the data-plane messages that implement the
//! *Update Attribute Values* / *Reflect Attribute Values* services and the
//! Chandy–Misra null messages used for conservative time management.

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
    /// Chandy–Misra null message: a promise that the sender will not emit any
    /// update on this channel with a timestamp earlier than `time`.
    NullMessage {
        /// Channel the promise applies to.
        channel: ChannelId,
        /// Lower bound on future message timestamps.
        time: Micros,
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
const TAG_NULL: u8 = 7;
const TAG_WITHDRAW: u8 = 8;

impl WireMessage {
    /// Encodes the message into a datagram payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(128);
        self.encode_into(&mut payload);
        payload
    }

    /// Encodes the message into `payload`, replacing its previous contents, so
    /// a sender can keep one buffer across messages.
    pub fn encode_into(&self, payload: &mut Vec<u8>) {
        payload.clear();
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
                w.u8(TAG_UPDATE)
                    .u64(channel.0)
                    .u64(object.0)
                    .u16(class.0)
                    .micros(*timestamp)
                    .attribute_values(values);
            }
            WireMessage::Interaction { class, sender_lp, timestamp, parameters } => {
                w.u8(TAG_INTERACTION)
                    .u16(class.0)
                    .u64(sender_lp.0)
                    .micros(*timestamp)
                    .attribute_values(parameters);
            }
            WireMessage::NullMessage { channel, time } => {
                w.u8(TAG_NULL).u64(channel.0).micros(*time);
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
            TAG_NULL => {
                WireMessage::NullMessage { channel: ChannelId(r.u64()?), time: r.micros()? }
            }
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
            WireMessage::NullMessage { channel: ChannelId(1), time: Micros(99) },
            WireMessage::Withdraw { lp: LpId(3) },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        // One buffer reused across every message, dirty on entry.
        let mut reused = vec![0xEE; 300];
        for msg in all_samples() {
            let encoded = msg.encode();
            let decoded = WireMessage::decode(&encoded).unwrap();
            assert_eq!(decoded, msg);
            msg.encode_into(&mut reused);
            assert_eq!(reused, encoded, "encode_into must replace the buffer's contents");
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(WireMessage::decode(&[]).is_err());
        assert!(WireMessage::decode(&[99, 1, 2, 3]).is_err());
    }

    #[test]
    fn truncation_is_rejected_for_every_variant() {
        for msg in all_samples() {
            let encoded = msg.encode();
            for cut in 1..encoded.len() {
                assert!(
                    WireMessage::decode(&encoded[..cut]).is_err(),
                    "truncated {msg:?} at {cut} unexpectedly decoded"
                );
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
