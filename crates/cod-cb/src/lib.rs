//! The Communication Backbone (CB) — the paper's primary contribution.
//!
//! The CB is a *distribution socket*: a transparent communication layer that
//! every computer of the Cluster Of Desktop computers (COD) runs, so that
//! Logical Processes (LPs) can exchange simulation state without knowing
//! whether their peers live on the same machine or across the network
//! (Huang et al., ICDCS 2001, §2).
//!
//! The design follows the paper closely:
//!
//! * **HLA-flavoured services** ([`fom`], [`api`]): LPs *publish* and
//!   *subscribe* object classes, register object instances, push state with
//!   *Update Attribute Values* and pull it with *Reflect Attribute Values*.
//!   A module declares each of its classes once, as a field list, with
//!   [`fom_classes!`]: a field's position is its attribute id. An update's
//!   [`AttributeValues`] is its own wire encoding, so no hop between the
//!   publisher's fields and the subscriber's builds a value tree.
//! * **Initialization protocol** ([`kernel`]): a subscribing CB
//!   broadcasts a SUBSCRIPTION message at a constant interval until a
//!   publishing CB answers with ACKNOWLEDGE; a CHANNEL CONNECTION exchange then
//!   establishes a *virtual channel* between the two backbone instances
//!   (paper §2.3). Because every CB keeps listening while it runs, an LP (for
//!   example an extra display channel) can join the running system at any time.
//! * **Publication and subscription tables** ([`kernel`]): each CB records which
//!   of its LPs publish and subscribe which class, one row per declaration
//!   (paper §2.2); a subscription row also keeps its broadcast clock.
//! * **Virtual channels** ([`channel`]): entry mappings between the publication
//!   table of one CB and the subscription table of another (paper §2.2, Fig. 2).
//!   The channel table is the one record of whether a channel is established.
//! * **Push/pull routing** ([`kernel`]): publishers push updates into their CB;
//!   the CB routes them over the virtual channels; subscribers pull reflections
//!   out of their CB at their own pace.
//! * **Receive path** ([`kernel`], [`wire`]): each tick the CB drains the
//!   datagrams delivered to its address through `cod_net::Transport::receive`,
//!   which lends each payload for one call. One decoder walks an encoding with
//!   one bounds check per fixed-size value; a received attribute set in
//!   canonical form is validated by that walk and copied as it stands. An
//!   interaction goes to the LAN multicast group of its class, which only CBs
//!   hosting a subscriber join. LPs sit in a table indexed by the sequence
//!   number their id carries.
//!
//! The CB itself carries no time management: the rack's lock-step is the
//! frame synchronization server of paper §4, which lives above it in
//! `cod_cluster::framesync` and speaks over ordinary CB interactions.
//!
//! # A two-computer quickstart
//!
//! ```
//! use cod_cb::{CbKernel, ClassRegistry, Value, ValueRef};
//! use cod_net::{LanConfig, Micros, SimLan};
//!
//! // A tiny FOM shared by every computer of the cluster.
//! let mut fom = ClassRegistry::new();
//! let crane_state = fom.register_object_class("CraneState", &["boom_angle"]).unwrap();
//!
//! // Two computers on the simulated LAN, each running a CB at its own address.
//! let mut lan = SimLan::new(LanConfig::fast_ethernet(7));
//! let mut cb_dyn = CbKernel::new(lan.attach(), fom.clone());
//! let mut cb_vis = CbKernel::new(lan.attach(), fom.clone());
//!
//! // One LP per computer.
//! let dynamics = cb_dyn.register_lp();
//! let visual = cb_vis.register_lp();
//! cb_dyn.publish_object_class(dynamics, crane_state).unwrap();
//! cb_vis.subscribe_object_class(visual, crane_state).unwrap();
//!
//! // Let the initialization protocol build the virtual channel. Each 10 ms
//! // round lends the LAN to each CB for its tick, then advances the LAN.
//! let mut now = Micros::ZERO;
//! for _ in 0..20 {
//!     cb_dyn.tick(now, &mut lan).unwrap();
//!     cb_vis.tick(now, &mut lan).unwrap();
//!     now += Micros::from_millis(10);
//!     lan.advance_to(now);
//! }
//! assert!(cb_dyn.established_channel_count() >= 1);
//!
//! // Push an update from the publisher; pull the reflection at the subscriber.
//! let object = cb_dyn.register_object_instance(dynamics, crane_state).unwrap();
//! let attr = fom.attribute_id(crane_state, "boom_angle").unwrap();
//! cb_dyn.update_attribute_values(dynamics, object, [(attr, Value::F64(42.5))].into(), now).unwrap();
//! for _ in 0..4 {
//!     cb_dyn.tick(now, &mut lan).unwrap();
//!     cb_vis.tick(now, &mut lan).unwrap();
//!     now += Micros::from_millis(10);
//!     lan.advance_to(now);
//! }
//! let reflections = cb_vis.reflections(visual);
//! assert_eq!(reflections.len(), 1);
//! assert_eq!(reflections[0].values.get(&attr), Some(ValueRef::F64(42.5)));
//! ```

pub mod api;
pub mod channel;
pub mod codec;
pub mod error;
pub mod fom;
pub mod kernel;
pub mod stats;
pub mod wire;

pub use api::{CbApi, LpContext};
pub use channel::{ChannelId, ChannelRole, ChannelTable, VirtualChannel};
pub use codec::ValueRef;
pub use error::CbError;
pub use fom::{
    AttributeId, AttributeValues, ClassRegistry, FomValue, InteractionClassId, ObjectClassId, Value,
};
pub use kernel::{CbKernel, InteractionMessage, LpId, ObjectId, Reflection};
pub use stats::CbStats;
pub use wire::WireMessage;
