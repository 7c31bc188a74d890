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
//! * **Initialization protocol** ([`protocol`], [`kernel`]): a subscribing CB
//!   broadcasts a SUBSCRIPTION message at a constant interval until a
//!   publishing CB answers with ACKNOWLEDGE; a CHANNEL CONNECTION exchange then
//!   establishes a *virtual channel* between the two backbone instances
//!   (paper §2.3). Because every CB keeps listening while it runs, an LP (for
//!   example an extra display channel) can join the running system at any time.
//! * **Virtual channels** ([`channel`]): entry mappings between the publication
//!   table of one CB and the subscription table of another (paper §2.2, Fig. 2).
//! * **Push/pull routing** ([`kernel`]): publishers push updates into their CB;
//!   the CB routes them over the virtual channels; subscribers pull reflections
//!   out of their CB at their own pace.
//!
//! The CB itself carries no time management: the rack's lock-step is the
//! frame synchronization server of paper §4, which lives above it in
//! `cod_cluster::framesync` and speaks over ordinary CB interactions.
//!
//! # A two-computer quickstart
//!
//! ```
//! use cod_cb::{CbKernel, ClassRegistry, Value};
//! use cod_net::{LanConfig, SimLan, Micros};
//!
//! // A tiny FOM shared by every computer of the cluster.
//! let mut fom = ClassRegistry::new();
//! let crane_state = fom.register_object_class("CraneState", &["boom_angle"]).unwrap();
//!
//! // Two computers on the simulated LAN, each running a CB.
//! let lan = SimLan::shared(LanConfig::fast_ethernet(7));
//! let mut cb_dyn = CbKernel::new(SimLan::attach(&lan, "dynamics-pc"), fom.clone());
//! let mut cb_vis = CbKernel::new(SimLan::attach(&lan, "visual-pc"), fom.clone());
//!
//! // One LP per computer.
//! let dynamics = cb_dyn.register_lp("dynamics");
//! let visual = cb_vis.register_lp("visual");
//! cb_dyn.publish_object_class(dynamics, crane_state).unwrap();
//! cb_vis.subscribe_object_class(visual, crane_state).unwrap();
//!
//! // Let the initialization protocol build the virtual channel.
//! let mut now = Micros::ZERO;
//! for _ in 0..20 {
//!     cb_dyn.tick(now).unwrap();
//!     cb_vis.tick(now).unwrap();
//!     now += Micros::from_millis(10);
//!     SimLan::advance_to(&lan, now);
//! }
//! assert!(cb_dyn.established_channel_count() >= 1);
//!
//! // Push an update from the publisher; pull the reflection at the subscriber.
//! let object = cb_dyn.register_object_instance(dynamics, crane_state).unwrap();
//! let attr = fom.attribute_id(crane_state, "boom_angle").unwrap();
//! cb_dyn.update_attribute_values(dynamics, object, [(attr, Value::F64(42.5))].into(), now).unwrap();
//! for _ in 0..4 {
//!     cb_dyn.tick(now).unwrap();
//!     cb_vis.tick(now).unwrap();
//!     now += Micros::from_millis(10);
//!     SimLan::advance_to(&lan, now);
//! }
//! let reflections = cb_vis.reflections(visual);
//! assert_eq!(reflections.len(), 1);
//! assert_eq!(reflections[0].values[&attr], Value::F64(42.5));
//! ```

pub mod api;
pub mod channel;
pub mod codec;
pub mod error;
pub mod fom;
pub mod kernel;
pub mod protocol;
pub mod stats;
pub mod tables;
pub mod wire;

pub use api::{CbApi, LpContext};
pub use channel::{ChannelId, ChannelRole, ChannelTable, VirtualChannel};
pub use error::CbError;
pub use fom::{
    AttributeId, AttributeValues, ClassRegistry, InteractionClassId, ObjectClassId, Value,
};
pub use kernel::{CbConfig, CbKernel, InteractionMessage, LpId, ObjectId, Reflection};
pub use protocol::{ChannelSetupState, PendingSubscription};
pub use stats::CbStats;
pub use tables::{PublicationTable, SubscriptionTable};
pub use wire::WireMessage;
