//! Network substrate for the Cluster Of Desktop computers (COD).
//!
//! The original system (Huang et al., ICDCS 2001) ran its Communication
//! Backbone over a 100 Mbit Ethernet LAN connecting eight desktop PCs. This
//! crate provides the equivalent substrate: [`SimLan`], a deterministic
//! discrete-event LAN model with configurable latency, jitter, bandwidth, loss
//! and seeded fault plans ([`FaultPlan`]). Every rack, test, experiment and
//! benchmark workload runs on it, so results are reproducible.
//!
//! A `SimLan` is a plain value with one owner (a rack's cluster executive),
//! which attaches one address per computer and lends the LAN to each CB for
//! that CB's tick. Its tables are vectors indexed by node, and a send copies
//! its payload once into a slab the LAN keeps, shared by every receiver of a
//! broadcast or of a multicast group (one per interaction class; members
//! outlive a session reset). [`LanStats`] is a plain `Copy` value of whole-LAN
//! counters. The CB is written against the [`Transport`] trait (`send`,
//! `receive`, `join`), which `SimLan` is the one production implementor of;
//! the trait stays so that a test can put a recording fake under a `CbKernel`.
//!
//! # Example
//!
//! ```
//! use cod_net::{Destination, LanConfig, Micros, Port, SimLan, Transport};
//!
//! let mut lan = SimLan::new(LanConfig::fast_ethernet(42));
//! let display = lan.attach();
//! let dynamics = lan.attach();
//!
//! // Addresses handed out by `attach` listen on the default CB port, `Port(1)`.
//! lan.send(display, Destination::Broadcast(Port(1)), b"hello cluster").unwrap();
//! lan.advance_to(Micros::from_millis(10));
//! // A receiver borrows each payload for one call; it copies what it keeps.
//! let mut received = Vec::new();
//! lan.receive(dynamics, &mut |d| received.push(d.payload.to_vec())).unwrap();
//! assert_eq!(received, [b"hello cluster".to_vec()]);
//! ```

pub mod addr;
pub mod datagram;
pub mod error;
pub mod fault;
pub mod link;
pub mod plans;
pub mod simnet;
pub mod stats;
pub mod time;
pub mod transport;

pub use addr::{Addr, NodeId, Port};
pub use datagram::{Datagram, Destination};
pub use error::NetError;
pub use fault::{FaultPlan, LatencySpike, LinkFaultRule, PartitionWindow};
pub use link::{LanConfig, LinkModel};
pub use plans::NamedPlan;
pub use simnet::SimLan;
pub use stats::LanStats;
pub use time::{Micros, SimClock};
pub use transport::Transport;
