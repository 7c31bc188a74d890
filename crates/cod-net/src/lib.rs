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
//! that CB's tick. The CB is written against the [`Transport`] trait, which
//! `SimLan` is the one production implementor of; the trait stays so that a
//! test can put a recording fake under a `CbKernel`.
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
//! let mut received = Vec::new();
//! lan.poll_into(dynamics, &mut received).unwrap();
//! assert_eq!(received.len(), 1);
//! assert_eq!(&received[0].payload[..], b"hello cluster");
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
pub use stats::{LanStats, NodeStats};
pub use time::{Micros, SimClock};
pub use transport::Transport;
