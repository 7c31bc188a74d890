//! Network substrate for the Cluster Of Desktop computers (COD).
//!
//! The original system (Huang et al., ICDCS 2001) ran its Communication
//! Backbone over a 100 Mbit Ethernet LAN connecting eight desktop PCs. This
//! crate provides the equivalent substrate: [`SimLan`] / [`SimTransport`], a
//! deterministic discrete-event LAN model with configurable latency, jitter,
//! bandwidth, loss and seeded fault plans ([`FaultPlan`]). Every rack, test,
//! experiment and benchmark workload runs on it, so results are reproducible.
//! The CB is written against the [`Transport`] trait, which `SimTransport` is
//! the one production implementor of; the trait stays so that a test can put a
//! recording fake under a `CbKernel`.
//!
//! # Example
//!
//! ```
//! use cod_net::{LanConfig, SimLan, Transport, Destination, Port};
//!
//! let lan = SimLan::shared(LanConfig::fast_ethernet(42));
//! let mut a = SimLan::attach(&lan, "display-1");
//! let mut b = SimLan::attach(&lan, "dynamics");
//!
//! // Endpoints created by `attach` listen on the default CB port, `Port(1)`.
//! a.send(Destination::Broadcast(Port(1)), b"hello cluster").unwrap();
//! SimLan::advance(&lan, cod_net::Micros::from_millis(10));
//! let received = b.poll().unwrap();
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
pub use simnet::{SharedLan, SimLan, SimTransport};
pub use stats::{LanStats, NodeStats};
pub use time::{Micros, SimClock};
pub use transport::Transport;
