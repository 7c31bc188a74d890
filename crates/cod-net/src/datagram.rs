//! Datagrams exchanged on the cluster LAN.

use crate::addr::{Addr, Port};
use crate::time::Micros;
use std::sync::Arc;

/// Where a datagram is going.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// Deliver to one specific endpoint.
    Unicast(Addr),
    /// Deliver to every node that has an endpoint listening on the port.
    ///
    /// The CB initialization protocol (paper §2.3) relies on periodic
    /// subscription broadcasts, so broadcast is a first-class operation.
    Broadcast(Port),
}

/// A single datagram as seen by a receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sender endpoint.
    pub src: Addr,
    /// Destination the sender used (unicast address or broadcast port).
    pub dst: Destination,
    /// Payload bytes, shared by every copy of a broadcast.
    pub payload: Arc<[u8]>,
    /// Simulated time at which the datagram was delivered to the receiver
    /// (zero for transports without a simulated clock).
    pub delivered_at: Micros,
}

impl Datagram {
    /// Total size in bytes charged against the link (payload + UDP/IP-style header).
    pub fn wire_size(&self) -> usize {
        self.payload.len() + Self::HEADER_BYTES
    }

    /// Fixed per-datagram header overhead (Ethernet + IP + UDP, rounded).
    pub const HEADER_BYTES: usize = 42;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;

    #[test]
    fn wire_size_includes_header() {
        let d = Datagram {
            src: Addr::new(NodeId(0), Port(1)),
            dst: Destination::Broadcast(Port(1)),
            payload: Arc::from(&b"abcd"[..]),
            delivered_at: Micros::ZERO,
        };
        assert_eq!(d.wire_size(), 4 + Datagram::HEADER_BYTES);
    }
}
