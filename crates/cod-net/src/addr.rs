//! Cluster addressing: nodes (computers) and ports (services on a computer).

use std::fmt;

/// Identifies one computer of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifies a service endpoint on a computer (the CB listens on a well-known port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Port(pub u16);

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

/// A full endpoint address on the cluster LAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr {
    /// The computer.
    pub node: NodeId,
    /// The service port on that computer.
    pub port: Port,
}

impl Addr {
    /// Creates an address from a node and port.
    pub const fn new(node: NodeId, port: Port) -> Addr {
        Addr { node, port }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.node, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let a = Addr::new(NodeId(3), Port(40));
        assert_eq!(a.to_string(), "node3:40");
    }

    #[test]
    fn ordering_is_by_node_then_port() {
        let a = Addr::new(NodeId(1), Port(9));
        let b = Addr::new(NodeId(2), Port(1));
        assert!(a < b);
    }
}
