//! The transport abstraction the Communication Backbone is written against.

use crate::addr::Addr;
use crate::datagram::{Datagram, Destination};
use crate::error::NetError;

/// A datagram transport endpoint attached to the cluster network.
///
/// The Communication Backbone only ever needs three operations — send a
/// datagram (unicast or broadcast), poll for received datagrams, and learn its
/// own address — so the same CB code runs unchanged over the deterministic
/// simulated LAN, in-process loopback channels, or real UDP sockets.
pub trait Transport: Send {
    /// Sends `payload` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns an error if the payload exceeds the transport MTU, the
    /// destination is unknown, or the underlying medium failed.
    fn send(&mut self, dst: Destination, payload: &[u8]) -> Result<(), NetError>;

    /// Drains every datagram that has been delivered to this endpoint since
    /// the previous call.
    ///
    /// # Errors
    ///
    /// Returns an error if the transport has been disconnected from its medium.
    fn poll(&mut self) -> Result<Vec<Datagram>, NetError>;

    /// Like [`Transport::poll`], but appends the delivered datagrams to `out`
    /// so a caller that polls every tick can keep one buffer. Transports that
    /// hold their inbox in memory override this to skip the intermediate
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the transport has been disconnected from its medium.
    fn poll_into(&mut self, out: &mut Vec<Datagram>) -> Result<(), NetError> {
        out.extend(self.poll()?);
        Ok(())
    }

    /// The address of this endpoint on the cluster network.
    fn local_addr(&self) -> Addr;

    /// Maximum payload size in bytes accepted by [`Transport::send`].
    fn mtu(&self) -> usize {
        65_507
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_is_object_safe() {
        // Compile-time check: the CB stores transports as Box<dyn Transport>.
        fn _takes_boxed(_t: Box<dyn Transport>) {}
    }
}
