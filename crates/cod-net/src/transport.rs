//! The transport abstraction the Communication Backbone is written against.

use crate::addr::Addr;
use crate::datagram::{Datagram, Destination};
use crate::error::NetError;

/// The cluster network as a CB sees it for the length of one tick.
///
/// The Communication Backbone only ever needs three operations — send a
/// datagram from its own address, drain the datagrams delivered to that
/// address, and join a multicast group. [`crate::SimLan`] is the production
/// implementor; the trait is what lets a kernel test run the same CB code over
/// a fake that records sends and injects datagrams.
pub trait Transport {
    /// Sends `payload` from the endpoint `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns an error if the payload exceeds the medium's MTU, the
    /// destination is unknown, or the underlying medium failed.
    fn send(&mut self, src: Addr, dst: Destination, payload: &[u8]) -> Result<(), NetError>;

    /// Drains every datagram delivered to the endpoint `addr` since the
    /// previous call, handing each to `deliver` in delivery order. A
    /// datagram's payload is lent for that one call: a receiver that keeps
    /// anything copies it out.
    ///
    /// # Errors
    ///
    /// Returns an error if `addr` is not attached to the medium.
    fn receive(
        &mut self,
        addr: Addr,
        deliver: &mut dyn FnMut(Datagram<'_>),
    ) -> Result<(), NetError>;

    /// Makes the endpoint `addr` a member of the multicast `group`; joining
    /// twice changes nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if `addr` is not attached to the medium.
    fn join(&mut self, addr: Addr, group: u16) -> Result<(), NetError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_is_object_safe() {
        // Compile-time check that `dyn Transport` stays expressible. The CB
        // itself holds no trait object: `CbKernel::tick` is generic over it.
        fn _takes_boxed(_t: Box<dyn Transport>) {}
    }
}
