//! The transport abstraction the Communication Backbone is written against.

use crate::addr::Addr;
use crate::datagram::{Datagram, Destination};
use crate::error::NetError;

/// A datagram transport endpoint attached to the cluster network.
///
/// The Communication Backbone only ever needs three operations — send a
/// datagram (unicast or broadcast), poll for received datagrams, and learn its
/// own address. [`crate::SimTransport`] is the production implementor; the
/// trait is what lets a kernel test run the same CB code over a fake that
/// records sends and injects datagrams.
pub trait Transport: Send {
    /// Sends `payload` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns an error if the payload exceeds the medium's MTU, the
    /// destination is unknown, or the underlying medium failed.
    fn send(&mut self, dst: Destination, payload: &[u8]) -> Result<(), NetError>;

    /// Drains every datagram delivered to this endpoint since the previous
    /// call, appending them to `out` in delivery order behind whatever `out`
    /// already holds, so a caller that polls every tick can keep one buffer.
    ///
    /// # Errors
    ///
    /// Returns an error if the transport has been disconnected from its medium.
    fn poll_into(&mut self, out: &mut Vec<Datagram>) -> Result<(), NetError>;

    /// [`Transport::poll_into`] a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the transport has been disconnected from its medium.
    fn poll(&mut self) -> Result<Vec<Datagram>, NetError> {
        let mut out = Vec::new();
        self.poll_into(&mut out)?;
        Ok(out)
    }

    /// The address of this endpoint on the cluster network.
    fn local_addr(&self) -> Addr;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_is_object_safe() {
        // Compile-time check that `dyn Transport` stays expressible. The CB
        // itself holds no trait object: `CbKernel<T: Transport>` is generic.
        fn _takes_boxed(_t: Box<dyn Transport>) {}
    }
}
