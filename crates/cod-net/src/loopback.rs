//! Zero-latency in-process transport built on crossbeam channels.
//!
//! Useful for the threaded, wall-clock examples where the modules of the crane
//! simulator run as real OS threads on one machine.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::addr::{Addr, NodeId, Port};
use crate::datagram::{Datagram, Destination};
use crate::error::NetError;
use crate::time::Micros;
use crate::transport::Transport;

#[derive(Debug, Default)]
struct HubInner {
    endpoints: BTreeMap<Addr, Sender<Datagram>>,
    next_node: u16,
}

/// A hub connecting [`LoopbackTransport`] endpoints with immediate delivery.
#[derive(Debug, Clone, Default)]
pub struct LoopbackHub {
    inner: Arc<Mutex<HubInner>>,
}

impl LoopbackHub {
    /// Creates an empty hub.
    pub fn new() -> LoopbackHub {
        LoopbackHub::default()
    }

    /// Attaches a new endpoint on a fresh node, bound to port 1.
    pub fn attach(&self) -> LoopbackTransport {
        let mut inner = self.inner.lock();
        let node = NodeId(inner.next_node);
        inner.next_node += 1;
        let addr = Addr::new(node, Port(1));
        let (tx, rx) = unbounded();
        inner.endpoints.insert(addr, tx);
        LoopbackTransport { hub: self.clone(), addr, rx }
    }

    /// Attaches an endpoint at an explicit address.
    ///
    /// # Panics
    ///
    /// Panics if the address is already in use.
    pub fn attach_addr(&self, addr: Addr) -> LoopbackTransport {
        let mut inner = self.inner.lock();
        assert!(!inner.endpoints.contains_key(&addr), "endpoint {addr} already attached");
        inner.next_node = inner.next_node.max(addr.node.0 + 1);
        let (tx, rx) = unbounded();
        inner.endpoints.insert(addr, tx);
        LoopbackTransport { hub: self.clone(), addr, rx }
    }

    /// Number of endpoints currently attached.
    pub fn endpoint_count(&self) -> usize {
        self.inner.lock().endpoints.len()
    }

    fn send_from(&self, src: Addr, dst: Destination, payload: &[u8]) -> Result<(), NetError> {
        let payload = Bytes::copy_from_slice(payload);
        let inner = self.inner.lock();
        let make = |_to: &Addr| Datagram {
            src,
            dst,
            payload: payload.clone(),
            delivered_at: Micros::ZERO,
        };
        match dst {
            Destination::Unicast(addr) => {
                let tx = inner.endpoints.get(&addr).ok_or(NetError::UnknownEndpoint(addr))?;
                tx.send(make(&addr)).map_err(|_| NetError::Disconnected)
            }
            Destination::Broadcast(port) => {
                for (addr, tx) in inner.endpoints.iter() {
                    if addr.port == port && *addr != src {
                        // A receiver that has been dropped is simply skipped,
                        // mirroring UDP broadcast semantics.
                        let _ = tx.send(make(addr));
                    }
                }
                Ok(())
            }
        }
    }

    fn detach(&self, addr: Addr) {
        self.inner.lock().endpoints.remove(&addr);
    }
}

/// A transport whose datagrams are delivered immediately through in-process channels.
#[derive(Debug)]
pub struct LoopbackTransport {
    hub: LoopbackHub,
    addr: Addr,
    rx: Receiver<Datagram>,
}

impl Transport for LoopbackTransport {
    fn send(&mut self, dst: Destination, payload: &[u8]) -> Result<(), NetError> {
        self.hub.send_from(self.addr, dst, payload)
    }

    fn poll(&mut self) -> Result<Vec<Datagram>, NetError> {
        Ok(self.rx.try_iter().collect())
    }

    fn local_addr(&self) -> Addr {
        self.addr
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        self.hub.detach(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_and_broadcast_deliver_immediately() {
        let hub = LoopbackHub::new();
        let mut a = hub.attach();
        let mut b = hub.attach();
        let mut c = hub.attach();

        a.send(Destination::Unicast(b.local_addr()), b"direct").unwrap();
        a.send(Destination::Broadcast(Port(1)), b"all").unwrap();

        let b_msgs = b.poll().unwrap();
        assert_eq!(b_msgs.len(), 2);
        let c_msgs = c.poll().unwrap();
        assert_eq!(c_msgs.len(), 1);
        assert_eq!(&c_msgs[0].payload[..], b"all");
        assert!(a.poll().unwrap().is_empty());
    }

    #[test]
    fn poll_into_appends_what_poll_would_return() {
        let hub = LoopbackHub::new();
        let mut a = hub.attach();
        let mut b = hub.attach();
        let send = |a: &mut LoopbackTransport, to: Addr| {
            a.send(Destination::Unicast(to), b"one").unwrap();
            a.send(Destination::Broadcast(Port(1)), b"two").unwrap();
        };
        send(&mut a, b.local_addr());
        let polled = b.poll().unwrap();
        send(&mut a, b.local_addr());
        // The provided default keeps what the caller's buffer already holds.
        let mut kept = vec![polled[0].clone()];
        b.poll_into(&mut kept).unwrap();
        assert_eq!(kept[1..], polled[..]);
        assert_eq!(kept.len(), 3);
        b.poll_into(&mut kept).unwrap();
        assert_eq!(kept.len(), 3, "nothing new was delivered");
    }

    #[test]
    fn detach_on_drop() {
        let hub = LoopbackHub::new();
        let a = hub.attach();
        {
            let _b = hub.attach();
            assert_eq!(hub.endpoint_count(), 2);
        }
        assert_eq!(hub.endpoint_count(), 1);
        drop(a);
        assert_eq!(hub.endpoint_count(), 0);
    }

    #[test]
    fn unknown_unicast_is_error() {
        let hub = LoopbackHub::new();
        let mut a = hub.attach();
        let err = a.send(Destination::Unicast(Addr::new(NodeId(50), Port(1))), b"x").unwrap_err();
        assert!(matches!(err, NetError::UnknownEndpoint(_)));
    }

    #[test]
    fn works_across_threads() {
        let hub = LoopbackHub::new();
        let mut a = hub.attach();
        let mut b = hub.attach();
        let b_addr = b.local_addr();
        // Serving threads belong to the cod-fleet executor; this test only
        // proves the hub's mutex sharing across a second thread.
        // audit:allow(thread-spawn): test-only cross-thread smoke.
        let handle = std::thread::spawn(move || {
            a.send(Destination::Unicast(b_addr), b"threaded").unwrap();
        });
        handle.join().unwrap();
        let got = b.poll().unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn explicit_address_attach() {
        let hub = LoopbackHub::new();
        let addr = Addr::new(NodeId(7), Port(3));
        let t = hub.attach_addr(addr);
        assert_eq!(t.local_addr(), addr);
        // Next automatic attach must not collide with node 7.
        let auto = hub.attach();
        assert!(auto.local_addr().node.0 > 7);
    }
}
