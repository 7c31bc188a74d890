//! The Communication Backbone kernel that every computer of the COD executes.
//!
//! One [`CbKernel`] runs per computer. Local Logical Processes register with it,
//! declare what they publish and subscribe (paper §2.1), and the kernel takes
//! care of discovering matching publishers/subscribers on other computers,
//! establishing virtual channels with them, and routing attribute updates both
//! locally (co-resident LPs) and remotely (across the LAN) — the LPs themselves
//! never need to know where their peers run.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::channel::{ChannelId, ChannelRole, ChannelTable, VirtualChannel};
use crate::error::CbError;
use crate::fom::{AttributeValues, ClassRegistry, InteractionClassId, ObjectClassId};
use crate::stats::CbStats;
use crate::wire::{self, WireMessage};
use cod_net::{Addr, Destination, Micros, Transport};

/// Identifies a Logical Process cluster-wide.
///
/// The high 32 bits carry the node id of the CB the LP registered with, the low
/// 32 bits a per-CB counter, so ids are globally unique without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LpId(pub u64);

impl LpId {
    /// Composes an LP id from its home node and local sequence number.
    pub fn compose(node: u16, seq: u32) -> LpId {
        LpId(((node as u64) << 32) | seq as u64)
    }
}

/// Identifies an object instance cluster-wide (same composition scheme as [`LpId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Composes an object id from its home node and local sequence number.
    pub fn compose(node: u16, seq: u32) -> ObjectId {
        ObjectId(((node as u64) << 32) | seq as u64)
    }
}

/// A *Reflect Attribute Values* delivery pulled by a subscriber LP.
#[derive(Debug, Clone, PartialEq)]
pub struct Reflection {
    /// The object instance that was updated.
    pub object: ObjectId,
    /// The object's class.
    pub class: ObjectClassId,
    /// The updated attribute values.
    pub values: AttributeValues,
    /// Simulation timestamp attached by the publisher.
    pub timestamp: Micros,
    /// Virtual channel the update arrived on; `None` when the publisher is
    /// co-resident and the update never touched the network.
    pub channel: Option<ChannelId>,
}

/// An interaction (transient event) delivered to a subscriber LP.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionMessage {
    /// Interaction class.
    pub class: InteractionClassId,
    /// The LP that sent the interaction.
    pub sender: LpId,
    /// Parameter values.
    pub parameters: AttributeValues,
    /// Simulation timestamp attached by the sender.
    pub timestamp: Micros,
}

/// Interval between the SUBSCRIPTION broadcasts of a served subscription, so
/// that late-joining publishers are still discovered (paper §2.3).
const READVERTISE_INTERVAL: Micros = Micros::from_secs(2);

/// One row of the subscription table (paper §2.2): a local LP subscribes an
/// object class. The row also keeps the subscription's initialization
/// protocol clock (paper §2.3): its SUBSCRIPTION is broadcast every broadcast
/// interval until it is served, then at the re-advertisement pace.
#[derive(Debug)]
struct Subscription {
    lp: LpId,
    class: ObjectClassId,
    /// When the subscription was issued, or the last session epoch since.
    issued_at: Micros,
    /// Time of the most recent SUBSCRIPTION broadcast.
    last_broadcast: Option<Micros>,
    /// When its first channel became established: the setup latency is
    /// reported once, then.
    first_established_at: Option<Micros>,
}

impl Subscription {
    /// Whether the subscription is served: by a co-resident publisher of its
    /// class, or by an established subscriber-side channel of its own.
    fn is_served(
        &self,
        publications: &BTreeSet<(LpId, ObjectClassId)>,
        channels: &ChannelTable,
    ) -> bool {
        publications.iter().any(|&(lp, class)| class == self.class && lp != self.lp)
            || channels.iter().any(|vc| {
                vc.established
                    && vc.role == ChannelRole::Subscriber
                    && vc.subscriber_lp == self.lp
                    && vc.class == self.class
            })
    }
}

#[derive(Debug, Default)]
struct LocalLp {
    reflections: VecDeque<Reflection>,
    interactions: VecDeque<InteractionMessage>,
    interaction_subscriptions: BTreeSet<InteractionClassId>,
}

/// The LPs registered with one CB, indexed by the local sequence number their
/// id carries, so a lookup is one bounds check. A withdrawn LP leaves its
/// slot empty; sequence numbers are never reused.
#[derive(Debug)]
struct LpTable {
    node: u16,
    slots: Vec<Option<LocalLp>>,
}

impl LpTable {
    fn register(&mut self) -> LpId {
        let id = LpId::compose(self.node, self.slots.len() as u32);
        self.slots.push(Some(LocalLp::default()));
        id
    }

    /// The slot `lp` would sit in, if it is an id of this CB's node.
    fn slot(&self, lp: LpId) -> Option<usize> {
        (lp.0 >> 32 == u64::from(self.node)).then_some(lp.0 as u32 as usize)
    }

    fn get(&self, lp: LpId) -> Option<&LocalLp> {
        self.slots.get(self.slot(lp)?)?.as_ref()
    }

    fn get_mut(&mut self, lp: LpId) -> Option<&mut LocalLp> {
        let slot = self.slot(lp)?;
        self.slots.get_mut(slot)?.as_mut()
    }

    /// The resident LPs with their ids, in registration order.
    fn iter_mut(&mut self) -> impl Iterator<Item = (LpId, &mut LocalLp)> {
        let node = self.node;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(seq, slot)| Some((LpId::compose(node, seq as u32), slot.as_mut()?)))
    }
}

/// Datagrams waiting for the next flush, encoded when they were queued: one
/// byte arena kept across ticks, and per datagram its destination and the
/// offset in `bytes` at which it ends, in queueing order.
#[derive(Debug, Default)]
struct Outbox {
    bytes: Vec<u8>,
    datagrams: Vec<(Destination, usize)>,
}

impl Outbox {
    fn push(&mut self, dst: Destination, msg: &WireMessage) {
        msg.encode_into(&mut self.bytes);
        self.seal(dst);
    }

    /// Ends the datagram whose bytes were just appended to `bytes`.
    fn seal(&mut self, dst: Destination) {
        self.datagrams.push((dst, self.bytes.len()));
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.datagrams.clear();
    }
}

/// The Communication Backbone kernel for one computer of the cluster.
#[derive(Debug)]
pub struct CbKernel {
    addr: Addr,
    fom: ClassRegistry,
    broadcast_interval: Micros,
    now: Micros,
    lps: LpTable,
    next_object_seq: u32,
    next_channel_seq: u32,
    /// The publication table (paper §2.2): which local LP publishes which class.
    publications: BTreeSet<(LpId, ObjectClassId)>,
    /// The subscription table (paper §2.2), in subscription order.
    subscriptions: Vec<Subscription>,
    channels: ChannelTable,
    objects: BTreeMap<ObjectId, (LpId, ObjectClassId)>,
    /// Interaction classes whose multicast groups the next tick joins.
    unjoined: Vec<InteractionClassId>,
    outbox: Outbox,
    stats: CbStats,
}

impl CbKernel {
    /// Creates a kernel for the endpoint `addr` that broadcasts an unserved
    /// subscription every 50 ms.
    pub fn new(addr: Addr, fom: ClassRegistry) -> CbKernel {
        CbKernel::with_broadcast_interval(addr, fom, Micros::from_millis(50))
    }

    /// Creates a kernel for the endpoint `addr` that broadcasts an unserved
    /// subscription, and retries an unanswered CHANNEL CONNECTION, every
    /// `interval` (paper §2.3: "a constant time interval").
    pub fn with_broadcast_interval(addr: Addr, fom: ClassRegistry, interval: Micros) -> CbKernel {
        CbKernel {
            addr,
            fom,
            broadcast_interval: interval,
            now: Micros::ZERO,
            lps: LpTable { node: addr.node.0, slots: Vec::new() },
            next_object_seq: 0,
            next_channel_seq: 0,
            publications: BTreeSet::new(),
            subscriptions: Vec::new(),
            channels: ChannelTable::new(),
            objects: BTreeMap::new(),
            unjoined: Vec::new(),
            outbox: Outbox::default(),
            stats: CbStats::default(),
        }
    }

    /// The federation object model this CB was created with.
    pub fn fom(&self) -> &ClassRegistry {
        &self.fom
    }

    /// Current simulation time as seen by this CB (set by the last `tick`).
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Snapshot of the kernel counters.
    pub fn stats(&self) -> &CbStats {
        &self.stats
    }

    /// Number of fully established virtual channels (both roles).
    pub fn established_channel_count(&self) -> usize {
        self.channels.established_count()
    }

    /// Read access to the full virtual-channel table (used by invariant
    /// checkers to audit cluster-wide channel consistency).
    pub fn channels(&self) -> &ChannelTable {
        &self.channels
    }

    /// Resets the kernel's session-evolving state to the canonical session
    /// epoch: pending reflections/interactions are discarded, the
    /// connection-retry timers are cleared, the protocol broadcast timers are
    /// re-anchored at `epoch` and the counters are zeroed. The
    /// long-lived topology — registered LPs, publications, subscriptions,
    /// object instances and established virtual channels — is kept, which is
    /// what makes recycling a simulator cheap: the initialization protocol
    /// does not have to run again.
    ///
    /// Called once at the end of cluster initialization *and* on every session
    /// reset, so a recycled kernel and a freshly initialized one start each
    /// session from bit-identical state.
    pub fn begin_session(&mut self, epoch: Micros) {
        self.now = epoch;
        for (_, lp) in self.lps.iter_mut() {
            lp.reflections.clear();
            lp.interactions.clear();
        }
        for vc in self.channels.iter_mut() {
            vc.connect_sent_at = Micros::ZERO;
        }
        self.outbox.clear();
        for sub in self.subscriptions.iter_mut() {
            sub.issued_at = epoch;
            sub.last_broadcast = Some(epoch);
        }
        self.stats = CbStats::default();
    }

    // ------------------------------------------------------------------
    // LP registration and declaration services
    // ------------------------------------------------------------------

    /// Registers a Logical Process with this CB and returns its id.
    pub fn register_lp(&mut self) -> LpId {
        self.lps.register()
    }

    /// *Publish Object Class*: declares that `lp` will produce updates of `class`.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP or the class is unknown.
    pub fn publish_object_class(&mut self, lp: LpId, class: ObjectClassId) -> Result<(), CbError> {
        self.check_lp(lp)?;
        self.check_object_class(class)?;
        self.publications.insert((lp, class));
        Ok(())
    }

    /// *Subscribe Object Class*: declares that `lp` wants reflections of `class`.
    ///
    /// The CB starts broadcasting the subscription on the next [`CbKernel::tick`].
    ///
    /// # Errors
    ///
    /// Returns an error if the LP or the class is unknown.
    pub fn subscribe_object_class(
        &mut self,
        lp: LpId,
        class: ObjectClassId,
    ) -> Result<(), CbError> {
        self.check_lp(lp)?;
        self.check_object_class(class)?;
        if !self.subscriptions.iter().any(|s| s.lp == lp && s.class == class) {
            self.subscriptions.push(Subscription {
                lp,
                class,
                issued_at: self.now,
                last_broadcast: None,
                first_established_at: None,
            });
        }
        Ok(())
    }

    /// Subscribes `lp` to an interaction class (collision events, alarms, ...).
    /// The CB joins the class's multicast group on the next [`CbKernel::tick`].
    ///
    /// # Errors
    ///
    /// Returns an error if the LP or the interaction class is unknown.
    pub fn subscribe_interaction_class(
        &mut self,
        lp: LpId,
        class: InteractionClassId,
    ) -> Result<(), CbError> {
        self.check_lp(lp)?;
        if !self.fom.contains_interaction_class(class) {
            return Err(CbError::UnknownInteractionClass(class));
        }
        if self.lps.get_mut(lp).expect("checked above").interaction_subscriptions.insert(class) {
            self.unjoined.push(class);
        }
        Ok(())
    }

    /// Registers a new object instance of `class` owned by `lp`.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP does not publish `class`.
    pub fn register_object_instance(
        &mut self,
        lp: LpId,
        class: ObjectClassId,
    ) -> Result<ObjectId, CbError> {
        self.check_lp(lp)?;
        self.check_object_class(class)?;
        if !self.publications.contains(&(lp, class)) {
            return Err(CbError::NotPublished { class });
        }
        let id = ObjectId::compose(self.addr.node.0, self.next_object_seq);
        self.next_object_seq += 1;
        self.objects.insert(id, (lp, class));
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Data plane: push and pull
    // ------------------------------------------------------------------

    /// *Update Attribute Values*: the publisher pushes new state for `object`.
    ///
    /// The update is routed immediately to co-resident subscribers and queued
    /// for transmission over every established virtual channel whose publisher
    /// is `lp`; remote datagrams leave on the next [`CbKernel::tick`].
    ///
    /// # Errors
    ///
    /// Returns an error if the LP is unknown, the object is unknown, or the
    /// object is not owned by `lp`'s published class.
    pub fn update_attribute_values(
        &mut self,
        lp: LpId,
        object: ObjectId,
        values: AttributeValues,
        timestamp: Micros,
    ) -> Result<(), CbError> {
        self.check_lp(lp)?;
        let (owner, class) = *self.objects.get(&object).ok_or(CbError::UnknownObject(object.0))?;
        if owner != lp {
            return Err(CbError::NotPublished { class });
        }
        self.stats.updates_published += 1;

        // Remote routing: push over every established outgoing channel. The
        // update is encoded for the first one; the others get a copy of those
        // bytes under their own channel id.
        let mut encoded: Option<std::ops::Range<usize>> = None;
        for vc in self.channels.outgoing(lp, class) {
            let bytes = &mut self.outbox.bytes;
            match &encoded {
                Some(update) => wire::append_update_copy(bytes, update.clone(), vc.id),
                None => {
                    let start = bytes.len();
                    wire::append_update(bytes, vc.id, object, class, timestamp, &values);
                    encoded = Some(start..bytes.len());
                }
            }
            self.outbox.seal(Destination::Unicast(vc.remote_cb));
            self.stats.updates_sent_remote += 1;
        }

        // Local routing: co-resident subscribers get the reflection without
        // touching the network (paper §2.1: "no matter that the corresponded
        // LP is in the same machine or across network").
        let subscribers =
            self.subscriptions.iter().filter(|s| s.class == class && s.lp != lp).map(|s| s.lp);
        fan_out(subscribers, values, |sub, values| {
            if let Some(entry) = self.lps.get_mut(sub) {
                entry.reflections.push_back(Reflection {
                    object,
                    class,
                    values,
                    timestamp,
                    channel: None,
                });
                self.stats.updates_routed_locally += 1;
                self.stats.reflections_delivered += 1;
            }
        });
        Ok(())
    }

    /// Sends an interaction: delivered to co-resident subscribers immediately
    /// and multicast to the other CBs that subscribe its class on the next tick.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP or the interaction class is unknown.
    pub fn send_interaction(
        &mut self,
        lp: LpId,
        class: InteractionClassId,
        parameters: AttributeValues,
        timestamp: Micros,
    ) -> Result<(), CbError> {
        self.check_lp(lp)?;
        if !self.fom.contains_interaction_class(class) {
            return Err(CbError::UnknownInteractionClass(class));
        }
        self.stats.interactions_sent += 1;
        wire::append_interaction(&mut self.outbox.bytes, class, lp, timestamp, &parameters);
        self.outbox.seal(Destination::Multicast(class.0));
        let subscribers = self
            .lps
            .iter_mut()
            .filter(|(id, entry)| *id != lp && entry.interaction_subscriptions.contains(&class));
        fan_out(subscribers, parameters, |(_, entry), parameters| {
            entry.interactions.push_back(InteractionMessage {
                class,
                sender: lp,
                parameters,
                timestamp,
            });
            self.stats.interactions_delivered += 1;
        });
        Ok(())
    }

    /// *Reflect Attribute Values* (pull side): drains the reflections queued for `lp`.
    pub fn reflections(&mut self, lp: LpId) -> Vec<Reflection> {
        match self.lps.get_mut(lp) {
            Some(entry) => entry.reflections.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Drains the interactions queued for `lp`.
    pub fn interactions(&mut self, lp: LpId) -> Vec<InteractionMessage> {
        match self.lps.get_mut(lp) {
            Some(entry) => entry.interactions.drain(..).collect(),
            None => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // The kernel pump
    // ------------------------------------------------------------------

    /// Advances the kernel to simulation time `now`: receives this CB's
    /// datagrams from `net`, processes the wire messages, runs the
    /// initialization-protocol timers, and flushes queued outgoing messages
    /// onto `net`.
    ///
    /// # Errors
    ///
    /// Returns an error if the network fails. Malformed datagrams are counted
    /// in the statistics but do not abort the tick.
    pub fn tick(&mut self, now: Micros, net: &mut impl Transport) -> Result<(), CbError> {
        self.now = now;

        // 1. Receive; join the groups of newly subscribed interaction classes.
        net.receive(self.addr, &mut |dgram| self.receive(dgram.payload))?;
        for class in self.unjoined.drain(..) {
            net.join(self.addr, class.0)?;
        }

        // 2. Initialization-protocol timers: broadcast due subscriptions. A
        // served subscription is re-advertised only at the slow pace, so late
        // remote publishers can still be discovered.
        let interval = self.broadcast_interval;
        let cb_addr = self.addr;
        for sub in self.subscriptions.iter_mut() {
            let period = if sub.is_served(&self.publications, &self.channels) {
                READVERTISE_INTERVAL
            } else {
                interval
            };
            if sub.last_broadcast.is_some_and(|last| now.saturating_sub(last) < period) {
                continue;
            }
            sub.last_broadcast = Some(now);
            self.stats.subscription_broadcasts += 1;
            self.outbox.push(
                Destination::Broadcast(cb_addr.port),
                &WireMessage::Subscription {
                    subscriber_cb: cb_addr,
                    subscriber_lp: sub.lp,
                    class: sub.class,
                },
            );
        }

        // 2b. Retransmit CHANNEL CONNECTION for half-open subscriber-side
        // channels (the LAN may have lost either the connection request or the
        // confirming acknowledgement).
        for vc in self.channels.iter_mut() {
            if vc.role != ChannelRole::Subscriber
                || vc.established
                || now.saturating_sub(vc.connect_sent_at) < interval
            {
                continue;
            }
            vc.connect_sent_at = now;
            self.outbox.push(Destination::Unicast(vc.remote_cb), &channel_connection(vc, cb_addr));
        }

        // 3. Flush. A failed send takes the rest of this tick's datagrams
        // with it: nothing stale is left for the next tick.
        let mut start = 0;
        let sent = self.outbox.datagrams.iter().try_for_each(|&(dst, end)| {
            let payload = &self.outbox.bytes[start..end];
            start = end;
            net.send(cb_addr, dst, payload)
        });
        self.outbox.clear();
        Ok(sent?)
    }

    /// Decodes, counts and serves one received payload.
    fn receive(&mut self, payload: &[u8]) {
        match WireMessage::decode(payload) {
            Ok(msg) => {
                self.stats.wire_messages_received += 1;
                self.handle_wire_message(msg);
            }
            Err(_) => self.stats.decode_errors += 1,
        }
    }

    fn handle_wire_message(&mut self, msg: WireMessage) {
        match msg {
            WireMessage::Subscription { subscriber_cb, subscriber_lp, class } => {
                if subscriber_cb == self.addr {
                    return;
                }
                for &(publisher_lp, _) in self.publications.iter().filter(|p| p.1 == class) {
                    if self.channels.has_equivalent(publisher_lp, subscriber_lp, class) {
                        continue;
                    }
                    self.stats.acknowledges_sent += 1;
                    self.outbox.push(
                        Destination::Unicast(subscriber_cb),
                        &WireMessage::Acknowledge { publisher_cb: self.addr, publisher_lp, class },
                    );
                }
            }
            WireMessage::Acknowledge { publisher_cb, publisher_lp, class } => {
                for sub in self.subscriptions.iter().filter(|s| s.class == class) {
                    if self.channels.has_equivalent(publisher_lp, sub.lp, class) {
                        continue;
                    }
                    let vc = VirtualChannel {
                        id: ChannelId::compose(self.addr.node.0, self.next_channel_seq),
                        class,
                        publisher_lp,
                        subscriber_lp: sub.lp,
                        remote_cb: publisher_cb,
                        role: ChannelRole::Subscriber,
                        established: false,
                        connect_sent_at: self.now,
                    };
                    self.next_channel_seq += 1;
                    let connect = channel_connection(&vc, self.addr);
                    self.outbox.push(Destination::Unicast(publisher_cb), &connect);
                    self.channels.insert(vc);
                }
            }
            WireMessage::ChannelConnection {
                channel,
                subscriber_cb,
                subscriber_lp,
                publisher_lp,
                class,
            } => {
                if !self.publications.contains(&(publisher_lp, class)) {
                    return;
                }
                // Idempotent: a retransmitted CHANNEL CONNECTION (lost ack)
                // only re-sends the acknowledgement.
                if self.channels.get(channel).is_none() {
                    self.channels.insert(VirtualChannel {
                        id: channel,
                        class,
                        publisher_lp,
                        subscriber_lp,
                        remote_cb: subscriber_cb,
                        role: ChannelRole::Publisher,
                        established: true,
                        connect_sent_at: Micros::ZERO,
                    });
                    self.stats.channels_established += 1;
                }
                self.outbox.push(
                    Destination::Unicast(subscriber_cb),
                    &WireMessage::ChannelAck { channel },
                );
            }
            WireMessage::ChannelAck { channel } => {
                // A repeated acknowledgement, or one for a channel torn down
                // since, changes nothing.
                let Some(vc) = self.channels.get_mut(channel).filter(|vc| !vc.established) else {
                    return;
                };
                vc.established = true;
                self.stats.channels_established += 1;
                let (lp, class, now) = (vc.subscriber_lp, vc.class, self.now);
                let sub = self.subscriptions.iter_mut().find(|s| s.lp == lp && s.class == class);
                if let Some(sub) = sub.filter(|s| s.first_established_at.is_none()) {
                    sub.first_established_at = Some(now);
                    self.stats.setup_latencies.push(now.saturating_sub(sub.issued_at));
                }
            }
            WireMessage::UpdateAttributes { channel, object, class, timestamp, values } => {
                let subscriber = match self.channels.get(channel) {
                    Some(vc) if vc.role == ChannelRole::Subscriber => vc.subscriber_lp,
                    _ => return,
                };
                if let Some(entry) = self.lps.get_mut(subscriber) {
                    entry.reflections.push_back(Reflection {
                        object,
                        class,
                        values,
                        timestamp,
                        channel: Some(channel),
                    });
                    self.stats.reflections_delivered += 1;
                }
            }
            WireMessage::Interaction { class, sender_lp, timestamp, parameters } => {
                let delivered = self.stats.interactions_delivered;
                let subscribers = self
                    .lps
                    .iter_mut()
                    .filter(|(_, entry)| entry.interaction_subscriptions.contains(&class));
                fan_out(subscribers, parameters, |(_, entry), parameters| {
                    entry.interactions.push_back(InteractionMessage {
                        class,
                        sender: sender_lp,
                        parameters,
                        timestamp,
                    });
                    self.stats.interactions_delivered += 1;
                });
                self.stats.interactions_unread +=
                    u64::from(self.stats.interactions_delivered == delivered);
            }
            WireMessage::Withdraw { lp } => self.channels.remove_for_lp(lp),
        }
    }

    fn check_lp(&self, lp: LpId) -> Result<(), CbError> {
        if self.lps.get(lp).is_some() {
            Ok(())
        } else {
            Err(CbError::UnknownLp(lp.0))
        }
    }

    fn check_object_class(&self, class: ObjectClassId) -> Result<(), CbError> {
        if self.fom.contains_object_class(class) {
            Ok(())
        } else {
            Err(CbError::UnknownObjectClass(class))
        }
    }
}

/// The CHANNEL CONNECTION request for the subscriber-side channel `vc` of the
/// CB at `subscriber_cb`.
fn channel_connection(vc: &VirtualChannel, subscriber_cb: Addr) -> WireMessage {
    WireMessage::ChannelConnection {
        channel: vc.id,
        subscriber_cb,
        subscriber_lp: vc.subscriber_lp,
        publisher_lp: vc.publisher_lp,
        class: vc.class,
    }
}

/// Hands `value` to every target: a clone to each but the last, which takes
/// `value` itself, so a message with one consumer is never copied.
fn fan_out<I: Iterator, V: Clone>(targets: I, value: V, mut deliver: impl FnMut(I::Item, V)) {
    let mut targets = targets.peekable();
    while let Some(target) = targets.next() {
        if targets.peek().is_none() {
            return deliver(target, value);
        }
        deliver(target, value.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::{AttributeId, Value};
    use cod_net::{Datagram, LanConfig, NetError, NodeId, Port, SimLan};

    struct Cluster {
        lan: SimLan,
    }

    impl Cluster {
        fn new(seed: u64) -> Cluster {
            Cluster { lan: SimLan::new(LanConfig::fast_ethernet(seed)) }
        }

        fn kernel(&mut self, fom: &ClassRegistry) -> CbKernel {
            CbKernel::new(self.lan.attach(), fom.clone())
        }

        fn now(&self) -> Micros {
            self.lan.now()
        }

        /// Runs `steps` rounds of 10 ms, ticking every kernel each round.
        fn run(&mut self, kernels: &mut [&mut CbKernel], steps: usize) {
            for _ in 0..steps {
                let now = self.now();
                for k in kernels.iter_mut() {
                    k.tick(now, &mut self.lan).unwrap();
                }
                self.lan.advance_to(now + Micros::from_millis(10));
            }
        }
    }

    impl CbKernel {
        /// Removes an LP: its publications, subscriptions and channels are torn
        /// down and a withdrawal notice is broadcast to the other CBs. No rack
        /// unplugs an LP, so only these tests send the WITHDRAW the kernel serves.
        fn deregister_lp(&mut self, lp: LpId) -> Result<(), CbError> {
            let slot = self.lps.slot(lp).and_then(|slot| self.lps.slots.get_mut(slot));
            if slot.and_then(Option::take).is_none() {
                return Err(CbError::UnknownLp(lp.0));
            }
            self.publications.retain(|&(publisher, _)| publisher != lp);
            self.subscriptions.retain(|s| s.lp != lp);
            self.channels.remove_for_lp(lp);
            self.objects.retain(|_, (owner, _)| *owner != lp);
            self.outbox.push(Destination::Broadcast(self.addr.port), &WireMessage::Withdraw { lp });
            Ok(())
        }
    }

    fn crane_fom() -> (ClassRegistry, ObjectClassId, InteractionClassId) {
        let mut fom = ClassRegistry::new();
        let crane = fom
            .register_object_class("CraneState", &["position", "boom_angle", "cable_length"])
            .unwrap();
        let collision = fom.register_interaction_class("Collision", &["location"]).unwrap();
        (fom, crane, collision)
    }

    #[test]
    fn channel_established_between_two_computers() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(1);
        let mut publisher = cluster.kernel(&fom);
        let mut subscriber = cluster.kernel(&fom);

        let dynamics = publisher.register_lp();
        let visual = subscriber.register_lp();
        publisher.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();

        cluster.run(&mut [&mut publisher, &mut subscriber], 20);

        assert_eq!(publisher.established_channel_count(), 1);
        assert_eq!(subscriber.established_channel_count(), 1);
        assert_eq!(subscriber.stats().setup_latencies.len(), 1);
        assert!(publisher.stats().acknowledges_sent >= 1);
        let incoming: Vec<&VirtualChannel> = subscriber.channels().iter().collect();
        assert_eq!(incoming.len(), 1);
        assert!(incoming[0].established && incoming[0].role == ChannelRole::Subscriber);
        assert_eq!((incoming[0].publisher_lp, incoming[0].subscriber_lp), (dynamics, visual));
    }

    #[test]
    fn update_flows_from_publisher_to_remote_subscriber() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(2);
        let mut publisher = cluster.kernel(&fom);
        let mut subscriber = cluster.kernel(&fom);
        let dynamics = publisher.register_lp();
        let visual = subscriber.register_lp();
        publisher.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 20);

        let object = publisher.register_object_instance(dynamics, crane).unwrap();
        let angle = fom.attribute_id(crane, "boom_angle").unwrap();
        publisher
            .update_attribute_values(
                dynamics,
                object,
                [(angle, Value::F64(0.7))].into(),
                cluster.now(),
            )
            .unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 5);

        let reflections = subscriber.reflections(visual);
        assert_eq!(reflections.len(), 1);
        assert_eq!(reflections[0].object, object);
        assert_eq!(reflections[0].values.get(&angle), Some(crate::ValueRef::F64(0.7)));
        assert!(reflections[0].channel.is_some());
        assert_eq!(publisher.stats().updates_sent_remote, 1);
        assert_eq!(publisher.stats().updates_routed_locally, 0);
    }

    #[test]
    fn co_resident_lps_are_routed_locally_without_network() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(3);
        let mut kernel = cluster.kernel(&fom);
        let dynamics = kernel.register_lp();
        let visual = kernel.register_lp();
        kernel.publish_object_class(dynamics, crane).unwrap();
        kernel.subscribe_object_class(visual, crane).unwrap();

        let object = kernel.register_object_instance(dynamics, crane).unwrap();
        let angle = fom.attribute_id(crane, "boom_angle").unwrap();
        kernel
            .update_attribute_values(dynamics, object, [(angle, Value::F64(1.5))].into(), Micros(5))
            .unwrap();

        let reflections = kernel.reflections(visual);
        assert_eq!(reflections.len(), 1);
        assert!(reflections[0].channel.is_none());
        assert_eq!(kernel.stats().updates_routed_locally, 1);
        assert_eq!(kernel.stats().updates_sent_remote, 0);
        assert!((kernel.stats().local_routing_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_join_of_an_extra_display_without_restart() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(4);
        let mut publisher = cluster.kernel(&fom);
        let mut display1 = cluster.kernel(&fom);
        let dynamics = publisher.register_lp();
        let d1 = display1.register_lp();
        publisher.publish_object_class(dynamics, crane).unwrap();
        display1.subscribe_object_class(d1, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut display1], 20);
        assert_eq!(publisher.established_channel_count(), 1);

        // A new display computer joins the running system (paper §2.3).
        let mut display2 = cluster.kernel(&fom);
        let d2 = display2.register_lp();
        display2.subscribe_object_class(d2, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut display1, &mut display2], 30);
        assert_eq!(publisher.established_channel_count(), 2);

        let object = publisher.register_object_instance(dynamics, crane).unwrap();
        let angle = fom.attribute_id(crane, "boom_angle").unwrap();
        publisher
            .update_attribute_values(
                dynamics,
                object,
                [(angle, Value::F64(0.2))].into(),
                cluster.now(),
            )
            .unwrap();
        cluster.run(&mut [&mut publisher, &mut display1, &mut display2], 5);
        assert_eq!(display1.reflections(d1).len(), 1);
        assert_eq!(display2.reflections(d2).len(), 1);
    }

    #[test]
    fn interactions_are_broadcast_to_subscribed_lps_everywhere() {
        let (fom, crane, collision) = crane_fom();
        let mut cluster = Cluster::new(5);
        let mut a = cluster.kernel(&fom);
        let mut b = cluster.kernel(&fom);
        let mut c = cluster.kernel(&fom); // subscribes no interaction
        let dynamics = a.register_lp();
        let local_audio = a.register_lp();
        let audio = b.register_lp();
        a.publish_object_class(dynamics, crane).unwrap();
        a.subscribe_interaction_class(local_audio, collision).unwrap();
        b.subscribe_interaction_class(audio, collision).unwrap();
        cluster.run(&mut [&mut a, &mut b, &mut c], 5);

        let location = fom.parameter_id(collision, "location").unwrap();
        a.send_interaction(
            dynamics,
            collision,
            [(location, Value::Vec3([1.0, 0.0, 2.0]))].into(),
            cluster.now(),
        )
        .unwrap();
        cluster.run(&mut [&mut a, &mut b, &mut c], 5);

        assert_eq!(a.interactions(local_audio).len(), 1);
        let remote = b.interactions(audio);
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].sender, dynamics);
        // The sender itself does not receive its own interaction, and only
        // the CB with a remote subscriber receives the datagram.
        assert!(a.interactions(dynamics).is_empty());
        assert_eq!([&a, &b, &c].map(|k| k.stats().wire_messages_received), [0, 1, 0]);
    }

    #[test]
    fn service_calls_validate_their_arguments() {
        let (fom, crane, collision) = crane_fom();
        let mut cluster = Cluster::new(6);
        let mut kernel = cluster.kernel(&fom);
        let lp = kernel.register_lp();
        let ghost = LpId(0xdead_beef);

        assert!(matches!(kernel.publish_object_class(ghost, crane), Err(CbError::UnknownLp(_))));
        assert!(matches!(
            kernel.publish_object_class(lp, ObjectClassId(42)),
            Err(CbError::UnknownObjectClass(_))
        ));
        assert!(matches!(
            kernel.register_object_instance(lp, crane),
            Err(CbError::NotPublished { .. })
        ));
        assert!(matches!(
            kernel.subscribe_interaction_class(lp, InteractionClassId(9)),
            Err(CbError::UnknownInteractionClass(_))
        ));
        kernel.publish_object_class(lp, crane).unwrap();
        let object = kernel.register_object_instance(lp, crane).unwrap();
        let other = kernel.register_lp();
        assert!(matches!(
            kernel.update_attribute_values(other, object, AttributeValues::new(), Micros::ZERO),
            Err(CbError::NotPublished { .. })
        ));
        assert!(matches!(
            kernel.send_interaction(ghost, collision, AttributeValues::new(), Micros::ZERO),
            Err(CbError::UnknownLp(_))
        ));
    }

    #[test]
    fn withdraw_tears_down_remote_channels() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(7);
        let mut publisher = cluster.kernel(&fom);
        let mut subscriber = cluster.kernel(&fom);
        let dynamics = publisher.register_lp();
        let visual = subscriber.register_lp();
        publisher.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 20);
        assert_eq!(publisher.established_channel_count(), 1);

        subscriber.deregister_lp(visual).unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 5);
        assert_eq!(publisher.established_channel_count(), 0);
        assert_eq!(subscriber.established_channel_count(), 0);
    }

    #[test]
    fn lossy_lan_still_converges_thanks_to_rebroadcast() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster { lan: SimLan::new(LanConfig::fast_ethernet(11).with_loss(0.3)) };
        let mut publisher = cluster.kernel(&fom);
        let mut subscriber = cluster.kernel(&fom);
        let dynamics = publisher.register_lp();
        let visual = subscriber.register_lp();
        publisher.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();
        // Lossy network: allow plenty of protocol rounds.
        cluster.run(&mut [&mut publisher, &mut subscriber], 300);
        assert!(
            subscriber.established_channel_count() >= 1,
            "channel never established over lossy LAN"
        );
    }

    // ------------------------------------------------------------------
    // The outbox arena, observed at the transport
    // ------------------------------------------------------------------

    /// A network that records every `send` and `join` from the one CB at
    /// `RECORDER` and can be told to fail one send.
    #[derive(Debug, Default)]
    struct RecordingTransport {
        sent: Vec<(Destination, Vec<u8>)>,
        joined: Vec<u16>,
        /// Senders and payloads delivered by the next `receive`.
        inbound: Vec<(Addr, Vec<u8>)>,
        /// 1-based index of the `send` call that fails, if any.
        failing_send: Option<usize>,
        sends: usize,
    }

    const RECORDER: Addr = Addr::new(NodeId(1), Port(1));

    impl RecordingTransport {
        /// Queues `payload` as a datagram from `src` for the next `receive`.
        fn inject(&mut self, src: Addr, payload: Vec<u8>) {
            self.inbound.push((src, payload));
        }

        /// Drains what was sent so far, decoded.
        fn take_sent(&mut self) -> Vec<(Destination, WireMessage)> {
            let sent = self.sent.drain(..);
            sent.map(|(dst, payload)| (dst, WireMessage::decode(&payload).unwrap())).collect()
        }
    }

    impl Transport for RecordingTransport {
        fn send(&mut self, src: Addr, dst: Destination, payload: &[u8]) -> Result<(), NetError> {
            assert_eq!(src, RECORDER);
            self.sends += 1;
            if self.failing_send == Some(self.sends) {
                return Err(NetError::Disconnected);
            }
            self.sent.push((dst, payload.to_vec()));
            Ok(())
        }

        fn receive(
            &mut self,
            addr: Addr,
            deliver: &mut dyn FnMut(Datagram<'_>),
        ) -> Result<(), NetError> {
            assert_eq!(addr, RECORDER);
            for (src, payload) in self.inbound.drain(..) {
                let dst = Destination::Unicast(RECORDER);
                deliver(Datagram { src, dst, payload: &payload, delivered_at: Micros::ZERO });
            }
            Ok(())
        }

        fn join(&mut self, addr: Addr, group: u16) -> Result<(), NetError> {
            assert_eq!(addr, RECORDER);
            self.joined.push(group);
            Ok(())
        }
    }

    /// A publisher of `CraneState` with one object, `local` co-resident
    /// subscribers and `remote` established outgoing channels, each to its own
    /// subscriber CB; nothing sent yet as far as the recorder shows.
    struct Publisher {
        kernel: CbKernel,
        net: RecordingTransport,
        lp: LpId,
        class: ObjectClassId,
        collision: InteractionClassId,
        object: ObjectId,
        local: Vec<LpId>,
        channels: Vec<(ChannelId, Addr)>,
    }

    fn publisher(local: usize, remote: u16) -> Publisher {
        let (fom, class, collision) = crane_fom();
        let mut kernel = CbKernel::new(RECORDER, fom);
        let mut net = RecordingTransport::default();
        let lp = kernel.register_lp();
        kernel.publish_object_class(lp, class).unwrap();
        let object = kernel.register_object_instance(lp, class).unwrap();
        let local = (0..local)
            .map(|_| {
                let sub = kernel.register_lp();
                kernel.subscribe_object_class(sub, class).unwrap();
                sub
            })
            .collect();
        let channels: Vec<(ChannelId, Addr)> = (0..remote)
            .map(|i| (ChannelId::compose(10 + i, 0), Addr::new(NodeId(10 + i), Port(1))))
            .collect();
        for (channel, subscriber_cb) in &channels {
            let connect = WireMessage::ChannelConnection {
                channel: *channel,
                subscriber_cb: *subscriber_cb,
                subscriber_lp: LpId::compose(subscriber_cb.node.0, 0),
                publisher_lp: lp,
                class,
            };
            net.inject(*subscriber_cb, connect.encode());
        }
        kernel.tick(Micros::ZERO, &mut net).unwrap();
        assert_eq!(kernel.established_channel_count(), usize::from(remote));
        net.sent.clear();
        net.sends = 0;
        Publisher { kernel, net, lp, class, collision, object, local, channels }
    }

    fn full_update() -> AttributeValues {
        [
            (AttributeId(0), Value::Vec3([1.0, -2.0, 3.5])),
            (AttributeId(1), Value::F64(0.7)),
            (AttributeId(2), Value::Text("twelve metres".into())),
        ]
        .into()
    }

    #[test]
    fn flushed_payloads_equal_each_message_encoded_on_its_own() {
        for remote in [1, 2, 7] {
            let Publisher { mut kernel, mut net, lp, class, collision, object, channels, .. } =
                publisher(0, remote);
            let bystander = kernel.register_lp();
            let (values, at) = (full_update(), Micros(40_000));
            let parameters: AttributeValues = [(AttributeId(0), Value::Bool(true))].into();

            kernel.update_attribute_values(lp, object, values.clone(), at).unwrap();
            kernel.send_interaction(lp, collision, parameters.clone(), at).unwrap();
            kernel.deregister_lp(bystander).unwrap();
            kernel.tick(at, &mut net).unwrap();

            let to_all = Destination::Broadcast(RECORDER.port);
            let to_readers = Destination::Multicast(collision.0);
            let mut expected = Vec::new();
            for (channel, cb) in &channels {
                let update = WireMessage::UpdateAttributes {
                    channel: *channel,
                    object,
                    class,
                    timestamp: at,
                    values: values.clone(),
                };
                expected.push((Destination::Unicast(*cb), update.encode()));
            }
            let interaction = WireMessage::Interaction {
                class: collision,
                sender_lp: lp,
                timestamp: at,
                parameters: parameters.clone(),
            };
            expected.push((to_readers, interaction.encode()));
            expected.push((to_all, WireMessage::Withdraw { lp: bystander }.encode()));
            assert_eq!(net.sent, expected, "{remote} channels");
            assert_eq!(kernel.stats().updates_sent_remote, u64::from(remote));
        }
    }

    #[test]
    fn a_failed_send_discards_the_rest_of_the_ticks_outbox() {
        let Publisher { mut kernel, mut net, lp, object, .. } = publisher(0, 2);
        kernel.update_attribute_values(lp, object, full_update(), Micros(1)).unwrap();
        kernel.update_attribute_values(lp, object, full_update(), Micros(2)).unwrap();
        kernel.deregister_lp(lp).unwrap();
        net.failing_send = Some(3);
        assert!(matches!(
            kernel.tick(Micros(1), &mut net),
            Err(CbError::Net(NetError::Disconnected))
        ));
        assert_eq!(net.sent.len(), 2, "the two sends before the failure went out");

        // Datagrams four and five died with the third: nothing stale follows.
        kernel.tick(Micros(2), &mut net).unwrap();
        assert_eq!((net.sends, net.sent.len()), (3, 2));
        let late = kernel.register_lp();
        kernel.deregister_lp(late).unwrap();
        kernel.tick(Micros(3), &mut net).unwrap();
        assert_eq!(net.sent.len(), 3);
        assert_eq!(net.sent[2].1, WireMessage::Withdraw { lp: late }.encode());
    }

    #[test]
    fn malformed_datagrams_are_counted_and_the_tick_carries_on() {
        // A display LP beside the publisher, fed over an established
        // subscriber-side channel from a publisher on another computer.
        let Publisher { mut kernel, mut net, lp, class, object, local, .. } = publisher(1, 0);
        let (far_cb, far_lp) = (Addr::new(NodeId(20), Port(1)), LpId::compose(20, 0));
        let channel = ChannelId::compose(RECORDER.node.0, 0);
        let ack = WireMessage::Acknowledge { publisher_cb: far_cb, publisher_lp: far_lp, class };
        net.inject(far_cb, ack.encode());
        net.inject(far_cb, WireMessage::ChannelAck { channel }.encode());
        kernel.tick(Micros::ZERO, &mut net).unwrap();
        assert!(kernel.channels().get(channel).is_some_and(|vc| vc.established));
        let received = kernel.stats().wire_messages_received;

        let mut truncated = WireMessage::UpdateAttributes {
            channel,
            object,
            class,
            timestamp: Micros(5),
            values: full_update(),
        }
        .encode();
        truncated.truncate(truncated.len() - 3);
        // Tag 7, `channel`, time 90 000: a whole null message as it was
        // encoded while the tag was in use.
        let retired = vec![7, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0x5f, 0x90];
        let newcomer = Addr::new(NodeId(21), Port(1));
        let connect = WireMessage::ChannelConnection {
            channel: ChannelId::compose(21, 0),
            subscriber_cb: newcomer,
            subscriber_lp: LpId::compose(21, 0),
            publisher_lp: lp,
            class,
        };
        let random = vec![0xc3, 0x5a, 0x01, 0xff, 0x10, 0x9e, 0x77];
        for payload in [vec![], random, truncated, retired, connect.encode()] {
            net.inject(newcomer, payload);
        }
        net.sent.clear();
        kernel.tick(Micros(10), &mut net).unwrap();

        assert_eq!(kernel.stats().decode_errors, 4);
        assert_eq!(kernel.stats().wire_messages_received, received + 1);
        assert_eq!(kernel.established_channel_count(), 2, "the valid datagram got through");
        let confirm = WireMessage::ChannelAck { channel: ChannelId::compose(21, 0) }.encode();
        assert_eq!(net.sent, [(Destination::Unicast(newcomer), confirm)]);
        assert!(kernel.reflections(local[0]).is_empty());
        assert_eq!(kernel.stats().reflections_delivered, 0);
    }

    #[test]
    fn every_hostile_datagram_is_counted_or_served_and_the_tick_carries_on() {
        // A publisher with a display LP beside it and two remote channels, so
        // a mangled datagram that still decodes reaches every handler arm. The
        // display reads collisions. No resident LP reads the sample
        // interaction's class, so that one is decoded and delivered to no
        // one; a mangled class byte can make it a collision, which is served.
        let Publisher { mut kernel, mut net, collision, local, .. } = publisher(1, 2);
        kernel.subscribe_interaction_class(local[0], collision).unwrap();
        let stranger = Addr::new(NodeId(30), Port(1));
        let (mut refused, mut unread, mut read) = (0, 0, 0);
        for (case, payload) in crate::wire::tests::hostile_payloads() {
            let full = WireMessage::decode(&payload);
            let before = kernel.stats().clone();
            net.inject(stranger, payload);
            kernel.tick(Micros(10), &mut net).unwrap_or_else(|e| panic!("{case}: {e}"));
            let after = kernel.stats().clone();
            let answers = std::mem::take(&mut net.sent);

            // Counted exactly once, where the full decode says.
            let counted = (
                after.decode_errors - before.decode_errors,
                after.wire_messages_received - before.wire_messages_received,
            );
            assert_eq!(counted, if full.is_ok() { (0, 1) } else { (1, 0) }, "{case}");
            let delivered = after.interactions_delivered - before.interactions_delivered;
            let interactions = kernel.interactions(local[0]);
            assert_eq!(interactions.len() as u64, delivered, "{case}");
            let is_unread =
                matches!(full, Ok(WireMessage::Interaction { class, .. }) if class != collision);
            let unread_counted = after.interactions_unread - before.interactions_unread;
            assert_eq!(unread_counted, u64::from(is_unread), "{case}");
            match full {
                Ok(WireMessage::Interaction { class, .. }) if class == collision => {
                    assert_eq!(delivered, 1, "{case}: a read interaction is served");
                    read += 1;
                    continue;
                }
                Ok(WireMessage::Interaction { .. }) => unread += 1,
                Ok(_) => continue,
                Err(_) => refused += 1,
            }
            // An unread interaction or a refused datagram delivers nothing,
            // answers nothing and leaves no part of itself in a kernel buffer.
            // (The LAN frees its payload slot whatever the receiver does with
            // it: `cod_net`'s simnet tests pin that.)
            assert_eq!(delivered, 0, "{case}");
            assert_eq!(after.reflections_delivered, before.reflections_delivered, "{case}");
            assert!(kernel.reflections(local[0]).is_empty(), "{case}");
            assert!(answers.is_empty(), "{case}: answered with {answers:?}");
            assert!(kernel.outbox.bytes.is_empty() && kernel.outbox.datagrams.is_empty());
        }
        assert!(refused > 0 && unread > 0 && read > 0, "{refused} {unread} {read}");
        assert_eq!(net.joined, [collision.0], "joined once, on the first tick");
    }

    #[test]
    fn begin_session_empties_the_outbox() {
        let Publisher { mut kernel, mut net, lp, object, .. } = publisher(0, 2);
        kernel.update_attribute_values(lp, object, full_update(), Micros(1)).unwrap();
        assert_eq!(kernel.outbox.datagrams.len(), 2);
        kernel.begin_session(Micros(5));
        assert!(kernel.outbox.bytes.is_empty() && kernel.outbox.datagrams.is_empty());
        kernel.tick(Micros(5), &mut net).unwrap();
        assert!(net.sent.is_empty());
    }

    #[test]
    fn local_subscribers_get_the_same_reflection_with_and_without_channels() {
        let (values, at) = (full_update(), Micros(7));
        for remote in [0, 3] {
            let Publisher { mut kernel, lp, class, object, local, .. } = publisher(2, remote);
            kernel.update_attribute_values(lp, object, values.clone(), at).unwrap();
            let expected =
                Reflection { object, class, values: values.clone(), timestamp: at, channel: None };
            for sub in local {
                assert_eq!(
                    kernel.reflections(sub),
                    std::slice::from_ref(&expected),
                    "{remote} channels"
                );
            }
            assert_eq!(kernel.stats().updates_routed_locally, 2);
            assert!(kernel.reflections(lp).is_empty(), "the publisher hears nothing back");
        }
    }

    // ------------------------------------------------------------------
    // The initialization protocol, observed at the transport
    // ------------------------------------------------------------------

    /// The CB and first LP of another computer.
    fn far(node: u16) -> (Addr, LpId) {
        (Addr::new(NodeId(node), Port(1)), LpId::compose(node, 0))
    }

    fn acknowledge(node: u16, class: ObjectClassId) -> Vec<u8> {
        let (publisher_cb, publisher_lp) = far(node);
        WireMessage::Acknowledge { publisher_cb, publisher_lp, class }.encode()
    }

    /// The `seq`-th channel the CB at `RECORDER` opens.
    fn own_channel(seq: u32) -> ChannelId {
        ChannelId::compose(RECORDER.node.0, seq)
    }

    /// A CB at `RECORDER` whose one display LP subscribes `CraneState`.
    fn subscriber() -> (CbKernel, RecordingTransport, LpId, ObjectClassId) {
        let (fom, class, _) = crane_fom();
        let mut kernel = CbKernel::new(RECORDER, fom);
        let display = kernel.register_lp();
        kernel.subscribe_object_class(display, class).unwrap();
        (kernel, RecordingTransport::default(), display, class)
    }

    #[test]
    fn subscribing_or_publishing_twice_yields_one_broadcast_stream_and_one_channel() {
        let (mut kernel, mut net, display, class) = subscriber();
        let dynamics = kernel.register_lp();
        for _ in 0..2 {
            kernel.subscribe_object_class(display, class).unwrap();
            kernel.publish_object_class(dynamics, class).unwrap();
        }
        let (viewer_cb, viewer_lp) = far(30);
        let subscription =
            WireMessage::Subscription { subscriber_cb: viewer_cb, subscriber_lp: viewer_lp, class };
        net.inject(viewer_cb, subscription.encode());
        net.inject(far(20).0, acknowledge(20, class));
        kernel.tick(Micros::ZERO, &mut net).unwrap();

        let connect = WireMessage::ChannelConnection {
            channel: own_channel(0),
            subscriber_cb: RECORDER,
            subscriber_lp: display,
            publisher_lp: far(20).1,
            class,
        };
        let expected = [
            (
                Destination::Unicast(viewer_cb),
                WireMessage::Acknowledge { publisher_cb: RECORDER, publisher_lp: dynamics, class },
            ),
            (Destination::Unicast(far(20).0), connect),
            (
                Destination::Broadcast(RECORDER.port),
                WireMessage::Subscription {
                    subscriber_cb: RECORDER,
                    subscriber_lp: display,
                    class,
                },
            ),
        ];
        assert_eq!(net.take_sent(), expected);
        assert_eq!(kernel.channels().len(), 1);

        let object = kernel.register_object_instance(dynamics, class).unwrap();
        kernel.update_attribute_values(dynamics, object, full_update(), Micros(1)).unwrap();
        assert_eq!(kernel.reflections(display).len(), 1, "one reflection per update");
    }

    #[test]
    fn an_unserved_subscription_is_broadcast_at_the_discovery_interval() {
        // With no publisher answering, the SUBSCRIPTION goes out on the first
        // tick and then every 50 ms, never in between.
        let (mut kernel, mut net, display, class) = subscriber();
        let mut broadcasts = Vec::new();
        for ms in (0..=300).step_by(10) {
            kernel.tick(Micros::from_millis(ms), &mut net).unwrap();
            for (destination, msg) in net.take_sent() {
                assert_eq!(destination, Destination::Broadcast(RECORDER.port));
                assert_eq!(
                    msg,
                    WireMessage::Subscription {
                        subscriber_cb: RECORDER,
                        subscriber_lp: display,
                        class
                    }
                );
                broadcasts.push(ms);
            }
        }
        assert_eq!(broadcasts, [0, 50, 100, 150, 200, 250, 300]);
    }

    #[test]
    fn a_served_subscription_is_broadcast_at_the_readvertisement_pace() {
        // Unserved, the SUBSCRIPTION repeats every 50 ms; served, by a remote
        // channel established at 230 ms or by a co-resident publisher, every
        // 2 s. The channel half open since 160 ms does not serve it yet.
        for co_resident_publisher in [false, true] {
            let (mut kernel, mut net, _, class) = subscriber();
            if co_resident_publisher {
                let dynamics = kernel.register_lp();
                kernel.publish_object_class(dynamics, class).unwrap();
            }
            let mut broadcasts = Vec::new();
            for ms in (0..=2_250).step_by(10) {
                if !co_resident_publisher && ms == 160 {
                    net.inject(far(20).0, acknowledge(20, class));
                }
                if !co_resident_publisher && ms == 230 {
                    net.inject(
                        far(20).0,
                        WireMessage::ChannelAck { channel: own_channel(0) }.encode(),
                    );
                }
                kernel.tick(Micros::from_millis(ms), &mut net).unwrap();
                let sent = net.take_sent();
                if sent.iter().any(|(_, msg)| matches!(msg, WireMessage::Subscription { .. })) {
                    broadcasts.push(ms);
                }
            }
            let expected: &[u64] =
                if co_resident_publisher { &[0, 2_000] } else { &[0, 50, 100, 150, 200, 2_200] };
            assert_eq!(broadcasts, expected, "co-resident publisher: {co_resident_publisher}");
        }
    }

    #[test]
    fn only_the_first_establishment_reports_a_latency() {
        let (fom, class, _) = crane_fom();
        let mut kernel = CbKernel::new(RECORDER, fom);
        let mut net = RecordingTransport::default();
        kernel.tick(Micros(10), &mut net).unwrap();
        let display = kernel.register_lp();
        kernel.subscribe_object_class(display, class).unwrap();
        net.inject(far(20).0, acknowledge(20, class));
        net.inject(far(21).0, acknowledge(21, class));
        kernel.tick(Micros(15), &mut net).unwrap();
        assert_eq!(kernel.channels().len(), 2);

        let ack = |seq| WireMessage::ChannelAck { channel: own_channel(seq) }.encode();
        net.inject(far(20).0, ack(0));
        kernel.tick(Micros(20), &mut net).unwrap();
        net.inject(far(21).0, ack(1));
        net.inject(far(20).0, ack(0));
        kernel.tick(Micros(30), &mut net).unwrap();

        assert_eq!(kernel.established_channel_count(), 2);
        assert_eq!(kernel.stats().channels_established, 2);
        assert_eq!(kernel.stats().setup_latencies, [Micros(10)], "issued at 10, served at 20");
    }

    #[test]
    fn a_withdrawn_publisher_is_replaced_at_the_discovery_pace() {
        let (mut kernel, mut net, display, class) = subscriber();
        net.inject(far(20).0, acknowledge(20, class));
        kernel.tick(Micros::ZERO, &mut net).unwrap();
        net.inject(far(20).0, WireMessage::ChannelAck { channel: own_channel(0) }.encode());
        kernel.tick(Micros::from_millis(10), &mut net).unwrap();
        assert_eq!(kernel.established_channel_count(), 1);

        // The publisher leaves and a standby on a third computer takes over.
        // With no channel left the subscription is unserved again, so it is
        // broadcast 50 ms after the last one, not at the 2 s pace.
        net.inject(far(20).0, WireMessage::Withdraw { lp: far(20).1 }.encode());
        kernel.tick(Micros::from_millis(20), &mut net).unwrap();
        assert!(kernel.channels().is_empty(), "the withdrawn publisher's channel is gone");
        net.take_sent();
        kernel.tick(Micros::from_millis(40), &mut net).unwrap();
        assert_eq!(net.take_sent(), []);
        kernel.tick(Micros::from_millis(50), &mut net).unwrap();
        let rediscover =
            WireMessage::Subscription { subscriber_cb: RECORDER, subscriber_lp: display, class };
        assert_eq!(net.take_sent(), [(Destination::Broadcast(RECORDER.port), rediscover)]);

        net.inject(far(21).0, acknowledge(21, class));
        kernel.tick(Micros::from_millis(60), &mut net).unwrap();
        net.inject(far(21).0, WireMessage::ChannelAck { channel: own_channel(1) }.encode());
        kernel.tick(Micros::from_millis(70), &mut net).unwrap();
        let standby: Vec<_> =
            kernel.channels().iter().map(|c| (c.publisher_lp, c.established)).collect();
        assert_eq!(standby, [(far(21).1, true)]);
    }

    #[test]
    fn deregister_forgets_the_retry_timers_of_half_open_channels() {
        // A display LP subscribes; a publisher elsewhere acknowledges, so the
        // CB opens a subscriber-side channel, but the confirming CHANNEL ACK
        // never arrives: the CHANNEL CONNECTION is retried every 50 ms.
        let (mut kernel, mut net, display, class) = subscriber();
        net.inject(far(20).0, acknowledge(20, class));
        let connections = |sent: Vec<(Destination, WireMessage)>| {
            sent.iter().filter(|(_, m)| matches!(m, WireMessage::ChannelConnection { .. })).count()
        };
        kernel.tick(Micros::ZERO, &mut net).unwrap();
        kernel.tick(Micros::from_millis(50), &mut net).unwrap();
        assert_eq!(connections(net.take_sent()), 2, "sent, then retried");

        kernel.deregister_lp(display).unwrap();
        for ms in [100, 150, 200] {
            kernel.tick(Micros::from_millis(ms), &mut net).unwrap();
        }
        let withdraw = WireMessage::Withdraw { lp: display };
        assert_eq!(net.take_sent(), [(Destination::Broadcast(RECORDER.port), withdraw)]);
    }
}
