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
use crate::protocol::PendingSubscription;
use crate::stats::CbStats;
use crate::tables::{PublicationTable, SubscriptionTable};
use crate::wire::{self, WireMessage};
use cod_net::{Addr, Datagram, Destination, Micros, Transport};

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

    /// The node the LP registered on.
    pub fn node(self) -> u16 {
        (self.0 >> 32) as u16
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

/// Tunable parameters of the initialization protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbConfig {
    /// Interval between SUBSCRIPTION broadcasts while unmatched (paper: "a constant time interval").
    pub subscription_broadcast_interval: Micros,
    /// Interval between re-advertisements once at least one channel exists,
    /// allowing late-joining publishers to be discovered.
    pub readvertise_interval: Micros,
}

impl Default for CbConfig {
    fn default() -> Self {
        CbConfig {
            subscription_broadcast_interval: Micros::from_millis(50),
            readvertise_interval: Micros::from_secs(2),
        }
    }
}

#[derive(Debug)]
struct LocalLp {
    reflections: VecDeque<Reflection>,
    interactions: VecDeque<InteractionMessage>,
    interaction_subscriptions: BTreeSet<InteractionClassId>,
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
pub struct CbKernel<T: Transport> {
    transport: T,
    addr: Addr,
    fom: ClassRegistry,
    config: CbConfig,
    now: Micros,
    lps: BTreeMap<LpId, LocalLp>,
    next_lp_seq: u32,
    next_object_seq: u32,
    next_channel_seq: u32,
    publications: PublicationTable,
    subscriptions: SubscriptionTable,
    pending: Vec<PendingSubscription>,
    channels: ChannelTable,
    objects: BTreeMap<ObjectId, (LpId, ObjectClassId)>,
    connect_last_sent: BTreeMap<ChannelId, Micros>,
    outbox: Outbox,
    /// Receive buffer kept across ticks so a steady-state tick does not
    /// allocate one.
    inbox: Vec<Datagram>,
    stats: CbStats,
}

impl<T: Transport> CbKernel<T> {
    /// Creates a kernel with the default protocol configuration.
    pub fn new(transport: T, fom: ClassRegistry) -> CbKernel<T> {
        CbKernel::with_config(transport, fom, CbConfig::default())
    }

    /// Creates a kernel with an explicit protocol configuration.
    pub fn with_config(transport: T, fom: ClassRegistry, config: CbConfig) -> CbKernel<T> {
        let addr = transport.local_addr();
        CbKernel {
            transport,
            addr,
            fom,
            config,
            now: Micros::ZERO,
            lps: BTreeMap::new(),
            next_lp_seq: 0,
            next_object_seq: 0,
            next_channel_seq: 0,
            publications: PublicationTable::new(),
            subscriptions: SubscriptionTable::new(),
            pending: Vec::new(),
            channels: ChannelTable::new(),
            objects: BTreeMap::new(),
            connect_last_sent: BTreeMap::new(),
            outbox: Outbox::default(),
            inbox: Vec::new(),
            stats: CbStats::default(),
        }
    }

    /// Address of this CB on the cluster network.
    pub fn local_addr(&self) -> Addr {
        self.addr
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
        for lp in self.lps.values_mut() {
            lp.reflections.clear();
            lp.interactions.clear();
        }
        self.connect_last_sent.clear();
        self.outbox.clear();
        for pending in self.pending.iter_mut() {
            pending.begin_session(epoch);
        }
        self.stats = CbStats::default();
    }

    // ------------------------------------------------------------------
    // LP registration and declaration services
    // ------------------------------------------------------------------

    /// Registers a Logical Process with this CB and returns its id.
    pub fn register_lp(&mut self) -> LpId {
        let id = LpId::compose(self.addr.node.0, self.next_lp_seq);
        self.next_lp_seq += 1;
        self.lps.insert(
            id,
            LocalLp {
                reflections: VecDeque::new(),
                interactions: VecDeque::new(),
                interaction_subscriptions: BTreeSet::new(),
            },
        );
        id
    }

    /// Removes an LP: its publications, subscriptions and channels are torn
    /// down and a withdrawal notice is broadcast to the other CBs.
    ///
    /// # Errors
    ///
    /// Returns [`CbError::UnknownLp`] if the LP is not registered here.
    pub fn deregister_lp(&mut self, lp: LpId) -> Result<(), CbError> {
        if self.lps.remove(&lp).is_none() {
            return Err(CbError::UnknownLp(lp.0));
        }
        self.publications.remove_lp(lp);
        self.subscriptions.remove_lp(lp);
        self.pending.retain(|p| p.lp != lp);
        for vc in self.channels.remove_for_lp(lp) {
            self.connect_last_sent.remove(&vc.id);
        }
        self.objects.retain(|_, (owner, _)| *owner != lp);
        self.outbox.push(Destination::Broadcast(self.addr.port), &WireMessage::Withdraw { lp });
        Ok(())
    }

    /// *Publish Object Class*: declares that `lp` will produce updates of `class`.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP or the class is unknown.
    pub fn publish_object_class(&mut self, lp: LpId, class: ObjectClassId) -> Result<(), CbError> {
        self.check_lp(lp)?;
        self.check_object_class(class)?;
        self.publications.insert(lp, class);
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
        if self.subscriptions.insert(lp, class) {
            self.pending.push(PendingSubscription::new(lp, class, self.now));
        }
        Ok(())
    }

    /// Subscribes `lp` to an interaction class (collision events, alarms, ...).
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
        self.lps.get_mut(&lp).expect("checked above").interaction_subscriptions.insert(class);
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
        if !self.publications.publishes(lp, class) {
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
        let subscribers = self.subscriptions.subscribers_of(class).filter(|s| *s != lp);
        fan_out(subscribers, values, |sub, values| {
            if let Some(entry) = self.lps.get_mut(&sub) {
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
    /// and broadcast to every other CB on the next tick.
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
        self.outbox.seal(Destination::Broadcast(self.addr.port));
        let subscribers = self
            .lps
            .iter_mut()
            .filter(|(id, entry)| **id != lp && entry.interaction_subscriptions.contains(&class));
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
        match self.lps.get_mut(&lp) {
            Some(entry) => entry.reflections.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Drains the interactions queued for `lp`.
    pub fn interactions(&mut self, lp: LpId) -> Vec<InteractionMessage> {
        match self.lps.get_mut(&lp) {
            Some(entry) => entry.interactions.drain(..).collect(),
            None => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // The kernel pump
    // ------------------------------------------------------------------

    /// Advances the kernel to simulation time `now`: receives and processes
    /// wire messages, runs the initialization-protocol timers, and flushes
    /// queued outgoing messages onto the transport.
    ///
    /// # Errors
    ///
    /// Returns an error if the transport fails. Malformed datagrams are counted
    /// in the statistics but do not abort the tick.
    pub fn tick(&mut self, now: Micros) -> Result<(), CbError> {
        self.now = now;

        // 1. Receive.
        let mut inbox = std::mem::take(&mut self.inbox);
        self.transport.poll_into(&mut inbox)?;
        for dgram in inbox.drain(..) {
            match WireMessage::decode(&dgram.payload) {
                Ok(msg) => {
                    self.stats.wire_messages_received += 1;
                    self.handle_wire_message(msg);
                }
                Err(_) => {
                    self.stats.decode_errors += 1;
                }
            }
        }
        self.inbox = inbox;

        // 2. Initialization-protocol timers: broadcast due subscriptions.
        let interval = self.config.subscription_broadcast_interval;
        let readvertise = self.config.readvertise_interval;
        let cb_addr = self.addr;
        for pending in self.pending.iter_mut() {
            // A co-resident publisher already serves the subscription; keep the
            // broadcast only at the slow re-advertisement pace so late remote
            // publishers can still be discovered.
            pending.locally_matched =
                self.publications.publishers_of(pending.class).any(|p| p != pending.lp);
            if pending.broadcast_due(now, interval, readvertise) {
                pending.record_broadcast(now);
                self.stats.subscription_broadcasts += 1;
                self.outbox.push(
                    Destination::Broadcast(cb_addr.port),
                    &WireMessage::Subscription {
                        subscriber_cb: cb_addr,
                        subscriber_lp: pending.lp,
                        class: pending.class,
                    },
                );
            }
        }

        // 2b. Retransmit CHANNEL CONNECTION for half-open subscriber-side
        // channels (the LAN may have lost either the connection request or the
        // confirming acknowledgement).
        for vc in self.channels.iter() {
            if vc.role != ChannelRole::Subscriber || vc.established {
                continue;
            }
            let last = self.connect_last_sent.get(&vc.id).copied().unwrap_or(Micros::ZERO);
            if now.saturating_sub(last) >= interval {
                self.connect_last_sent.insert(vc.id, now);
                self.outbox.push(
                    Destination::Unicast(vc.remote_cb),
                    &WireMessage::ChannelConnection {
                        channel: vc.id,
                        subscriber_cb: cb_addr,
                        subscriber_lp: vc.subscriber_lp,
                        publisher_lp: vc.publisher_lp,
                        class: vc.class,
                    },
                );
            }
        }

        // 3. Flush. A failed send takes the rest of this tick's datagrams
        // with it: nothing stale is left for the next tick.
        let mut start = 0;
        let sent = self.outbox.datagrams.iter().try_for_each(|&(dst, end)| {
            let payload = &self.outbox.bytes[start..end];
            start = end;
            self.transport.send(dst, payload)
        });
        self.outbox.clear();
        Ok(sent?)
    }

    fn handle_wire_message(&mut self, msg: WireMessage) {
        match msg {
            WireMessage::Subscription { subscriber_cb, subscriber_lp, class } => {
                if subscriber_cb == self.addr {
                    return;
                }
                for publisher_lp in self.publications.publishers_of(class) {
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
                let node = self.addr.node.0;
                let mut new_channels = Vec::new();
                for pending in self.pending.iter_mut() {
                    if pending.class != class {
                        continue;
                    }
                    if self.channels.has_equivalent(publisher_lp, pending.lp, class) {
                        continue;
                    }
                    let channel = ChannelId::compose(node, self.next_channel_seq);
                    self.next_channel_seq += 1;
                    pending.record_connecting(channel);
                    new_channels.push(VirtualChannel {
                        id: channel,
                        class,
                        publisher_lp,
                        subscriber_lp: pending.lp,
                        remote_cb: publisher_cb,
                        role: ChannelRole::Subscriber,
                        established: false,
                    });
                }
                for vc in new_channels {
                    self.outbox.push(
                        Destination::Unicast(publisher_cb),
                        &WireMessage::ChannelConnection {
                            channel: vc.id,
                            subscriber_cb: self.addr,
                            subscriber_lp: vc.subscriber_lp,
                            publisher_lp: vc.publisher_lp,
                            class: vc.class,
                        },
                    );
                    self.connect_last_sent.insert(vc.id, self.now);
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
                if !self.publications.publishes(publisher_lp, class) {
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
                    });
                    self.stats.channels_established += 1;
                }
                self.outbox.push(
                    Destination::Unicast(subscriber_cb),
                    &WireMessage::ChannelAck { channel },
                );
            }
            WireMessage::ChannelAck { channel } => {
                self.connect_last_sent.remove(&channel);
                if let Some(vc) = self.channels.get_mut(channel) {
                    if !vc.established {
                        vc.established = true;
                        self.stats.channels_established += 1;
                    }
                }
                let now = self.now;
                for pending in self.pending.iter_mut() {
                    if pending.channels.contains_key(&channel) {
                        if let Some(latency) = pending.record_established(channel, now) {
                            self.stats.setup_latencies.push(latency);
                        }
                    }
                }
            }
            WireMessage::UpdateAttributes { channel, object, class, timestamp, values } => {
                let subscriber = match self.channels.get(channel) {
                    Some(vc) if vc.role == ChannelRole::Subscriber => vc.subscriber_lp,
                    _ => return,
                };
                if let Some(entry) = self.lps.get_mut(&subscriber) {
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
                let subscribers = self
                    .lps
                    .values_mut()
                    .filter(|entry| entry.interaction_subscriptions.contains(&class));
                fan_out(subscribers, parameters, |entry, parameters| {
                    entry.interactions.push_back(InteractionMessage {
                        class,
                        sender: sender_lp,
                        parameters,
                        timestamp,
                    });
                    self.stats.interactions_delivered += 1;
                });
            }
            WireMessage::Withdraw { lp } => {
                // Forget the torn-down channels' setup records too, or a
                // subscription left with no channel still counts as satisfied
                // and looks for a replacement at the re-advertisement pace.
                for vc in self.channels.remove_for_lp(lp) {
                    self.connect_last_sent.remove(&vc.id);
                    for pending in self.pending.iter_mut() {
                        pending.channels.remove(&vc.id);
                    }
                }
            }
        }
    }

    fn check_lp(&self, lp: LpId) -> Result<(), CbError> {
        if self.lps.contains_key(&lp) {
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
    use cod_net::{LanConfig, NetError, NodeId, Port, SharedLan, SimLan, SimTransport};

    struct Cluster {
        lan: SharedLan,
        now: Micros,
    }

    impl Cluster {
        fn new(seed: u64) -> Cluster {
            Cluster { lan: SimLan::shared(LanConfig::fast_ethernet(seed)), now: Micros::ZERO }
        }

        fn kernel(&self, name: &str, fom: &ClassRegistry) -> CbKernel<SimTransport> {
            CbKernel::new(SimLan::attach(&self.lan, name), fom.clone())
        }

        /// Runs `steps` rounds of 10 ms, ticking every kernel each round.
        fn run(&mut self, kernels: &mut [&mut CbKernel<SimTransport>], steps: usize) {
            for _ in 0..steps {
                for k in kernels.iter_mut() {
                    k.tick(self.now).unwrap();
                }
                self.now += Micros::from_millis(10);
                SimLan::advance_to(&self.lan, self.now);
            }
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
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);

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
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);
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
                cluster.now,
            )
            .unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 5);

        let reflections = subscriber.reflections(visual);
        assert_eq!(reflections.len(), 1);
        assert_eq!(reflections[0].object, object);
        assert_eq!(reflections[0].values[&angle], Value::F64(0.7));
        assert!(reflections[0].channel.is_some());
        assert_eq!(publisher.stats().updates_sent_remote, 1);
        assert_eq!(publisher.stats().updates_routed_locally, 0);
    }

    #[test]
    fn co_resident_lps_are_routed_locally_without_network() {
        let (fom, crane, _) = crane_fom();
        let cluster = Cluster::new(3);
        let mut kernel = cluster.kernel("single-pc", &fom);
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
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut display1 = cluster.kernel("display-1", &fom);
        let dynamics = publisher.register_lp();
        let d1 = display1.register_lp();
        publisher.publish_object_class(dynamics, crane).unwrap();
        display1.subscribe_object_class(d1, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut display1], 20);
        assert_eq!(publisher.established_channel_count(), 1);

        // A new display computer joins the running system (paper §2.3).
        let mut display2 = cluster.kernel("display-2", &fom);
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
                cluster.now,
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
        let mut a = cluster.kernel("dynamics-pc", &fom);
        let mut b = cluster.kernel("audio-pc", &fom);
        let dynamics = a.register_lp();
        let local_audio = a.register_lp();
        let audio = b.register_lp();
        a.publish_object_class(dynamics, crane).unwrap();
        a.subscribe_interaction_class(local_audio, collision).unwrap();
        b.subscribe_interaction_class(audio, collision).unwrap();
        cluster.run(&mut [&mut a, &mut b], 5);

        let location = fom.parameter_id(collision, "location").unwrap();
        a.send_interaction(
            dynamics,
            collision,
            [(location, Value::Vec3([1.0, 0.0, 2.0]))].into(),
            cluster.now,
        )
        .unwrap();
        cluster.run(&mut [&mut a, &mut b], 5);

        assert_eq!(a.interactions(local_audio).len(), 1);
        let remote = b.interactions(audio);
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].sender, dynamics);
        // The sender itself does not receive its own interaction.
        assert!(a.interactions(dynamics).is_empty());
    }

    #[test]
    fn service_calls_validate_their_arguments() {
        let (fom, crane, collision) = crane_fom();
        let cluster = Cluster::new(6);
        let mut kernel = cluster.kernel("pc", &fom);
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
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);
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
    fn a_withdrawn_publisher_is_replaced_at_the_discovery_pace() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(8);
        let mut primary = cluster.kernel("dynamics-pc", &fom);
        let mut standby = cluster.kernel("standby-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);
        let dynamics = primary.register_lp();
        let visual = subscriber.register_lp();
        primary.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();
        cluster.run(&mut [&mut primary, &mut standby, &mut subscriber], 20);
        assert_eq!(subscriber.established_channel_count(), 1);

        // The publisher leaves and a standby on a third computer takes over.
        // With no channel left the subscription is unsatisfied again, so it is
        // broadcast every 50 ms, not at the 2 s re-advertisement pace.
        primary.deregister_lp(dynamics).unwrap();
        let spare = standby.register_lp();
        standby.publish_object_class(spare, crane).unwrap();
        let mut rounds = 0;
        while !subscriber.channels().iter().any(|c| c.established && c.publisher_lp == spare) {
            assert!(rounds < 20, "no channel to the standby after {rounds} rounds of 10 ms");
            cluster.run(&mut [&mut primary, &mut standby, &mut subscriber], 1);
            rounds += 1;
        }
        assert_eq!(subscriber.channels().len(), 1, "the withdrawn publisher's channel is gone");
        assert_eq!(subscriber.pending[0].channels.len(), 1, "and so is its setup record");
    }

    #[test]
    fn lossy_lan_still_converges_thanks_to_rebroadcast() {
        let (fom, crane, _) = crane_fom();
        let lan = SimLan::shared(LanConfig::fast_ethernet(11).with_loss(0.3));
        let mut cluster = Cluster { lan, now: Micros::ZERO };
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);
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

    /// A transport that records every `send` and can be told to fail one.
    #[derive(Debug, Default)]
    struct RecordingTransport {
        sent: Vec<(Destination, Vec<u8>)>,
        /// Delivered by the next `poll_into`.
        inbound: Vec<Datagram>,
        /// 1-based index of the `send` call that fails, if any.
        failing_send: Option<usize>,
        sends: usize,
    }

    const RECORDER: Addr = Addr::new(NodeId(1), Port(1));

    impl RecordingTransport {
        /// Queues `payload` as a datagram from `src` for the next `poll_into`.
        fn inject(&mut self, src: Addr, payload: Vec<u8>) {
            self.inbound.push(Datagram {
                src,
                dst: Destination::Unicast(RECORDER),
                payload: payload.into(),
                delivered_at: Micros::ZERO,
            });
        }
    }

    impl Transport for RecordingTransport {
        fn send(&mut self, dst: Destination, payload: &[u8]) -> Result<(), NetError> {
            self.sends += 1;
            if self.failing_send == Some(self.sends) {
                return Err(NetError::Disconnected);
            }
            self.sent.push((dst, payload.to_vec()));
            Ok(())
        }

        fn poll_into(&mut self, out: &mut Vec<Datagram>) -> Result<(), NetError> {
            out.append(&mut self.inbound);
            Ok(())
        }

        fn local_addr(&self) -> Addr {
            RECORDER
        }
    }

    /// A publisher of `CraneState` with one object, `local` co-resident
    /// subscribers and `remote` established outgoing channels, each to its own
    /// subscriber CB; nothing sent yet as far as the recorder shows.
    struct Publisher {
        kernel: CbKernel<RecordingTransport>,
        lp: LpId,
        class: ObjectClassId,
        collision: InteractionClassId,
        object: ObjectId,
        local: Vec<LpId>,
        channels: Vec<(ChannelId, Addr)>,
    }

    fn publisher(local: usize, remote: u16) -> Publisher {
        let (fom, class, collision) = crane_fom();
        let mut kernel = CbKernel::new(RecordingTransport::default(), fom);
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
            kernel.transport.inject(*subscriber_cb, connect.encode());
        }
        kernel.tick(Micros::ZERO).unwrap();
        assert_eq!(kernel.established_channel_count(), usize::from(remote));
        kernel.transport.sent.clear();
        kernel.transport.sends = 0;
        Publisher { kernel, lp, class, collision, object, local, channels }
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
            let Publisher { mut kernel, lp, class, collision, object, channels, .. } =
                publisher(0, remote);
            let bystander = kernel.register_lp();
            let (values, at) = (full_update(), Micros(40_000));
            let parameters: AttributeValues = [(AttributeId(0), Value::Bool(true))].into();

            kernel.update_attribute_values(lp, object, values.clone(), at).unwrap();
            kernel.send_interaction(lp, collision, parameters.clone(), at).unwrap();
            kernel.deregister_lp(bystander).unwrap();
            kernel.tick(at).unwrap();

            let to_all = Destination::Broadcast(RECORDER.port);
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
            expected.push((to_all, interaction.encode()));
            expected.push((to_all, WireMessage::Withdraw { lp: bystander }.encode()));
            assert_eq!(kernel.transport.sent, expected, "{remote} channels");
            assert_eq!(kernel.stats().updates_sent_remote, u64::from(remote));
        }
    }

    #[test]
    fn a_failed_send_discards_the_rest_of_the_ticks_outbox() {
        let Publisher { mut kernel, lp, object, .. } = publisher(0, 2);
        kernel.update_attribute_values(lp, object, full_update(), Micros(1)).unwrap();
        kernel.update_attribute_values(lp, object, full_update(), Micros(2)).unwrap();
        kernel.deregister_lp(lp).unwrap();
        kernel.transport.failing_send = Some(3);
        assert!(matches!(kernel.tick(Micros(1)), Err(CbError::Net(NetError::Disconnected))));
        assert_eq!(kernel.transport.sent.len(), 2, "the two sends before the failure went out");

        // Datagrams four and five died with the third: nothing stale follows.
        kernel.tick(Micros(2)).unwrap();
        assert_eq!((kernel.transport.sends, kernel.transport.sent.len()), (3, 2));
        let late = kernel.register_lp();
        kernel.deregister_lp(late).unwrap();
        kernel.tick(Micros(3)).unwrap();
        assert_eq!(kernel.transport.sent.len(), 3);
        assert_eq!(kernel.transport.sent[2].1, WireMessage::Withdraw { lp: late }.encode());
    }

    #[test]
    fn malformed_datagrams_are_counted_and_the_tick_carries_on() {
        // A display LP beside the publisher, fed over an established
        // subscriber-side channel from a publisher on another computer.
        let Publisher { mut kernel, lp, class, object, local, .. } = publisher(1, 0);
        let (far_cb, far_lp) = (Addr::new(NodeId(20), Port(1)), LpId::compose(20, 0));
        let channel = ChannelId::compose(RECORDER.node.0, 0);
        let ack = WireMessage::Acknowledge { publisher_cb: far_cb, publisher_lp: far_lp, class };
        kernel.transport.inject(far_cb, ack.encode());
        kernel.transport.inject(far_cb, WireMessage::ChannelAck { channel }.encode());
        kernel.tick(Micros::ZERO).unwrap();
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
            kernel.transport.inject(newcomer, payload);
        }
        kernel.transport.sent.clear();
        kernel.tick(Micros(10)).unwrap();

        assert_eq!(kernel.stats().decode_errors, 4);
        assert_eq!(kernel.stats().wire_messages_received, received + 1);
        assert_eq!(kernel.established_channel_count(), 2, "the valid datagram got through");
        let confirm = WireMessage::ChannelAck { channel: ChannelId::compose(21, 0) }.encode();
        assert_eq!(kernel.transport.sent, [(Destination::Unicast(newcomer), confirm)]);
        assert!(kernel.reflections(local[0]).is_empty());
        assert_eq!(kernel.stats().reflections_delivered, 0);
    }

    #[test]
    fn deregister_forgets_the_retry_timers_of_half_open_channels() {
        // A display LP subscribes; a publisher elsewhere acknowledges, so the
        // CB opens a subscriber-side channel and starts its retry timer, but
        // the confirming CHANNEL ACK never arrives.
        let (fom, class, _) = crane_fom();
        let mut kernel = CbKernel::new(RecordingTransport::default(), fom);
        let display = kernel.register_lp();
        kernel.subscribe_object_class(display, class).unwrap();
        let (far_cb, far_lp) = (Addr::new(NodeId(20), Port(1)), LpId::compose(20, 0));
        let ack = WireMessage::Acknowledge { publisher_cb: far_cb, publisher_lp: far_lp, class };
        kernel.transport.inject(far_cb, ack.encode());
        kernel.tick(Micros::ZERO).unwrap();
        let channel = ChannelId::compose(RECORDER.node.0, 0);
        assert!(kernel.channels().get(channel).is_some_and(|vc| !vc.established));
        assert!(kernel.connect_last_sent.contains_key(&channel));

        kernel.deregister_lp(display).unwrap();
        assert!(kernel.channels().get(channel).is_none());
        assert!(!kernel.connect_last_sent.contains_key(&channel), "the timer left with it");
    }

    #[test]
    fn begin_session_empties_the_outbox() {
        let Publisher { mut kernel, lp, object, .. } = publisher(0, 2);
        kernel.update_attribute_values(lp, object, full_update(), Micros(1)).unwrap();
        assert_eq!(kernel.outbox.datagrams.len(), 2);
        kernel.begin_session(Micros(5));
        assert!(kernel.outbox.bytes.is_empty() && kernel.outbox.datagrams.is_empty());
        kernel.tick(Micros(5)).unwrap();
        assert!(kernel.transport.sent.is_empty());
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
                assert_eq!(kernel.reflections(sub), [expected.clone()], "{remote} channels");
            }
            assert_eq!(kernel.stats().updates_routed_locally, 2);
            assert!(kernel.reflections(lp).is_empty(), "the publisher hears nothing back");
        }
    }
}
