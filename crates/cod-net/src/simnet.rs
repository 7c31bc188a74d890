//! Deterministic discrete-event simulation of the cluster LAN.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use sim_math::SplitMix64;

use crate::addr::{Addr, NodeId, Port};
use crate::datagram::{Datagram, Destination};
use crate::error::NetError;
use crate::fault::FaultPlan;
use crate::link::LanConfig;
use crate::stats::LanStats;
use crate::time::{Micros, SimClock};
use crate::transport::Transport;

/// Default service port assigned to endpoints created with [`SimLan::attach`].
pub const DEFAULT_PORT: Port = Port(1);

/// One sent payload, copied in once and read by every delivery scheduled from
/// it; its slot is reused once the last of them has been received.
#[derive(Debug)]
struct Payload {
    src: Addr,
    dst: Destination,
    bytes: Vec<u8>,
    /// Deliveries of this payload still in flight or waiting in an inbox.
    readers: u32,
}

/// A delivery in flight, ordered by due time, then by the order it was
/// scheduled in (`seq` is unique, so the last two fields never decide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    at: Micros,
    seq: u64,
    to: NodeId,
    slot: u32,
}

/// A deterministic discrete-event model of the cluster's local area network.
///
/// One owner (the cluster executive) holds the LAN and lends it, as a
/// [`Transport`], to each attached computer's CB for that CB's tick.
/// Datagrams sent through it are scheduled for delivery according to the
/// configured [`LanConfig`] (latency, jitter, serialization delay, loss) and
/// appear in receiver inboxes once the LAN clock is advanced past their
/// delivery time.
///
/// Nodes are numbered densely by [`SimLan::attach`], and every table is a
/// vector indexed by node. A send copies its payload once into a slot of a
/// slab the LAN keeps; every delivery of it — one per receiver of a broadcast
/// or multicast, plus any injected duplicate — refers to that slot, so a
/// steady stream of traffic allocates nothing.
#[derive(Debug)]
pub struct SimLan {
    config: LanConfig,
    clock: SimClock,
    rng: SplitMix64,
    faults: FaultPlan,
    fault_rng: SplitMix64,
    next_seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Per node, in delivery order: when each datagram arrived and its slot.
    inboxes: Vec<VecDeque<(Micros, u32)>>,
    /// The multicast groups' members, as (group, node).
    members: BTreeSet<(u16, NodeId)>,
    payloads: Vec<Payload>,
    free_slots: Vec<u32>,
    stats: LanStats,
}

impl SimLan {
    /// Creates a LAN with the given configuration.
    pub fn new(config: LanConfig) -> SimLan {
        SimLan {
            config,
            clock: SimClock::new(),
            rng: SplitMix64::new(config.seed),
            faults: FaultPlan::none(),
            fault_rng: SplitMix64::new(0),
            next_seq: 0,
            queue: BinaryHeap::new(),
            inboxes: Vec::new(),
            members: BTreeSet::new(),
            payloads: Vec::new(),
            free_slots: Vec::new(),
            stats: LanStats::default(),
        }
    }

    /// Attaches a new computer (node) to the LAN and returns the address of
    /// its endpoint on the default CB port.
    pub fn attach(&mut self) -> Addr {
        let node = u16::try_from(self.inboxes.len()).expect("at most 65 536 nodes");
        self.inboxes.push(VecDeque::new());
        Addr::new(NodeId(node), DEFAULT_PORT)
    }

    /// The LAN clock.
    pub fn now(&self) -> Micros {
        self.clock.now()
    }

    /// Traffic counters.
    pub fn stats(&self) -> &LanStats {
        &self.stats
    }

    /// Rewinds the LAN to a canonical session start: the clock is reset to
    /// `epoch`, in-flight and undelivered datagrams are discarded, the jitter
    /// RNG is reseeded from `seed`, any fault plan is removed and the traffic
    /// counters are zeroed. The attached endpoints and group members are kept.
    ///
    /// Called once at the end of cluster initialization *and* on every session
    /// reset, so a recycled cluster and a freshly built one start each session
    /// from bit-identical LAN state.
    pub fn begin_session(&mut self, epoch: Micros, seed: u64) {
        self.clock.reset_to(epoch);
        self.rng = SplitMix64::new(seed);
        self.faults = FaultPlan::none();
        self.fault_rng = SplitMix64::new(0);
        self.next_seq = 0;
        self.queue.clear();
        for inbox in self.inboxes.iter_mut() {
            inbox.clear();
        }
        self.free_slots.clear();
        for (slot, payload) in self.payloads.iter_mut().enumerate() {
            payload.readers = 0;
            self.free_slots.push(slot as u32);
        }
        self.stats = LanStats::default();
    }

    /// Installs a fault-injection plan; faults are drawn from a dedicated RNG
    /// stream seeded from [`FaultPlan::seed`], so the same plan and seed
    /// reproduce the same fault schedule bit for bit.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_rng = SplitMix64::new(plan.seed);
        self.faults = plan;
    }

    /// Advances the LAN clock to the absolute time `t`, performing any
    /// deliveries that fall due.
    pub fn advance_to(&mut self, t: Micros) {
        while let Some(&Reverse(next)) = self.queue.peek() {
            if next.at > t {
                break;
            }
            self.queue.pop();
            self.inboxes[usize::from(next.to.0)].push_back((next.at, next.slot));
            self.stats.record_delivery();
        }
        self.clock.advance_to(t);
    }

    /// The inbox index of `addr`, if it is an attached endpoint.
    fn node_of(&self, addr: Addr) -> Option<usize> {
        let node = usize::from(addr.node.0);
        (addr.port == DEFAULT_PORT && node < self.inboxes.len()).then_some(node)
    }

    /// Copies `dgram`'s payload into a free slot (or a new one) and returns it.
    fn store(&mut self, dgram: &Datagram<'_>) -> u32 {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            let src = dgram.src;
            self.payloads.push(Payload { src, dst: dgram.dst, bytes: Vec::new(), readers: 0 });
            (self.payloads.len() - 1) as u32
        });
        let payload = &mut self.payloads[slot as usize];
        payload.src = dgram.src;
        payload.dst = dgram.dst;
        payload.bytes.clear();
        payload.bytes.extend_from_slice(dgram.payload);
        slot
    }

    /// Draws the fate of `dgram` on its way to node `to` — partition, fault
    /// and link loss, delay, injected reordering and duplication — and
    /// schedules what survives as readers of `slot`.
    fn schedule(&mut self, dgram: &Datagram<'_>, to: NodeId, slot: u32) {
        let now = self.clock.now();
        let inject = !self.faults.is_none();
        if inject && self.faults.partitioned(now, dgram.src.node, to) {
            self.stats.record_partition_drop();
            return;
        }
        // Fault decisions are drawn *before* the link-loss draw so the
        // fault stream consumes its RNG identically whether or not the
        // link model itself is lossy.
        let (fault_dropped, reordered, duplicated) = if inject {
            let rule = self.faults.default_rule;
            let dropped = rule.drop_probability > 0.0
                && self.fault_rng.chance(rule.drop_probability.clamp(0.0, 1.0));
            let reordered = rule.reorder_probability > 0.0
                && self.fault_rng.chance(rule.reorder_probability.clamp(0.0, 1.0));
            let duplicated = rule.duplicate_probability > 0.0
                && self.fault_rng.chance(rule.duplicate_probability.clamp(0.0, 1.0));
            (dropped, reordered, duplicated)
        } else {
            (false, false, false)
        };
        if fault_dropped {
            self.stats.record_fault_drop();
            return;
        }
        if self.config.link.sample_loss(&mut self.rng) {
            self.stats.record_drop();
            return;
        }
        let mut delay = self.config.link.sample_delay(dgram, &mut self.rng);
        if inject {
            delay += Micros(self.faults.spike_extra_us(now));
            if reordered {
                // Hold the datagram back so later traffic overtakes it.
                delay += Micros(self.faults.default_rule.reorder_delay_us);
                self.stats.record_fault_reorder();
            }
            if duplicated {
                let extra = self.config.link.sample_delay(dgram, &mut self.fault_rng)
                    + Micros(self.faults.spike_extra_us(now));
                self.stats.record_fault_duplicate();
                self.enqueue(now + extra, to, slot);
            }
        }
        self.enqueue(now + delay, to, slot);
    }

    fn enqueue(&mut self, at: Micros, to: NodeId, slot: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.payloads[slot as usize].readers += 1;
        self.queue.push(Reverse(Scheduled { at, seq, to, slot }));
    }
}

impl Transport for SimLan {
    fn send(&mut self, src: Addr, dst: Destination, payload: &[u8]) -> Result<(), NetError> {
        if payload.len() > self.config.mtu {
            return Err(NetError::PayloadTooLarge { size: payload.len(), max: self.config.mtu });
        }
        // Receivers in node order, which fixes the order of the RNG draws; a
        // broadcast or multicast skips its sender.
        let (receivers, sender) = match dst {
            Destination::Unicast(addr) => {
                let node = self.node_of(addr).ok_or(NetError::UnknownEndpoint(addr))?;
                (node..node + 1, None)
            }
            Destination::Broadcast(port) if port != DEFAULT_PORT => (0..0, None),
            _ => (0..self.inboxes.len(), self.node_of(src)),
        };
        self.stats.record_send(payload.len());
        let dgram = Datagram { src, dst, payload, delivered_at: Micros::ZERO };
        let slot = self.store(&dgram);
        for node in receivers.filter(|node| Some(*node) != sender) {
            let to = NodeId(node as u16);
            match dst {
                Destination::Multicast(group) if !self.members.contains(&(group, to)) => {}
                _ => self.schedule(&dgram, to, slot),
            }
        }
        if self.payloads[slot as usize].readers == 0 {
            self.free_slots.push(slot);
        }
        Ok(())
    }

    fn receive(
        &mut self,
        addr: Addr,
        deliver: &mut dyn FnMut(Datagram<'_>),
    ) -> Result<(), NetError> {
        let node = self.node_of(addr).ok_or(NetError::UnknownEndpoint(addr))?;
        for (delivered_at, slot) in self.inboxes[node].drain(..) {
            let payload = &mut self.payloads[slot as usize];
            deliver(Datagram {
                src: payload.src,
                dst: payload.dst,
                payload: &payload.bytes,
                delivered_at,
            });
            payload.readers -= 1;
            if payload.readers == 0 {
                self.free_slots.push(slot);
            }
        }
        Ok(())
    }

    fn join(&mut self, addr: Addr, group: u16) -> Result<(), NetError> {
        self.node_of(addr).ok_or(NetError::UnknownEndpoint(addr))?;
        self.members.insert((group, addr.node));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimLan {
        /// Runs the LAN until no scheduled deliveries remain.
        fn run_until_idle(&mut self) {
            while let Some(at) = self.queue.peek().map(|Reverse(next)| next.at) {
                self.advance_to(at);
            }
        }

        /// Drains `addr`'s inbox, appending a copy of each datagram to `out`.
        fn poll_into(&mut self, addr: Addr, out: &mut Vec<Received>) -> Result<(), NetError> {
            self.receive(addr, &mut |d| {
                out.push(Received {
                    src: d.src,
                    payload: d.payload.to_vec(),
                    delivered_at: d.delivered_at,
                })
            })
        }

        /// Drains `addr`'s inbox into a fresh vector.
        fn poll(&mut self, addr: Addr) -> Vec<Received> {
            let mut out = Vec::new();
            self.poll_into(addr, &mut out).unwrap();
            out
        }

        /// Payload slots that some delivery still reads.
        fn slots_in_use(&self) -> usize {
            self.payloads.len() - self.free_slots.len()
        }

        /// Sends `payload` from `src` to the unicast address `dst`.
        fn unicast(&mut self, src: Addr, dst: Addr, payload: &[u8]) -> Result<(), NetError> {
            self.send(src, Destination::Unicast(dst), payload)
        }
    }

    /// A received datagram, copied out of the LAN.
    #[derive(Debug, Clone, PartialEq)]
    struct Received {
        src: Addr,
        payload: Vec<u8>,
        delivered_at: Micros,
    }

    fn lan_pair(config: LanConfig) -> (SimLan, Addr, Addr) {
        let mut lan = SimLan::new(config);
        let a = lan.attach();
        let b = lan.attach();
        (lan, a, b)
    }

    #[test]
    fn unicast_delivery_after_advance() {
        let (mut lan, a, b) = lan_pair(LanConfig::fast_ethernet(1));
        lan.unicast(a, b, b"ping").unwrap();
        assert!(lan.poll(b).is_empty(), "nothing delivered before time advances");
        lan.advance_to(Micros::from_millis(5));
        let got = lan.poll(b);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].payload[..], b"ping");
        assert_eq!(got[0].src, a);
    }

    #[test]
    fn poll_into_appends_in_delivery_order_what_poll_returns() {
        // Two LANs of one seed carry the same traffic: one receiver is drained
        // into a fresh vector, the other into a buffer that already holds one.
        let receiver = || {
            let (mut lan, a, b) = lan_pair(LanConfig::fast_ethernet(9));
            for i in 0u8..6 {
                lan.unicast(a, b, &[i]).unwrap();
                lan.send(a, Destination::Broadcast(DEFAULT_PORT), &[i, i]).unwrap();
            }
            lan.run_until_idle();
            (lan, b)
        };
        let (mut lan, b) = receiver();
        let polled = lan.poll(b);
        assert_eq!(polled.len(), 12);
        assert!(polled.windows(2).all(|w| w[0].delivered_at <= w[1].delivered_at));

        let (mut lan, b) = receiver();
        let mut kept = vec![polled[11].clone()];
        lan.poll_into(b, &mut kept).unwrap();
        assert_eq!(kept[0], polled[11], "what the buffer held stays in front");
        assert_eq!(kept[1..], polled[..]);
        lan.poll_into(b, &mut kept).unwrap();
        assert_eq!(kept.len(), 13, "nothing new was delivered");
    }

    #[test]
    fn broadcast_excludes_sender() {
        let mut lan = SimLan::new(LanConfig::fast_ethernet(3));
        let (a, b, c) = (lan.attach(), lan.attach(), lan.attach());
        lan.send(a, Destination::Broadcast(DEFAULT_PORT), b"hello").unwrap();
        lan.run_until_idle();
        assert_eq!(lan.poll(a).len(), 0);
        assert_eq!(lan.poll(b).len(), 1);
        assert_eq!(lan.poll(c).len(), 1);
    }

    #[test]
    fn a_multicast_reaches_its_members_in_node_order_and_skips_its_sender() {
        let mut lan = SimLan::new(LanConfig::fast_ethernet(3));
        let nodes: [Addr; 5] = std::array::from_fn(|_| lan.attach());
        for node in [3, 1, 0, 3] {
            lan.join(nodes[node], 7).unwrap();
        }
        let bogus = Addr::new(NodeId(77), DEFAULT_PORT);
        assert!(matches!(lan.join(bogus, 7), Err(NetError::UnknownEndpoint(_))));
        // Scheduled, so drawn, in node order: node 3 joined first, and twice.
        lan.send(nodes[0], Destination::Multicast(7), b"to 7").unwrap();
        let mut scheduled: Vec<_> = lan.queue.iter().map(|Reverse(s)| (s.seq, s.to.0)).collect();
        scheduled.sort();
        assert_eq!(scheduled, [(0, 1), (1, 3)]);
        // Members are topology: a new session keeps them.
        lan.begin_session(Micros::ZERO, 4);
        lan.send(nodes[2], Destination::Multicast(7), b"again").unwrap();
        lan.send(nodes[2], Destination::Multicast(9), b"nobody").unwrap();
        lan.run_until_idle();
        assert_eq!(nodes.map(|addr| lan.poll(addr).len()), [1, 1, 0, 1, 0]);
    }

    #[test]
    fn unknown_unicast_destination_is_an_error() {
        let (mut lan, a, _b) = lan_pair(LanConfig::fast_ethernet(1));
        let bogus = Addr::new(NodeId(77), Port(9));
        let err = lan.unicast(a, bogus, b"x").unwrap_err();
        assert!(matches!(err, NetError::UnknownEndpoint(_)));
        let err = lan.receive(bogus, &mut |_| {}).unwrap_err();
        assert!(matches!(err, NetError::UnknownEndpoint(_)));
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut lan, a, b) = lan_pair(LanConfig::fast_ethernet(1));
        let big = vec![0u8; 70_000];
        let err = lan.unicast(a, b, &big).unwrap_err();
        assert!(matches!(err, NetError::PayloadTooLarge { .. }));
    }

    #[test]
    fn delivery_order_preserved_for_same_path() {
        // With zero jitter the FIFO order of equal-size datagrams must hold.
        let config = LanConfig {
            link: crate::link::LinkModel {
                jitter_us: 0,
                ..crate::link::LinkModel::fast_ethernet()
            },
            seed: 5,
            mtu: 65_507,
        };
        let (mut lan, a, b) = lan_pair(config);
        for i in 0u8..10 {
            lan.unicast(a, b, &[i]).unwrap();
        }
        lan.run_until_idle();
        let order: Vec<u8> = lan.poll(b).iter().map(|d| d.payload[0]).collect();
        assert_eq!(order, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed| {
            let (mut lan, a, b) = lan_pair(LanConfig::fast_ethernet(seed));
            for i in 0u8..50 {
                lan.unicast(a, b, &[i]).unwrap();
            }
            lan.run_until_idle();
            lan.poll(b).iter().map(|d| (d.delivered_at, d.payload[0])).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn lossy_lan_drops_some_datagrams() {
        let config = LanConfig::fast_ethernet(11).with_loss(0.5);
        let (mut lan, a, b) = lan_pair(config);
        for _ in 0..200 {
            lan.unicast(a, b, b"d").unwrap();
        }
        lan.run_until_idle();
        let delivered = lan.poll(b).len();
        assert!(delivered < 160 && delivered > 40, "delivered = {delivered}");
        assert_eq!(lan.stats().datagrams_dropped + delivered as u64, 200);
    }

    #[test]
    fn stats_track_bytes() {
        let (mut lan, a, b) = lan_pair(LanConfig::fast_ethernet(1));
        lan.unicast(a, b, &[0u8; 128]).unwrap();
        lan.run_until_idle();
        assert_eq!(lan.poll(b)[0].payload.len(), 128);
        assert_eq!(lan.stats().bytes_sent, 128);
        assert_eq!(lan.stats().deliveries, 1);
    }

    #[test]
    fn a_payload_is_stored_once_and_its_slot_freed_by_its_last_reader() {
        let mut lan = SimLan::new(LanConfig::fast_ethernet(3));
        let (a, b, c) = (lan.attach(), lan.attach(), lan.attach());
        lan.send(a, Destination::Broadcast(DEFAULT_PORT), b"to all").unwrap();
        lan.run_until_idle();
        assert_eq!((lan.payloads.len(), lan.slots_in_use()), (1, 1), "one copy, two readers");
        assert_eq!(lan.poll(b)[0].payload, b"to all");
        assert_eq!(lan.slots_in_use(), 1, "c has not read it yet");
        lan.receive(c, &mut |_| {}).unwrap();
        assert_eq!(lan.slots_in_use(), 0, "a receiver that ignores it still releases it");

        // The freed slot carries the next payload; one that every receiver
        // loses holds none.
        lan.unicast(a, b, b"next").unwrap();
        assert_eq!((lan.payloads.len(), lan.slots_in_use()), (1, 1));
        lan.set_fault_plan(FaultPlan::seeded(2).with_drop_probability(1.0));
        lan.send(a, Destination::Broadcast(DEFAULT_PORT), b"lost").unwrap();
        assert_eq!((lan.payloads.len(), lan.slots_in_use()), (2, 1));
        lan.run_until_idle();
        assert_eq!(lan.poll(b)[0].payload, b"next");
        assert_eq!(lan.slots_in_use(), 0);

        // A session start drops what waits in an inbox or is still in flight
        // and frees every slot.
        lan.set_fault_plan(FaultPlan::none());
        lan.send(a, Destination::Broadcast(DEFAULT_PORT), b"waiting").unwrap();
        lan.run_until_idle();
        lan.unicast(a, c, b"in flight").unwrap();
        assert_eq!(lan.slots_in_use(), 2);
        lan.begin_session(Micros::ZERO, 1);
        lan.run_until_idle();
        assert!(lan.poll(b).is_empty() && lan.poll(c).is_empty());
        assert_eq!((lan.payloads.len(), lan.slots_in_use()), (2, 0));
    }

    #[test]
    fn fault_plan_drops_are_counted_separately_from_link_loss() {
        let (mut lan, a, b) = lan_pair(LanConfig::fast_ethernet(1));
        lan.set_fault_plan(FaultPlan::seeded(3).with_drop_probability(0.5));
        for _ in 0..200 {
            lan.unicast(a, b, b"d").unwrap();
        }
        lan.run_until_idle();
        let delivered = lan.poll(b).len();
        let stats = lan.stats();
        assert!(stats.fault_drops > 40 && stats.fault_drops < 160, "{}", stats.fault_drops);
        assert_eq!(stats.fault_drops, stats.datagrams_dropped, "link itself is lossless");
        assert_eq!(delivered as u64 + stats.fault_drops, 200);
    }

    #[test]
    fn fault_duplicates_deliver_extra_copies() {
        let (mut lan, a, b) = lan_pair(LanConfig::fast_ethernet(1));
        lan.set_fault_plan(FaultPlan::seeded(4).with_duplicate_probability(1.0));
        for _ in 0..10 {
            lan.unicast(a, b, b"d").unwrap();
        }
        lan.run_until_idle();
        assert_eq!(lan.poll(b).len(), 20);
        assert_eq!(lan.stats().fault_duplicates, 10);
    }

    #[test]
    fn reordering_lets_later_traffic_overtake() {
        let config = LanConfig {
            link: crate::link::LinkModel {
                jitter_us: 0,
                ..crate::link::LinkModel::fast_ethernet()
            },
            seed: 5,
            mtu: 65_507,
        };
        let (mut lan, a, b) = lan_pair(config);
        // Only the first datagram is reordered (held back 50 ms).
        lan.set_fault_plan(FaultPlan::seeded(6).with_reordering(1.0, 50_000));
        lan.unicast(a, b, &[0u8]).unwrap();
        lan.set_fault_plan(FaultPlan::none());
        lan.unicast(a, b, &[1u8]).unwrap();
        lan.run_until_idle();
        let order: Vec<u8> = lan.poll(b).iter().map(|d| d.payload[0]).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn partition_window_severs_and_heals() {
        let (mut lan, a, b) = lan_pair(LanConfig::fast_ethernet(1));
        lan.set_fault_plan(FaultPlan::seeded(7).with_partition(
            Micros::ZERO,
            Micros::from_millis(100),
            vec![b.node],
        ));
        lan.unicast(a, b, b"lost").unwrap();
        lan.advance_to(Micros::from_millis(200));
        assert!(lan.poll(b).is_empty());
        assert_eq!(lan.stats().partition_drops, 1);
        // After the window closes traffic flows again.
        lan.unicast(a, b, b"heals").unwrap();
        lan.run_until_idle();
        assert_eq!(lan.poll(b).len(), 1);
    }

    #[test]
    fn latency_spike_delays_traffic_inside_the_window() {
        let config = LanConfig::ideal(1);
        let (mut lan, a, b) = lan_pair(config);
        lan.set_fault_plan(FaultPlan::seeded(8).with_spike(
            Micros::ZERO,
            Micros::from_millis(10),
            5_000,
        ));
        lan.unicast(a, b, b"slow").unwrap();
        lan.advance_to(Micros::from_millis(4));
        assert!(lan.poll(b).is_empty(), "spike must delay the ideal-link datagram");
        lan.advance_to(Micros::from_millis(6));
        assert_eq!(lan.poll(b).len(), 1);
    }

    #[test]
    fn fault_stream_is_deterministic_and_independent_of_link_jitter() {
        let run = |lan_seed| {
            let (mut lan, a, b) = lan_pair(LanConfig::fast_ethernet(lan_seed));
            lan.set_fault_plan(FaultPlan::seeded(99).with_drop_probability(0.3));
            for _ in 0..100 {
                lan.unicast(a, b, b"x").unwrap();
            }
            lan.run_until_idle();
            lan.poll(b).len()
        };
        // Same fault seed, different jitter seed: identical drop pattern (the
        // fault RNG never interleaves with the link RNG).
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn fault_stream_is_independent_of_a_lossy_link_model() {
        // Fault decisions are drawn before the link's own loss draw, so even
        // on a lossy link model the fault schedule depends only on the fault
        // seed and the traffic sequence, not on the LAN seed.
        let run = |lan_seed| {
            let (mut lan, a, b) = lan_pair(LanConfig::legacy_ethernet(lan_seed).with_loss(0.2));
            lan.set_fault_plan(FaultPlan::seeded(99).with_drop_probability(0.3));
            for _ in 0..300 {
                lan.unicast(a, b, b"x").unwrap();
            }
            lan.run_until_idle();
            *lan.stats()
        };
        let first = run(1);
        let second = run(2);
        assert_eq!(first.fault_drops, second.fault_drops);
        // The link's own losses do differ between the two seeds.
        assert_ne!(
            first.datagrams_dropped - first.fault_drops,
            second.datagrams_dropped - second.fault_drops
        );
    }
}
