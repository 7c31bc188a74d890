//! Deterministic discrete-event simulation of the cluster LAN.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// A LAN shared between transports; clone the `Arc` freely.
pub type SharedLan = Arc<Mutex<SimLan>>;

/// Locks the LAN. A panic while it is held fails the whole tick, so no caller
/// ever sees a poisoned LAN.
fn lock(lan: &SharedLan) -> MutexGuard<'_, SimLan> {
    lan.lock().expect("simulated LAN poisoned")
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ScheduledDelivery {
    at: Micros,
    seq: u64,
    to: Addr,
    dgram: Datagram,
}

impl Ord for ScheduledDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for ScheduledDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event model of the cluster's local area network.
///
/// Datagrams sent through attached [`SimTransport`]s are scheduled for delivery
/// according to the configured [`LanConfig`] (latency, jitter, serialization
/// delay, loss) and appear in receiver inboxes once the LAN clock is advanced
/// past their delivery time.
#[derive(Debug)]
pub struct SimLan {
    config: LanConfig,
    clock: SimClock,
    rng: SplitMix64,
    faults: FaultPlan,
    fault_rng: SplitMix64,
    next_seq: u64,
    next_node: u16,
    queue: BinaryHeap<Reverse<ScheduledDelivery>>,
    inboxes: BTreeMap<Addr, VecDeque<Datagram>>,
    node_names: BTreeMap<NodeId, String>,
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
            next_node: 0,
            queue: BinaryHeap::new(),
            inboxes: BTreeMap::new(),
            node_names: BTreeMap::new(),
            stats: LanStats::default(),
        }
    }

    /// Creates a LAN wrapped for sharing between transports.
    pub fn shared(config: LanConfig) -> SharedLan {
        Arc::new(Mutex::new(SimLan::new(config)))
    }

    /// Attaches a new computer (node) to the LAN and returns a transport bound
    /// to its default CB port.
    pub fn attach(lan: &SharedLan, name: &str) -> SimTransport {
        let addr = {
            let mut l = lock(lan);
            let node = NodeId(l.next_node);
            l.next_node += 1;
            l.node_names.insert(node, name.to_owned());
            let addr = Addr::new(node, DEFAULT_PORT);
            l.inboxes.insert(addr, VecDeque::new());
            addr
        };
        SimTransport { lan: Arc::clone(lan), addr }
    }

    /// Advances the LAN clock by `dt`, performing any deliveries that fall due.
    pub fn advance(lan: &SharedLan, dt: Micros) {
        let mut l = lock(lan);
        let target = l.clock.now() + dt;
        l.advance_to_inner(target);
    }

    /// Advances the LAN clock to the absolute time `t`.
    pub fn advance_to(lan: &SharedLan, t: Micros) {
        lock(lan).advance_to_inner(t);
    }

    /// Runs the LAN until no scheduled deliveries remain, returning the final time.
    pub fn run_until_idle(lan: &SharedLan) -> Micros {
        let mut l = lock(lan);
        while let Some(at) = l.queue.peek().map(|Reverse(next)| next.at) {
            l.advance_to_inner(at);
        }
        l.clock.now()
    }

    /// Snapshot of the traffic counters.
    pub fn stats(lan: &SharedLan) -> LanStats {
        lock(lan).stats.clone()
    }

    /// Rewinds the LAN to a canonical session start: the clock is reset to
    /// `epoch`, in-flight and undelivered datagrams are discarded, the jitter
    /// RNG is reseeded from `seed`, any fault plan is removed and the traffic
    /// counters are zeroed. The attached endpoints (nodes, ports, names) are
    /// kept.
    ///
    /// Called once at the end of cluster initialization *and* on every session
    /// reset, so a recycled cluster and a freshly built one start each session
    /// from bit-identical LAN state.
    pub fn begin_session(lan: &SharedLan, epoch: Micros, seed: u64) {
        let mut l = lock(lan);
        l.clock.reset_to(epoch);
        l.rng = SplitMix64::new(seed);
        l.faults = FaultPlan::none();
        l.fault_rng = SplitMix64::new(0);
        l.next_seq = 0;
        l.queue.clear();
        for inbox in l.inboxes.values_mut() {
            inbox.clear();
        }
        l.stats = LanStats::default();
    }

    /// Installs a fault-injection plan; faults are drawn from a dedicated RNG
    /// stream seeded from [`FaultPlan::seed`], so the same plan and seed
    /// reproduce the same fault schedule bit for bit.
    pub fn set_fault_plan(lan: &SharedLan, plan: FaultPlan) {
        let mut l = lock(lan);
        l.fault_rng = SplitMix64::new(plan.seed);
        l.faults = plan;
    }

    /// The currently installed fault plan.
    pub fn fault_plan(lan: &SharedLan) -> FaultPlan {
        lock(lan).faults.clone()
    }

    fn advance_to_inner(&mut self, t: Micros) {
        while let Some(Reverse(next)) = self.queue.peek() {
            if next.at > t {
                break;
            }
            let Reverse(delivery) = self.queue.pop().expect("peeked entry present");
            let mut dgram = delivery.dgram;
            dgram.delivered_at = delivery.at;
            let bytes = dgram.payload.len();
            if let Some(inbox) = self.inboxes.get_mut(&delivery.to) {
                inbox.push_back(dgram);
                self.stats.record_delivery(delivery.to.node, bytes);
            }
        }
        self.clock.advance_to(t);
    }

    fn send_from(&mut self, src: Addr, dst: Destination, payload: &[u8]) -> Result<(), NetError> {
        if payload.len() > self.config.mtu {
            return Err(NetError::PayloadTooLarge { size: payload.len(), max: self.config.mtu });
        }
        if let Destination::Unicast(addr) = dst {
            if !self.inboxes.contains_key(&addr) {
                return Err(NetError::UnknownEndpoint(addr));
            }
        }
        let payload: Arc<[u8]> = Arc::from(payload);
        self.stats.record_send(src.node, payload.len());
        let now = self.clock.now();
        let inject = !self.faults.is_none();
        // Borrows every field but `inboxes`, which the broadcast arm walks
        // while scheduling.
        let mut schedule = |to: Addr| {
            let dgram = Datagram { src, dst, payload: payload.clone(), delivered_at: Micros::ZERO };
            if inject && self.faults.partitioned(now, src.node, to.node) {
                self.stats.record_partition_drop();
                return;
            }
            // Fault decisions are drawn *before* the link-loss draw so the
            // fault stream consumes its RNG identically whether or not the
            // link model itself is lossy.
            let (fault_dropped, reordered, duplicated) = if inject {
                let rule = self.faults.rule_for(src.node, to.node);
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
            let mut delay = self.config.link.sample_delay(&dgram, &mut self.rng);
            if inject {
                delay += Micros(self.faults.spike_extra_us(now));
                if reordered {
                    // Hold the datagram back so later traffic overtakes it.
                    delay += Micros(self.faults.rule_for(src.node, to.node).reorder_delay_us);
                    self.stats.record_fault_reorder();
                }
                if duplicated {
                    let extra = self.config.link.sample_delay(&dgram, &mut self.fault_rng)
                        + Micros(self.faults.spike_extra_us(now));
                    self.stats.record_fault_duplicate();
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.queue.push(Reverse(ScheduledDelivery {
                        at: now + extra,
                        seq,
                        to,
                        dgram: dgram.clone(),
                    }));
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue.push(Reverse(ScheduledDelivery { at: now + delay, seq, to, dgram }));
        };
        match dst {
            Destination::Unicast(addr) => schedule(addr),
            Destination::Broadcast(port) => self
                .inboxes
                .keys()
                .copied()
                .filter(|a| a.port == port && *a != src)
                .for_each(schedule),
        }
        Ok(())
    }

    fn poll_endpoint(&mut self, addr: Addr, out: &mut Vec<Datagram>) -> Result<(), NetError> {
        match self.inboxes.get_mut(&addr) {
            None => Err(NetError::UnknownEndpoint(addr)),
            Some(inbox) => {
                out.extend(inbox.drain(..));
                Ok(())
            }
        }
    }
}

/// A transport endpoint attached to a [`SimLan`].
#[derive(Debug, Clone)]
pub struct SimTransport {
    lan: SharedLan,
    addr: Addr,
}

impl SimTransport {
    /// The shared LAN this transport is attached to.
    pub fn lan(&self) -> &SharedLan {
        &self.lan
    }
}

impl Transport for SimTransport {
    fn send(&mut self, dst: Destination, payload: &[u8]) -> Result<(), NetError> {
        lock(&self.lan).send_from(self.addr, dst, payload)
    }

    fn poll_into(&mut self, out: &mut Vec<Datagram>) -> Result<(), NetError> {
        lock(&self.lan).poll_endpoint(self.addr, out)
    }

    fn local_addr(&self) -> Addr {
        self.addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lan_pair(config: LanConfig) -> (SharedLan, SimTransport, SimTransport) {
        let lan = SimLan::shared(config);
        let a = SimLan::attach(&lan, "a");
        let b = SimLan::attach(&lan, "b");
        (lan, a, b)
    }

    #[test]
    fn unicast_delivery_after_advance() {
        let (lan, mut a, mut b) = lan_pair(LanConfig::fast_ethernet(1));
        a.send(Destination::Unicast(b.local_addr()), b"ping").unwrap();
        assert!(b.poll().unwrap().is_empty(), "nothing delivered before time advances");
        SimLan::advance(&lan, Micros::from_millis(5));
        let got = b.poll().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].payload[..], b"ping");
        assert_eq!(got[0].src, a.local_addr());
    }

    #[test]
    fn poll_into_appends_in_delivery_order_what_poll_returns() {
        // Two LANs of one seed carry the same traffic: one receiver is drained
        // through the provided `poll`, the other through `poll_into`.
        let receiver = || {
            let (lan, mut a, b) = lan_pair(LanConfig::fast_ethernet(9));
            for i in 0u8..6 {
                a.send(Destination::Unicast(b.local_addr()), &[i]).unwrap();
                a.send(Destination::Broadcast(DEFAULT_PORT), &[i, i]).unwrap();
            }
            SimLan::run_until_idle(&lan);
            b
        };
        let polled = receiver().poll().unwrap();
        assert_eq!(polled.len(), 12);
        assert!(polled.windows(2).all(|w| w[0].delivered_at <= w[1].delivered_at));

        let mut b = receiver();
        let mut kept = vec![polled[11].clone()];
        b.poll_into(&mut kept).unwrap();
        assert_eq!(kept[0], polled[11], "what the buffer held stays in front");
        assert_eq!(kept[1..], polled[..]);
        b.poll_into(&mut kept).unwrap();
        assert_eq!(kept.len(), 13, "nothing new was delivered");
    }

    #[test]
    fn broadcast_excludes_sender() {
        let lan = SimLan::shared(LanConfig::fast_ethernet(3));
        let mut a = SimLan::attach(&lan, "a");
        let mut b = SimLan::attach(&lan, "b");
        let mut c = SimLan::attach(&lan, "c");
        a.send(Destination::Broadcast(DEFAULT_PORT), b"hello").unwrap();
        SimLan::run_until_idle(&lan);
        assert_eq!(a.poll().unwrap().len(), 0);
        assert_eq!(b.poll().unwrap().len(), 1);
        assert_eq!(c.poll().unwrap().len(), 1);
    }

    #[test]
    fn unknown_unicast_destination_is_an_error() {
        let (_lan, mut a, _b) = lan_pair(LanConfig::fast_ethernet(1));
        let bogus = Addr::new(NodeId(77), Port(9));
        let err = a.send(Destination::Unicast(bogus), b"x").unwrap_err();
        assert!(matches!(err, NetError::UnknownEndpoint(_)));
    }

    #[test]
    fn oversized_payload_rejected() {
        let (_lan, mut a, b) = lan_pair(LanConfig::fast_ethernet(1));
        let big = vec![0u8; 70_000];
        let err = a.send(Destination::Unicast(b.local_addr()), &big).unwrap_err();
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
        let (lan, mut a, mut b) = lan_pair(config);
        for i in 0u8..10 {
            a.send(Destination::Unicast(b.local_addr()), &[i]).unwrap();
        }
        SimLan::run_until_idle(&lan);
        let got = b.poll().unwrap();
        let order: Vec<u8> = got.iter().map(|d| d.payload[0]).collect();
        assert_eq!(order, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed| {
            let (lan, mut a, mut b) = lan_pair(LanConfig::fast_ethernet(seed));
            for i in 0u8..50 {
                a.send(Destination::Unicast(b.local_addr()), &[i]).unwrap();
            }
            SimLan::run_until_idle(&lan);
            b.poll().unwrap().iter().map(|d| (d.delivered_at, d.payload[0])).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn lossy_lan_drops_some_datagrams() {
        let config = LanConfig::fast_ethernet(11).with_loss(0.5);
        let (lan, mut a, mut b) = lan_pair(config);
        for _ in 0..200 {
            a.send(Destination::Unicast(b.local_addr()), b"d").unwrap();
        }
        SimLan::run_until_idle(&lan);
        let delivered = b.poll().unwrap().len();
        assert!(delivered < 160 && delivered > 40, "delivered = {delivered}");
        let stats = SimLan::stats(&lan);
        assert_eq!(stats.datagrams_dropped + delivered as u64, 200);
    }

    #[test]
    fn stats_track_bytes() {
        let (lan, mut a, mut b) = lan_pair(LanConfig::fast_ethernet(1));
        a.send(Destination::Unicast(b.local_addr()), &[0u8; 128]).unwrap();
        SimLan::run_until_idle(&lan);
        b.poll().unwrap();
        let stats = SimLan::stats(&lan);
        assert_eq!(stats.bytes_sent, 128);
        assert_eq!(stats.per_node[&b.local_addr().node].bytes_received, 128);
    }

    #[test]
    fn node_names_are_recorded() {
        let lan = SimLan::shared(LanConfig::fast_ethernet(1));
        let a = SimLan::attach(&lan, "display-left");
        assert_eq!(lock(&lan).node_names[&a.local_addr().node], "display-left");
    }

    #[test]
    fn fault_plan_drops_are_counted_separately_from_link_loss() {
        let (lan, mut a, mut b) = lan_pair(LanConfig::fast_ethernet(1));
        SimLan::set_fault_plan(&lan, FaultPlan::seeded(3).with_drop_probability(0.5));
        for _ in 0..200 {
            a.send(Destination::Unicast(b.local_addr()), b"d").unwrap();
        }
        SimLan::run_until_idle(&lan);
        let delivered = b.poll().unwrap().len();
        let stats = SimLan::stats(&lan);
        assert!(stats.fault_drops > 40 && stats.fault_drops < 160, "{}", stats.fault_drops);
        assert_eq!(stats.fault_drops, stats.datagrams_dropped, "link itself is lossless");
        assert_eq!(delivered as u64 + stats.fault_drops, 200);
    }

    #[test]
    fn fault_duplicates_deliver_extra_copies() {
        let (lan, mut a, mut b) = lan_pair(LanConfig::fast_ethernet(1));
        SimLan::set_fault_plan(&lan, FaultPlan::seeded(4).with_duplicate_probability(1.0));
        for _ in 0..10 {
            a.send(Destination::Unicast(b.local_addr()), b"d").unwrap();
        }
        SimLan::run_until_idle(&lan);
        assert_eq!(b.poll().unwrap().len(), 20);
        assert_eq!(SimLan::stats(&lan).fault_duplicates, 10);
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
        let (lan, mut a, mut b) = lan_pair(config);
        // Only the first datagram is reordered (held back 50 ms).
        SimLan::set_fault_plan(&lan, FaultPlan::seeded(6).with_reordering(1.0, 50_000));
        a.send(Destination::Unicast(b.local_addr()), &[0u8]).unwrap();
        SimLan::set_fault_plan(&lan, FaultPlan::none());
        a.send(Destination::Unicast(b.local_addr()), &[1u8]).unwrap();
        SimLan::run_until_idle(&lan);
        let order: Vec<u8> = b.poll().unwrap().iter().map(|d| d.payload[0]).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn partition_window_severs_and_heals() {
        let (lan, mut a, mut b) = lan_pair(LanConfig::fast_ethernet(1));
        let isolated = vec![b.local_addr().node];
        SimLan::set_fault_plan(
            &lan,
            FaultPlan::seeded(7).with_partition(Micros::ZERO, Micros::from_millis(100), isolated),
        );
        a.send(Destination::Unicast(b.local_addr()), b"lost").unwrap();
        SimLan::advance(&lan, Micros::from_millis(200));
        assert!(b.poll().unwrap().is_empty());
        assert_eq!(SimLan::stats(&lan).partition_drops, 1);
        // After the window closes traffic flows again.
        a.send(Destination::Unicast(b.local_addr()), b"heals").unwrap();
        SimLan::run_until_idle(&lan);
        assert_eq!(b.poll().unwrap().len(), 1);
    }

    #[test]
    fn latency_spike_delays_traffic_inside_the_window() {
        let config = LanConfig::ideal(1);
        let (lan, mut a, mut b) = lan_pair(config);
        SimLan::set_fault_plan(
            &lan,
            FaultPlan::seeded(8).with_spike(Micros::ZERO, Micros::from_millis(10), 5_000),
        );
        a.send(Destination::Unicast(b.local_addr()), b"slow").unwrap();
        SimLan::advance(&lan, Micros::from_millis(4));
        assert!(b.poll().unwrap().is_empty(), "spike must delay the ideal-link datagram");
        SimLan::advance(&lan, Micros::from_millis(2));
        assert_eq!(b.poll().unwrap().len(), 1);
    }

    #[test]
    fn fault_stream_is_deterministic_and_independent_of_link_jitter() {
        let run = |lan_seed| {
            let (lan, mut a, mut b) = lan_pair(LanConfig::fast_ethernet(lan_seed));
            SimLan::set_fault_plan(&lan, FaultPlan::seeded(99).with_drop_probability(0.3));
            for _ in 0..100 {
                a.send(Destination::Unicast(b.local_addr()), b"x").unwrap();
            }
            SimLan::run_until_idle(&lan);
            b.poll().unwrap().len()
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
            let (lan, mut a, mut b) = lan_pair(LanConfig::legacy_ethernet(lan_seed).with_loss(0.2));
            SimLan::set_fault_plan(&lan, FaultPlan::seeded(99).with_drop_probability(0.3));
            for _ in 0..300 {
                a.send(Destination::Unicast(b.local_addr()), b"x").unwrap();
            }
            SimLan::run_until_idle(&lan);
            b.poll().unwrap();
            SimLan::stats(&lan)
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
