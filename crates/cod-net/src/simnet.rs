//! Deterministic discrete-event simulation of the cluster LAN.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

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
/// One owner (the cluster executive) holds the LAN and lends it, as a
/// [`Transport`], to each attached computer's CB for that CB's tick.
/// Datagrams sent through it are scheduled for delivery according to the
/// configured [`LanConfig`] (latency, jitter, serialization delay, loss) and
/// appear in receiver inboxes once the LAN clock is advanced past their
/// delivery time.
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
            stats: LanStats::default(),
        }
    }

    /// Attaches a new computer (node) to the LAN and returns the address of
    /// its endpoint on the default CB port.
    pub fn attach(&mut self) -> Addr {
        let addr = Addr::new(NodeId(self.next_node), DEFAULT_PORT);
        self.next_node += 1;
        self.inboxes.insert(addr, VecDeque::new());
        addr
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
    /// counters are zeroed. The attached endpoints are kept.
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
        for inbox in self.inboxes.values_mut() {
            inbox.clear();
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
}

impl Transport for SimLan {
    fn send(&mut self, src: Addr, dst: Destination, payload: &[u8]) -> Result<(), NetError> {
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
            let mut delay = self.config.link.sample_delay(&dgram, &mut self.rng);
            if inject {
                delay += Micros(self.faults.spike_extra_us(now));
                if reordered {
                    // Hold the datagram back so later traffic overtakes it.
                    delay += Micros(self.faults.default_rule.reorder_delay_us);
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

    fn poll_into(&mut self, addr: Addr, out: &mut Vec<Datagram>) -> Result<(), NetError> {
        match self.inboxes.get_mut(&addr) {
            None => Err(NetError::UnknownEndpoint(addr)),
            Some(inbox) => {
                out.extend(inbox.drain(..));
                Ok(())
            }
        }
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

        /// Drains `addr`'s inbox into a fresh vector.
        fn poll(&mut self, addr: Addr) -> Vec<Datagram> {
            let mut out = Vec::new();
            self.poll_into(addr, &mut out).unwrap();
            out
        }

        /// Sends `payload` from `src` to the unicast address `dst`.
        fn unicast(&mut self, src: Addr, dst: Addr, payload: &[u8]) -> Result<(), NetError> {
            self.send(src, Destination::Unicast(dst), payload)
        }
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
    fn unknown_unicast_destination_is_an_error() {
        let (mut lan, a, _b) = lan_pair(LanConfig::fast_ethernet(1));
        let bogus = Addr::new(NodeId(77), Port(9));
        let err = lan.unicast(a, bogus, b"x").unwrap_err();
        assert!(matches!(err, NetError::UnknownEndpoint(_)));
        let err = lan.poll_into(bogus, &mut Vec::new()).unwrap_err();
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
        lan.poll(b);
        assert_eq!(lan.stats().bytes_sent, 128);
        assert_eq!(lan.stats().per_node[&b.node].bytes_received, 128);
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
            lan.stats().clone()
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
