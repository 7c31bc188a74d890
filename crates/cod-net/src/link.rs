//! Link model: how long a datagram takes to cross the LAN and whether it is lost.

use crate::datagram::Datagram;
use crate::time::Micros;
use sim_math::SplitMix64;

/// Parameters of a shared-medium LAN link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way propagation plus protocol-stack latency in microseconds.
    pub base_latency_us: u64,
    /// Maximum additional random jitter in microseconds (uniform).
    pub jitter_us: u64,
    /// Link bandwidth in bits per second; determines serialization delay.
    pub bandwidth_bps: u64,
    /// Probability in `[0, 1]` that a datagram is silently dropped.
    pub loss_probability: f64,
}

impl LinkModel {
    /// A 100 Mbit switched Ethernet segment of the era described by the paper.
    pub fn fast_ethernet() -> LinkModel {
        LinkModel {
            base_latency_us: 120,
            jitter_us: 60,
            bandwidth_bps: 100_000_000,
            loss_probability: 0.0,
        }
    }

    /// A 10 Mbit shared Ethernet segment (the pessimistic variant).
    pub fn legacy_ethernet() -> LinkModel {
        LinkModel {
            base_latency_us: 400,
            jitter_us: 250,
            bandwidth_bps: 10_000_000,
            loss_probability: 0.001,
        }
    }

    /// An idealized zero-latency, lossless link (for isolating protocol costs).
    pub fn ideal() -> LinkModel {
        LinkModel {
            base_latency_us: 0,
            jitter_us: 0,
            bandwidth_bps: u64::MAX,
            loss_probability: 0.0,
        }
    }

    /// Serialization delay for a datagram of `bytes` bytes.
    pub fn serialization_delay(&self, bytes: usize) -> Micros {
        if self.bandwidth_bps == u64::MAX {
            return Micros::ZERO;
        }
        let bits = bytes as u64 * 8;
        Micros(bits * 1_000_000 / self.bandwidth_bps)
    }

    /// Draws the total one-way delay for a datagram from the supplied stream.
    pub fn sample_delay(&self, dgram: &Datagram, rng: &mut SplitMix64) -> Micros {
        let jitter = if self.jitter_us == 0 { 0 } else { rng.up_to(self.jitter_us) };
        Micros(self.base_latency_us + jitter) + self.serialization_delay(dgram.wire_size())
    }

    /// Draws whether the datagram is lost.
    pub fn sample_loss(&self, rng: &mut SplitMix64) -> bool {
        self.loss_probability > 0.0 && rng.chance(self.loss_probability.clamp(0.0, 1.0))
    }
}

/// Complete configuration for a simulated LAN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanConfig {
    /// The shared link model.
    pub link: LinkModel,
    /// Seed for the deterministic jitter / loss random stream.
    pub seed: u64,
    /// Maximum datagram payload accepted by the LAN.
    pub mtu: usize,
}

impl LanConfig {
    /// Fast-Ethernet LAN with a given RNG seed.
    pub fn fast_ethernet(seed: u64) -> LanConfig {
        LanConfig { link: LinkModel::fast_ethernet(), seed, mtu: 65_507 }
    }

    /// Legacy 10 Mbit LAN with a given RNG seed.
    pub fn legacy_ethernet(seed: u64) -> LanConfig {
        LanConfig { link: LinkModel::legacy_ethernet(), seed, mtu: 65_507 }
    }

    /// An ideal LAN (no latency, no loss), useful as an experimental control.
    pub fn ideal(seed: u64) -> LanConfig {
        LanConfig { link: LinkModel::ideal(), seed, mtu: 65_507 }
    }

    /// Returns a copy with the loss probability replaced.
    pub fn with_loss(mut self, p: f64) -> LanConfig {
        self.link.loss_probability = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, NodeId, Port};
    use crate::datagram::Destination;

    fn dgram(payload_len: usize) -> Datagram {
        Datagram {
            src: Addr::new(NodeId(0), Port(1)),
            dst: Destination::Broadcast(Port(1)),
            payload: vec![0u8; payload_len].into(),
            delivered_at: Micros::ZERO,
        }
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let link = LinkModel::fast_ethernet();
        let small = link.serialization_delay(100);
        let big = link.serialization_delay(10_000);
        assert!(big > small);
        // 10_000 bytes at 100 Mbit/s = 800 us.
        assert_eq!(link.serialization_delay(10_000), Micros(800));
    }

    #[test]
    fn ideal_link_has_zero_delay() {
        let link = LinkModel::ideal();
        let mut rng = SplitMix64::new(1);
        assert_eq!(link.sample_delay(&dgram(1000), &mut rng), Micros::ZERO);
        assert!(!link.sample_loss(&mut rng));
    }

    #[test]
    fn sampled_delay_within_bounds() {
        let link = LinkModel::fast_ethernet();
        let mut rng = SplitMix64::new(7);
        let d = dgram(458);
        for _ in 0..1000 {
            let delay = link.sample_delay(&d, &mut rng);
            let min = Micros(link.base_latency_us) + link.serialization_delay(d.wire_size());
            let max = Micros(link.base_latency_us + link.jitter_us)
                + link.serialization_delay(d.wire_size());
            assert!(delay >= min && delay <= max);
        }
    }

    #[test]
    fn sampled_delays_at_seed_7_are_pinned() {
        // The LAN's jitter stream feeds every fleet and scenario fingerprint.
        let link = LinkModel::fast_ethernet();
        let mut rng = SplitMix64::new(7);
        let d = dgram(458);
        let delays: Vec<Micros> = (0..4).map(|_| link.sample_delay(&d, &mut rng)).collect();
        assert_eq!(delays, [Micros(197), Micros(219), Micros(187), Micros(171)]);
    }

    #[test]
    fn loss_probability_respected_statistically() {
        let mut link = LinkModel::fast_ethernet();
        link.loss_probability = 0.25;
        let mut rng = SplitMix64::new(99);
        let losses = (0..10_000).filter(|_| link.sample_loss(&mut rng)).count();
        assert!((2_000..3_000).contains(&losses), "losses = {losses}");
    }

    #[test]
    fn config_builders() {
        let c = LanConfig::fast_ethernet(1).with_loss(0.5);
        assert_eq!(c.link.loss_probability, 0.5);
        assert_eq!(c.link.base_latency_us, LinkModel::fast_ethernet().base_latency_us);
    }
}
