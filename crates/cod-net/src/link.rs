//! Link model: how long a datagram takes to cross the LAN. Losing one is a
//! [`crate::FaultPlan`] drop rule, drawn on the fault stream.

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
}

impl LinkModel {
    /// A 100 Mbit switched Ethernet segment of the era described by the paper.
    pub fn fast_ethernet() -> LinkModel {
        LinkModel { base_latency_us: 120, jitter_us: 60, bandwidth_bps: 100_000_000 }
    }

    /// An idealized zero-latency link (for isolating protocol costs).
    pub fn ideal() -> LinkModel {
        LinkModel { base_latency_us: 0, jitter_us: 0, bandwidth_bps: u64::MAX }
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
    pub fn sample_delay(&self, dgram: &Datagram<'_>, rng: &mut SplitMix64) -> Micros {
        let jitter = if self.jitter_us == 0 { 0 } else { rng.up_to(self.jitter_us) };
        Micros(self.base_latency_us + jitter) + self.serialization_delay(dgram.wire_size())
    }
}

/// Complete configuration for a simulated LAN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanConfig {
    /// The shared link model.
    pub link: LinkModel,
    /// Seed for the deterministic jitter random stream.
    pub seed: u64,
    /// Maximum datagram payload accepted by the LAN.
    pub mtu: usize,
}

impl LanConfig {
    /// Fast-Ethernet LAN with a given RNG seed.
    pub fn fast_ethernet(seed: u64) -> LanConfig {
        LanConfig { link: LinkModel::fast_ethernet(), seed, mtu: 65_507 }
    }

    /// An ideal LAN (no latency), useful as an experimental control.
    pub fn ideal(seed: u64) -> LanConfig {
        LanConfig { link: LinkModel::ideal(), seed, mtu: 65_507 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, NodeId, Port};
    use crate::datagram::Destination;

    fn dgram(payload: &[u8]) -> Datagram<'_> {
        Datagram {
            src: Addr::new(NodeId(0), Port(1)),
            dst: Destination::Broadcast(Port(1)),
            payload,
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
        assert_eq!(link.sample_delay(&dgram(&[0; 1000]), &mut rng), Micros::ZERO);
    }

    #[test]
    fn sampled_delay_within_bounds() {
        let link = LinkModel::fast_ethernet();
        let mut rng = SplitMix64::new(7);
        let d = dgram(&[0; 458]);
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
        let d = dgram(&[0; 458]);
        let delays: Vec<Micros> = (0..4).map(|_| link.sample_delay(&d, &mut rng)).collect();
        assert_eq!(delays, [Micros(197), Micros(219), Micros(187), Micros(171)]);
    }

    #[test]
    fn config_builders() {
        let c = LanConfig::fast_ethernet(1);
        assert_eq!(c.link, LinkModel::fast_ethernet());
        assert_eq!((c.seed, c.mtu), (1, 65_507));
    }
}
