//! Per-CB counters used by the evaluation harness.

use cod_net::Micros;

/// Counters accumulated by one Communication Backbone instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CbStats {
    /// SUBSCRIPTION broadcasts sent.
    pub subscription_broadcasts: u64,
    /// ACKNOWLEDGE messages sent (publisher side).
    pub acknowledges_sent: u64,
    /// Virtual channels established (both roles).
    pub channels_established: u64,
    /// Updates pushed by local LPs.
    pub updates_published: u64,
    /// Updates routed to a co-resident LP without touching the network.
    pub updates_routed_locally: u64,
    /// Updates sent over the network on virtual channels.
    pub updates_sent_remote: u64,
    /// Reflections delivered to local subscriber LPs.
    pub reflections_delivered: u64,
    /// Interactions sent by local LPs.
    pub interactions_sent: u64,
    /// Interactions delivered to local LPs.
    pub interactions_delivered: u64,
    /// Interactions received for a class no local LP subscribes (any more).
    pub interactions_unread: u64,
    /// Wire messages received and decoded.
    pub wire_messages_received: u64,
    /// Wire messages that failed to decode.
    pub decode_errors: u64,
    /// Channel-setup latencies observed by local subscriptions (first channel).
    pub setup_latencies: Vec<Micros>,
}

impl CbStats {
    /// Mean channel-setup latency, if any setup completed.
    pub fn mean_setup_latency(&self) -> Option<Micros> {
        if self.setup_latencies.is_empty() {
            return None;
        }
        let sum: u64 = self.setup_latencies.iter().map(|m| m.0).sum();
        Some(Micros(sum / self.setup_latencies.len() as u64))
    }

    /// Fraction of published updates that stayed on the local machine.
    pub fn local_routing_ratio(&self) -> f64 {
        let total = self.updates_routed_locally + self.updates_sent_remote;
        if total == 0 {
            0.0
        } else {
            self.updates_routed_locally as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_setup_latency() {
        let mut s = CbStats::default();
        assert!(s.mean_setup_latency().is_none());
        s.setup_latencies.push(Micros(100));
        s.setup_latencies.push(Micros(300));
        assert_eq!(s.mean_setup_latency(), Some(Micros(200)));
    }

    #[test]
    fn local_routing_ratio() {
        let mut s = CbStats::default();
        assert_eq!(s.local_routing_ratio(), 0.0);
        s.updates_routed_locally = 3;
        s.updates_sent_remote = 1;
        assert!((s.local_routing_ratio() - 0.75).abs() < 1e-12);
    }
}
