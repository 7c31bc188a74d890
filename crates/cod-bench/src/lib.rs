//! The measurement layer of the crane-simulator workspace.
//!
//! The one bench target, `benches/experiments.rs`, regenerates the
//! experiments of `EXPERIMENTS.md`. The heavy lifting lives here as library
//! code:
//!
//! - [`measure`] — the paired timer behind E14's and E15's gated ratios,
//!   and the calibrated single-routine timer the `benchmark/` probes use;
//! - [`report`] — the `BENCH_cod.json` schema and the measured-vs-paper
//!   comparison table (the `gates` runner of `cod-testkit` gates it);
//! - [`experiments`] — the experiments themselves, one row each in
//!   [`experiments::EXPERIMENTS`], shared by the bench target and the
//!   `gates` runner.

pub mod experiments;
pub mod measure;
pub mod report;

use cod_cb::{CbKernel, ClassRegistry, ObjectClassId};
use cod_net::{LanConfig, Micros, SimLan};

/// A publisher/subscriber pair of CB kernels with an established virtual
/// channel over the given LAN configuration, ready for data-plane benchmarks.
pub struct EstablishedPair {
    /// The LAN both kernels are attached to.
    pub lan: SimLan,
    /// Publisher-side kernel.
    pub publisher: CbKernel,
    /// Subscriber-side kernel.
    pub subscriber: CbKernel,
    /// The publishing LP.
    pub publisher_lp: cod_cb::LpId,
    /// The subscribing LP.
    pub subscriber_lp: cod_cb::LpId,
    /// The object class carried by the channel.
    pub class: ObjectClassId,
    /// Current simulated time.
    pub now: Micros,
}

impl EstablishedPair {
    /// Builds the pair and runs the initialization protocol to completion.
    pub fn new(config: LanConfig) -> EstablishedPair {
        let mut registry = ClassRegistry::new();
        let class = registry.register_object_class("Bench", &["payload"]).unwrap();
        let mut lan = SimLan::new(config);
        let mut publisher = CbKernel::new(lan.attach(), registry.clone());
        let mut subscriber = CbKernel::new(lan.attach(), registry);
        let publisher_lp = publisher.register_lp();
        let subscriber_lp = subscriber.register_lp();
        publisher.publish_object_class(publisher_lp, class).unwrap();
        subscriber.subscribe_object_class(subscriber_lp, class).unwrap();
        let mut pair = EstablishedPair {
            lan,
            publisher,
            subscriber,
            publisher_lp,
            subscriber_lp,
            class,
            now: Micros::ZERO,
        };
        for _ in 0..50 {
            pair.round();
        }
        assert!(
            pair.publisher.established_channel_count() >= 1,
            "bench setup failed to establish a channel"
        );
        pair
    }

    /// Advances both kernels and the LAN by one 10 ms round.
    pub fn round(&mut self) {
        self.publisher.tick(self.now, &mut self.lan).unwrap();
        self.subscriber.tick(self.now, &mut self.lan).unwrap();
        self.now += Micros::from_millis(10);
        self.lan.advance_to(self.now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn established_pair_builds() {
        let pair = EstablishedPair::new(LanConfig::fast_ethernet(1));
        assert!(pair.publisher.established_channel_count() >= 1);
        assert!(pair.subscriber.established_channel_count() >= 1);
    }
}
