//! The canonical LAN fault plans swept by the scenario matrix and drawn from
//! by the fleet workload generator.
//!
//! They live here, next to [`FaultPlan`] itself, so that the testkit matrix
//! and the `cod-fleet` serving layer share one set of named failure modes
//! without a dependency cycle.

use crate::{FaultPlan, Micros, NodeId};

/// A named fault plan for matrix reports.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedPlan {
    /// Short name used in scenario ids (e.g. `loss5`).
    pub name: &'static str,
    /// The plan itself.
    pub plan: FaultPlan,
}

/// A healthy LAN (the experimental control).
pub fn baseline(seed: u64) -> NamedPlan {
    NamedPlan { name: "clean", plan: FaultPlan::seeded(seed) }
}

/// 2% uniform datagram loss.
pub fn light_loss(seed: u64) -> NamedPlan {
    NamedPlan { name: "loss2", plan: FaultPlan::seeded(seed).with_drop_probability(0.02) }
}

/// 5% uniform datagram loss — the acceptance bar of the fault-tolerance suite.
pub fn heavy_loss(seed: u64) -> NamedPlan {
    NamedPlan { name: "loss5", plan: FaultPlan::seeded(seed).with_drop_probability(0.05) }
}

/// A one-second, 80 ms latency spike starting at t = 2 s (a congested switch).
/// 80 ms exceeds the 62.5 ms frame period, so spiked datagrams miss their
/// frame and arrive one executive frame late.
pub fn latency_spike(seed: u64) -> NamedPlan {
    NamedPlan {
        name: "spike",
        plan: FaultPlan::seeded(seed).with_spike(
            Micros::from_secs(2),
            Micros::from_secs(3),
            80_000,
        ),
    }
}

/// 10% duplication and 10% reordering (held back 70 ms, i.e. past a frame).
pub fn dup_reorder(seed: u64) -> NamedPlan {
    NamedPlan {
        name: "chaos",
        plan: FaultPlan::seeded(seed)
            .with_duplicate_probability(0.10)
            .with_reordering(0.10, 70_000),
    }
}

/// Display-0's computer falls off the LAN from t = 2 s to t = 3 s (a tripped
/// cable), then rejoins. Node 0 hosts `display-0` in the standard rack.
pub fn partition_blip(seed: u64) -> NamedPlan {
    NamedPlan {
        name: "partition",
        plan: FaultPlan::seeded(seed).with_partition(
            Micros::from_secs(2),
            Micros::from_secs(3),
            vec![NodeId(0)],
        ),
    }
}

/// The full set swept by the scenario matrix.
pub fn all(seed: u64) -> Vec<NamedPlan> {
    vec![
        baseline(seed),
        light_loss(seed),
        heavy_loss(seed),
        latency_spike(seed),
        dup_reorder(seed),
        partition_blip(seed),
    ]
}

/// The reduced set used by `--quick` (CI smoke) runs.
pub fn quick(seed: u64) -> Vec<NamedPlan> {
    vec![baseline(seed), heavy_loss(seed), latency_spike(seed)]
}
