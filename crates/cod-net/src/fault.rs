//! Deterministic fault injection for the simulated LAN.
//!
//! The interesting failures of an eight-PC cluster are distributed ones: lost
//! or duplicated datagrams, reordering, latency spikes while a switch buffers,
//! and short partitions while somebody trips over a cable. A [`FaultPlan`]
//! describes such a failure schedule declaratively; [`crate::SimLan`] applies
//! it on top of the nominal [`crate::LinkModel`] using a *dedicated* RNG
//! stream seeded from [`FaultPlan::seed`] and drawn per datagram, so for a
//! given LAN configuration and traffic sequence the same plan and seed
//! reproduce the same fault schedule bit for bit, and changing the
//! link-jitter seed alone never re-aligns which datagrams fault. A plan's
//! drop rule is the LAN's only way to lose a datagram.

use crate::addr::NodeId;
use crate::time::Micros;

/// Stochastic fault parameters, applied by a [`FaultPlan`] to every link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultRule {
    /// Probability in `[0, 1]` that a datagram is dropped: the LAN's one
    /// loss model.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a datagram is delivered twice.
    pub duplicate_probability: f64,
    /// Probability in `[0, 1]` that a datagram is held back long enough for
    /// later traffic to overtake it.
    pub reorder_probability: f64,
    /// How long a reordered datagram is held back, in microseconds.
    pub reorder_delay_us: u64,
}

impl LinkFaultRule {
    /// A rule that injects nothing.
    pub const fn none() -> LinkFaultRule {
        LinkFaultRule {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_delay_us: 0,
        }
    }

    /// Whether this rule can ever fire.
    pub fn is_none(&self) -> bool {
        self.drop_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.reorder_probability <= 0.0
    }
}

impl Default for LinkFaultRule {
    fn default() -> LinkFaultRule {
        LinkFaultRule::none()
    }
}

/// A latency spike: every datagram sent during `[start, end)` suffers
/// `extra_latency_us` of additional one-way delay (a congested or
/// garbage-collecting switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySpike {
    /// Start of the spike window (inclusive).
    pub start: Micros,
    /// End of the spike window (exclusive).
    pub end: Micros,
    /// Additional one-way latency during the window, in microseconds.
    pub extra_latency_us: u64,
}

/// A partition window: during `[start, end)` the `isolated` nodes cannot
/// exchange datagrams with the rest of the cluster (traffic *among* the
/// isolated nodes still flows — they form their own segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Start of the partition (inclusive).
    pub start: Micros,
    /// End of the partition (exclusive).
    pub end: Micros,
    /// The nodes cut off from the rest of the LAN.
    pub isolated: Vec<NodeId>,
}

impl PartitionWindow {
    /// Whether a datagram from `src` to `dst` at time `now` is severed by this window.
    pub fn severs(&self, now: Micros, src: NodeId, dst: NodeId) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        let src_isolated = self.isolated.contains(&src);
        let dst_isolated = self.isolated.contains(&dst);
        src_isolated != dst_isolated
    }
}

/// A complete, seeded fault schedule for one simulated LAN.
///
/// Build one with the fluent constructors, then install it with
/// [`crate::SimLan::set_fault_plan`]:
///
/// ```
/// use cod_net::{FaultPlan, LanConfig, SimLan};
///
/// let mut lan = SimLan::new(LanConfig::fast_ethernet(1));
/// lan.set_fault_plan(FaultPlan::seeded(7).with_drop_probability(0.05));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG stream.
    pub seed: u64,
    /// Rule applied to every link.
    pub default_rule: LinkFaultRule,
    /// Scheduled latency spikes.
    pub spikes: Vec<LatencySpike>,
    /// Scheduled partition windows.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan with an explicit fault-stream seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Sets the default drop probability for every link.
    pub fn with_drop_probability(mut self, p: f64) -> FaultPlan {
        self.default_rule.drop_probability = p;
        self
    }

    /// Sets the default duplication probability for every link.
    pub fn with_duplicate_probability(mut self, p: f64) -> FaultPlan {
        self.default_rule.duplicate_probability = p;
        self
    }

    /// Sets the default reorder probability and hold-back delay for every link.
    pub fn with_reordering(mut self, p: f64, delay_us: u64) -> FaultPlan {
        self.default_rule.reorder_probability = p;
        self.default_rule.reorder_delay_us = delay_us;
        self
    }

    /// Schedules a latency spike.
    pub fn with_spike(mut self, start: Micros, end: Micros, extra_latency_us: u64) -> FaultPlan {
        self.spikes.push(LatencySpike { start, end, extra_latency_us });
        self
    }

    /// Schedules a partition window isolating `nodes` from the rest of the LAN.
    pub fn with_partition(mut self, start: Micros, end: Micros, nodes: Vec<NodeId>) -> FaultPlan {
        self.partitions.push(PartitionWindow { start, end, isolated: nodes });
        self
    }

    /// Total extra latency from spikes active at `now`, in microseconds.
    pub fn spike_extra_us(&self, now: Micros) -> u64 {
        self.spikes
            .iter()
            .filter(|s| now >= s.start && now < s.end)
            .map(|s| s.extra_latency_us)
            .sum()
    }

    /// Whether a datagram from `src` to `dst` at `now` crosses an active partition.
    pub fn partitioned(&self, now: Micros, src: NodeId, dst: NodeId) -> bool {
        self.partitions.iter().any(|p| p.severs(now, src, dst))
    }

    /// Whether the plan can never inject anything (fast-path check).
    pub fn is_none(&self) -> bool {
        self.default_rule.is_none() && self.spikes.is_empty() && self.partitions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::seeded(9).is_none());
        assert!(!FaultPlan::none().with_drop_probability(0.1).is_none());
        assert!(!FaultPlan::none().with_spike(Micros(0), Micros(10), 5).is_none());
    }

    #[test]
    fn spikes_accumulate_inside_their_window() {
        let plan = FaultPlan::none().with_spike(Micros(100), Micros(200), 30).with_spike(
            Micros(150),
            Micros(300),
            50,
        );
        assert_eq!(plan.spike_extra_us(Micros(50)), 0);
        assert_eq!(plan.spike_extra_us(Micros(100)), 30);
        assert_eq!(plan.spike_extra_us(Micros(175)), 80);
        assert_eq!(plan.spike_extra_us(Micros(250)), 50);
        assert_eq!(plan.spike_extra_us(Micros(300)), 0);
    }

    #[test]
    fn partition_severs_only_across_the_cut() {
        let plan =
            FaultPlan::none().with_partition(Micros(10), Micros(20), vec![NodeId(0), NodeId(1)]);
        // Across the cut, during the window.
        assert!(plan.partitioned(Micros(10), NodeId(0), NodeId(5)));
        assert!(plan.partitioned(Micros(15), NodeId(5), NodeId(1)));
        // Within either segment traffic still flows.
        assert!(!plan.partitioned(Micros(15), NodeId(0), NodeId(1)));
        assert!(!plan.partitioned(Micros(15), NodeId(4), NodeId(5)));
        // Outside the window nothing is severed.
        assert!(!plan.partitioned(Micros(9), NodeId(0), NodeId(5)));
        assert!(!plan.partitioned(Micros(20), NodeId(0), NodeId(5)));
    }
}
