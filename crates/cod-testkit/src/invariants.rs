//! Cluster-wide invariants evaluated after every executive frame.
//!
//! These are the safety properties that must hold no matter what the LAN does
//! to the traffic: the CB channel tables of the eight computers stay mutually
//! consistent, the frame-sync protocol keeps the surround view in lock-step
//! and moving, the exam score stays in range, and no Logical Process starves.

use std::collections::BTreeMap;

use cod_cb::ChannelRole;
use cod_cluster::ComputerId;
use crane_sim::{CraneSimulator, TelemetrySnapshot};

/// Everything an invariant may look at after one frame.
pub struct FrameContext<'a> {
    /// Zero-based index of the frame that just ran.
    pub frame: u64,
    /// The simulator (cluster, kernels, metrics) after the frame. The
    /// harness holds its telemetry sink while the invariants run: read the
    /// telemetry through `snapshot`, never through the simulator.
    pub simulator: &'a CraneSimulator,
    /// The telemetry after the frame.
    pub snapshot: &'a TelemetrySnapshot,
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Frame at which the invariant first failed.
    pub frame: u64,
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame {}: {} — {}", self.frame, self.invariant, self.detail)
    }
}

/// A safety property checked after every frame.
pub trait Invariant {
    /// Stable name used in reports.
    fn name(&self) -> &'static str;

    /// Checks the property; returns a description of the violation if it fails.
    ///
    /// # Errors
    ///
    /// Returns the violation detail when the invariant does not hold.
    fn check(&mut self, ctx: &FrameContext<'_>) -> Result<(), String>;
}

/// The standard battery: channel-table consistency, frame-sync lock-step
/// monotonicity, score bounds and LP-starvation detection.
pub fn standard_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(ChannelTableConsistency),
        Box::new(FrameSyncMonotonic::new()),
        Box::new(ScoreBounded),
        Box::new(NoLpStarvation::new(60)),
    ]
}

/// Every fully-established subscriber-side virtual channel must have its
/// publisher-side twin (same id, class and LP pair) on some other computer,
/// and no kernel may hold two equivalent channels for the same LP pair.
pub struct ChannelTableConsistency;

impl Invariant for ChannelTableConsistency {
    fn name(&self) -> &'static str {
        "cb-channel-table-consistency"
    }

    fn check(&mut self, ctx: &FrameContext<'_>) -> Result<(), String> {
        let cluster = ctx.simulator.cluster();
        // Gather every channel entry of every kernel, keyed by channel id.
        let mut by_id: BTreeMap<u64, Vec<(usize, ChannelRole, bool)>> = BTreeMap::new();
        for i in 0..cluster.computer_count() {
            let kernel = cluster.computer(ComputerId(i)).kernel();
            let mut seen_pairs = Vec::new();
            for vc in kernel.channels().iter() {
                by_id.entry(vc.id.0).or_default().push((i, vc.role, vc.established));
                let pair = (vc.publisher_lp, vc.subscriber_lp, vc.class, vc.role);
                if seen_pairs.contains(&pair) {
                    return Err(format!(
                        "computer {i} holds duplicate channels for publisher {:?} -> \
                         subscriber {:?} (class {:?})",
                        vc.publisher_lp, vc.subscriber_lp, vc.class
                    ));
                }
                seen_pairs.push(pair);
            }
        }
        for (id, entries) in &by_id {
            let sub_established = entries
                .iter()
                .any(|(_, role, established)| *role == ChannelRole::Subscriber && *established);
            let pub_established = entries
                .iter()
                .any(|(_, role, established)| *role == ChannelRole::Publisher && *established);
            if sub_established && !pub_established {
                return Err(format!(
                    "channel {id:#x} is established on the subscriber side but has no \
                     established publisher twin"
                ));
            }
        }
        Ok(())
    }
}

/// Per-channel swap counters of the surround view must never regress and the
/// channels must stay within one frame of each other (the lock-step property
/// the fourth computer of the rack exists to enforce).
pub struct FrameSyncMonotonic {
    last: Vec<u64>,
}

impl FrameSyncMonotonic {
    /// Creates the checker with no history.
    pub fn new() -> FrameSyncMonotonic {
        FrameSyncMonotonic { last: Vec::new() }
    }
}

impl Default for FrameSyncMonotonic {
    fn default() -> Self {
        FrameSyncMonotonic::new()
    }
}

impl Invariant for FrameSyncMonotonic {
    fn name(&self) -> &'static str {
        "frame-sync-monotonicity"
    }

    fn check(&mut self, ctx: &FrameContext<'_>) -> Result<(), String> {
        let swaps = &ctx.snapshot.channel_frames_swapped;
        if swaps.is_empty() {
            return Ok(());
        }
        for (channel, (now, before)) in swaps.iter().zip(&self.last).enumerate() {
            if now < before {
                return Err(format!("channel {channel} swap counter regressed: {before} -> {now}"));
            }
        }
        self.last = swaps.clone();
        let min = swaps.iter().min().copied().unwrap_or(0);
        let max = swaps.iter().max().copied().unwrap_or(0);
        if max - min > 1 {
            return Err(format!("surround channels out of lock-step: swap counts {swaps:?}"));
        }
        Ok(())
    }
}

/// The exam score must stay finite and within `[0, 100]`.
pub struct ScoreBounded;

impl Invariant for ScoreBounded {
    fn name(&self) -> &'static str {
        "score-bounded"
    }

    fn check(&mut self, ctx: &FrameContext<'_>) -> Result<(), String> {
        let score = ctx.snapshot.scenario.score;
        if !score.is_finite() || !(0.0..=100.0).contains(&score) {
            return Err(format!("score out of bounds: {score}"));
        }
        Ok(())
    }
}

/// The slowest surround channel must make progress at least once per `window`
/// frames — a stalled swap counter means an LP is starved (typically a barrier
/// deadlock after lost datagrams).
pub struct NoLpStarvation {
    window: u64,
    last_min: u64,
    last_progress_frame: u64,
}

impl NoLpStarvation {
    /// Creates the checker with the given progress window in frames.
    pub fn new(window: u64) -> NoLpStarvation {
        NoLpStarvation { window, last_min: 0, last_progress_frame: 0 }
    }
}

impl Invariant for NoLpStarvation {
    fn name(&self) -> &'static str {
        "no-lp-starvation"
    }

    fn check(&mut self, ctx: &FrameContext<'_>) -> Result<(), String> {
        let swaps = &ctx.snapshot.channel_frames_swapped;
        if swaps.is_empty() {
            // Surround view not up yet; count from here.
            self.last_progress_frame = ctx.frame;
            return Ok(());
        }
        let min = swaps.iter().min().copied().unwrap_or(0);
        if min > self.last_min {
            self.last_min = min;
            self.last_progress_frame = ctx.frame;
        } else if ctx.frame - self.last_progress_frame > self.window {
            return Err(format!(
                "slowest surround channel stuck at {} swaps for more than {} frames",
                self.last_min, self.window
            ));
        }
        Ok(())
    }
}
