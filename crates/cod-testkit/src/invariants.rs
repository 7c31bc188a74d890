//! Cluster-wide invariants evaluated after every executive frame.
//!
//! These are the safety properties that must hold no matter what the LAN does
//! to the traffic: the CB channel tables of the eight computers stay mutually
//! consistent, the frame-sync protocol keeps the surround view in lock-step
//! and moving, the exam score stays in range, and no Logical Process starves.

use cod_cb::{ChannelRole, ChannelTable, VirtualChannel};
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
        channel_tables_consistent(
            (0..cluster.computer_count())
                .map(|i| cluster.computer(ComputerId(i)).kernel().channels()),
        )
    }
}

/// [`ChannelTableConsistency`] over the kernels' channel tables, in computer
/// order. Each table is sorted by id and holds one entry per id, so the scan
/// looks twins up in place and allocates nothing unless it fails.
fn channel_tables_consistent<'a>(
    tables: impl Iterator<Item = &'a ChannelTable> + Clone,
) -> Result<(), String> {
    let pair = |vc: &VirtualChannel| (vc.publisher_lp, vc.subscriber_lp, vc.class, vc.role);
    for (i, table) in tables.clone().enumerate() {
        for (at, vc) in table.iter().enumerate() {
            if table.iter().take(at).any(|seen| pair(seen) == pair(vc)) {
                return Err(format!(
                    "computer {i} holds duplicate channels for publisher {:?} -> \
                     subscriber {:?} (class {:?})",
                    vc.publisher_lp, vc.subscriber_lp, vc.class
                ));
            }
        }
    }
    let established = |vc: &VirtualChannel, role| vc.role == role && vc.established;
    let orphan = tables
        .clone()
        .flat_map(|table| table.iter())
        .filter(|vc| established(vc, ChannelRole::Subscriber))
        .map(|vc| vc.id)
        .filter(|&id| {
            !tables.clone().any(|table| {
                table.get(id).is_some_and(|twin| established(twin, ChannelRole::Publisher))
            })
        })
        .min();
    match orphan {
        Some(id) => Err(format!(
            "channel {:#x} is established on the subscriber side but has no \
             established publisher twin",
            id.0
        )),
        None => Ok(()),
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
        self.last.clone_from(swaps);
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

#[cfg(test)]
mod tests {
    use super::*;
    use cod_cb::{ChannelId, LpId, ObjectClassId};
    use cod_net::{Addr, Micros};
    use crane_sim::fom::ScenarioStateMsg;
    use crane_sim::SimulatorConfig;

    /// A channel of class 0 from LP `publisher` to LP `subscriber`.
    fn channel(
        id: u64,
        role: ChannelRole,
        established: bool,
        (publisher, subscriber): (u64, u64),
    ) -> VirtualChannel {
        VirtualChannel {
            id: ChannelId(id),
            class: ObjectClassId(0),
            publisher_lp: LpId(publisher),
            subscriber_lp: LpId(subscriber),
            remote_cb: Addr::default(),
            role,
            established,
            connect_sent_at: Micros::ZERO,
        }
    }

    fn table(channels: &[VirtualChannel]) -> ChannelTable {
        let mut table = ChannelTable::new();
        for channel in channels {
            table.insert(channel.clone());
        }
        table
    }

    /// Runs `invariant` on one frame per snapshot; the first failure, with
    /// its frame.
    fn first_violation(
        invariant: &mut dyn Invariant,
        snapshots: &[TelemetrySnapshot],
    ) -> Option<(u64, String)> {
        let simulator = CraneSimulator::new(SimulatorConfig::default()).unwrap();
        (0..).zip(snapshots).find_map(|(frame, snapshot)| {
            let ctx = FrameContext { frame, simulator: &simulator, snapshot };
            invariant.check(&ctx).err().map(|detail| (frame, detail))
        })
    }

    fn swaps(counts: &[u64]) -> TelemetrySnapshot {
        TelemetrySnapshot {
            channel_frames_swapped: counts.to_vec(),
            ..TelemetrySnapshot::default()
        }
    }

    fn score(score: f64) -> TelemetrySnapshot {
        let scenario = ScenarioStateMsg { score, ..ScenarioStateMsg::default() };
        TelemetrySnapshot { scenario, ..TelemetrySnapshot::default() }
    }

    #[test]
    fn twinned_channel_tables_are_consistent() {
        let publisher = table(&[channel(7, ChannelRole::Publisher, true, (1, 2))]);
        let subscriber = table(&[
            channel(7, ChannelRole::Subscriber, true, (1, 2)),
            channel(9, ChannelRole::Subscriber, false, (1, 3)),
        ]);
        assert_eq!(channel_tables_consistent([&publisher, &subscriber].into_iter()), Ok(()));
    }

    #[test]
    fn a_subscriber_channel_without_an_established_publisher_twin_trips() {
        // Channel 0x9's publisher side is still connecting; 0xb has none.
        let publisher = table(&[
            channel(7, ChannelRole::Publisher, true, (1, 2)),
            channel(9, ChannelRole::Publisher, false, (1, 3)),
        ]);
        let subscriber = table(&[
            channel(7, ChannelRole::Subscriber, true, (1, 2)),
            channel(9, ChannelRole::Subscriber, true, (1, 3)),
            channel(11, ChannelRole::Subscriber, true, (1, 4)),
        ]);
        assert_eq!(
            channel_tables_consistent([&subscriber, &publisher].into_iter()),
            Err("channel 0x9 is established on the subscriber side but has no established \
                 publisher twin"
                .to_owned())
        );
    }

    #[test]
    fn a_duplicate_channel_for_one_lp_pair_trips() {
        let clean = table(&[channel(7, ChannelRole::Publisher, true, (1, 2))]);
        let doubled = table(&[
            channel(7, ChannelRole::Subscriber, true, (1, 2)),
            channel(8, ChannelRole::Subscriber, false, (1, 2)),
        ]);
        assert_eq!(
            channel_tables_consistent([&clean, &doubled].into_iter()),
            Err("computer 1 holds duplicate channels for publisher LpId(1) -> subscriber \
                 LpId(2) (class ObjectClassId(0))"
                .to_owned())
        );
    }

    #[test]
    fn a_regressed_swap_counter_trips_frame_sync_monotonicity() {
        let frames = [swaps(&[4, 4, 4]), swaps(&[5, 5, 4]), swaps(&[5, 4, 5])];
        assert_eq!(
            first_violation(&mut FrameSyncMonotonic::new(), &frames),
            Some((2, "channel 1 swap counter regressed: 5 -> 4".to_owned()))
        );
    }

    #[test]
    fn channels_two_swaps_apart_trip_frame_sync_monotonicity() {
        let frames = [swaps(&[]), swaps(&[1, 1, 1]), swaps(&[2, 1, 2]), swaps(&[3, 1, 2])];
        assert_eq!(
            first_violation(&mut FrameSyncMonotonic::new(), &frames),
            Some((3, "surround channels out of lock-step: swap counts [3, 1, 2]".to_owned()))
        );
    }

    #[test]
    fn a_score_above_100_or_not_a_number_trips_the_bound() {
        let in_range = [score(0.0), score(60.0), score(100.0)];
        assert_eq!(first_violation(&mut ScoreBounded, &in_range), None);
        assert_eq!(
            first_violation(&mut ScoreBounded, &[score(100.0), score(100.5)]),
            Some((1, "score out of bounds: 100.5".to_owned()))
        );
        assert_eq!(
            first_violation(&mut ScoreBounded, &[score(f64::NAN)]),
            Some((0, "score out of bounds: NaN".to_owned()))
        );
    }

    #[test]
    fn a_slowest_channel_stalled_past_its_window_trips_starvation() {
        // The slowest channel reaches 1 swap in frame 1 and stays there while
        // the others move on: frames 2..=4 are inside the 3-frame window.
        let stalled = [
            swaps(&[0, 0, 0]),
            swaps(&[1, 1, 1]),
            swaps(&[1, 2, 2]),
            swaps(&[2, 2, 1]),
            swaps(&[2, 3, 1]),
            swaps(&[3, 3, 1]),
        ];
        assert_eq!(first_violation(&mut NoLpStarvation::new(3), &stalled[..5]), None);
        assert_eq!(
            first_violation(&mut NoLpStarvation::new(3), &stalled),
            Some((
                5,
                "slowest surround channel stuck at 1 swaps for more than 3 frames".to_owned()
            ))
        );
    }
}
