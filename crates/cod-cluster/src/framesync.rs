//! Frame-rate synchronization of the surround-view display channels.
//!
//! In the implemented system (paper §4) the top three computers of the rack
//! drive the three monitors of the surround view and "the fourth computer from
//! the top is the synchronization server that synchronizes the frame rate of
//! the above three graphical computers". This module provides:
//!
//! * [`FrameSyncServer`] — the synchronization-server LP: it waits until every
//!   display channel has reported that its frame is rendered, then releases the
//!   swap for that frame.
//! * [`FrameSyncClient`] — the client half embedded in a display LP.
//! * [`SyncBarrierModel`] — the analytic overhead model used by experiment E3
//!   (the cost of lock-step against free-running channels).

use std::collections::{BTreeMap, BTreeSet};

use cod_cb::{AttributeId, CbApi, CbError, ClassRegistry, InteractionClassId, Value};
use cod_net::Micros;

use crate::lp::LogicalProcess;

/// Interaction classes used by the frame-synchronization protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSyncFom {
    /// "FrameReady" interaction: a display channel finished rendering a frame.
    pub frame_ready: InteractionClassId,
    /// "FrameGo" interaction: the server releases the swap for a frame.
    pub frame_go: InteractionClassId,
    /// Parameter of `frame_ready`: the reporting channel index.
    pub ready_channel: AttributeId,
    /// Parameter of `frame_ready`: the frame number.
    pub ready_frame: AttributeId,
    /// Parameter of `frame_go`: the released frame number.
    pub go_frame: AttributeId,
}

impl FrameSyncFom {
    /// Declares the synchronization interactions in the shared FOM.
    ///
    /// # Errors
    ///
    /// Returns an error if the class names are already taken.
    pub fn register(fom: &mut ClassRegistry) -> Result<FrameSyncFom, CbError> {
        let frame_ready = fom.register_interaction_class("FrameReady", &["channel", "frame"])?;
        let frame_go = fom.register_interaction_class("FrameGo", &["frame"])?;
        Ok(FrameSyncFom {
            frame_ready,
            frame_go,
            ready_channel: fom.parameter_id(frame_ready, "channel").expect("declared above"),
            ready_frame: fom.parameter_id(frame_ready, "frame").expect("declared above"),
            go_frame: fom.parameter_id(frame_go, "frame").expect("declared above"),
        })
    }
}

/// The synchronization server LP (the fourth computer of the rack).
#[derive(Debug)]
pub struct FrameSyncServer {
    fom: FrameSyncFom,
    expected_channels: usize,
    current_frame: u64,
    pending: BTreeMap<u64, BTreeSet<u32>>,
    frames_released: u64,
    go_resends: u64,
    step_cost: Micros,
}

impl FrameSyncServer {
    /// Creates a server that waits for `expected_channels` display channels per frame.
    ///
    /// # Panics
    ///
    /// Panics if `expected_channels` is zero.
    pub fn new(fom: FrameSyncFom, expected_channels: usize) -> FrameSyncServer {
        assert!(expected_channels > 0, "at least one display channel is required");
        FrameSyncServer {
            fom,
            expected_channels,
            current_frame: 0,
            pending: BTreeMap::new(),
            frames_released: 0,
            go_resends: 0,
            step_cost: Micros(500),
        }
    }

    /// Number of frames whose swap has been released so far.
    pub fn frames_released(&self) -> u64 {
        self.frames_released
    }

    /// The frame the server is currently collecting ready reports for.
    pub fn current_frame(&self) -> u64 {
        self.current_frame
    }

    /// Number of FrameGo re-transmissions triggered by stale ready reports
    /// (i.e. how often the LAN lost a release on the way to a channel).
    pub fn go_resends(&self) -> u64 {
        self.go_resends
    }

    /// Rewinds the barrier to frame zero with no pending ready reports, as if
    /// freshly constructed.
    pub fn reset_session(&mut self) {
        self.current_frame = 0;
        self.pending.clear();
        self.frames_released = 0;
        self.go_resends = 0;
    }
}

impl LogicalProcess for FrameSyncServer {
    fn name(&self) -> &str {
        "frame-sync-server"
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.subscribe_interaction_class(self.fom.frame_ready)
    }

    fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
        let mut stale_frames = BTreeSet::new();
        for interaction in cb.interactions() {
            if interaction.class != self.fom.frame_ready {
                continue;
            }
            let channel = interaction
                .parameters
                .get(&self.fom.ready_channel)
                .and_then(Value::as_u32)
                .unwrap_or(u32::MAX);
            let frame = interaction
                .parameters
                .get(&self.fom.ready_frame)
                .and_then(Value::as_u32)
                .unwrap_or(0) as u64;
            if frame < self.current_frame {
                // A ready report for an already-released frame means the LAN
                // lost the FrameGo on the way to that channel; re-release it.
                stale_frames.insert(frame);
                continue;
            }
            self.pending.entry(frame).or_default().insert(channel);
        }
        for frame in stale_frames {
            cb.send_interaction(
                self.fom.frame_go,
                [(self.fom.go_frame, Value::U32(frame as u32))].into(),
            )?;
            self.go_resends += 1;
        }

        // Release the swap for the current frame once every channel reported.
        while self
            .pending
            .get(&self.current_frame)
            .map(|set| set.len() >= self.expected_channels)
            .unwrap_or(false)
        {
            let frame = self.current_frame;
            self.pending.remove(&frame);
            cb.send_interaction(
                self.fom.frame_go,
                [(self.fom.go_frame, Value::U32(frame as u32))].into(),
            )?;
            self.frames_released += 1;
            self.current_frame += 1;
        }
        Ok(())
    }

    fn last_step_cost(&self) -> Micros {
        self.step_cost
    }

    fn begin_session(&mut self, _cb: &mut dyn CbApi, _seed: u64) -> Result<(), CbError> {
        self.reset_session();
        Ok(())
    }
}

/// Number of unproductive release polls after which a waiting client re-sends
/// its ready report (a lost FrameReady or FrameGo otherwise stalls lock-step
/// forever). A healthy barrier releases within two polls, so three silent
/// polls indicate a lost datagram.
const READY_RESEND_AFTER_POLLS: u32 = 3;

/// The client half of the synchronization protocol, embedded in a display LP.
#[derive(Debug, Clone)]
pub struct FrameSyncClient {
    fom: FrameSyncFom,
    channel_index: u32,
    frame: u64,
    waiting_for_go: bool,
    frames_swapped: u64,
    stalled_polls: u32,
    ready_resends: u64,
}

impl FrameSyncClient {
    /// Creates the client for display channel `channel_index`.
    pub fn new(fom: FrameSyncFom, channel_index: u32) -> FrameSyncClient {
        FrameSyncClient {
            fom,
            channel_index,
            frame: 0,
            waiting_for_go: false,
            frames_swapped: 0,
            stalled_polls: 0,
            ready_resends: 0,
        }
    }

    /// Subscribes to the release interaction; call from the display LP's `init`.
    ///
    /// # Errors
    ///
    /// Returns an error if the interaction class is unknown to the CB.
    pub fn init(&self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.subscribe_interaction_class(self.fom.frame_go)
    }

    /// Whether the channel is blocked waiting for the server's release.
    pub fn is_waiting(&self) -> bool {
        self.waiting_for_go
    }

    /// The frame this channel is currently working on.
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// Number of frames actually swapped (released by the server).
    pub fn frames_swapped(&self) -> u64 {
        self.frames_swapped
    }

    /// Number of ready-report re-transmissions (i.e. how often this channel
    /// suspected a lost barrier datagram and recovered).
    pub fn ready_resends(&self) -> u64 {
        self.ready_resends
    }

    /// Rewinds the client to frame zero, not waiting, as if freshly
    /// constructed; call from the display LP's session reset.
    pub fn reset_session(&mut self) {
        self.frame = 0;
        self.waiting_for_go = false;
        self.frames_swapped = 0;
        self.stalled_polls = 0;
        self.ready_resends = 0;
    }

    /// Reports that rendering of the current frame finished and blocks the
    /// channel until the server releases the swap.
    ///
    /// # Errors
    ///
    /// Returns an error if the CB rejects the interaction.
    pub fn report_ready(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.send_interaction(
            self.fom.frame_ready,
            [
                (self.fom.ready_channel, Value::U32(self.channel_index)),
                (self.fom.ready_frame, Value::U32(self.frame as u32)),
            ]
            .into(),
        )?;
        self.waiting_for_go = true;
        self.stalled_polls = 0;
        Ok(())
    }

    /// Processes any pending release messages; returns `true` if the swap for
    /// the current frame was released (the channel may start the next frame).
    pub fn poll_release(&mut self, cb: &mut dyn CbApi) -> bool {
        let mut released = false;
        for interaction in cb.interactions() {
            if interaction.class != self.fom.frame_go {
                continue;
            }
            let frame =
                interaction.parameters.get(&self.fom.go_frame).and_then(Value::as_u32).unwrap_or(0)
                    as u64;
            if frame >= self.frame {
                released = true;
            }
        }
        if released && self.waiting_for_go {
            self.waiting_for_go = false;
            self.stalled_polls = 0;
            self.frame += 1;
            self.frames_swapped += 1;
        } else if self.waiting_for_go {
            self.stalled_polls += 1;
        }
        released
    }

    /// Re-sends the ready report if the channel has been waiting suspiciously
    /// long for its release — the recovery path for a FrameReady or FrameGo
    /// datagram lost on the LAN. Returns `true` if a resend went out. Call
    /// after [`FrameSyncClient::poll_release`] on every blocked step.
    ///
    /// # Errors
    ///
    /// Returns an error if the CB rejects the interaction.
    pub fn resend_ready_if_stalled(&mut self, cb: &mut dyn CbApi) -> Result<bool, CbError> {
        if !self.waiting_for_go || self.stalled_polls < READY_RESEND_AFTER_POLLS {
            return Ok(false);
        }
        cb.send_interaction(
            self.fom.frame_ready,
            [
                (self.fom.ready_channel, Value::U32(self.channel_index)),
                (self.fom.ready_frame, Value::U32(self.frame as u32)),
            ]
            .into(),
        )?;
        self.stalled_polls = 0;
        self.ready_resends += 1;
        Ok(true)
    }
}

/// Analytic model of the swap-lock barrier overhead (experiment E3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncBarrierModel {
    /// Round-trip time between a display computer and the synchronization server.
    pub round_trip: Micros,
    /// Server processing time per frame.
    pub server_processing: Micros,
}

impl SyncBarrierModel {
    /// Frame period of the synchronized surround view: the slowest channel's
    /// render time plus one barrier round trip plus server processing.
    pub fn synchronized_period(&self, channel_render_times: &[Micros]) -> Micros {
        let slowest = channel_render_times.iter().copied().max().unwrap_or(Micros::ZERO);
        slowest + self.round_trip + self.server_processing
    }

    /// Frame period of an unsynchronized (free-running) surround view: each
    /// channel swaps as soon as it is done, so the view is only as consistent
    /// as the slowest channel but pays no barrier cost.
    pub fn unsynchronized_period(channel_render_times: &[Micros]) -> Micros {
        channel_render_times.iter().copied().max().unwrap_or(Micros::ZERO)
    }

    /// Fraction of the synchronized frame period spent on synchronization
    /// rather than rendering.
    pub fn overhead_fraction(&self, channel_render_times: &[Micros]) -> f64 {
        let sync = self.synchronized_period(channel_render_times);
        if sync == Micros::ZERO {
            return 0.0;
        }
        let overhead = self.round_trip + self.server_processing;
        overhead.as_secs_f64() / sync.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A minimal display LP that renders, reports ready, and waits for release.
    struct Display {
        name: String,
        client: FrameSyncClient,
        rendered: Arc<AtomicU64>,
        swapped: Arc<AtomicU64>,
    }

    impl LogicalProcess for Display {
        fn name(&self) -> &str {
            &self.name
        }
        fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
            self.client.init(cb)
        }
        fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
            if self.client.is_waiting() {
                self.client.poll_release(cb);
                self.client.resend_ready_if_stalled(cb)?;
            } else {
                // "Render" the frame, then report it to the sync server.
                self.rendered.fetch_add(1, Ordering::Relaxed);
                self.client.report_ready(cb)?;
            }
            self.swapped.store(self.client.frames_swapped(), Ordering::Relaxed);
            Ok(())
        }
        fn last_step_cost(&self) -> Micros {
            Micros::from_millis(45)
        }
    }

    #[test]
    fn three_displays_swap_in_lock_step() {
        let mut fom = ClassRegistry::new();
        let sync_fom = FrameSyncFom::register(&mut fom).unwrap();

        let mut cluster = Cluster::new(ClusterConfig::default(), fom);
        let mut swapped = Vec::new();
        for i in 0..3 {
            let pc = cluster.add_computer(&format!("display-{i}"));
            let counter = Arc::new(AtomicU64::new(0));
            swapped.push(Arc::clone(&counter));
            cluster
                .add_lp(
                    pc,
                    Box::new(Display {
                        name: format!("visual-{i}"),
                        client: FrameSyncClient::new(sync_fom, i as u32),
                        rendered: Arc::new(AtomicU64::new(0)),
                        swapped: counter,
                    }),
                )
                .unwrap();
        }
        let sync_pc = cluster.add_computer("sync-server");
        cluster.add_lp(sync_pc, Box::new(FrameSyncServer::new(sync_fom, 3))).unwrap();

        cluster.initialize().unwrap();
        cluster.run_frames(120).unwrap();

        let counts: Vec<u64> = swapped.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert!(counts[0] > 5, "displays never progressed: {counts:?}");
        // Lock-step: no channel may be more than one frame ahead of another.
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "channels diverged: {counts:?}");
    }

    #[test]
    fn server_releases_only_when_all_channels_report() {
        let mut fom = ClassRegistry::new();
        let sync_fom = FrameSyncFom::register(&mut fom).unwrap();
        let mut cluster = Cluster::new(ClusterConfig::default(), fom);
        let display_pc = cluster.add_computer("display-0");
        let counter = Arc::new(AtomicU64::new(0));
        cluster
            .add_lp(
                display_pc,
                Box::new(Display {
                    name: "visual-0".into(),
                    client: FrameSyncClient::new(sync_fom, 0),
                    rendered: Arc::new(AtomicU64::new(0)),
                    swapped: Arc::clone(&counter),
                }),
            )
            .unwrap();
        let sync_pc = cluster.add_computer("sync-server");
        // Server expects TWO channels but only one exists: nothing is ever released.
        cluster.add_lp(sync_pc, Box::new(FrameSyncServer::new(sync_fom, 2))).unwrap();
        cluster.initialize().unwrap();
        cluster.run_frames(60).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn lock_step_survives_a_lossy_lan() {
        let mut fom = ClassRegistry::new();
        let sync_fom = FrameSyncFom::register(&mut fom).unwrap();
        let mut cluster = Cluster::new(ClusterConfig::default(), fom);
        let mut swapped = Vec::new();
        for i in 0..3 {
            let pc = cluster.add_computer(&format!("display-{i}"));
            let counter = Arc::new(AtomicU64::new(0));
            swapped.push(Arc::clone(&counter));
            cluster
                .add_lp(
                    pc,
                    Box::new(Display {
                        name: format!("visual-{i}"),
                        client: FrameSyncClient::new(sync_fom, i as u32),
                        rendered: Arc::new(AtomicU64::new(0)),
                        swapped: counter,
                    }),
                )
                .unwrap();
        }
        let sync_pc = cluster.add_computer("sync-server");
        cluster.add_lp(sync_pc, Box::new(FrameSyncServer::new(sync_fom, 3))).unwrap();
        cluster.initialize().unwrap();

        // 10% datagram loss: without ready-resend and stale-ready re-release
        // the barrier deadlocks within a handful of frames.
        cluster.set_fault_plan(cod_net::FaultPlan::seeded(21).with_drop_probability(0.10));
        cluster.run_frames(300).unwrap();

        let counts: Vec<u64> = swapped.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert!(counts.iter().all(|c| *c > 20), "progress stalled under loss: {counts:?}");
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "channels diverged under loss: {counts:?}");
        assert!(cluster.lan_stats().fault_drops > 0);
    }

    #[test]
    fn barrier_model_overhead() {
        let model =
            SyncBarrierModel { round_trip: Micros::from_millis(1), server_processing: Micros(500) };
        let channels = [Micros::from_millis(45), Micros::from_millis(50), Micros::from_millis(48)];
        let sync = model.synchronized_period(&channels);
        let free = SyncBarrierModel::unsynchronized_period(&channels);
        assert_eq!(free, Micros::from_millis(50));
        assert_eq!(sync, Micros::from_millis(50) + Micros::from_millis(1) + Micros(500));
        assert!(model.overhead_fraction(&channels) > 0.0);
        assert!(model.overhead_fraction(&channels) < 0.1);
    }

    #[test]
    #[should_panic]
    fn zero_channel_server_rejected() {
        let mut fom = ClassRegistry::new();
        let sync_fom = FrameSyncFom::register(&mut fom).unwrap();
        let _ = FrameSyncServer::new(sync_fom, 0);
    }
}
