//! Frame-rate synchronization of the surround-view display channels.
//!
//! In the implemented system (paper §4) the top three computers of the rack
//! drive the three monitors of the surround view and "the fourth computer from
//! the top is the synchronization server that synchronizes the frame rate of
//! the above three graphical computers". This module is the one owner of that
//! swap lock:
//!
//! * [`FrameSyncClasses`] — the `FrameReady` and `FrameGo` interactions the
//!   protocol speaks, each declared once as a field list.
//! * [`FrameSyncServer`] — the synchronization-server LP: it waits until every
//!   display channel has reported that its frame is rendered, then releases the
//!   swap for that frame.
//! * [`FrameSyncClient`] — the client half embedded in a display LP.
//! * [`synchronized_period`] and [`SWAP_LOCK_BARRIER`] — the frame period the
//!   lock imposes: the slowest channel plus the barrier. The session report
//!   and the frame-rate experiment (E1) read the period from here.

use cod_cb::{fom_classes, CbApi, CbError, ClassRegistry, InteractionClassId};
use cod_net::Micros;

use crate::lp::LogicalProcess;

/// The barrier the rack's synchronization server adds to every frame on top
/// of the slowest display channel: a LAN round trip plus server processing.
pub const SWAP_LOCK_BARRIER: Micros = Micros::from_millis(3);

/// Frame period of the swap-locked surround view: the slowest channel's
/// frame time plus `barrier`, or zero while no channel has a frame time yet.
pub fn synchronized_period(channel_times: &[Micros], barrier: Micros) -> Micros {
    match channel_times.iter().copied().max() {
        None | Some(Micros::ZERO) => Micros::ZERO,
        Some(slowest) => slowest + barrier,
    }
}

fom_classes! {
    /// A display channel finished rendering `frame`.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    struct FrameReady {
        channel: u32,
        frame: u32,
    }

    /// The server releases the swap for `frame`.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    struct FrameGo {
        frame: u32,
    }
}

/// Handles of the frame-synchronization interactions in the shared FOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSyncClasses {
    /// "FrameReady" interaction: a display channel finished rendering a frame.
    pub frame_ready: InteractionClassId,
    /// "FrameGo" interaction: the server releases the swap for a frame.
    pub frame_go: InteractionClassId,
}

impl FrameSyncClasses {
    /// Declares the synchronization interactions in the shared FOM.
    ///
    /// # Errors
    ///
    /// Returns an error if the class names are already taken.
    pub fn register(fom: &mut ClassRegistry) -> Result<FrameSyncClasses, CbError> {
        Ok(FrameSyncClasses {
            frame_ready: fom.register_interaction_class("FrameReady", FrameReady::NAMES)?,
            frame_go: fom.register_interaction_class("FrameGo", FrameGo::NAMES)?,
        })
    }
}

/// The synchronization server LP (the fourth computer of the rack).
#[derive(Debug)]
pub struct FrameSyncServer {
    classes: FrameSyncClasses,
    /// The channels a frame waits for: the rack's, plus every channel
    /// plugged in since, admitted when it first reports the frame being
    /// collected.
    expected_channels: usize,
    current_frame: u64,
    /// The channels that reported `current_frame` rendered, each once.
    ready: Vec<u32>,
    /// Already-released frames reported in the latest step, sorted and
    /// without duplicates; kept between steps only for its capacity.
    stale: Vec<u64>,
    frames_released: u64,
    go_resends: u64,
    step_cost: Micros,
}

impl FrameSyncServer {
    /// Creates a server that waits for `expected_channels` display channels
    /// per frame. A channel whose index is `expected_channels` or above
    /// joins the lock when it first reports the frame being collected.
    ///
    /// # Panics
    ///
    /// Panics if `expected_channels` is zero.
    pub fn new(classes: FrameSyncClasses, expected_channels: usize) -> FrameSyncServer {
        assert!(expected_channels > 0, "at least one display channel is required");
        FrameSyncServer {
            classes,
            expected_channels,
            current_frame: 0,
            ready: Vec::new(),
            stale: Vec::new(),
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
        self.ready.clear();
        self.frames_released = 0;
        self.go_resends = 0;
    }

    fn send_go(&self, cb: &mut dyn CbApi, frame: u64) -> Result<(), CbError> {
        cb.send_interaction(self.classes.frame_go, FrameGo { frame: frame as u32 }.to_values())
    }
}

impl LogicalProcess for FrameSyncServer {
    fn name(&self) -> &str {
        "frame-sync-server"
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.subscribe_interaction_class(self.classes.frame_ready)
    }

    fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
        self.stale.clear();
        for interaction in cb.interactions() {
            if interaction.class != self.classes.frame_ready {
                continue;
            }
            let FrameReady { channel, frame } = FrameReady::from_values(&interaction.parameters);
            let frame = u64::from(frame);
            // A channel reports frame N only after the server released N - 1,
            // so no report is ever ahead of the frame being collected.
            debug_assert!(frame <= self.current_frame, "ready for frame {frame} ahead");
            if frame < self.current_frame {
                // A ready report for an already-released frame means the LAN
                // lost the FrameGo on the way to that channel; re-release it.
                self.stale.push(frame);
            } else if frame == self.current_frame && !self.ready.contains(&channel) {
                self.ready.push(channel);
                // A display plugged into the running rack joins the lock.
                self.expected_channels = self.expected_channels.max(channel as usize + 1);
            }
        }
        self.stale.sort_unstable();
        self.stale.dedup();
        for &frame in &self.stale {
            self.send_go(cb, frame)?;
            self.go_resends += 1;
        }

        // Release the swap for the current frame once every channel reported.
        // Reports for the next frame cannot arrive before this release, so
        // one release per step is all there is.
        if self.ready.len() >= self.expected_channels {
            self.send_go(cb, self.current_frame)?;
            self.ready.clear();
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
    classes: FrameSyncClasses,
    channel_index: u32,
    frame: u64,
    waiting_for_go: bool,
    frames_swapped: u64,
    stalled_polls: u32,
    ready_resends: u64,
}

impl FrameSyncClient {
    /// Creates the client for display channel `channel_index`.
    pub fn new(classes: FrameSyncClasses, channel_index: u32) -> FrameSyncClient {
        FrameSyncClient {
            classes,
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
        cb.subscribe_interaction_class(self.classes.frame_go)
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

    fn send_ready(&self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        let ready = FrameReady { channel: self.channel_index, frame: self.frame as u32 };
        cb.send_interaction(self.classes.frame_ready, ready.to_values())
    }

    /// Reports that rendering of the current frame finished and blocks the
    /// channel until the server releases the swap.
    ///
    /// # Errors
    ///
    /// Returns an error if the CB rejects the interaction.
    pub fn report_ready(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        self.send_ready(cb)?;
        self.waiting_for_go = true;
        self.stalled_polls = 0;
        Ok(())
    }

    /// Processes any pending release messages; returns `true` if the swap for
    /// the current frame was released (the channel may start the next frame).
    /// A release of a later frame than this channel's — the first one a
    /// display plugged into the running rack hears — moves the channel on to
    /// the frame after it, the frame the other channels work on.
    pub fn poll_release(&mut self, cb: &mut dyn CbApi) -> bool {
        let mut released = None;
        for interaction in cb.interactions() {
            if interaction.class != self.classes.frame_go {
                continue;
            }
            let go = u64::from(FrameGo::from_values(&interaction.parameters).frame);
            if go >= self.frame {
                released = released.max(Some(go));
            }
        }
        if let Some(go) = released.filter(|_| self.waiting_for_go) {
            self.waiting_for_go = false;
            self.stalled_polls = 0;
            self.frame = go + 1;
            self.frames_swapped += 1;
        } else if self.waiting_for_go {
            self.stalled_polls += 1;
        }
        released.is_some()
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
        self.send_ready(cb)?;
        self.stalled_polls = 0;
        self.ready_resends += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use cod_cb::{AttributeId, AttributeValues, CbKernel, LpContext, LpId, Value};
    use cod_net::{Addr, NodeId, Port};
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
        let sync_fom = FrameSyncClasses::register(&mut fom).unwrap();

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
        let sync_fom = FrameSyncClasses::register(&mut fom).unwrap();
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
        let sync_fom = FrameSyncClasses::register(&mut fom).unwrap();
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
        let barrier = Micros::from_millis(1) + Micros(500);
        let channels = [Micros::from_millis(45), Micros::from_millis(50), Micros::from_millis(48)];
        let sync = synchronized_period(&channels, barrier);
        assert_eq!(sync, Micros::from_millis(50) + Micros::from_millis(1) + Micros(500));
        assert_eq!(
            synchronized_period(&channels, SWAP_LOCK_BARRIER),
            Micros::from_millis(50) + Micros::from_millis(3)
        );
        // Before any channel has a frame time the period reads zero.
        assert_eq!(synchronized_period(&[], barrier), Micros::ZERO);
        assert_eq!(synchronized_period(&[Micros::ZERO; 3], barrier), Micros::ZERO);
    }

    #[test]
    fn more_channels_do_not_change_the_synchronized_period_model() {
        // Channels render in parallel on their own computers, so the period
        // is set by the slowest channel plus the barrier, whatever the count.
        let frame = Micros::from_millis(50);
        let three = synchronized_period(&[frame; 3], SWAP_LOCK_BARRIER);
        let five = synchronized_period(&[frame; 5], SWAP_LOCK_BARRIER);
        assert_eq!(three, five);
        assert_eq!(three, frame + SWAP_LOCK_BARRIER);
    }

    /// A server waiting for `expected_channels` channels and one display LP
    /// on one CB kernel, each subscribed as in a rack. The tests send every
    /// channel's reports from that one LP.
    fn barrier_on_one_kernel(
        expected_channels: usize,
    ) -> (CbKernel, FrameSyncServer, LpId, LpId, FrameSyncClasses) {
        let mut fom = ClassRegistry::new();
        let classes = FrameSyncClasses::register(&mut fom).unwrap();
        let mut kernel = CbKernel::new(Addr::new(NodeId(0), Port(1)), fom);
        let (server_lp, display_lp) = (kernel.register_lp(), kernel.register_lp());
        let mut server = FrameSyncServer::new(classes, expected_channels);
        server.init(&mut LpContext::new(&mut kernel, server_lp)).unwrap();
        FrameSyncClient::new(classes, 0)
            .init(&mut LpContext::new(&mut kernel, display_lp))
            .unwrap();
        (kernel, server, server_lp, display_lp, classes)
    }

    /// The frames of the FrameGo releases queued for `lp`.
    fn releases(kernel: &mut CbKernel, lp: LpId) -> Vec<u32> {
        let interactions = LpContext::new(kernel, lp).interactions();
        interactions.iter().map(|i| FrameGo::from_values(&i.parameters).frame).collect()
    }

    #[test]
    fn a_duplicated_ready_from_one_channel_does_not_release_a_frame() {
        let (mut kernel, mut server, server_lp, display_lp, classes) = barrier_on_one_kernel(2);
        let mut left = FrameSyncClient::new(classes, 0);
        let mut ctx = LpContext::new(&mut kernel, display_lp);
        left.report_ready(&mut ctx).unwrap();
        left.report_ready(&mut ctx).unwrap();
        server.step(&mut LpContext::new(&mut kernel, server_lp), 0.0).unwrap();
        assert_eq!(server.frames_released(), 0, "one channel reported twice, not two once");
        assert!(releases(&mut kernel, display_lp).is_empty());

        FrameSyncClient::new(classes, 1)
            .report_ready(&mut LpContext::new(&mut kernel, display_lp))
            .unwrap();
        server.step(&mut LpContext::new(&mut kernel, server_lp), 0.0).unwrap();
        assert_eq!((server.frames_released(), server.current_frame()), (1, 1));
        assert_eq!(releases(&mut kernel, display_lp), [0]);
    }

    #[test]
    fn a_stale_ready_re_releases_its_frame_once_in_frame_order() {
        let (mut kernel, mut server, server_lp, display_lp, classes) = barrier_on_one_kernel(1);
        let report = |kernel: &mut CbKernel, frame: u32| {
            let ready = FrameReady { channel: 0, frame }.to_values();
            LpContext::new(kernel, display_lp)
                .send_interaction(classes.frame_ready, ready)
                .unwrap();
        };
        for frame in 0..2 {
            report(&mut kernel, frame);
            server.step(&mut LpContext::new(&mut kernel, server_lp), 0.0).unwrap();
            assert_eq!(releases(&mut kernel, display_lp), [frame]);
        }
        assert_eq!((server.go_resends(), server.current_frame()), (0, 2));

        // Suppose both releases were lost on the LAN: the channel's reports
        // for the released frames 1, 0 and 1 again reach the server in one
        // step. Each frame is released again once, in frame order.
        for frame in [1, 0, 1] {
            report(&mut kernel, frame);
        }
        server.step(&mut LpContext::new(&mut kernel, server_lp), 0.0).unwrap();
        assert_eq!(releases(&mut kernel, display_lp), [0, 1]);
        assert_eq!((server.go_resends(), server.frames_released()), (2, 2));
    }

    /// `to_values` writes each field straight into the encoding; the bytes
    /// are the ones inserting each field's `Value` in id order writes.
    #[test]
    fn the_sync_messages_encode_as_their_values_inserted_in_id_order() {
        let ready: AttributeValues =
            [(AttributeId(0), Value::U32(2)), (AttributeId(1), Value::U32(70_000))].into();
        assert_eq!(FrameReady { channel: 2, frame: 70_000 }.to_values(), ready);
        let go: AttributeValues = [(AttributeId(0), Value::U32(9))].into();
        assert_eq!(FrameGo { frame: 9 }.to_values(), go);
    }

    #[test]
    #[should_panic]
    fn zero_channel_server_rejected() {
        let mut fom = ClassRegistry::new();
        let sync_fom = FrameSyncClasses::register(&mut fom).unwrap();
        let _ = FrameSyncServer::new(sync_fom, 0);
    }
}
