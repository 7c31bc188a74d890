//! Shared telemetry collected from the running modules.
//!
//! The modules run as Logical Processes owned by the cluster executive, so the
//! surrounding application (examples, benches, tests) observes a session
//! through this shared, lock-protected telemetry sink instead of poking into
//! the LPs directly.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cod_net::{LanStats, Micros};
use sim_math::Fnv1a;

use crate::fom::{CollisionMsg, CraneStateMsg, HookStateMsg, ScenarioStateMsg};

/// The instructor's Status window (paper Figure 5): the quantities displayed
/// on the four sub-windows plus the dialogue boxes and alarm lamps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatusWindow {
    /// Current swinging (slew) angle of the derrick boom, degrees.
    pub boom_swing_deg: f64,
    /// Raising (luffing) angle of the derrick boom, degrees.
    pub boom_raise_deg: f64,
    /// Current length of the plumb cable, metres.
    pub cable_length_m: f64,
    /// Elongated length of the derrick boom, metres.
    pub boom_length_m: f64,
    /// Exam score currently displayed.
    pub score: f64,
    /// Scenario phase text.
    pub phase: String,
    /// Active alarm codes.
    pub active_alarms: Vec<u32>,
}

/// The instructor's Dashboard window (paper Figure 6): the mirror of the
/// instruments inside the mockup.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DashboardWindow {
    /// Speedometer reading in km/h.
    pub speed_kmh: f64,
    /// Engine load gauge in `[0, 1]`.
    pub engine_load: f64,
    /// Load-moment indicator in `[0, ...)`, 1.0 = rated limit.
    pub load_moment: f64,
    /// Steering wheel position mirrored from the mockup.
    pub steering: f64,
    /// Whether the reverse gear lamp is lit.
    pub reverse: bool,
}

/// Everything the telemetry sink accumulates over a session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Frames the visual channels have completed.
    pub frames: u64,
    /// Latest crane state seen by any module.
    pub crane: CraneStateMsg,
    /// Latest hook/cargo state.
    pub hook: HookStateMsg,
    /// Latest scenario state (phase, score).
    pub scenario: ScenarioStateMsg,
    /// The instructor's Status window.
    pub status_window: StatusWindow,
    /// The instructor's Dashboard window.
    pub dashboard_window: DashboardWindow,
    /// All collision events observed so far.
    pub collisions: Vec<CollisionMsg>,
    /// Alarm states keyed by alarm code.
    pub alarms: BTreeMap<u32, bool>,
    /// Every alarm code that has been *raised* during the session, in order.
    pub alarm_events: Vec<u32>,
    /// Latest per-channel modeled render times.
    pub channel_frame_times: Vec<Micros>,
    /// Per-channel swap counts of the frame-sync protocol (lock-step progress).
    pub channel_frames_swapped: Vec<u64>,
    /// Largest hook swing amplitude sampled so far (metres; zero before the
    /// first sample).
    pub max_swing: f64,
    /// Latest hook swing amplitude sample (metres; zero before the first).
    pub last_swing: f64,
    /// Latest audio output level (RMS of the last rendered block).
    pub audio_rms: f64,
    /// Whether any motion-platform actuator saturated during the session.
    pub platform_saturated: bool,
}

/// A cloneable handle to the shared telemetry sink.
#[derive(Debug, Clone, Default)]
pub struct SharedTelemetry {
    inner: Arc<Mutex<TelemetrySnapshot>>,
}

impl SharedTelemetry {
    /// Creates an empty sink.
    pub fn new() -> SharedTelemetry {
        SharedTelemetry::default()
    }

    fn lock(&self) -> MutexGuard<'_, TelemetrySnapshot> {
        self.inner.lock().expect("telemetry sink poisoned")
    }

    /// Takes a consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.lock().clone()
    }

    /// Runs a closure with read access to everything recorded so far, without
    /// copying it. The sink stays locked until the closure returns, so the
    /// closure must not reach the sink again.
    pub fn read<R>(&self, f: impl FnOnce(&TelemetrySnapshot) -> R) -> R {
        f(&self.lock())
    }

    /// Runs a closure with mutable access to the telemetry data.
    pub fn update<R>(&self, f: impl FnOnce(&mut TelemetrySnapshot) -> R) -> R {
        f(&mut self.lock())
    }

    /// Clears everything recorded so far (session recycling); all clones of
    /// the handle observe the reset.
    pub fn reset(&self) {
        *self.lock() = TelemetrySnapshot::default();
    }
}

/// A bit-exact digest of one executive frame, derived from the telemetry and
/// LAN counters. Floating-point fields are stored as raw IEEE-754 bits so two
/// digests compare equal exactly when the underlying runs were bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDigest {
    /// Zero-based frame index.
    pub frame: u64,
    /// Simulation time at the end of the frame.
    pub now: Micros,
    /// Exam score bits.
    pub score_bits: u64,
    /// Scenario phase text.
    pub phase: String,
    /// Chassis position component bits.
    pub chassis_bits: [u64; 3],
    /// Latest hook-swing sample bits (zero before the first sample).
    pub swing_bits: u64,
    /// Collision events observed so far.
    pub collisions: u64,
    /// Alarm events raised so far.
    pub alarm_events: u64,
    /// Per-channel frame-sync swap counts.
    pub channel_swaps: Vec<u64>,
    /// Datagrams accepted by the LAN so far.
    pub datagrams_sent: u64,
    /// Datagrams dropped by the LAN so far (loss model plus injected faults).
    pub datagrams_dropped: u64,
}

impl FrameDigest {
    /// Digests the telemetry and LAN counters after frame `frame` ended at `now`.
    pub fn capture(frame: u64, now: Micros, snap: &TelemetrySnapshot, lan: &LanStats) -> Self {
        FrameDigest {
            frame,
            now,
            score_bits: snap.scenario.score.to_bits(),
            phase: snap.scenario.phase.clone(),
            chassis_bits: [
                snap.crane.chassis_position.x.to_bits(),
                snap.crane.chassis_position.y.to_bits(),
                snap.crane.chassis_position.z.to_bits(),
            ],
            swing_bits: snap.last_swing.to_bits(),
            collisions: snap.collisions.len() as u64,
            alarm_events: snap.alarm_events.len() as u64,
            channel_swaps: snap.channel_frames_swapped.clone(),
            datagrams_sent: lan.datagrams_sent,
            datagrams_dropped: lan.datagrams_dropped,
        }
    }

    /// A 64-bit FNV-1a fingerprint of every field. Variable-length fields are
    /// length-prefixed so neighbouring fields can never absorb their bytes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.frame);
        h.write_u64(self.now.0);
        h.write_u64(self.score_bits);
        h.write_u64(self.phase.len() as u64);
        h.write_bytes(self.phase.as_bytes());
        for bits in self.chassis_bits {
            h.write_u64(bits);
        }
        h.write_u64(self.swing_bits);
        h.write_u64(self.collisions);
        h.write_u64(self.alarm_events);
        h.write_u64(self.channel_swaps.len() as u64);
        for swaps in &self.channel_swaps {
            h.write_u64(*swaps);
        }
        h.write_u64(self.datagrams_sent);
        h.write_u64(self.datagrams_dropped);
        h.finish()
    }
}

/// A frame-by-frame trace of a session: one [`FrameDigest`] per executive
/// frame. Two runs of the same seeded scenario must produce equal traces; when
/// they do not, [`TelemetryTrace::first_divergence`] pins the first bad frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryTrace {
    /// The recorded digests in frame order.
    pub digests: Vec<FrameDigest>,
}

impl TelemetryTrace {
    /// An empty trace.
    pub fn new() -> TelemetryTrace {
        TelemetryTrace::default()
    }

    /// Appends one frame's digest.
    pub fn record(&mut self, digest: FrameDigest) {
        self.digests.push(digest);
    }

    /// Number of recorded frames.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// The first frame index at which the two traces differ, or `None` when
    /// they are identical (including equal length).
    pub fn first_divergence(&self, other: &TelemetryTrace) -> Option<u64> {
        for (a, b) in self.digests.iter().zip(&other.digests) {
            if a != b {
                return Some(a.frame);
            }
        }
        if self.digests.len() != other.digests.len() {
            return Some(self.digests.len().min(other.digests.len()) as u64);
        }
        None
    }

    /// A fingerprint over the whole trace, for compact reporting.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.digests.len() as u64);
        for digest in &self.digests {
            h.write_u64(digest.fingerprint());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_a_copy() {
        let t = SharedTelemetry::new();
        t.update(|d| {
            d.frames = 3;
            d.scenario.score = 90.0;
            d.alarms.insert(1, true);
        });
        let snap = t.snapshot();
        assert_eq!(snap.frames, 3);
        assert_eq!(snap.scenario.score, 90.0);
        t.update(|d| d.frames = 10);
        assert_eq!(snap.frames, 3, "snapshot must not follow later updates");
        assert_eq!(t.snapshot().frames, 10);
    }

    #[test]
    fn handles_share_the_same_sink() {
        let a = SharedTelemetry::new();
        let b = a.clone();
        a.update(|d| d.audio_rms = 0.5);
        assert_eq!(b.snapshot().audio_rms, 0.5);
    }

    fn digest(frame: u64, score: f64) -> FrameDigest {
        let mut snap = TelemetrySnapshot::default();
        snap.scenario.score = score;
        snap.channel_frames_swapped = vec![frame, frame];
        FrameDigest::capture(frame, Micros(frame * 62_500), &snap, &LanStats::default())
    }

    #[test]
    fn identical_traces_have_no_divergence_and_equal_fingerprints() {
        let mut a = TelemetryTrace::new();
        let mut b = TelemetryTrace::new();
        for i in 0..10 {
            a.record(digest(i, 100.0));
            b.record(digest(i, 100.0));
        }
        assert_eq!(a, b);
        assert_eq!(a.first_divergence(&b), None);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn divergence_reports_the_first_differing_frame() {
        let mut a = TelemetryTrace::new();
        let mut b = TelemetryTrace::new();
        for i in 0..10 {
            a.record(digest(i, 100.0));
            b.record(digest(i, if i < 7 { 100.0 } else { 95.0 }));
        }
        assert_eq!(a.first_divergence(&b), Some(7));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn length_mismatch_is_a_divergence() {
        let mut a = TelemetryTrace::new();
        let mut b = TelemetryTrace::new();
        a.record(digest(0, 100.0));
        a.record(digest(1, 100.0));
        b.record(digest(0, 100.0));
        assert_eq!(a.first_divergence(&b), Some(1));
        assert!(!a.is_empty());
    }

    #[test]
    fn digest_is_bit_exact_about_the_score() {
        // 0.1 + 0.2 != 0.3 bit-wise: the digest must see the difference.
        assert_ne!(digest(0, 0.1 + 0.2), digest(0, 0.3));
        assert_eq!(digest(3, 42.0), digest(3, 42.0));
    }
}
