//! The assembled mobile-crane training simulator.
//!
//! Reproduces the deployment of the paper's §4: eight desktop computers on one
//! LAN — three display channels, one frame-synchronization server, and four
//! computers hosting the dynamics, dashboard + scenario, instructor + audio and
//! motion-platform modules — all glued together by the Communication Backbone.
//!
//! Since the fidelity-tier refactor, [`CraneSimulator`] is a thin facade over
//! a [`SimBackend`]: the deployment above lives in
//! [`crate::backend::FullFidelity`], and [`crate::backend::Coarse`] provides a
//! decimated, order(s)-of-magnitude cheaper tier behind the same API. The
//! facade dispatches on [`SimulatorConfig::tier`] at construction.

use cod_cluster::{BatchScratch, Cluster, ComputerId, FrameRecord};
use cod_net::{FaultPlan, LanStats, Micros};
use serde::{Deserialize, Serialize};

use crate::backend::{build_backend, SimBackend};
use crate::config::{FidelityTier, SimulatorConfig};
use crate::instructor::FaultInjector;
use crate::telemetry::{FrameDigest, SharedTelemetry, TelemetrySnapshot};
use cod_cb::CbError;
use crane_scene::course::Course;

/// Summary of a completed (or interrupted) training session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Session frames executed (equals cluster frames on the Full tier).
    pub frames_run: u64,
    /// Final exam score.
    pub score: f64,
    /// Final scenario phase.
    pub phase: String,
    /// Whether the exam was completed and passed.
    pub passed: bool,
    /// Number of scored bar collisions.
    pub bar_hits: u32,
    /// Total collision events observed.
    pub collisions: usize,
    /// Frame rate sustainable by the distributed cluster (pipelined execution).
    pub cluster_fps: f64,
    /// Frame rate a single computer running every module sequentially could sustain.
    pub sequential_fps: f64,
    /// Frame rate of the synchronized surround view (slowest channel + swap lock).
    pub synchronized_fps: f64,
    /// Frame rate of the slowest channel free-running (no swap lock).
    pub free_running_fps: f64,
    /// Latest per-channel modeled render times.
    pub channel_frame_times: Vec<Micros>,
    /// Largest hook swing amplitude observed, in metres.
    pub max_hook_swing: f64,
    /// Whether any motion-platform actuator saturated.
    pub platform_saturated: bool,
    /// Latest audio output level (RMS).
    pub audio_rms: f64,
    /// Virtual channels established across every CB.
    pub established_channels: usize,
    /// LAN traffic counters.
    pub lan: LanStats,
}

/// The assembled simulator: a facade over the [`SimBackend`] selected by
/// [`SimulatorConfig::tier`].
pub struct CraneSimulator {
    backend: Box<dyn SimBackend>,
}

impl CraneSimulator {
    /// Builds the deployment for the configured fidelity tier and runs the
    /// Communication Backbone initialization phase.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or a module fails to
    /// declare its publications and subscriptions.
    pub fn new(config: SimulatorConfig) -> Result<CraneSimulator, CbError> {
        Ok(CraneSimulator { backend: build_backend(config)? })
    }

    /// The fidelity tier serving this simulator.
    pub fn tier(&self) -> FidelityTier {
        self.backend.tier()
    }

    /// Read access to the backend, for code that needs tier-specific detail.
    pub fn backend(&self) -> &dyn SimBackend {
        self.backend.as_ref()
    }

    /// Recycles the simulator for a new session without tearing down the
    /// rack: the scene assets, CB kernels and established virtual channels
    /// are reused (the expensive initialization protocol does not run again)
    /// while every piece of session state — telemetry, LAN and fault
    /// counters, frame-sync barriers, module state, clocks and metrics — is
    /// rewound to the canonical session start. The configuration keeps its
    /// topology; only the session seed changes.
    ///
    /// Running `n` frames after this call produces a
    /// [`crate::TelemetryTrace`] bit-identical to a freshly built simulator
    /// with the same configuration and seed running `n` frames.
    ///
    /// Any fault plan installed for the previous session is removed; install
    /// the next session's plan after this call.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by a module's session reset.
    pub fn reset_for_session(&mut self, seed: u64) -> Result<(), CbError> {
        self.backend.reset_for_session(seed)
    }

    /// The configuration the simulator was built with.
    pub fn config(&self) -> &SimulatorConfig {
        self.backend.config()
    }

    /// The shared telemetry sink.
    pub fn telemetry(&self) -> &SharedTelemetry {
        self.backend.telemetry()
    }

    /// The instructor's fault-injection console.
    pub fn fault_injector(&self) -> &FaultInjector {
        self.backend.fault_injector()
    }

    /// Number of computers in the rack.
    pub fn computer_count(&self) -> usize {
        self.backend.cluster().computer_count()
    }

    /// The module placement: for each computer, its name and resident module names.
    pub fn rack_layout(&self) -> Vec<(String, Vec<String>)> {
        let cluster = self.backend.cluster();
        (0..cluster.computer_count())
            .map(|i| {
                let computer = cluster.computer(ComputerId(i));
                (
                    computer.name().to_owned(),
                    computer.lp_names().iter().map(|s| (*s).to_owned()).collect(),
                )
            })
            .collect()
    }

    /// Runs the configured number of exam frames.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by a module or the backbone.
    pub fn run(&mut self) -> Result<(), CbError> {
        let frames = self.backend.config().exam_frames;
        self.run_frames(frames)
    }

    /// Runs `frames` additional session frames.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by a module or the backbone.
    pub fn run_frames(&mut self, frames: usize) -> Result<(), CbError> {
        for _ in 0..frames {
            self.backend.step_frame(None)?;
        }
        Ok(())
    }

    /// Runs exactly one session frame and returns its step-level record — the
    /// hook the testkit uses to interleave trace recording and invariant
    /// checks with the executive. On a decimating tier, skipped frames return
    /// a zero-cost record.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by a module or the backbone.
    pub fn step_frame(&mut self) -> Result<FrameRecord, CbError> {
        self.backend.step_frame(None)
    }

    /// Read access to the underlying cluster (rack layout, metrics, kernels),
    /// used by invariant checkers to audit CB channel tables.
    pub fn cluster(&self) -> &Cluster {
        self.backend.cluster()
    }

    /// Installs a fault-injection plan on the cluster LAN. Usually called right
    /// after construction so the Communication Backbone initializes over a
    /// healthy network and the faults hit the running session.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.backend.set_fault_plan(plan);
    }

    /// Plugs an additional display channel into the running system — the
    /// dynamic-join capability the paper's §2.3 calls out ("an LP (an extra
    /// display, for example) can be dynamically added to the system without
    /// restarting the entire system").
    ///
    /// # Errors
    ///
    /// Returns an error if the new module fails to initialize.
    pub fn add_extra_display(&mut self) -> Result<(), CbError> {
        self.backend.add_extra_display()
    }

    /// A snapshot of the raw telemetry.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.backend.telemetry().snapshot()
    }

    /// A bit-exact digest of the current session state, in session-frame
    /// terms (see [`SimBackend::telemetry_digest`]).
    pub fn telemetry_digest(&self) -> FrameDigest {
        self.backend.telemetry_digest()
    }

    /// Builds the session report from the telemetry and cluster metrics.
    pub fn report(&self) -> SessionReport {
        self.backend.report()
    }

    /// The exam course in use (for operators and analysis code).
    pub fn course(&self) -> Course {
        Course::licensing_exam()
    }

    /// Mean modeled cost of running one session frame of this whole session
    /// on a single machine hosting the virtual cluster in-process — the
    /// placement hint a serving layer uses to predict shard load. Zero until
    /// a frame has run. Tier-specific: a Coarse session reports its decimated
    /// cost.
    pub fn session_cost_hint(&self) -> Micros {
        self.backend.session_cost_hint()
    }
}

/// Frame-level counters collected by [`step_frames_batch_traced`]: how many
/// session frames the batch actually stepped and how the cohort's wavebank
/// memo fared. Deterministic — a pure function of the cohort and the seed —
/// so observability sinks may fold them into fingerprinted reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStepStats {
    /// Session frames stepped across all members (budget-gated, so less than
    /// `members * max_budget` when budgets are ragged).
    pub frames_stepped: u64,
    /// Wavebank memo hits across the whole batch.
    pub memo_hits: u64,
    /// Wavebank memo misses (columns rendered then shared) across the batch.
    pub memo_misses: u64,
}

impl BatchStepStats {
    /// Accumulates another batch's counters into this one.
    pub fn merge(&mut self, other: &BatchStepStats) {
        self.frames_stepped += other.frames_stepped;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }
}

/// Advances a cohort of simulators frame-major and in lockstep: frame `k` of
/// every member runs before frame `k+1` of any of them, all sharing one
/// [`BatchScratch`] whose epoch advances per frame index. Each entry carries
/// its own frame budget; members whose budget is exhausted sit out the
/// remaining frames.
///
/// This is the data-parallel inner loop of the serving layer's batched
/// stepping: same-shape sessions admitted together keep their per-frame pure
/// work (waveform columns today, hoisted tables tomorrow) aligned, so the
/// scratch turns N copies of it into one. Returns the summed modeled cost of
/// each member's frames, in cohort order. Bit-identical to stepping every
/// member independently with [`CraneSimulator::step_frame`].
///
/// When `stats` is `Some`, the counters for this batch are *added* into it
/// (callers keep one accumulator across many cohorts); the stepping itself is
/// bit-identical either way.
///
/// # Errors
///
/// Returns the first error raised by any member's executive.
pub fn step_frames_batch_traced(
    batch: &mut [(&mut CraneSimulator, usize)],
    stats: Option<&mut BatchStepStats>,
) -> Result<Vec<Micros>, CbError> {
    let mut scratch = BatchScratch::new();
    let mut costs = vec![Micros::ZERO; batch.len()];
    let mut frames_stepped = 0u64;
    let frames = batch.iter().map(|(_, budget)| *budget).max().unwrap_or(0);
    for frame in 0..frames {
        scratch.begin_frame();
        for ((sim, budget), cost) in batch.iter_mut().zip(costs.iter_mut()) {
            if frame < *budget {
                let record = sim.backend.step_frame(Some(&mut scratch))?;
                for (_, c) in &record.costs {
                    *cost += *c;
                }
                frames_stepped += 1;
            }
        }
    }
    if let Some(stats) = stats {
        let (hits, misses) = crate::audio::wavebank_memo_stats(&mut scratch);
        stats.frames_stepped += frames_stepped;
        stats.memo_hits += hits;
        stats.memo_misses += misses;
    }
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OperatorKind;

    fn quick_config(operator: OperatorKind, frames: usize) -> SimulatorConfig {
        SimulatorConfig {
            operator,
            exam_frames: frames,
            display_width: 64,
            display_height: 48,
            ..SimulatorConfig::default()
        }
    }

    #[test]
    fn builds_the_eight_computer_rack_of_the_paper() {
        let simulator = CraneSimulator::new(quick_config(OperatorKind::Idle, 10)).unwrap();
        assert_eq!(simulator.tier(), FidelityTier::Full);
        assert_eq!(simulator.computer_count(), 8);
        let layout = simulator.rack_layout();
        let module_count: usize = layout.iter().map(|(_, lps)| lps.len()).sum();
        // Seven modules of Figure 3 (visual appears three times) plus the sync server.
        assert_eq!(module_count, 3 + 1 + 1 + 2 + 2 + 1);
        assert!(simulator.report().established_channels > 10, "CB discovery incomplete");
    }

    #[test]
    fn coarse_tier_builds_a_smaller_rack_behind_the_same_facade() {
        let config =
            SimulatorConfig { tier: FidelityTier::Coarse, ..quick_config(OperatorKind::Idle, 10) };
        let simulator = CraneSimulator::new(config).unwrap();
        assert_eq!(simulator.tier(), FidelityTier::Coarse);
        // One display channel instead of three: six computers, not eight.
        assert_eq!(simulator.computer_count(), 6);
        assert_eq!(simulator.config().tier, FidelityTier::Coarse);
    }

    #[test]
    fn idle_session_reproduces_the_paper_frame_rate_regime() {
        let mut simulator = CraneSimulator::new(quick_config(OperatorKind::Idle, 40)).unwrap();
        simulator.run().unwrap();
        let report = simulator.report();
        assert_eq!(report.frames_run, 40);
        assert!(
            report.synchronized_fps > 13.0 && report.synchronized_fps < 19.0,
            "synchronized fps = {}",
            report.synchronized_fps
        );
        assert!(report.free_running_fps > report.synchronized_fps);
        assert!(report.cluster_fps > report.sequential_fps, "the COD must beat one desktop PC");
        assert!(report.audio_rms > 0.0, "background noise missing");
        assert_eq!(report.channel_frame_times.len(), 3);
    }

    #[test]
    fn exam_session_starts_driving_toward_the_course() {
        let mut simulator = CraneSimulator::new(quick_config(OperatorKind::Exam, 200)).unwrap();
        simulator.run().unwrap();
        let snap = simulator.snapshot();
        let start_z = Course::licensing_exam().start_position.z;
        assert!(
            snap.crane.chassis_position.z > start_z + 5.0,
            "crane never moved: {:?}",
            snap.crane.chassis_position
        );
        assert!(snap.scenario.score <= 100.0);
        assert_eq!(snap.scenario.phase, "Driving");
        assert!(snap.status_window.boom_raise_deg > 0.0, "status window not populated");
        assert!(!snap.crane_track.is_empty());
    }

    #[test]
    fn reckless_operator_trips_instructor_alarms() {
        let mut simulator = CraneSimulator::new(quick_config(OperatorKind::Reckless, 550)).unwrap();
        simulator.run().unwrap();
        let snap = simulator.snapshot();
        assert!(
            !snap.alarm_events.is_empty(),
            "no alarm raised by a reckless operator: {:?}",
            snap.alarms
        );
    }

    #[test]
    fn extra_display_joins_the_running_system() {
        let mut simulator = CraneSimulator::new(quick_config(OperatorKind::Idle, 20)).unwrap();
        simulator.run_frames(20).unwrap();
        let before = simulator.computer_count();
        simulator.add_extra_display().unwrap();
        simulator.run_frames(60).unwrap();
        assert_eq!(simulator.computer_count(), before + 1);
        let report = simulator.report();
        // The new channel renders and reports a frame time like the others.
        assert_eq!(report.channel_frame_times.len(), 4);
        assert!(report.channel_frame_times[3] > Micros::ZERO);
    }

    #[test]
    fn cpu_speed_scales_modeled_cost_but_not_physics() {
        let base = quick_config(OperatorKind::Exam, 60);
        let mut reference = CraneSimulator::new(base).unwrap();
        let mut fast = CraneSimulator::new(SimulatorConfig { cpu_speed: 2.0, ..base }).unwrap();
        reference.run().unwrap();
        fast.run().unwrap();
        let slow_report = reference.report();
        let fast_report = fast.report();
        // Physics, scoring and telemetry are speed-independent...
        assert_eq!(slow_report.score, fast_report.score);
        assert_eq!(slow_report.passed, fast_report.passed);
        assert_eq!(slow_report.frames_run, fast_report.frames_run);
        assert_eq!(reference.snapshot().crane, fast.snapshot().crane);
        // ...while the modeled CPU cost halves on a 2x machine.
        assert!(fast.session_cost_hint() < reference.session_cost_hint());
        assert!(fast_report.sequential_fps > slow_report.sequential_fps);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = SimulatorConfig { display_channels: 0, ..SimulatorConfig::default() };
        assert!(CraneSimulator::new(bad).is_err());
    }

    fn cohort(tier: FidelityTier, n: usize, frames: usize) -> Vec<CraneSimulator> {
        (0..n)
            .map(|k| {
                let config = SimulatorConfig {
                    tier,
                    seed: 0xBA7C + k as u64,
                    ..quick_config(OperatorKind::Exam, frames)
                };
                CraneSimulator::new(config).unwrap()
            })
            .collect()
    }

    #[test]
    fn batched_cohort_is_bit_identical_to_scalar_stepping() {
        for tier in [FidelityTier::Full, FidelityTier::Coarse] {
            let frames = 24;
            let mut scalar = cohort(tier, 3, frames);
            let mut batched = cohort(tier, 3, frames);

            let mut scalar_costs = vec![Micros::ZERO; scalar.len()];
            for (sim, cost) in scalar.iter_mut().zip(scalar_costs.iter_mut()) {
                for _ in 0..frames {
                    let record = sim.step_frame().unwrap();
                    for (_, c) in &record.costs {
                        *cost += *c;
                    }
                }
            }

            let mut batch: Vec<(&mut CraneSimulator, usize)> =
                batched.iter_mut().map(|sim| (sim, frames)).collect();
            let batched_costs = step_frames_batch_traced(&mut batch, None).unwrap();

            assert_eq!(scalar_costs, batched_costs, "modeled costs diverged on {tier:?}");
            for (a, b) in scalar.iter().zip(batched.iter()) {
                assert_eq!(
                    a.telemetry_digest(),
                    b.telemetry_digest(),
                    "telemetry diverged on {tier:?}"
                );
            }
        }
    }

    #[test]
    fn batch_members_with_uneven_budgets_sit_out_extra_frames() {
        let mut scalar = cohort(FidelityTier::Full, 2, 20);
        let mut batched = cohort(FidelityTier::Full, 2, 20);
        let budgets = [20usize, 7];

        for (sim, budget) in scalar.iter_mut().zip(budgets) {
            for _ in 0..budget {
                sim.step_frame().unwrap();
            }
        }
        let mut batch: Vec<(&mut CraneSimulator, usize)> =
            batched.iter_mut().zip(budgets).map(|(sim, budget)| (sim, budget)).collect();
        step_frames_batch_traced(&mut batch, None).unwrap();

        for ((a, b), budget) in scalar.iter().zip(batched.iter()).zip(budgets) {
            assert_eq!(a.backend().frames_run(), budget as u64);
            assert_eq!(a.telemetry_digest(), b.telemetry_digest());
        }
    }
}
