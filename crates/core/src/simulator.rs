//! The assembled mobile-crane training simulator.
//!
//! Reproduces the deployment of the paper's §4: eight desktop computers on one
//! LAN — three display channels, one frame-synchronization server, and four
//! computers hosting the dynamics, dashboard + scenario, instructor + audio and
//! motion-platform modules — all glued together by the Communication Backbone.
//!
//! There is one rack. A [`FidelityTier`] only sizes and paces it: the tier
//! picks how many display PCs are racked ([`FidelityTier::display_channels`])
//! and how many session frames one cluster frame absorbs
//! ([`FidelityTier::decimation`]), with the integrator step stretched by the
//! same factor so a session covers the same simulated duration on every tier.
//! Both tiers are deterministic functions of (config, seed), so a serving
//! layer can move a live session between them with the same replay machinery
//! it uses for cross-shard migration: extract the portable state, rebuild on
//! the other tier, replay the frames done so far.

use cod_cluster::{
    frame_period_for_fps, synchronized_period, Cluster, ClusterConfig, ComputerId, FrameRecord,
    FrameSyncServer, SWAP_LOCK_BARRIER,
};
use cod_net::{FaultPlan, LanConfig, LanStats, Micros};
use render_sim::GpuCostModel;

use crate::audio::AudioLp;
use crate::config::{FidelityTier, GpuGeneration, OperatorKind, SimulatorConfig};
use crate::dashboard::DashboardLp;
use crate::dynamics::DynamicsLp;
use crate::fom::CraneFom;
use crate::instructor::{FaultInjector, InstructorLp};
use crate::motion::MotionPlatformLp;
use crate::operator::{ExamOperator, IdleOperator, Operator, RecklessOperator};
use crate::scenario::ScenarioLp;
use crate::telemetry::{FrameDigest, SharedTelemetry, TelemetrySnapshot};
use crate::visual::VisualDisplayLp;
use cod_cb::{CbError, ClassRegistry};
use crane_scene::course::Course;

/// Summary of a completed (or interrupted) training session.
#[derive(Debug, Clone, PartialEq)]
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

/// The operator model for a configuration.
fn make_operator(kind: OperatorKind) -> Box<dyn Operator> {
    match kind {
        OperatorKind::Exam => Box::new(ExamOperator::new(Course::licensing_exam())),
        OperatorKind::Idle => Box::new(IdleOperator),
        OperatorKind::Reckless => Box::new(RecklessOperator::default()),
    }
}

/// The assembled simulator: the rack sized and paced by
/// [`SimulatorConfig::tier`].
///
/// A simulator is a deterministic function of its configuration and session
/// seed: equal (config, seed) pairs stepped the same number of *session*
/// frames produce bit-identical telemetry — which is what lets a fleet
/// recycle racks and promote or demote live sessions by replay.
///
/// Three levers make the Coarse tier order(s) of magnitude cheaper than the
/// Full one while keeping the same (seeded, deterministic) physics models:
///
/// * **One display channel** instead of three — the visual pipeline dominates
///   the full rack's modeled cost.
/// * **Frame decimation** — only every [`FidelityTier::decimation`]-th
///   session frame steps the cluster; the rest return a zero-cost record.
///   Collision checks and telemetry consequently sample at the decimated
///   rate ("aggregated collision, decimated telemetry").
/// * **Reduced integrator rate** — the cluster runs at
///   `target_fps / decimation`, so each cluster frame integrates a
///   proportionally longer `dt`.
///
/// Scores stay comparable because the scenario grades elapsed simulated time
/// and collisions, neither of which depends on channel count; the coarser
/// integration step is the only drift source, bounded by
/// [`crate::SCORE_DRIFT_TOLERANCE`].
pub struct CraneSimulator {
    /// The caller's configuration; the racked channel count and the cluster
    /// frame rate are derived from it through the tier.
    config: SimulatorConfig,
    cluster: Cluster,
    telemetry: SharedTelemetry,
    fault_injector: FaultInjector,
    registry: ClassRegistry,
    fom: CraneFom,
    display_count: usize,
    /// Simulation time at which sessions start (the end of CB initialization);
    /// session resets rewind the whole cluster to this instant.
    session_epoch: Micros,
    /// Session frames per cluster frame ([`FidelityTier::decimation`]).
    decimation: u64,
    /// Session frames stepped since the last reset (≥ cluster frames run).
    session_frames: u64,
}

impl CraneSimulator {
    /// Builds the rack for the configured fidelity tier and runs the
    /// Communication Backbone initialization phase.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or a module fails to
    /// declare its publications and subscriptions.
    pub fn new(config: SimulatorConfig) -> Result<CraneSimulator, CbError> {
        config.validate().map_err(CbError::Codec)?;
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();
        let decimation = config.tier.decimation();
        let channels = config.tier.display_channels(config.display_channels);
        // Everything but the channel count and the rate — operator, seed,
        // cargo, resolution — is the caller's on every tier, so the physics
        // follow the same course.
        let cluster_fps = config.target_fps / decimation as f64;
        let (instructor, fault_injector) =
            InstructorLp::new(registry.clone(), fom, telemetry.clone());

        let cluster_config = ClusterConfig {
            lan: LanConfig::fast_ethernet(config.seed),
            frame_period: frame_period_for_fps(cluster_fps),
            init_rounds: 120,
        };
        let mut sim = CraneSimulator {
            config,
            cluster: Cluster::new(cluster_config, registry.clone()),
            telemetry: telemetry.clone(),
            fault_injector,
            registry: registry.clone(),
            fom,
            display_count: channels,
            session_epoch: Micros::ZERO,
            decimation,
            session_frames: 0,
        };

        // The top of the rack: one computer per display channel.
        for channel in 0..channels {
            sim.add_display(channel, channels)?;
        }
        // The next computer: the synchronization server.
        let sync_pc = sim.add_computer("sync-server");
        sim.cluster.add_lp(sync_pc, Box::new(FrameSyncServer::new(fom.sync, channels)))?;

        // The remaining computers host the other modules.
        let dynamics_pc = sim.add_computer("dynamics-pc");
        sim.cluster.add_lp(
            dynamics_pc,
            Box::new(DynamicsLp::new(
                registry.clone(),
                fom,
                config.cargo_mass_kg,
                telemetry.clone(),
            )),
        )?;

        let control_pc = sim.add_computer("control-pc");
        let operator = make_operator(config.operator);
        sim.cluster.add_lp(
            control_pc,
            Box::new(DashboardLp::new(registry.clone(), fom, operator, telemetry.clone())),
        )?;
        sim.cluster.add_lp(
            control_pc,
            Box::new(ScenarioLp::new(registry.clone(), fom, telemetry.clone())),
        )?;

        let instructor_pc = sim.add_computer("instructor-pc");
        sim.cluster.add_lp(instructor_pc, Box::new(instructor))?;
        sim.cluster.add_lp(
            instructor_pc,
            Box::new(AudioLp::new(registry.clone(), fom, telemetry.clone())),
        )?;

        let motion_pc = sim.add_computer("motion-pc");
        sim.cluster.add_lp(
            motion_pc,
            Box::new(MotionPlatformLp::new(registry, fom, cluster_fps, config.seed, telemetry)),
        )?;

        sim.cluster.initialize()?;
        // Every session — the first one included — starts from the canonical
        // post-initialization state, so a recycled simulator replays a fresh
        // one bit for bit.
        sim.session_epoch = sim.cluster.now();
        sim.reset_for_session(config.seed)?;
        Ok(sim)
    }

    fn add_computer(&mut self, name: &str) -> ComputerId {
        self.cluster.add_computer_with_speed(name, self.config.cpu_speed)
    }

    /// Racks one more display PC rendering `channel` of a `total`-channel
    /// surround view.
    fn add_display(&mut self, channel: usize, total: usize) -> Result<(), CbError> {
        let gpu = match self.config.gpu {
            GpuGeneration::Tnt2 => GpuCostModel::tnt2_class(),
            GpuGeneration::NextGeneration => GpuCostModel::next_generation(),
        };
        let pc = self.add_computer(&format!("display-{channel}"));
        self.cluster.add_lp(
            pc,
            Box::new(VisualDisplayLp::new(
                self.registry.clone(),
                self.fom,
                channel,
                total,
                self.config.display_width,
                self.config.display_height,
                self.config.render_pixels,
                gpu,
                self.telemetry.clone(),
            )),
        )?;
        Ok(())
    }

    /// The fidelity tier of this simulator.
    pub fn tier(&self) -> FidelityTier {
        self.config.tier
    }

    /// Recycles the simulator for a new session without tearing down the
    /// rack: the scene assets, CB kernels and established virtual channels
    /// are reused (the expensive initialization protocol does not run again)
    /// while every piece of session state — telemetry, LAN and fault
    /// counters, frame-sync barriers, module state, clocks, metrics and the
    /// decimation phase — is rewound to the canonical session start. The
    /// configuration keeps its topology; only the session seed changes.
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
        self.config.seed = seed;
        self.session_frames = 0;
        self.telemetry.reset();
        self.cluster.begin_session(self.session_epoch, seed)
    }

    /// Re-stamps the rack's relative CPU speed: on every computer, and in the
    /// configuration (so a display added later runs at it too). Speed scales
    /// only the modeled cost of a frame, never what the rack simulates, so a
    /// rack built at one speed, re-stamped to another and reset replays a
    /// rack built at the other digest for digest, at the same modeled cost.
    /// A fleet re-stamps every pooled rack with the speed of the shard that
    /// takes it.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_speed` is not positive.
    pub fn set_cpu_speed(&mut self, cpu_speed: f64) {
        self.cluster.set_cpu_speed(cpu_speed);
        self.config.cpu_speed = cpu_speed;
    }

    /// The configuration the simulator was built with, with the session seed
    /// and CPU speed it was last given.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// The shared telemetry sink.
    pub fn telemetry(&self) -> &SharedTelemetry {
        &self.telemetry
    }

    /// The instructor's fault-injection console.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault_injector
    }

    /// Number of computers in the rack.
    pub fn computer_count(&self) -> usize {
        self.cluster.computer_count()
    }

    /// The module placement: for each computer, its name and resident module names.
    pub fn rack_layout(&self) -> Vec<(String, Vec<String>)> {
        (0..self.cluster.computer_count())
            .map(|i| {
                let computer = self.cluster.computer(ComputerId(i));
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
        self.run_frames(self.config.exam_frames).map(drop)
    }

    /// Runs `frames` additional session frames and returns their summed
    /// modeled cost.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by a module or the backbone.
    pub fn run_frames(&mut self, frames: usize) -> Result<Micros, CbError> {
        let mut cost = Micros::ZERO;
        for _ in 0..frames {
            cost += self.step_frame()?.cost;
        }
        Ok(cost)
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
        let frame = self.session_frames;
        let record = if frame.is_multiple_of(self.decimation) {
            // One real cluster frame absorbs this batch of session frames.
            FrameRecord { frame, ..self.cluster.run_frame()? }
        } else {
            // A decimated-away frame: no modeled cost, time holds until the
            // next real step advances it by a full decimated period.
            FrameRecord { frame, now: self.cluster.now(), cost: Micros::ZERO }
        };
        self.session_frames += 1;
        Ok(record)
    }

    /// Read access to the underlying cluster (rack layout, metrics, kernels),
    /// used by invariant checkers to audit CB channel tables.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Installs a fault-injection plan on the cluster LAN. Usually called right
    /// after construction so the Communication Backbone initializes over a
    /// healthy network and the faults hit the running session.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.cluster.set_fault_plan(plan);
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
        let channel = self.display_count;
        self.display_count += 1;
        self.add_display(channel, self.display_count)
    }

    /// A snapshot of the raw telemetry.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// A bit-exact digest of the current session state, in session-frame
    /// terms. Equal digests mean bit-identical runs.
    pub fn telemetry_digest(&self) -> FrameDigest {
        let (frames, now, lan) =
            (self.session_frames, self.cluster.now(), self.cluster.lan_stats());
        self.telemetry.read(|snap| FrameDigest::capture(frames, now, snap, &lan))
    }

    /// Builds the session report from the telemetry and cluster metrics.
    pub fn report(&self) -> SessionReport {
        let snap = self.telemetry.snapshot();
        let metrics = self.cluster.metrics();
        let frame_period = self.cluster.frame_period();

        let slowest_channel =
            snap.channel_frame_times.iter().copied().max().unwrap_or(Micros::ZERO);
        let swap_locked_period = synchronized_period(&snap.channel_frame_times, SWAP_LOCK_BARRIER);

        SessionReport {
            // The cluster counts cluster frames; a session is graded in
            // session frames.
            frames_run: self.session_frames,
            score: snap.scenario.score,
            phase: snap.scenario.phase.clone(),
            passed: snap.scenario.passed,
            bar_hits: snap.scenario.bar_hits,
            collisions: snap.collisions.len(),
            cluster_fps: metrics.achievable_fps(frame_period),
            sequential_fps: metrics.sequential_fps(frame_period),
            synchronized_fps: swap_locked_period.rate_hz(),
            free_running_fps: slowest_channel.rate_hz(),
            channel_frame_times: snap.channel_frame_times.clone(),
            max_hook_swing: snap.max_swing,
            platform_saturated: snap.platform_saturated,
            audio_rms: snap.audio_rms,
            established_channels: self.cluster.established_channels(),
            lan: self.cluster.lan_stats(),
        }
    }

    /// The exam course in use (for operators and analysis code).
    pub fn course(&self) -> Course {
        Course::licensing_exam()
    }

    /// Mean modeled cost of running one session frame of this whole session
    /// on a single machine hosting the virtual cluster in-process — the
    /// placement hint a serving layer uses to predict shard load. Zero until
    /// a frame has run. A mean over *session* frames: decimated-away frames
    /// cost nothing, which is exactly what makes the Coarse tier cheap to
    /// keep resident.
    pub fn session_cost_hint(&self) -> Micros {
        let total = self.cluster.metrics().total_sequential_cost.0;
        Micros(total.checked_div(self.session_frames).unwrap_or(0))
    }
}

/// Frame-level counters collected by [`step_frames_batch_traced`], a pure
/// function of the cohort and its budgets. Kept only because `benchmark/`
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStepStats {
    /// Session frames stepped across all members: the sum of their budgets.
    pub frames_stepped: u64,
    /// Always 0, removed at the benchmark re-bind (`benchmark/` reads it).
    pub memo_hits: u64,
    /// Always 0, removed at the benchmark re-bind (`benchmark/` reads it).
    pub memo_misses: u64,
}

/// Advances a cohort of simulators: each member runs its own frame budget
/// through [`CraneSimulator::run_frames`]. Members share nothing, so this is
/// stepping every member independently. Returns the summed modeled cost of
/// each member's frames, in cohort order. Kept only because `benchmark/`
/// calls it: a shard steps its residents with `run_frames` directly.
///
/// When `stats` is `Some`, the counters for this batch are *added* into it
/// (callers keep one accumulator across many cohorts).
///
/// # Errors
///
/// Returns the first error raised by any member's executive.
pub fn step_frames_batch_traced(
    batch: &mut [(&mut CraneSimulator, usize)],
    stats: Option<&mut BatchStepStats>,
) -> Result<Vec<Micros>, CbError> {
    let costs = batch
        .iter_mut()
        .map(|(sim, budget)| sim.run_frames(*budget))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(stats) = stats {
        stats.frames_stepped += batch.iter().map(|(_, budget)| *budget as u64).sum::<u64>();
    }
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryTrace;
    use crate::SCORE_DRIFT_TOLERANCE;

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

    /// A display plugged into the running rack joins the swap lock within
    /// one swap. From then on the rack swaps and releases as a rack without
    /// it does: every channel, the new one too, swaps the frames the plain
    /// rack's channels swap, and the server sends no more releases (re-sent
    /// stale ones included) than the plain rack's server.
    #[test]
    fn an_extra_display_joins_the_swap_lock() {
        let config = quick_config(OperatorKind::Idle, 20);
        let (mut plain, mut grown) =
            (CraneSimulator::new(config).unwrap(), CraneSimulator::new(config).unwrap());
        plain.run_frames(30).unwrap();
        grown.run_frames(30).unwrap();
        grown.add_extra_display().unwrap();
        plain.run_frames(10).unwrap();
        grown.run_frames(10).unwrap();

        // The swaps each channel gains and the releases the server sends
        // over the next 50 frames.
        let window = |sim: &mut CraneSimulator| {
            let cluster = sim.cluster();
            let sync_pc = (0..cluster.computer_count())
                .map(ComputerId)
                .find(|id| cluster.computer(*id).name() == "sync-server")
                .unwrap();
            let releases = |sim: &CraneSimulator| {
                sim.cluster().computer(sync_pc).kernel().stats().interactions_sent
            };
            let before = (sim.snapshot().channel_frames_swapped, releases(sim));
            sim.run_frames(50).unwrap();
            let swaps = sim.snapshot().channel_frames_swapped;
            let gained: Vec<u64> =
                swaps.iter().zip(&before.0).map(|(now, then)| now - then).collect();
            (gained, releases(sim) - before.1)
        };
        let ((plain_swaps, plain_releases), (grown_swaps, grown_releases)) =
            (window(&mut plain), window(&mut grown));
        assert!(plain_swaps[0] > 0);
        assert_eq!(grown_swaps, [plain_swaps[0]; 4], "swaps gained beside {plain_swaps:?}");
        assert_eq!(grown_releases, plain_releases, "releases sent");
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

    fn config(tier: FidelityTier, frames: usize) -> SimulatorConfig {
        SimulatorConfig { tier, ..quick_config(OperatorKind::Exam, frames) }
    }

    #[test]
    fn coarse_backend_is_an_order_of_magnitude_cheaper() {
        let frames = 64;
        let mut full = CraneSimulator::new(config(FidelityTier::Full, frames)).unwrap();
        let mut coarse = CraneSimulator::new(config(FidelityTier::Coarse, frames)).unwrap();
        full.run().unwrap();
        coarse.run().unwrap();
        assert_eq!(full.report().frames_run, frames as u64);
        assert_eq!(coarse.report().frames_run, frames as u64, "session frames, not cluster frames");
        let (f, c) = (full.session_cost_hint(), coarse.session_cost_hint());
        assert!(c > Micros::ZERO, "hint must be live after the first frame batch");
        assert!(
            f.0 >= 10 * c.0,
            "coarse must be >= 10x cheaper per session frame: full={f:?} coarse={c:?}"
        );
    }

    #[test]
    fn both_tiers_cover_the_same_simulated_duration() {
        let frames = 64;
        let mut full = CraneSimulator::new(config(FidelityTier::Full, frames)).unwrap();
        let mut coarse = CraneSimulator::new(config(FidelityTier::Coarse, frames)).unwrap();
        let (f0, c0) = (full.cluster().now(), coarse.cluster().now());
        full.run().unwrap();
        coarse.run().unwrap();
        let full_elapsed = full.cluster().now() - f0;
        let coarse_elapsed = coarse.cluster().now() - c0;
        assert_eq!(
            full_elapsed, coarse_elapsed,
            "decimation must stretch dt, not shrink the session"
        );
    }

    #[test]
    fn coarse_score_stays_within_the_pinned_tolerance() {
        for operator in [OperatorKind::Exam, OperatorKind::Reckless] {
            let mut base = config(FidelityTier::Full, 400);
            base.operator = operator;
            let mut full = CraneSimulator::new(base).unwrap();
            let mut coarse =
                CraneSimulator::new(SimulatorConfig { tier: FidelityTier::Coarse, ..base })
                    .unwrap();
            full.run().unwrap();
            coarse.run().unwrap();
            let drift = (full.report().score - coarse.report().score).abs();
            assert!(
                drift <= SCORE_DRIFT_TOLERANCE,
                "{operator:?}: drift {drift} exceeds tolerance {SCORE_DRIFT_TOLERANCE}"
            );
        }
    }

    #[test]
    fn coarse_replay_is_bit_exact_across_reset() {
        // 13 is not a multiple of the decimation: the reset lands mid-batch,
        // so the replay only matches if the decimation phase restarts at 0.
        for frames in [48, 13] {
            let mut sim = CraneSimulator::new(config(FidelityTier::Coarse, frames)).unwrap();
            let mut first = TelemetryTrace::new();
            for _ in 0..frames {
                sim.step_frame().unwrap();
                first.record(sim.telemetry_digest());
            }
            sim.reset_for_session(sim.config().seed).unwrap();
            let mut second = TelemetryTrace::new();
            for _ in 0..frames {
                sim.step_frame().unwrap();
                second.record(sim.telemetry_digest());
            }
            assert_eq!(
                first.first_divergence(&second),
                None,
                "coarse recycling must replay exactly after {frames} frames"
            );
        }
    }

    #[test]
    fn decimated_frames_carry_no_cost() {
        let mut sim = CraneSimulator::new(config(FidelityTier::Coarse, 16)).unwrap();
        let mut real = 0;
        for i in 0..16u64 {
            let record = sim.step_frame().unwrap();
            assert_eq!(record.frame, i, "records are numbered in session frames");
            if record.cost == Micros::ZERO {
                continue;
            }
            real += 1;
        }
        assert_eq!(
            real,
            16 / FidelityTier::Coarse.decimation(),
            "one real cluster frame per decimation batch"
        );
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
                    *cost += sim.step_frame().unwrap().cost;
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
            batched.iter_mut().zip(budgets).collect();
        step_frames_batch_traced(&mut batch, None).unwrap();

        for ((a, b), budget) in scalar.iter().zip(batched.iter()).zip(budgets) {
            assert_eq!(a.report().frames_run, budget as u64);
            assert_eq!(a.telemetry_digest(), b.telemetry_digest());
        }
    }

    #[test]
    fn batch_stats_add_the_budget_sum_into_one_accumulator() {
        let mut sims = cohort(FidelityTier::Full, 3, 20);
        let mut stats = BatchStepStats::default();
        for budgets in [[5usize, 2, 0], [1, 4, 3]] {
            let mut batch: Vec<(&mut CraneSimulator, usize)> =
                sims.iter_mut().zip(budgets).collect();
            step_frames_batch_traced(&mut batch, Some(&mut stats)).unwrap();
        }
        assert_eq!(stats.frames_stepped, 15, "sum of both calls' budgets");
        assert_eq!((stats.memo_hits, stats.memo_misses), (0, 0));
        let run: Vec<u64> = sims.iter().map(|sim| sim.report().frames_run).collect();
        assert_eq!(run, [6, 6, 3]);
    }
}
