//! Pluggable simulation backends behind [`CraneSimulator`].
//!
//! The paper's core trade is fidelity versus cluster cost: a licensing exam
//! needs the full eight-PC rack, but batch scoring and early training runs
//! tolerate a much cheaper approximation. This module splits the simulator
//! into a [`SimBackend`] trait with two implementations:
//!
//! * [`FullFidelity`] — the original deployment, verbatim: one virtual
//!   computer per display channel plus sync server, dynamics, control,
//!   instructor and motion PCs, stepped once per session frame.
//! * [`Coarse`] — a decimated rack: a single display channel and one cluster
//!   frame per [`Coarse::DECIMATION`] session frames, with a proportionally
//!   longer integrator step so a session covers the same simulated duration.
//!   Order(s) of magnitude cheaper in modeled cost, score-compatible with
//!   [`FullFidelity`] within [`SCORE_DRIFT_TOLERANCE`].
//!
//! Both tiers are deterministic functions of (config, seed), so a serving
//! layer can move a live session between them with the same replay machinery
//! it uses for cross-shard migration: extract the portable state, rebuild on
//! the other tier, replay the frames done so far.
//!
//! [`CraneSimulator`]: crate::CraneSimulator

use cod_cluster::{
    frame_period_for_fps, BatchScratch, Cluster, ClusterConfig, ComputerId, FrameRecord,
    FrameSyncServer,
};
use cod_net::{FaultPlan, LanConfig, Micros};
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
use crate::simulator::SessionReport;
use crate::telemetry::{FrameDigest, SharedTelemetry};
use crate::visual::VisualDisplayLp;
use cod_cb::{CbError, ClassRegistry};
use crane_scene::course::Course;

/// Largest final-score deviation a Coarse session may show against the Full
/// run of the same (config, seed), in score points. Pinned by experiment E12
/// and enforced by the testkit tier-transparency invariant and the
/// `fleet_report --quick` score-drift gate.
pub const SCORE_DRIFT_TOLERANCE: f64 = 25.0;

/// A simulation backend: everything the facade and the serving layer need
/// from one fidelity tier of the crane simulator.
///
/// A backend is a deterministic function of its configuration and session
/// seed: equal (config, seed) pairs stepped the same number of *session*
/// frames produce bit-identical telemetry, whatever tier they run on — which
/// is what lets a fleet promote and demote live sessions by replay.
pub trait SimBackend: Send {
    /// The tier this backend implements.
    fn tier(&self) -> FidelityTier;

    /// The configuration the backend was built with.
    fn config(&self) -> &SimulatorConfig;

    /// Runs one *session* frame and returns its step-level record. Tiers that
    /// decimate return a zero-cost record for the frames they skip.
    ///
    /// `scratch` is the scratch shared across the same-shape cohort being
    /// advanced in lockstep (see [`crate::simulator::step_frames_batch_traced`]),
    /// `None` for a session stepped on its own. The frame MUST be
    /// bit-identical either way — sharing work is an opt-in optimization,
    /// never a semantic change.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by a module or the backbone.
    fn step_frame(&mut self, scratch: Option<&mut BatchScratch>) -> Result<FrameRecord, CbError>;

    /// Rewinds every piece of session state to the canonical session start
    /// and re-seeds the stochastic models (see
    /// [`crate::CraneSimulator::reset_for_session`]).
    ///
    /// # Errors
    ///
    /// Returns the first error raised by a module's session reset.
    fn reset_for_session(&mut self, seed: u64) -> Result<(), CbError>;

    /// Mean modeled cost of one *session* frame on a single machine hosting
    /// the backend in-process — the placement hint a serving layer uses to
    /// predict shard load. Zero until a frame has run. Tier-specific: a
    /// Coarse backend reports its decimated cost, not the full-rack one.
    fn session_cost_hint(&self) -> Micros;

    /// Session frames completed since the last reset.
    fn frames_run(&self) -> u64;

    /// The shared telemetry sink.
    fn telemetry(&self) -> &SharedTelemetry;

    /// The instructor's fault-injection console.
    fn fault_injector(&self) -> &FaultInjector;

    /// Read access to the underlying cluster.
    fn cluster(&self) -> &Cluster;

    /// Installs a fault-injection plan on the cluster LAN.
    fn set_fault_plan(&mut self, plan: FaultPlan);

    /// Plugs an additional display channel into the running system.
    ///
    /// # Errors
    ///
    /// Returns an error if the new module fails to initialize.
    fn add_extra_display(&mut self) -> Result<(), CbError>;

    /// Builds the session report from the telemetry and cluster metrics.
    fn report(&self) -> SessionReport;

    /// A bit-exact digest of the current session state, in session-frame
    /// terms. Equal digests mean bit-identical runs.
    fn telemetry_digest(&self) -> FrameDigest {
        FrameDigest::capture(
            self.frames_run(),
            self.cluster().now(),
            &self.telemetry().snapshot(),
            &self.cluster().lan_stats(),
        )
    }
}

/// The operator model for a configuration.
pub(crate) fn make_operator(kind: OperatorKind) -> Box<dyn Operator> {
    match kind {
        OperatorKind::Exam => Box::new(ExamOperator::new(Course::licensing_exam())),
        OperatorKind::Idle => Box::new(IdleOperator),
        OperatorKind::Reckless => Box::new(RecklessOperator::default()),
    }
}

/// The paper's deployment: the full eight-computer rack, one cluster frame
/// per session frame. This is the pre-refactor `CraneSimulator`, verbatim.
pub struct FullFidelity {
    config: SimulatorConfig,
    cluster: Cluster,
    telemetry: SharedTelemetry,
    fault_injector: FaultInjector,
    registry: ClassRegistry,
    fom: CraneFom,
    display_count: usize,
    barrier_overhead: Micros,
    /// Simulation time at which sessions start (the end of CB initialization);
    /// session resets rewind the whole cluster to this instant.
    session_epoch: Micros,
}

impl FullFidelity {
    /// Builds the rack described by `config` and runs the Communication
    /// Backbone initialization phase.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or a module fails to
    /// declare its publications and subscriptions.
    pub fn new(config: SimulatorConfig) -> Result<FullFidelity, CbError> {
        config.validate().map_err(CbError::Codec)?;
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();

        let cluster_config = ClusterConfig {
            lan: LanConfig::fast_ethernet(config.seed),
            frame_period: frame_period_for_fps(config.target_fps),
            init_rounds: 120,
        };
        let mut cluster = Cluster::new(cluster_config, registry.clone());
        let gpu = match config.gpu {
            GpuGeneration::Tnt2 => GpuCostModel::tnt2_class(),
            GpuGeneration::NextGeneration => GpuCostModel::next_generation(),
        };

        // The top of the rack: one computer per display channel.
        for channel in 0..config.display_channels {
            let pc =
                cluster.add_computer_with_speed(&format!("display-{channel}"), config.cpu_speed);
            cluster.add_lp(
                pc,
                Box::new(VisualDisplayLp::new(
                    registry.clone(),
                    fom,
                    channel,
                    config.display_channels,
                    config.display_width,
                    config.display_height,
                    config.render_pixels,
                    gpu,
                    telemetry.clone(),
                )),
            )?;
        }
        // The next computer: the synchronization server.
        let sync_pc = cluster.add_computer_with_speed("sync-server", config.cpu_speed);
        cluster
            .add_lp(sync_pc, Box::new(FrameSyncServer::new(fom.sync, config.display_channels)))?;

        // The remaining computers host the other modules.
        let dynamics_pc = cluster.add_computer_with_speed("dynamics-pc", config.cpu_speed);
        cluster.add_lp(
            dynamics_pc,
            Box::new(DynamicsLp::new(
                registry.clone(),
                fom,
                config.cargo_mass_kg,
                telemetry.clone(),
            )),
        )?;

        let control_pc = cluster.add_computer_with_speed("control-pc", config.cpu_speed);
        let operator = make_operator(config.operator);
        cluster.add_lp(
            control_pc,
            Box::new(DashboardLp::new(registry.clone(), fom, operator, telemetry.clone())),
        )?;
        cluster.add_lp(
            control_pc,
            Box::new(ScenarioLp::new(registry.clone(), fom, telemetry.clone())),
        )?;

        let instructor_pc = cluster.add_computer_with_speed("instructor-pc", config.cpu_speed);
        let (instructor, fault_injector) =
            InstructorLp::new(registry.clone(), fom, telemetry.clone());
        cluster.add_lp(instructor_pc, Box::new(instructor))?;
        cluster.add_lp(
            instructor_pc,
            Box::new(AudioLp::new(registry.clone(), fom, telemetry.clone())),
        )?;

        let motion_pc = cluster.add_computer_with_speed("motion-pc", config.cpu_speed);
        cluster.add_lp(
            motion_pc,
            Box::new(MotionPlatformLp::new(
                registry.clone(),
                fom,
                config.target_fps,
                config.seed,
                telemetry.clone(),
            )),
        )?;

        let mut backend = FullFidelity {
            config,
            cluster,
            telemetry,
            fault_injector,
            registry,
            fom,
            display_count: config.display_channels,
            barrier_overhead: Micros::from_millis(3),
            session_epoch: Micros::ZERO,
        };
        backend.cluster.initialize()?;
        // Every session — the first one included — starts from the canonical
        // post-initialization state, so a recycled simulator replays a fresh
        // one bit for bit.
        backend.session_epoch = backend.cluster.now();
        backend.start_session(config.seed)?;
        Ok(backend)
    }

    fn start_session(&mut self, seed: u64) -> Result<(), CbError> {
        self.config.seed = seed;
        self.telemetry.reset();
        self.cluster.begin_session(self.session_epoch, seed)
    }

    /// The module placement: for each computer, its name and resident module
    /// names.
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
}

impl SimBackend for FullFidelity {
    fn tier(&self) -> FidelityTier {
        FidelityTier::Full
    }

    fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    fn step_frame(&mut self, scratch: Option<&mut BatchScratch>) -> Result<FrameRecord, CbError> {
        self.cluster.run_frame_with(scratch)
    }

    fn reset_for_session(&mut self, seed: u64) -> Result<(), CbError> {
        self.start_session(seed)
    }

    fn session_cost_hint(&self) -> Micros {
        self.cluster.metrics().mean_sequential_frame_cost()
    }

    fn frames_run(&self) -> u64 {
        self.cluster.metrics().frames_run
    }

    fn telemetry(&self) -> &SharedTelemetry {
        &self.telemetry
    }

    fn fault_injector(&self) -> &FaultInjector {
        &self.fault_injector
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.cluster.set_fault_plan(plan);
    }

    fn add_extra_display(&mut self) -> Result<(), CbError> {
        let channel = self.display_count;
        self.display_count += 1;
        let gpu = match self.config.gpu {
            GpuGeneration::Tnt2 => GpuCostModel::tnt2_class(),
            GpuGeneration::NextGeneration => GpuCostModel::next_generation(),
        };
        let pc = self
            .cluster
            .add_computer_with_speed(&format!("display-{channel}"), self.config.cpu_speed);
        self.cluster.add_lp(
            pc,
            Box::new(VisualDisplayLp::new(
                self.registry.clone(),
                self.fom,
                channel,
                self.display_count,
                self.config.display_width,
                self.config.display_height,
                self.config.render_pixels,
                gpu,
                self.telemetry.clone(),
            )),
        )?;
        Ok(())
    }

    fn report(&self) -> SessionReport {
        let snap = self.telemetry.snapshot();
        let metrics = self.cluster.metrics();
        let frame_period = self.cluster.frame_period();

        let slowest_channel =
            snap.channel_frame_times.iter().copied().max().unwrap_or(Micros::ZERO);
        let synchronized_period = if slowest_channel == Micros::ZERO {
            Micros::ZERO
        } else {
            slowest_channel + self.barrier_overhead
        };
        let fps_of = |period: Micros| {
            if period == Micros::ZERO {
                0.0
            } else {
                1.0 / period.as_secs_f64()
            }
        };

        SessionReport {
            frames_run: metrics.frames_run,
            score: snap.scenario.score,
            phase: snap.scenario.phase.clone(),
            passed: snap.scenario.passed,
            bar_hits: snap.scenario.bar_hits,
            collisions: snap.collisions.len(),
            cluster_fps: metrics.achievable_fps(frame_period),
            sequential_fps: metrics.sequential_fps(frame_period),
            synchronized_fps: fps_of(synchronized_period),
            free_running_fps: fps_of(slowest_channel),
            channel_frame_times: snap.channel_frame_times.clone(),
            max_hook_swing: snap.swing_history.iter().copied().fold(0.0, f64::max),
            platform_saturated: snap.platform_saturated,
            audio_rms: snap.audio_rms,
            established_channels: self.cluster.established_channels(),
            lan: self.cluster.lan_stats(),
        }
    }
}

/// The cheap tier: a decimated single-display rack.
///
/// Three levers make it order(s) of magnitude cheaper than [`FullFidelity`]
/// while keeping the same (seeded, deterministic) physics models:
///
/// * **One display channel** instead of three — the visual pipeline dominates
///   the full rack's modeled cost.
/// * **Frame decimation** — only every [`Coarse::DECIMATION`]-th session
///   frame steps the underlying cluster; the rest return a zero-cost record.
///   Collision checks and telemetry consequently sample at the decimated
///   rate ("aggregated collision, decimated telemetry").
/// * **Reduced integrator rate** — the inner rack runs at
///   `target_fps / DECIMATION`, so each cluster frame integrates a
///   proportionally longer `dt` and a session covers the same simulated
///   duration as its Full twin.
///
/// Scores stay comparable because the scenario grades elapsed simulated time
/// and collisions, neither of which depends on channel count; the coarser
/// integration step is the only drift source, bounded by
/// [`SCORE_DRIFT_TOLERANCE`].
pub struct Coarse {
    /// The caller's configuration (tier [`FidelityTier::Coarse`]), as
    /// distinct from the derived configuration of the inner rack.
    config: SimulatorConfig,
    rack: FullFidelity,
    /// Session frames stepped since the last reset (≥ cluster frames run).
    session_frames: u64,
}

impl Coarse {
    /// Session frames per cluster frame: the inner rack steps once every this
    /// many session frames, with a `dt` this many times longer.
    pub const DECIMATION: u64 = 8;
    /// Display channels of the decimated rack.
    pub const DISPLAY_CHANNELS: usize = 1;

    /// Builds the decimated rack for `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or a module fails to
    /// declare its publications and subscriptions.
    pub fn new(config: SimulatorConfig) -> Result<Coarse, CbError> {
        config.validate().map_err(CbError::Codec)?;
        let rack = FullFidelity::new(Self::derived_config(config))?;
        Ok(Coarse { config, rack, session_frames: 0 })
    }

    /// The inner rack's configuration: one display channel stepping at the
    /// decimated rate. Everything else — operator, seed, cargo, resolution —
    /// is the caller's, so the physics follow the same course.
    fn derived_config(config: SimulatorConfig) -> SimulatorConfig {
        SimulatorConfig {
            display_channels: Self::DISPLAY_CHANNELS,
            target_fps: config.target_fps / Self::DECIMATION as f64,
            ..config
        }
    }
}

impl SimBackend for Coarse {
    fn tier(&self) -> FidelityTier {
        FidelityTier::Coarse
    }

    fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    fn step_frame(&mut self, scratch: Option<&mut BatchScratch>) -> Result<FrameRecord, CbError> {
        let frame = self.session_frames;
        self.session_frames += 1;
        if frame % Self::DECIMATION == 0 {
            // One real cluster frame absorbs this batch of session frames,
            // and only it touches the cohort scratch. Cohort members whose
            // decimation phases differ merely miss the memo — identity never
            // depends on alignment.
            let mut record = self.rack.step_frame(scratch)?;
            record.frame = frame;
            Ok(record)
        } else {
            // A decimated-away frame: no modeled cost, time holds until the
            // next real step advances it by a full decimated period.
            Ok(FrameRecord { frame, now: self.rack.cluster().now(), costs: Vec::new() })
        }
    }

    fn reset_for_session(&mut self, seed: u64) -> Result<(), CbError> {
        self.config.seed = seed;
        self.session_frames = 0;
        self.rack.reset_for_session(seed)
    }

    fn session_cost_hint(&self) -> Micros {
        // Mean over *session* frames: the decimated-away frames cost nothing,
        // which is exactly what makes this tier cheap to keep resident.
        if self.session_frames == 0 {
            Micros::ZERO
        } else {
            Micros(self.rack.cluster().metrics().total_sequential_cost.0 / self.session_frames)
        }
    }

    fn frames_run(&self) -> u64 {
        self.session_frames
    }

    fn telemetry(&self) -> &SharedTelemetry {
        self.rack.telemetry()
    }

    fn fault_injector(&self) -> &FaultInjector {
        self.rack.fault_injector()
    }

    fn cluster(&self) -> &Cluster {
        self.rack.cluster()
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.rack.set_fault_plan(plan);
    }

    fn add_extra_display(&mut self) -> Result<(), CbError> {
        self.rack.add_extra_display()
    }

    fn report(&self) -> SessionReport {
        // The inner rack counts cluster frames; a session is graded in
        // session frames.
        let mut report = self.rack.report();
        report.frames_run = self.session_frames;
        report
    }
}

/// Builds the backend for `config.tier`.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or a module fails to
/// declare its publications and subscriptions.
pub fn build_backend(config: SimulatorConfig) -> Result<Box<dyn SimBackend>, CbError> {
    Ok(match config.tier {
        FidelityTier::Full => Box::new(FullFidelity::new(config)?),
        FidelityTier::Coarse => Box::new(Coarse::new(config)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryTrace;
    use crate::CraneSimulator;

    fn config(tier: FidelityTier, frames: usize) -> SimulatorConfig {
        SimulatorConfig {
            tier,
            exam_frames: frames,
            display_width: 64,
            display_height: 48,
            ..SimulatorConfig::default()
        }
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
        let mut sim = CraneSimulator::new(config(FidelityTier::Coarse, 48)).unwrap();
        let mut first = TelemetryTrace::new();
        for _ in 0..48 {
            sim.step_frame().unwrap();
            first.record(sim.telemetry_digest());
        }
        sim.reset_for_session(sim.config().seed).unwrap();
        let mut second = TelemetryTrace::new();
        for _ in 0..48 {
            sim.step_frame().unwrap();
            second.record(sim.telemetry_digest());
        }
        assert_eq!(first.first_divergence(&second), None, "coarse recycling must replay exactly");
    }

    #[test]
    fn decimated_frames_carry_no_cost() {
        let mut sim = CraneSimulator::new(config(FidelityTier::Coarse, 16)).unwrap();
        let mut real = 0;
        for i in 0..16u64 {
            let record = sim.step_frame().unwrap();
            assert_eq!(record.frame, i, "records are numbered in session frames");
            if record.costs.is_empty() {
                continue;
            }
            real += 1;
        }
        assert_eq!(real, 16 / Coarse::DECIMATION, "one real cluster frame per decimation batch");
    }
}
