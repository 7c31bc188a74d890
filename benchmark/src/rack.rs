//! The traced rack: the same eight-computer deployment as
//! `crane_sim::FullFidelity::new`, assembled here from the public `Cluster`
//! and LP constructors so that every LP can be boxed in a [`Timed`] wrapper.
//!
//! `Timed` records a span around `LogicalProcess::step` and hands the LP a
//! `TimedCb` that records a span around each `CbApi` data-plane call. The
//! frame span minus its children is the executive's self time (kernel ticks,
//! LAN advance, `FrameRecord` and metrics bookkeeping) — the stated residual,
//! which cannot be split further from outside the program.
//!
//! The traced rack must replay the untraced `CraneSimulator` digest for
//! digest; a waterfall whose digest differs is discarded by the caller.

use std::time::{Duration, Instant};

use cod_cb::{
    AttributeValues, CbApi, CbError, ClassRegistry, InteractionClassId, InteractionMessage, LpId,
    ObjectClassId, ObjectId, Reflection,
};
use cod_cluster::{frame_period_for_fps, Cluster, ClusterConfig, FrameSyncServer, LogicalProcess};
use cod_net::{FaultPlan, LanConfig, LanStats, Micros};
use crane_scene::course::Course;
use crane_sim::audio::AudioLp;
use crane_sim::dashboard::DashboardLp;
use crane_sim::dynamics::DynamicsLp;
use crane_sim::instructor::InstructorLp;
use crane_sim::motion::MotionPlatformLp;
use crane_sim::scenario::ScenarioLp;
use crane_sim::visual::VisualDisplayLp;
use crane_sim::{
    CraneFom, ExamOperator, FrameDigest, GpuGeneration, IdleOperator, Operator, OperatorKind,
    RecklessOperator, SharedTelemetry, SimulatorConfig,
};
use render_sim::GpuCostModel;

use crate::spans::{SharedSpanLog, SpanLog};

/// Span name of one executive frame (the root of a frame's spans).
pub const FRAME_SPAN: &str = "frame";
/// Span name shared by every `CbApi` data-plane call.
pub const CB_SPAN: &str = "cb";

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// A `CbApi` decorator noting the interval of each data-plane call.
/// Declarations (publish/subscribe/register) only run at init and pass
/// through untimed.
struct TimedCb<'a> {
    inner: &'a mut dyn CbApi,
    epoch: Instant,
    calls: &'a mut Vec<(u64, u64)>,
}

impl TimedCb<'_> {
    fn timed<R>(&mut self, call: impl FnOnce(&mut dyn CbApi) -> R) -> R {
        let start = ns_since(self.epoch);
        let result = call(self.inner);
        self.calls.push((start, ns_since(self.epoch)));
        result
    }
}

impl CbApi for TimedCb<'_> {
    fn now(&self) -> Micros {
        self.inner.now()
    }

    fn lp_id(&self) -> LpId {
        self.inner.lp_id()
    }

    fn fom(&self) -> &ClassRegistry {
        self.inner.fom()
    }

    fn publish_object_class(&mut self, class: ObjectClassId) -> Result<(), CbError> {
        self.inner.publish_object_class(class)
    }

    fn subscribe_object_class(&mut self, class: ObjectClassId) -> Result<(), CbError> {
        self.inner.subscribe_object_class(class)
    }

    fn subscribe_interaction_class(&mut self, class: InteractionClassId) -> Result<(), CbError> {
        self.inner.subscribe_interaction_class(class)
    }

    fn register_object(&mut self, class: ObjectClassId) -> Result<ObjectId, CbError> {
        self.inner.register_object(class)
    }

    fn update_attributes(
        &mut self,
        object: ObjectId,
        values: AttributeValues,
    ) -> Result<(), CbError> {
        self.timed(|cb| cb.update_attributes(object, values))
    }

    fn send_interaction(
        &mut self,
        class: InteractionClassId,
        parameters: AttributeValues,
    ) -> Result<(), CbError> {
        self.timed(|cb| cb.send_interaction(class, parameters))
    }

    fn reflections(&mut self) -> Vec<Reflection> {
        self.timed(|cb| cb.reflections())
    }

    fn interactions(&mut self) -> Vec<InteractionMessage> {
        self.timed(|cb| cb.interactions())
    }
}

/// An LP boxed with a span around each `step`, named after the per-layer
/// metric the step's self time is reported under.
struct Timed {
    inner: Box<dyn LogicalProcess>,
    log: SharedSpanLog,
    epoch: Instant,
    step_name: u16,
    cb_name: u16,
    calls: Vec<(u64, u64)>,
}

impl Timed {
    fn wrap(
        metric: &str,
        inner: Box<dyn LogicalProcess>,
        log: &SharedSpanLog,
    ) -> Box<dyn LogicalProcess> {
        let (epoch, step_name, cb_name) = {
            let mut guard = log.lock().expect("span log poisoned");
            (guard.epoch(), guard.name_id(metric), guard.name_id(CB_SPAN))
        };
        Box::new(Timed { inner, log: log.clone(), epoch, step_name, cb_name, calls: Vec::new() })
    }
}

impl LogicalProcess for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        self.inner.init(cb)
    }

    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError> {
        self.calls.clear();
        let start = ns_since(self.epoch);
        let mut timed_cb = TimedCb { inner: cb, epoch: self.epoch, calls: &mut self.calls };
        let result = self.inner.step(&mut timed_cb, dt);
        let end = ns_since(self.epoch);
        let mut log = self.log.lock().expect("span log poisoned");
        let step = log.record(self.step_name, start, end);
        for &(call_start, call_end) in &self.calls {
            log.record_under(step, self.cb_name, call_start, call_end);
        }
        result
    }

    fn last_step_cost(&self) -> Micros {
        self.inner.last_step_cost()
    }

    fn begin_session(&mut self, cb: &mut dyn CbApi, seed: u64) -> Result<(), CbError> {
        self.inner.begin_session(cb, seed)
    }
}

fn operator_for(kind: OperatorKind) -> Box<dyn Operator> {
    match kind {
        OperatorKind::Exam => Box::new(ExamOperator::new(Course::licensing_exam())),
        OperatorKind::Idle => Box::new(IdleOperator),
        OperatorKind::Reckless => Box::new(RecklessOperator::default()),
    }
}

/// The Full-tier rack with every LP timed.
pub struct TracedRack {
    cluster: Cluster,
    telemetry: SharedTelemetry,
    session_epoch: Micros,
    log: SharedSpanLog,
    frame_name: u16,
    /// Wall-clock of the CB initialization protocol (`Cluster::initialize`).
    pub discovery: Duration,
}

impl TracedRack {
    /// Builds the rack `FullFidelity::new(config)` builds — same computers,
    /// same LPs in the same order, same initialization protocol — with each
    /// LP wrapped.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or a module fails to
    /// declare its publications and subscriptions.
    pub fn new(config: SimulatorConfig) -> Result<TracedRack, CbError> {
        config.validate().map_err(CbError::Codec)?;
        let log = SpanLog::shared();
        let frame_name = log.lock().expect("span log poisoned").name_id(FRAME_SPAN);
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();
        let mut cluster = Cluster::new(
            ClusterConfig {
                lan: LanConfig::fast_ethernet(config.seed),
                frame_period: frame_period_for_fps(config.target_fps),
                init_rounds: 120,
            },
            registry.clone(),
        );
        let gpu = match config.gpu {
            GpuGeneration::Tnt2 => GpuCostModel::tnt2_class(),
            GpuGeneration::NextGeneration => GpuCostModel::next_generation(),
        };
        let timed = |metric: &str, lp: Box<dyn LogicalProcess>| Timed::wrap(metric, lp, &log);

        for channel in 0..config.display_channels {
            let pc =
                cluster.add_computer_with_speed(&format!("display-{channel}"), config.cpu_speed);
            let display = VisualDisplayLp::new(
                registry.clone(),
                fom,
                channel,
                config.display_channels,
                config.display_width,
                config.display_height,
                config.render_pixels,
                gpu,
                telemetry.clone(),
            );
            cluster.add_lp(pc, timed("crane-sim.visual.step_ns", Box::new(display)))?;
        }
        let sync_pc = cluster.add_computer_with_speed("sync-server", config.cpu_speed);
        let sync = FrameSyncServer::new(fom.sync, config.display_channels);
        cluster.add_lp(sync_pc, timed("cod-cluster.framesync.step_ns", Box::new(sync)))?;
        let dynamics_pc = cluster.add_computer_with_speed("dynamics-pc", config.cpu_speed);
        let dynamics =
            DynamicsLp::new(registry.clone(), fom, config.cargo_mass_kg, telemetry.clone());
        cluster.add_lp(dynamics_pc, timed("crane-sim.dynamics.step_ns", Box::new(dynamics)))?;
        let control_pc = cluster.add_computer_with_speed("control-pc", config.cpu_speed);
        let dashboard = DashboardLp::new(
            registry.clone(),
            fom,
            operator_for(config.operator),
            telemetry.clone(),
        );
        cluster.add_lp(control_pc, timed("crane-sim.dashboard.step_ns", Box::new(dashboard)))?;
        let scenario = ScenarioLp::new(registry.clone(), fom, telemetry.clone());
        cluster.add_lp(control_pc, timed("crane-sim.scenario.step_ns", Box::new(scenario)))?;
        let instructor_pc = cluster.add_computer_with_speed("instructor-pc", config.cpu_speed);
        let (instructor, _fault_injector) =
            InstructorLp::new(registry.clone(), fom, telemetry.clone());
        cluster
            .add_lp(instructor_pc, timed("crane-sim.instructor.step_ns", Box::new(instructor)))?;
        let audio = AudioLp::new(registry.clone(), fom, telemetry.clone());
        cluster.add_lp(instructor_pc, timed("crane-sim.audio.step_ns", Box::new(audio)))?;
        let motion_pc = cluster.add_computer_with_speed("motion-pc", config.cpu_speed);
        let motion =
            MotionPlatformLp::new(registry, fom, config.target_fps, config.seed, telemetry.clone());
        cluster.add_lp(motion_pc, timed("crane-sim.motion.step_ns", Box::new(motion)))?;

        let started = Instant::now();
        cluster.initialize()?;
        let discovery = started.elapsed();
        let session_epoch = cluster.now();
        let mut rack = TracedRack { cluster, telemetry, session_epoch, log, frame_name, discovery };
        rack.reset_for_session(config.seed)?;
        Ok(rack)
    }

    /// What `CraneSimulator::reset_for_session` does on the Full tier.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by a module's session reset.
    pub fn reset_for_session(&mut self, seed: u64) -> Result<(), CbError> {
        self.telemetry.reset();
        self.cluster.begin_session(self.session_epoch, seed)
    }

    /// Installs a fault plan on the rack's LAN (after a reset, like the shard).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.cluster.set_fault_plan(plan);
    }

    /// One executive frame under a root span.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by a module or the backbone.
    pub fn step_frame(&mut self) -> Result<(), CbError> {
        let index = self.log.lock().expect("span log poisoned").enter(self.frame_name);
        let result = self.cluster.run_frame();
        self.log.lock().expect("span log poisoned").exit(index);
        result.map(|_| ())
    }

    /// The digest `CraneSimulator::telemetry_digest` would report.
    pub fn telemetry_digest(&self) -> FrameDigest {
        FrameDigest::capture(
            self.cluster.metrics().frames_run,
            self.cluster.now(),
            &self.telemetry.snapshot(),
            &self.cluster.lan_stats(),
        )
    }

    /// LAN counters since the last session reset.
    pub fn lan_stats(&self) -> LanStats {
        self.cluster.lan_stats()
    }

    /// The spans recorded so far.
    pub fn log(&self) -> &SharedSpanLog {
        &self.log
    }
}
