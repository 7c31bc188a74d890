//! The cluster executive: a deterministic frame-driven driver for the COD.

use cod_cb::{CbError, ClassRegistry, LpId};
use cod_net::{FaultPlan, LanConfig, LanStats, Micros, SharedLan, SimLan};

use crate::computer::Computer;
use crate::lp::LogicalProcess;
use crate::metrics::ClusterMetrics;

/// Index of a computer within a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComputerId(pub usize);

/// Configuration of the cluster executive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// LAN model connecting the computers.
    pub lan: LanConfig,
    /// Frame period of the executive (the paper targets 18–30 fps; the default
    /// is the 16 fps period the implemented system achieved).
    pub frame_period: Micros,
    /// Number of protocol rounds executed by [`Cluster::initialize`].
    pub init_rounds: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            lan: LanConfig::fast_ethernet(0xC0D),
            frame_period: frame_period_for_fps(16.0),
            init_rounds: 100,
        }
    }
}

/// Converts a target frame rate in frames per second into a frame period.
///
/// ```
/// use cod_cluster::cluster::frame_period_for_fps;
/// assert_eq!(frame_period_for_fps(20.0).0, 50_000);
/// ```
pub fn frame_period_for_fps(fps: f64) -> Micros {
    assert!(fps > 0.0, "frame rate must be positive");
    Micros((1_000_000.0 / fps).round() as u64)
}

/// The step-level record returned by [`Cluster::run_frame`]: what one frame of
/// the executive did, for trace recorders and invariant checkers. The testkit
/// pulls one of these per frame instead of installing callback hooks, which
/// keeps replays deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Zero-based index of the executed frame.
    pub frame: u64,
    /// Simulation time at the *end* of the frame.
    pub now: Micros,
    /// Modeled CPU cost of the frame on each computer, in rack order (index
    /// `i` belongs to `ComputerId(i)`).
    pub costs: Vec<Micros>,
}

/// The Cluster Of Desktop computers: computers + LAN + executive loop.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    fom: ClassRegistry,
    lan: SharedLan,
    computers: Vec<Computer>,
    now: Micros,
    metrics: ClusterMetrics,
}

impl Cluster {
    /// Creates an empty cluster sharing the given FOM.
    pub fn new(config: ClusterConfig, fom: ClassRegistry) -> Cluster {
        Cluster {
            config,
            fom,
            lan: SimLan::shared(config.lan),
            computers: Vec::new(),
            now: Micros::ZERO,
            metrics: ClusterMetrics::default(),
        }
    }

    /// Adds a computer (rack slot) to the cluster and returns its id.
    pub fn add_computer(&mut self, name: &str) -> ComputerId {
        let transport = SimLan::attach(&self.lan, name);
        self.computers.push(Computer::new(name, transport, self.fom.clone()));
        ComputerId(self.computers.len() - 1)
    }

    /// Adds a computer with an explicit relative CPU speed.
    pub fn add_computer_with_speed(&mut self, name: &str, cpu_speed: f64) -> ComputerId {
        let id = self.add_computer(name);
        self.computers[id.0].set_cpu_speed(cpu_speed);
        id
    }

    /// Plugs an LP into a computer, running its `init`.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP's `init` fails.
    ///
    /// # Panics
    ///
    /// Panics if `computer` is not a valid id for this cluster.
    pub fn add_lp(
        &mut self,
        computer: ComputerId,
        lp: Box<dyn LogicalProcess>,
    ) -> Result<LpId, CbError> {
        self.computers[computer.0].add_lp(lp)
    }

    /// Unplugs an LP from a computer.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP is not resident on that computer.
    pub fn remove_lp(
        &mut self,
        computer: ComputerId,
        lp: LpId,
    ) -> Result<Box<dyn LogicalProcess>, CbError> {
        self.computers[computer.0].remove_lp(lp)
    }

    /// Number of computers in the cluster.
    pub fn computer_count(&self) -> usize {
        self.computers.len()
    }

    /// Access to a computer.
    pub fn computer(&self, id: ComputerId) -> &Computer {
        &self.computers[id.0]
    }

    /// Mutable access to a computer.
    pub fn computer_mut(&mut self, id: ComputerId) -> &mut Computer {
        &mut self.computers[id.0]
    }

    /// Current simulation time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// The executive metrics accumulated so far.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Total modeled CPU cost accumulated so far on the computer called
    /// `name`, or `None` if the rack has no such computer.
    pub fn computer_cost(&self, name: &str) -> Option<Micros> {
        let index = self.computers.iter().position(|c| c.name() == name)?;
        Some(self.metrics.computer_cost.get(index).copied().unwrap_or(Micros::ZERO))
    }

    /// Traffic counters of the cluster LAN.
    pub fn lan_stats(&self) -> LanStats {
        SimLan::stats(&self.lan)
    }

    /// Installs a fault-injection plan on the cluster LAN (see
    /// [`cod_net::FaultPlan`]); faults apply to every datagram sent after this
    /// call, drawn from the plan's own seeded RNG stream.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        SimLan::set_fault_plan(&self.lan, plan);
    }

    /// The configured frame period.
    pub fn frame_period(&self) -> Micros {
        self.config.frame_period
    }

    /// Total number of established virtual channels across every CB.
    pub fn established_channels(&self) -> usize {
        self.computers.iter().map(|c| c.kernel().established_channel_count()).sum()
    }

    /// Runs the initialization phase: CB kernels exchange subscription
    /// broadcasts and build virtual channels, without stepping any LP.
    ///
    /// # Errors
    ///
    /// Returns the first transport error raised by a kernel tick.
    pub fn initialize(&mut self) -> Result<(), CbError> {
        // Protocol rounds are shorter than a frame so discovery converges fast.
        let round = Micros::from_millis(10);
        for _ in 0..self.config.init_rounds {
            for computer in self.computers.iter_mut() {
                computer.kernel_mut().tick(self.now)?;
            }
            self.now += round;
            SimLan::advance_to(&self.lan, self.now);
        }
        Ok(())
    }

    /// Rewinds the whole cluster — LAN, CB kernels, resident LPs, executive
    /// clock and metrics — to the canonical session start at `epoch`, keeping
    /// the topology (computers, channels, registered objects) intact. Any
    /// installed fault plan is removed; install the next session's plan after
    /// this call.
    ///
    /// Called once at the end of [`crate::Cluster::initialize`]-driven
    /// construction and on every session reset, so recycled and freshly built
    /// clusters start sessions from bit-identical state.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by an LP's session reset.
    pub fn begin_session(&mut self, epoch: Micros, seed: u64) -> Result<(), CbError> {
        SimLan::begin_session(&self.lan, epoch, seed);
        for computer in self.computers.iter_mut() {
            computer.begin_session(epoch, seed)?;
        }
        self.now = epoch;
        self.metrics = ClusterMetrics::default();
        Ok(())
    }

    /// Runs one simulation frame across the whole cluster, returning the
    /// step-level [`FrameRecord`] for trace recorders and invariant checkers.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by an LP step or kernel tick.
    pub fn run_frame(&mut self) -> Result<FrameRecord, CbError> {
        let frame = self.metrics.frames_run;
        let dt = self.config.frame_period.as_secs_f64();
        let mut costs = Vec::with_capacity(self.computers.len());
        for computer in self.computers.iter_mut() {
            costs.push(computer.step_frame(self.now, dt)?);
        }
        self.now += self.config.frame_period;
        SimLan::advance_to(&self.lan, self.now);
        self.metrics.record_frame(self.config.frame_period, &costs);
        Ok(FrameRecord { frame, now: self.now, costs })
    }

    /// Runs `frames` simulation frames.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by an LP step or kernel tick.
    pub fn run_frames(&mut self, frames: usize) -> Result<(), CbError> {
        for _ in 0..frames {
            self.run_frame()?;
        }
        Ok(())
    }

    /// Runs frames until `duration` of simulated time has elapsed.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by an LP step or kernel tick.
    pub fn run_for(&mut self, duration: Micros) -> Result<(), CbError> {
        let deadline = self.now + duration;
        while self.now < deadline {
            self.run_frame()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_cb::{CbApi, ObjectClassId, ObjectId, Value};

    struct Producer {
        class: ObjectClassId,
        object: Option<ObjectId>,
        count: u32,
    }

    struct Consumer {
        class: ObjectClassId,
        received: std::sync::Arc<std::sync::atomic::AtomicU32>,
    }

    impl LogicalProcess for Producer {
        fn name(&self) -> &str {
            "producer"
        }
        fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
            cb.publish_object_class(self.class)?;
            self.object = Some(cb.register_object(self.class)?);
            Ok(())
        }
        fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
            self.count += 1;
            let attr = cb.fom().attribute_id(self.class, "value").expect("attribute");
            cb.update_attributes(
                self.object.expect("init ran"),
                [(attr, Value::U32(self.count))].into(),
            )
        }
        fn last_step_cost(&self) -> Micros {
            Micros::from_millis(5)
        }
    }

    impl LogicalProcess for Consumer {
        fn name(&self) -> &str {
            "consumer"
        }
        fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
            cb.subscribe_object_class(self.class)
        }
        fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
            let n = cb.reflections().len() as u32;
            self.received.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }
        fn last_step_cost(&self) -> Micros {
            Micros::from_millis(2)
        }
    }

    fn sample_fom() -> (ClassRegistry, ObjectClassId) {
        let mut fom = ClassRegistry::new();
        let class = fom.register_object_class("Sample", &["value"]).unwrap();
        (fom, class)
    }

    #[test]
    fn distributed_producer_consumer_exchange_state() {
        let (fom, class) = sample_fom();
        let received = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut cluster = Cluster::new(ClusterConfig::default(), fom);
        let a = cluster.add_computer("producer-pc");
        let b = cluster.add_computer("consumer-pc");
        cluster.add_lp(a, Box::new(Producer { class, object: None, count: 0 })).unwrap();
        cluster
            .add_lp(b, Box::new(Consumer { class, received: std::sync::Arc::clone(&received) }))
            .unwrap();

        cluster.initialize().unwrap();
        assert_eq!(cluster.established_channels(), 2, "one channel, counted on both ends");

        cluster.run_frames(50).unwrap();
        let got = received.load(std::sync::atomic::Ordering::Relaxed);
        assert!(got >= 40, "consumer only saw {got} updates");
        assert_eq!(cluster.metrics().frames_run, 50);
        assert!(cluster.lan_stats().datagrams_sent > 0);
    }

    #[test]
    fn co_resident_modules_do_not_use_the_lan_for_updates() {
        let (fom, class) = sample_fom();
        let received = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut cluster = Cluster::new(ClusterConfig::default(), fom);
        let only = cluster.add_computer("single-pc");
        cluster.add_lp(only, Box::new(Producer { class, object: None, count: 0 })).unwrap();
        cluster
            .add_lp(only, Box::new(Consumer { class, received: std::sync::Arc::clone(&received) }))
            .unwrap();
        cluster.initialize().unwrap();
        let baseline = cluster.lan_stats().datagrams_sent;
        cluster.run_frames(20).unwrap();
        assert_eq!(received.load(std::sync::atomic::Ordering::Relaxed), 20);
        let stats = cluster.computer(only).kernel().stats().clone();
        assert_eq!(stats.updates_sent_remote, 0);
        assert_eq!(stats.updates_routed_locally, 20);
        // Only protocol re-advertisements may have touched the LAN, no data.
        assert!(cluster.lan_stats().datagrams_sent - baseline <= 2);
    }

    #[test]
    fn metrics_reflect_per_computer_costs() {
        let (fom, class) = sample_fom();
        let received = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut cluster = Cluster::new(ClusterConfig::default(), fom);
        let a = cluster.add_computer("producer-pc");
        let b = cluster.add_computer_with_speed("consumer-pc", 2.0);
        cluster.add_lp(a, Box::new(Producer { class, object: None, count: 0 })).unwrap();
        cluster.add_lp(b, Box::new(Consumer { class, received })).unwrap();
        cluster.initialize().unwrap();
        cluster.run_frames(10).unwrap();
        assert_eq!(cluster.computer_cost("producer-pc"), Some(Micros::from_millis(50)));
        // Consumer runs on a 2x computer: 2 ms * 10 / 2 = 10 ms.
        assert_eq!(cluster.computer_cost("consumer-pc"), Some(Micros::from_millis(10)));
        assert_eq!(cluster.computer_cost("no-such-pc"), None);
        let m = cluster.metrics();
        assert_eq!(m.max_frame_cost, Micros::from_millis(5));
        assert_eq!(m.max_sequential_frame_cost, Micros::from_millis(6));
    }

    #[test]
    fn frame_period_helper() {
        assert_eq!(frame_period_for_fps(16.0), Micros(62_500));
        assert_eq!(frame_period_for_fps(30.0), Micros(33_333));
    }

    #[test]
    #[should_panic]
    fn zero_fps_rejected() {
        let _ = frame_period_for_fps(0.0);
    }

    #[test]
    fn run_frame_returns_step_records() {
        let (fom, class) = sample_fom();
        let mut cluster = Cluster::new(ClusterConfig::default(), fom);
        let a = cluster.add_computer("producer-pc");
        cluster.add_lp(a, Box::new(Producer { class, object: None, count: 0 })).unwrap();
        cluster.initialize().unwrap();
        let first = cluster.run_frame().unwrap();
        assert_eq!(first.frame, 0);
        assert_eq!(first.costs, [Micros::from_millis(5)]);
        let second = cluster.run_frame().unwrap();
        assert_eq!(second.frame, 1);
        assert_eq!(second.now, cluster.now());
    }

    #[test]
    fn fault_plan_reaches_the_cluster_lan() {
        let (fom, class) = sample_fom();
        let received = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut cluster = Cluster::new(ClusterConfig::default(), fom);
        let a = cluster.add_computer("producer-pc");
        let b = cluster.add_computer("consumer-pc");
        cluster.add_lp(a, Box::new(Producer { class, object: None, count: 0 })).unwrap();
        cluster
            .add_lp(b, Box::new(Consumer { class, received: std::sync::Arc::clone(&received) }))
            .unwrap();
        cluster.initialize().unwrap();
        cluster.set_fault_plan(cod_net::FaultPlan::seeded(1).with_drop_probability(0.5));
        cluster.run_frames(40).unwrap();
        let stats = cluster.lan_stats();
        assert!(stats.fault_drops > 0, "no fault drops recorded");
        // The exchange still makes progress despite the injected loss.
        assert!(received.load(std::sync::atomic::Ordering::Relaxed) > 5);
    }

    #[test]
    fn run_for_advances_to_deadline() {
        let (fom, _class) = sample_fom();
        let mut cluster = Cluster::new(ClusterConfig::default(), fom);
        cluster.add_computer("idle-pc");
        cluster.initialize().unwrap();
        let start = cluster.now();
        cluster.run_for(Micros::from_secs(1)).unwrap();
        assert!(cluster.now() >= start + Micros::from_secs(1));
    }
}
