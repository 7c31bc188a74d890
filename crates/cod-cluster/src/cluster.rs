//! The cluster executive: a deterministic frame-driven driver for the COD.

use cod_cb::{CbError, ClassRegistry, LpId};
use cod_net::{FaultPlan, LanConfig, LanStats, Micros, SimLan};

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
    /// Modeled CPU cost of the frame summed over every computer (the
    /// per-computer split accumulates in [`Cluster::metrics`]).
    pub cost: Micros,
}

/// The Cluster Of Desktop computers: computers + LAN + executive loop.
///
/// The cluster owns its LAN and lends it to each computer's CB for that CB's
/// tick; the LAN's clock is the cluster's simulation time.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    fom: ClassRegistry,
    lan: SimLan,
    computers: Vec<Computer>,
    metrics: ClusterMetrics,
    /// The last frame's modeled cost per computer, in rack order: one buffer
    /// kept across frames.
    costs: Vec<Micros>,
}

impl Cluster {
    /// Creates an empty cluster sharing the given FOM.
    pub fn new(config: ClusterConfig, fom: ClassRegistry) -> Cluster {
        Cluster {
            config,
            fom,
            lan: SimLan::new(config.lan),
            computers: Vec::new(),
            metrics: ClusterMetrics::default(),
            costs: Vec::new(),
        }
    }

    /// Adds a computer (rack slot) to the cluster and returns its id.
    pub fn add_computer(&mut self, name: &str) -> ComputerId {
        let addr = self.lan.attach();
        self.computers.push(Computer::new(name, addr, self.fom.clone()));
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

    /// Number of computers in the cluster.
    pub fn computer_count(&self) -> usize {
        self.computers.len()
    }

    /// Access to a computer.
    pub fn computer(&self, id: ComputerId) -> &Computer {
        &self.computers[id.0]
    }

    /// Current simulation time: the LAN clock.
    pub fn now(&self) -> Micros {
        self.lan.now()
    }

    /// The executive metrics accumulated so far.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Total modeled CPU cost accumulated so far on the computer called
    /// `name`, or `None` if the rack has no such computer.
    pub fn computer_cost(&self, name: &str) -> Option<Micros> {
        let index = self.computers.iter().position(|c| c.name() == name)?;
        Some(self.metrics.computer_cost.get(index).map_or(Micros::ZERO, |c| c.total))
    }

    /// Traffic counters of the cluster LAN.
    pub fn lan_stats(&self) -> LanStats {
        *self.lan.stats()
    }

    /// Installs a fault-injection plan on the cluster LAN (see
    /// [`cod_net::FaultPlan`]); faults apply to every datagram sent after this
    /// call, drawn from the plan's own seeded RNG stream.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.lan.set_fault_plan(plan);
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
            let now = self.lan.now();
            for computer in self.computers.iter_mut() {
                computer.kernel.tick(now, &mut self.lan)?;
            }
            self.lan.advance_to(now + round);
        }
        Ok(())
    }

    /// Rewinds the whole cluster — LAN (and with it the cluster clock), CB
    /// kernels, resident LPs and metrics — to the canonical session start at
    /// `epoch`, keeping the topology (computers, channels, registered objects)
    /// intact. Any installed fault plan is removed; install the next session's
    /// plan after this call.
    ///
    /// Called once at the end of [`crate::Cluster::initialize`]-driven
    /// construction and on every session reset, so recycled and freshly built
    /// clusters start sessions from bit-identical state.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by an LP's session reset.
    pub fn begin_session(&mut self, epoch: Micros, seed: u64) -> Result<(), CbError> {
        self.lan.begin_session(epoch, seed);
        for computer in self.computers.iter_mut() {
            computer.begin_session(epoch, seed)?;
        }
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
        let start = self.lan.now();
        self.costs.clear();
        for computer in self.computers.iter_mut() {
            self.costs.push(computer.step_frame(start, dt, &mut self.lan)?);
        }
        let now = start + self.config.frame_period;
        self.lan.advance_to(now);
        self.metrics.record_frame(self.config.frame_period, &self.costs);
        let cost = self.costs.iter().fold(Micros::ZERO, |sum, c| sum + *c);
        Ok(FrameRecord { frame, now, cost })
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
        let peaks: Vec<Micros> = m.computer_cost.iter().map(|c| c.peak).collect();
        assert_eq!(peaks, [Micros::from_millis(5), Micros::from_millis(1)]);
        assert_eq!(m.max_frame_cost(), Micros::from_millis(5), "the largest peak");
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
        let b = cluster.add_computer("consumer-pc");
        cluster.add_lp(a, Box::new(Producer { class, object: None, count: 0 })).unwrap();
        let received = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        cluster.add_lp(b, Box::new(Consumer { class, received })).unwrap();
        cluster.initialize().unwrap();
        let first = cluster.run_frame().unwrap();
        assert_eq!(first.frame, 0);
        assert_eq!(first.cost, Micros::from_millis(7), "5 ms and 2 ms, summed");
        let second = cluster.run_frame().unwrap();
        assert_eq!(second.frame, 1);
        assert_eq!(second.now, cluster.now());
        let per_computer = [Micros::from_millis(10), Micros::from_millis(4)];
        let totals: Vec<Micros> = cluster.metrics().computer_cost.iter().map(|c| c.total).collect();
        assert_eq!(totals, per_computer, "split in rack order");
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
}
