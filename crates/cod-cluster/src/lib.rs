//! COD runtime: the Cluster Of Desktop computers as an executable object.
//!
//! The Communication Backbone crate ([`cod_cb`]) provides the distribution
//! socket; this crate provides the machinery around it that the paper's §2
//! describes informally:
//!
//! * [`LogicalProcess`] — the trait every simulator module implements. A
//!   module only ever talks to its resident CB through [`cod_cb::CbApi`], so it
//!   can be placed on any computer of the cluster without change.
//! * [`Computer`] — one desktop PC: a CB kernel, the LPs resident on it, and a
//!   relative CPU speed (the rack of Figure 11 was not perfectly homogeneous).
//! * [`Cluster`] — the whole COD: a simulated LAN, a set of computers, and a
//!   deterministic frame-driven executive that interleaves module steps, CB
//!   ticks and LAN delivery.
//! * [`framesync`] — the synchronization server used by the three display
//!   channels to swap in lock-step (paper §4: the fourth computer).
//! * [`pipeline`] — analytic model of pipelined vs sequential execution used by
//!   the cluster-speedup experiment (E6).
//! * [`placement`] — load-based assignment of LPs to computers.
//!
//! # Example: a two-computer producer/consumer cluster
//!
//! ```
//! use cod_cluster::{Cluster, ClusterConfig, LogicalProcess};
//! use cod_cb::{CbApi, CbError, ClassRegistry, ObjectClassId, ObjectId, Value};
//!
//! struct Producer { class: ObjectClassId, object: Option<ObjectId>, ticks: u32 }
//! struct Consumer { class: ObjectClassId, received: u32 }
//!
//! impl LogicalProcess for Producer {
//!     fn name(&self) -> &str { "producer" }
//!     fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
//!         cb.publish_object_class(self.class)?;
//!         self.object = Some(cb.register_object(self.class)?);
//!         Ok(())
//!     }
//!     fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
//!         self.ticks += 1;
//!         let attr = cb.fom().attribute_id(self.class, "value").expect("attr");
//!         cb.update_attributes(self.object.unwrap(), [(attr, Value::U32(self.ticks))].into())
//!     }
//! }
//!
//! impl LogicalProcess for Consumer {
//!     fn name(&self) -> &str { "consumer" }
//!     fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
//!         cb.subscribe_object_class(self.class)
//!     }
//!     fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
//!         self.received += cb.reflections().len() as u32;
//!         Ok(())
//!     }
//! }
//!
//! let mut fom = ClassRegistry::new();
//! let class = fom.register_object_class("Sample", &["value"]).unwrap();
//!
//! let mut cluster = Cluster::new(ClusterConfig::default(), fom);
//! let producer_pc = cluster.add_computer("producer-pc");
//! let consumer_pc = cluster.add_computer("consumer-pc");
//! cluster.add_lp(producer_pc, Box::new(Producer { class, object: None, ticks: 0 })).unwrap();
//! cluster.add_lp(consumer_pc, Box::new(Consumer { class, received: 0 })).unwrap();
//!
//! cluster.initialize().unwrap();
//! cluster.run_frames(30).unwrap();
//! assert!(cluster.metrics().frames_run == 30);
//! ```

pub mod cluster;
pub mod computer;
pub mod framesync;
pub mod lp;
pub mod metrics;
pub mod pipeline;
pub mod placement;

pub use cluster::{frame_period_for_fps, Cluster, ClusterConfig, ComputerId, FrameRecord};
pub use computer::Computer;
pub use framesync::{FrameSyncClient, FrameSyncFom, FrameSyncServer, SyncBarrierModel};
pub use lp::LogicalProcess;
pub use metrics::{ClusterMetrics, ComputerFrameRecord};
pub use pipeline::{PipelineModel, StageCost};
pub use placement::{balance_load, least_loaded, nominal_sequential_frame_cost, LpLoad, Placement};
