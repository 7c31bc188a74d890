//! `cod-fleet` — a sharded multi-session serving layer for the crane
//! simulator.
//!
//! The paper builds *one* high-fidelity simulator on a cluster of desktop
//! PCs; the ROADMAP's north star is a production system serving heavy traffic
//! — which makes the *session*, not the frame, the unit of work. This crate
//! turns the single-simulator runtime into a serving system:
//!
//! * [`workload`] — a seeded arrival process over the scenario mix of the
//!   cod-testkit matrix (operator skill x GPU x display channels x LAN fault
//!   plan); same seed, same workload.
//! * [`admission`] — bounded *priority* queue admission control, holding the
//!   queued sessions themselves, and least-loaded placement, kept pure so its
//!   safety properties (never exceed capacity or the queue bound, never
//!   reject while a slot is free, FIFO order within a class) are
//!   property-tested.
//! * [`shard`] — a worker of a given relative CPU speed hosting several
//!   concurrent sessions, recycling retired simulators through
//!   [`crane_sim::CraneSimulator::reset_for_session`] so the expensive CB
//!   initialization runs once per session *shape*, not once per session; a
//!   resident can be serialized to a [`shard::PortableSession`] and resumed
//!   anywhere by deterministic replay.
//! * [`fleet`] — the tick-driven executive: offer, place, preempt, migrate,
//!   batch-step all shards on the pool sized by [`fleet::ExecutionMode`],
//!   retire; each decision is one [`FleetEvent`] in a log that every count
//!   folds and one walk checks for conservation; accounted in modeled time.
//! * [`executor`] — the execution engine every run steps on: a fixed pool
//!   of stepping threads (the driver itself plus spawned workers) taking
//!   shard batches off one queue and stepping them in real time (each shard
//!   on its home thread when that thread is free; a thread with nothing
//!   ready spins briefly, then parks), with the results merged in shard
//!   order so any thread count reproduces the 1-thread run bit for bit. [`fleet::run_fleet_timed`] reports the real elapsed time
//!   beside (never inside) the deterministic outcome.
//! * [`report`] — `FLEET_cod.json`, byte-identical across runs of the same
//!   seed — and, by the merge-order guarantee, across thread counts too.
//!
//! ```
//! use cod_fleet::{
//!     run_fleet_timed, ExecutionMode, FleetConfig, PlacementPolicy, ShardConfig, WorkloadConfig,
//! };
//!
//! let config = FleetConfig {
//!     shards: 2,
//!     shard: ShardConfig { slots: 2, batch_frames: 8, pool_per_shape: 1, ..ShardConfig::default() },
//!     shard_speeds: vec![2.0, 0.5], // one fast PC, one slow PC
//!     placement: PlacementPolicy::SpeedWeighted,
//!     preemption: true,
//!     migration: true,
//!     tiering: true,
//!     max_pending: 4,
//!     workload: WorkloadConfig { sessions: 3, seed: 7, base_frames: 10, mean_interarrival_ticks: 1 },
//!     execution: ExecutionMode::WallClock { threads: 2 },
//!     obs: cod_fleet::ObsConfig::Disabled,
//! };
//! let (outcome, wall) = run_fleet_timed(&config).expect("fleet drains");
//! let completed = outcome.sessions.len() as u64;
//! assert_eq!(outcome.offered, 3);
//! assert_eq!(completed + outcome.rejected, 3);
//! assert_eq!(wall.threads, 2);
//! assert!(wall.sessions_per_wall_sec(completed) > 0.0);
//! ```

pub mod admission;
pub mod executor;
pub mod fleet;
pub mod report;
pub mod shard;
pub mod workload;

pub use admission::{AdmissionConfig, AdmissionState};
pub use cod_trace::{DetTrace, Histogram, ObsConfig, WallTrace, OBS_SCHEMA};
pub use executor::{WallClockExecutor, WallStopwatch};
pub use fleet::{
    run_fleet, run_fleet_timed, run_fleet_traced, ExecutionMode, FleetConfig, FleetEvent,
    FleetEventKind, FleetOutcome, PlacementPolicy, SessionOutcome, TraceArtifacts, WallClockStats,
};
pub use report::{document, FleetReport, TieredSection, SCHEMA};
pub use shard::{
    Completed, PortableSession, SessionShape, Shard, ShardConfig, ShardStats, SteppingMode,
};
pub use workload::{
    coarse_eligible, generate, initial_tier, Arrival, Priority, SessionSpec, WorkloadConfig,
};
