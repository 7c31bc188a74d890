//! Dynamics substrate for the mobile-crane simulator.
//!
//! The paper's dynamics module (§3.6) "increases the realism of simulation by
//! calculating various physical phenomena": the inertia oscillation of the lift
//! hook on its cable, multi-level collision detection, and terrain following.
//! This crate implements each of those plus the pieces they depend on:
//!
//! * [`crane`] — the articulated mobile crane: slew / luff / telescope /
//!   hoist kinematics with actuator rate limits and safety envelope checks.
//! * [`pendulum`] — the hook-and-cargo pendulum hanging from the boom tip,
//!   integrated with a stiff cable constraint so inertia oscillation appears
//!   whenever the boom moves and decays to a full stop afterwards.
//! * [`vehicle`] — the driving model (steering wheel, gas pedal, brake) with
//!   terrain following for the chassis.
//! * [`terrain`] — height-field terrain queries shared with the scene crate.
//! * [`collision`] — the multi-level collision detection of Moore & Wilhelms
//!   referenced by the paper: bounding-sphere, then AABB, then exact tests.
//! * [`stability`] — tip-over / load-moment computation that drives the
//!   instructor's alarm lights.

pub mod collision;
pub mod crane;
pub mod pendulum;
pub mod stability;
pub mod terrain;
pub mod vehicle;

pub use collision::{CollisionWorld, Contact};
pub use crane::{CraneControls, CraneLimits, CraneRig, CraneState};
pub use pendulum::CablePendulum;
pub use stability::{StabilityModel, StabilityReport};
pub use terrain::{FlatTerrain, FnTerrain, Terrain};
pub use vehicle::{CraneVehicle, DriveControls, VehicleParams};

/// Standard gravity used throughout the dynamics module (m/s^2).
pub const GRAVITY: f64 = 9.81;
