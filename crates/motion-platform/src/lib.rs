//! Stewart-platform motion base substrate (paper §3.4).
//!
//! The motion platform of the original trainer is a Stewart platform: "six
//! parallel manipulators connect the platform with the base \[and\] can be
//! expanded and contracted individually to control the gesture of the
//! platform". The physical actuators are replaced here by a kinematic model;
//! everything the motion platform *controller* module has to do — washout
//! filtering of the vehicle motion, interpolation synchronized with the visual
//! frame rate, engine-vibration injection, actuator limit checking — runs
//! against that model exactly as it would against the hardware.
//!
//! ```
//! use motion_platform::{PlatformPose, StewartGeometry, inverse_kinematics};
//! use sim_math::Vec3;
//!
//! let geometry = StewartGeometry::training_platform();
//! let pose = PlatformPose { translation: Vec3::new(0.0, 0.05, 0.0), ..Default::default() };
//! let legs = inverse_kinematics(&geometry, &pose);
//! assert_eq!(legs.len(), 6);
//! ```

pub mod actuator;
pub mod controller;
pub mod geometry;
pub mod interpolate;
pub mod kinematics;
pub mod vibration;
pub mod washout;

pub use actuator::{Actuator, ActuatorLimits};
pub use controller::{MotionController, MotionCue};
pub use geometry::{PlatformPose, StewartGeometry};
pub use interpolate::PoseInterpolator;
pub use kinematics::{forward_kinematics, inverse_kinematics};
pub use vibration::VibrationGenerator;
pub use washout::WashoutFilter;
