//! Small, self-contained 3D math substrate for the COD mobile-crane simulator.
//!
//! The simulator reproduction deliberately avoids external linear-algebra
//! crates; every other crate in the workspace (physics, rendering, motion
//! platform) builds on the primitives defined here.
//!
//! # Quick example
//!
//! ```
//! use sim_math::{Vec3, Quat, Transform};
//!
//! let boom_tip = Vec3::new(0.0, 10.0, 0.0);
//! let slew = Quat::from_axis_angle(Vec3::unit_y(), 90f64.to_radians());
//! let t = Transform::new(Vec3::new(1.0, 0.0, 0.0), slew);
//! let world = t.apply(boom_tip);
//! assert!((world.x - 1.0).abs() < 1e-9);
//! ```

pub mod angle;
pub mod batch;
pub mod filter;
pub mod hash;
pub mod integrate;
pub mod interp;
pub mod mat;
pub mod noise;
pub mod quat;
pub mod transform;
pub mod vec;

pub use angle::{wrap_to_pi, Deg, Rad};
pub use batch::rk4_step_batch;
pub use filter::{HighPass, LowPass, RateLimiter};
pub use hash::{mix64, Fnv1a, SplitMix64};
pub use integrate::rk4_step;
pub use interp::{lerp, percentile_sorted};
pub use mat::{Mat3, Mat4};
pub use noise::ValueNoise;
pub use quat::Quat;
pub use transform::Transform;
pub use vec::{Vec2, Vec3};

/// Numerical tolerance used by approximate comparisons throughout the workspace.
pub const EPSILON: f64 = 1.0e-9;

/// Returns `true` when two floating point numbers are within `tol` of each other.
///
/// ```
/// assert!(sim_math::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!sim_math::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Clamps `x` into the inclusive range `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo > hi`.
///
/// ```
/// assert_eq!(sim_math::clamp(5.0, 0.0, 1.0), 1.0);
/// ```
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    assert!(lo <= hi, "clamp called with lo > hi");
    x.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_respects_tolerance() {
        assert!(approx_eq(0.0, 0.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + 5e-10, EPSILON));
        assert!(!approx_eq(1.0, 1.0 + 5e-9, EPSILON));
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(-1.0, 0.0, 2.0), 0.0);
        assert_eq!(clamp(3.0, 0.0, 2.0), 2.0);
        assert_eq!(clamp(1.5, 0.0, 2.0), 1.5);
    }

    #[test]
    #[should_panic]
    fn clamp_panics_on_inverted_range() {
        let _ = clamp(0.0, 2.0, 1.0);
    }
}
