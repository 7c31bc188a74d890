//! Angle newtypes and normalization helpers.
//!
//! The instructor Status window (paper Figure 5) reports the boom swing angle
//! and raise angle in degrees while the dynamics module works in radians; the
//! [`Deg`] / [`Rad`] newtypes keep the two from being mixed up.

use std::f64::consts::{PI, TAU};
use std::fmt;

/// An angle expressed in degrees.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Deg(pub f64);

/// An angle expressed in radians.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rad(pub f64);

impl Deg {
    /// Converts to radians.
    pub fn to_rad(self) -> Rad {
        Rad(self.0.to_radians())
    }

    /// Raw value in degrees.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Rad {
    /// Converts to degrees.
    pub fn to_deg(self) -> Deg {
        Deg(self.0.to_degrees())
    }

    /// Raw value in radians.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl From<Deg> for Rad {
    fn from(d: Deg) -> Rad {
        d.to_rad()
    }
}

impl From<Rad> for Deg {
    fn from(r: Rad) -> Deg {
        r.to_deg()
    }
}

impl fmt::Display for Deg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}°", self.0)
    }
}

impl fmt::Display for Rad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} rad", self.0)
    }
}

/// Wraps an angle in radians into the half-open interval `(-pi, pi]`.
///
/// ```
/// use sim_math::wrap_to_pi;
/// use std::f64::consts::PI;
/// assert!((wrap_to_pi(3.0 * PI) - PI).abs() < 1e-12);
/// ```
pub fn wrap_to_pi(angle: f64) -> f64 {
    let mut a = (angle + PI) % TAU;
    if a <= 0.0 {
        a += TAU;
    }
    a - PI
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn deg_rad_roundtrip() {
        let d = Deg(123.456);
        let back: Deg = Rad::from(d).into();
        assert!(approx_eq(d.0, back.0, 1e-9));
    }

    #[test]
    fn wrap_to_pi_range() {
        for k in -20..20 {
            let a = wrap_to_pi(k as f64 * 1.3);
            assert!(a > -PI - 1e-12 && a <= PI + 1e-12);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Deg(45.0)), "45.00°");
        assert!(format!("{}", Rad(1.0)).contains("rad"));
    }
}
