//! Simulated time base.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in microseconds since LAN start.
///
/// Microsecond resolution comfortably resolves both frame periods (tens of
/// milliseconds) and per-datagram serialization delays (tens of microseconds
/// on fast Ethernet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero time.
    pub const ZERO: Micros = Micros(0);

    /// Constructs from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Micros {
        Micros(ms * 1_000)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Micros {
        Micros(s * 1_000_000)
    }

    /// Constructs from fractional seconds, rounding to the nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Micros {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        Micros((secs * 1e6).round() as u64)
    }

    /// The value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The value in whole milliseconds (truncated).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms", self.0 as f64 / 1e3)
    }
}

/// A monotonically advancing simulated clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: Micros,
}

impl SimClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> SimClock {
        SimClock { now: Micros::ZERO }
    }

    /// Current simulated time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Advances the clock by `dt`.
    pub fn advance(&mut self, dt: Micros) {
        self.now += dt;
    }

    /// Advances the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time (the clock is monotone).
    pub fn advance_to(&mut self, t: Micros) {
        assert!(t >= self.now, "clock cannot run backwards: {:?} -> {:?}", self.now, t);
        self.now = t;
    }

    /// Rewinds the clock to `t`, bypassing the monotonicity guarantee.
    ///
    /// This exists for session recycling only: when a simulator is reset for a
    /// new session the whole cluster (LAN included) is rewound to the canonical
    /// session epoch so a recycled run is bit-identical to a fresh one. Normal
    /// simulation code must use [`SimClock::advance_to`].
    pub fn reset_to(&mut self, t: Micros) {
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Micros::from_millis(16).0, 16_000);
        assert_eq!(Micros::from_secs(2).0, 2_000_000);
        assert!((Micros::from_secs_f64(0.0625).as_secs_f64() - 0.0625).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = Micros(100) + Micros(50);
        assert_eq!(a, Micros(150));
        assert_eq!(a - Micros(100), Micros(50));
        assert_eq!(Micros(10).saturating_sub(Micros(20)), Micros::ZERO);
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = SimClock::new();
        c.advance(Micros(10));
        c.advance_to(Micros(20));
        assert_eq!(c.now(), Micros(20));
    }

    #[test]
    #[should_panic]
    fn clock_rejects_backwards_jump() {
        let mut c = SimClock::new();
        c.advance_to(Micros(20));
        c.advance_to(Micros(10));
    }

    #[test]
    fn display_in_milliseconds() {
        assert_eq!(format!("{}", Micros(1_500)), "1.500 ms");
    }
}
