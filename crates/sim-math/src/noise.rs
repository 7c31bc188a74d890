//! Deterministic 1D value noise.
//!
//! The motion-platform vibration generator (paper §3.4: "constantly generates a
//! random up-and-down vibration") needs a smooth, repeatable noise source; this
//! module provides one from a stateless hash of the lattice coordinate.

use crate::hash::{mix64, unit_f64, GOLDEN_GAMMA};

/// Smooth 1D value noise with a deterministic seed.
///
/// Noise values are in `[-1, 1]` and vary smoothly with the input coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueNoise {
    seed: u64,
}

impl ValueNoise {
    /// Creates a noise source from a seed.
    pub fn new(seed: u64) -> ValueNoise {
        ValueNoise { seed }
    }

    /// Hash an integer lattice coordinate into `[-1, 1]`.
    fn lattice(&self, i: i64) -> f64 {
        let z = mix64((i as u64).wrapping_mul(GOLDEN_GAMMA) ^ self.seed);
        unit_f64(z) * 2.0 - 1.0
    }

    /// Samples the noise at coordinate `x` (smoothly interpolated).
    pub fn sample(&self, x: f64) -> f64 {
        let i = x.floor() as i64;
        let frac = x - x.floor();
        let a = self.lattice(i);
        let b = self.lattice(i + 1);
        let t = frac * frac * (3.0 - 2.0 * frac);
        a + (b - a) * t
    }

    /// Samples fractal (multi-octave) noise for a rougher signal.
    ///
    /// # Panics
    ///
    /// Panics if `octaves == 0`.
    pub fn fractal(&self, x: f64, octaves: u32) -> f64 {
        assert!(octaves > 0, "at least one octave required");
        let mut amplitude = 1.0;
        let mut frequency = 1.0;
        let mut sum = 0.0;
        let mut norm = 0.0;
        for _ in 0..octaves {
            sum += amplitude * self.sample(x * frequency);
            norm += amplitude;
            amplitude *= 0.5;
            frequency *= 2.0;
        }
        sum / norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = ValueNoise::new(42);
        let b = ValueNoise::new(42);
        for i in 0..100 {
            let x = i as f64 * 0.37;
            assert_eq!(a.sample(x), b.sample(x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ValueNoise::new(1);
        let b = ValueNoise::new(2);
        let differs = (0..100).any(|i| a.sample(i as f64 * 0.5) != b.sample(i as f64 * 0.5));
        assert!(differs);
    }

    #[test]
    fn bounded_output() {
        let n = ValueNoise::new(7);
        for i in 0..10_000 {
            let v = n.sample(i as f64 * 0.0137);
            assert!((-1.0..=1.0).contains(&v), "out of range: {v}");
            let f = n.fractal(i as f64 * 0.0137, 4);
            assert!((-1.0..=1.0).contains(&f), "fractal out of range: {f}");
        }
    }

    #[test]
    fn continuity_across_lattice_points() {
        let n = ValueNoise::new(99);
        for i in 0..100 {
            let x = i as f64;
            let left = n.sample(x - 1e-9);
            let right = n.sample(x + 1e-9);
            assert!((left - right).abs() < 1e-6, "discontinuity at {x}");
        }
    }

    #[test]
    #[should_panic]
    fn fractal_zero_octaves_panics() {
        let _ = ValueNoise::new(0).fractal(1.0, 0);
    }
}
