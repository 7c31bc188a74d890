//! Lockstep (structure-of-arrays) variants of the fixed-step integrators.
//!
//! The serving layer advances same-shape sessions frame-major: one pass per
//! subsystem across N sessions instead of N passes over one session. These
//! kernels are that pattern for the integrators of [`crate::integrate`]: each
//! lane performs exactly the scalar routine's arithmetic in exactly its
//! order, so a batch of N lanes is bit-identical to N scalar calls — the
//! property the fleet's determinism contract rides on. The payoff is loop
//! structure (one sweep amortizes call and closure overhead and keeps lane
//! state hot), never reordered floating point.

use crate::integrate::rk4_step;

/// One classical RK4 step across every lane, in place.
///
/// Lane `i` advances `states[i]` exactly like [`rk4_step`] with derivative
/// `deriv(i, t, state)`.
pub fn rk4_step_batch<F>(states: &mut [Vec<f64>], deriv: F, t: f64, dt: f64)
where
    F: Fn(usize, f64, &[f64]) -> Vec<f64>,
{
    for (i, state) in states.iter_mut().enumerate() {
        *state = rk4_step(state, |t, s| deriv(i, t, s), t, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk4_batch_is_bit_identical_to_scalar_lanes() {
        // Harmonic oscillators with lane-dependent frequency.
        let mut states: Vec<Vec<f64>> = (0..8).map(|i| vec![1.0 + 0.1 * i as f64, 0.0]).collect();
        let mut reference = states.clone();
        let dt = 0.01;
        for k in 0..200 {
            let t = k as f64 * dt;
            rk4_step_batch(&mut states, |i, _t, s| vec![s[1], -(1.0 + i as f64) * s[0]], t, dt);
            for (i, state) in reference.iter_mut().enumerate() {
                *state = rk4_step(state, |_t, s| vec![s[1], -(1.0 + i as f64) * s[0]], t, dt);
            }
        }
        for (i, (a, b)) in states.iter().zip(reference.iter()).enumerate() {
            assert_eq!(a[0].to_bits(), b[0].to_bits(), "lane {i} diverged");
            assert_eq!(a[1].to_bits(), b[1].to_bits(), "lane {i} diverged");
        }
    }
}
