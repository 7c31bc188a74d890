//! Fixed-step numerical integrators used by the dynamics module.

/// One classical fourth-order Runge–Kutta step for a first-order ODE system.
///
/// `state` is the current state vector, `deriv(t, state)` returns its time
/// derivative, `t` is the current time and `dt` the step size. Returns the new
/// state at `t + dt`.
///
/// The lift-hook pendulum (paper §3.6) is integrated with this routine.
pub fn rk4_step<F>(state: &[f64], deriv: F, t: f64, dt: f64) -> Vec<f64>
where
    F: Fn(f64, &[f64]) -> Vec<f64>,
{
    let n = state.len();
    let k1 = deriv(t, state);
    debug_assert_eq!(k1.len(), n, "derivative dimension mismatch");

    let mut tmp = vec![0.0; n];
    for i in 0..n {
        tmp[i] = state[i] + 0.5 * dt * k1[i];
    }
    let k2 = deriv(t + 0.5 * dt, &tmp);

    for i in 0..n {
        tmp[i] = state[i] + 0.5 * dt * k2[i];
    }
    let k3 = deriv(t + 0.5 * dt, &tmp);

    for i in 0..n {
        tmp[i] = state[i] + dt * k3[i];
    }
    let k4 = deriv(t + dt, &tmp);

    let mut out = vec![0.0; n];
    for i in 0..n {
        out[i] = state[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple harmonic oscillator: x'' = -x, analytic solution cos(t).
    fn sho_deriv(_t: f64, s: &[f64]) -> Vec<f64> {
        vec![s[1], -s[0]]
    }

    #[test]
    fn rk4_tracks_harmonic_oscillator() {
        let mut state = vec![1.0, 0.0];
        let dt = 0.01;
        let steps = 628; // ~ one period (2*pi)
        for i in 0..steps {
            state = rk4_step(&state, sho_deriv, i as f64 * dt, dt);
        }
        let t = steps as f64 * dt;
        assert!((state[0] - t.cos()).abs() < 1e-6);
        assert!((state[1] + t.sin()).abs() < 1e-6);
    }

    #[test]
    fn rk4_exact_for_constant_derivative() {
        let state = vec![2.0];
        let next = rk4_step(&state, |_, _| vec![3.0], 0.0, 0.5);
        assert!((next[0] - 3.5).abs() < 1e-12);
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_rk4_energy_bounded_across_1k_steps(x0 in -2.0..2.0f64, v0 in -2.0..2.0f64,
                                                   dt in 0.001..0.02f64) {
            // Harmonic oscillator from a random initial condition: total energy
            // 0.5*(x^2 + v^2) must stay within a whisker of its initial value
            // for a thousand RK4 steps (RK4 damps very slightly, never grows).
            let mut state = vec![x0, v0];
            let e0 = 0.5 * (x0 * x0 + v0 * v0);
            for i in 0..1_000 {
                state = rk4_step(&state, sho_deriv, i as f64 * dt, dt);
                let e = 0.5 * (state[0] * state[0] + state[1] * state[1]);
                prop_assert!(e <= e0 * 1.000_001 + 1e-12, "energy grew: {e} > {e0}");
                prop_assert!(e >= e0 * 0.99 - 1e-12, "energy collapsed: {e} < {e0}");
            }
        }

        #[test]
        fn prop_rk4_linear_system_matches_exact_solution(x0 in -3.0..3.0f64,
                                                         rate in -1.0..1.0f64) {
            // x' = rate * x has the exact solution x0 * exp(rate * t).
            let dt = 0.01;
            let mut s = vec![x0];
            for i in 0..100 {
                s = rk4_step(&s, |_, s| vec![rate * s[0]], i as f64 * dt, dt);
            }
            let exact = x0 * (rate * 1.0f64).exp();
            prop_assert!((s[0] - exact).abs() < 1e-8, "rk4 {} vs exact {exact}", s[0]);
        }
    }

    #[test]
    fn rk4_converges_with_smaller_steps() {
        // Error at t=1 for x' = x should shrink roughly as dt^4.
        let run = |dt: f64| {
            let mut s = vec![1.0];
            let steps = (1.0 / dt).round() as usize;
            for i in 0..steps {
                s = rk4_step(&s, |_, s| vec![s[0]], i as f64 * dt, dt);
            }
            (s[0] - 1f64.exp()).abs()
        };
        let coarse = run(0.1);
        let fine = run(0.05);
        assert!(fine < coarse / 8.0, "coarse={coarse}, fine={fine}");
    }
}
