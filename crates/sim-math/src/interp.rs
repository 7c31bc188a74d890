//! Scalar interpolation helpers used by the motion platform and animation code.

/// Linear interpolation between `a` and `b` by factor `t` (not clamped).
///
/// ```
/// assert_eq!(sim_math::lerp(0.0, 10.0, 0.25), 2.5);
/// ```
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// The `p`-th percentile (0–100, clamped) of an ascending sample, linearly
/// interpolated between the closest ranks: `p = 0` is the minimum, `p = 100`
/// the maximum and `p = 50` the conventional median. The one definition of a
/// percentile that the benchmark layer and the fleet report share.
///
/// ```
/// assert_eq!(sim_math::percentile_sorted(&[10.0, 20.0, 30.0, 40.0], 75.0), 32.5);
/// ```
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    lerp(sorted[lo], sorted[hi], frac)
}

/// Moves `current` toward `target` by at most `max_delta`, never overshooting.
pub fn move_toward(current: f64, target: f64, max_delta: f64) -> f64 {
    debug_assert!(max_delta >= 0.0);
    let delta = target - current;
    if delta.abs() <= max_delta {
        target
    } else {
        current + max_delta * delta.signum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 4.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 4.0, 1.0), 4.0);
    }

    #[test]
    fn move_toward_does_not_overshoot() {
        assert_eq!(move_toward(0.0, 10.0, 3.0), 3.0);
        assert_eq!(move_toward(9.5, 10.0, 3.0), 10.0);
        assert_eq!(move_toward(10.0, 0.0, 4.0), 6.0);
    }

    proptest! {
        #[test]
        fn prop_lerp_between_bounds(a in -100.0..100.0f64, b in -100.0..100.0f64, t in 0.0..1.0f64) {
            let v = lerp(a, b, t);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }

        #[test]
        fn prop_move_toward_converges(a in -50.0..50.0f64, b in -50.0..50.0f64) {
            let mut x = a;
            for _ in 0..2000 {
                x = move_toward(x, b, 0.1);
            }
            prop_assert!((x - b).abs() < 1e-9);
        }
    }
}
