//! Discrete-time signal filters.
//!
//! The motion-platform washout algorithm (paper §3.4) is built from the
//! high-pass and low-pass stages defined here; the dashboard module uses the
//! rate limiter to model the finite slew rate of analog meters.

/// First-order low-pass filter (exponential smoothing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowPass {
    cutoff_hz: f64,
    state: f64,
    initialized: bool,
}

impl LowPass {
    /// Creates a filter with the given cutoff frequency in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_hz <= 0`.
    pub fn new(cutoff_hz: f64) -> LowPass {
        assert!(cutoff_hz > 0.0, "cutoff frequency must be positive");
        LowPass { cutoff_hz, state: 0.0, initialized: false }
    }

    /// Feeds one sample taken `dt` seconds after the previous one and returns
    /// the filtered value.
    pub fn update(&mut self, input: f64, dt: f64) -> f64 {
        if !self.initialized {
            self.state = input;
            self.initialized = true;
            return input;
        }
        let rc = 1.0 / (2.0 * std::f64::consts::PI * self.cutoff_hz);
        let alpha = dt / (rc + dt);
        self.state += alpha * (input - self.state);
        self.state
    }

    /// The most recent output value.
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Resets the filter to an uninitialized state.
    pub fn reset(&mut self) {
        self.state = 0.0;
        self.initialized = false;
    }
}

/// First-order high-pass filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HighPass {
    cutoff_hz: f64,
    prev_input: f64,
    state: f64,
    initialized: bool,
}

impl HighPass {
    /// Creates a filter with the given cutoff frequency in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_hz <= 0`.
    pub fn new(cutoff_hz: f64) -> HighPass {
        assert!(cutoff_hz > 0.0, "cutoff frequency must be positive");
        HighPass { cutoff_hz, prev_input: 0.0, state: 0.0, initialized: false }
    }

    /// Feeds one sample taken `dt` seconds after the previous one and returns
    /// the filtered value.
    pub fn update(&mut self, input: f64, dt: f64) -> f64 {
        if !self.initialized {
            self.prev_input = input;
            self.state = 0.0;
            self.initialized = true;
            return 0.0;
        }
        let rc = 1.0 / (2.0 * std::f64::consts::PI * self.cutoff_hz);
        let alpha = rc / (rc + dt);
        self.state = alpha * (self.state + input - self.prev_input);
        self.prev_input = input;
        self.state
    }

    /// The most recent output value.
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Resets the filter to an uninitialized state.
    pub fn reset(&mut self) {
        self.prev_input = 0.0;
        self.state = 0.0;
        self.initialized = false;
    }
}

/// Limits the rate of change of a signal to `max_rate` units per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimiter {
    max_rate: f64,
    state: f64,
    initialized: bool,
}

impl RateLimiter {
    /// Creates a limiter with the given maximum absolute rate (units/second).
    ///
    /// # Panics
    ///
    /// Panics if `max_rate <= 0`.
    pub fn new(max_rate: f64) -> RateLimiter {
        assert!(max_rate > 0.0, "max rate must be positive");
        RateLimiter { max_rate, state: 0.0, initialized: false }
    }

    /// Feeds one target sample `dt` seconds after the previous one.
    pub fn update(&mut self, target: f64, dt: f64) -> f64 {
        if !self.initialized {
            self.state = target;
            self.initialized = true;
            return target;
        }
        let max_delta = self.max_rate * dt;
        self.state = crate::interp::move_toward(self.state, target, max_delta);
        self.state
    }

    /// The most recent output value.
    pub fn value(&self) -> f64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_pass_converges_to_dc() {
        let mut f = LowPass::new(1.0);
        let mut y = 0.0;
        for _ in 0..10_000 {
            y = f.update(5.0, 0.01);
        }
        assert!((y - 5.0).abs() < 1e-6);
    }

    #[test]
    fn low_pass_attenuates_fast_signal_more_than_slow() {
        let measure = |freq: f64| {
            let mut f = LowPass::new(0.5);
            let dt = 0.001;
            let mut max_out: f64 = 0.0;
            for i in 0..20_000 {
                let t = i as f64 * dt;
                let out = f.update((2.0 * std::f64::consts::PI * freq * t).sin(), dt);
                if t > 10.0 {
                    max_out = max_out.max(out.abs());
                }
            }
            max_out
        };
        assert!(measure(10.0) < measure(0.05));
    }

    #[test]
    fn high_pass_blocks_dc() {
        let mut f = HighPass::new(1.0);
        let mut y = 1.0;
        for _ in 0..10_000 {
            y = f.update(5.0, 0.01);
        }
        assert!(y.abs() < 1e-3, "dc leaked through: {y}");
    }

    #[test]
    fn high_pass_passes_step_transient() {
        let mut f = HighPass::new(0.5);
        f.update(0.0, 0.01);
        let y = f.update(1.0, 0.01);
        assert!(y > 0.9, "step transient attenuated: {y}");
    }

    #[test]
    fn rate_limiter_caps_slope() {
        let mut r = RateLimiter::new(2.0);
        r.update(0.0, 0.1);
        let y = r.update(100.0, 0.1);
        assert!((y - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_cutoff_rejected() {
        let _ = LowPass::new(-1.0);
    }
}
