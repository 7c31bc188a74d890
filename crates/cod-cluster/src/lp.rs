//! The Logical Process trait implemented by every simulator module.

use cod_cb::{CbApi, CbError};
use cod_net::Micros;

/// A Logical Process: an independently executable simulation module.
///
/// LPs never communicate with each other directly; they only call services on
/// their resident Communication Backbone ([`CbApi`]), which makes them
/// location-transparent — "each LP of COD does not have to concern about the
/// existence of other LPs" (paper §2.1).
pub trait LogicalProcess: Send {
    /// Human-readable module name (used for placement and diagnostics).
    fn name(&self) -> &str;

    /// Called once when the LP is plugged into a computer: declare publications,
    /// subscriptions and register object instances here.
    ///
    /// # Errors
    ///
    /// Returns an error if a CB service call fails (unknown class, ...).
    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError>;

    /// Called once per simulation frame with the frame period `dt` in seconds.
    ///
    /// # Errors
    ///
    /// Returns an error if a CB service call fails.
    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError>;

    /// The modeled CPU cost of the most recent `step` on a reference desktop
    /// PC of the paper's era. The cluster executive uses this to account for
    /// per-computer frame cost (and hence the achievable frame rate); modules
    /// whose cost is negligible may keep the default of zero.
    fn last_step_cost(&self) -> Micros {
        Micros::ZERO
    }

    /// Resets the LP's session-evolving state so the module starts the next
    /// session exactly as a freshly constructed one would, without re-running
    /// `init` (its publications, subscriptions and registered objects
    /// survive). `seed` is the new session's seed for modules that own a
    /// stochastic model. Modules without session state may keep the default
    /// no-op.
    ///
    /// # Errors
    ///
    /// Returns an error if a CB service call fails.
    fn begin_session(&mut self, cb: &mut dyn CbApi, seed: u64) -> Result<(), CbError> {
        let _ = (cb, seed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;

    impl LogicalProcess for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn init(&mut self, _cb: &mut dyn CbApi) -> Result<(), CbError> {
            Ok(())
        }
        fn step(&mut self, _cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
            Ok(())
        }
    }

    #[test]
    fn trait_is_object_safe_and_has_default_cost() {
        let lp: Box<dyn LogicalProcess> = Box::new(Nop);
        assert_eq!(lp.name(), "nop");
        assert_eq!(lp.last_step_cost(), Micros::ZERO);
    }
}
