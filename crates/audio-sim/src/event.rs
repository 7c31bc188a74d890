//! Simulation events that trigger dynamic sound effects.

use sim_math::Vec3;

/// A sound-triggering event received from the other simulator modules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SoundEvent {
    /// The engine was started or its load changed; `intensity` is in `[0, 1]`.
    EngineLoad {
        /// Throttle/load level.
        intensity: f64,
    },
    /// The dynamics module detected a collision at `location` with the given
    /// impulse magnitude (scales the clang volume).
    Collision {
        /// World position of the contact.
        location: Vec3,
        /// Impulse magnitude.
        impulse: f64,
    },
    /// The hoist or slew motor is working; used for the motor whine.
    MotorWorking {
        /// Whether the motor noise should currently play.
        active: bool,
    },
    /// An instructor alarm (overload, safety-zone violation) changed state.
    Alarm {
        /// Whether the alarm is now sounding.
        active: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_their_payload() {
        let e = SoundEvent::Collision { location: Vec3::new(1.0, 2.0, 3.0), impulse: 4.5 };
        match e {
            SoundEvent::Collision { location, impulse } => {
                assert_eq!(location.y, 2.0);
                assert!(impulse > 4.0);
            }
            _ => panic!("wrong variant"),
        }
    }
}
