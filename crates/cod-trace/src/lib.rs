//! `cod-trace` — a lightweight spans + counters + histograms layer for the
//! fleet, with two sinks that respect the determinism contract.
//!
//! The serving stack keeps two kinds of time strictly apart: *modeled* time
//! (seeded, reproducible, fingerprinted) and *wall-clock* time (real,
//! varying run to run, never serialized into a fingerprinted report). This
//! crate gives each its own sink:
//!
//! * **Sink A, deterministic** — [`DetTrace`]: counters, log2 histograms and
//!   discrete events keyed on fleet ticks, modeled microseconds and seeded
//!   session identifiers only. Drained into `OBS_cod.json`
//!   ([`DetTrace::to_report_json`]) with its own schema and FNV-1a
//!   fingerprint: two runs of the same seed produce byte-identical files, at
//!   any thread count and under any execution mode, and the bytes are never
//!   mixed into `FLEET_cod.json`'s fingerprint.
//! * **Sink B, wall-clock** — [`WallTrace`]: real-time span records from the
//!   fleet's executor pool and the fleet tick loop, exported as Chrome
//!   trace-event JSON ([`WallTrace::to_chrome_json`]) loadable in Perfetto or
//!   `about://tracing`, one lane per fleet-worker thread plus a driver lane.
//!
//! Both sinks sit behind an [`ObsConfig`] whose [`ObsConfig::Disabled`]
//! default compiles to near-no-ops: every hook point in the fleet guards on
//! an `Option` that is `None` when tracing is off, so the hot loops neither
//! record nor allocate.

pub mod det;
pub mod wall;

pub use det::{DetEvent, DetTrace, Histogram, OBS_SCHEMA};
pub use wall::{WallTrace, DRIVER_LANE};

/// What the fleet records, if anything. The default records nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsConfig {
    /// No tracing: the hook points are `None`-guarded no-ops and the hot
    /// loops allocate nothing. The default, so every existing gate's numbers
    /// are untouched.
    #[default]
    Disabled,
    /// Deterministic sink only: counters, histograms and events keyed on
    /// modeled time and seeded identifiers, drained into `OBS_cod.json`.
    Deterministic,
    /// Both sinks: the deterministic one plus real-time spans for Perfetto.
    Full,
}

impl ObsConfig {
    /// Whether the deterministic sink records.
    pub fn deterministic_enabled(&self) -> bool {
        matches!(self, ObsConfig::Deterministic | ObsConfig::Full)
    }

    /// Whether the wall-clock sink records.
    pub fn wall_enabled(&self) -> bool {
        matches!(self, ObsConfig::Full)
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_enables_neither_sink() {
        let obs = ObsConfig::default();
        assert_eq!(obs, ObsConfig::Disabled);
        assert!(!obs.deterministic_enabled());
        assert!(!obs.wall_enabled());
        assert!(ObsConfig::Deterministic.deterministic_enabled());
        assert!(!ObsConfig::Deterministic.wall_enabled());
        assert!(ObsConfig::Full.deterministic_enabled() && ObsConfig::Full.wall_enabled());
    }
}
