//! Audio substrate for the mobile-crane simulator.
//!
//! The original audio module used Microsoft DirectSound to produce "the static
//! sound, such as the background noise, as well as the dynamic sound effect,
//! such as collision sound or motor working noise" (paper §3.7). An OS sound
//! API is not available here, so this crate provides a deterministic software
//! mixer with the same observable behaviour: continuous (static) sources,
//! one-shot (dynamic) effects triggered by simulation events, distance
//! attenuation relative to a listener, and rendered sample buffers the audio
//! module can inspect or hand to any output device.

pub mod event;
pub mod mixer;
pub mod source;

pub use event::SoundEvent;
pub use mixer::{Mixer, RenderedBlock};
pub use source::{SoundSource, SourceId, SourceKind, Waveform};
