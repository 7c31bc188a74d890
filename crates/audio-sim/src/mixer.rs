//! The software mixer standing in for DirectSound.

use sim_math::Vec3;
use std::collections::BTreeMap;

use crate::event::SoundEvent;
use crate::source::{SoundSource, SourceId, SourceKind, Waveform};

/// One rendered block of mono samples.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedBlock {
    /// Sample rate in hertz.
    pub sample_rate: u32,
    /// Mono samples in `[-1, 1]`.
    pub samples: Vec<f32>,
}

impl RenderedBlock {
    /// Root-mean-square level of the block (a loudness proxy for tests and telemetry).
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.samples.iter().map(|s| (*s as f64) * (*s as f64)).sum();
        (sum / self.samples.len() as f64).sqrt()
    }

    /// Peak absolute sample value.
    pub fn peak(&self) -> f64 {
        self.samples.iter().fold(0.0f64, |acc, s| acc.max(s.abs() as f64))
    }
}

/// The audio mixer: sources in, attenuated mixed samples out.
#[derive(Debug, Clone, PartialEq)]
pub struct Mixer {
    sample_rate: u32,
    listener: Vec3,
    sources: BTreeMap<SourceId, SoundSource>,
    next_id: u32,
    /// Distance at which a positional source is at full volume.
    pub reference_distance: f64,
    engine_source: Option<SourceId>,
    motor_source: Option<SourceId>,
    alarm_source: Option<SourceId>,
    /// Per-source waveform scratch of [`Mixer::render`], kept for its
    /// capacity and left empty between renders.
    column: Vec<f64>,
}

impl Default for Mixer {
    fn default() -> Self {
        Mixer::new(22_050)
    }
}

impl Mixer {
    /// Creates a mixer rendering at `sample_rate` hertz.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is zero.
    pub fn new(sample_rate: u32) -> Mixer {
        assert!(sample_rate > 0, "sample rate must be positive");
        Mixer {
            sample_rate,
            listener: Vec3::ZERO,
            sources: BTreeMap::new(),
            next_id: 0,
            reference_distance: 5.0,
            engine_source: None,
            motor_source: None,
            alarm_source: None,
            column: Vec::new(),
        }
    }

    /// Moves the listener (the trainee's head, i.e. the mockup cab).
    pub fn set_listener(&mut self, position: Vec3) {
        self.listener = position;
    }

    /// Adds a source and returns its id.
    pub fn add_source(&mut self, source: SoundSource) -> SourceId {
        let id = SourceId(self.next_id);
        self.next_id += 1;
        self.sources.insert(id, source);
        id
    }

    /// Removes a source.
    pub fn remove_source(&mut self, id: SourceId) {
        self.sources.remove(&id);
    }

    /// Number of currently playing sources.
    pub fn active_sources(&self) -> usize {
        self.sources.len()
    }

    /// Adds the static background of the construction site (always present,
    /// paper §3.7: "the static sound, such as the background noise").
    pub fn add_background_noise(&mut self) -> SourceId {
        self.add_source(SoundSource {
            kind: SourceKind::Continuous,
            waveform: Waveform::Rumble { frequency: 27.0 },
            gain: 0.12,
            position: None,
            age: 0.0,
        })
    }

    /// Reacts to a simulation event by creating, adjusting or removing sources.
    pub fn handle_event(&mut self, event: SoundEvent) {
        match event {
            SoundEvent::EngineLoad { intensity } => {
                let gain = 0.15 + 0.45 * intensity.clamp(0.0, 1.0);
                match self.engine_source {
                    Some(id) => {
                        if let Some(src) = self.sources.get_mut(&id) {
                            src.gain = gain;
                        }
                    }
                    None => {
                        let id = self.add_source(SoundSource {
                            kind: SourceKind::Continuous,
                            waveform: Waveform::Rumble { frequency: 45.0 },
                            gain,
                            position: None,
                            age: 0.0,
                        });
                        self.engine_source = Some(id);
                    }
                }
            }
            SoundEvent::Collision { location, impulse } => {
                self.add_source(SoundSource {
                    kind: SourceKind::OneShot { duration: 1.2 },
                    waveform: Waveform::Strike { frequency: 320.0, decay: 4.0 },
                    gain: (0.3 + impulse * 0.1).clamp(0.0, 1.0),
                    position: Some(location),
                    age: 0.0,
                });
            }
            SoundEvent::MotorWorking { active } => {
                if active && self.motor_source.is_none() {
                    self.motor_source = Some(self.add_source(SoundSource {
                        kind: SourceKind::Continuous,
                        waveform: Waveform::Sine { frequency: 180.0 },
                        gain: 0.18,
                        position: None,
                        age: 0.0,
                    }));
                }
                if !active {
                    if let Some(id) = self.motor_source.take() {
                        self.remove_source(id);
                    }
                }
            }
            SoundEvent::Alarm { active } => {
                if active && self.alarm_source.is_none() {
                    self.alarm_source = Some(self.add_source(SoundSource {
                        kind: SourceKind::Continuous,
                        waveform: Waveform::Sine { frequency: 880.0 },
                        gain: 0.3,
                        position: None,
                        age: 0.0,
                    }));
                }
                if !active {
                    if let Some(id) = self.alarm_source.take() {
                        self.remove_source(id);
                    }
                }
            }
        }
    }

    /// Renders `duration` seconds of mixed audio and advances every source.
    ///
    /// Each source's waveform column comes from the block kernel
    /// ([`Waveform::fill`], cut where a one-shot finishes); the per-source
    /// gain, the distance attenuation and the `f32` cast are applied after it.
    pub fn render(&mut self, duration: f64) -> RenderedBlock {
        let frames = (duration * self.sample_rate as f64).round() as usize;
        let dt = 1.0 / self.sample_rate as f64;
        let mut samples = vec![0.0f32; frames];
        for source in self.sources.values_mut() {
            let gain = attenuation(self.listener, self.reference_distance, source.position);
            source.fill_column(frames, dt, &mut self.column);
            for (slot, value) in samples.iter_mut().zip(&self.column) {
                *slot += ((*value * source.gain) * gain) as f32;
            }
            source.age += duration;
        }
        self.column.clear();
        // Drop finished one-shots.
        self.sources.retain(|_, s| !s.finished());
        // Soft clip.
        for s in samples.iter_mut() {
            *s = s.clamp(-1.0, 1.0);
        }
        RenderedBlock { sample_rate: self.sample_rate, samples }
    }
}

/// Distance attenuation of a source at `position` heard from `listener`: full
/// volume inside `reference_distance` and for non-positional (interface)
/// sounds, inverse-distance roll-off beyond it.
fn attenuation(listener: Vec3, reference_distance: f64, position: Option<Vec3>) -> f64 {
    match position {
        None => 1.0,
        Some(p) => reference_distance / p.distance(listener).max(reference_distance),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_when_no_sources() {
        let mut m = Mixer::new(8_000);
        let block = m.render(0.1);
        assert_eq!(block.samples.len(), 800);
        assert_eq!(block.rms(), 0.0);
    }

    #[test]
    fn background_noise_is_audible_and_continuous() {
        let mut m = Mixer::new(8_000);
        m.add_background_noise();
        let first = m.render(0.2);
        let later = m.render(0.2);
        assert!(first.rms() > 0.01);
        assert!(later.rms() > 0.01);
        assert_eq!(m.active_sources(), 1);
    }

    #[test]
    fn collision_clang_plays_once_and_decays() {
        let mut m = Mixer::new(8_000);
        m.handle_event(SoundEvent::Collision { location: Vec3::ZERO, impulse: 5.0 });
        assert_eq!(m.active_sources(), 1);
        let during = m.render(0.5);
        assert!(during.rms() > 0.02);
        let after = m.render(2.0);
        assert!(after.rms() < during.rms());
        assert_eq!(m.active_sources(), 0, "one-shot source must be removed when finished");
    }

    #[test]
    fn engine_load_scales_the_volume() {
        let mut quiet = Mixer::new(8_000);
        quiet.handle_event(SoundEvent::EngineLoad { intensity: 0.0 });
        let mut loud = Mixer::new(8_000);
        loud.handle_event(SoundEvent::EngineLoad { intensity: 1.0 });
        assert!(loud.render(0.2).rms() > quiet.render(0.2).rms());
    }

    #[test]
    fn distance_attenuates_positional_sources() {
        let mut near = Mixer::new(8_000);
        near.set_listener(Vec3::ZERO);
        near.handle_event(SoundEvent::Collision {
            location: Vec3::new(2.0, 0.0, 0.0),
            impulse: 5.0,
        });
        let mut far = Mixer::new(8_000);
        far.set_listener(Vec3::ZERO);
        far.handle_event(SoundEvent::Collision {
            location: Vec3::new(60.0, 0.0, 0.0),
            impulse: 5.0,
        });
        assert!(near.render(0.3).rms() > far.render(0.3).rms() * 2.0);
    }

    #[test]
    fn motor_and_alarm_toggle_on_and_off() {
        let mut m = Mixer::new(8_000);
        m.handle_event(SoundEvent::MotorWorking { active: true });
        m.handle_event(SoundEvent::Alarm { active: true });
        assert_eq!(m.active_sources(), 2);
        m.handle_event(SoundEvent::MotorWorking { active: false });
        m.handle_event(SoundEvent::Alarm { active: false });
        assert_eq!(m.active_sources(), 0);
    }

    #[test]
    fn output_is_clipped_to_unit_range() {
        let mut m = Mixer::new(4_000);
        for _ in 0..30 {
            m.handle_event(SoundEvent::Collision { location: Vec3::ZERO, impulse: 100.0 });
        }
        let block = m.render(0.2);
        assert!(block.peak() <= 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_sample_rate_rejected() {
        let _ = Mixer::new(0);
    }
}
