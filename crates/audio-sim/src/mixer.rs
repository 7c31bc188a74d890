//! The software mixer standing in for DirectSound.

use sim_math::Vec3;
use std::collections::BTreeMap;

use crate::event::SoundEvent;
use crate::source::{Oscillator, SoundSource, SourceId, SourceKind, Waveform};

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

/// A playing source and its waveform tuned to the mixer's sample step.
#[derive(Debug, Clone, PartialEq)]
struct Voice {
    source: SoundSource,
    oscillator: Oscillator,
}

/// The audio mixer: sources in, attenuated mixed samples out.
#[derive(Debug, Clone, PartialEq)]
pub struct Mixer {
    sample_rate: u32,
    listener: Vec3,
    sources: BTreeMap<SourceId, Voice>,
    next_id: u32,
    /// Distance at which a positional source is at full volume.
    pub reference_distance: f64,
    engine_source: Option<SourceId>,
    motor_source: Option<SourceId>,
    alarm_source: Option<SourceId>,
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
        }
    }

    /// Moves the listener (the trainee's head, i.e. the mockup cab).
    pub fn set_listener(&mut self, position: Vec3) {
        self.listener = position;
    }

    /// The time between two samples, in seconds.
    fn sample_step(&self) -> f64 {
        1.0 / self.sample_rate as f64
    }

    /// Adds a source and returns its id. Its waveform is tuned to the
    /// sample step here, once, not on every render.
    pub fn add_source(&mut self, source: SoundSource) -> SourceId {
        let id = SourceId(self.next_id);
        self.next_id += 1;
        let oscillator = source.waveform.oscillator(self.sample_step());
        self.sources.insert(id, Voice { source, oscillator });
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
                        if let Some(voice) = self.sources.get_mut(&id) {
                            voice.source.gain = gain;
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
    pub fn render(&mut self, duration: f64) -> RenderedBlock {
        let mut samples = Vec::new();
        self.mix(duration, duration, &mut samples);
        for s in samples.iter_mut() {
            *s = s.clamp(-1.0, 1.0);
        }
        RenderedBlock { sample_rate: self.sample_rate, samples }
    }

    /// Renders the first `duration` seconds of a frame `elapsed` seconds long
    /// into a caller's buffer and advances every source by all of `elapsed`:
    /// a caller that caps the rendered length to bound its cost still keeps
    /// its sources on the session clock. Replaces `samples` with the block
    /// and returns its RMS, bit for bit [`RenderedBlock::rms`] of the block
    /// [`Mixer::render`] would return, clamped and summed in one pass.
    pub fn render_into(&mut self, duration: f64, elapsed: f64, samples: &mut Vec<f32>) -> f64 {
        self.mix(duration, elapsed, samples);
        if samples.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0f64;
        for s in samples.iter_mut() {
            *s = s.clamp(-1.0, 1.0);
            sum += (*s as f64) * (*s as f64);
        }
        (sum / samples.len() as f64).sqrt()
    }

    /// Replaces `samples` with `duration` seconds of the unclipped mix,
    /// advances every source by `elapsed` seconds and drops the one-shots
    /// that finished.
    ///
    /// Each source's oscillator adds its samples, times the source's gain and
    /// then its distance attenuation, straight into the block as `f32`,
    /// sources in id order and cut where a one-shot finishes.
    fn mix(&mut self, duration: f64, elapsed: f64, samples: &mut Vec<f32>) {
        let frames = (duration * self.sample_rate as f64).round() as usize;
        let dt = self.sample_step();
        samples.clear();
        samples.resize(frames, 0.0);
        for Voice { source, oscillator } in self.sources.values_mut() {
            let attenuation = attenuation(self.listener, self.reference_distance, source.position);
            let live = source.live_samples(frames, dt);
            oscillator.mix(source.age, source.gain, attenuation, &mut samples[..live]);
            source.age += elapsed;
        }
        self.sources.retain(|_, voice| !voice.source.finished());
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
    use sim_math::Fnv1a;

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
    fn render_into_ages_sources_by_the_elapsed_time() {
        let mut m = Mixer::new(8_000);
        m.handle_event(SoundEvent::Collision { location: Vec3::ZERO, impulse: 5.0 });
        let mut block = Vec::new();
        for frame in 0..3 {
            assert_eq!(m.active_sources(), 1, "the 1.2 s clang still plays in frame {frame}");
            m.render_into(0.25, 0.5, &mut block);
            assert_eq!(block.len(), 2_000);
        }
        assert_eq!(m.active_sources(), 0, "three 0.5 s frames outlast the clang");
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

    /// FNV-1a over the sample and RMS bits of a scripted 120-block session:
    /// background noise, an engine load that changes every block, the motor
    /// from block 5, the alarm over blocks 30..50, positional strikes at 10
    /// and 60 that finish mid-block, five clipping strikes at the listener at
    /// 80, and every 7th block a Coarse-sized 0.25 s one.
    ///
    /// The script drives `render` on one mixer and `render_into` on a twin:
    /// the two must agree on every sample and on the RMS bits.
    fn scripted_session_digest() -> u64 {
        let listener = Vec3::new(1.0, 2.0, 3.0);
        let mut mixer = Mixer::new(11_025);
        mixer.add_background_noise();
        mixer.set_listener(listener);
        let mut twin = mixer.clone();
        let mut kept = Vec::new();
        let mut hash = Fnv1a::new();
        for block in 0..120 {
            let mut events = vec![
                SoundEvent::EngineLoad { intensity: (block % 33) as f64 / 32.0 },
                SoundEvent::MotorWorking { active: block >= 5 },
                SoundEvent::Alarm { active: (30..50).contains(&block) },
            ];
            if block == 10 || block == 60 {
                let location = Vec3::new(8.0, 0.0, 2.0);
                events.push(SoundEvent::Collision { location, impulse: 4.0 });
            }
            if block == 80 {
                let clang = SoundEvent::Collision { location: listener, impulse: 100.0 };
                events.extend([clang; 5]);
            }
            for event in events {
                mixer.handle_event(event);
                twin.handle_event(event);
            }
            let duration = if block % 7 == 6 { 0.25 } else { 0.0625 };
            let rendered = mixer.render(duration);
            for sample in &rendered.samples {
                hash.write_u64(u64::from(sample.to_bits()));
            }
            hash.write_u64(rendered.rms().to_bits());
            let rms = twin.render_into(duration, duration, &mut kept);
            assert_eq!(kept, rendered.samples, "block {block}");
            assert_eq!(rms.to_bits(), rendered.rms().to_bits(), "block {block}");
        }
        hash.finish()
    }

    #[test]
    fn mixed_bits_are_pinned() {
        // Recorded from the two-pass mixer this one replaced (a per-source
        // `f64` column, then a clamp pass, then an RMS pass).
        let digest = scripted_session_digest();
        assert_eq!(digest, 0xc9d6_4fbd_42d4_f0ff, "mixed digest {digest:016x}");
    }

    #[test]
    #[should_panic]
    fn zero_sample_rate_rejected() {
        let _ = Mixer::new(0);
    }
}
