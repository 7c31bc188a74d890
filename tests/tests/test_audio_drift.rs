//! The audio kernel must not drift over a session: every block is anchored
//! at the source's age, so frame 2000 is as close to the pointwise waveform
//! as frame 0. Carrying oscillator state from one block into the next would
//! accumulate rounding frame over frame — this is the test that catches it.

use audio_sim::{Mixer, RenderedBlock, SoundEvent, SoundSource, SourceKind, Waveform};
use sim_math::Vec3;

const SAMPLE_RATE: u32 = 11_025;
const FRAME_SECONDS: f64 = 0.0625;
const FRAMES: usize = 2000;
const MOTOR_ON_FRAME: usize = 100;
const COLLISION_FRAME: usize = 300;

const LISTENER: Vec3 = Vec3 { x: 1.0, y: 2.0, z: 3.0 };
const COLLISION_AT: Vec3 = Vec3 { x: 8.0, y: 0.0, z: 2.0 };
const COLLISION_IMPULSE: f64 = 4.0;

/// Engine load over the session: changes every frame, revisits idle and full.
fn engine_intensity(frame: usize) -> f64 {
    (frame % 33) as f64 / 32.0
}

fn continuous(waveform: Waveform, gain: f64) -> SoundSource {
    SoundSource { kind: SourceKind::Continuous, waveform, gain, position: None, age: 0.0 }
}

/// One frame of `sources` the pointwise way — `Waveform::sample` per sample,
/// the one-shot probe per sample — in the mixer's order of operations.
fn render_pointwise(sources: &mut Vec<SoundSource>, reference_distance: f64) -> RenderedBlock {
    let frames = (FRAME_SECONDS * SAMPLE_RATE as f64).round() as usize;
    let dt = 1.0 / SAMPLE_RATE as f64;
    let mut samples = vec![0.0f32; frames];
    for source in sources.iter_mut() {
        let attenuation = match source.position {
            None => 1.0,
            Some(p) => reference_distance / p.distance(LISTENER).max(reference_distance),
        };
        for (i, slot) in samples.iter_mut().enumerate() {
            let probe = SoundSource { age: source.age + i as f64 * dt, ..*source };
            if probe.finished() {
                break;
            }
            *slot += (probe.sample() * attenuation) as f32;
        }
        source.age += FRAME_SECONDS;
    }
    sources.retain(|s| !s.finished());
    for s in samples.iter_mut() {
        *s = s.clamp(-1.0, 1.0);
    }
    RenderedBlock { sample_rate: SAMPLE_RATE, samples }
}

#[test]
fn two_thousand_frames_track_the_pointwise_reference() {
    let mut mixer = Mixer::new(SAMPLE_RATE);
    mixer.add_background_noise();
    mixer.set_listener(LISTENER);
    // The sources the mixer creates for these events, mirrored so they can be
    // synthesized pointwise. Background first, engine second: source-id order.
    let mut reference = vec![
        continuous(Waveform::Rumble { frequency: 27.0 }, 0.12),
        continuous(Waveform::Rumble { frequency: 45.0 }, 0.0),
    ];

    let mut loudest = 0.0f64;
    for frame in 0..FRAMES {
        let intensity = engine_intensity(frame);
        mixer.handle_event(SoundEvent::EngineLoad { intensity });
        reference[1].gain = 0.15 + 0.45 * intensity;
        if frame == MOTOR_ON_FRAME {
            mixer.handle_event(SoundEvent::MotorWorking { active: true });
            reference.push(continuous(Waveform::Sine { frequency: 180.0 }, 0.18));
        }
        if frame == COLLISION_FRAME {
            mixer.handle_event(SoundEvent::Collision {
                location: COLLISION_AT,
                impulse: COLLISION_IMPULSE,
            });
            reference.push(SoundSource {
                kind: SourceKind::OneShot { duration: 1.2 },
                waveform: Waveform::Strike { frequency: 320.0, decay: 4.0 },
                gain: 0.3 + COLLISION_IMPULSE * 0.1,
                position: Some(COLLISION_AT),
                age: 0.0,
            });
        }

        let rendered = mixer.render(FRAME_SECONDS);
        let expected = render_pointwise(&mut reference, mixer.reference_distance);
        assert_eq!(rendered.samples.len(), expected.samples.len());
        assert_eq!(mixer.active_sources(), reference.len(), "frame {frame}: source sets diverged");
        // Measured worst case 8e-11 (an occasional `f32` rounding flip).
        let gap = (rendered.rms() - expected.rms()).abs();
        assert!(
            gap <= 1e-8,
            "frame {frame}: rms {} vs pointwise {} (off by {gap:e})",
            rendered.rms(),
            expected.rms()
        );
        loudest = loudest.max(expected.rms());
    }
    // The script really played: the strike came and went, the rest remain.
    assert_eq!(mixer.active_sources(), 3);
    assert!(loudest > 0.2, "the reference never got loud: {loudest}");
}
