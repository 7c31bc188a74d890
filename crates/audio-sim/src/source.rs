//! Sound sources and their synthesized waveforms.

use sim_math::Vec3;

/// Identifies a source registered with the mixer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

/// How the source behaves over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceKind {
    /// A looping, continuous sound (engine, ambient construction-site noise).
    Continuous,
    /// A one-shot effect that plays for a fixed duration and then stops
    /// (collision clang, alarm beep).
    OneShot {
        /// Duration of the effect in seconds.
        duration: f64,
    },
}

/// The synthesized waveform of a source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Pure tone at a frequency in hertz.
    Sine {
        /// Tone frequency.
        frequency: f64,
    },
    /// Band-limited pseudo-noise (engine rumble, background noise).
    Rumble {
        /// Characteristic frequency of the rumble.
        frequency: f64,
    },
    /// Exponentially decaying strike (collision clang).
    Strike {
        /// Fundamental frequency.
        frequency: f64,
        /// Decay rate per second.
        decay: f64,
    },
}

/// Lanes of the block oscillator: [`Waveform::fill`] advances this many
/// consecutive samples at once, each by one rotation of `LANES` sample
/// periods, so the loop body is `LANES` independent multiply-adds the
/// compiler can keep in vector registers.
const LANES: usize = 8;

/// One damped sinusoid `amplitude * sin(omega * t + phase) * exp(-decay * t)`;
/// every [`Waveform`] is a sum of one or three of them.
#[derive(Debug, Clone, Copy)]
struct Partial {
    amplitude: f64,
    omega: f64,
    phase: f64,
    decay: f64,
}

/// Rotates the phasor `(sin, cos)` by the step `(step_sin, step_cos)` — the
/// angle-addition identities, with any decay folded into the step's length.
fn rotate(sin: f64, cos: f64, step_sin: f64, step_cos: f64) -> (f64, f64) {
    (sin * step_cos + cos * step_sin, cos * step_cos - sin * step_sin)
}

/// Writes `out[i] = sum over partials of p(age + i * dt)`.
///
/// Each partial is a phasor anchored with libm at `age` — so a block never
/// inherits rounding from the block before it — fanned out to `LANES`
/// consecutive samples by single-sample rotations, and from there every lane
/// steps `LANES` samples at a time by one shared rotation. Only `f64`
/// multiplies and adds in a fixed order run per sample, so the block is
/// deterministic, and a 689-sample block rotates each lane 86 times: the
/// recurrence contributes ~1e-14 of error, far below the argument rounding
/// of a pointwise `sin` at the same age.
fn fill_partials<const N: usize>(partials: [Partial; N], age: f64, dt: f64, out: &mut [f64]) {
    let mut sin = [[0.0f64; LANES]; N];
    let mut cos = [[0.0f64; LANES]; N];
    let mut step = [(0.0f64, 0.0f64); N];
    for (p, partial) in partials.iter().enumerate() {
        // The phasor step that advances this partial by `samples` periods.
        let angle = partial.omega * dt;
        let advance = |samples: f64| {
            let (s, c) = (samples * angle).sin_cos();
            let shrink = (-partial.decay * (samples * dt)).exp();
            (s * shrink, c * shrink)
        };
        let level = partial.amplitude * (-partial.decay * age).exp();
        let (s, c) = (partial.omega * age + partial.phase).sin_cos();
        (sin[p][0], cos[p][0]) = (s * level, c * level);
        let (s1, c1) = advance(1.0);
        for k in 1..LANES {
            (sin[p][k], cos[p][k]) = rotate(sin[p][k - 1], cos[p][k - 1], s1, c1);
        }
        step[p] = advance(LANES as f64);
    }

    let sum_lanes = |sin: &[[f64; LANES]; N], chunk: &mut [f64]| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            let mut acc = sin[0][k];
            for lanes in &sin[1..] {
                acc += lanes[k];
            }
            *slot = acc;
        }
    };
    let mut chunks = out.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        sum_lanes(&sin, chunk);
        for p in 0..N {
            for k in 0..LANES {
                (sin[p][k], cos[p][k]) = rotate(sin[p][k], cos[p][k], step[p].0, step[p].1);
            }
        }
    }
    sum_lanes(&sin, chunks.into_remainder());
}

impl Waveform {
    /// Fills `out[i]` with the waveform at `age + i * dt` seconds: the block
    /// synthesis kernel behind every rendered sample. Agrees with
    /// [`Waveform::sample`] to well under `1e-9` at session ages (the
    /// difference is the pointwise form's own argument rounding) without a
    /// libm call per sample.
    pub fn fill(&self, age: f64, dt: f64, out: &mut [f64]) {
        use std::f64::consts::TAU;
        let tone = |amplitude, omega, phase| Partial { amplitude, omega, phase, decay: 0.0 };
        match *self {
            Waveform::Sine { frequency } => {
                fill_partials([tone(1.0, TAU * frequency, 0.0)], age, dt, out)
            }
            Waveform::Rumble { frequency } => fill_partials(
                [
                    tone(0.5, TAU * frequency, 0.0),
                    tone(0.3, TAU * frequency * 1.83, 0.0),
                    tone(0.2, TAU * frequency * 0.61, 1.3),
                ],
                age,
                dt,
                out,
            ),
            Waveform::Strike { frequency, decay } => fill_partials(
                [Partial { amplitude: 1.0, omega: TAU * frequency, phase: 0.0, decay }],
                age,
                dt,
                out,
            ),
        }
    }

    /// Sample the waveform at time `t` seconds after the source started: the
    /// pointwise reference [`Waveform::fill`] is tested against.
    pub fn sample(&self, t: f64) -> f64 {
        use std::f64::consts::TAU;
        match self {
            Waveform::Sine { frequency } => (TAU * frequency * t).sin(),
            Waveform::Rumble { frequency } => {
                // Sum of detuned sines approximates a rough rumble deterministically.
                0.5 * (TAU * frequency * t).sin()
                    + 0.3 * (TAU * frequency * 1.83 * t).sin()
                    + 0.2 * (TAU * frequency * 0.61 * t + 1.3).sin()
            }
            Waveform::Strike { frequency, decay } => {
                (TAU * frequency * t).sin() * (-decay * t).exp()
            }
        }
    }
}

/// A sound source registered with the mixer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoundSource {
    /// Behaviour over time.
    pub kind: SourceKind,
    /// Waveform to synthesize.
    pub waveform: Waveform,
    /// Base gain in `[0, 1]`.
    pub gain: f64,
    /// World position, or `None` for non-positional (interface) sounds.
    pub position: Option<Vec3>,
    /// Seconds the source has been playing.
    pub age: f64,
}

impl SoundSource {
    /// Whether the source has finished playing.
    pub fn finished(&self) -> bool {
        match self.kind {
            SourceKind::Continuous => false,
            SourceKind::OneShot { duration } => self.age >= duration,
        }
    }

    /// Current sample value (before attenuation).
    pub fn sample(&self) -> f64 {
        self.waveform.sample(self.age) * self.gain
    }

    /// How many samples of a `frames`-sample block at step `dt` play before
    /// the source finishes: the first `i` with `age + i * dt >= duration` for
    /// a one-shot, all of them for a continuous source.
    fn live_samples(&self, frames: usize, dt: f64) -> usize {
        let SourceKind::OneShot { duration } = self.kind else {
            return frames;
        };
        let finished_at = |i: usize| self.age + i as f64 * dt >= duration;
        // The quotient lands within a sample of the cutoff; the two loops
        // settle it on exactly the comparison above (monotonic in `i`).
        let mut live = (((duration - self.age) / dt).ceil().max(0.0) as usize).min(frames);
        while live > 0 && finished_at(live - 1) {
            live -= 1;
        }
        while live < frames && !finished_at(live) {
            live += 1;
        }
        live
    }

    /// Replaces `column` with the source's waveform over a `frames`-sample
    /// block at step `dt`: entry `i` is the waveform at `age + i * dt`,
    /// truncated where a one-shot finishes. Gain and attenuation are left to
    /// the mixer.
    pub(crate) fn fill_column(&self, frames: usize, dt: f64, column: &mut Vec<f64>) {
        column.clear();
        column.resize(self.live_samples(frames, dt), 0.0);
        self.waveform.fill(self.age, dt, column);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveforms_are_bounded() {
        for wf in [
            Waveform::Sine { frequency: 440.0 },
            Waveform::Rumble { frequency: 55.0 },
            Waveform::Strike { frequency: 880.0, decay: 4.0 },
        ] {
            for i in 0..1000 {
                let v = wf.sample(i as f64 / 1000.0);
                assert!(v.abs() <= 1.01, "waveform {wf:?} out of range: {v}");
            }
        }
    }

    const WAVEFORMS: [Waveform; 4] = [
        Waveform::Sine { frequency: 880.0 },
        Waveform::Sine { frequency: 180.0 },
        Waveform::Rumble { frequency: 45.0 },
        Waveform::Strike { frequency: 320.0, decay: 4.0 },
    ];

    /// The audio LP's clock: 11.025 kHz, 689 samples per 62.5 ms frame.
    const DT: f64 = 1.0 / 11_025.0;

    /// Largest `|fill - sample|` over a `len`-sample block starting at `age`.
    fn worst_error(wf: Waveform, age: f64, len: usize) -> f64 {
        let mut block = vec![f64::NAN; len];
        wf.fill(age, DT, &mut block);
        block
            .iter()
            .enumerate()
            .map(|(i, v)| (v - wf.sample(age + i as f64 * DT)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fill_matches_the_pointwise_reference() {
        for wf in WAVEFORMS {
            // Every 40th frame of a 2000-frame session, first and last included.
            for frame in (0..=2000).step_by(40) {
                let error = worst_error(wf, frame as f64 * 0.0625, 689);
                assert!(error <= 1e-9, "{wf:?} frame {frame}: off by {error:e}");
            }
            // Three hours in, `sample` itself rounds its 5e7 rad argument to
            // ~7e-9; the kernel must stay within that, not drift beyond it.
            let error = worst_error(wf, 3.0 * 3600.0, 689);
            assert!(error <= 1e-7, "{wf:?} at 3 h: off by {error:e}");
        }
    }

    #[test]
    fn fill_handles_every_lane_remainder() {
        for wf in WAVEFORMS {
            let mut full = vec![0.0; 689];
            wf.fill(1.25, DT, &mut full);
            for len in [0, 1, 7, 8, 9, 689] {
                let error = worst_error(wf, 1.25, len);
                assert!(error <= 1e-9, "{wf:?} block of {len}: off by {error:e}");
                // A shorter block is a prefix of a longer one, bit for bit:
                // truncating a one-shot's column never changes what plays.
                let mut block = vec![0.0; len];
                wf.fill(1.25, DT, &mut block);
                assert_eq!(block, full[..len]);
            }
        }
    }

    #[test]
    fn one_shot_cutoff_is_found_once_and_matches_the_per_sample_probe() {
        let strike = |age: f64, duration: f64| SoundSource {
            kind: SourceKind::OneShot { duration },
            waveform: Waveform::Strike { frequency: 320.0, decay: 4.0 },
            gain: 0.5,
            position: None,
            age,
        };
        // Cut mid-block and mid-lane-chunk (a 1.2 s strike in its 20th frame:
        // 17 chunks + 2), on a chunk edge, just past one, at the block start,
        // already over, and not reached this block.
        let cases = [
            (strike(19.0 * 0.0625, 1.2), 138),
            (strike(0.0, 80.0 * DT), 80),
            (strike(0.0, 83.5 * DT), 84),
            (strike(0.5, 0.5), 0),
            (strike(0.75, 0.5), 0),
            (strike(0.0, 10.0), 689),
        ];
        let mut column = Vec::new();
        for (source, live) in cases {
            let probed = (0..689)
                .take_while(|&i| {
                    !SoundSource { age: source.age + i as f64 * DT, ..source }.finished()
                })
                .count();
            assert_eq!(probed, live, "{source:?}");
            source.fill_column(689, DT, &mut column);
            assert_eq!(column.len(), live, "{source:?}");
            for (i, value) in column.iter().enumerate() {
                let reference = source.waveform.sample(source.age + i as f64 * DT);
                assert!((value - reference).abs() <= 1e-9, "{source:?} sample {i}");
            }
        }
    }

    #[test]
    fn strike_decays() {
        let wf = Waveform::Strike { frequency: 200.0, decay: 6.0 };
        let early: f64 = (0..100).map(|i| wf.sample(i as f64 * 1e-3).abs()).fold(0.0, f64::max);
        let late: f64 =
            (0..100).map(|i| wf.sample(1.0 + i as f64 * 1e-3).abs()).fold(0.0, f64::max);
        assert!(late < early * 0.1);
    }

    #[test]
    fn one_shot_finishes_and_continuous_does_not() {
        let mut clang = SoundSource {
            kind: SourceKind::OneShot { duration: 0.5 },
            waveform: Waveform::Strike { frequency: 500.0, decay: 5.0 },
            gain: 1.0,
            position: None,
            age: 0.0,
        };
        assert!(!clang.finished());
        clang.age = 0.6;
        assert!(clang.finished());

        let engine = SoundSource {
            kind: SourceKind::Continuous,
            waveform: Waveform::Rumble { frequency: 40.0 },
            gain: 0.5,
            position: None,
            age: 1_000.0,
        };
        assert!(!engine.finished());
        assert!(engine.sample().abs() <= 0.51);
    }
}
