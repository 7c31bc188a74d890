//! Sound sources and their synthesized waveforms.

use sim_math::Vec3;
use std::ops::{Add, Mul, Sub};

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
/// periods, so one partial's lanes fill one 512-bit register. `LANES` is part
/// of the output, not only of its speed: it decides which rotations each
/// sample goes through, so changing it changes the bits.
const LANES: usize = 8;

/// One damped sinusoid `amplitude * sin(omega * t + phase) * exp(-decay * t)`
/// tuned to a sample step: every [`Waveform`] is a sum of one or three of
/// them, and the phasor steps that advance one by one sample and by `LANES`
/// samples depend only on (`omega`, step, `decay`), so they are computed once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Partial {
    amplitude: f64,
    omega: f64,
    phase: f64,
    decay: f64,
    /// `(sin, cos)` of one sample's rotation, shrunk by one sample's decay.
    step_one: (f64, f64),
    /// The same over `LANES` samples.
    step_lanes: (f64, f64),
}

/// `exp(-decay * t)` for a finite `t`; an undamped partial skips the libm
/// call, which would return exactly 1.0 (`exp(-0.0)`).
fn decay_factor(decay: f64, t: f64) -> f64 {
    if decay == 0.0 {
        1.0
    } else {
        (-decay * t).exp()
    }
}

impl Partial {
    fn tuned(amplitude: f64, omega: f64, phase: f64, decay: f64, dt: f64) -> Partial {
        let angle = omega * dt;
        // The phasor step that advances the partial by `samples` periods.
        let advance = |samples: f64| {
            let (s, c) = (samples * angle).sin_cos();
            let shrink = decay_factor(decay, samples * dt);
            (s * shrink, c * shrink)
        };
        Partial {
            amplitude,
            omega,
            phase,
            decay,
            step_one: advance(1.0),
            step_lanes: advance(LANES as f64),
        }
    }
}

/// Rotates the phasor `(sin, cos)` by the step `(step_sin, step_cos)` — the
/// angle-addition identities, with any decay folded into the step's length —
/// for one sample or for every lane of a [`Lanes`] at once.
#[inline(always)]
fn rotate<T>(sin: T, cos: T, (step_sin, step_cos): (f64, f64)) -> (T, T)
where
    T: Copy + Mul<f64, Output = T> + Add<Output = T> + Sub<Output = T>,
{
    (sin * step_cos + cos * step_sin, cos * step_cos - sin * step_sin)
}

/// What the kernel does with each sample's sum of partials.
trait Emit {
    /// The element of the block being written.
    type Slot;
    fn emit(&self, sum: f64, slot: &mut Self::Slot);
}

/// Stores the sum: [`Waveform::fill`].
struct Store;

impl Emit for Store {
    type Slot = f64;
    #[inline(always)]
    fn emit(&self, sum: f64, slot: &mut f64) {
        *slot = sum;
    }
}

/// Scales the sum by the source's gain, then by its attenuation, and adds it
/// to the mixer's `f32` block.
struct Accumulate {
    gain: f64,
    attenuation: f64,
}

impl Emit for Accumulate {
    type Slot = f32;
    #[inline(always)]
    fn emit(&self, sum: f64, slot: &mut f32) {
        *slot += ((sum * self.gain) * self.attenuation) as f32;
    }
}

/// Emits `sum over partials of p(age + i * dt)` into `out[i]`.
///
/// Each partial is a phasor anchored with libm at `age` — so a block never
/// inherits rounding from the block before it — fanned out to `LANES`
/// consecutive samples by single-sample rotations, and from there every lane
/// steps `LANES` samples at a time by one shared rotation. Only `f64`
/// multiplies and adds in a fixed order run per sample — each lane's sum in
/// partial order, then each partial's rotation — so every entry point
/// produces the same bits, and a 689-sample block rotates each lane 86 times:
/// the recurrence contributes ~1e-14 of error, far below the argument
/// rounding of a pointwise `sin` at the same age.
#[inline(always)]
fn kernel_body<E: Emit, const N: usize>(
    partials: &[Partial; N],
    age: f64,
    out: &mut [E::Slot],
    emit: &E,
) {
    let mut sin = [Lanes([0.0; LANES]); N];
    let mut cos = [Lanes([0.0; LANES]); N];
    for (p, partial) in partials.iter().enumerate() {
        let level = partial.amplitude * decay_factor(partial.decay, age);
        let (s, c) = (partial.omega * age + partial.phase).sin_cos();
        (sin[p].0[0], cos[p].0[0]) = (s * level, c * level);
        for k in 1..LANES {
            (sin[p].0[k], cos[p].0[k]) = rotate(sin[p].0[k - 1], cos[p].0[k - 1], partial.step_one);
        }
    }

    let sum = |sin: &[Lanes; N]| sin[1..].iter().fold(sin[0], |sum, &lanes| sum + lanes);
    let mut chunks = out.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for (slot, &value) in chunk.iter_mut().zip(&sum(&sin).0) {
            emit.emit(value, slot);
        }
        for (p, partial) in partials.iter().enumerate() {
            (sin[p], cos[p]) = rotate(sin[p], cos[p], partial.step_lanes);
        }
    }
    for (slot, &value) in chunks.into_remainder().iter_mut().zip(&sum(&sin).0) {
        emit.emit(value, slot);
    }
}

/// One value per lane: each operation is `LANES` independent `f64`
/// operations, written so that each compiles to one vector instruction.
#[derive(Clone, Copy)]
struct Lanes([f64; LANES]);

impl Mul<f64> for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn mul(self, by: f64) -> Lanes {
        Lanes(self.0.map(|v| v * by))
    }
}

impl Add for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn add(mut self, other: Lanes) -> Lanes {
        for (v, w) in self.0.iter_mut().zip(other.0) {
            *v += w;
        }
        self
    }
}

impl Sub for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn sub(mut self, other: Lanes) -> Lanes {
        for (v, w) in self.0.iter_mut().zip(other.0) {
            *v -= w;
        }
        self
    }
}

/// A kernel entry point: the portable build, or the one built for AVX-512,
/// where one partial's `LANES` `f64` lanes fill one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    #[cfg(target_arch = "x86_64")]
    Avx512f,
    Portable,
}

impl Tier {
    /// Every tier, widest first.
    const ALL: &'static [Tier] = &[
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512f,
        Tier::Portable,
    ];

    /// Whether this CPU can run the tier.
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            Tier::Portable => true,
        }
    }

    /// The widest tier this CPU runs.
    fn detect() -> Tier {
        Tier::ALL
            .iter()
            .copied()
            .find(|tier| tier.supported())
            .expect("portable is always supported")
    }

    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512f => "avx512f",
            Tier::Portable => "portable",
        }
    }
}

/// The kernel entry point this CPU runs: `"avx512f"` or `"portable"`.
pub fn kernel_tier() -> &'static str {
    Tier::detect().name()
}

/// [`kernel_body`] built with AVX-512: the same operations in the same order
/// (LLVM contracts no multiply-add without fast-math flags), so the same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn kernel_avx512f<E: Emit, const N: usize>(
    partials: &[Partial; N],
    age: f64,
    out: &mut [E::Slot],
    emit: &E,
) {
    kernel_body(partials, age, out, emit);
}

/// Runs the kernel through `tier`'s entry point, or the portable body if this
/// CPU cannot run `tier`.
fn kernel<E: Emit, const N: usize>(
    tier: Tier,
    partials: &[Partial; N],
    age: f64,
    out: &mut [E::Slot],
    emit: &E,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard saw the CPU report avx512f, the one feature
        // `kernel_avx512f` enables.
        Tier::Avx512f if tier.supported() => unsafe { kernel_avx512f(partials, age, out, emit) },
        _ => kernel_body(partials, age, out, emit),
    }
}

/// A waveform's partials tuned to one sample step: what the mixer keeps per
/// source, so a block pays libm only to anchor each partial at its age.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Oscillator {
    One([Partial; 1]),
    Three([Partial; 3]),
}

impl Oscillator {
    fn run<E: Emit>(&self, tier: Tier, age: f64, out: &mut [E::Slot], emit: &E) {
        match self {
            Oscillator::One(partials) => kernel(tier, partials, age, out, emit),
            Oscillator::Three(partials) => kernel(tier, partials, age, out, emit),
        }
    }

    /// Writes the waveform at `age + i * dt` to `out[i]`.
    fn fill(&self, age: f64, out: &mut [f64]) {
        self.run(Tier::detect(), age, out, &Store);
    }

    /// Adds the waveform at `age + i * dt`, times `gain` and then
    /// `attenuation`, to `out[i]` as `f32`.
    pub(crate) fn mix(&self, age: f64, gain: f64, attenuation: f64, out: &mut [f32]) {
        self.run(Tier::detect(), age, out, &Accumulate { gain, attenuation });
    }
}

impl Waveform {
    /// The waveform's partials tuned to the sample step `dt`.
    pub(crate) fn oscillator(&self, dt: f64) -> Oscillator {
        use std::f64::consts::TAU;
        let tone = |amplitude, omega, phase| Partial::tuned(amplitude, omega, phase, 0.0, dt);
        match *self {
            Waveform::Sine { frequency } => Oscillator::One([tone(1.0, TAU * frequency, 0.0)]),
            Waveform::Rumble { frequency } => Oscillator::Three([
                tone(0.5, TAU * frequency, 0.0),
                tone(0.3, TAU * frequency * 1.83, 0.0),
                tone(0.2, TAU * frequency * 0.61, 1.3),
            ]),
            Waveform::Strike { frequency, decay } => {
                Oscillator::One([Partial::tuned(1.0, TAU * frequency, 0.0, decay, dt)])
            }
        }
    }

    /// Fills `out[i]` with the waveform at `age + i * dt` seconds: the block
    /// synthesis kernel behind every rendered sample. Agrees with
    /// [`Waveform::sample`] to well under `1e-9` at session ages (the
    /// difference is the pointwise form's own argument rounding) without a
    /// libm call per sample.
    pub fn fill(&self, age: f64, dt: f64, out: &mut [f64]) {
        self.oscillator(dt).fill(age, out);
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
    pub(crate) fn live_samples(&self, frames: usize, dt: f64) -> usize {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_math::Fnv1a;

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
        // A Full cluster frame renders 689 samples; a Coarse one renders the
        // 0.25 s cap, 2 756, so its lanes go through four times the rotations.
        for (len, frame_seconds, frames, every) in [(689, 0.0625, 2000, 40), (2_756, 0.5, 250, 5)] {
            for wf in WAVEFORMS {
                // Every `every`-th frame of the session, first and last included.
                for frame in (0..=frames).step_by(every) {
                    let error = worst_error(wf, frame as f64 * frame_seconds, len);
                    assert!(error <= 1e-9, "{wf:?} {len}-block frame {frame}: off by {error:e}");
                }
                // Three hours in, `sample` itself rounds its 5e7 rad argument
                // to ~7e-9; the kernel must stay within that, not drift beyond.
                let error = worst_error(wf, 3.0 * 3600.0, len);
                assert!(error <= 1e-7, "{wf:?} {len}-block at 3 h: off by {error:e}");
            }
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

    /// Block lengths of the bit-level checks: empty, shorter than a lane
    /// chunk, one chunk, one past it, a Full frame and a Coarse frame.
    const LENGTHS: [usize; 7] = [0, 1, 7, 8, 9, 689, 2_756];

    /// Source ages of the bit-level checks, from a fresh source to three hours.
    const AGES: [f64; 4] = [0.0, 1.25, 125.0, 3.0 * 3600.0];

    /// FNV-1a over the bits of every block `fill` writes on the check grid.
    fn grid_digest(fill: impl Fn(Waveform, f64, &mut [f64])) -> u64 {
        let mut hash = Fnv1a::new();
        for wf in WAVEFORMS {
            for age in AGES {
                for len in LENGTHS {
                    let mut block = vec![f64::NAN; len];
                    fill(wf, age, &mut block);
                    for value in block {
                        hash.write_u64(value.to_bits());
                    }
                }
            }
        }
        hash.finish()
    }

    #[test]
    fn kernel_bits_are_pinned() {
        // Recorded from the scalar kernel this one replaced: the vector kernel
        // must write the same bits, not merely close ones.
        let digest = grid_digest(|wf, age, block| wf.fill(age, DT, block));
        assert_eq!(digest, 0x11df_c815_f9b1_135f, "kernel digest {digest:016x}");
    }

    #[test]
    fn both_entry_points_agree_bit_for_bit() {
        // The portable body is the reference; the avx512f entry point, when
        // this CPU runs it, must write the same bits on the whole grid, both
        // the stored sums of `fill` and the mixer's scaled `f32` accumulation.
        let stored = |tier: Tier| {
            grid_digest(|wf, age, block| wf.oscillator(DT).run(tier, age, block, &Store))
        };
        // Widening `f32` to `f64` is exact, so equal digests mean equal bits.
        let mixed = |tier: Tier| {
            grid_digest(|wf, age, block| {
                let mut mix: Vec<f32> = (0..block.len()).map(|i| i as f32 * 1e-3).collect();
                let emit = Accumulate { gain: 0.42, attenuation: 5.0 / 7.3 };
                wf.oscillator(DT).run(tier, age, &mut mix, &emit);
                for (slot, sample) in block.iter_mut().zip(mix) {
                    *slot = f64::from(sample);
                }
            })
        };
        let (reference_stored, reference_mixed) = (stored(Tier::Portable), mixed(Tier::Portable));
        for &tier in Tier::ALL.iter().filter(|tier| tier.supported()) {
            assert_eq!(stored(tier), reference_stored, "{} stores other bits", tier.name());
            assert_eq!(mixed(tier), reference_mixed, "{} mixes other bits", tier.name());
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
        for (source, live) in cases {
            let probed = (0..689)
                .take_while(|&i| {
                    !SoundSource { age: source.age + i as f64 * DT, ..source }.finished()
                })
                .count();
            assert_eq!(probed, live, "{source:?}");
            assert_eq!(source.live_samples(689, DT), live, "{source:?}");
            let mut column = vec![0.0; live];
            source.waveform.fill(source.age, DT, &mut column);
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
