//! Experiment E15 — audio mixing: the block-oscillator kernel against
//! per-sample libm synthesis.
//!
//! The audio PC renders one 689-sample block (11.025 kHz at the 16 fps
//! executive rate) per frame. Synthesizing it pointwise costs one libm `sin`
//! per partial per sample — 4 800 calls for the module's steady-state source
//! set, which made audio half the host cost of an executive frame.
//! [`Waveform::fill`] pays libm once per partial per *block* and advances by
//! rotation in between. E15 times a frame through [`Mixer::render`] and
//! through a pointwise loop over [`Waveform::sample`], and derives the
//! machine-independent ratio `bench_report` gates: if per-sample libm comes
//! back on the render path, the ratio collapses to ~1x and CI says so. The
//! kernel runs through the widest entry point the CPU has (AVX-512 or
//! portable, bit-identical); the table's `tier` column names the one that
//! was timed.

use audio_sim::{Mixer, SoundSource, SourceKind, Waveform};

use super::ExperimentCtx;
use crate::measure::measure;
use crate::report::{DerivedMetric, ExperimentResult};

/// The floor `bench_report` enforces on pointwise-over-kernel frame time
/// (measured ~8x; per-sample libm on the render path reads ~1x).
pub const KERNEL_SPEEDUP_FLOOR: f64 = 3.0;

/// The audio LP's sample clock and frame length.
const SAMPLE_RATE: u32 = 11_025;
const FRAME_SECONDS: f64 = 1.0 / 16.0;
const FRAME_SAMPLES: usize = 689;

/// The audio LP's steady-state sources — background rumble, engine rumble at
/// 60% load, hoist-motor sine: seven partials. A collision strike is left out
/// because it expires after 19 frames and the timed loop must be stationary.
fn audio_lp_sources() -> [SoundSource; 3] {
    let continuous = |waveform, gain| SoundSource {
        kind: SourceKind::Continuous,
        waveform,
        gain,
        position: None,
        age: 0.0,
    };
    [
        continuous(Waveform::Rumble { frequency: 27.0 }, 0.12),
        continuous(Waveform::Rumble { frequency: 45.0 }, 0.42),
        continuous(Waveform::Sine { frequency: 180.0 }, 0.18),
    ]
}

/// One frame the way the mixer rendered it before the block kernel: every
/// sample of every source through libm.
fn render_pointwise(sources: &mut [SoundSource], block: &mut [f32]) {
    let dt = 1.0 / SAMPLE_RATE as f64;
    block.fill(0.0);
    for source in sources.iter_mut() {
        for (i, slot) in block.iter_mut().enumerate() {
            *slot += (source.waveform.sample(source.age + i as f64 * dt) * source.gain) as f32;
        }
        source.age += FRAME_SECONDS;
    }
    for s in block.iter_mut() {
        *s = s.clamp(-1.0, 1.0);
    }
}

/// Runs E15 and returns its result.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let secondary = ctx.secondary_measure();
    if ctx.tables {
        println!("\n=== E15: audio synthesis, one 689-sample block per waveform ===");
        println!("waveform | partials | tier     | pointwise ns | kernel ns | ratio");
        let tier = audio_sim::source::kernel_tier();
        let dt = 1.0 / SAMPLE_RATE as f64;
        let mut block = vec![0.0f64; FRAME_SAMPLES];
        for (name, partials, waveform) in [
            ("sine", 1, Waveform::Sine { frequency: 180.0 }),
            ("rumble", 3, Waveform::Rumble { frequency: 45.0 }),
            ("strike", 1, Waveform::Strike { frequency: 320.0, decay: 4.0 }),
        ] {
            let pointwise = measure(&secondary, || {
                for (i, slot) in block.iter_mut().enumerate() {
                    *slot = waveform.sample(1.25 + i as f64 * dt);
                }
                std::hint::black_box(&mut block);
            });
            let kernel = measure(&secondary, || {
                waveform.fill(1.25, dt, std::hint::black_box(&mut block));
            });
            println!(
                "{name:<8} | {partials:>8} | {tier:<8} | {:>12.0} | {:>9.0} | {:>4.1}x",
                pointwise.stats.median,
                kernel.stats.median,
                pointwise.stats.median / kernel.stats.median.max(1e-12),
            );
        }
        println!();
    }

    let mut reference_sources = audio_lp_sources();
    let mut reference_block = vec![0.0f32; FRAME_SAMPLES];
    let pointwise = measure(&secondary, || {
        render_pointwise(&mut reference_sources, &mut reference_block);
        std::hint::black_box(&mut reference_block);
    });

    // Headline routine: one frame of the same sources through the mixer.
    let mut mixer = Mixer::new(SAMPLE_RATE);
    for source in audio_lp_sources() {
        mixer.add_source(source);
    }
    let m = measure(&ctx.measure, || {
        std::hint::black_box(mixer.render(FRAME_SECONDS));
    });

    let speedup = pointwise.stats.median / m.stats.median.max(1e-12);
    if ctx.tables {
        println!(
            "mixer frame: pointwise {:.1} us, {} kernel {:.1} us — {speedup:.1}x \
             (bench_report --quick gates >= {KERNEL_SPEEDUP_FLOOR:.0}x)\n",
            pointwise.stats.median / 1e3,
            audio_sim::source::kernel_tier(),
            m.stats.median / 1e3,
        );
    }

    ExperimentResult {
        id: "E15".into(),
        name: "audio_mix".into(),
        metric: "render one 689-sample frame of the audio module's steady-state sources".into(),
        timing: m.stats,
        iters_per_sample: m.iters_per_sample,
        comparison: None,
        derived: vec![
            DerivedMetric::new("kernel_speedup_over_pointwise", "x", speedup),
            DerivedMetric::new("pointwise_frame_median_us", "us", pointwise.stats.median / 1e3),
            DerivedMetric::new("mix_frame_median_us", "us", m.stats.median / 1e3),
        ],
        notes: "The paper gives the audio module one PC of eight and no timing. The pointwise \
                loop is the mixer's pre-kernel render (one libm sin per partial per sample) \
                kept here as the yardstick; the ratio is machine-independent and \
                `bench_report --quick` gates it >= 3x, so re-introducing per-sample libm on \
                the render path fails CI."
            .into(),
    }
}
