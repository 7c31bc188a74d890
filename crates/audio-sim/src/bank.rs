//! Cross-mixer memoization of waveform columns, the audio half of the
//! batched-stepping path.
//!
//! A source's waveform column — [`Waveform::fill`] over the frame, cut where
//! a one-shot finishes — is a pure function of the waveform parameters, the
//! source age and the sample clock; it does not depend on the session seed,
//! the per-source gain or the listener position. When several same-shape
//! sessions are stepped in lockstep their static sources (background noise,
//! engine rumble) stay age-aligned, so a frame's column is identical across
//! the whole cohort. A [`WaveBank`] computes each distinct column once per
//! frame and lets every mixer of the cohort replay it, applying its own gain
//! and attenuation afterwards. A miss runs the same block kernel the unbanked
//! render runs, so the rendered blocks are bit-identical either way.
//!
//! What a hit saves is small: the kernel pays libm once per partial per
//! block, not once per sample, so a column costs about a microsecond and the
//! memo is within noise of recomputing it (E11 reads ~1.0x batched over
//! scalar). The bank stays because its hit/miss counters are reported
//! surface (`BatchStepStats`, `OBS_cod.json`); see ROADMAP open item 2.
//!
//! Sources that have diverged between sessions (a collision one-shot, a motor
//! toggled at a different frame) simply miss the memo; divergence costs a
//! recompute, never correctness.

use std::collections::BTreeMap;

use crate::source::{SoundSource, SourceKind, Waveform};

/// Memo key: every input the sample values of a column depend on, captured
/// bit-exactly (`f64::to_bits`) so two keys are equal only when the columns
/// are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ColumnKey {
    sample_rate: u32,
    frames: usize,
    age: u64,
    kind: (u8, u64),
    waveform: (u8, u64, u64),
}

fn kind_bits(kind: SourceKind) -> (u8, u64) {
    match kind {
        SourceKind::Continuous => (0, 0),
        SourceKind::OneShot { duration } => (1, duration.to_bits()),
    }
}

fn waveform_bits(waveform: Waveform) -> (u8, u64, u64) {
    match waveform {
        Waveform::Sine { frequency } => (0, frequency.to_bits(), 0),
        Waveform::Rumble { frequency } => (1, frequency.to_bits(), 0),
        Waveform::Strike { frequency, decay } => (2, frequency.to_bits(), decay.to_bits()),
    }
}

/// Shared memo of waveform columns for one lockstep frame of a cohort.
///
/// Clear it at every new frame index (ages advance, so stale columns can
/// never be hit again and would only hold memory).
#[derive(Debug, Default)]
pub struct WaveBank {
    columns: BTreeMap<ColumnKey, Vec<f64>>,
    hits: u64,
    misses: u64,
}

impl WaveBank {
    /// Creates an empty bank.
    pub fn new() -> WaveBank {
        WaveBank::default()
    }

    /// Drops every memoized column, keeping the hit/miss counters.
    pub fn clear(&mut self) {
        self.columns.clear();
    }

    /// Columns currently memoized.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the bank holds no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Column lookups that had to compute the waveform.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The waveform column of `source` for a `frames`-sample render at
    /// `sample_rate` (`SoundSource::fill_column`, memoized): the waveform at
    /// `age + i * dt`, truncated where a one-shot source finishes. Gain and
    /// attenuation are deliberately excluded — they are per-mixer.
    pub(crate) fn column(
        &mut self,
        sample_rate: u32,
        frames: usize,
        dt: f64,
        source: &SoundSource,
    ) -> &[f64] {
        let key = ColumnKey {
            sample_rate,
            frames,
            age: source.age.to_bits(),
            kind: kind_bits(source.kind),
            waveform: waveform_bits(source.waveform),
        };
        if self.columns.contains_key(&key) {
            self.hits += 1;
        } else {
            self.misses += 1;
            let mut column = Vec::new();
            source.fill_column(frames, dt, &mut column);
            self.columns.insert(key, column);
        }
        self.columns.get(&key).expect("column just ensured").as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rumble(age: f64) -> SoundSource {
        SoundSource {
            kind: SourceKind::Continuous,
            waveform: Waveform::Rumble { frequency: 27.0 },
            gain: 0.12,
            position: None,
            age,
        }
    }

    #[test]
    fn gain_does_not_split_the_memo() {
        // The engine source keeps its age but changes gain every frame; two
        // cohort members with different gains must share one column.
        let mut bank = WaveBank::new();
        let loud = SoundSource { gain: 0.6, ..rumble(0.5) };
        let quiet = SoundSource { gain: 0.15, ..rumble(0.5) };
        let dt = 1.0 / 8_000.0;
        bank.column(8_000, 100, dt, &loud);
        bank.column(8_000, 100, dt, &quiet);
        assert_eq!(bank.len(), 1);
        assert_eq!((bank.hits(), bank.misses()), (1, 1));
    }

    #[test]
    fn age_and_waveform_do_split_the_memo() {
        let mut bank = WaveBank::new();
        let dt = 1.0 / 8_000.0;
        bank.column(8_000, 100, dt, &rumble(0.5));
        bank.column(8_000, 100, dt, &rumble(0.5 + dt));
        let sine = SoundSource { waveform: Waveform::Sine { frequency: 27.0 }, ..rumble(0.5) };
        bank.column(8_000, 100, dt, &sine);
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.misses(), 3);
    }

    #[test]
    fn one_shot_column_stops_at_the_cutoff() {
        let mut bank = WaveBank::new();
        let strike = SoundSource {
            kind: SourceKind::OneShot { duration: 0.01 },
            waveform: Waveform::Strike { frequency: 320.0, decay: 4.0 },
            gain: 0.5,
            position: None,
            age: 0.0,
        };
        let dt = 1.0 / 8_000.0;
        let column = bank.column(8_000, 200, dt, &strike);
        // finished() fires at age >= duration: 80 samples of a 10 ms shot.
        assert_eq!(column.len(), 80);
    }

    #[test]
    fn clear_keeps_the_counters() {
        let mut bank = WaveBank::new();
        bank.column(8_000, 10, 1.0 / 8_000.0, &rumble(0.0));
        bank.clear();
        assert!(bank.is_empty());
        assert_eq!(bank.misses(), 1);
    }
}
