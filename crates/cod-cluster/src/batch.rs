//! Scratch state shared across a lockstep-stepped cohort of clusters.
//!
//! Batched stepping advances several same-shape sessions frame-major: frame
//! `k` of every session runs before frame `k+1` of any of them. Work that is
//! identical across the cohort at a given frame (memoized waveform columns,
//! hoisted per-frame tables) lives in a [`BatchScratch`] owned by the driver
//! and threaded down through [`crate::Cluster::run_frame_with`] to every
//! [`crate::LogicalProcess::step_batched`]. Modules claim a typed slot by
//! name and decide themselves what to share; a module that ignores the
//! scratch falls back to its scalar `step`, so batched stepping is always
//! bit-identical to scalar stepping by construction.

use std::any::Any;
use std::collections::BTreeMap;

/// Type-erased, named scratch slots plus a frame epoch, shared by every
/// session of one batch-stepped cohort.
#[derive(Default)]
pub struct BatchScratch {
    slots: BTreeMap<&'static str, Box<dyn Any + Send>>,
    frame_epoch: u64,
}

impl std::fmt::Debug for BatchScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScratch")
            .field("slots", &self.slots.keys().collect::<Vec<_>>())
            .field("frame_epoch", &self.frame_epoch)
            .finish()
    }
}

impl BatchScratch {
    /// Creates an empty scratch.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// Marks the start of the next lockstep frame. Slots survive (so memo
    /// state can be reused or selectively invalidated); the epoch tells a
    /// module whether its slot's contents are from the current frame.
    pub fn begin_frame(&mut self) {
        self.frame_epoch += 1;
    }

    /// The current frame epoch: incremented by every [`BatchScratch::begin_frame`],
    /// `0` before the first frame.
    pub fn frame_epoch(&self) -> u64 {
        self.frame_epoch
    }

    /// The typed slot registered under `key`, created with `T::default()` on
    /// first access.
    ///
    /// # Panics
    ///
    /// Panics if `key` was previously claimed at a different type.
    pub fn slot<T: Any + Send + Default>(&mut self, key: &'static str) -> &mut T {
        self.slots
            .entry(key)
            .or_insert_with(|| Box::new(T::default()))
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("scratch slot '{key}' claimed at two different types"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_persist_across_frames_and_epoch_advances() {
        let mut scratch = BatchScratch::new();
        assert_eq!(scratch.frame_epoch(), 0);
        *scratch.slot::<u64>("counter") += 7;
        scratch.begin_frame();
        assert_eq!(scratch.frame_epoch(), 1);
        assert_eq!(*scratch.slot::<u64>("counter"), 7, "slots survive frames");
    }

    #[test]
    fn distinct_keys_get_distinct_slots() {
        let mut scratch = BatchScratch::new();
        *scratch.slot::<u64>("a") = 1;
        *scratch.slot::<Vec<f64>>("b") = vec![2.0];
        assert_eq!(*scratch.slot::<u64>("a"), 1);
        assert_eq!(scratch.slot::<Vec<f64>>("b").len(), 1);
    }

    #[test]
    #[should_panic]
    fn type_confusion_on_one_key_panics() {
        let mut scratch = BatchScratch::new();
        *scratch.slot::<u64>("k") = 1;
        let _ = scratch.slot::<f64>("k");
    }
}
