//! Admission control and placement bookkeeping, kept pure so its safety
//! properties can be property-tested without building simulators.
//!
//! This state machine holds the queued sessions themselves — the fleet's
//! one admission queue — plus how many sessions each shard hosts; the shards
//! own the residents. It tallies no decision ([`AdmissionState::offer`]
//! returns whether it queued), only two observations: avoidable rejections
//! and the peak queue depth. The fleet records each decision once, in
//! [`crate::fleet::FleetOutcome::events`], and checks conservation by
//! walking that log ([`crate::fleet::FleetOutcome::log_violations`]).
//!
//! The queue is a *priority* queue over [`Priority`] classes, kept in offer
//! order: placement always takes the first-offered item of the most urgent
//! queued class, and a preempted session re-enters at the back of its
//! class. Placement picks the least-loaded shard with a free slot,
//! optionally weighted by the shards' modeled backlog cost (see
//! [`cod_cluster::least_loaded`]).

use cod_net::Micros;

use crate::workload::Priority;

/// Sizing of the admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Number of shards (worker slots pools).
    pub shards: usize,
    /// Concurrent sessions one shard may host.
    pub slots_per_shard: usize,
    /// Bound on the admission queue; arrivals beyond it are rejected
    /// (backpressure).
    pub max_pending: usize,
}

/// What the admission queue holds: anything that knows its priority class.
pub trait Prioritized {
    /// The item's priority class.
    fn priority(&self) -> Priority;
}

impl Prioritized for Priority {
    fn priority(&self) -> Priority {
        *self
    }
}

/// The admission/placement state machine, queueing items of type `T` (the
/// fleet queues [`crate::shard::PortableSession`]s; a bare [`Priority`]
/// models a session by its class alone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionState<T = Priority> {
    config: AdmissionConfig,
    /// Resident session count per shard.
    residents: Vec<usize>,
    /// The queued items, in offer order.
    queue: Vec<T>,
    /// Rejections that happened while a shard slot was still free. Such a
    /// rejection is avoidable (the queue could have drained into the slot
    /// first), so a correct *driver* keeps this at zero; the fleet invariants
    /// assert it.
    pub rejected_with_free_slot: u64,
    /// Largest queue depth observed.
    pub peak_pending: usize,
}

impl<T: Prioritized> AdmissionState<T> {
    /// Creates an empty controller.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `slots_per_shard` is zero.
    pub fn new(config: AdmissionConfig) -> AdmissionState<T> {
        assert!(config.shards > 0, "at least one shard is required");
        assert!(config.slots_per_shard > 0, "shards need at least one slot");
        AdmissionState {
            residents: vec![0; config.shards],
            config,
            queue: Vec::new(),
            rejected_with_free_slot: 0,
            peak_pending: 0,
        }
    }

    /// Number of sessions currently waiting in the queue, over all classes.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The most urgent class with a queued session, if any.
    pub fn highest_pending(&self) -> Option<Priority> {
        self.queue.iter().map(T::priority).max()
    }

    /// Resident session count per shard.
    pub fn residents(&self) -> &[usize] {
        &self.residents
    }

    /// Total sessions resident across all shards.
    pub fn resident_total(&self) -> usize {
        self.residents.iter().sum()
    }

    /// Free slots across the whole fleet.
    pub fn free_slots(&self) -> usize {
        self.config.shards * self.config.slots_per_shard - self.resident_total()
    }

    /// Offers one arrival: queued at the back of its class (`true`) or
    /// rejected by backpressure (`false`; the item is dropped). A rejection
    /// at a moment when a shard slot is still free is *avoidable* — the
    /// driver could have drained the queue into the free slot first — and
    /// is counted in [`AdmissionState::rejected_with_free_slot`]; a correct
    /// driver (see [`crate::fleet::run_fleet`]) places queued sessions
    /// before bouncing an arrival, keeping that counter at zero.
    pub fn offer(&mut self, item: T) -> bool {
        if self.pending() >= self.config.max_pending {
            if self.free_slots() > 0 {
                self.rejected_with_free_slot += 1;
            }
            return false;
        }
        self.queue.push(item);
        self.peak_pending = self.peak_pending.max(self.pending());
        true
    }

    /// Places the first-offered item of the most urgent queued class onto
    /// the least-loaded shard with a free slot, weighting ties by the
    /// shards' modeled backlog cost when provided. Returns the chosen shard
    /// and the item, or `None` when the queue is empty or every slot is
    /// taken (backpressure holds the queue).
    pub fn place_weighted(&mut self, backlog: &[Micros]) -> Option<(usize, T)> {
        let priority = self.highest_pending()?;
        let chosen = self.choose_shard(backlog)?;
        let index = self.queue.iter().position(|item| item.priority() == priority)?;
        self.residents[chosen] += 1;
        Some((chosen, self.queue.remove(index)))
    }

    /// [`AdmissionState::place_weighted`] with resident counts as the load.
    pub fn place(&mut self) -> Option<(usize, T)> {
        self.place_weighted(&[])
    }

    /// Retires one session from `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` hosts no session.
    pub fn complete(&mut self, shard: usize) {
        assert!(self.residents[shard] > 0, "shard {shard} has no resident session to retire");
        self.residents[shard] -= 1;
    }

    /// Whether a resident may be preempted right now: the queue must have
    /// room to take it back, or the bounded-queue invariant would break.
    pub fn can_preempt(&self) -> bool {
        self.pending() < self.config.max_pending
    }

    /// Pushes the resident `victim` from `shard` back into the queue, at the
    /// back of its class, to make room for a more urgent session; it is
    /// placed again later like any queued item.
    ///
    /// # Panics
    ///
    /// Panics if `shard` hosts no session or the queue has no room (check
    /// [`AdmissionState::can_preempt`] first).
    pub fn preempt(&mut self, shard: usize, victim: T) {
        assert!(self.residents[shard] > 0, "shard {shard} has no resident session to preempt");
        assert!(self.can_preempt(), "the queue has no room for a preempted session");
        self.residents[shard] -= 1;
        self.queue.push(victim);
        self.peak_pending = self.peak_pending.max(self.pending());
    }

    /// Moves one resident live from `from` to `to` (the fleet replays the
    /// session deterministically on the target shard).
    ///
    /// # Panics
    ///
    /// Panics if `from` hosts no session, `to` has no free slot, or the two
    /// are the same shard.
    pub fn migrate(&mut self, from: usize, to: usize) {
        assert!(from != to, "migration requires two distinct shards");
        assert!(self.residents[from] > 0, "shard {from} has no resident session to migrate");
        assert!(
            self.residents[to] < self.config.slots_per_shard,
            "shard {to} has no free slot for a migrated session"
        );
        self.residents[from] -= 1;
        self.residents[to] += 1;
    }

    /// The shard a new session would be placed on, without placing it: the
    /// least-loaded shard (by backlog cost when given, else by residency)
    /// among those with a free slot, ties breaking toward the lowest index
    /// (the [`cod_cluster::least_loaded`] rule). Full shards are excluded
    /// outright rather than marked with a sentinel cost, so even a shard
    /// whose advertised cost saturates at `u64::MAX` stays placeable.
    fn choose_shard(&self, backlog: &[Micros]) -> Option<usize> {
        let slots = self.config.slots_per_shard;
        self.residents
            .iter()
            .enumerate()
            .filter(|(_, r)| **r < slots)
            .map(|(i, r)| (backlog.get(i).copied().unwrap_or(Micros(*r as u64)), i))
            .min_by_key(|(load, i)| (*load, *i))
            .map(|(_, i)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config(shards: usize, slots: usize, max_pending: usize) -> AdmissionConfig {
        AdmissionConfig { shards, slots_per_shard: slots, max_pending }
    }

    /// Every capacity or queue bound `adm` breaks. The methods keep both
    /// by construction; the proptests check that they do.
    fn violations<T>(adm: &AdmissionState<T>) -> Vec<String> {
        let slots = adm.config.slots_per_shard;
        let mut out: Vec<String> = adm
            .residents
            .iter()
            .enumerate()
            .filter(|(_, r)| **r > slots)
            .map(|(i, r)| format!("shard {i} hosts {r} sessions, capacity {slots}"))
            .collect();
        if adm.queue.len() > adm.config.max_pending {
            out.push(format!(
                "queue depth {} exceeds bound {}",
                adm.queue.len(),
                adm.config.max_pending
            ));
        }
        out
    }

    fn priority(code: u8) -> Priority {
        Priority::ALL[code as usize % Priority::COUNT]
    }

    #[test]
    fn offers_queue_until_the_bound_then_reject() {
        let mut adm = AdmissionState::new(config(2, 1, 3));
        for _ in 0..3 {
            assert!(adm.offer(Priority::Training));
        }
        assert!(!adm.offer(Priority::Training), "fourth arrival must bounce off the bounded queue");
        assert_eq!(adm.pending(), 3);
        assert!(violations(&adm).is_empty(), "{:?}", violations(&adm));
    }

    #[test]
    fn placement_prefers_the_least_loaded_shard() {
        let mut adm = AdmissionState::new(config(3, 2, 10));
        for _ in 0..4 {
            assert!(adm.offer(Priority::Batch));
        }
        assert_eq!(adm.place(), Some((0, Priority::Batch)));
        assert_eq!(adm.place(), Some((1, Priority::Batch)));
        assert_eq!(adm.place(), Some((2, Priority::Batch)));
        assert_eq!(adm.place(), Some((0, Priority::Batch)));
        assert_eq!(adm.residents(), &[2, 1, 1]);
    }

    #[test]
    fn placement_drains_the_most_urgent_class_first() {
        let mut adm = AdmissionState::new(config(1, 4, 10));
        assert!(adm.offer(Priority::Batch));
        assert!(adm.offer(Priority::Interactive));
        assert!(adm.offer(Priority::Training));
        assert_eq!(adm.highest_pending(), Some(Priority::Interactive));
        assert_eq!(adm.place().map(|(_, p)| p), Some(Priority::Interactive));
        assert_eq!(adm.place().map(|(_, p)| p), Some(Priority::Training));
        assert_eq!(adm.place().map(|(_, p)| p), Some(Priority::Batch));
        assert_eq!(adm.highest_pending(), None);
        assert!(violations(&adm).is_empty(), "{:?}", violations(&adm));
    }

    #[test]
    fn backlog_weights_override_residency_ties() {
        let mut adm = AdmissionState::new(config(2, 4, 10));
        assert!(adm.offer(Priority::Training));
        // Shard 0 nominally less resident but modeled as far more loaded.
        let backlog = [Micros::from_millis(900), Micros::from_millis(10)];
        assert_eq!(adm.place_weighted(&backlog), Some((1, Priority::Training)));
    }

    #[test]
    fn place_on_a_full_fleet_backpressures() {
        let mut adm = AdmissionState::new(config(1, 1, 5));
        assert!(adm.offer(Priority::Batch));
        assert!(adm.offer(Priority::Batch));
        assert_eq!(adm.place(), Some((0, Priority::Batch)));
        assert_eq!(adm.place(), None, "no slot free: the queue must hold");
        adm.complete(0);
        assert_eq!(adm.place(), Some((0, Priority::Batch)));
        assert!(violations(&adm).is_empty(), "{:?}", violations(&adm));
    }

    #[test]
    fn saturated_cost_hints_never_shadow_a_free_slot() {
        // Regression: a full shard used to be marked with a Micros(u64::MAX)
        // sentinel, so a free shard whose advertised cost also saturated at
        // u64::MAX could lose the tie to a lower-indexed *full* shard and the
        // session was rejected beside idle capacity.
        let mut adm = AdmissionState::new(config(2, 1, 4));
        assert!(adm.offer(Priority::Batch));
        assert!(adm.offer(Priority::Batch));
        assert_eq!(adm.place_weighted(&[Micros(u64::MAX); 2]), Some((0, Priority::Batch)));
        assert_eq!(
            adm.place_weighted(&[Micros(u64::MAX); 2]),
            Some((1, Priority::Batch)),
            "shard 1 is free and must win even at a saturated cost hint"
        );
        assert!(violations(&adm).is_empty(), "{:?}", violations(&adm));
    }

    #[test]
    fn preemption_requeues_the_victim_and_balances_the_ledger() {
        let mut adm = AdmissionState::new(config(1, 1, 4));
        assert!(adm.offer(Priority::Batch));
        assert_eq!(adm.place(), Some((0, Priority::Batch)));
        // An interactive arrival finds the fleet full; the batch resident is
        // preempted back to the queue and the interactive session takes over.
        assert!(adm.offer(Priority::Interactive));
        assert_eq!(adm.place(), None, "slot taken: must preempt first");
        assert!(adm.can_preempt());
        adm.preempt(0, Priority::Batch);
        assert_eq!((adm.pending(), adm.highest_pending()), (2, Some(Priority::Interactive)));
        assert_eq!(adm.place(), Some((0, Priority::Interactive)));
        assert!(violations(&adm).is_empty(), "{:?}", violations(&adm));
        // The interactive session completes; the batch victim resumes.
        adm.complete(0);
        assert_eq!(adm.place(), Some((0, Priority::Batch)));
        adm.complete(0);
        assert!(violations(&adm).is_empty(), "{:?}", violations(&adm));
        assert_eq!((adm.pending(), adm.resident_total()), (0, 0));
    }

    #[test]
    fn preemption_respects_the_queue_bound() {
        let mut adm = AdmissionState::new(config(1, 1, 1));
        assert!(adm.offer(Priority::Batch));
        assert_eq!(adm.place(), Some((0, Priority::Batch)));
        assert!(adm.offer(Priority::Interactive));
        assert!(!adm.can_preempt(), "queue full: the victim would overflow the bound");
    }

    #[test]
    fn migration_moves_residency_between_shards() {
        let mut adm = AdmissionState::new(config(2, 2, 4));
        assert!(adm.offer(Priority::Training));
        assert!(adm.offer(Priority::Training));
        assert_eq!(adm.place(), Some((0, Priority::Training)));
        assert_eq!(adm.place(), Some((1, Priority::Training)));
        adm.migrate(0, 1);
        assert_eq!(adm.residents(), &[0, 2]);
        assert!(violations(&adm).is_empty(), "{:?}", violations(&adm));
        adm.complete(1);
        adm.complete(1);
        assert!(violations(&adm).is_empty(), "{:?}", violations(&adm));
    }

    #[test]
    #[should_panic]
    fn migration_to_a_full_shard_is_rejected() {
        let mut adm = AdmissionState::new(config(2, 1, 4));
        assert!(adm.offer(Priority::Batch));
        assert!(adm.offer(Priority::Batch));
        assert!(adm.place().is_some());
        assert!(adm.place().is_some());
        adm.migrate(0, 1);
    }

    /// A queued item of the order property: its offer number and class.
    impl Prioritized for (u64, Priority) {
        fn priority(&self) -> Priority {
            self.1
        }
    }

    proptest! {
        /// Whatever the schedule of offers, placements, preemptions and
        /// completions, each placement returns the earliest-offered queued
        /// item of the most urgent queued class, where a preempted item
        /// counts as offered again when it re-enters the queue.
        #[test]
        fn prop_placement_takes_the_first_offered_item_of_the_most_urgent_class(
            shards in 1usize..4, slots in 1usize..3, max_pending in 1usize..6,
            events in proptest::collection::vec((0u8..4, 0u8..6), 1..150)) {
            let mut adm = AdmissionState::new(config(shards, slots, max_pending));
            // The model: the queue in (re-)offer order, and each shard's residents.
            let mut queued: Vec<(u64, Priority)> = Vec::new();
            let mut hosted: Vec<Vec<(u64, Priority)>> = vec![Vec::new(); shards];
            let mut offers = 0u64;
            for (event, arg) in events {
                let shard = arg as usize % shards;
                match event {
                    0 => {
                        let item = (offers, priority(arg));
                        offers += 1;
                        if adm.offer(item) {
                            queued.push(item);
                        }
                    }
                    1 => {
                        let urgent = queued.iter().map(|item| item.1).max();
                        let first = queued.iter().position(|item| Some(item.1) == urgent);
                        match adm.place() {
                            Some((on, item)) => {
                                let index = first.expect("placed from an empty queue");
                                prop_assert_eq!(item, queued.remove(index));
                                hosted[on].push(item);
                            }
                            None => prop_assert!(first.is_none() || adm.free_slots() == 0),
                        }
                    }
                    2 => {
                        if adm.can_preempt() && !hosted[shard].is_empty() {
                            let index = arg as usize % hosted[shard].len();
                            let victim = hosted[shard].remove(index);
                            adm.preempt(shard, victim);
                            queued.push(victim);
                        }
                    }
                    _ => {
                        if !hosted[shard].is_empty() {
                            hosted[shard].remove(0);
                            adm.complete(shard);
                        }
                    }
                }
                prop_assert_eq!(adm.pending(), queued.len());
            }
        }

        /// Drive the controller with an arbitrary event schedule — offers of
        /// every class, placements, completions, preemptions and migrations:
        /// capacity and the queue bound are never exceeded, and a rejection
        /// only ever bounces off a full queue.
        #[test]
        fn prop_admission_is_safe(shards in 1usize..5, slots in 1usize..4,
                                  max_pending in 1usize..6,
                                  events in proptest::collection::vec((0u8..5, 0u8..6), 1..120) ) {
            let mut adm = AdmissionState::new(config(shards, slots, max_pending));
            let mut rejected = 0;
            for (event, arg) in events {
                match event {
                    0 => {
                        if !adm.offer(priority(arg)) {
                            rejected += 1;
                        }
                    }
                    1 => { let _ = adm.place(); }
                    2 => {
                        // Preempt from the busiest shard when allowed. The
                        // driver tracks victims' real classes; for the ledger
                        // any class is equivalent.
                        if adm.can_preempt() {
                            if let Some((shard, _)) = adm
                                .residents()
                                .iter()
                                .enumerate()
                                .filter(|(_, r)| **r > 0)
                                .max_by_key(|(_, r)| **r)
                            {
                                adm.preempt(shard, priority(arg));
                            }
                        }
                    }
                    3 => {
                        // Migrate busiest -> least loaded when legal.
                        let busiest = adm.residents().iter().enumerate()
                            .filter(|(_, r)| **r > 0).max_by_key(|(_, r)| **r).map(|(i, _)| i);
                        let emptiest = adm.residents().iter().enumerate()
                            .filter(|(_, r)| **r < slots).min_by_key(|(_, r)| **r).map(|(i, _)| i);
                        if let (Some(from), Some(to)) = (busiest, emptiest) {
                            if from != to {
                                adm.migrate(from, to);
                            }
                        }
                    }
                    _ => {
                        // Retire from the busiest shard, if any session runs.
                        if let Some((shard, _)) = adm
                            .residents()
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| **r > 0)
                            .max_by_key(|(_, r)| **r)
                        {
                            adm.complete(shard);
                        }
                    }
                }
                prop_assert!(violations(&adm).is_empty(), "{:?}", violations(&adm));
                // A rejection can only ever happen at a full queue.
                prop_assert!(rejected == 0 || adm.peak_pending == max_pending);
            }
        }

        /// The fleet's driver discipline — drain a full queue into free slots
        /// before bouncing an arrival — never rejects avoidably, under any
        /// interleaving of arrivals and completions.
        #[test]
        fn prop_drain_first_driver_never_rejects_avoidably(
            shards in 1usize..4, slots in 1usize..4, max_pending in 1usize..5,
            events in proptest::collection::vec((0u8..3, 0u8..6), 1..120)) {
            let mut adm = AdmissionState::new(config(shards, slots, max_pending));
            for (event, arg) in events {
                match event {
                    0 | 1 => {
                        while adm.pending() >= max_pending && adm.place().is_some() {}
                        let _ = adm.offer(priority(arg));
                    }
                    _ => {
                        if let Some((shard, _)) =
                            adm.residents().iter().enumerate().find(|(_, r)| **r > 0)
                        {
                            adm.complete(shard);
                        }
                    }
                }
                prop_assert_eq!(adm.rejected_with_free_slot, 0,
                                "drain-first driver rejected while a slot was free");
            }
        }

        /// Greedy place-after-offer never strands a queued session while a
        /// slot is free, and never drains a less urgent class while a more
        /// urgent one still waits.
        #[test]
        fn prop_no_session_waits_beside_a_free_slot(shards in 1usize..4, slots in 1usize..4,
                                                    offers in proptest::collection::vec(0u8..6, 1..40)) {
            let mut adm = AdmissionState::new(config(shards, slots, 64));
            for code in offers {
                let _ = adm.offer(priority(code));
                let mut last = Priority::Interactive;
                while let Some((_, placed)) = adm.place() {
                    prop_assert!(placed <= last, "placed {placed:?} after {last:?}");
                    last = placed;
                }
                prop_assert!(adm.pending() == 0 || adm.free_slots() == 0,
                             "queued {} with {} free slots", adm.pending(), adm.free_slots());
            }
        }
    }
}
