//! Publication and Subscription tables.
//!
//! When an LP registers to its resident CB as a publisher or subscriber, the CB
//! records the LP's information in its Publication table or Subscription table
//! respectively (paper §2.2). During initialization, matched entries are linked
//! by a virtual channel.

use crate::fom::ObjectClassId;
use crate::kernel::LpId;
use std::collections::BTreeSet;

/// One row of the publication table: a local LP publishes an object class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PublicationEntry {
    /// The publishing LP (always local to this CB).
    pub lp: LpId,
    /// The published object class.
    pub class: ObjectClassId,
}

/// One row of the subscription table: a local LP subscribes to an object class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SubscriptionEntry {
    /// The subscribing LP (always local to this CB).
    pub lp: LpId,
    /// The subscribed object class.
    pub class: ObjectClassId,
}

/// The publication table of one CB.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PublicationTable {
    entries: BTreeSet<PublicationEntry>,
}

impl PublicationTable {
    /// Creates an empty table.
    pub fn new() -> PublicationTable {
        PublicationTable::default()
    }

    /// Records that `lp` publishes `class`. Returns `false` if already recorded.
    pub fn insert(&mut self, lp: LpId, class: ObjectClassId) -> bool {
        self.entries.insert(PublicationEntry { lp, class })
    }

    /// Removes every entry of `lp`, returning how many were removed.
    pub fn remove_lp(&mut self, lp: LpId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.lp != lp);
        before - self.entries.len()
    }

    /// Whether `lp` publishes `class`.
    pub fn publishes(&self, lp: LpId, class: ObjectClassId) -> bool {
        self.entries.contains(&PublicationEntry { lp, class })
    }

    /// Every local LP that publishes `class`.
    pub fn publishers_of(&self, class: ObjectClassId) -> impl Iterator<Item = LpId> + '_ {
        self.entries.iter().filter(move |e| e.class == class).map(|e| e.lp)
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &PublicationEntry> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The subscription table of one CB.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubscriptionTable {
    entries: BTreeSet<SubscriptionEntry>,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> SubscriptionTable {
        SubscriptionTable::default()
    }

    /// Records that `lp` subscribes to `class`. Returns `false` if already recorded.
    pub fn insert(&mut self, lp: LpId, class: ObjectClassId) -> bool {
        self.entries.insert(SubscriptionEntry { lp, class })
    }

    /// Removes every entry of `lp`, returning how many were removed.
    pub fn remove_lp(&mut self, lp: LpId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.lp != lp);
        before - self.entries.len()
    }

    /// Every local LP subscribed to `class`.
    pub fn subscribers_of(&self, class: ObjectClassId) -> impl Iterator<Item = LpId> + '_ {
        self.entries.iter().filter(move |e| e.class == class).map(|e| e.lp)
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &SubscriptionEntry> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publication_table_dedup_and_lookup() {
        let mut t = PublicationTable::new();
        assert!(t.insert(LpId(1), ObjectClassId(0)));
        assert!(!t.insert(LpId(1), ObjectClassId(0)));
        assert!(t.insert(LpId(2), ObjectClassId(0)));
        assert!(t.insert(LpId(1), ObjectClassId(1)));
        assert!(t.publishes(LpId(1), ObjectClassId(0)));
        assert!(!t.publishes(LpId(2), ObjectClassId(1)));
        let pubs: Vec<LpId> = t.publishers_of(ObjectClassId(0)).collect();
        assert_eq!(pubs, vec![LpId(1), LpId(2)]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn subscription_table_remove_lp() {
        let mut t = SubscriptionTable::new();
        t.insert(LpId(1), ObjectClassId(0));
        t.insert(LpId(1), ObjectClassId(1));
        t.insert(LpId(2), ObjectClassId(0));
        assert_eq!(t.remove_lp(LpId(1)), 2);
        assert_eq!(t.len(), 1);
        assert!(t.subscribers_of(ObjectClassId(0)).eq([LpId(2)]));
        assert_eq!(t.subscribers_of(ObjectClassId(1)).count(), 0);
    }
}
