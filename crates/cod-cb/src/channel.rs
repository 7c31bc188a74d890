//! Virtual channels: the pipelines that interconnect Logical Processes.
//!
//! Physically a virtual channel is "an entry mapping between CBs" (paper §2.2,
//! Figure 2): once a publisher is matched with a subscriber during
//! initialization, the publication-table entry on the publishing side is linked
//! to the subscription-table entry on the subscribing side. The data plane then
//! pushes updates along the channel and the subscriber pulls them at its own pace.

use crate::fom::ObjectClassId;
use crate::kernel::LpId;
use cod_net::{Addr, Micros};

/// Identifies a virtual channel cluster-wide.
///
/// Channel ids are allocated by the subscribing CB: the high 32 bits are its
/// node id, the low 32 bits a local counter, so ids never collide between CBs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(pub u64);

impl ChannelId {
    /// Composes a channel id from the allocating node and a local sequence number.
    pub fn compose(node: u16, seq: u32) -> ChannelId {
        ChannelId(((node as u64) << 32) | seq as u64)
    }
}

/// The role a CB plays on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelRole {
    /// This CB hosts the publishing LP and pushes updates into the channel.
    Publisher,
    /// This CB hosts the subscribing LP and delivers reflections out of the channel.
    Subscriber,
}

/// One established (or half-established) virtual channel as seen by one CB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualChannel {
    /// The channel id.
    pub id: ChannelId,
    /// Object class carried by the channel.
    pub class: ObjectClassId,
    /// The publishing LP.
    pub publisher_lp: LpId,
    /// The subscribing LP.
    pub subscriber_lp: LpId,
    /// Address of the CB on the other end of the channel.
    pub remote_cb: Addr,
    /// Role this CB plays.
    pub role: ChannelRole,
    /// Whether the connection handshake has completed. The channel table is
    /// the only record of it: a subscription is served by its established
    /// subscriber-side channels.
    pub established: bool,
    /// The retry timer of a subscriber-side channel: when this CB last sent
    /// its CHANNEL CONNECTION. `Micros::ZERO` on the publisher side and after
    /// a session reset.
    pub connect_sent_at: Micros,
}

/// All channels known to one CB, in id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelTable {
    channels: Vec<VirtualChannel>,
}

impl ChannelTable {
    /// Creates an empty table.
    pub fn new() -> ChannelTable {
        ChannelTable::default()
    }

    /// Where `id` is in the table, or where it would go.
    fn position(&self, id: ChannelId) -> Result<usize, usize> {
        self.channels.binary_search_by_key(&id, |c| c.id)
    }

    /// Inserts or replaces a channel entry.
    pub fn insert(&mut self, channel: VirtualChannel) {
        match self.position(channel.id) {
            Ok(at) => self.channels[at] = channel,
            Err(at) => self.channels.insert(at, channel),
        }
    }

    /// Looks up a channel by id.
    pub fn get(&self, id: ChannelId) -> Option<&VirtualChannel> {
        self.position(id).ok().map(|at| &self.channels[at])
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: ChannelId) -> Option<&mut VirtualChannel> {
        self.position(id).ok().map(|at| &mut self.channels[at])
    }

    /// Removes every channel whose publisher or subscriber is `lp`.
    pub fn remove_for_lp(&mut self, lp: LpId) {
        self.channels.retain(|c| c.publisher_lp != lp && c.subscriber_lp != lp);
    }

    /// Iterates over all channels, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &VirtualChannel> {
        self.channels.iter()
    }

    /// Iterates mutably over all channels, in id order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut VirtualChannel> {
        self.channels.iter_mut()
    }

    /// Established channels where the given local LP is the publisher of `class`.
    pub fn outgoing(
        &self,
        publisher_lp: LpId,
        class: ObjectClassId,
    ) -> impl Iterator<Item = &VirtualChannel> {
        self.channels.iter().filter(move |c| {
            c.established
                && c.role == ChannelRole::Publisher
                && c.publisher_lp == publisher_lp
                && c.class == class
        })
    }

    /// Whether an equivalent publisher-side channel already exists (same
    /// subscriber LP, publisher LP and class).
    pub fn has_equivalent(
        &self,
        publisher_lp: LpId,
        subscriber_lp: LpId,
        class: ObjectClassId,
    ) -> bool {
        self.channels.iter().any(|c| {
            c.publisher_lp == publisher_lp && c.subscriber_lp == subscriber_lp && c.class == class
        })
    }

    /// Number of channels in the table.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Number of fully established channels.
    pub fn established_count(&self) -> usize {
        self.channels.iter().filter(|c| c.established).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_net::{NodeId, Port};

    fn channel(
        id: u64,
        publisher: u64,
        subscriber: u64,
        class: u16,
        established: bool,
    ) -> VirtualChannel {
        VirtualChannel {
            id: ChannelId(id),
            class: ObjectClassId(class),
            publisher_lp: LpId(publisher),
            subscriber_lp: LpId(subscriber),
            remote_cb: Addr::new(NodeId(1), Port(1)),
            role: ChannelRole::Publisher,
            established,
            connect_sent_at: Micros::ZERO,
        }
    }

    #[test]
    fn compose_packs_node_and_sequence() {
        assert_eq!(ChannelId::compose(3, 17), ChannelId((3 << 32) | 17));
    }

    #[test]
    fn outgoing_filters_by_publisher_class_and_establishment() {
        let mut t = ChannelTable::new();
        t.insert(channel(1, 10, 20, 0, true));
        t.insert(channel(2, 10, 21, 0, false));
        t.insert(channel(3, 10, 22, 1, true));
        t.insert(channel(4, 11, 20, 0, true));
        let out: Vec<&VirtualChannel> = t.outgoing(LpId(10), ObjectClassId(0)).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, ChannelId(1));
        assert_eq!(t.established_count(), 3);
    }

    #[test]
    fn remove_for_lp_tears_down_both_directions() {
        let mut t = ChannelTable::new();
        t.insert(channel(1, 10, 20, 0, true));
        t.insert(channel(2, 30, 10, 0, true));
        t.insert(channel(3, 40, 50, 0, true));
        t.remove_for_lp(LpId(10));
        assert_eq!(t.iter().map(|c| c.id).collect::<Vec<_>>(), [ChannelId(3)]);
    }

    #[test]
    fn has_equivalent_detects_duplicates() {
        let mut t = ChannelTable::new();
        t.insert(channel(1, 10, 20, 5, false));
        assert!(t.has_equivalent(LpId(10), LpId(20), ObjectClassId(5)));
        assert!(!t.has_equivalent(LpId(10), LpId(21), ObjectClassId(5)));
    }
}
