//! Initialization-protocol state tracked by the subscribing CB.
//!
//! Paper §2.3: a subscribing CB broadcasts its SUBSCRIPTION message at a
//! constant interval until an ACKNOWLEDGE arrives; it then sends a CHANNEL
//! CONNECTION message to the acknowledging CB and waits for the confirming
//! acknowledgement of the established channel. Because publishers may come and
//! go, the broadcast continues (at a slower "re-advertise" pace) even after the
//! first channel is built, which is what lets an extra display be plugged into
//! the running system.

use crate::channel::ChannelId;
use crate::fom::ObjectClassId;
use crate::kernel::LpId;
use cod_net::Micros;
use std::collections::BTreeMap;

/// Setup progress of one subscriber-side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelSetupState {
    /// CHANNEL CONNECTION sent, waiting for the publisher's channel acknowledgement.
    Connecting,
    /// The channel is established and carrying data.
    Established,
}

/// Subscriber-side bookkeeping for one (LP, class) subscription.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingSubscription {
    /// The subscribing local LP.
    pub lp: LpId,
    /// The subscribed object class.
    pub class: ObjectClassId,
    /// Simulation time at which the subscription was issued.
    pub issued_at: Micros,
    /// Time of the most recent SUBSCRIPTION broadcast.
    pub last_broadcast: Option<Micros>,
    /// Number of broadcasts sent so far.
    pub broadcasts_sent: u32,
    /// Per-channel setup progress for channels this subscription initiated,
    /// keyed by channel id (there is one channel per matched remote publisher).
    pub channels: BTreeMap<ChannelId, ChannelSetupState>,
    /// Time at which the first channel became established, if any.
    pub first_established_at: Option<Micros>,
    /// Whether a co-resident publisher already satisfies this subscription, in
    /// which case the broadcast only continues at the re-advertisement pace.
    pub locally_matched: bool,
}

impl PendingSubscription {
    /// Creates the bookkeeping for a fresh subscription.
    pub fn new(lp: LpId, class: ObjectClassId, issued_at: Micros) -> PendingSubscription {
        PendingSubscription {
            lp,
            class,
            issued_at,
            last_broadcast: None,
            broadcasts_sent: 0,
            channels: BTreeMap::new(),
            first_established_at: None,
            locally_matched: false,
        }
    }

    /// Whether the subscription is already being served, either by an
    /// established virtual channel or by a co-resident publisher.
    pub fn is_satisfied(&self) -> bool {
        self.locally_matched || self.channels.values().any(|s| *s == ChannelSetupState::Established)
    }

    /// Whether a SUBSCRIPTION broadcast is due at `now`.
    ///
    /// Before the first channel is established the broadcast repeats every
    /// `interval`; afterwards it repeats every `readvertise_interval` so that
    /// late-joining publishers can still be discovered.
    pub fn broadcast_due(
        &self,
        now: Micros,
        interval: Micros,
        readvertise_interval: Micros,
    ) -> bool {
        let period = if self.is_satisfied() { readvertise_interval } else { interval };
        match self.last_broadcast {
            None => true,
            Some(last) => now.saturating_sub(last) >= period,
        }
    }

    /// Normalizes the broadcast timers to the session epoch so a recycled
    /// kernel re-advertises on the same schedule as a freshly initialized one.
    /// Channel setup progress is kept — established channels survive a session
    /// reset.
    pub fn begin_session(&mut self, epoch: Micros) {
        self.issued_at = epoch;
        self.last_broadcast = Some(epoch);
        self.broadcasts_sent = 0;
    }

    /// Records that a broadcast was sent at `now`.
    pub fn record_broadcast(&mut self, now: Micros) {
        self.last_broadcast = Some(now);
        self.broadcasts_sent += 1;
    }

    /// Records that a CHANNEL CONNECTION was sent for `channel`.
    pub fn record_connecting(&mut self, channel: ChannelId) {
        self.channels.entry(channel).or_insert(ChannelSetupState::Connecting);
    }

    /// Records that `channel` is now established; returns the setup latency if
    /// this is the first established channel.
    pub fn record_established(&mut self, channel: ChannelId, now: Micros) -> Option<Micros> {
        self.channels.insert(channel, ChannelSetupState::Established);
        if self.first_established_at.is_none() {
            self.first_established_at = Some(now);
            Some(now.saturating_sub(self.issued_at))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVAL: Micros = Micros(100_000);
    const READVERT: Micros = Micros(1_000_000);

    #[test]
    fn broadcast_schedule_follows_interval() {
        let mut p = PendingSubscription::new(LpId(1), ObjectClassId(0), Micros::ZERO);
        assert!(p.broadcast_due(Micros::ZERO, INTERVAL, READVERT));
        p.record_broadcast(Micros::ZERO);
        assert!(!p.broadcast_due(Micros(50_000), INTERVAL, READVERT));
        assert!(p.broadcast_due(Micros(100_000), INTERVAL, READVERT));
    }

    #[test]
    fn established_channel_slows_broadcast_to_readvertise_pace() {
        let mut p = PendingSubscription::new(LpId(1), ObjectClassId(0), Micros::ZERO);
        p.record_broadcast(Micros::ZERO);
        p.record_connecting(ChannelId(5));
        let latency = p.record_established(ChannelId(5), Micros(42_000));
        assert_eq!(latency, Some(Micros(42_000)));
        assert!(p.is_satisfied());
        assert!(!p.broadcast_due(Micros(200_000), INTERVAL, READVERT));
        assert!(p.broadcast_due(Micros(1_000_000), INTERVAL, READVERT));
    }

    #[test]
    fn only_first_establishment_reports_latency() {
        let mut p = PendingSubscription::new(LpId(1), ObjectClassId(0), Micros(10));
        p.record_connecting(ChannelId(1));
        p.record_connecting(ChannelId(2));
        assert!(p.record_established(ChannelId(1), Micros(20)).is_some());
        assert!(p.record_established(ChannelId(2), Micros(30)).is_none());
        assert_eq!(p.channels.len(), 2);
    }
}
