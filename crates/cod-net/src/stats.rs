//! Traffic counters for the simulated LAN.

/// Whole-LAN traffic counters: a plain value, copied out whole by readers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LanStats {
    /// Datagrams accepted by the LAN for delivery.
    pub datagrams_sent: u64,
    /// Datagram deliveries performed (a broadcast counts once per receiver).
    pub deliveries: u64,
    /// Datagrams dropped by an injected [`crate::FaultPlan`] rule.
    pub fault_drops: u64,
    /// Extra copies scheduled by an injected duplication rule.
    pub fault_duplicates: u64,
    /// Datagrams held back by an injected reordering rule.
    pub fault_reorders: u64,
    /// Datagrams severed by an active partition window.
    pub partition_drops: u64,
    /// Total payload bytes accepted.
    pub bytes_sent: u64,
}

impl LanStats {
    /// Records a send of `bytes` payload bytes.
    pub fn record_send(&mut self, bytes: usize) {
        self.datagrams_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    /// Records one delivery to one receiver.
    pub fn record_delivery(&mut self) {
        self.deliveries += 1;
    }

    /// Records a datagram dropped by a fault-plan rule.
    pub fn record_fault_drop(&mut self) {
        self.fault_drops += 1;
    }

    /// Records an extra copy scheduled by a duplication rule.
    pub fn record_fault_duplicate(&mut self) {
        self.fault_duplicates += 1;
    }

    /// Records a datagram held back by a reordering rule.
    pub fn record_fault_reorder(&mut self) {
        self.fault_reorders += 1;
    }

    /// Records a datagram severed by a partition window.
    pub fn record_partition_drop(&mut self) {
        self.partition_drops += 1;
    }

    /// Datagrams dropped: fault-plan drops plus partition drops.
    pub fn datagrams_dropped(&self) -> u64 {
        self.fault_drops + self.partition_drops
    }

    /// Fraction of accepted datagram deliveries that were dropped, in `[0, 1]`.
    pub fn drop_ratio(&self) -> f64 {
        let dropped = self.datagrams_dropped();
        let attempted = self.deliveries + dropped;
        if attempted == 0 {
            0.0
        } else {
            dropped as f64 / attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = LanStats::default();
        s.record_send(100);
        s.record_send(50);
        s.record_delivery();
        s.record_fault_drop();
        assert_eq!(s.datagrams_sent, 2);
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.deliveries, 1);
        assert!((s.drop_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drop_ratio_handles_empty() {
        assert_eq!(LanStats::default().drop_ratio(), 0.0);
    }

    #[test]
    fn fault_counters_feed_the_aggregate_drop_count() {
        let mut s = LanStats::default();
        s.record_fault_drop();
        s.record_partition_drop();
        s.record_fault_duplicate();
        s.record_fault_reorder();
        assert_eq!(s.datagrams_dropped(), 2, "fault and partition drops count as drops");
        assert_eq!(s.fault_drops, 1);
        assert_eq!(s.partition_drops, 1);
        assert_eq!(s.fault_duplicates, 1);
        assert_eq!(s.fault_reorders, 1);
    }

    mod monotonicity {
        use super::*;
        use proptest::prelude::*;

        fn apply(s: &mut LanStats, op: u8) {
            match op % 6 {
                0 => s.record_send(op as usize),
                1 => s.record_delivery(),
                2 => s.record_fault_drop(),
                3 => s.record_fault_duplicate(),
                4 => s.record_fault_reorder(),
                _ => s.record_partition_drop(),
            }
        }

        fn totals(s: &LanStats) -> [u64; 8] {
            [
                s.datagrams_sent,
                s.deliveries,
                s.datagrams_dropped(),
                s.fault_drops,
                s.fault_duplicates,
                s.fault_reorders,
                s.partition_drops,
                s.bytes_sent,
            ]
        }

        proptest! {
            #[test]
            fn prop_every_counter_is_monotone(ops in proptest::collection::vec(0u8..255, 1..200)) {
                let mut s = LanStats::default();
                let mut last = totals(&s);
                for op in ops {
                    apply(&mut s, op);
                    let now = totals(&s);
                    for (a, b) in last.iter().zip(&now) {
                        prop_assert!(b >= a, "aggregate counter regressed: {now:?} < {last:?}");
                    }
                    last = now;
                }
                // The ratio is always a valid fraction.
                prop_assert!((0.0..=1.0).contains(&s.drop_ratio()));
            }
        }
    }
}
