//! Load-based placement of Logical Processes onto computers.
//!
//! "One or many LPs can run on a computer, depending upon the computational
//! load of each LP" (paper §2.1). This module provides the classic
//! longest-processing-time-first heuristic for packing module loads onto a
//! given number of desktop PCs, which the cluster-speedup experiment (E8) uses
//! to decide how many computers a configuration really needs.

use cod_net::Micros;

/// The modeled per-frame CPU load of one Logical Process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LpLoad {
    /// Module name.
    pub name: String,
    /// Modeled CPU cost per frame on the reference desktop PC.
    pub cost: Micros,
}

impl LpLoad {
    /// Convenience constructor.
    pub fn new(name: &str, cost: Micros) -> LpLoad {
        LpLoad { name: name.to_owned(), cost }
    }
}

/// Nominal modeled cost of one whole-cluster frame of a crane rack with
/// `display_channels` surround-view channels, run sequentially on the
/// reference desktop PC: roughly 60 ms of visual pipeline per channel plus
/// 24 ms for the non-visual modules (sync, dynamics, control, instructor,
/// audio, motion). This is the pre-measurement estimate a serving layer bids
/// with before a session's own [`crate::ClusterMetrics`] cost hint is live;
/// the three-channel rack of the paper comes out at 204 ms.
pub fn nominal_sequential_frame_cost(display_channels: usize) -> Micros {
    const PER_CHANNEL: u64 = 60_000;
    const OTHER_MODULES: u64 = 24_000;
    Micros(PER_CHANNEL.saturating_mul(display_channels as u64).saturating_add(OTHER_MODULES))
}

/// The result of packing LP loads onto computers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// For each computer, the indices (into the input load list) of the LPs placed on it.
    pub assignments: Vec<Vec<usize>>,
    /// Per-computer total load.
    pub loads: Vec<Micros>,
    /// The largest per-computer load — the frame-period limiter of the cluster.
    pub makespan: Micros,
}

impl Placement {
    /// The frame rate the placement can sustain, additionally bounded by `frame_period`.
    pub fn achievable_fps(&self, frame_period: Micros) -> f64 {
        self.makespan.max(frame_period).rate_hz()
    }
}

/// Packs `loads` onto `computers` machines using the longest-processing-time
/// heuristic: sort by decreasing cost, always place on the least-loaded machine.
///
/// # Panics
///
/// Panics if `computers` is zero.
pub fn balance_load(loads: &[LpLoad], computers: usize) -> Placement {
    assert!(computers > 0, "at least one computer is required");
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|a, b| loads[*b].cost.cmp(&loads[*a].cost).then(a.cmp(b)));

    let mut assignments = vec![Vec::new(); computers];
    let mut totals = vec![Micros::ZERO; computers];
    for lp_index in order {
        let target = least_loaded(&totals).expect("at least one computer");
        assignments[target].push(lp_index);
        totals[target] += loads[lp_index].cost;
    }
    let makespan = totals.iter().copied().max().unwrap_or(Micros::ZERO);
    Placement { assignments, loads: totals, makespan }
}

/// Index of the least-loaded bin (ties break toward the lowest index), or
/// `None` for an empty slice — the placement primitive `balance_load` applies
/// per item and a session-serving layer applies per arriving session.
pub fn least_loaded(loads: &[Micros]) -> Option<usize> {
    loads.iter().enumerate().min_by_key(|(i, load)| (**load, *i)).map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nominal_cost_matches_the_reference_rack_and_scales_per_channel() {
        assert_eq!(nominal_sequential_frame_cost(3), Micros(204_000));
        assert_eq!(nominal_sequential_frame_cost(1), Micros(84_000));
        assert!(nominal_sequential_frame_cost(usize::MAX).0 > 0, "saturates, never wraps");
    }

    fn crane_loads() -> Vec<LpLoad> {
        vec![
            LpLoad::new("visual-left", Micros::from_millis(45)),
            LpLoad::new("visual-center", Micros::from_millis(45)),
            LpLoad::new("visual-right", Micros::from_millis(45)),
            LpLoad::new("dynamics", Micros::from_millis(18)),
            LpLoad::new("scenario", Micros::from_millis(4)),
            LpLoad::new("dashboard", Micros::from_millis(2)),
            LpLoad::new("motion-platform", Micros::from_millis(6)),
            LpLoad::new("instructor", Micros::from_millis(3)),
            LpLoad::new("audio", Micros::from_millis(3)),
            LpLoad::new("sync-server", Micros::from_millis(1)),
        ]
    }

    #[test]
    fn single_computer_gets_everything() {
        let loads = crane_loads();
        let p = balance_load(&loads, 1);
        assert_eq!(p.assignments[0].len(), loads.len());
        let total: u64 = loads.iter().map(|l| l.cost.0).sum();
        assert_eq!(p.makespan, Micros(total));
    }

    #[test]
    fn eight_computers_are_limited_by_the_heaviest_module() {
        let loads = crane_loads();
        let p = balance_load(&loads, 8);
        // No computer can be better than the single heaviest module (45 ms display).
        assert_eq!(p.makespan, Micros::from_millis(45));
        assert_eq!(p.assignments.iter().map(Vec::len).sum::<usize>(), loads.len());
    }

    #[test]
    fn more_computers_never_hurt() {
        let loads = crane_loads();
        let mut previous = balance_load(&loads, 1).makespan;
        for n in 2..10 {
            let makespan = balance_load(&loads, n).makespan;
            assert!(makespan <= previous, "makespan increased at {n} computers");
            previous = makespan;
        }
    }

    #[test]
    fn achievable_fps_uses_makespan() {
        let p = balance_load(&crane_loads(), 8);
        let fps = p.achievable_fps(Micros::from_millis(10));
        assert!((fps - 1.0 / 0.045).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_computers_rejected() {
        let _ = balance_load(&crane_loads(), 0);
    }

    #[test]
    fn least_loaded_ties_break_toward_the_lowest_index() {
        // The speed-weighted fleet placement relies on this exact rule.
        let equal = [Micros(7), Micros(7), Micros(7)];
        assert_eq!(least_loaded(&equal), Some(0));
        let tied_tail = [Micros(9), Micros(3), Micros(3)];
        assert_eq!(least_loaded(&tied_tail), Some(1));
        assert_eq!(least_loaded(&[]), None);
        assert_eq!(least_loaded(&[Micros(u64::MAX)]), Some(0));
    }

    proptest! {
        #[test]
        fn prop_every_lp_is_placed_exactly_once(costs in proptest::collection::vec(0u64..100_000, 1..30),
                                                computers in 1usize..12) {
            let loads: Vec<LpLoad> = costs
                .iter()
                .enumerate()
                .map(|(i, c)| LpLoad::new(&format!("lp{i}"), Micros(*c)))
                .collect();
            let p = balance_load(&loads, computers);
            let mut seen = vec![false; loads.len()];
            for group in &p.assignments {
                for &i in group {
                    prop_assert!(!seen[i], "lp placed twice");
                    seen[i] = true;
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
            // Makespan can never be smaller than the ideal average or the largest item.
            let total: u64 = costs.iter().sum();
            let max = costs.iter().copied().max().unwrap_or(0);
            prop_assert!(p.makespan.0 >= max);
            prop_assert!(p.makespan.0 as f64 >= total as f64 / computers as f64 - 1.0);
        }
    }
}
