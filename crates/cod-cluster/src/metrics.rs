//! Execution metrics recorded by the cluster executive.

use cod_net::Micros;

/// One computer's modeled CPU cost over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputerCost {
    /// Summed over every executed frame.
    pub total: Micros,
    /// The largest single-frame cost: what this computer alone limits the
    /// frame period to.
    pub peak: Micros,
}

/// Metrics accumulated over a cluster run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterMetrics {
    /// Number of frames executed.
    pub frames_run: u64,
    /// Total simulated time elapsed.
    pub simulated_time: Micros,
    /// Per-computer modeled CPU cost, in rack order
    /// ([`crate::Cluster::computer_cost`] looks a total up by computer name).
    pub computer_cost: Vec<ComputerCost>,
    /// Largest whole-cluster frame cost (the frame-rate limiter of a
    /// single-computer, sequential execution of the same modules).
    pub max_sequential_frame_cost: Micros,
    /// Sum of whole-cluster frame costs over every executed frame — what a
    /// single machine hosting the entire virtual cluster in-process has spent.
    pub total_sequential_cost: Micros,
}

impl ClusterMetrics {
    /// Records one frame's per-computer costs, given in rack order.
    pub fn record_frame(&mut self, dt: Micros, costs: &[Micros]) {
        self.frames_run += 1;
        self.simulated_time += dt;
        if self.computer_cost.len() < costs.len() {
            self.computer_cost.resize(costs.len(), ComputerCost::default());
        }
        let mut sequential = Micros::ZERO;
        for (computer, cost) in self.computer_cost.iter_mut().zip(costs) {
            computer.total += *cost;
            computer.peak = computer.peak.max(*cost);
            sequential += *cost;
        }
        if sequential > self.max_sequential_frame_cost {
            self.max_sequential_frame_cost = sequential;
        }
        self.total_sequential_cost += sequential;
    }

    /// Largest single-frame cost observed on any computer: the frame-rate
    /// limiter of the pipelined cluster.
    pub fn max_frame_cost(&self) -> Micros {
        self.computer_cost.iter().map(|c| c.peak).max().unwrap_or(Micros::ZERO)
    }

    /// The frame rate the pipelined cluster can sustain given the observed
    /// worst per-computer frame cost, capped by the requested frame period.
    pub fn achievable_fps(&self, frame_period: Micros) -> f64 {
        let limiter = self.max_frame_cost().max(frame_period);
        if limiter == Micros::ZERO {
            0.0
        } else {
            1.0 / limiter.as_secs_f64()
        }
    }

    /// The frame rate a single computer running every module sequentially
    /// could sustain (the "mainframe-replacement" baseline of experiment E8).
    pub fn sequential_fps(&self, frame_period: Micros) -> f64 {
        let limiter = self.max_sequential_frame_cost.max(frame_period);
        if limiter == Micros::ZERO {
            0.0
        } else {
            1.0 / limiter.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_records_accumulate() {
        let mut m = ClusterMetrics::default();
        m.record_frame(
            Micros::from_millis(16),
            &[Micros::from_millis(10), Micros::from_millis(30)],
        );
        m.record_frame(Micros::from_millis(16), &[Micros::from_millis(20), Micros::from_millis(5)]);
        assert_eq!(m.frames_run, 2);
        let totals: Vec<Micros> = m.computer_cost.iter().map(|c| c.total).collect();
        assert_eq!(totals, [Micros::from_millis(30), Micros::from_millis(35)]);
        let peaks: Vec<Micros> = m.computer_cost.iter().map(|c| c.peak).collect();
        assert_eq!(peaks, [Micros::from_millis(20), Micros::from_millis(30)]);
        assert_eq!(m.max_frame_cost(), peaks.iter().copied().max().unwrap());
        assert_eq!(m.max_sequential_frame_cost, Micros::from_millis(40));
    }

    #[test]
    fn fps_derivations() {
        let mut m = ClusterMetrics::default();
        m.record_frame(Micros::from_millis(10), &[Micros::from_millis(50)]);
        // Pipelined: limited by the 50 ms computer => 20 fps.
        assert!((m.achievable_fps(Micros::from_millis(10)) - 20.0).abs() < 1e-9);
        // A faster frame period cannot beat the cost limiter.
        assert!((m.achievable_fps(Micros::from_millis(1)) - 20.0).abs() < 1e-9);
        // When costs are negligible the frame period is the limiter.
        let mut cheap = ClusterMetrics::default();
        cheap.record_frame(Micros::from_millis(20), &[Micros::from_millis(1)]);
        assert!((cheap.achievable_fps(Micros::from_millis(20)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_have_zero_fps() {
        let m = ClusterMetrics::default();
        assert_eq!(m.achievable_fps(Micros::ZERO), 0.0);
        assert_eq!(m.sequential_fps(Micros::ZERO), 0.0);
    }
}
