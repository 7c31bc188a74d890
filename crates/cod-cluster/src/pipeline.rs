//! Analytic model of pipelined execution on the COD.
//!
//! The paper's motivation (§1, §5) is that "by carefully exploring the
//! parallelism among the tasks of a virtual reality system, we can easily
//! interconnect several computers by networking and employing pipeline
//! techniques" to replace a multiprocessor mainframe. This module captures the
//! throughput/latency arithmetic of that pipeline so the cluster-speedup
//! experiment (E6) can compare the measured cluster against the ideal.

use cod_net::Micros;

/// Per-frame cost of one pipeline stage (one simulator module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCost {
    /// Stage name.
    pub name: String,
    /// CPU cost per frame on the reference desktop PC.
    pub cost: Micros,
}

impl StageCost {
    /// Convenience constructor.
    pub fn new(name: &str, cost: Micros) -> StageCost {
        StageCost { name: name.to_owned(), cost }
    }
}

/// Throughput/latency model of a module pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineModel {
    stages: Vec<StageCost>,
    /// One-way LAN latency added between stages that live on different computers.
    hop_latency: Micros,
}

impl PipelineModel {
    /// Creates a model from per-stage costs and the inter-computer hop latency.
    pub fn new(stages: Vec<StageCost>, hop_latency: Micros) -> PipelineModel {
        PipelineModel { stages, hop_latency }
    }

    /// The stages of the model.
    pub fn stages(&self) -> &[StageCost] {
        &self.stages
    }

    /// Frame period when a single computer executes every stage sequentially
    /// (the "one desktop PC instead of a mainframe" baseline).
    pub fn sequential_period(&self) -> Micros {
        Micros(self.stages.iter().map(|s| s.cost.0).sum())
    }

    /// Frame period when every stage runs on its own computer: throughput is
    /// limited by the slowest stage.
    pub fn fully_pipelined_period(&self) -> Micros {
        self.stages.iter().map(|s| s.cost).max().unwrap_or(Micros::ZERO)
    }

    /// End-to-end latency of one frame through the fully distributed pipeline
    /// (all stage costs plus one LAN hop between consecutive stages).
    pub fn pipeline_latency(&self) -> Micros {
        let hops = self.stages.len().saturating_sub(1) as u64;
        Micros(self.stages.iter().map(|s| s.cost.0).sum::<u64>() + hops * self.hop_latency.0)
    }

    /// Throughput speedup of the fully pipelined cluster over the sequential baseline.
    pub fn speedup(&self) -> f64 {
        let seq = self.sequential_period();
        let pipe = self.fully_pipelined_period();
        if pipe == Micros::ZERO {
            1.0
        } else {
            seq.as_secs_f64() / pipe.as_secs_f64()
        }
    }

    /// Frame rate (frames per second) for a given frame period.
    pub fn fps(period: Micros) -> f64 {
        if period == Micros::ZERO {
            f64::INFINITY
        } else {
            1.0 / period.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crane_pipeline() -> PipelineModel {
        PipelineModel::new(
            vec![
                StageCost::new("dashboard", Micros::from_millis(2)),
                StageCost::new("dynamics", Micros::from_millis(18)),
                StageCost::new("scenario", Micros::from_millis(4)),
                StageCost::new("visual", Micros::from_millis(45)),
                StageCost::new("motion", Micros::from_millis(6)),
                StageCost::new("audio", Micros::from_millis(3)),
            ],
            Micros(200),
        )
    }

    #[test]
    fn sequential_period_is_the_sum() {
        let m = crane_pipeline();
        assert_eq!(m.sequential_period(), Micros::from_millis(78));
    }

    #[test]
    fn pipelined_period_is_the_max() {
        let m = crane_pipeline();
        assert_eq!(m.fully_pipelined_period(), Micros::from_millis(45));
        assert!((m.speedup() - 78.0 / 45.0).abs() < 1e-9);
    }

    #[test]
    fn latency_includes_hops() {
        let m = crane_pipeline();
        assert_eq!(m.pipeline_latency(), Micros(78_000 + 5 * 200));
    }

    #[test]
    fn fps_helper() {
        assert!((PipelineModel::fps(Micros::from_millis(62)) - 16.129).abs() < 0.01);
        assert!(PipelineModel::fps(Micros::ZERO).is_infinite());
    }

    #[test]
    fn empty_pipeline_is_degenerate_but_defined() {
        let m = PipelineModel::new(Vec::new(), Micros::ZERO);
        assert_eq!(m.sequential_period(), Micros::ZERO);
        assert_eq!(m.fully_pipelined_period(), Micros::ZERO);
        assert_eq!(m.speedup(), 1.0);
    }
}
