//! Simulator configuration.

/// Which graphics-hardware generation the cost model emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuGeneration {
    /// The TNT2-class cards of the original rack (paper §4).
    Tnt2,
    /// A card of a couple of years later (the "further acceleration" ablation).
    NextGeneration,
}

/// Which operator model drives the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorKind {
    /// A competent trainee following the licensing-exam course.
    Exam,
    /// Nobody at the controls (useful for frame-rate measurements).
    Idle,
    /// A careless trainee: drives fast and swings the boom violently.
    Reckless,
}

/// Largest final-score deviation a Coarse session may show against the Full
/// run of the same (config, seed), in score points. Pinned by experiment E12
/// and enforced by the testkit tier-transparency invariant and the
/// `fleet_report --quick` score-drift gate.
pub const SCORE_DRIFT_TOLERANCE: f64 = 25.0;

/// How much of the rack serves the session, and how often it steps.
///
/// The paper's core trade is fidelity versus cluster cost: a full rack per
/// trainee gives licensing-exam fidelity, but batch scoring and early training
/// runs tolerate a much cheaper approximation. The tier sizes and paces the
/// one rack behind [`crate::CraneSimulator`]; both tiers run the same physics
/// from the same seed, so a session can move between them by deterministic
/// replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FidelityTier {
    /// The paper's eight-PC rack: every display channel, every module, full
    /// integrator rate.
    Full,
    /// A decimated rack: one display channel and one cluster frame per
    /// [`FidelityTier::decimation`] session frames, order(s) of magnitude
    /// cheaper in modeled cost and score-compatible within
    /// [`SCORE_DRIFT_TOLERANCE`].
    Coarse,
}

impl FidelityTier {
    /// Every tier, cheapest last.
    pub const ALL: [FidelityTier; 2] = [FidelityTier::Full, FidelityTier::Coarse];
    /// Number of tiers.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for per-tier tables.
    pub fn index(self) -> usize {
        match self {
            FidelityTier::Full => 0,
            FidelityTier::Coarse => 1,
        }
    }

    /// Short tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            FidelityTier::Full => "full",
            FidelityTier::Coarse => "coarse",
        }
    }

    /// Session frames per cluster frame: the rack steps once every this many
    /// session frames, with a `dt` this many times longer.
    pub fn decimation(self) -> u64 {
        match self {
            FidelityTier::Full => 1,
            FidelityTier::Coarse => 8,
        }
    }

    /// Display channels racked for a session configured with `configured`.
    pub fn display_channels(self, configured: usize) -> usize {
        match self {
            FidelityTier::Full => configured,
            FidelityTier::Coarse => 1,
        }
    }
}

impl Default for FidelityTier {
    fn default() -> Self {
        FidelityTier::Full
    }
}

/// Configuration of a simulator session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatorConfig {
    /// Number of surround-view display channels (the paper used three).
    pub display_channels: usize,
    /// Horizontal resolution of each channel (pixels).
    pub display_width: usize,
    /// Vertical resolution of each channel (pixels).
    pub display_height: usize,
    /// Whether the software rasterizer actually shades pixels every frame
    /// (needed for screenshots; the cost model alone suffices for benchmarks).
    pub render_pixels: bool,
    /// Graphics hardware generation for the cost model.
    pub gpu: GpuGeneration,
    /// Operator model at the controls.
    pub operator: OperatorKind,
    /// Mass of the exam cargo in kilograms.
    pub cargo_mass_kg: f64,
    /// Target frame rate of the cluster executive in frames per second.
    pub target_fps: f64,
    /// Number of frames to run when [`crate::CraneSimulator::run`] is called.
    pub exam_frames: usize,
    /// Seed for every stochastic model in the session.
    pub seed: u64,
    /// Relative CPU speed of every desktop PC in the rack (1.0 = the paper's
    /// reference machine; larger is faster). Scales the *modeled* per-frame
    /// cost only — physics, telemetry and scores are speed-independent, which
    /// is what lets a serving layer migrate a session between shards of
    /// different speeds and replay it bit for bit.
    pub cpu_speed: f64,
    /// Fidelity tier: how the rack is sized and paced. Part of the replay
    /// identity — the same seed on a different tier is a different trace.
    pub tier: FidelityTier,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            display_channels: 3,
            display_width: 640,
            display_height: 480,
            render_pixels: false,
            gpu: GpuGeneration::Tnt2,
            operator: OperatorKind::Exam,
            cargo_mass_kg: 1_500.0,
            target_fps: 16.0,
            exam_frames: 2_000,
            seed: 0x0C0D_CAFE,
            cpu_speed: 1.0,
            tier: FidelityTier::Full,
        }
    }
}

impl SimulatorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.display_channels == 0 {
            return Err("at least one display channel is required".to_owned());
        }
        if self.display_width == 0 || self.display_height == 0 {
            return Err("display resolution must be positive".to_owned());
        }
        if !(self.target_fps > 0.0) {
            return Err("target frame rate must be positive".to_owned());
        }
        if self.cargo_mass_kg < 0.0 {
            return Err("cargo mass cannot be negative".to_owned());
        }
        if !(self.cpu_speed > 0.0) {
            return Err("cpu speed must be positive".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_the_paper_setup() {
        let c = SimulatorConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.display_channels, 3);
        assert_eq!(c.target_fps, 16.0);
        assert_eq!(c.gpu, GpuGeneration::Tnt2);
        assert_eq!(c.tier, FidelityTier::Full, "the paper's rack is the default tier");
    }

    #[test]
    fn tier_indices_are_dense_and_tags_distinct() {
        for (i, tier) in FidelityTier::ALL.into_iter().enumerate() {
            assert_eq!(tier.index(), i);
        }
        assert_ne!(FidelityTier::Full.tag(), FidelityTier::Coarse.tag());
        assert_eq!(FidelityTier::default(), FidelityTier::Full);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimulatorConfig { display_channels: 0, ..Default::default() }.validate().is_err());
        assert!(SimulatorConfig { target_fps: 0.0, ..Default::default() }.validate().is_err());
        assert!(SimulatorConfig { cargo_mass_kg: -1.0, ..Default::default() }.validate().is_err());
        assert!(SimulatorConfig { display_width: 0, ..Default::default() }.validate().is_err());
        assert!(SimulatorConfig { cpu_speed: 0.0, ..Default::default() }.validate().is_err());
        assert!(SimulatorConfig { cpu_speed: -2.0, ..Default::default() }.validate().is_err());
    }
}
