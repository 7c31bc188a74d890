//! The seeded workload generator: an arrival process over a scenario mix.
//!
//! A fleet run is driven by a list of [`Arrival`]s — (tick, session spec)
//! pairs — fully determined by a [`WorkloadConfig`] and its seed. The
//! scenario mix is drawn from the same dimensions the cod-testkit matrix
//! sweeps: operator skill x GPU generation x display-channel count x LAN
//! fault plan, so the serving layer is exercised with exactly the session
//! population the regression net already understands.

use cod_net::plans;
use cod_net::FaultPlan;
use crane_sim::{FidelityTier, GpuGeneration, OperatorKind, SimulatorConfig};
use sim_math::{mix64, SplitMix64};

/// Priority class of a session. Ordering is by urgency: `Interactive` >
/// `Training` > `Batch`. Interactive sessions (a trainee at the controls,
/// motivated by the VR crane-planning line of work) jump the admission queue
/// and may preempt batch work; batch sessions (offline sweeps, regression
/// replays) absorb whatever capacity is left.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Offline work: regression sweeps, replays. Lowest urgency.
    Batch,
    /// Curriculum training runs: latency matters, but nobody is waiting live.
    Training,
    /// A person at the controls. Highest urgency, preempts `Batch`.
    Interactive,
}

impl Priority {
    /// Every class, lowest urgency first (so `ALL[p.index()] == p`).
    pub const ALL: [Priority; 3] = [Priority::Batch, Priority::Training, Priority::Interactive];

    /// Number of priority classes.
    pub const COUNT: usize = 3;

    /// Dense index of the class: `Batch` = 0, `Training` = 1, `Interactive` = 2.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Three-letter tag used in session names and report rows.
    pub fn tag(self) -> &'static str {
        match self {
            Priority::Batch => "bat",
            Priority::Training => "trn",
            Priority::Interactive => "int",
        }
    }
}

/// Whether sessions of this class may be served on the Coarse tier.
/// Interactive sessions have a person at the controls and always get the full
/// rack; Training and Batch work tolerates the decimated tier.
pub fn coarse_eligible(priority: Priority) -> bool {
    priority != Priority::Interactive
}

/// The fidelity tier a tiering fleet admits sessions of this class at. Batch
/// work starts (and stays) Coarse; Training starts Full but is the demotion
/// reservoir under pressure; Interactive is always Full.
pub fn initial_tier(priority: Priority) -> FidelityTier {
    match priority {
        Priority::Batch => FidelityTier::Coarse,
        Priority::Training | Priority::Interactive => FidelityTier::Full,
    }
}

/// A complete description of one session offered to the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Fleet-wide session id (arrival order).
    pub id: u64,
    /// Descriptive name, `s<id>-<priority>-<operator>-<gpu>-<channels>-<plan>`.
    pub name: String,
    /// Simulator configuration (carries the session seed).
    pub config: SimulatorConfig,
    /// Fault plan installed for the session (carries the fault seed).
    pub fault_plan: FaultPlan,
    /// Number of executive frames the session runs.
    pub frames: usize,
    /// Priority class governing admission order and preemption.
    pub priority: Priority,
}

/// Configuration of the workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of sessions offered over the run.
    pub sessions: usize,
    /// Base seed of the arrival process and scenario mix.
    pub seed: u64,
    /// Nominal frames per session; actual lengths vary in `[base/2, 3*base/2]`.
    pub base_frames: usize,
    /// Mean gap between consecutive arrivals, in fleet ticks; actual gaps are
    /// uniform in `[0, 2*mean]`.
    pub mean_interarrival_ticks: u64,
}

impl WorkloadConfig {
    /// The reduced workload used by CI smoke runs (64 sessions).
    pub fn quick(seed: u64) -> WorkloadConfig {
        WorkloadConfig { sessions: 64, seed, base_frames: 48, mean_interarrival_ticks: 1 }
    }

    /// The full workload (256 sessions).
    pub fn full(seed: u64) -> WorkloadConfig {
        WorkloadConfig { sessions: 256, seed, base_frames: 96, mean_interarrival_ticks: 1 }
    }
}

/// One session arriving at the fleet's front door.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Fleet tick at which the session arrives.
    pub tick: u64,
    /// The session itself.
    pub spec: SessionSpec,
}

/// SplitMix64-style mixing of the base seed with a per-session counter, so
/// every session gets a decorrelated seed stream of its own.
fn mix_seed(seed: u64, id: u64) -> u64 {
    mix64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates the arrival list: ascending ticks, one spec per session, fully
/// determined by the configuration (same config ⇒ identical list).
pub fn generate(config: &WorkloadConfig) -> Vec<Arrival> {
    const OPERATORS: [OperatorKind; 3] =
        [OperatorKind::Exam, OperatorKind::Idle, OperatorKind::Reckless];
    const GPUS: [GpuGeneration; 2] = [GpuGeneration::Tnt2, GpuGeneration::NextGeneration];
    const CHANNELS: [usize; 2] = [2, 3];

    let mut rng = SplitMix64::new(mix_seed(config.seed, 0xF1EE7));
    let mut arrivals = Vec::with_capacity(config.sessions);
    let mut tick = 0u64;
    for id in 0..config.sessions as u64 {
        let operator = OPERATORS[rng.below(OPERATORS.len())];
        let gpu = GPUS[rng.below(GPUS.len())];
        let channels = CHANNELS[rng.below(CHANNELS.len())];
        let priority = Priority::ALL[rng.below(Priority::COUNT)];
        let session_seed = mix_seed(config.seed, id * 2 + 1);
        let fault_seed = mix_seed(config.seed, id * 2 + 2);
        let named_plans = plans::all(fault_seed);
        let plan = named_plans[rng.below(named_plans.len())].clone();
        let frames = config.base_frames / 2 + rng.up_to(config.base_frames as u64) as usize;

        let sim_config = SimulatorConfig {
            operator,
            gpu,
            display_channels: channels,
            display_width: 64,
            display_height: 48,
            exam_frames: frames,
            seed: session_seed,
            ..SimulatorConfig::default()
        };
        let name = format!(
            "s{id:03}-{}-{}-{}-c{channels}-{}",
            priority.tag(),
            operator.name(),
            gpu.name(),
            plan.name
        );
        arrivals.push(Arrival {
            tick,
            spec: SessionSpec {
                id,
                name,
                config: sim_config,
                fault_plan: plan.plan,
                frames,
                priority,
            },
        });
        tick += rng.up_to(config.mean_interarrival_ticks * 2);
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_ascending() {
        let config = WorkloadConfig { sessions: 20, seed: 7, ..WorkloadConfig::quick(7) };
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for pair in a.windows(2) {
            assert!(pair[0].tick <= pair[1].tick, "arrival ticks must ascend");
        }
    }

    #[test]
    fn quick_workload_draws_are_pinned() {
        // A drift in the seeded mix moves every fleet fingerprint.
        let arrivals = generate(&WorkloadConfig::quick(0xC0D));
        let head: Vec<(u64, &str, u64)> = arrivals[..3]
            .iter()
            .map(|a| (a.tick, a.spec.name.as_str(), a.spec.config.seed))
            .collect();
        assert_eq!(
            head,
            [
                (0, "s000-bat-reckless-nextgen-c3-partition", 0x4899_cb38_61d7_2777),
                (0, "s001-int-exam-nextgen-c2-loss5", 0x439d_0682_8b1a_fb0c),
                (2, "s002-trn-reckless-nextgen-c2-spike", 0xfaa5_c431_6b6d_0696),
            ]
        );
    }

    #[test]
    fn different_seeds_draw_different_mixes() {
        let a = generate(&WorkloadConfig { sessions: 16, ..WorkloadConfig::quick(1) });
        let b = generate(&WorkloadConfig { sessions: 16, ..WorkloadConfig::quick(2) });
        assert_ne!(a, b);
    }

    #[test]
    fn specs_cover_the_matrix_dimensions_and_stay_valid() {
        let arrivals = generate(&WorkloadConfig::quick(3));
        let mut operators = std::collections::BTreeSet::new();
        let mut plans_seen = std::collections::BTreeSet::new();
        for a in &arrivals {
            a.spec.config.validate().expect("generated config must be valid");
            assert!(a.spec.frames >= 24, "session too short: {}", a.spec.frames);
            operators.insert(format!("{:?}", a.spec.config.operator));
            plans_seen.insert(a.spec.name.rsplit('-').next().unwrap().to_owned());
        }
        assert_eq!(operators.len(), 3, "all operator kinds should appear in 64 draws");
        assert!(plans_seen.len() >= 4, "fault-plan variety missing: {plans_seen:?}");
    }

    #[test]
    fn priorities_cover_every_class_and_order_by_urgency() {
        assert!(Priority::Interactive > Priority::Training);
        assert!(Priority::Training > Priority::Batch);
        for p in Priority::ALL {
            assert_eq!(Priority::ALL[p.index()], p);
        }
        let arrivals = generate(&WorkloadConfig::quick(3));
        let mut classes = std::collections::BTreeSet::new();
        for a in &arrivals {
            assert!(
                a.spec.name.contains(a.spec.priority.tag()),
                "name {} missing priority tag",
                a.spec.name
            );
            classes.insert(a.spec.priority);
        }
        assert_eq!(classes.len(), Priority::COUNT, "all classes should appear in 64 draws");
    }

    #[test]
    fn tier_policy_protects_interactive_sessions() {
        assert!(!coarse_eligible(Priority::Interactive));
        assert!(coarse_eligible(Priority::Batch) && coarse_eligible(Priority::Training));
        assert_eq!(initial_tier(Priority::Batch), FidelityTier::Coarse);
        assert_eq!(initial_tier(Priority::Training), FidelityTier::Full);
        assert_eq!(initial_tier(Priority::Interactive), FidelityTier::Full);
        // The generator itself stays tier-neutral: tiering is a fleet policy
        // applied at admission, so the same workload drives both run modes.
        for a in generate(&WorkloadConfig::quick(3)) {
            assert_eq!(a.spec.config.tier, FidelityTier::Full);
        }
    }

    #[test]
    fn session_seeds_are_unique() {
        let arrivals = generate(&WorkloadConfig::quick(9));
        let mut seeds: Vec<u64> = arrivals.iter().map(|a| a.spec.config.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), arrivals.len());
    }
}
