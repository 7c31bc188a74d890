//! The four seeded workloads, each driven only through public items of the
//! crates under test. Every workload is closed-loop: the next call is issued
//! when the previous one returns, by this process alone.
//!
//! | name | narrow surface it binds to |
//! |---|---|
//! | `rack_exam` | `CraneSimulator::{new, step_frame, reset_for_session, report, telemetry_digest}` |
//! | `shard_cohort` | `Shard::{new, admit, step_batch, resident_count}` |
//! | `fleet_mixed`, `fleet_churn` | `run_fleet_timed`, `FleetConfig`, `WorkloadConfig`, `FleetReport` |

use std::time::{Duration, Instant};

use cod_fleet::{
    run_fleet_timed, ExecutionMode, FleetConfig, FleetOutcome, FleetReport, ObsConfig,
    PlacementPolicy, Priority, SessionSpec, Shard, ShardConfig, ShardStats, SteppingMode,
    WallClockStats, WorkloadConfig,
};
use cod_net::FaultPlan;
use crane_sim::{CraneSimulator, FidelityTier, GpuGeneration, OperatorKind, SimulatorConfig};
use sim_math::hash::Fnv1a;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["rack_exam", "shard_cohort", "fleet_mixed", "fleet_churn"];

/// How much work a repeat does. `Smoke` shrinks every workload so that all
/// four finish within seconds (used by the crate's own test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's stated sizes.
    Full,
    /// The shrunken sizes of `--smoke`.
    Smoke,
}

/// What one repeat did and how long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct Repeat {
    /// Which of the workload's seeded input variants the repeat ran; always 0
    /// for a workload with one variant.
    pub variant: usize,
    /// Wall-clock of the repeat.
    pub wall: Duration,
    /// Session frames completed (replayed frames excluded).
    pub frames: u64,
    /// Sessions completed.
    pub sessions: u64,
    /// Operations attempted: frames for `rack_exam`, sessions otherwise.
    pub attempted: u64,
    /// Operations that failed, were refused or went unaccounted.
    pub failed: u64,
    /// Fingerprint of every simulated result of the repeat; a function of
    /// (code, seed, variant) only, so all repeats of one variant must agree.
    pub fingerprint: u64,
    /// Session frames per second of *modeled* time (the simulator's own cost
    /// model), exact per seed.
    pub modeled_frames_per_sec: f64,
}

/// A workload the harness can set up repeatedly and then repeat.
pub trait Workload {
    /// Cold start: builds the system under test from the generated inputs
    /// and serves its first few frames or sessions, so that lazy
    /// initialisation is paid here and not in the first repeat. `round`
    /// counts the set-ups of a run; a workload with several input variants
    /// starts on variant `round % variants`.
    fn set_up(&mut self, round: usize) -> Result<(), String>;

    /// One repeat on the system `set_up` built. A workload with several
    /// input variants runs them in rotation, variant 0 first.
    fn repeat(&mut self) -> Result<Repeat, String>;

    /// How many seeded input variants `repeat` rotates through.
    fn variants(&self) -> usize {
        1
    }

    /// Checks against an independently built reference (untimed, after the
    /// last repeat).
    fn verify(&mut self) -> Result<(), String>;

    /// Per-layer counts and modeled results read from what the program
    /// returned during the last repeat.
    fn layer_counts(&self) -> Vec<(&'static str, f64)>;

    /// The first few thousand frames' worth of this workload's sessions, for
    /// the traced-rack waterfall and the probes.
    fn sample_sessions(&self) -> Vec<SessionSpec>;

    /// The fleet configuration, for workloads that drain a fleet.
    fn fleet_config(&self) -> Option<&FleetConfig> {
        None
    }

    /// The shard sizing, for workloads whose sessions run on shards.
    fn shard_config(&self) -> Option<ShardConfig> {
        None
    }
}

/// Builds the named workload, or `None` for an unknown name. With `rotate`
/// a fleet drains [`Fleet::VARIANTS`] seeded workloads in turn; without, only
/// the first of them, so that counts read from a drain repeat exactly.
pub fn build(
    name: &str,
    seed: u64,
    size: Size,
    threads: usize,
    rotate: bool,
) -> Option<Box<dyn Workload>> {
    let variants = if rotate { Fleet::VARIANTS } else { 1 };
    Some(match name {
        "rack_exam" => Box::new(RackExam::new(seed, size)),
        "shard_cohort" => Box::new(ShardCohort::new(seed, size)),
        "fleet_mixed" => Box::new(Fleet::mixed(seed, size, threads, variants)),
        "fleet_churn" => Box::new(Fleet::churn(seed, size, threads, variants)),
        _ => return None,
    })
}

/// SplitMix64 over (seed, index): decorrelated per-session seeds.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The exam session every non-fleet workload runs: the paper's rig at the
/// 64x48 benchmark resolution (the cost model, not the rasterizer, sets
/// modeled time).
fn exam_spec(id: u64, seed: u64, frames: usize) -> SessionSpec {
    SessionSpec {
        id,
        name: format!("exam-{id}"),
        config: SimulatorConfig {
            display_channels: 3,
            display_width: 64,
            display_height: 48,
            gpu: GpuGeneration::Tnt2,
            operator: OperatorKind::Exam,
            tier: FidelityTier::Full,
            exam_frames: frames,
            seed,
            ..SimulatorConfig::default()
        },
        fault_plan: FaultPlan::none(),
        frames,
        priority: Priority::Training,
    }
}

fn score_in_bounds(score: f64) -> bool {
    (0.0..=100.0).contains(&score)
}

/// Runs `spec` to its end on a freshly built simulator and returns the
/// fingerprint of its final telemetry digest: the reference a recycled or
/// batched session must reproduce.
pub fn fresh_session_fingerprint(spec: &SessionSpec) -> Result<u64, String> {
    let mut sim = CraneSimulator::new(spec.config).map_err(|e| e.to_string())?;
    sim.set_fault_plan(spec.fault_plan.clone());
    for _ in 0..spec.frames {
        sim.step_frame().map_err(|e| e.to_string())?;
    }
    Ok(sim.telemetry_digest().fingerprint())
}

// ---------------------------------------------------------------- rack_exam

/// The paper's rig: one rack, exam sessions back to back, stepped frame by
/// frame on one thread.
pub struct RackExam {
    seed: u64,
    frames: usize,
    sessions_per_repeat: u64,
    sim: Option<CraneSimulator>,
    first_session_fingerprint: u64,
    last_report: Option<crane_sim::SessionReport>,
}

impl RackExam {
    /// Frames stepped during set-up, enough to touch every LP's lazy state.
    const SET_UP_FRAMES: usize = 32;

    fn new(seed: u64, size: Size) -> RackExam {
        // 2000 frames is the paper's exam length; four sessions make a
        // repeat long enough (~0.6 s) that timer and scheduler noise is small.
        let (frames, sessions_per_repeat) = match size {
            Size::Full => (2_000, 4),
            Size::Smoke => (400, 1),
        };
        RackExam {
            seed,
            frames,
            sessions_per_repeat,
            sim: None,
            first_session_fingerprint: 0,
            last_report: None,
        }
    }

    fn spec(&self, index: u64) -> SessionSpec {
        exam_spec(index, mix(self.seed, index), self.frames)
    }
}

impl Workload for RackExam {
    fn set_up(&mut self, _round: usize) -> Result<(), String> {
        let mut sim = CraneSimulator::new(self.spec(0).config).map_err(|e| e.to_string())?;
        for _ in 0..Self::SET_UP_FRAMES {
            sim.step_frame().map_err(|e| e.to_string())?;
        }
        self.sim = Some(sim);
        Ok(())
    }

    fn repeat(&mut self) -> Result<Repeat, String> {
        let seeds: Vec<u64> =
            (0..self.sessions_per_repeat).map(|i| self.spec(i).config.seed).collect();
        let sim = self.sim.as_mut().ok_or("rack_exam repeated before set-up")?;
        let mut hash = Fnv1a::new();
        let (mut attempted, mut failed, mut frames_done) = (0u64, 0u64, 0u64);
        let mut modeled_fps = 0.0;
        let started = Instant::now();
        for (index, seed) in seeds.into_iter().enumerate() {
            sim.reset_for_session(seed).map_err(|e| e.to_string())?;
            let mut stepped = 0u64;
            for _ in 0..self.frames {
                attempted += 1;
                if sim.step_frame().is_err() {
                    failed += 1;
                    break;
                }
                stepped += 1;
            }
            frames_done += stepped;
            let report = sim.report();
            if !score_in_bounds(report.score) || report.frames_run != stepped {
                failed += 1;
            }
            let fingerprint = sim.telemetry_digest().fingerprint();
            if index == 0 {
                self.first_session_fingerprint = fingerprint;
            }
            hash.write_u64(fingerprint);
            modeled_fps += report.synchronized_fps;
            self.last_report = Some(report);
        }
        Ok(Repeat {
            variant: 0,
            wall: started.elapsed(),
            frames: frames_done,
            sessions: self.sessions_per_repeat,
            attempted,
            failed,
            fingerprint: hash.finish(),
            modeled_frames_per_sec: modeled_fps / self.sessions_per_repeat as f64,
        })
    }

    fn verify(&mut self) -> Result<(), String> {
        let fresh = fresh_session_fingerprint(&self.spec(0))?;
        if fresh != self.first_session_fingerprint {
            return Err(format!(
                "recycled rack replayed session 0 to {:016x}, a fresh rack to {fresh:016x}",
                self.first_session_fingerprint
            ));
        }
        Ok(())
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let Some(report) = &self.last_report else { return Vec::new() };
        let speedup = if report.sequential_fps > 0.0 {
            report.cluster_fps / report.sequential_fps
        } else {
            0.0
        };
        vec![("modeled_cod_speedup", speedup), ("modeled_sync_fps", report.synchronized_fps)]
    }

    fn sample_sessions(&self) -> Vec<SessionSpec> {
        (0..2.min(self.sessions_per_repeat)).map(|i| self.spec(i)).collect()
    }
}

// ------------------------------------------------------------- shard_cohort

/// One shard stepping full same-shape cohorts: the batching machinery
/// (WaveBank memo, `BatchScratch`, SoA kernels) with something to share.
pub struct ShardCohort {
    seed: u64,
    frames: usize,
    waves: u64,
    shard: Option<Shard>,
    first_session_fingerprint: u64,
}

impl ShardCohort {
    /// Residents per wave: one full cohort.
    pub const SLOTS: usize = 8;
    /// Frames per `step_batch`.
    pub const BATCH_FRAMES: usize = 8;

    fn new(seed: u64, size: Size) -> ShardCohort {
        let (frames, waves) = match size {
            Size::Full => (96, 16),
            Size::Smoke => (24, 2),
        };
        ShardCohort { seed, frames, waves, shard: None, first_session_fingerprint: 0 }
    }

    /// The shard sizing of this workload.
    pub fn shard_config() -> ShardConfig {
        ShardConfig {
            slots: Self::SLOTS,
            batch_frames: Self::BATCH_FRAMES,
            pool_per_shape: Self::SLOTS,
            stepping: SteppingMode::Batched,
        }
    }

    fn spec(&self, wave: u64, slot: u64) -> SessionSpec {
        let id = wave * Self::SLOTS as u64 + slot;
        exam_spec(id, mix(self.seed, id), self.frames)
    }

    fn drain(&mut self, waves: u64) -> Result<Repeat, String> {
        let specs: Vec<Vec<SessionSpec>> = (0..waves)
            .map(|w| (0..Self::SLOTS as u64).map(|s| self.spec(w, s)).collect())
            .collect();
        let shard = self.shard.as_mut().ok_or("shard_cohort repeated before set-up")?;
        let mut hash = Fnv1a::new();
        let (mut frames, mut sessions, mut failed) = (0u64, 0u64, 0u64);
        let mut modeled_us = 0u64;
        let started = Instant::now();
        for (wave, wave_specs) in specs.into_iter().enumerate() {
            for spec in wave_specs {
                shard.admit(spec, wave as u64, wave as u64).map_err(|e| e.to_string())?;
            }
            while shard.resident_count() > 0 {
                let (completed, busy) = shard.step_batch().map_err(|e| e.to_string())?;
                modeled_us += busy.0;
                for done in completed {
                    sessions += 1;
                    frames += done.frames as u64;
                    if !score_in_bounds(done.report.score)
                        || done.report.frames_run != done.frames as u64
                    {
                        failed += 1;
                    }
                    if done.id == 0 {
                        self.first_session_fingerprint = done.telemetry;
                    }
                    hash.write_u64(done.id);
                    hash.write_u64(done.telemetry);
                }
            }
        }
        let wall = started.elapsed();
        let attempted = waves * Self::SLOTS as u64;
        failed += attempted - sessions;
        Ok(Repeat {
            variant: 0,
            wall,
            frames,
            sessions,
            attempted,
            failed,
            fingerprint: hash.finish(),
            modeled_frames_per_sec: frames as f64 / (modeled_us as f64 / 1e6),
        })
    }
}

impl Workload for ShardCohort {
    fn set_up(&mut self, _round: usize) -> Result<(), String> {
        // A new shard has an empty pool: the first wave builds its eight
        // racks, every later admission recycles one.
        self.shard = Some(Shard::new(0, Self::shard_config(), 1.0));
        self.drain(1).map(|_| ())
    }

    fn repeat(&mut self) -> Result<Repeat, String> {
        self.drain(self.waves)
    }

    fn verify(&mut self) -> Result<(), String> {
        let fresh = fresh_session_fingerprint(&self.spec(0, 0))?;
        if fresh != self.first_session_fingerprint {
            return Err(format!(
                "cohort-stepped session 0 ended at {:016x}, stepped alone at {fresh:016x}",
                self.first_session_fingerprint
            ));
        }
        Ok(())
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let Some(shard) = &self.shard else { return Vec::new() };
        shard_counts(&[shard.stats])
    }

    fn sample_sessions(&self) -> Vec<SessionSpec> {
        (0..4.min(self.waves))
            .flat_map(|w| (0..Self::SLOTS as u64).map(move |s| (w, s)))
            .map(|(w, s)| self.spec(w, s))
            .collect()
    }

    fn shard_config(&self) -> Option<ShardConfig> {
        Some(Self::shard_config())
    }
}

/// Pool ratio from program-returned `ShardStats`.
fn shard_counts(stats: &[ShardStats]) -> Vec<(&'static str, f64)> {
    let built: u64 = stats.iter().map(|s| s.sims_built).sum();
    let recycled: u64 = stats.iter().map(|s| s.sims_recycled).sum();
    vec![("cod-fleet.shard.pool_hit_rate", ratio(recycled, built + recycled))]
}

/// `part / whole`, 0 for an empty whole.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

// ------------------------------------------------- fleet_mixed, fleet_churn

/// Whole fleets drained through `run_fleet_timed` on the work-stealing
/// executor.
///
/// What a fleet costs to drain depends on its seeded mix of shapes, tiers,
/// faults and arrival times by far more than two drains of one mix differ
/// (on `fleet_mixed` ~15% between seeds against ~5% between runs). So that
/// one run speaks for the workload and not for one draw of it, a run drains
/// [`Fleet::VARIANTS`] workloads seeded from `--seed` in rotation.
pub struct Fleet {
    variants: Vec<FleetConfig>,
    next: usize,
    last: Option<(FleetOutcome, WallClockStats)>,
}

impl Fleet {
    /// Seeded workloads a rotating fleet drains in turn.
    pub const VARIANTS: usize = 4;

    /// Everything on at once: mixed shapes and fault plans, heterogeneous
    /// shard speeds, preemption, migration and tiering.
    fn mixed(seed: u64, size: Size, threads: usize, variants: usize) -> Fleet {
        let sessions = match size {
            Size::Full => 256,
            Size::Smoke => 16,
        };
        Fleet::with(variants, |variant| FleetConfig {
            shards: 4,
            shard: ShardConfig {
                slots: 4,
                batch_frames: 8,
                pool_per_shape: 2,
                stepping: SteppingMode::Batched,
            },
            shard_speeds: vec![2.0, 0.5, 0.5, 0.5],
            placement: PlacementPolicy::SpeedWeighted,
            preemption: true,
            migration: true,
            max_pending: 32,
            tiering: true,
            workload: WorkloadConfig {
                sessions,
                seed: mix(seed, variant),
                base_frames: 96,
                mean_interarrival_ticks: 1,
            },
            execution: ExecutionMode::WallClock { threads },
            obs: ObsConfig::Disabled,
        })
    }

    /// The same fleet layer used the other way: thousands of ~8-frame
    /// sessions, so admission, pool resets and executor hand-off dominate.
    fn churn(seed: u64, size: Size, threads: usize, variants: usize) -> Fleet {
        let sessions = match size {
            Size::Full => 2_048,
            Size::Smoke => 64,
        };
        Fleet::with(variants, |variant| FleetConfig {
            shards: 4,
            shard: ShardConfig {
                slots: 4,
                batch_frames: 1,
                pool_per_shape: 2,
                stepping: SteppingMode::Batched,
            },
            shard_speeds: Vec::new(),
            placement: PlacementPolicy::SpeedWeighted,
            preemption: false,
            migration: false,
            max_pending: 64,
            tiering: false,
            workload: WorkloadConfig {
                sessions,
                seed: mix(seed, variant),
                base_frames: 8,
                mean_interarrival_ticks: 1,
            },
            execution: ExecutionMode::WallClock { threads },
            obs: ObsConfig::Disabled,
        })
    }

    fn with(variants: usize, config: impl Fn(u64) -> FleetConfig) -> Fleet {
        Fleet { variants: (0..variants as u64).map(config).collect(), next: 0, last: None }
    }
}

/// The rendered `FLEET_cod.json` body of an outcome: the byte-identity
/// witness between execution modes and repeats.
pub fn fleet_report_bytes(outcome: &FleetOutcome) -> String {
    FleetReport::from_outcome(outcome).to_json().to_pretty()
}

/// Folds a drained fleet into a [`Repeat`], closing the ledger on the way:
/// anything offered that did not complete is a failed operation.
pub fn fleet_repeat(variant: usize, outcome: &FleetOutcome, wall: Duration) -> Repeat {
    let mut hash = Fnv1a::new();
    hash.write_bytes(fleet_report_bytes(outcome).as_bytes());
    let mut by_id: Vec<(u64, u64)> = outcome.sessions.iter().map(|s| (s.id, s.telemetry)).collect();
    by_id.sort_unstable();
    for (id, telemetry) in by_id {
        hash.write_u64(id);
        hash.write_u64(telemetry);
    }
    let frames: u64 = outcome.sessions.iter().map(|s| s.frames as u64).sum();
    let bad_scores = outcome.sessions.iter().filter(|s| !score_in_bounds(s.score)).count() as u64;
    let unaccounted = outcome.offered - outcome.completed.min(outcome.offered);
    Repeat {
        variant,
        wall,
        frames,
        sessions: outcome.completed,
        attempted: outcome.offered,
        failed: unaccounted + bad_scores + outcome.rejected_with_free_slot,
        fingerprint: hash.finish(),
        modeled_frames_per_sec: frames as f64 / outcome.elapsed_modeled.as_secs_f64(),
    }
}

impl Workload for Fleet {
    fn set_up(&mut self, round: usize) -> Result<(), String> {
        // A fleet keeps nothing between drains — shards, pools and the
        // executor are built inside `run_fleet_timed` — so the cold start a
        // user pays is the head of a drain: executor spawn, workload
        // generation and the first rack builds. Serve the first sixteenth.
        let mut head = self.variants[round % self.variants.len()].clone();
        head.workload.sessions = (head.workload.sessions / 16).max(4);
        run_fleet_timed(&head).map(|_| ()).map_err(|e| e.to_string())
    }

    fn repeat(&mut self) -> Result<Repeat, String> {
        let variant = self.next;
        self.next = (self.next + 1) % self.variants.len();
        let started = Instant::now();
        let (outcome, stats) =
            run_fleet_timed(&self.variants[variant]).map_err(|e| e.to_string())?;
        let repeat = fleet_repeat(variant, &outcome, started.elapsed());
        self.last = Some((outcome, stats));
        Ok(repeat)
    }

    fn variants(&self) -> usize {
        self.variants.len()
    }

    fn verify(&mut self) -> Result<(), String> {
        let (outcome, _) = self.last.as_ref().ok_or("fleet verified before any drain")?;
        if outcome.offered != outcome.completed + outcome.rejected {
            return Err(format!(
                "ledger open: offered {} != completed {} + rejected {}",
                outcome.offered, outcome.completed, outcome.rejected
            ));
        }
        if outcome.rejected_with_free_slot != 0 {
            return Err(format!("{} rejected with a free slot", outcome.rejected_with_free_slot));
        }
        // The reference is drained for the variant drained last; the others
        // are held to repeat-to-repeat identity by the harness.
        let modeled = FleetConfig { execution: ExecutionMode::Modeled, ..outcome.config.clone() };
        let (reference, _) = run_fleet_timed(&modeled).map_err(|e| e.to_string())?;
        if fleet_report_bytes(&reference) != fleet_report_bytes(outcome)
            || reference.sessions != outcome.sessions
        {
            return Err("WallClock drain diverged from the Modeled reference".into());
        }
        Ok(())
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let Some((outcome, _)) = &self.last else { return Vec::new() };
        let mut counts = shard_counts(&outcome.shard_stats);
        let replayed: u64 = outcome.shard_stats.iter().map(|s| s.replayed_frames).sum();
        let frames: u64 = outcome.sessions.iter().map(|s| s.frames as u64).sum();
        counts.push(("cod-fleet.shard.replay_frame_share", ratio(replayed, frames + replayed)));
        counts.push(("modeled_sessions_per_sec", outcome.sessions_per_sec()));
        counts.push(("modeled_latency_ticks_p95", outcome.latency_percentile_ticks(95.0)));
        counts
    }

    fn sample_sessions(&self) -> Vec<SessionSpec> {
        let mut frames = 0;
        cod_fleet::generate(&self.variants[0].workload)
            .into_iter()
            .map(|arrival| arrival.spec)
            .take_while(|spec| {
                let take = frames < 4_000;
                frames += spec.frames;
                take
            })
            .collect()
    }

    fn fleet_config(&self) -> Option<&FleetConfig> {
        Some(&self.variants[0])
    }

    fn shard_config(&self) -> Option<ShardConfig> {
        Some(self.variants[0].shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_seeds_are_decorrelated_and_stable() {
        assert_eq!(mix(7, 0), mix(7, 0));
        assert_ne!(mix(7, 0), mix(7, 1));
        assert_ne!(mix(7, 0), mix(8, 0));
        assert_ne!(mix(0, 0), 0, "seed 0 must not collapse the stream");
    }

    #[test]
    fn every_listed_workload_builds_and_unknown_names_do_not() {
        for name in NAMES {
            assert!(build(name, 1, Size::Smoke, 1, true).is_some(), "{name}");
        }
        assert!(build("rack", 1, Size::Smoke, 1, true).is_none());
    }

    #[test]
    fn sample_sessions_are_a_seeded_prefix_of_the_workload() {
        for name in NAMES {
            let a = build(name, 3, Size::Smoke, 1, false).unwrap().sample_sessions();
            let b = build(name, 3, Size::Smoke, 1, true).unwrap().sample_sessions();
            let c = build(name, 4, Size::Smoke, 1, false).unwrap().sample_sessions();
            assert!(!a.is_empty(), "{name}");
            assert_eq!(a, b, "{name}: same seed, same inputs");
            assert_ne!(a, c, "{name}: another seed, other inputs");
        }
    }
}
