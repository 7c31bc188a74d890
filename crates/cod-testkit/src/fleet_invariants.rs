//! Fleet-level invariant checkers, mirroring the per-frame battery of
//! [`crate::invariants`] one level up: whatever the workload does, the
//! serving layer must conserve sessions (its event log walks clean, see
//! [`FleetOutcome::log_violations`]), respect shard capacity, respect priority order, starve
//! nobody, and replay bit-exactly from its seed. The checks the workspace
//! tests call are public; those only this module's tests run live in its
//! test module.

use cod_cb::CbError;
use cod_fleet::{run_fleet, ExecutionMode, FleetConfig, FleetOutcome, FleetReport};
use crane_sim::{FidelityTier, SCORE_DRIFT_TOLERANCE};

/// Per run, its label and [`first_divergence`] from the reference report.
type Divergences<Label> = Vec<(Label, Option<usize>)>;

/// Index of the first byte at which two serialized reports differ (the shorter
/// length when one is a prefix of the other), `None` when they are identical.
fn first_divergence(a: &str, b: &str) -> Option<usize> {
    if a == b {
        return None;
    }
    Some(a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len())))
}

/// Proves wall-clock equivalence: the same configuration served under
/// [`ExecutionMode::Modeled`] and under [`ExecutionMode::WallClock`] at each
/// requested thread count must serialize to byte-identical reports — thread
/// scheduling may decide who steps a shard, never what the fleet computes.
/// Returns the modeled outcome plus, per thread count, the first byte where
/// that run's report diverged (`None` everywhere proves equivalence).
///
/// # Errors
///
/// Returns the first hard error raised by any run.
pub fn wallclock_equivalence_check(
    config: &FleetConfig,
    thread_counts: &[usize],
) -> Result<(FleetOutcome, Divergences<usize>), CbError> {
    let mut modeled_config = config.clone();
    modeled_config.execution = ExecutionMode::Modeled;
    let modeled = run_fleet(&modeled_config)?;
    let reference = FleetReport::from_outcome(&modeled).to_json().to_pretty();
    let mut divergences = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let mut pooled_config = config.clone();
        pooled_config.execution = ExecutionMode::WallClock { threads };
        let pooled = run_fleet(&pooled_config)?;
        let bytes = FleetReport::from_outcome(&pooled).to_json().to_pretty();
        divergences.push((threads, first_divergence(&reference, &bytes)));
    }
    Ok((modeled, divergences))
}

/// Proves observability equivalence: the same configuration with the
/// deterministic sink armed ([`cod_fleet::ObsConfig::Deterministic`]) must
/// drain byte-identical `OBS_cod.json` bytes under [`ExecutionMode::Modeled`]
/// and [`ExecutionMode::WallClock`] at each requested thread count — the sink
/// records modeled time and seeded identifiers only, so who stepped the shards
/// must be invisible in it. Returns the modeled run's report bytes plus, per
/// mode label, the first byte where that run's report diverged (`None`
/// everywhere proves equivalence).
///
/// # Errors
///
/// Returns the first hard error raised by any run.
pub fn obs_equivalence_check(
    config: &FleetConfig,
    thread_counts: &[usize],
) -> Result<(String, Divergences<String>), CbError> {
    let obs_bytes = |execution: ExecutionMode| -> Result<String, CbError> {
        let mut traced = config.clone();
        traced.execution = execution;
        traced.obs = cod_fleet::ObsConfig::Deterministic;
        let (_, _, artifacts) = cod_fleet::run_fleet_traced(&traced)?;
        let det = artifacts.det.expect("the deterministic sink was armed");
        Ok(det.to_report_json(traced.workload.seed).to_pretty())
    };
    let reference = obs_bytes(ExecutionMode::Modeled)?;
    let mut divergences = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let bytes = obs_bytes(ExecutionMode::WallClock { threads })?;
        divergences.push((format!("wallclock-{threads}"), first_divergence(&reference, &bytes)));
    }
    Ok((reference, divergences))
}

/// Proves fidelity-tiering transparency: the same workload served all-Full
/// and with live tiering must complete the *same* sessions (tick-granularity
/// dynamics are tier-independent), any session finishing on the Full tier
/// must be bit-identical to its all-Full twin (its last rebuild replayed
/// every frame on the full rack), and a session finishing Coarse may drift
/// only within [`SCORE_DRIFT_TOLERANCE`]. Returns the tiered outcome plus
/// any per-session divergence.
///
/// # Errors
///
/// Returns the first hard error raised by either run.
// audit:allow(dead-surface): ROADMAP item 6(d) turns it into the retier drift bound.
pub fn tier_transparency_check(
    config: &FleetConfig,
) -> Result<(FleetOutcome, Vec<String>), CbError> {
    let mut full_config = config.clone();
    full_config.tiering = false;
    let full = run_fleet(&full_config)?;
    let mut tiered_config = config.clone();
    tiered_config.tiering = true;
    let tiered = run_fleet(&tiered_config)?;

    let mut violations = Vec::new();
    if full.sessions.len() != tiered.sessions.len() || full.rejected != tiered.rejected {
        violations.push(format!(
            "tiering changed the admission outcome: {} completed / {} rejected vs {} / {}",
            tiered.sessions.len(),
            tiered.rejected,
            full.sessions.len(),
            full.rejected
        ));
    }
    for s in &tiered.sessions {
        let Some(twin) = full.sessions.iter().find(|f| f.id == s.id) else {
            violations.push(format!("session {} completed only under tiering", s.id));
            continue;
        };
        if twin.frames != s.frames {
            violations.push(format!(
                "session {} changed length under tiering: {} frames vs {}",
                s.id, s.frames, twin.frames
            ));
        }
        if s.tier == FidelityTier::Full && (twin.score != s.score || twin.passed != s.passed) {
            violations.push(format!(
                "session {} finished Full yet diverged: score {} vs {}, passed {} vs {}",
                s.id, s.score, twin.score, s.passed, twin.passed
            ));
        }
        if (s.score - twin.score).abs() > SCORE_DRIFT_TOLERANCE {
            violations.push(format!(
                "session {} drifted {:.1} points under tiering (tolerance {})",
                s.id,
                (s.score - twin.score).abs(),
                SCORE_DRIFT_TOLERANCE
            ));
        }
    }
    Ok((tiered, violations))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use cod_fleet::{
        initial_tier, FleetEvent, FleetEventKind, PlacementPolicy, Priority, SessionShape,
        ShardConfig, WorkloadConfig,
    };
    use crane_sim::{step_frames_batch_traced, CraneSimulator, SimulatorConfig};

    use super::*;
    use crate::matrix::{scenario_specs, MatrixConfig};

    /// Checks every fleet-level safety property on a drained outcome; returns a
    /// description of each violated property (empty ⇒ all held).
    fn check_fleet_outcome(outcome: &FleetOutcome) -> Vec<String> {
        // Conservation: the one record of every decision walks clean. Every
        // count (totals, per shard, per session) is a fold of that log, so
        // there is no second record to agree with.
        let mut violations: Vec<String> =
            outcome.log_violations().into_iter().map(|v| format!("conservation: {v}")).collect();
        if !outcome.config.tiering && outcome.promoted() + outcome.demoted() > 0 {
            violations.push(format!(
                "retier ledger: {} promotions / {} demotions with tiering off",
                outcome.promoted(),
                outcome.demoted()
            ));
        }
        // Tier policy: an Interactive session never leaves the full rack, and a
        // Batch session (admitted Coarse) is never promoted above its home tier.
        for s in &outcome.sessions {
            if s.priority == Priority::Interactive
                && (s.tier != FidelityTier::Full || s.promoted + s.demoted > 0)
            {
                violations.push(format!(
                    "tier policy: interactive session {} finished {:?} with {} promotions / {} \
                     demotions",
                    s.id, s.tier, s.promoted, s.demoted
                ));
            }
            if initial_tier(s.priority) == FidelityTier::Coarse && s.promoted > 0 {
                violations.push(format!(
                    "tier policy: {:?} session {} was promoted above its Coarse home tier",
                    s.priority, s.id
                ));
            }
        }

        // Capacity: no shard may ever have hosted more sessions than it has
        // slots, and nothing may have been rejected while a slot was free.
        for (i, stats) in outcome.shard_stats.iter().enumerate() {
            if stats.peak_residents > outcome.config.shard.slots {
                violations.push(format!(
                    "capacity: shard {i} peaked at {} residents, capacity {}",
                    stats.peak_residents, outcome.config.shard.slots
                ));
            }
        }
        if outcome.rejected_with_free_slot > 0 {
            violations.push(format!(
                "backpressure: {} arrivals rejected while a slot was free",
                outcome.rejected_with_free_slot
            ));
        }
        if outcome.peak_pending > outcome.config.max_pending {
            violations.push(format!(
                "backpressure: queue peaked at {} over the bound {}",
                outcome.peak_pending, outcome.config.max_pending
            ));
        }

        // Priority ordering: a more urgent session never waits in the queue
        // while a less urgent one is placed. Witness from the outcomes: session
        // `a` (more urgent) already arrived strictly before `b`'s first
        // placement, yet was itself first placed only after it — the driver
        // would have had to pop `a` first.
        for a in &outcome.sessions {
            for b in &outcome.sessions {
                if a.priority > b.priority
                    && a.arrived_tick < b.admitted_tick
                    && a.admitted_tick > b.admitted_tick
                {
                    violations.push(format!(
                        "priority: {:?} session {} (arrived t{}, admitted t{}) waited while {:?} \
                         session {} was placed at t{}",
                        a.priority,
                        a.id,
                        a.arrived_tick,
                        a.admitted_tick,
                        b.priority,
                        b.id,
                        b.admitted_tick
                    ));
                }
            }
        }

        // No starvation: a session can wait in the queue at most as long as the
        // whole population ahead of it takes to drain through the fleet —
        // bounded by the queue depth plus total slots, times the longest
        // session's tick count. Every preemption can send a session back for
        // another round of the same wait.
        let ticks_per_session = outcome
            .sessions
            .iter()
            .map(|s| (s.frames as u64).div_ceil(outcome.config.shard.batch_frames as u64) + 1)
            .max()
            .unwrap_or(1);
        let ahead = (outcome.config.max_pending
            + outcome.config.shards * outcome.config.shard.slots) as u64;
        let wait_bound = ahead * ticks_per_session;
        for s in &outcome.sessions {
            let waited = s.admitted_tick - s.arrived_tick;
            if waited > wait_bound {
                violations.push(format!(
                    "starvation: session {} ({}) queued for {waited} ticks (bound {wait_bound})",
                    s.id, s.name
                ));
            }
            let running = s.completed_tick - s.admitted_tick;
            let run_bound =
                ticks_per_session + u64::from(s.preempted) * (wait_bound + ticks_per_session);
            if running > run_bound {
                violations.push(format!(
                    "starvation: session {} ({}) took {running} ticks after first placement \
                     (bound {run_bound}, preempted {}x)",
                    s.id, s.name, s.preempted
                ));
            }
        }

        violations
    }

    /// Runs the fleet twice from the same configuration and returns both
    /// outcomes plus the first difference between their serialized reports
    /// (`None` proves the run replays byte for byte).
    ///
    /// # Errors
    ///
    /// Returns the first hard error raised by either run.
    fn fleet_replay_check(
        config: &FleetConfig,
    ) -> Result<(FleetOutcome, FleetOutcome, Option<usize>), CbError> {
        let first = run_fleet(config)?;
        let second = run_fleet(config)?;
        let a = FleetReport::from_outcome(&first).to_json().to_pretty();
        let b = FleetReport::from_outcome(&second).to_json().to_pretty();
        Ok((first, second, first_divergence(&a, &b)))
    }

    /// Proves batched-stepping equivalence across every [`SessionShape`] of the
    /// scenario matrix: each distinct shape the sweep exercises (deduplicated —
    /// fault plans do not change a shape) gets a small same-shape cohort of
    /// divergent seeds run both scalar (one [`CraneSimulator::step_frame`] loop
    /// per session) and batched (one [`step_frames_batch_traced`] call), and every
    /// member's telemetry digest must match bit for bit. Returns a description of
    /// every divergence (empty ⇒ equivalent).
    ///
    /// # Errors
    ///
    /// Returns the first hard error raised by any simulator.
    fn batch_shape_coverage_check(
        matrix: &MatrixConfig,
        cohort: usize,
        frames: usize,
    ) -> Result<Vec<String>, CbError> {
        let mut shapes: BTreeMap<SessionShape, SimulatorConfig> = BTreeMap::new();
        for spec in scenario_specs(matrix) {
            let mut config = spec.config;
            config.exam_frames = frames;
            shapes.entry(SessionShape::of(&config)).or_insert(config);
        }

        let mut violations = Vec::new();
        for (index, base) in shapes.values().enumerate() {
            let cohort_config = |k: usize| {
                let mut config = *base;
                config.seed ^= (k as u64) * 0x9E37_79B9;
                config
            };
            // Scalar reference: each member stepped alone, frame by frame.
            let mut scalar_digests = Vec::with_capacity(cohort);
            for k in 0..cohort {
                let mut sim = CraneSimulator::new(cohort_config(k))?;
                for _ in 0..frames {
                    sim.step_frame()?;
                }
                scalar_digests.push(sim.telemetry_digest());
            }
            // Batched run: the same cohort handed to one batch call.
            let mut sims = (0..cohort)
                .map(|k| CraneSimulator::new(cohort_config(k)))
                .collect::<Result<Vec<_>, _>>()?;
            let mut batch: Vec<(&mut CraneSimulator, usize)> =
                sims.iter_mut().map(|sim| (sim, frames)).collect();
            step_frames_batch_traced(&mut batch, None)?;
            for (k, (sim, scalar)) in sims.iter().zip(&scalar_digests).enumerate() {
                if sim.telemetry_digest() != *scalar {
                    violations.push(format!(
                        "matrix shape {index}: cohort member {k} diverged from its scalar twin \
                         (operator {:?}, gpu {:?}, {} channels)",
                        base.operator, base.gpu, base.display_channels
                    ));
                }
            }
        }
        Ok(violations)
    }

    /// Proves migration transparency: the same workload served with live
    /// migration on and off must produce identical physics for every session —
    /// same score, same verdict, same frame count. (Modeled *costs* legitimately
    /// differ: a migrated session is charged on a different machine.) Returns
    /// the migrating outcome plus any per-session divergence.
    ///
    /// # Errors
    ///
    /// Returns the first hard error raised by either run.
    fn migration_transparency_check(
        config: &FleetConfig,
    ) -> Result<(FleetOutcome, Vec<String>), CbError> {
        let mut pinned_config = config.clone();
        pinned_config.migration = false;
        let pinned = run_fleet(&pinned_config)?;
        let mut migrating_config = config.clone();
        migrating_config.migration = true;
        let migrating = run_fleet(&migrating_config)?;

        let mut violations = Vec::new();
        if pinned.sessions.len() != migrating.sessions.len() {
            violations.push(format!(
                "migration changed the completion count: {} vs {}",
                pinned.sessions.len(),
                migrating.sessions.len()
            ));
        }
        for s in &migrating.sessions {
            let Some(twin) = pinned.sessions.iter().find(|p| p.id == s.id) else {
                violations.push(format!("session {} completed only under migration", s.id));
                continue;
            };
            if twin.score != s.score || twin.passed != s.passed || twin.frames != s.frames {
                violations.push(format!(
                    "session {} diverged under migration: score {} vs {}, passed {} vs {}, frames \
                     {} vs {}",
                    s.id, twin.score, s.score, twin.passed, s.passed, twin.frames, s.frames
                ));
            }
        }
        Ok((migrating, violations))
    }

    fn small_config(shards: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            shards,
            shard: ShardConfig {
                slots: 2,
                batch_frames: 8,
                pool_per_shape: 1,
                ..ShardConfig::default()
            },
            shard_speeds: Vec::new(),
            placement: PlacementPolicy::SpeedWeighted,
            preemption: false,
            migration: false,
            tiering: false,
            max_pending: 4,
            workload: WorkloadConfig {
                sessions: 8,
                seed,
                base_frames: 16,
                mean_interarrival_ticks: 1,
            },
            execution: ExecutionMode::Modeled,
            obs: Default::default(),
        }
    }

    /// A heterogeneous fleet under pressure: everything on, speeds far
    /// apart, sessions long and arrivals paced so both preemption (an urgent
    /// arrival finding the fleet full) and migration (a free fast slot while
    /// a slow shard still grinds) trigger within 16 sessions.
    fn hetero_config(seed: u64) -> FleetConfig {
        let mut config = small_config(2, seed);
        config.shard_speeds = vec![2.0, 0.5];
        config.preemption = true;
        config.migration = true;
        config.workload.sessions = 16;
        config.workload.base_frames = 32;
        config.workload.mean_interarrival_ticks = 1;
        config.max_pending = 8;
        config
    }

    /// A tiered burst: everything arrives at once so admission pressure
    /// demotes the coarse-eligible residents, then the bounded queue drains
    /// to calm while a Training session is still resident, so at least one
    /// promotion fires too.
    fn tiered_burst_config(seed: u64) -> FleetConfig {
        let mut config = small_config(2, seed);
        config.tiering = true;
        config.workload.sessions = 16;
        config.workload.base_frames = 32;
        config.workload.mean_interarrival_ticks = 0;
        config.max_pending = 4;
        config
    }

    #[test]
    fn a_healthy_fleet_passes_every_invariant() {
        let outcome = run_fleet(&small_config(2, 0xF1EE7)).unwrap();
        let violations = check_fleet_outcome(&outcome);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_saturated_fleet_still_passes_every_invariant() {
        let mut config = small_config(1, 0xBEEF);
        config.shard.slots = 1;
        config.max_pending = 1;
        config.workload.mean_interarrival_ticks = 0;
        let outcome = run_fleet(&config).unwrap();
        assert!(outcome.rejected > 0, "saturation must shed load");
        let violations = check_fleet_outcome(&outcome);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_preempting_migrating_heterogeneous_fleet_passes_every_invariant() {
        let outcome = run_fleet(&hetero_config(0xC0D)).unwrap();
        assert!(outcome.preempted() > 0, "pressure must trigger preemption");
        assert!(outcome.migrated() > 0, "the speed gap must trigger migration");
        let violations = check_fleet_outcome(&outcome);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn replay_check_proves_bit_exact_reports() {
        let (first, second, divergence) = fleet_replay_check(&small_config(2, 0xC0D)).unwrap();
        assert_eq!(divergence, None, "fleet replay diverged");
        assert_eq!(first.fingerprint(), second.fingerprint());
        assert_eq!(first, second);
    }

    #[test]
    fn replay_check_stays_bit_exact_with_preemption_and_migration() {
        let (first, second, divergence) = fleet_replay_check(&hetero_config(0xC0D)).unwrap();
        assert_eq!(divergence, None, "heterogeneous fleet replay diverged");
        assert_eq!(first, second);
        assert!(first.migrated() > 0, "the replay gate must cover at least one migration");
        assert!(first.preempted() > 0, "the replay gate must cover at least one preemption");
    }

    #[test]
    fn a_tiered_burst_fleet_passes_every_invariant() {
        let outcome = run_fleet(&tiered_burst_config(0xC0D)).unwrap();
        assert!(outcome.demoted() > 0, "the burst must trigger live demotion");
        assert!(outcome.promoted() > 0, "the calm drain must trigger live promotion");
        let violations = check_fleet_outcome(&outcome);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn replay_check_stays_bit_exact_with_tiering() {
        let (first, second, divergence) = fleet_replay_check(&tiered_burst_config(0xC0D)).unwrap();
        assert_eq!(divergence, None, "tiered fleet replay diverged");
        assert_eq!(first, second);
        assert!(first.demoted() > 0, "the replay gate must cover at least one demotion");
        assert!(first.promoted() > 0, "the replay gate must cover at least one promotion");
    }

    #[test]
    fn batched_stepping_covers_every_matrix_shape() {
        // Every distinct session shape of the full 72-scenario sweep, as a
        // batched cohort vs its scalar twins.
        let violations = batch_shape_coverage_check(&MatrixConfig::full(), 2, 10).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn wallclock_equivalence_holds_across_thread_counts() {
        let (modeled, divergences) =
            wallclock_equivalence_check(&hetero_config(0xC0D), &[1, 2, 4]).unwrap();
        assert!(
            modeled.preempted() > 0 && modeled.migrated() > 0,
            "the check must stress the fleet"
        );
        for (threads, divergence) in divergences {
            assert_eq!(divergence, None, "report diverged at byte under {threads} threads");
        }
    }

    #[test]
    fn tiering_is_transparent_to_session_physics() {
        let (tiered, violations) = tier_transparency_check(&tiered_burst_config(0xC0D)).unwrap();
        assert!(tiered.demoted() > 0, "the check must exercise a real demotion");
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn migration_is_transparent_to_session_physics() {
        let (migrating, violations) = migration_transparency_check(&hetero_config(0xC0D)).unwrap();
        assert!(migrating.migrated() > 0, "the check must exercise a real migration");
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn different_seeds_produce_different_fingerprints() {
        let (a, _, _) = fleet_replay_check(&small_config(2, 1)).unwrap();
        let (b, _, _) = fleet_replay_check(&small_config(2, 2)).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// `outcome`'s last completed session: its id and the shard it retired on.
    fn last_retired(outcome: &FleetOutcome) -> (u64, usize) {
        let s = outcome.sessions.last().expect("the run completed a session");
        (s.id, s.shard)
    }

    /// Appends `kind` of `session` on `shard` to the end of the log.
    fn append(
        outcome: &mut FleetOutcome,
        kind: FleetEventKind,
        session: u64,
        shard: Option<usize>,
    ) {
        let tick = outcome.ticks_run;
        outcome.events.push(FleetEvent { tick, kind, session, shard });
    }

    #[test]
    fn doctored_outcomes_are_caught() {
        let clean = run_fleet(&small_config(2, 3)).unwrap();
        let (id, shard) = last_retired(&clean);

        let mut outcome = clean.clone();
        outcome.rejected_with_free_slot = 1;
        assert!(!check_fleet_outcome(&outcome).is_empty(), "free-slot rejection must be flagged");

        // Every count is a fold of the log: edit the log.
        let mut outcome = clean.clone();
        outcome.events.retain(|e| e.session != id);
        assert!(
            !check_fleet_outcome(&outcome).is_empty(),
            "an unplaced completion must be flagged"
        );

        let mut outcome = clean.clone();
        let unoffered = outcome.config.workload.sessions as u64;
        append(&mut outcome, FleetEventKind::Reject, unoffered, None);
        assert!(!check_fleet_outcome(&outcome).is_empty(), "an unoffered session must be flagged");

        let mut outcome = clean.clone();
        if let Some(s) = outcome.sessions.first_mut() {
            s.admitted_tick = s.arrived_tick + 10_000;
            s.completed_tick = s.admitted_tick + 1;
        }
        assert!(!check_fleet_outcome(&outcome).is_empty(), "starvation must be flagged");

        // A promotion where the session is walks clean, but this run has
        // tiering off.
        let mut outcome = clean.clone();
        append(&mut outcome, FleetEventKind::Promote, id, Some(shard));
        assert_eq!(outcome.log_violations(), Vec::<String>::new());
        assert!(
            check_fleet_outcome(&outcome).iter().any(|v| v.starts_with("retier ledger:")),
            "a promotion with tiering off must be flagged"
        );

        let mut outcome = run_fleet(&tiered_burst_config(0xC0D)).unwrap();
        let doctored = outcome
            .sessions
            .iter_mut()
            .find(|s| s.priority == Priority::Interactive)
            .expect("the burst workload has interactive sessions");
        doctored.tier = FidelityTier::Coarse;
        assert!(
            check_fleet_outcome(&outcome).iter().any(|v| v.starts_with("tier policy:")),
            "a coarse interactive session must be flagged"
        );
    }

    /// Asserts that the walk of `outcome`'s log flags `session` by name.
    fn assert_walk_names(outcome: &FleetOutcome, session: u64) {
        let violations = check_fleet_outcome(outcome);
        let named =
            violations.iter().any(|v| v.starts_with(&format!("conservation: session {session}:")));
        assert!(named, "the walk did not name session {session}: {violations:?}");
    }

    #[test]
    fn the_log_walk_names_the_session_of_each_doctored_event() {
        let hetero = run_fleet(&hetero_config(0xC0D)).unwrap();
        let tiered = run_fleet(&tiered_burst_config(0xC0D)).unwrap();
        assert_eq!(hetero.log_violations(), Vec::<String>::new());
        assert_eq!(tiered.log_violations(), Vec::<String>::new());
        let first = |outcome: &FleetOutcome, kind| {
            outcome.events.iter().position(|e| e.kind == kind).expect("the run made the move")
        };

        // A migration removed: the session retires where it was never landed.
        let mut outcome = hetero.clone();
        let dropped = outcome.events.remove(first(&hetero, FleetEventKind::Migrate));
        assert_walk_names(&outcome, dropped.session);

        // A preemption with no later placement: the session ends queued.
        let mut outcome = hetero.clone();
        let (id, shard) = last_retired(&hetero);
        append(&mut outcome, FleetEventKind::Preempt, id, Some(shard));
        assert_walk_names(&outcome, id);

        // A demotion on a shard the session is not on.
        let mut outcome = tiered.clone();
        let demote = &mut outcome.events[first(&tiered, FleetEventKind::Demote)];
        demote.shard = demote.shard.map(|s| (s + 1) % tiered.config.shards);
        let id = demote.session;
        assert_walk_names(&outcome, id);

        // A rejection of a session that completed.
        let mut outcome = tiered.clone();
        let (id, _) = last_retired(&tiered);
        append(&mut outcome, FleetEventKind::Reject, id, None);
        assert_walk_names(&outcome, id);
    }

    #[test]
    fn priority_inversions_are_caught() {
        let mut outcome = run_fleet(&small_config(2, 3)).unwrap();
        assert!(outcome.sessions.len() >= 2, "need two sessions to doctor an inversion");
        // Doctor a textbook inversion: an interactive session that arrived
        // before a batch session's placement, yet was placed after it.
        outcome.sessions[0].priority = Priority::Interactive;
        outcome.sessions[0].arrived_tick = 0;
        outcome.sessions[0].admitted_tick = 9;
        outcome.sessions[0].completed_tick = 12;
        outcome.sessions[1].priority = Priority::Batch;
        outcome.sessions[1].arrived_tick = 1;
        outcome.sessions[1].admitted_tick = 2;
        outcome.sessions[1].completed_tick = 11;
        let violations = check_fleet_outcome(&outcome);
        assert!(
            violations.iter().any(|v| v.starts_with("priority:")),
            "priority inversion must be flagged: {violations:?}"
        );
    }
}
