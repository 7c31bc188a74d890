//! The fleet executive: admit, place, batch-step and retire sessions across
//! a pool of (possibly heterogeneous) shards, deterministically.
//!
//! One fleet *tick* is the unit of serving time: arrivals due at the tick are
//! offered to the bounded admission queue (overflow is rejected —
//! backpressure), queued sessions are placed most-urgent-class-first onto the
//! least-loaded shards with free slots, and every shard then advances each of
//! its resident sessions by one batch of executive frames. Shards are
//! independent, so the stepping runs under the configured [`ExecutionMode`]:
//! sequentially on the caller's thread, or on the pool of
//! [`crate::executor::WallClockExecutor`] — the caller plus spawned workers,
//! and the only code that creates threads. Results are folded back in shard
//! order either way, which keeps
//! the outcome bit-identical across both modes and every thread count.
//!
//! Three optional mechanisms make the fleet heterogeneity- and
//! priority-aware:
//!
//! * **Speed-weighted placement** ([`PlacementPolicy::SpeedWeighted`]) weighs
//!   shards by their modeled per-tick cost, which each shard scales to its
//!   own CPU speed — one session costs a half-speed shard four times what it
//!   costs a double-speed shard every tick, so new work drifts toward fast
//!   machines until the rates balance.
//! * **Preemption** (`preemption: true`): when a more urgent arrival finds
//!   every slot taken, the least urgent resident is pushed back into the
//!   queue (its progress serialized as a [`crate::shard::PortableSession`])
//!   and resumed later by deterministic replay.
//! * **Live migration** (`migration: true`): between ticks the fleet may move
//!   one resident from the most backlogged shard to the least backlogged one
//!   with a free slot, when the move strictly improves the pair's makespan —
//!   replay cost included. The replayed frames are charged to the receiving
//!   shard's modeled time.
//!
//! Throughput and utilization are accounted in *modeled* time (the same
//! modeled CPU costs the cluster executive already records), so a fleet run
//! is a pure function of its configuration: same seed, same report, byte for
//! byte — preemption and migration included. Wall-clock timings are measured
//! beside that deterministic outcome, never inside it: [`run_fleet_timed`]
//! returns them as a separate [`WallClockStats`], so real elapsed time — the
//! one quantity that legitimately varies run to run — can be reported without
//! ever touching the fingerprinted output.

use std::sync::Arc;
use std::time::Duration;

use cod_cb::CbError;
use cod_net::Micros;
use cod_trace::{DetTrace, ObsConfig, WallTrace, DRIVER_LANE};
use crane_sim::FidelityTier;

use crate::admission::{AdmissionConfig, AdmissionState};
use crate::executor::{TickResult, WallClockExecutor, WallStopwatch};
use crate::shard::{Completed, PortableSession, Shard, ShardConfig, ShardStats};
use crate::workload::{coarse_eligible, generate, initial_tier, Priority, WorkloadConfig};

/// How shard batches are executed each tick.
///
/// The mode decides *who* steps the shards and how real time is spent — never
/// what the shards compute or the order their results are folded in, so the
/// [`FleetOutcome`] (and therefore `FLEET_cod.json`) is bit-identical across
/// both modes and every thread count for the same configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Step shards sequentially on the caller's thread. The pure modeled-time
    /// mode: zero threading overhead, the baseline the wall-clock mode must
    /// reproduce bit for bit.
    #[default]
    Modeled,
    /// The wall-clock engine: `threads` stepping threads — the caller plus
    /// `threads - 1` workers spawned once per run — taking shard-batch tasks
    /// off one mutex-guarded queue; spawned workers park between ticks. The
    /// mode to measure real sessions/sec under.
    WallClock {
        /// Stepping threads, the caller included (clamped to at least one).
        threads: usize,
    },
}

impl ExecutionMode {
    /// Threads this mode steps shards with, the caller included, whatever
    /// the number of shards.
    pub fn threads_for(&self, _shards: usize) -> usize {
        match *self {
            ExecutionMode::Modeled => 1,
            ExecutionMode::WallClock { threads } => threads.max(1),
        }
    }
}

/// How the fleet weighs shards when placing a queued session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Pick the shard with the fewest resident sessions (the naive policy a
    /// homogeneous fleet gets away with).
    LeastResident,
    /// Pick the shard with the smallest modeled next-tick cost, which each
    /// shard scales to its own CPU speed (see [`Shard::next_tick_cost`]).
    #[default]
    SpeedWeighted,
}

/// Configuration of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of shards.
    pub shards: usize,
    /// Per-shard sizing and pacing.
    pub shard: ShardConfig,
    /// Relative CPU speed per shard (1.0 = the reference desktop PC). An
    /// empty vector means a homogeneous fleet of reference machines; missing
    /// tail entries default to 1.0.
    pub shard_speeds: Vec<f64>,
    /// How queued sessions are matched to shards.
    pub placement: PlacementPolicy,
    /// Whether urgent arrivals may preempt less urgent residents.
    pub preemption: bool,
    /// Whether the fleet may migrate residents between shards to rebalance.
    pub migration: bool,
    /// Bound on the admission queue.
    pub max_pending: usize,
    /// Whether the fleet serves fidelity tiers: Batch sessions are admitted
    /// on the Coarse tier, and under queue pressure coarse-eligible Full
    /// residents are demoted live (promoted back one per calm tick) — shed
    /// fidelity before shedding sessions, buy it back with spare capacity.
    /// Off, every session runs Full, exactly as before the tier split.
    pub tiering: bool,
    /// The session workload.
    pub workload: WorkloadConfig,
    /// How shard batches are executed (the outcome is identical under every
    /// mode; only wall-clock time differs).
    pub execution: ExecutionMode,
    /// What the run records ([`ObsConfig::Disabled`] by default — no hook
    /// point allocates or records). Never serialized into `FLEET_cod.json`:
    /// the report reads the config fields it needs explicitly, so arming
    /// tracing cannot perturb the fingerprinted output.
    pub obs: ObsConfig,
}

impl FleetConfig {
    /// The CI smoke configuration: 64 sessions over `shards` homogeneous
    /// shards.
    pub fn quick(shards: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            shards,
            shard: ShardConfig::default(),
            shard_speeds: Vec::new(),
            placement: PlacementPolicy::SpeedWeighted,
            preemption: false,
            migration: false,
            max_pending: 16,
            tiering: false,
            workload: WorkloadConfig::quick(seed),
            execution: ExecutionMode::default(),
            obs: ObsConfig::Disabled,
        }
    }

    /// The full configuration: 256 sessions over `shards` homogeneous shards.
    pub fn full(shards: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            max_pending: 32,
            workload: WorkloadConfig::full(seed),
            ..FleetConfig::quick(shards, seed)
        }
    }

    /// The heterogeneous CI gate configuration: one double-speed shard plus
    /// three half-speed shards serving the quick workload with priorities,
    /// preemption and migration all engaged.
    pub fn heterogeneous_quick(seed: u64) -> FleetConfig {
        FleetConfig {
            shards: 4,
            shard_speeds: vec![2.0, 0.5, 0.5, 0.5],
            preemption: true,
            migration: true,
            ..FleetConfig::quick(4, seed)
        }
    }

    /// The relative CPU speed of shard `i` (1.0 when not listed).
    pub fn speed_of(&self, i: usize) -> f64 {
        self.shard_speeds.get(i).copied().unwrap_or(1.0)
    }
}

/// What happened to one admitted session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Session id (arrival order).
    pub id: u64,
    /// Descriptive name.
    pub name: String,
    /// Frames the session ran.
    pub frames: usize,
    /// The session's priority class.
    pub priority: Priority,
    /// Tick the session arrived at.
    pub arrived_tick: u64,
    /// Tick the session was first placed at.
    pub admitted_tick: u64,
    /// Tick the session retired at.
    pub completed_tick: u64,
    /// Shard that hosted the session when it retired.
    pub shard: usize,
    /// Times the session was preempted back to the queue.
    pub preempted: u32,
    /// Times the session was migrated between shards.
    pub migrated: u32,
    /// Times the session was promoted to the Full tier.
    pub promoted: u32,
    /// Times the session was demoted to the Coarse tier.
    pub demoted: u32,
    /// The fidelity tier the session finished on.
    pub tier: FidelityTier,
    /// Final exam score.
    pub score: f64,
    /// Whether the exam was passed.
    pub passed: bool,
    /// Modeled cost the session charged its final shard.
    pub cost: Micros,
    /// FNV-1a fingerprint of the session's final telemetry digest — the
    /// physics-state witness determinism tests compare across execution
    /// modes and thread counts.
    pub telemetry: u64,
}

impl SessionOutcome {
    /// Arrival-to-retirement latency in fleet ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.completed_tick.saturating_sub(self.arrived_tick) + 1
    }
}

/// Everything a fleet run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The configuration that produced this outcome.
    pub config: FleetConfig,
    /// Fleet ticks executed until the last session drained.
    pub ticks_run: u64,
    /// Modeled serving time: the sum over ticks of the busiest shard's cost
    /// (shards run concurrently, so each tick costs its critical shard).
    pub elapsed_modeled: Micros,
    /// Arrivals offered.
    pub offered: u64,
    /// Placements onto a shard (re-placements of preempted sessions count
    /// again).
    pub admitted: u64,
    /// Sessions completed.
    pub completed: u64,
    /// Arrivals rejected by backpressure.
    pub rejected: u64,
    /// Residents pushed back to the queue by preemption.
    pub preempted: u64,
    /// Residents moved live between shards.
    pub migrated: u64,
    /// Residents promoted live to the Full tier.
    pub promoted: u64,
    /// Residents demoted live to the Coarse tier.
    pub demoted: u64,
    /// Rejections while a slot was free (must be zero).
    pub rejected_with_free_slot: u64,
    /// Largest admission-queue depth observed.
    pub peak_pending: usize,
    /// Per-session outcomes, in completion order.
    pub sessions: Vec<SessionOutcome>,
    /// Per-shard counters.
    pub shard_stats: Vec<ShardStats>,
}

/// The `p`-th percentile (0–100) of a sorted sample, by the same linear
/// interpolation between closest ranks that `cod_bench::measure::percentile`
/// uses — the two layers must agree on what "p95" means.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl FleetOutcome {
    /// Completed sessions per second of modeled serving time.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.elapsed_modeled.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// The `p`-th percentile (0–100) of session latency in fleet ticks,
    /// linearly interpolated between closest ranks — the same convention as
    /// `cod_bench::measure::percentile`, so `FLEET_cod.json` and
    /// `BENCH_cod.json` percentiles are comparable. Returns `0.0` when no
    /// session completed.
    pub fn latency_percentile_ticks(&self, p: f64) -> f64 {
        self.latency_percentile_ticks_for(None, p)
    }

    /// [`FleetOutcome::latency_percentile_ticks`] restricted to one priority
    /// class (`None` = all classes).
    pub fn latency_percentile_ticks_for(&self, class: Option<Priority>, p: f64) -> f64 {
        let mut latencies: Vec<f64> = self
            .sessions
            .iter()
            .filter(|s| class.map_or(true, |c| s.priority == c))
            .map(|s| s.latency_ticks() as f64)
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        percentile_sorted(&latencies, p)
    }

    /// Completed sessions of one priority class.
    pub fn completed_of_class(&self, class: Priority) -> usize {
        self.sessions.iter().filter(|s| s.priority == class).count()
    }

    /// Completed sessions that finished on one fidelity tier.
    pub fn completed_of_tier(&self, tier: FidelityTier) -> usize {
        self.sessions.iter().filter(|s| s.tier == tier).count()
    }

    /// [`FleetOutcome::latency_percentile_ticks`] restricted to sessions that
    /// finished on one fidelity tier.
    pub fn latency_percentile_ticks_for_tier(&self, tier: FidelityTier, p: f64) -> f64 {
        let mut latencies: Vec<f64> = self
            .sessions
            .iter()
            .filter(|s| s.tier == tier)
            .map(|s| s.latency_ticks() as f64)
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        percentile_sorted(&latencies, p)
    }

    /// Mean final score over sessions that finished on one fidelity tier, or
    /// `0.0` when none did.
    pub fn mean_score_of_tier(&self, tier: FidelityTier) -> f64 {
        let scores: Vec<f64> =
            self.sessions.iter().filter(|s| s.tier == tier).map(|s| s.score).collect();
        if scores.is_empty() {
            return 0.0;
        }
        scores.iter().sum::<f64>() / scores.len() as f64
    }

    /// Fraction of the modeled serving time shard `i` spent busy, or `0.0`
    /// for an out-of-range index.
    pub fn shard_utilization(&self, i: usize) -> f64 {
        let total = self.elapsed_modeled.as_secs_f64();
        match self.shard_stats.get(i) {
            Some(stats) if total > 0.0 => (stats.busy.as_secs_f64() / total).min(1.0),
            _ => 0.0,
        }
    }

    /// Mean final score over completed sessions.
    pub fn mean_score(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        self.sessions.iter().map(|s| s.score).sum::<f64>() / self.sessions.len() as f64
    }

    /// Fraction of completed sessions that passed the exam.
    pub fn pass_rate(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        self.sessions.iter().filter(|s| s.passed).count() as f64 / self.sessions.len() as f64
    }
}

/// One queued session: either a fresh arrival (no frames yet) or a preempted
/// resident awaiting resumption. `seq` keeps FIFO order within a priority
/// class; preempted sessions re-enter at the back of their class.
struct QueueEntry {
    portable: PortableSession,
    seq: u64,
    was_admitted: bool,
}

/// Index of the queue entry to place next: most urgent class first, FIFO
/// (lowest `seq`) within the class.
fn next_queued(queue: &[QueueEntry]) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .max_by_key(|(_, e)| (e.portable.spec.priority, std::cmp::Reverse(e.seq)))
        .map(|(i, _)| i)
}

/// Wall-clock timings of one fleet run, measured with [`WallStopwatch`] and
/// reported *beside* the deterministic [`FleetOutcome`] — never inside it.
/// The outcome derives `PartialEq` and is compared byte for byte across
/// execution modes; real elapsed time legitimately varies run to run, so it
/// lives here, excluded from every fingerprint by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallClockStats {
    /// Real time of the whole run: admission, placement, stepping, folding.
    pub wall: Duration,
    /// Real time spent inside shard batch stepping (the part the execution
    /// mode parallelizes).
    pub stepping_wall: Duration,
    /// Threads the execution mode stepped shards with, the caller included.
    pub threads: usize,
    /// Fleet ticks executed.
    pub ticks: u64,
    /// One zero per worker: the pool has a single queue and nothing to steal
    /// from. Kept only because `benchmark/` reads it. Empty for the modeled
    /// mode.
    pub worker_steals: Vec<u64>,
    /// Per-thread count of times the thread found nothing ready and parked;
    /// entry 0 is the driver, which parks only to wait for shards still out
    /// on a worker. Empty for the modeled mode; diagnostic only, never
    /// serialized into `FLEET_cod.json`.
    pub worker_idle_spins: Vec<u64>,
    /// Per-thread count of shard-batch tasks run, the driver's at entry 0.
    /// Empty for the modeled mode; diagnostic only, never serialized.
    pub worker_tasks: Vec<u64>,
}

impl WallClockStats {
    /// Completed sessions per second of real time — the wall-clock
    /// counterpart of [`FleetOutcome::sessions_per_sec`].
    pub fn sessions_per_wall_sec(&self, completed: u64) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            completed as f64 / secs
        }
    }
}

/// Runs a whole fleet to drain: all arrivals offered, every admitted session
/// completed. A pure function of the configuration — running it twice yields
/// identical [`FleetOutcome`]s.
///
/// # Errors
///
/// Returns the first hard error raised by any session's executive.
pub fn run_fleet(config: &FleetConfig) -> Result<FleetOutcome, CbError> {
    run_fleet_timed(config).map(|(outcome, _)| outcome)
}

/// [`run_fleet`] plus the run's wall-clock timings. The outcome is the same
/// pure function of the configuration; the [`WallClockStats`] are the only
/// part that varies run to run, which is exactly why they are returned as a
/// separate value instead of a field of the outcome.
///
/// # Errors
///
/// Returns the first hard error raised by any session's executive.
pub fn run_fleet_timed(config: &FleetConfig) -> Result<(FleetOutcome, WallClockStats), CbError> {
    run_fleet_traced(config).map(|(outcome, stats, _)| (outcome, stats))
}

/// The observability artifacts of one traced fleet run — what
/// [`FleetConfig::obs`] armed, `None` for each disarmed sink.
pub struct TraceArtifacts {
    /// The deterministic sink: counters, histograms and scheduling events
    /// keyed on modeled time and seeded identifiers only. Drain it with
    /// [`DetTrace::to_report_json`] into `OBS_cod.json` — byte-identical per
    /// seed under every execution mode.
    pub det: Option<DetTrace>,
    /// The wall-clock sink: real-time spans from the executor workers, the
    /// shard hot loops and the fleet driver. Export it with
    /// [`WallTrace::to_chrome_json`] for Perfetto.
    pub wall: Option<Arc<WallTrace>>,
}

/// [`run_fleet_timed`] plus the observability artifacts requested by
/// [`FleetConfig::obs`]. With tracing disabled (the default) both artifacts
/// are `None` and the run is exactly [`run_fleet_timed`].
///
/// # Errors
///
/// Returns the first hard error raised by any session's executive.
pub fn run_fleet_traced(
    config: &FleetConfig,
) -> Result<(FleetOutcome, WallClockStats, TraceArtifacts), CbError> {
    let run_started = WallStopwatch::start();
    let mut stepping_wall = Duration::ZERO;
    let mut det = config.obs.deterministic_enabled().then(DetTrace::new);
    // A wall-clock run gets a pool (and a trace lane per worker); a modeled
    // run steps in-thread.
    let pool_threads = match config.execution {
        ExecutionMode::WallClock { threads } => Some(threads.max(1)),
        ExecutionMode::Modeled => None,
    };
    let wall =
        config.obs.wall_enabled().then(|| Arc::new(WallTrace::new(pool_threads.unwrap_or(0))));
    let executor = pool_threads.map(|threads| WallClockExecutor::new(threads, wall.clone()));
    let arrivals = generate(&config.workload);
    let mut admission = AdmissionState::new(AdmissionConfig {
        shards: config.shards,
        slots_per_shard: config.shard.slots,
        max_pending: config.max_pending,
    });
    let mut shards: Vec<Shard> =
        (0..config.shards).map(|i| Shard::new(i, config.shard, config.speed_of(i))).collect();
    if config.obs.enabled() {
        for shard in shards.iter_mut() {
            shard.enable_trace(config.obs.deterministic_enabled(), wall.clone());
        }
    }
    let mut queue: Vec<QueueEntry> = Vec::new();
    let mut next_seq = 0u64;
    let mut sessions: Vec<SessionOutcome> = Vec::with_capacity(arrivals.len());
    let mut next_arrival = 0usize;
    let mut elapsed = Micros::ZERO;
    let mut tick = 0u64;

    let backlog_of = |shards: &[Shard], placement: PlacementPolicy| -> Vec<Micros> {
        match placement {
            PlacementPolicy::LeastResident => Vec::new(),
            PlacementPolicy::SpeedWeighted => shards.iter().map(Shard::placement_cost).collect(),
        }
    };

    // Places the next queued session (most urgent class first), weighted by
    // each shard's modeled backlog under the configured policy. Replay cost
    // of resumed sessions is charged to `resume_busy`. Returns false when the
    // queue is empty or every slot is taken.
    let place_one = |admission: &mut AdmissionState,
                     shards: &mut Vec<Shard>,
                     queue: &mut Vec<QueueEntry>,
                     resume_busy: &mut [Micros],
                     det: &mut Option<DetTrace>,
                     tick: u64|
     -> Result<bool, CbError> {
        let backlog = backlog_of(shards, config.placement);
        let Some((target, class)) = admission.place_weighted(&backlog) else { return Ok(false) };
        let index = next_queued(queue).expect("admission counted a queued session");
        let mut entry = queue.swap_remove(index);
        debug_assert_eq!(entry.portable.spec.priority, class, "queue and ledger disagree");
        if !entry.was_admitted {
            entry.portable.admitted_tick = tick;
        }
        let session = entry.portable.spec.id;
        let replay = shards[target].resume(entry.portable)?;
        resume_busy[target] += replay;
        if let Some(d) = det.as_mut() {
            d.event(tick, "place", session, target as i64);
        }
        Ok(true)
    };

    loop {
        let mut resume_busy = vec![Micros::ZERO; config.shards];
        let tick_start = wall.as_ref().map(|w| w.now_us());

        // 1. Offer the arrivals due at this tick to the bounded queue. A full
        //    queue first drains into any free slot, so an arrival is only
        //    ever rejected when the queue AND every slot are taken — never
        //    while capacity sits idle.
        while next_arrival < arrivals.len() && arrivals[next_arrival].tick <= tick {
            while admission.pending() >= config.max_pending
                && place_one(
                    &mut admission,
                    &mut shards,
                    &mut queue,
                    &mut resume_busy,
                    &mut det,
                    tick,
                )?
            {}
            let arrival = &arrivals[next_arrival];
            if admission.offer(arrival.spec.priority) {
                let mut spec = arrival.spec.clone();
                if config.tiering {
                    // Tiering is an admission policy, not a workload property:
                    // the same generated arrival list drives both run modes.
                    spec.config.tier = initial_tier(spec.priority);
                }
                queue.push(QueueEntry {
                    portable: PortableSession {
                        spec,
                        frames_done: 0,
                        arrived_tick: tick,
                        admitted_tick: tick,
                        preempted: 0,
                        migrated: 0,
                        promoted: 0,
                        demoted: 0,
                    },
                    seq: next_seq,
                    was_admitted: false,
                });
                next_seq += 1;
            } else if let Some(d) = det.as_mut() {
                d.event(tick, "reject", arrival.spec.id, -1);
            }
            next_arrival += 1;
        }

        // 2. Place queued sessions, most urgent class first; with preemption
        //    enabled, an urgent session that finds every slot taken evicts
        //    the least urgent resident (which re-queues with its progress and
        //    resumes later by replay).
        loop {
            while place_one(
                &mut admission,
                &mut shards,
                &mut queue,
                &mut resume_busy,
                &mut det,
                tick,
            )? {}
            if !config.preemption || !admission.can_preempt() {
                break;
            }
            let Some(urgent) = admission.highest_pending() else { break };
            // Victim: the least urgent resident fleet-wide; ties prefer the
            // least progressed (cheapest replay), then the lowest id.
            let victim = shards
                .iter()
                .flat_map(|s| s.residents_overview().into_iter().map(move |v| (s.id, v)))
                .min_by_key(|(sid, v)| (v.priority, v.frames_done, v.id, *sid));
            let Some((shard_id, view)) = victim else { break };
            if view.priority >= urgent {
                break;
            }
            let portable = shards[shard_id].extract(view.index, false);
            admission.preempt(shard_id, portable.spec.priority);
            if let Some(d) = det.as_mut() {
                d.event(tick, "preempt", portable.spec.id, shard_id as i64);
            }
            queue.push(QueueEntry { portable, seq: next_seq, was_admitted: true });
            next_seq += 1;
        }

        // 3. Rebalance: at most one live migration per tick, from the most
        //    backlogged shard to the least backlogged one with a free slot,
        //    and only when the move strictly improves the pair's makespan
        //    with the replay cost accounted.
        if config.migration {
            migrate_one(config, &mut admission, &mut shards, &mut resume_busy, &mut det, tick)?;
        }

        // 3½. Retier: under queue pressure every coarse-eligible Full
        //     resident sheds fidelity (freeing modeled capacity for the
        //     backlog); on a calm tick one demoted session buys its full
        //     rack back. Either direction is an in-place deterministic
        //     replay, charged like a migration's.
        if config.tiering {
            retier_tick(&admission, &mut shards, &mut resume_busy, &mut det, tick)?;
        }

        // 4. Batch-step every shard under the configured execution mode.
        let step_started = WallStopwatch::start();
        let step_start_us = wall.as_ref().map(|w| w.now_us());
        let results = step_all(&mut shards, executor.as_ref())?;
        if let (Some(w), Some(start)) = (wall.as_ref(), step_start_us) {
            w.complete(DRIVER_LANE, "step-phase".to_string(), "step", start);
        }
        stepping_wall += step_started.read();

        // 5. Fold the results back in shard order (determinism) and account
        //    the tick at the critical shard's cost, replays included.
        let mut tick_makespan = Micros::ZERO;
        for (shard_id, (completed, busy)) in results.into_iter().enumerate() {
            tick_makespan = tick_makespan.max(busy + resume_busy[shard_id]);
            for done in completed {
                admission.complete(shard_id);
                sessions.push(session_outcome(done, tick, shard_id));
                if let Some(d) = det.as_mut() {
                    let latest = sessions.last().expect("just pushed");
                    d.record("session_latency_ticks", latest.latency_ticks());
                }
            }
        }
        if let Some(d) = det.as_mut() {
            d.record("tick_makespan_us", tick_makespan.0);
        }
        if let (Some(w), Some(start)) = (wall.as_ref(), tick_start) {
            w.complete(DRIVER_LANE, format!("tick{tick}"), "tick", start);
        }
        elapsed += tick_makespan;
        tick += 1;

        let drained = next_arrival == arrivals.len()
            && queue.is_empty()
            && shards.iter().all(|s| s.resident_count() == 0);
        if drained {
            break;
        }
        assert!(
            tick < arrivals.last().map(|a| a.tick).unwrap_or(0) + 1_000_000,
            "fleet failed to drain: a session is starving"
        );
    }

    debug_assert!(admission.violations().is_empty(), "{:?}", admission.violations());
    let promoted = shards.iter().map(|s| s.stats.promoted).sum();
    let demoted = shards.iter().map(|s| s.stats.demoted).sum();
    if let Some(d) = det.as_mut() {
        // The run-level aggregates, then the per-shard frame counters folded
        // in shard-id order — every input is modeled/seeded, so the drained
        // report is a pure function of the configuration.
        d.set("ticks_run", tick);
        d.set("offered", admission.offered);
        d.set("admitted", admission.admitted);
        d.set("completed", admission.completed);
        d.set("rejected", admission.rejected);
        d.set("preempted", admission.preempted);
        d.set("migrated", admission.migrated);
        d.set("promoted", promoted);
        d.set("demoted", demoted);
        for shard in &shards {
            shard.fold_det_into(d);
        }
    }
    let stats = WallClockStats {
        wall: run_started.read(),
        stepping_wall,
        threads: config.execution.threads_for(config.shards),
        ticks: tick,
        worker_steals: executor.as_ref().map(|e| vec![0; e.threads()]).unwrap_or_default(),
        worker_idle_spins: executor
            .as_ref()
            .map(WallClockExecutor::worker_idle_spins)
            .unwrap_or_default(),
        worker_tasks: executor.as_ref().map(WallClockExecutor::worker_tasks).unwrap_or_default(),
    };
    let outcome = FleetOutcome {
        config: config.clone(),
        ticks_run: tick,
        elapsed_modeled: elapsed,
        offered: admission.offered,
        admitted: admission.admitted,
        completed: admission.completed,
        rejected: admission.rejected,
        preempted: admission.preempted,
        migrated: admission.migrated,
        promoted,
        demoted,
        rejected_with_free_slot: admission.rejected_with_free_slot,
        peak_pending: admission.peak_pending,
        sessions,
        shard_stats: shards.into_iter().map(|s| s.stats).collect(),
    };
    Ok((outcome, stats, TraceArtifacts { det, wall }))
}

/// The per-tick retier policy of a tiering fleet: shed fidelity before
/// shedding sessions, buy it back with spare capacity.
///
/// * **Pressure** (admission queue non-empty): every Full resident whose
///   class tolerates the Coarse tier is demoted this tick. Demotions are
///   cheapest exactly when pressure hits — fresh placements have few frames
///   to replay — and the freed modeled capacity drains the queue sooner.
/// * **Calm** (queue empty): one demoted session per tick is promoted back
///   to its Full home tier, cheapest replay first. Batch sessions are
///   admitted Coarse and stay there; only classes whose
///   [`initial_tier`] is Full are restored.
fn retier_tick(
    admission: &AdmissionState,
    shards: &mut [Shard],
    resume_busy: &mut [Micros],
    det: &mut Option<DetTrace>,
    tick: u64,
) -> Result<(), CbError> {
    if admission.pending() > 0 {
        for shard in shards.iter_mut() {
            loop {
                let target = shard
                    .residents_overview()
                    .into_iter()
                    .filter(|v| v.tier == FidelityTier::Full && coarse_eligible(v.priority))
                    .min_by_key(|v| (v.frames_done, v.id));
                let Some(view) = target else { break };
                let cost = shard.retier(view.index, FidelityTier::Coarse)?;
                resume_busy[shard.id] += cost;
                if let Some(d) = det.as_mut() {
                    d.event(tick, "demote", view.id, shard.id as i64);
                }
            }
        }
    } else {
        // Promotion pays a full-fidelity replay of everything the session
        // has run so far, so it is only worth buying while a meaningful
        // share of the session is still ahead: a near-finished straggler
        // would charge a session-sized replay for a handful of Full frames.
        let candidate = shards
            .iter()
            .flat_map(|s| s.residents_overview().into_iter().map(move |v| (s.id, v)))
            .filter(|(_, v)| {
                v.tier == FidelityTier::Coarse
                    && initial_tier(v.priority) == FidelityTier::Full
                    && v.frames_done <= 2 * v.remaining_frames
            })
            .min_by_key(|(sid, v)| (v.frames_done, v.id, *sid));
        if let Some((sid, view)) = candidate {
            let cost = shards[sid].retier(view.index, FidelityTier::Full)?;
            resume_busy[sid] += cost;
            if let Some(d) = det.as_mut() {
                d.event(tick, "promote", view.id, sid as i64);
            }
        }
    }
    Ok(())
}

/// Performs at most one strictly-improving migration: donor = most
/// backlogged shard, receiver = least backlogged shard with a free slot,
/// candidate = the donor's least progressed resident (cheapest replay).
fn migrate_one(
    config: &FleetConfig,
    admission: &mut AdmissionState,
    shards: &mut [Shard],
    resume_busy: &mut [Micros],
    det: &mut Option<DetTrace>,
    tick: u64,
) -> Result<(), CbError> {
    let backlog: Vec<Micros> = shards.iter().map(Shard::backlog_cost).collect();
    let donor = (0..shards.len())
        .filter(|i| shards[*i].resident_count() > 0)
        .max_by_key(|i| (backlog[*i], std::cmp::Reverse(*i)));
    let receiver =
        (0..shards.len()).filter(|i| shards[*i].free_slots() > 0).min_by_key(|i| (backlog[*i], *i));
    let (Some(donor), Some(receiver)) = (donor, receiver) else { return Ok(()) };
    if donor == receiver {
        return Ok(());
    }
    let Some(view) =
        shards[donor].residents_overview().into_iter().min_by_key(|v| (v.frames_done, v.id))
    else {
        return Ok(());
    };
    // The donor-local per-frame cost, rescaled to the receiver's machine.
    let per_frame_receiver = Micros(
        (view.per_frame.0 as f64 * config.speed_of(donor) / config.speed_of(receiver)).round()
            as u64,
    );
    let replay = Micros(per_frame_receiver.0.saturating_mul(view.frames_done as u64));
    let remaining = Micros(per_frame_receiver.0.saturating_mul(view.remaining_frames as u64));
    let receiver_after =
        Micros(backlog[receiver].0.saturating_add(replay.0).saturating_add(remaining.0));
    if receiver_after >= backlog[donor] {
        return Ok(());
    }
    let portable = shards[donor].extract(view.index, true);
    admission.migrate(donor, receiver);
    shards[receiver].note_migrated_in();
    if let Some(d) = det.as_mut() {
        d.event(tick, "migrate", portable.spec.id, receiver as i64);
    }
    let cost = shards[receiver].resume(portable)?;
    resume_busy[receiver] += cost;
    Ok(())
}

fn session_outcome(done: Completed, tick: u64, shard: usize) -> SessionOutcome {
    SessionOutcome {
        id: done.id,
        name: done.name,
        frames: done.frames,
        priority: done.priority,
        arrived_tick: done.arrived_tick,
        admitted_tick: done.admitted_tick,
        completed_tick: tick,
        shard,
        preempted: done.preempted,
        migrated: done.migrated,
        promoted: done.promoted,
        demoted: done.demoted,
        tier: done.tier,
        score: done.report.score,
        passed: done.report.passed,
        cost: done.cost,
        telemetry: done.telemetry,
    }
}

/// Steps every shard once: across the executor pool when the run carries
/// an executor, else sequentially on the caller's thread. Results come back in
/// shard order either way.
fn step_all(
    shards: &mut Vec<Shard>,
    executor: Option<&WallClockExecutor>,
) -> Result<Vec<TickResult>, CbError> {
    match executor {
        Some(executor) => executor.step_shards(shards),
        None => shards.iter_mut().map(Shard::step_batch).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(shards: usize, seed: u64) -> FleetConfig {
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
            max_pending: 4,
            tiering: false,
            workload: WorkloadConfig {
                sessions: 6,
                seed,
                base_frames: 16,
                mean_interarrival_ticks: 1,
            },
            execution: ExecutionMode::Modeled,
            obs: ObsConfig::Disabled,
        }
    }

    #[test]
    fn fleet_drains_and_conserves_sessions() {
        let outcome = run_fleet(&tiny_config(2, 0xC0D)).unwrap();
        assert_eq!(outcome.offered, 6);
        assert_eq!(outcome.offered, outcome.completed + outcome.rejected);
        assert_eq!(outcome.sessions.len(), outcome.completed as usize);
        assert_eq!(outcome.rejected_with_free_slot, 0);
        assert!(outcome.elapsed_modeled > Micros::ZERO);
        assert!(outcome.sessions_per_sec() > 0.0);
        for s in &outcome.sessions {
            assert!(s.arrived_tick <= s.admitted_tick);
            assert!(s.admitted_tick <= s.completed_tick);
            assert!(s.frames > 0);
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let config = tiny_config(2, 42);
        let a = run_fleet(&config).unwrap();
        let b = run_fleet(&config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_execution_mode_reproduces_the_modeled_outcome() {
        let mut config = tiny_config(3, 17);
        let modeled = run_fleet(&config).unwrap();
        let modes = [
            ExecutionMode::WallClock { threads: 1 },
            ExecutionMode::WallClock { threads: 2 },
            ExecutionMode::WallClock { threads: 3 },
            ExecutionMode::WallClock { threads: 4 },
        ];
        for mode in modes {
            config.execution = mode;
            let run = run_fleet(&config).unwrap();
            // The configs differ only in the execution mode; everything the
            // mode could possibly perturb must be identical.
            assert_eq!(modeled.sessions, run.sessions, "sessions diverged under {mode:?}");
            assert_eq!(modeled.elapsed_modeled, run.elapsed_modeled);
            assert_eq!(modeled.shard_stats, run.shard_stats);
        }
    }

    #[test]
    fn timed_runs_report_wall_clock_beside_the_outcome() {
        let mut config = tiny_config(2, 17);
        config.execution = ExecutionMode::WallClock { threads: 2 };
        let (outcome, stats) = run_fleet_timed(&config).unwrap();
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.ticks, outcome.ticks_run);
        assert!(stats.wall > Duration::ZERO, "a drained fleet took real time");
        assert!(stats.stepping_wall <= stats.wall, "stepping is a slice of the whole run");
        assert!(stats.sessions_per_wall_sec(outcome.completed) > 0.0);
        // The timings live beside the outcome, never in it: the outcome of a
        // timed run equals the outcome of an untimed one, field for field.
        assert_eq!(outcome, run_fleet(&config).unwrap());
    }

    #[test]
    fn step_all_surfaces_an_executor_worker_panic() {
        // A worker panic must abort the tick with the failed-join message,
        // not hang the driver on the result channel or vanish.
        let mut shards: Vec<Shard> =
            (0..2).map(|i| Shard::new(i, ShardConfig::default(), 1.0)).collect();
        shards[1].poison_for_test = true;
        let executor = WallClockExecutor::new(2, None);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            step_all(&mut shards, Some(&executor))
        }))
        .expect_err("a poisoned shard must panic the tick");
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("shard thread panicked"), "wrong panic: {message:?}");
    }

    #[test]
    fn more_shards_raise_modeled_throughput() {
        let one = run_fleet(&tiny_config(1, 9)).unwrap();
        let four = run_fleet(&tiny_config(4, 9)).unwrap();
        assert_eq!(one.completed, four.completed, "same workload must complete either way");
        assert!(
            four.sessions_per_sec() > one.sessions_per_sec() * 1.5,
            "4 shards {:.2}/s vs 1 shard {:.2}/s",
            four.sessions_per_sec(),
            one.sessions_per_sec()
        );
    }

    #[test]
    fn saturated_fleet_rejects_by_backpressure() {
        let mut config = tiny_config(1, 3);
        config.shard.slots = 1;
        config.max_pending = 1;
        config.workload.sessions = 8;
        config.workload.mean_interarrival_ticks = 0;
        let outcome = run_fleet(&config).unwrap();
        assert!(outcome.rejected > 0, "an overwhelmed fleet must shed load");
        assert_eq!(outcome.rejected_with_free_slot, 0);
        assert_eq!(outcome.offered, outcome.completed + outcome.rejected);
    }

    #[test]
    fn latency_percentiles_interpolate_like_cod_bench() {
        let mut outcome = run_fleet(&tiny_config(2, 0xC0D)).unwrap();
        // Doctor a known latency distribution: 1, 2, 3, 4 ticks.
        outcome.sessions.truncate(4);
        for (i, s) in outcome.sessions.iter_mut().enumerate() {
            s.arrived_tick = 0;
            s.completed_tick = i as u64; // latency = completed - arrived + 1
        }
        assert_eq!(outcome.latency_percentile_ticks(0.0), 1.0);
        assert_eq!(outcome.latency_percentile_ticks(100.0), 4.0);
        // p50 over [1, 2, 3, 4]: rank 1.5 -> 2.5, the interpolated median
        // (`.round()` used to report 3).
        assert_eq!(outcome.latency_percentile_ticks(50.0), 2.5);
        outcome.sessions.clear();
        assert_eq!(outcome.latency_percentile_ticks(50.0), 0.0, "no sessions: percentile is 0");
    }

    #[test]
    fn shard_utilization_is_zero_out_of_range() {
        let outcome = run_fleet(&tiny_config(2, 0xC0D)).unwrap();
        assert!(outcome.shard_utilization(0) > 0.0);
        // Regression: this indexed `shard_stats[i]` unchecked and panicked.
        assert_eq!(outcome.shard_utilization(99), 0.0);
    }

    #[test]
    fn heterogeneous_speed_weighted_placement_beats_least_resident() {
        let mut config = tiny_config(4, 0xC0D);
        config.shard =
            ShardConfig { slots: 4, batch_frames: 8, pool_per_shape: 2, ..ShardConfig::default() };
        config.max_pending = 16;
        config.workload.sessions = 16;
        config.workload.base_frames = 24;
        config.workload.mean_interarrival_ticks = 1;
        config.shard_speeds = vec![2.0, 0.5, 0.5, 0.5];
        config.placement = PlacementPolicy::LeastResident;
        let naive = run_fleet(&config).unwrap();
        config.placement = PlacementPolicy::SpeedWeighted;
        let weighted = run_fleet(&config).unwrap();
        assert_eq!(naive.completed, weighted.completed);
        assert!(
            weighted.sessions_per_sec() > naive.sessions_per_sec(),
            "speed-weighted {:.2}/s must beat residency-only {:.2}/s on a 1x2.0 + 3x0.5 fleet",
            weighted.sessions_per_sec(),
            naive.sessions_per_sec()
        );
        // The fast shard must attract the bulk of the work.
        let fast = weighted.shard_stats[0].sessions_completed;
        let slow: u64 = weighted.shard_stats[1..].iter().map(|s| s.sessions_completed).sum();
        assert!(fast >= slow, "fast shard served {fast} vs {slow} across the slow three");
    }

    #[test]
    fn preemption_favors_interactive_latency_and_conserves_sessions() {
        let mut config = tiny_config(1, 1);
        config.shard.slots = 1;
        config.shard.batch_frames = 4;
        config.max_pending = 8;
        config.workload.sessions = 8;
        // Paced arrivals: preemption only triggers when a more urgent
        // session arrives *after* a less urgent one was already placed.
        config.workload.mean_interarrival_ticks = 1;
        let fifo = run_fleet(&config).unwrap();
        config.preemption = true;
        let preempting = run_fleet(&config).unwrap();
        assert_eq!(fifo.completed + fifo.rejected, fifo.offered);
        assert_eq!(preempting.completed + preempting.rejected, preempting.offered);
        assert!(preempting.preempted > 0, "a saturated single slot must preempt");
        // Every preemption is re-accounted: placements = completions + preemptions.
        assert_eq!(preempting.admitted, preempting.completed + preempting.preempted);
        let sum: u32 = preempting.sessions.iter().map(|s| s.preempted).sum();
        assert_eq!(u64::from(sum), preempting.preempted);
        // Interactive latency must not get worse than the FIFO run's.
        let p95 =
            |o: &FleetOutcome| o.latency_percentile_ticks_for(Some(Priority::Interactive), 95.0);
        assert!(
            p95(&preempting) <= p95(&fifo),
            "interactive p95 {} vs FIFO {}",
            p95(&preempting),
            p95(&fifo)
        );
    }

    #[test]
    fn migration_rebalances_without_changing_session_results() {
        let mut config = tiny_config(2, 0x517E);
        config.workload.sessions = 8;
        config.workload.base_frames = 32;
        config.workload.mean_interarrival_ticks = 1;
        config.max_pending = 8;
        config.shard_speeds = vec![2.0, 0.5];
        let pinned = run_fleet(&config).unwrap();
        config.migration = true;
        let migrating = run_fleet(&config).unwrap();
        assert!(migrating.migrated > 0, "a 4x speed gap must trigger at least one migration");
        let sum: u32 = migrating.sessions.iter().map(|s| s.migrated).sum();
        assert_eq!(u64::from(sum), migrating.migrated);
        assert_eq!(pinned.completed, migrating.completed);
        // Physics is placement-independent: same scores either way.
        for s in &migrating.sessions {
            let twin = pinned.sessions.iter().find(|p| p.id == s.id).expect("same population");
            assert_eq!(twin.score, s.score, "migration changed session {}'s score", s.id);
            assert_eq!(twin.passed, s.passed);
            assert_eq!(twin.frames, s.frames);
        }
    }

    fn burst_config(seed: u64) -> FleetConfig {
        let mut config = tiny_config(2, seed);
        config.workload.sessions = 12;
        config.workload.mean_interarrival_ticks = 0; // burst: pressure, then a calm drain
        config.max_pending = 12;
        config
    }

    #[test]
    fn tiered_fleet_demotes_under_pressure_and_multiplies_throughput() {
        let mut config = burst_config(0xC0D);
        let all_full = run_fleet(&config).unwrap();
        config.tiering = true;
        let tiered = run_fleet(&config).unwrap();
        // Tick-granularity dynamics are tier-independent: the same sessions
        // complete, only the modeled serving time shrinks.
        assert_eq!(all_full.completed, tiered.completed);
        assert_eq!(all_full.rejected, tiered.rejected);
        assert!(tiered.demoted > 0, "a bursty queue must demote residents");
        assert!(
            tiered.sessions_per_sec() > all_full.sessions_per_sec(),
            "tiered {:.2}/s must beat all-Full {:.2}/s",
            tiered.sessions_per_sec(),
            all_full.sessions_per_sec()
        );
        // Promotion/demotion ledgers: per-session sums equal fleet totals
        // equal per-shard sums.
        let psum: u32 = tiered.sessions.iter().map(|s| s.promoted).sum();
        let dsum: u32 = tiered.sessions.iter().map(|s| s.demoted).sum();
        assert_eq!(u64::from(psum), tiered.promoted);
        assert_eq!(u64::from(dsum), tiered.demoted);
        assert_eq!(tiered.promoted, tiered.shard_stats.iter().map(|s| s.promoted).sum::<u64>());
        assert_eq!(tiered.demoted, tiered.shard_stats.iter().map(|s| s.demoted).sum::<u64>());
        for s in &tiered.sessions {
            // Interactive sessions never leave the full rack; Batch is
            // admitted Coarse and never promoted.
            if s.priority == Priority::Interactive {
                assert_eq!((s.tier, s.promoted, s.demoted), (FidelityTier::Full, 0, 0));
            }
            if s.priority == Priority::Batch {
                assert_eq!((s.tier, s.promoted), (FidelityTier::Coarse, 0));
            }
        }
        assert!(tiered.completed_of_tier(FidelityTier::Coarse) > 0);
    }

    #[test]
    fn tiering_is_transparent_to_untouched_sessions_and_deterministic() {
        let mut config = burst_config(7);
        config.tiering = true;
        let a = run_fleet(&config).unwrap();
        let b = run_fleet(&config).unwrap();
        assert_eq!(a, b, "a tiering run must stay a pure function of its config");
        config.tiering = false;
        let full = run_fleet(&config).unwrap();
        for s in &a.sessions {
            let twin = full.sessions.iter().find(|f| f.id == s.id).expect("same population");
            if s.tier == FidelityTier::Full {
                // Finishing on Full means the last (re)build replayed every
                // frame on the full rack — bit-identical to the all-Full run
                // even for sessions that spent time demoted in between.
                assert_eq!(twin.score, s.score, "session {} score changed", s.id);
                assert_eq!(twin.passed, s.passed);
            }
        }
    }

    #[test]
    fn heterogeneous_quick_config_is_deterministic_with_everything_on() {
        let config = FleetConfig::heterogeneous_quick(7);
        let mut small = config.clone();
        small.workload.sessions = 16;
        small.workload.mean_interarrival_ticks = 0;
        small.execution = ExecutionMode::Modeled;
        let a = run_fleet(&small).unwrap();
        let b = run_fleet(&small).unwrap();
        assert_eq!(a, b);
        let mut threaded = small.clone();
        threaded.execution = ExecutionMode::WallClock { threads: 4 };
        let c = run_fleet(&threaded).unwrap();
        assert_eq!(a.sessions, c.sessions);
        assert_eq!(a.elapsed_modeled, c.elapsed_modeled);
        let mut pooled = small.clone();
        pooled.execution = ExecutionMode::WallClock { threads: 3 };
        let d = run_fleet(&pooled).unwrap();
        assert_eq!(a.sessions, d.sessions);
        assert_eq!(a.elapsed_modeled, d.elapsed_modeled);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// Whatever the schedule — random seeds, thread counts, shard counts,
        /// arrival pacing, preemption on or off — interleaving admission
        /// hand-off with shard stepping under the wall-clock executor
        /// preserves the conservation ledger and reproduces the modeled run
        /// bit for bit.
        #[test]
        fn prop_executor_interleaving_preserves_the_conservation_ledger(
            seed in 0u64..(1 << 32),
            threads in 1usize..5,
            shards in 1usize..4,
            preemption in any::<bool>(),
            interarrival in 0u64..3,
        ) {
            let mut config = tiny_config(shards, seed);
            config.workload.sessions = 6;
            config.workload.base_frames = 12;
            config.workload.mean_interarrival_ticks = interarrival;
            config.preemption = preemption;
            config.max_pending = 3; // tight queue: some schedules also reject
            let modeled = run_fleet(&config).unwrap();
            config.execution = ExecutionMode::WallClock { threads };
            let pooled = run_fleet(&config).unwrap();
            // The admission ledger balances (the queue is empty after a
            // drain, so pending drops out of the invariant):
            // offered + preempted = admitted + rejected + pending.
            prop_assert_eq!(
                pooled.offered + pooled.preempted,
                pooled.admitted + pooled.rejected
            );
            prop_assert_eq!(pooled.admitted, pooled.completed + pooled.preempted);
            prop_assert_eq!(pooled.rejected_with_free_slot, 0);
            // And the executor run is the modeled run, bit for bit.
            prop_assert_eq!(&modeled.sessions, &pooled.sessions);
            prop_assert_eq!(modeled.elapsed_modeled, pooled.elapsed_modeled);
            prop_assert_eq!(&modeled.shard_stats, &pooled.shard_stats);
            prop_assert_eq!(
                (modeled.offered, modeled.admitted, modeled.completed, modeled.rejected,
                 modeled.preempted, modeled.peak_pending),
                (pooled.offered, pooled.admitted, pooled.completed, pooled.rejected,
                 pooled.preempted, pooled.peak_pending)
            );
        }
    }
}
