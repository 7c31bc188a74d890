//! The fleet executive: admit, place, batch-step and retire sessions across
//! a pool of (possibly heterogeneous) shards, deterministically.
//!
//! One fleet *tick* is the unit of serving time: arrivals due at the tick are
//! offered to the bounded admission queue (overflow is rejected —
//! backpressure), queued sessions are placed most-urgent-class-first onto the
//! least-loaded shards with free slots, and every shard then advances each of
//! its resident sessions by one batch of executive frames. Shards are
//! independent, so every run steps them on one
//! [`crate::executor::WallClockExecutor`] sized by the configured
//! [`ExecutionMode`] — the caller plus spawned workers, and the only code
//! that creates threads. Results are folded back in shard order, which keeps
//! the outcome bit-identical at every thread count.
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
//! A session reaches a shard one way, whatever brought it there — placement
//! from the queue (fresh or preempted), a migration, or either direction of
//! a retier: the driver's private `land` hands its [`PortableSession`] to the
//! target shard. `land` first checks that shard's pool and, when it holds no
//! rack of the session's shape, moves one over from the lowest-id shard that
//! does (the receiving shard re-stamps its own CPU speed on it); then the
//! shard resumes the session by replay, and the replay's modeled cost is
//! charged to that shard's tick. A rack is built only when no shard holds its
//! shape. Landing runs on the driver between ticks, in shard-id order, so the
//! pools are the same at every thread count. A retired rack goes to the pool
//! of the shard that stepped it.
//!
//! Throughput and utilization are accounted in *modeled* time (the same
//! modeled CPU costs the cluster executive already records), so a fleet run
//! is a pure function of its configuration: same seed, same report, byte for
//! byte — preemption and migration included. Wall-clock timings are measured
//! beside that deterministic outcome, never inside it: [`run_fleet_timed`]
//! returns them as a separate [`WallClockStats`], so real elapsed time — the
//! one quantity that legitimately varies run to run — can be reported without
//! ever touching the fingerprinted output.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cod_cb::CbError;
use cod_net::Micros;
use cod_trace::{DetTrace, ObsConfig, WallTrace, DRIVER_LANE};
use crane_sim::FidelityTier;
use sim_math::Fnv1a;

use crate::admission::{AdmissionConfig, AdmissionState};
use crate::executor::{WallClockExecutor, WallStopwatch};
use crate::shard::{Completed, PortableSession, SessionShape, Shard, ShardConfig, ShardStats};
use crate::workload::{coarse_eligible, generate, initial_tier, Priority, WorkloadConfig};
use FleetEventKind::{Demote, Migrate, Place, Preempt, Promote, Reject};

/// How many threads step shard batches each tick.
///
/// Every run steps its shards on one [`crate::executor::WallClockExecutor`]
/// of [`ExecutionMode::threads_for`] threads; the mode decides only how many
/// threads that is — never what the shards compute or the order their
/// results are folded in, so the [`FleetOutcome`] (and therefore
/// `FLEET_cod.json`) is bit-identical under both variants and every thread
/// count for the same configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One stepping thread: the caller alone, spawning nothing. The same pool
    /// as `WallClock { threads: 1 }`; kept as a name for it.
    #[default]
    Modeled,
    /// `threads` stepping threads — the caller plus `threads - 1` workers
    /// spawned once per run — taking shard-batch tasks off one mutex-guarded
    /// queue; spawned workers spin briefly, then park, between ticks. The
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
    /// How many threads step shard batches (the outcome is identical at
    /// every count; only wall-clock time differs).
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

/// What the fleet decided about a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEventKind {
    /// Placed from the queue onto a shard, fresh or after a preemption.
    Place,
    /// Turned away by backpressure at arrival.
    Reject,
    /// Pushed off its shard back into the queue.
    Preempt,
    /// Moved live to another shard.
    Migrate,
    /// Re-tiered to Coarse on its shard.
    Demote,
    /// Re-tiered to Full on its shard.
    Promote,
}

impl FleetEventKind {
    /// The kind's name in `OBS_cod.json`.
    pub fn tag(self) -> &'static str {
        // In declaration order.
        ["place", "reject", "preempt", "migrate", "demote", "promote"][self as usize]
    }
}

/// One fleet decision, the only record of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Fleet tick of the decision.
    pub tick: u64,
    /// What was decided.
    pub kind: FleetEventKind,
    /// The session decided about.
    pub session: u64,
    /// The shard a placement or migration lands the session on, the shard a
    /// preemption or retier acts on; `None` for a rejection.
    pub shard: Option<usize>,
}

/// Where the conservation walk last saw a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spot {
    Unseen,
    Rejected,
    Queued,
    On(usize),
    Retired,
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
    /// Sessions offered, a fold of `events`. It, `completed` and `rejected`
    /// stay fields only because `benchmark/` reads them.
    pub offered: u64,
    /// `sessions.len()`.
    pub completed: u64,
    /// The `reject` events.
    pub rejected: u64,
    /// Rejections while a slot was free (must be zero).
    pub rejected_with_free_slot: u64,
    /// Largest admission-queue depth observed.
    pub peak_pending: usize,
    /// Every decision of the run, in the order it was made. Arrivals and
    /// completions are not events: the workload and `sessions` record them.
    pub events: Vec<FleetEvent>,
    /// Per-session outcomes, in completion order.
    pub sessions: Vec<SessionOutcome>,
    /// Per-shard counters.
    pub shard_stats: Vec<ShardStats>,
}

impl FleetOutcome {
    /// Completed sessions per second of modeled serving time.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.elapsed_modeled.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.sessions.len() as f64 / secs
        }
    }

    /// Placements onto a shard (re-placements of preempted sessions count
    /// again).
    pub fn admitted(&self) -> u64 {
        count(&self.events, Place)
    }

    /// Residents pushed back to the queue by preemption.
    pub fn preempted(&self) -> u64 {
        count(&self.events, Preempt)
    }

    /// Residents moved live between shards.
    pub fn migrated(&self) -> u64 {
        count(&self.events, Migrate)
    }

    /// Residents promoted live to the Full tier.
    pub fn promoted(&self) -> u64 {
        count(&self.events, Promote)
    }

    /// Residents demoted live to the Coarse tier.
    pub fn demoted(&self) -> u64 {
        count(&self.events, Demote)
    }

    /// The events of `kind` on shard `i` (for a migration, its receiver).
    pub(crate) fn count_on(&self, kind: FleetEventKind, i: usize) -> u64 {
        self.events.iter().filter(|e| e.kind == kind && e.shard == Some(i)).count() as u64
    }

    /// Migrations away from shard `i`: each leaves the shard its session
    /// last landed on (every event naming a shard moves that mark).
    pub(crate) fn migrated_out(&self, i: usize) -> u64 {
        let mut landed = BTreeMap::new();
        let mut left = |e: &FleetEvent| e.shard.and_then(|to| landed.insert(e.session, to));
        self.events.iter().filter(|e| left(e) == Some(i) && e.kind == Migrate).count() as u64
    }

    /// Walks the log and returns every break of conservation, each naming
    /// its session: every offered session (ids `0..workload.sessions`) is
    /// rejected or placed; a preemption, migration or retier acts on the
    /// shard the session is on, and a migration lands on another; each
    /// completed session retires once, on the shard it last landed on; and
    /// no session is left on a shard or in the queue.
    pub fn log_violations(&self) -> Vec<String> {
        use Spot::{On, Queued, Rejected, Retired, Unseen};
        let mut spots = vec![Unseen; self.config.workload.sessions];
        let mut out = Vec::new();
        for e in &self.events {
            let next = match (e.kind, spots.get(e.session as usize).copied(), e.shard) {
                (Reject, Some(Unseen), None) => Rejected,
                (Place, Some(Unseen | Queued), Some(to)) => On(to),
                (Preempt, Some(On(on)), Some(at)) if on == at => Queued,
                (Migrate, Some(On(on)), Some(to)) if on != to => On(to),
                (Demote | Promote, Some(On(on)), Some(at)) if on == at => On(on),
                (_, was, _) => {
                    out.push(format!("session {}: {e:?} while {was:?}", e.session));
                    continue;
                }
            };
            spots[e.session as usize] = next;
        }
        for SessionOutcome { id, shard, .. } in &self.sessions {
            match spots.get(*id as usize).copied() {
                Some(On(on)) if on == *shard => spots[*id as usize] = Retired,
                was => out.push(format!("session {id}: retired on shard {shard} while {was:?}")),
            }
        }
        for (id, spot) in spots.iter().enumerate() {
            if !matches!(spot, Rejected | Retired) {
                out.push(format!("session {id}: the run ended while {spot:?}"));
            }
        }
        out
    }

    /// The `p`-th percentile (0–100) of session latency in fleet ticks, over
    /// every completed session; `benchmark/` reads it.
    pub fn latency_percentile_ticks(&self, p: f64) -> f64 {
        self.latency_percentile_ticks_where(p, |_| true)
    }

    /// The `p`-th percentile (0–100) of the latency in fleet ticks of the
    /// completed sessions `keep` accepts, by [`sim_math::percentile_sorted`]
    /// — the convention `cod_bench::measure::percentile` uses too, so
    /// `FLEET_cod.json` and `BENCH_cod.json` percentiles are comparable.
    /// Returns `0.0` when no session matches.
    pub fn latency_percentile_ticks_where(
        &self,
        p: f64,
        keep: impl Fn(&SessionOutcome) -> bool,
    ) -> f64 {
        let mut latencies: Vec<f64> =
            self.sessions.iter().filter(|s| keep(s)).map(|s| s.latency_ticks() as f64).collect();
        if latencies.is_empty() {
            return 0.0;
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        sim_math::percentile_sorted(&latencies, p)
    }

    /// Completed sessions that `keep` accepts.
    pub fn completed_where(&self, keep: impl Fn(&SessionOutcome) -> bool) -> usize {
        self.sessions.iter().filter(|s| keep(s)).count()
    }

    /// Mean final score over the completed sessions `keep` accepts, or `0.0`
    /// when none does.
    pub fn mean_score_where(&self, keep: impl Fn(&SessionOutcome) -> bool) -> f64 {
        let scores: Vec<f64> = self.sessions.iter().filter(|s| keep(s)).map(|s| s.score).collect();
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

    /// Fraction of completed sessions that passed the exam.
    pub fn pass_rate(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        self.sessions.iter().filter(|s| s.passed).count() as f64 / self.sessions.len() as f64
    }

    /// FNV-1a fingerprint over every session outcome, then the ledger's
    /// rejection, preemption, migration and retiering counters and the
    /// modeled serving time — the `FLEET_cod.json` fingerprint. Two runs of
    /// the same seed agree bit for bit, whatever stepped their shards.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.sessions.len() as u64);
        for s in &self.sessions {
            h.write_u64(s.id);
            h.write_u64(s.name.len() as u64);
            h.write_bytes(s.name.as_bytes());
            h.write_u64(s.frames as u64);
            h.write_u64(s.priority.index() as u64);
            h.write_u64(s.arrived_tick);
            h.write_u64(s.admitted_tick);
            h.write_u64(s.completed_tick);
            h.write_u64(s.shard as u64);
            h.write_u64(u64::from(s.preempted));
            h.write_u64(u64::from(s.migrated));
            h.write_u64(u64::from(s.promoted));
            h.write_u64(u64::from(s.demoted));
            h.write_u64(s.tier.index() as u64);
            h.write_u64(s.score.to_bits());
            h.write_u64(s.passed as u64);
            h.write_u64(s.cost.0);
            h.write_u64(s.telemetry);
        }
        for counter in
            [self.rejected, self.preempted(), self.migrated(), self.promoted(), self.demoted()]
        {
            h.write_u64(counter);
        }
        h.write_u64(self.elapsed_modeled.0);
        h.finish()
    }
}

/// Wall-clock timings of one fleet run, measured with [`WallStopwatch`] and
/// reported *beside* the deterministic [`FleetOutcome`] — never inside it.
/// The outcome derives `PartialEq` and is compared byte for byte across
/// thread counts; real elapsed time legitimately varies run to run, so it
/// lives here, excluded from every fingerprint by construction. Each
/// per-thread vector has one entry per stepping thread, the driver's at
/// entry 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallClockStats {
    /// Real time of the whole run: admission, placement, stepping, folding.
    pub wall: Duration,
    /// Real time spent inside shard batch stepping (the part the pool
    /// parallelizes).
    pub stepping_wall: Duration,
    /// Threads the pool stepped shards with, the caller included.
    pub threads: usize,
    /// Fleet ticks executed.
    pub ticks: u64,
    /// One zero per thread: the pool has a single queue and nothing to steal
    /// from. Kept only because `benchmark/` reads it.
    pub worker_steals: Vec<u64>,
    /// Per-thread count of parks: times the thread found nothing ready, spun
    /// out the executor's spin budget (a worker home to no shard skips the
    /// spin) and parked on its condvar. The driver parks only to wait for
    /// shards still out on a worker. The name is kept because `benchmark/`
    /// reads it. Diagnostic only, never serialized into `FLEET_cod.json`.
    pub worker_idle_spins: Vec<u64>,
    /// Per-thread count of shard-batch tasks run. Diagnostic only, never
    /// serialized.
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
/// [`FleetConfig::obs`]; the deterministic sink's events and run counters are
/// rendered once, after the drain, from [`FleetOutcome::events`]. With
/// tracing disabled (the default) both artifacts are `None`.
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
    // One pool per run, with a trace lane per stepping thread.
    let threads = config.execution.threads_for(config.shards);
    let wall = config.obs.wall_enabled().then(|| Arc::new(WallTrace::new(threads)));
    let executor = WallClockExecutor::new(threads, wall.clone());
    let arrivals = generate(&config.workload);
    // The one admission queue: fresh arrivals and preempted residents.
    let mut admission: AdmissionState<PortableSession> = AdmissionState::new(AdmissionConfig {
        shards: config.shards,
        slots_per_shard: config.shard.slots,
        max_pending: config.max_pending,
    });
    let mut shards: Vec<Shard> =
        (0..config.shards).map(|i| Shard::new(i, config.shard, config.speed_of(i))).collect();
    let mut sessions: Vec<SessionOutcome> = Vec::with_capacity(arrivals.len());
    let mut events: Vec<FleetEvent> = Vec::with_capacity(arrivals.len());
    let mut next_arrival = 0usize;
    let mut elapsed = Micros::ZERO;
    let mut tick = 0u64;

    // Places the next queued session (most urgent class first), weighted by
    // each shard's modeled backlog under the configured policy, and lands it
    // there. Returns false when the queue is empty or every slot is taken.
    let place_one = |admission: &mut AdmissionState<PortableSession>,
                     shards: &mut Vec<Shard>,
                     events: &mut Vec<FleetEvent>,
                     tick: u64|
     -> Result<bool, CbError> {
        let backlog: Vec<Micros> = match config.placement {
            PlacementPolicy::LeastResident => Vec::new(),
            PlacementPolicy::SpeedWeighted => shards.iter().map(Shard::placement_cost).collect(),
        };
        let Some((target, mut session)) = admission.place_weighted(&backlog) else {
            return Ok(false);
        };
        session.admitted_tick.get_or_insert(tick);
        let id = session.spec.id;
        land(shards, target, session)?;
        events.push(FleetEvent { tick, kind: Place, session: id, shard: Some(target) });
        Ok(true)
    };

    loop {
        let tick_start = wall.as_ref().map(|w| w.now_us());

        // 1. Offer the arrivals due at this tick to the bounded queue. A full
        //    queue first drains into any free slot, so an arrival is only
        //    ever rejected when the queue AND every slot are taken — never
        //    while capacity sits idle.
        while next_arrival < arrivals.len() && arrivals[next_arrival].tick <= tick {
            while admission.pending() >= config.max_pending
                && place_one(&mut admission, &mut shards, &mut events, tick)?
            {}
            let arrival = &arrivals[next_arrival];
            let mut spec = arrival.spec.clone();
            if config.tiering {
                // Tiering is an admission policy, not a workload property:
                // the same generated arrival list drives both run modes.
                spec.config.tier = initial_tier(spec.priority);
            }
            if !admission.offer(PortableSession::arriving(spec, tick)) {
                let session = arrival.spec.id;
                events.push(FleetEvent { tick, kind: Reject, session, shard: None });
            }
            next_arrival += 1;
        }

        // 2. Place queued sessions, most urgent class first; with preemption
        //    enabled, an urgent session that finds every slot taken evicts
        //    the least urgent resident (which re-queues with its progress and
        //    resumes later by replay).
        loop {
            while place_one(&mut admission, &mut shards, &mut events, tick)? {}
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
            let (session, shard) = (view.id, Some(shard_id));
            events.push(FleetEvent { tick, kind: Preempt, session, shard });
            admission.preempt(shard_id, portable);
        }

        // 3. Rebalance: at most one live migration per tick, from the most
        //    backlogged shard to the least backlogged one with a free slot,
        //    and only when the move strictly improves the pair's makespan
        //    with the replay cost accounted.
        if config.migration {
            migrate_one(config, &mut admission, &mut shards, &mut events, tick)?;
        }

        // 3½. Retier: under queue pressure every coarse-eligible Full
        //     resident sheds fidelity (freeing modeled capacity for the
        //     backlog); on a calm tick one demoted session buys its full
        //     rack back. Either direction lands the re-tiered session back
        //     on its own shard, by replay, charged like a migration's.
        if config.tiering {
            retier_tick(&admission, &mut shards, &mut events, tick)?;
        }

        // 4. Batch-step every shard on the pool.
        let step_started = WallStopwatch::start();
        let step_start_us = wall.as_ref().map(|w| w.now_us());
        let results = executor.step_shards(&mut shards)?;
        if let (Some(w), Some(start)) = (wall.as_ref(), step_start_us) {
            w.complete(DRIVER_LANE, "step-phase".to_string(), "step", start);
        }
        stepping_wall += step_started.read();

        // 5. Fold the results back in shard order (determinism) and account
        //    the tick at the critical shard's cost, the replays it charged included.
        let mut tick_makespan = Micros::ZERO;
        for (shard_id, (completed, busy)) in results.into_iter().enumerate() {
            tick_makespan = tick_makespan.max(busy);
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
            && admission.pending() == 0
            && shards.iter().all(|s| s.resident_count() == 0);
        if drained {
            break;
        }
        assert!(
            tick < arrivals.last().map(|a| a.tick).unwrap_or(0) + 1_000_000,
            "fleet failed to drain: a session is starving"
        );
    }

    // Each session's move counts, folded once from the log.
    let kinds = [Preempt, Migrate, Promote, Demote];
    let mut moves = vec![[0; 4]; arrivals.len()];
    for e in &events {
        if let Some(k) = kinds.iter().position(|&k| k == e.kind) {
            moves[e.session as usize][k] += 1;
        }
    }
    for s in &mut sessions {
        [s.preempted, s.migrated, s.promoted, s.demoted] = moves[s.id as usize];
    }
    let outcome = FleetOutcome {
        config: config.clone(),
        ticks_run: tick,
        elapsed_modeled: elapsed,
        offered: count(&events, Reject) + count(&events, Place) - count(&events, Preempt),
        completed: sessions.len() as u64,
        rejected: count(&events, Reject),
        rejected_with_free_slot: admission.rejected_with_free_slot,
        peak_pending: admission.peak_pending,
        events,
        sessions,
        shard_stats: shards.iter().map(|s| s.stats).collect(),
    };
    debug_assert!(outcome.log_violations().is_empty(), "{:?}", outcome.log_violations());
    if let Some(d) = det.as_mut() {
        // The decisions and run counters, rendered once from the log, then each
        // shard's stepping counters in shard-id order: all modeled or seeded.
        for e in &outcome.events {
            d.event(e.tick, e.kind.tag(), e.session, e.shard.map_or(-1, |s| s as i64));
        }
        d.set("ticks_run", tick);
        d.set("offered", outcome.offered);
        d.set("admitted", outcome.admitted());
        d.set("completed", outcome.completed);
        d.set("rejected", outcome.rejected);
        d.set("preempted", outcome.preempted());
        d.set("migrated", outcome.migrated());
        d.set("promoted", outcome.promoted());
        d.set("demoted", outcome.demoted());
        for shard in &shards {
            shard.fold_det_into(d);
        }
    }
    let stats = WallClockStats {
        wall: run_started.read(),
        stepping_wall,
        threads,
        ticks: tick,
        worker_steals: vec![0; threads],
        worker_idle_spins: executor.worker_idle_spins(),
        worker_tasks: executor.worker_tasks(),
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
    admission: &AdmissionState<PortableSession>,
    shards: &mut [Shard],
    events: &mut Vec<FleetEvent>,
    tick: u64,
) -> Result<(), CbError> {
    if admission.pending() > 0 {
        for sid in 0..shards.len() {
            loop {
                let target = shards[sid]
                    .residents_overview()
                    .into_iter()
                    .filter(|v| v.tier == FidelityTier::Full && coarse_eligible(v.priority))
                    .min_by_key(|v| (v.frames_done, v.id));
                let Some(view) = target else { break };
                let session = shards[sid].retier(view.index, FidelityTier::Coarse);
                land(shards, sid, session)?;
                events.push(FleetEvent { tick, kind: Demote, session: view.id, shard: Some(sid) });
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
            let session = shards[sid].retier(view.index, FidelityTier::Full);
            land(shards, sid, session)?;
            events.push(FleetEvent { tick, kind: Promote, session: view.id, shard: Some(sid) });
        }
    }
    Ok(())
}

/// The events of `kind`.
fn count(events: &[FleetEvent], kind: FleetEventKind) -> u64 {
    events.iter().filter(|e| e.kind == kind).count() as u64
}

/// The one way a session reaches a shard — placement, migration, and both
/// directions of a retier. When shard `target`'s pool holds no rack of the
/// session's shape, one moves over from the lowest-id shard whose pool does
/// (when none does, the target builds); then the target resumes the session
/// by replay, whose modeled cost the shard charges to its next step.
fn land(shards: &mut [Shard], target: usize, session: PortableSession) -> Result<(), CbError> {
    let shape = SessionShape::of(&session.spec.config);
    if !shards[target].pools(&shape) {
        if let Some(rack) = shards.iter_mut().find_map(|s| s.take_pooled(&shape)) {
            shards[target].recycle(rack);
        }
    }
    shards[target].resume(session)
}

/// Performs at most one strictly-improving migration: donor = most
/// backlogged shard, receiver = least backlogged shard with a free slot,
/// candidate = the donor's least progressed resident (cheapest replay).
fn migrate_one(
    config: &FleetConfig,
    admission: &mut AdmissionState<PortableSession>,
    shards: &mut [Shard],
    events: &mut Vec<FleetEvent>,
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
    events.push(FleetEvent { tick, kind: Migrate, session: view.id, shard: Some(receiver) });
    land(shards, receiver, portable)
}

fn session_outcome(done: Completed, tick: u64, shard: usize) -> SessionOutcome {
    let s = done.session;
    SessionOutcome {
        id: s.spec.id,
        name: s.spec.name,
        frames: s.spec.frames,
        priority: s.spec.priority,
        arrived_tick: s.arrived_tick,
        admitted_tick: s.admitted_tick.expect("a retired session was placed"),
        completed_tick: tick,
        shard,
        preempted: 0,
        migrated: 0,
        promoted: 0,
        demoted: 0,
        tier: s.spec.config.tier,
        score: done.report.score,
        passed: done.report.passed,
        cost: done.cost,
        telemetry: done.telemetry,
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
        assert_eq!(outcome.offered, outcome.sessions.len() as u64 + outcome.rejected);
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
        assert!(stats.sessions_per_wall_sec(outcome.sessions.len() as u64) > 0.0);
        // The timings live beside the outcome, never in it: the outcome of a
        // timed run equals the outcome of an untimed one, field for field.
        assert_eq!(outcome, run_fleet(&config).unwrap());
    }

    #[test]
    fn more_shards_raise_modeled_throughput() {
        let one = run_fleet(&tiny_config(1, 9)).unwrap();
        let four = run_fleet(&tiny_config(4, 9)).unwrap();
        assert_eq!(
            one.sessions.len(),
            four.sessions.len(),
            "same workload must complete either way"
        );
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
        assert_eq!(outcome.offered, outcome.sessions.len() as u64 + outcome.rejected);
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
        assert_eq!(naive.sessions.len(), weighted.sessions.len());
        assert!(
            weighted.sessions_per_sec() > naive.sessions_per_sec(),
            "speed-weighted {:.2}/s must beat residency-only {:.2}/s on a 1x2.0 + 3x0.5 fleet",
            weighted.sessions_per_sec(),
            naive.sessions_per_sec()
        );
        // The fast shard must attract the bulk of the work.
        let fast = weighted.completed_where(|s| s.shard == 0);
        let slow = weighted.completed_where(|s| s.shard > 0);
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
        let completed = |o: &FleetOutcome| o.sessions.len() as u64;
        assert_eq!(completed(&fifo) + fifo.rejected, fifo.offered);
        assert_eq!(completed(&preempting) + preempting.rejected, preempting.offered);
        assert!(preempting.preempted() > 0, "a saturated single slot must preempt");
        // Every preemption is re-accounted: placements = completions + preemptions.
        assert_eq!(preempting.admitted(), completed(&preempting) + preempting.preempted());
        let sum: u32 = preempting.sessions.iter().map(|s| s.preempted).sum();
        assert_eq!(u64::from(sum), preempting.preempted());
        // Interactive latency must not get worse than the FIFO run's.
        let p95 = |o: &FleetOutcome| {
            o.latency_percentile_ticks_where(95.0, |s| s.priority == Priority::Interactive)
        };
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
        assert!(migrating.migrated() > 0, "a 4x speed gap must trigger at least one migration");
        let sum: u32 = migrating.sessions.iter().map(|s| s.migrated).sum();
        assert_eq!(u64::from(sum), migrating.migrated());
        assert_eq!(pinned.sessions.len(), migrating.sessions.len());
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
        assert_eq!(all_full.sessions.len(), tiered.sessions.len());
        assert_eq!(all_full.rejected, tiered.rejected);
        assert!(tiered.demoted() > 0, "a bursty queue must demote residents");
        assert!(
            tiered.sessions_per_sec() > all_full.sessions_per_sec(),
            "tiered {:.2}/s must beat all-Full {:.2}/s",
            tiered.sessions_per_sec(),
            all_full.sessions_per_sec()
        );
        // Promotion/demotion ledgers: per-session sums equal the fleet
        // totals, which are per-shard sums.
        let psum: u32 = tiered.sessions.iter().map(|s| s.promoted).sum();
        let dsum: u32 = tiered.sessions.iter().map(|s| s.demoted).sum();
        assert_eq!(u64::from(psum), tiered.promoted());
        assert_eq!(u64::from(dsum), tiered.demoted());
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
        assert!(tiered.completed_where(|s| s.tier == FidelityTier::Coarse) > 0);
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

    #[test]
    fn a_retier_lands_on_a_siblings_pooled_rack_of_the_new_tier() {
        let config =
            ShardConfig { slots: 2, batch_frames: 4, pool_per_shape: 1, ..ShardConfig::default() };
        let mut shards: Vec<Shard> = (0..2).map(|i| Shard::new(i, config, 1.0)).collect();
        let workload =
            WorkloadConfig { sessions: 1, seed: 5, base_frames: 16, mean_interarrival_ticks: 0 };
        let spec = generate(&workload).remove(0).spec;
        let session = |id: u64, tier: FidelityTier| {
            let mut s = spec.clone();
            s.id = id;
            s.config.seed ^= id;
            s.config.tier = tier;
            s
        };
        let full = SessionShape::of(&spec.config);
        let coarse = SessionShape::of(&session(0, FidelityTier::Coarse).config);

        // Session 0 runs Full on shard 0; shard 1 pools one rack of each tier.
        shards[0].admit(session(0, FidelityTier::Full), 0, 0).unwrap();
        shards[0].step_batch().unwrap();
        shards[1].admit(session(1, FidelityTier::Full), 0, 0).unwrap();
        shards[1].admit(session(2, FidelityTier::Coarse), 0, 0).unwrap();
        while shards[1].resident_count() > 0 {
            shards[1].step_batch().unwrap();
        }
        assert!(shards[1].pools(&full) && shards[1].pools(&coarse));
        let built =
            |shards: &[Shard]| shards.iter().map(|s| s.stats.sims_built).collect::<Vec<_>>();
        assert_eq!(built(&shards), [1, 2]);

        // A demotion pools the Full rack at home and borrows shard 1's Coarse one.
        let demoted = shards[0].retier(0, FidelityTier::Coarse);
        let busy = shards[0].stats.busy;
        land(&mut shards, 0, demoted).unwrap();
        assert!(shards[0].stats.busy > busy, "the replay is charged to the landing shard");
        assert!(!shards[1].pools(&coarse), "the sibling's Coarse rack was lent");
        assert!(shards[0].pools(&full));
        // A fresh Full session takes that home rack...
        land(&mut shards, 0, PortableSession::arriving(session(3, FidelityTier::Full), 1)).unwrap();
        assert!(!shards[0].pools(&full));
        // ...so the promotion borrows shard 1's Full rack.
        let promoted = shards[0].retier(0, FidelityTier::Full);
        land(&mut shards, 0, promoted).unwrap();
        assert!(!shards[1].pools(&full), "the sibling's Full rack was lent");
        assert_eq!(shards[0].residents_overview()[1].tier, FidelityTier::Full);
        assert_eq!(built(&shards), [1, 2], "no retier built a rack");
        assert_eq!(shards[0].stats.sims_recycled, 3);
    }

    #[test]
    fn a_shape_served_one_session_at_a_time_is_built_once_fleet_wide() {
        // Three sessions of one shape, arriving 16 ticks apart, each done in
        // at most three: never two at once. Each is placed on the idle
        // reference shard 0 and moves live to the double-speed shard 1.
        let mut config = tiny_config(2, 1277);
        config.shard_speeds = vec![1.0, 2.0];
        config.placement = PlacementPolicy::LeastResident;
        config.migration = true;
        config.workload =
            WorkloadConfig { sessions: 3, seed: 1277, base_frames: 16, mean_interarrival_ticks: 8 };
        let arrivals = generate(&config.workload);
        let shape = SessionShape::of(&arrivals[0].spec.config);
        assert!(arrivals.iter().all(|a| SessionShape::of(&a.spec.config) == shape));

        let outcome = run_fleet(&config).unwrap();
        assert_eq!(outcome.sessions.len(), 3);
        for pair in outcome.sessions.windows(2) {
            assert!(pair[1].admitted_tick > pair[0].completed_tick, "sessions overlapped");
        }
        assert!(outcome.sessions.iter().all(|s| (s.migrated, s.shard) == (1, 1)));
        // The rack built on shard 0 serves every placement and every move:
        // shard 1 borrows it, re-stamped to its own speed, instead of
        // building a second one.
        let built: Vec<u64> = outcome.shard_stats.iter().map(|s| s.sims_built).collect();
        let recycled: u64 = outcome.shard_stats.iter().map(|s| s.sims_recycled).sum();
        assert_eq!(built, [1, 0], "one shape, one session at a time: one rack");
        assert_eq!(recycled, 5);
        // A fleet that pools nothing builds a fresh rack at every resume;
        // the lent racks serve the same sessions at the same modeled cost.
        config.shard.pool_per_shape = 0;
        assert_eq!(run_fleet(&config).unwrap().sessions, outcome.sessions);
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
            // The log walks clean: every offered session was rejected or
            // placed, every move acted where its session was, and every
            // placed session retired where it last landed.
            prop_assert_eq!(pooled.log_violations(), Vec::<String>::new());
            prop_assert_eq!(pooled.offered, config.workload.sessions as u64);
            prop_assert_eq!(pooled.rejected_with_free_slot, 0);
            // And the executor run is the modeled run, bit for bit.
            prop_assert_eq!(&modeled.sessions, &pooled.sessions);
            prop_assert_eq!(modeled.elapsed_modeled, pooled.elapsed_modeled);
            prop_assert_eq!(&modeled.shard_stats, &pooled.shard_stats);
            prop_assert_eq!(&modeled.events, &pooled.events);
            prop_assert_eq!(modeled.peak_pending, pooled.peak_pending);
        }
    }
}
