//! A shard: one worker slot-pool hosting several concurrent simulator
//! sessions, with a recycling pool of retired simulators.
//!
//! Building a [`CraneSimulator`] is dominated by the Communication Backbone
//! initialization protocol (a hundred-plus broadcast rounds across eight
//! kernels). A shard therefore never throws a finished session's simulator
//! away: it files the rack under its [`SessionShape`] and the next session of
//! the same shape gets it back through
//! [`CraneSimulator::reset_for_session`], skipping initialization entirely.
//! In a fleet, the driver also lends a pooled rack to a sibling shard that
//! has none of the shape it is about to serve, so a shape is built again only
//! when no shard holds one.
//!
//! Shards are *heterogeneous*: each carries a relative CPU speed (1.0 = the
//! paper's reference desktop PC) stamped on every rack it builds via
//! [`SimulatorConfig::cpu_speed`] → `Cluster::add_computer_with_speed`, and
//! re-stamped on every rack it takes from a pool, so a half-speed shard
//! charges twice the modeled cost per frame. A resident
//! session can also be *extracted* — serialized to its spec, seed and frame
//! count — and resumed on another shard (or later on the same one) by
//! deterministic replay; that is the substrate of both preemption and live
//! migration.

use std::collections::BTreeMap;

use cod_cb::CbError;
use cod_cluster::nominal_sequential_frame_cost;
use cod_net::Micros;
use cod_trace::DetTrace;
use crane_sim::{CraneSimulator, FidelityTier, SessionReport, SimulatorConfig};

use crate::workload::{Priority, SessionSpec};

/// The stepping mode a [`ShardConfig`] names. A shard has one stepping
/// loop — its residents in residency order — so the mode selects nothing;
/// the type is kept only because `benchmark/` names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteppingMode {
    /// The only mode: every resident runs its own frames in residency order.
    #[default]
    Batched,
}

/// Sizing and pacing of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Concurrent sessions the shard may host.
    pub slots: usize,
    /// Executive frames each resident session advances per fleet tick.
    pub batch_frames: usize,
    /// Retired simulators this shard keeps per session shape for recycling.
    pub pool_per_shape: usize,
    /// Selects nothing (see [`SteppingMode`]); kept only because
    /// `benchmark/` sets it.
    pub stepping: SteppingMode,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            slots: 4,
            batch_frames: 8,
            pool_per_shape: 2,
            stepping: SteppingMode::default(),
        }
    }
}

/// The structural part of a [`SimulatorConfig`] — every field that affects
/// the replay identity of a built rack, i.e. everything that decides whether
/// a pooled simulator can be recycled for another session. The session seed
/// and frame budget are per-session and excluded.
///
/// The fidelity tier is part of the key: a Full rack handed to a Coarse
/// session (or vice versa) would replay a different trace entirely. The CPU
/// speed is not: it scales only the modeled cost of a frame, never what the
/// rack simulates, and the shard that takes a rack from a pool re-stamps its
/// own speed on it ([`CraneSimulator::set_cpu_speed`]) before the reset. So
/// a rack built on one shard serves a session of its shape on any shard, at
/// that shard's modeled cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionShape {
    operator: u8,
    gpu: u8,
    tier: FidelityTier,
    channels: usize,
    width: usize,
    height: usize,
    render_pixels: bool,
    cargo_mass_millig: u64,
    frame_period_us: u64,
}

impl SessionShape {
    /// The shape of a configuration.
    pub fn of(config: &SimulatorConfig) -> SessionShape {
        SessionShape {
            operator: config.operator as u8,
            gpu: config.gpu as u8,
            tier: config.tier,
            channels: config.display_channels,
            width: config.display_width,
            height: config.display_height,
            render_pixels: config.render_pixels,
            cargo_mass_millig: (config.cargo_mass_kg * 1_000.0).round() as u64,
            frame_period_us: (1_000_000.0 / config.target_fps).round() as u64,
        }
    }
}

/// A session resident on a shard: its portable identity plus the simulator
/// currently serving it.
struct Resident {
    session: PortableSession,
    sim: CraneSimulator,
}

impl Resident {
    /// Frames still to run. Saturating: a resumed session can arrive with
    /// more frames done than its budget asks for (a shrunk spec, or an
    /// over-replayed portable) — it must retire, not underflow.
    fn remaining_frames(&self) -> usize {
        self.session.spec.frames.saturating_sub(self.session.frames_done)
    }
}

/// A resident session serialized for transport: everything needed to resume
/// it deterministically on any shard — the spec (carrying the session and
/// fault seeds) plus the number of frames already executed. The receiving
/// shard replays those frames through [`CraneSimulator::reset_for_session`] +
/// fast-forward; replay is bit-exact, so the resumed session is
/// indistinguishable from one that ran on the target shard all along.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableSession {
    /// The session's spec (seed, fault plan, frame budget, priority).
    pub spec: SessionSpec,
    /// Frames already executed before extraction.
    pub frames_done: usize,
    /// Fleet tick the session arrived at.
    pub arrived_tick: u64,
    /// Fleet tick the session was *first* placed at.
    pub admitted_tick: u64,
    /// Times the session has been preempted so far.
    pub preempted: u32,
    /// Times the session has been migrated so far.
    pub migrated: u32,
    /// Times the session has been promoted to the Full tier so far.
    pub promoted: u32,
    /// Times the session has been demoted to the Coarse tier so far.
    pub demoted: u32,
}

/// A cheap view of one resident the fleet driver uses to pick preemption
/// victims and migration candidates without touching the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentView {
    /// Index into the shard's resident list (valid until the next mutation).
    pub index: usize,
    /// The session's id.
    pub id: u64,
    /// The session's priority class.
    pub priority: Priority,
    /// The fidelity tier currently serving the session.
    pub tier: FidelityTier,
    /// Frames already executed.
    pub frames_done: usize,
    /// Frames still to run.
    pub remaining_frames: usize,
    /// Modeled cost of one frame on *this* shard (measured hint, or the
    /// speed-scaled nominal cost before any frame has run).
    pub per_frame: Micros,
}

/// A session the shard has just retired.
#[derive(Debug, Clone, PartialEq)]
pub struct Completed {
    /// The retired session's spec id.
    pub id: u64,
    /// The spec's descriptive name.
    pub name: String,
    /// Frames the session ran.
    pub frames: usize,
    /// The session's priority class.
    pub priority: Priority,
    /// Fleet tick the session arrived at.
    pub arrived_tick: u64,
    /// Fleet tick the session was first placed at.
    pub admitted_tick: u64,
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
    /// The session's final report.
    pub report: SessionReport,
    /// Total modeled cost the session charged this shard.
    pub cost: Micros,
    /// FNV-1a fingerprint of the session's final telemetry digest — the
    /// physics-state witness determinism tests compare across execution
    /// modes and thread counts.
    pub telemetry: u64,
}

/// Counters one shard accumulates over a fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Total modeled busy time (the shard hosts its virtual clusters
    /// in-process, so a session frame costs its whole-cluster sequential
    /// cost).
    pub busy: Micros,
    /// Sessions retired.
    pub sessions_completed: u64,
    /// Simulators built from scratch.
    pub sims_built: u64,
    /// Sessions served by a recycled simulator (from this shard's pool, or
    /// lent to it by a sibling's).
    pub sims_recycled: u64,
    /// Residents extracted for preemption.
    pub preempted_out: u64,
    /// Residents extracted for migration to another shard.
    pub migrated_out: u64,
    /// Sessions resumed here after a migration.
    pub migrated_in: u64,
    /// Frames re-executed to fast-forward resumed sessions.
    pub replayed_frames: u64,
    /// Residents promoted to the Full tier in place.
    pub promoted: u64,
    /// Residents demoted to the Coarse tier in place.
    pub demoted: u64,
    /// Largest residency observed.
    pub peak_residents: usize,
}

/// One worker of the fleet.
pub struct Shard {
    /// Shard index within the fleet.
    pub id: usize,
    config: ShardConfig,
    /// Relative CPU speed of this shard's machine (1.0 = reference PC).
    speed: f64,
    residents: Vec<Resident>,
    pool: BTreeMap<SessionShape, Vec<CraneSimulator>>,
    /// Accumulated counters.
    pub stats: ShardStats,
    /// Session frames stepped, summed over every tick: the deterministic
    /// sink's `frames_stepped`.
    frames_stepped: u64,
    /// Distinct [`SessionShape`]s among the residents stepped, summed over
    /// every tick: the deterministic sink's `cohorts_stepped`.
    shapes_stepped: u64,
    /// Test-only crash injection: a poisoned shard panics on its next
    /// [`Shard::step_batch`], exercising the executor paths that must
    /// surface a worker panic as a failed join.
    #[cfg(test)]
    pub(crate) poison_for_test: bool,
    /// Test-only error injection: a failing shard returns a
    /// [`CbError::Codec`] from its next [`Shard::step_batch`] without
    /// stepping, exercising the executor paths that must bring every shard
    /// home when one errors mid-tick.
    #[cfg(test)]
    pub(crate) fail_for_test: bool,
}

impl Shard {
    /// Creates an empty shard of relative CPU speed `speed`.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive.
    pub fn new(id: usize, config: ShardConfig, speed: f64) -> Shard {
        assert!(speed > 0.0, "shard speed must be positive");
        Shard {
            id,
            config,
            speed,
            residents: Vec::new(),
            pool: BTreeMap::new(),
            stats: ShardStats::default(),
            frames_stepped: 0,
            shapes_stepped: 0,
            #[cfg(test)]
            poison_for_test: false,
            #[cfg(test)]
            fail_for_test: false,
        }
    }

    /// Folds the shard's stepping counters into `det`. Called once per run,
    /// in shard-id order and only when the deterministic sink is armed, so
    /// the aggregate is seed-stable.
    pub(crate) fn fold_det_into(&self, det: &mut DetTrace) {
        det.add("frames_stepped", self.frames_stepped);
        det.add("cohorts_stepped", self.shapes_stepped);
    }

    /// The shard's relative CPU speed.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Number of resident sessions.
    pub fn resident_count(&self) -> usize {
        self.residents.len()
    }

    /// Free session slots.
    pub fn free_slots(&self) -> usize {
        self.config.slots - self.residents.len()
    }

    /// Per-session-frame cost of an unmeasured session on this shard, by
    /// tier. The Full estimate deliberately assumes the worst-case
    /// three-channel rack so placement never underestimates a session it has
    /// not seen run; the Coarse estimate is the single-channel rack spread
    /// over its decimation batch — which is what stops a Coarse resident from
    /// inflating placement bids and backlog costs at full-rack price.
    fn nominal_frame_cost_for(&self, tier: FidelityTier) -> Micros {
        let rack = nominal_sequential_frame_cost(tier.display_channels(3));
        let reference = rack.0 / tier.decimation();
        Micros((reference as f64 / self.speed).round() as u64)
    }

    /// The worst-case (Full-tier) nominal frame cost, used to price an
    /// arriving session of unknown measured cost into a placement bid.
    fn nominal_frame_cost(&self) -> Micros {
        self.nominal_frame_cost_for(FidelityTier::Full)
    }

    fn per_frame_cost(&self, r: &Resident) -> Micros {
        // The hint is tier-specific: a Coarse session reports its decimated
        // per-session-frame cost, not the full-rack one.
        let hint = r.sim.session_cost_hint();
        if hint == Micros::ZERO {
            self.nominal_frame_cost_for(r.session.spec.config.tier)
        } else {
            hint
        }
    }

    /// Modeled cost of finishing every resident session — the hint the
    /// fleet's *migration* policy balances shards by. Sessions that have not
    /// yet run a frame are estimated at the nominal whole-rack frame cost
    /// scaled to this shard's speed, so a slow shard advertises a
    /// proportionally larger backlog. Saturating arithmetic: a pathologically
    /// long session pins the hint at `u64::MAX` instead of wrapping it around
    /// to a tiny value.
    pub fn backlog_cost(&self) -> Micros {
        let mut total = Micros::ZERO;
        for r in &self.residents {
            let per_frame = self.per_frame_cost(r);
            let remaining = r.remaining_frames() as u64;
            total = Micros(total.0.saturating_add(per_frame.0.saturating_mul(remaining)));
        }
        total
    }

    /// Modeled cost of this shard's *next* batch tick. Serving time is the
    /// sum over ticks of the busiest shard's cost, so the per-tick rate (not
    /// the total remaining backlog) is what governs the makespan: one
    /// session costs a half-speed shard four times what it costs a
    /// double-speed shard every tick.
    pub fn next_tick_cost(&self) -> Micros {
        let mut total = Micros::ZERO;
        for r in &self.residents {
            let per_frame = self.per_frame_cost(r);
            let frames = self.config.batch_frames.min(r.remaining_frames()) as u64;
            total = Micros(total.0.saturating_add(per_frame.0.saturating_mul(frames)));
        }
        total
    }

    /// The hint the fleet's speed-weighted *placement* policy weighs shards
    /// by: the per-tick rate this shard would run at **if it also took the
    /// arriving session** — its current [`Shard::next_tick_cost`] plus the
    /// nominal batch cost of one more session on this machine. Of the shards
    /// with a free slot, the session goes to the one whose resulting load is
    /// lowest, ties to the lowest shard id.
    /// Minimizing the current rate alone would always prefer an idle slow
    /// shard over a busy fast one, even when the fast shard could absorb the
    /// session at a quarter of the cost.
    pub fn placement_cost(&self) -> Micros {
        let marginal = self.nominal_frame_cost().0.saturating_mul(self.config.batch_frames as u64);
        Micros(self.next_tick_cost().0.saturating_add(marginal))
    }

    /// Cheap per-resident views (id, priority, progress, per-frame cost) for
    /// the fleet's preemption and migration policies.
    pub fn residents_overview(&self) -> Vec<ResidentView> {
        self.residents
            .iter()
            .enumerate()
            .map(|(index, r)| ResidentView {
                index,
                id: r.session.spec.id,
                priority: r.session.spec.priority,
                tier: r.session.spec.config.tier,
                frames_done: r.session.frames_done,
                remaining_frames: r.remaining_frames(),
                per_frame: self.per_frame_cost(r),
            })
            .collect()
    }

    /// Builds or recycles a simulator for `spec`, whose configuration
    /// carries this shard's CPU speed. A pooled rack may have been built on
    /// another shard, so its speed is re-stamped before the reset.
    fn obtain_sim(&mut self, spec: &SessionSpec) -> Result<CraneSimulator, CbError> {
        let mut sim = match self.take_pooled(&SessionShape::of(&spec.config)) {
            Some(mut sim) => {
                sim.set_cpu_speed(spec.config.cpu_speed);
                sim.reset_for_session(spec.config.seed)?;
                self.stats.sims_recycled += 1;
                sim
            }
            None => {
                self.stats.sims_built += 1;
                CraneSimulator::new(spec.config)?
            }
        };
        sim.set_fault_plan(spec.fault_plan.clone());
        Ok(sim)
    }

    /// Admits a session: recycles a pooled simulator of the same shape when
    /// one exists, otherwise builds the rack from scratch.
    ///
    /// # Errors
    ///
    /// Returns an error if the simulator fails to build or reset.
    ///
    /// # Panics
    ///
    /// Panics if the shard has no free slot (the admission controller must
    /// not place onto a full shard).
    pub fn admit(
        &mut self,
        spec: SessionSpec,
        arrived_tick: u64,
        admitted_tick: u64,
    ) -> Result<(), CbError> {
        let portable = PortableSession {
            spec,
            frames_done: 0,
            arrived_tick,
            admitted_tick,
            preempted: 0,
            migrated: 0,
            promoted: 0,
            demoted: 0,
        };
        self.resume(portable).map(|_| ())
    }

    /// Admits a [`PortableSession`], fast-forwarding it to where it left off:
    /// the simulator is reset to the session seed and the already-executed
    /// frames are replayed (replay is deterministic, so the resumed session
    /// is bit-identical to one never interrupted). Returns the modeled cost
    /// of the replay, charged to this shard's busy time.
    ///
    /// # Errors
    ///
    /// Returns an error if the simulator fails to build, reset or replay.
    ///
    /// # Panics
    ///
    /// Panics if the shard has no free slot.
    pub fn resume(&mut self, mut session: PortableSession) -> Result<Micros, CbError> {
        assert!(self.free_slots() > 0, "shard {} is full", self.id);
        // The shard's machine speed is a property of the shard, not the
        // session: stamp it before the shape lookup so pooled racks match.
        session.spec.config.cpu_speed = self.speed;
        let mut sim = self.obtain_sim(&session.spec)?;
        let replay_cost = sim.run_frames(session.frames_done)?;
        self.stats.replayed_frames += session.frames_done as u64;
        self.stats.busy += replay_cost;
        self.residents.push(Resident { session, sim });
        self.stats.peak_residents = self.stats.peak_residents.max(self.residents.len());
        Ok(replay_cost)
    }

    /// Extracts the resident at `index` as a [`PortableSession`], returning
    /// its simulator to the recycling pool. `migration` selects which
    /// counters the move charges (migrated vs preempted).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn extract(&mut self, index: usize, migration: bool) -> PortableSession {
        let mut r = self.residents.remove(index);
        if migration {
            r.session.migrated += 1;
            self.stats.migrated_out += 1;
        } else {
            r.session.preempted += 1;
            self.stats.preempted_out += 1;
        }
        self.recycle(r.sim);
        r.session
    }

    /// Files a simulator leaving residency (or lent by a sibling) under its
    /// shape, if the pool has room for it.
    pub(crate) fn recycle(&mut self, sim: CraneSimulator) {
        let pool = self.pool.entry(SessionShape::of(sim.config())).or_default();
        if pool.len() < self.config.pool_per_shape {
            pool.push(sim);
        }
    }

    /// Whether the pool holds a rack of `shape`.
    pub(crate) fn pools(&self, shape: &SessionShape) -> bool {
        self.pool.get(shape).is_some_and(|racks| !racks.is_empty())
    }

    /// Takes a pooled rack of `shape` out of the pool: to serve a session
    /// here, or to lend to a sibling.
    pub(crate) fn take_pooled(&mut self, shape: &SessionShape) -> Option<CraneSimulator> {
        self.pool.get_mut(shape).and_then(Vec::pop)
    }

    /// The configuration of the resident at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn resident_config(&self, index: usize) -> SimulatorConfig {
        self.residents[index].session.spec.config
    }

    /// Moves the resident at `index` to `tier` in place, by the same
    /// deterministic replay that powers migration: the old rack goes back to
    /// the recycling pool under its old shape, a rack of the new tier is
    /// built or recycled, and the frames done so far are replayed on it from
    /// the session seed. The session's trace is therefore bit-identical to
    /// one admitted on the new tier from the start — promotion and demotion
    /// are transparent to everything but the modeled cost. Returns the
    /// replay cost, charged to this shard's busy time.
    ///
    /// # Errors
    ///
    /// Returns an error if the new tier's simulator fails to build, reset or
    /// replay.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the resident is already on `tier`.
    pub fn retier(&mut self, index: usize, tier: FidelityTier) -> Result<Micros, CbError> {
        let mut r = self.residents.remove(index);
        assert_ne!(r.session.spec.config.tier, tier, "retier must change the tier");
        self.recycle(r.sim);
        match tier {
            FidelityTier::Full => {
                r.session.promoted += 1;
                self.stats.promoted += 1;
            }
            FidelityTier::Coarse => {
                r.session.demoted += 1;
                self.stats.demoted += 1;
            }
        }
        r.session.spec.config.tier = tier;
        self.resume(r.session)
    }

    /// Books a migrated-in session (the paired accounting of
    /// [`Shard::extract`] on the donor side); called by the fleet driver
    /// right before [`Shard::resume`] on the receiving shard.
    pub fn note_migrated_in(&mut self) {
        self.stats.migrated_in += 1;
    }

    /// Advances every resident session by up to one batch of frames, in
    /// residency order, retiring the ones that finish. Returns the
    /// retirements plus the modeled busy time of this tick.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by any session's executive.
    pub fn step_batch(&mut self) -> Result<(Vec<Completed>, Micros), CbError> {
        #[cfg(test)]
        assert!(!self.poison_for_test, "shard {} was poisoned for a panic test", self.id);
        #[cfg(test)]
        if self.fail_for_test {
            return Err(CbError::Codec(format!("shard {} failed for an error test", self.id)));
        }
        let batch_frames = self.config.batch_frames;
        let mut tick_busy = Micros::ZERO;
        for r in self.residents.iter_mut() {
            let frames = batch_frames.min(r.remaining_frames());
            tick_busy += r.sim.run_frames(frames)?;
            r.session.frames_done += frames;
            self.frames_stepped += frames as u64;
        }
        self.shapes_stepped += self.distinct_shapes();
        self.stats.busy += tick_busy;

        // Single order-preserving partition pass: survivors keep their
        // residency order, retirements are reported in it.
        let mut completed = Vec::new();
        let residents = std::mem::take(&mut self.residents);
        for r in residents {
            if r.remaining_frames() == 0 {
                completed.push(self.retire(r));
            } else {
                self.residents.push(r);
            }
        }
        Ok((completed, tick_busy))
    }

    /// Distinct shapes stepped per tick: the residents whose shape no
    /// earlier resident shares. A scan over at most `slots` residents, with
    /// no allocation.
    fn distinct_shapes(&self) -> u64 {
        let shapes = || self.residents.iter().map(|r| SessionShape::of(&r.session.spec.config));
        shapes().enumerate().filter(|(i, shape)| !shapes().take(*i).any(|s| s == *shape)).count()
            as u64
    }

    fn retire(&mut self, r: Resident) -> Completed {
        let report = r.sim.report();
        let cost = r.sim.cluster().metrics().total_sequential_cost;
        let telemetry = r.sim.telemetry_digest().fingerprint();
        self.stats.sessions_completed += 1;
        self.recycle(r.sim);
        let s = r.session;
        Completed {
            id: s.spec.id,
            name: s.spec.name,
            frames: s.spec.frames,
            priority: s.spec.priority,
            arrived_tick: s.arrived_tick,
            admitted_tick: s.admitted_tick,
            preempted: s.preempted,
            migrated: s.migrated,
            promoted: s.promoted,
            demoted: s.demoted,
            tier: s.spec.config.tier,
            report,
            cost,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig};

    fn tiny_spec(id: u64, seed: u64, frames: usize) -> SessionSpec {
        let mut arrivals = generate(&WorkloadConfig {
            sessions: 1,
            seed,
            base_frames: frames,
            mean_interarrival_ticks: 0,
        });
        let mut spec = arrivals.remove(0).spec;
        spec.id = id;
        spec.frames = frames;
        spec.config.exam_frames = frames;
        spec
    }

    #[test]
    fn shard_runs_a_session_to_completion() {
        let mut shard = Shard::new(
            0,
            ShardConfig { slots: 2, batch_frames: 4, pool_per_shape: 1, ..ShardConfig::default() },
            1.0,
        );
        shard.admit(tiny_spec(0, 5, 10), 0, 0).unwrap();
        assert_eq!(shard.resident_count(), 1);
        assert!(shard.backlog_cost() > Micros::ZERO);
        let mut done = Vec::new();
        for _ in 0..3 {
            let (completed, busy) = shard.step_batch().unwrap();
            assert!(busy > Micros::ZERO || !done.is_empty());
            done.extend(completed);
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].report.frames_run, 10);
        assert_eq!(shard.resident_count(), 0);
        assert_eq!(shard.stats.sessions_completed, 1);
        assert_eq!(shard.stats.sims_built, 1);
    }

    #[test]
    fn disabled_trace_records_nothing_and_allocates_nothing_on_the_hot_loop() {
        // A shard's observability is two integers its hot loop bumps: it
        // holds no sink, so there is nothing to arm and nothing to allocate.
        // A run with the deterministic sink disarmed never folds them, and
        // folding observes the loop, never steers it: a twin folded after
        // every tick steps bit-identically.
        let config =
            ShardConfig { slots: 2, batch_frames: 4, pool_per_shape: 1, ..ShardConfig::default() };
        let mut plain = Shard::new(0, config, 1.0);
        plain.admit(tiny_spec(0, 5, 8), 0, 0).unwrap();
        let mut folded = Shard::new(0, config, 1.0);
        folded.admit(tiny_spec(0, 5, 8), 0, 0).unwrap();
        let mut det = DetTrace::new();
        for _ in 0..2 {
            let plain_result = plain.step_batch().unwrap();
            let folded_result = folded.step_batch().unwrap();
            assert_eq!(plain_result, folded_result, "counting must never steer the hot loop");
            folded.fold_det_into(&mut det);
        }
        assert_eq!((plain.frames_stepped, plain.shapes_stepped), (8, 2));
        assert_eq!((folded.frames_stepped, folded.shapes_stepped), (8, 2));
        // The fold adds the running totals: 4 + 8 frames over 1 + 2 shapes.
        assert_eq!((det.counter("frames_stepped"), det.counter("cohorts_stepped")), (12, 3));
    }

    #[test]
    fn frames_and_shapes_stepped_are_counted_per_tick() {
        // Hand-computed counters on a shard of two shapes, 4 frames a tick:
        // a 4-frame Full session, and two Coarse sessions of 6 and 12 frames.
        let mut shard = Shard::new(
            0,
            ShardConfig { slots: 3, batch_frames: 4, pool_per_shape: 1, ..ShardConfig::default() },
            1.0,
        );
        let mut short_coarse = tiny_spec(1, 5, 6);
        short_coarse.config.tier = FidelityTier::Coarse;
        let mut long_coarse = tiny_spec(2, 5, 12);
        long_coarse.config.tier = FidelityTier::Coarse;
        long_coarse.config.seed ^= 0xABCD;
        for spec in [tiny_spec(0, 5, 4), short_coarse, long_coarse] {
            shard.admit(spec, 0, 0).unwrap();
        }
        let counted = |shard: &Shard| {
            let mut det = DetTrace::new();
            shard.fold_det_into(&mut det);
            (det.counter("frames_stepped"), det.counter("cohorts_stepped"))
        };
        // Tick 1: 4 + 4 + 4 frames over two shapes; the Full session retires.
        assert_eq!(shard.step_batch().unwrap().0.len(), 1);
        assert_eq!(counted(&shard), (12, 2));
        // Tick 2: the short Coarse session runs its last 2 frames beside the
        // long one's 4, one shape, and retires.
        assert_eq!(shard.step_batch().unwrap().0.len(), 1);
        assert_eq!(counted(&shard), (18, 3));
        // Tick 3: the long Coarse session alone, 4 frames, one shape.
        shard.step_batch().unwrap();
        assert_eq!(counted(&shard), (22, 4));
    }

    #[test]
    fn same_shape_sessions_recycle_the_simulator() {
        let mut shard = Shard::new(
            0,
            ShardConfig { slots: 1, batch_frames: 8, pool_per_shape: 1, ..ShardConfig::default() },
            1.0,
        );
        let first = tiny_spec(0, 5, 8);
        let mut second = tiny_spec(1, 5, 8);
        // Same shape (same generated mix from the same seed), fresh seed.
        second.config.seed ^= 0xABCD;
        shard.admit(first, 0, 0).unwrap();
        shard.step_batch().unwrap();
        shard.admit(second, 1, 1).unwrap();
        shard.step_batch().unwrap();
        assert_eq!(shard.stats.sims_built, 1, "second session must reuse the pooled rack");
        assert_eq!(shard.stats.sims_recycled, 1);
        assert_eq!(shard.stats.sessions_completed, 2);
    }

    #[test]
    fn recycled_session_reports_match_fresh_ones() {
        let spec = tiny_spec(0, 11, 12);
        // Fresh run.
        let mut fresh = Shard::new(0, ShardConfig::default(), 1.0);
        fresh.admit(spec.clone(), 0, 0).unwrap();
        let mut fresh_done = Vec::new();
        while fresh.resident_count() > 0 {
            fresh_done.extend(fresh.step_batch().unwrap().0);
        }
        // A different session first, then the same spec on the recycled rack.
        let mut warm = Shard::new(0, ShardConfig::default(), 1.0);
        let mut warmup = spec.clone();
        warmup.id = 99;
        warmup.config.seed ^= 0x77;
        warm.admit(warmup, 0, 0).unwrap();
        while warm.resident_count() > 0 {
            warm.step_batch().unwrap();
        }
        warm.admit(spec, 1, 1).unwrap();
        let mut warm_done = Vec::new();
        while warm.resident_count() > 0 {
            warm_done.extend(warm.step_batch().unwrap().0);
        }
        assert_eq!(warm.stats.sims_recycled, 1);
        assert_eq!(
            fresh_done[0].report, warm_done[0].report,
            "a recycled rack must replay the session bit for bit"
        );
    }

    #[test]
    fn shapes_distinguish_every_replay_identity_field() {
        let a = tiny_spec(0, 5, 10);
        // Per-session fields (seed, frame budget) do not change the shape...
        let mut b = a.clone();
        b.config.seed ^= 1;
        b.config.exam_frames = 99;
        assert_eq!(SessionShape::of(&a.config), SessionShape::of(&b.config));
        // ...but every field that affects the built rack or its replay does.
        let mut c = a.clone();
        c.config.display_channels += 1;
        assert_ne!(SessionShape::of(&a.config), SessionShape::of(&c.config));
        // The CPU speed does not: the shard that takes a pooled rack
        // re-stamps its own speed on it, so a rack serves every shard (see
        // `a_shape_served_one_session_at_a_time_is_built_once_fleet_wide`).
        let mut d = a.clone();
        d.config.cpu_speed = 2.0;
        assert_eq!(SessionShape::of(&a.config), SessionShape::of(&d.config));
        // The fidelity tier racks a different cluster entirely.
        let mut e = a.clone();
        e.config.tier = FidelityTier::Coarse;
        assert_ne!(SessionShape::of(&a.config), SessionShape::of(&e.config));
    }

    #[test]
    fn pool_never_hands_a_rack_across_tiers() {
        let mut shard = Shard::new(
            0,
            ShardConfig { slots: 1, batch_frames: 8, pool_per_shape: 2, ..ShardConfig::default() },
            1.0,
        );
        let full = tiny_spec(0, 5, 8);
        let mut coarse = tiny_spec(1, 5, 8);
        coarse.config.tier = FidelityTier::Coarse;
        shard.admit(full, 0, 0).unwrap();
        shard.step_batch().unwrap();
        shard.admit(coarse, 1, 1).unwrap();
        shard.step_batch().unwrap();
        assert_eq!(
            shard.stats.sims_built, 2,
            "a pooled Full rack must never serve a Coarse session"
        );
        assert_eq!(shard.stats.sims_recycled, 0);
    }

    #[test]
    fn coarse_residents_bid_and_charge_an_order_of_magnitude_less() {
        let spec = tiny_spec(0, 5, 32);
        let mut full_shard = Shard::new(0, ShardConfig::default(), 1.0);
        let mut coarse_shard = Shard::new(1, ShardConfig::default(), 1.0);
        let mut coarse_spec = spec.clone();
        coarse_spec.config.tier = FidelityTier::Coarse;
        full_shard.admit(spec, 0, 0).unwrap();
        coarse_shard.admit(coarse_spec, 0, 0).unwrap();
        // Before any frame runs, the nominal per-tier estimate already keeps
        // Coarse bids an order of magnitude below Full ones...
        assert!(full_shard.backlog_cost().0 >= 10 * coarse_shard.backlog_cost().0);
        // ...and served to completion the measured gap stays severalfold. (It
        // narrows from the nominal 19x because the one expensive first frame
        // — scene loading — amortizes over 8x fewer real frames on Coarse.)
        while full_shard.resident_count() > 0 {
            full_shard.step_batch().unwrap();
        }
        while coarse_shard.resident_count() > 0 {
            coarse_shard.step_batch().unwrap();
        }
        assert!(
            coarse_shard.stats.busy.0 * 5 <= full_shard.stats.busy.0,
            "coarse served the session at {} busy vs full {}",
            coarse_shard.stats.busy.0,
            full_shard.stats.busy.0
        );
    }

    #[test]
    fn retier_round_trip_replays_the_full_trace_bit_exactly() {
        let spec = tiny_spec(0, 13, 24);
        // Uninterrupted Full baseline.
        let mut baseline = Shard::new(0, ShardConfig::default(), 1.0);
        baseline.admit(spec.clone(), 0, 0).unwrap();
        let mut base_done = Vec::new();
        while baseline.resident_count() > 0 {
            base_done.extend(baseline.step_batch().unwrap().0);
        }
        // Full → Coarse → Full around the middle batches.
        let mut shard = Shard::new(1, ShardConfig::default(), 1.0);
        shard.admit(spec, 0, 0).unwrap();
        shard.step_batch().unwrap();
        shard.retier(0, FidelityTier::Coarse).unwrap();
        assert_eq!(shard.residents_overview()[0].tier, FidelityTier::Coarse);
        shard.step_batch().unwrap();
        let replay = shard.retier(0, FidelityTier::Full).unwrap();
        assert!(replay > Micros::ZERO, "promotion must charge the replay");
        let mut done = Vec::new();
        while shard.resident_count() > 0 {
            done.extend(shard.step_batch().unwrap().0);
        }
        assert_eq!(shard.stats.promoted, 1);
        assert_eq!(shard.stats.demoted, 1);
        assert_eq!(done[0].promoted, 1);
        assert_eq!(done[0].demoted, 1);
        assert_eq!(done[0].tier, FidelityTier::Full);
        assert_eq!(
            base_done[0].report, done[0].report,
            "a promoted session must be bit-identical to one never demoted"
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Whatever the schedule, a Full → Coarse → Full session replays the
        /// uninterrupted full-fidelity run bit for bit — score, trace and
        /// ledger — and a Coarse simulator stepped in two arbitrary chunks
        /// keeps the decimation phase of a straight run (same telemetry
        /// digest), so retier replays can cut a session anywhere.
        #[test]
        fn prop_retier_round_trip_is_bit_exact(
            seed in 0u64..(1 << 48),
            batches_full in 1usize..3,
            batches_coarse in 1usize..3,
            split in 1usize..39,
        ) {
            let frames = 40;
            let spec = tiny_spec(0, seed, frames);
            // Uninterrupted Full baseline.
            let mut baseline = Shard::new(0, ShardConfig::default(), 1.0);
            baseline.admit(spec.clone(), 0, 0).unwrap();
            let mut base_done = Vec::new();
            while baseline.resident_count() > 0 {
                base_done.extend(baseline.step_batch().unwrap().0);
            }
            // Full → Coarse → Full at the proptest-chosen cut points.
            let mut shard = Shard::new(1, ShardConfig::default(), 1.0);
            shard.admit(spec.clone(), 0, 0).unwrap();
            for _ in 0..batches_full {
                shard.step_batch().unwrap();
            }
            shard.retier(0, FidelityTier::Coarse).unwrap();
            for _ in 0..batches_coarse {
                shard.step_batch().unwrap();
            }
            shard.retier(0, FidelityTier::Full).unwrap();
            let mut done = Vec::new();
            while shard.resident_count() > 0 {
                done.extend(shard.step_batch().unwrap().0);
            }
            prop_assert_eq!(done.len(), 1);
            prop_assert_eq!((done[0].promoted, done[0].demoted), (1, 1));
            prop_assert_eq!(&base_done[0].report, &done[0].report);
            // The Coarse decimation phase survives an arbitrary split — the
            // bookkeeping a retier replay relies on when it re-runs a session
            // whose frame count is not a multiple of the decimation factor.
            let mut coarse_config = spec.config;
            coarse_config.tier = FidelityTier::Coarse;
            let mut straight = CraneSimulator::new(coarse_config).unwrap();
            straight.run_frames(frames).unwrap();
            let mut chunked = CraneSimulator::new(coarse_config).unwrap();
            chunked.run_frames(split).unwrap();
            chunked.run_frames(frames - split).unwrap();
            prop_assert_eq!(straight.telemetry_digest(), chunked.telemetry_digest());
            prop_assert_eq!(straight.report(), chunked.report());
        }
    }

    #[test]
    fn overshot_resident_retires_instead_of_underflowing() {
        // Regression: the hot loop once computed `spec.frames - frames_done`
        // unguarded, so a resumed session whose frames_done exceeded its
        // budget (a shrunk spec, or an over-replayed portable) panicked the
        // shard instead of retiring the session.
        let mut shard = Shard::new(0, ShardConfig::default(), 1.0);
        let spec = tiny_spec(0, 5, 4);
        let portable = PortableSession {
            spec,
            frames_done: 6, // more than the 4-frame budget
            arrived_tick: 0,
            admitted_tick: 0,
            preempted: 0,
            migrated: 0,
            promoted: 0,
            demoted: 0,
        };
        shard.resume(portable).unwrap();
        let (completed, _) = shard.step_batch().unwrap();
        assert_eq!(completed.len(), 1, "overshot resident must retire");
        assert_eq!(shard.resident_count(), 0);
    }

    #[test]
    fn retirements_and_survivors_keep_residency_order() {
        // Guards the single-pass partition sweep: multiple sessions retiring
        // on the same tick come out in residency order, and the survivors
        // stay in theirs.
        let mut shard =
            Shard::new(0, ShardConfig { slots: 5, batch_frames: 8, ..ShardConfig::default() }, 1.0);
        // ids 0..5 with frame budgets that finish 0, 2 and 4 on the first tick.
        for (id, frames) in [(0u64, 4usize), (1, 20), (2, 8), (3, 20), (4, 6)] {
            shard.admit(tiny_spec(id, 5 + id, frames), 0, 0).unwrap();
        }
        let (completed, _) = shard.step_batch().unwrap();
        let retired: Vec<u64> = completed.iter().map(|c| c.id).collect();
        assert_eq!(retired, vec![0, 2, 4], "retirements must keep residency order");
        let survivors: Vec<u64> = shard.residents_overview().iter().map(|v| v.id).collect();
        assert_eq!(survivors, vec![1, 3], "survivors must keep residency order");
    }

    #[test]
    fn backlog_cost_saturates_instead_of_wrapping() {
        // Regression: `Micros(per_frame.0 * remaining)` wrapped for a long
        // session spec, turning an overloaded shard into the *most*
        // attractive placement target.
        let mut shard = Shard::new(0, ShardConfig::default(), 1.0);
        let mut spec = tiny_spec(0, 5, 4);
        spec.frames = usize::MAX / 2;
        shard.admit(spec, 0, 0).unwrap();
        assert_eq!(
            shard.backlog_cost(),
            Micros(u64::MAX),
            "a huge frame budget must pin the hint at the ceiling, not wrap"
        );
    }

    #[test]
    fn slow_shards_advertise_proportionally_larger_backlogs() {
        let spec = tiny_spec(0, 5, 10);
        let mut reference = Shard::new(0, ShardConfig::default(), 1.0);
        let mut slow = Shard::new(1, ShardConfig::default(), 0.5);
        reference.admit(spec.clone(), 0, 0).unwrap();
        slow.admit(spec, 0, 0).unwrap();
        // Before any frame runs the nominal estimate is speed-scaled...
        assert_eq!(slow.backlog_cost().0, reference.backlog_cost().0 * 2);
        // ...and after a batch the measured hints keep the same relation.
        reference.step_batch().unwrap();
        slow.step_batch().unwrap();
        assert!(slow.backlog_cost() > reference.backlog_cost());
    }

    #[test]
    fn extracted_session_resumes_bit_exactly_on_another_shard() {
        let spec = tiny_spec(0, 13, 16);
        // Uninterrupted baseline.
        let mut baseline = Shard::new(0, ShardConfig::default(), 1.0);
        baseline.admit(spec.clone(), 0, 0).unwrap();
        let mut base_done = Vec::new();
        while baseline.resident_count() > 0 {
            base_done.extend(baseline.step_batch().unwrap().0);
        }
        // Same session, interrupted after one batch and migrated.
        let mut donor = Shard::new(1, ShardConfig::default(), 1.0);
        let mut receiver = Shard::new(2, ShardConfig::default(), 1.0);
        donor.admit(spec, 0, 0).unwrap();
        donor.step_batch().unwrap();
        let portable = donor.extract(0, true);
        assert_eq!(portable.frames_done, 8);
        assert_eq!(portable.migrated, 1);
        receiver.note_migrated_in();
        let replay = receiver.resume(portable).unwrap();
        assert!(replay > Micros::ZERO, "fast-forward must charge modeled time");
        let mut moved_done = Vec::new();
        while receiver.resident_count() > 0 {
            moved_done.extend(receiver.step_batch().unwrap().0);
        }
        assert_eq!(donor.stats.migrated_out, 1);
        assert_eq!(receiver.stats.migrated_in, 1);
        assert_eq!(receiver.stats.replayed_frames, 8);
        assert_eq!(
            base_done[0].report, moved_done[0].report,
            "a migrated session must replay the original bit for bit"
        );
        assert_eq!(moved_done[0].migrated, 1);
    }

    #[test]
    fn resume_on_a_different_speed_preserves_physics() {
        let spec = tiny_spec(0, 17, 16);
        let mut baseline = Shard::new(0, ShardConfig::default(), 1.0);
        baseline.admit(spec.clone(), 0, 0).unwrap();
        let mut base_done = Vec::new();
        while baseline.resident_count() > 0 {
            base_done.extend(baseline.step_batch().unwrap().0);
        }
        let mut donor = Shard::new(1, ShardConfig::default(), 0.5);
        let mut fast = Shard::new(2, ShardConfig::default(), 2.0);
        donor.admit(spec, 0, 0).unwrap();
        donor.step_batch().unwrap();
        let portable = donor.extract(0, true);
        fast.resume(portable).unwrap();
        let mut moved_done = Vec::new();
        while fast.resident_count() > 0 {
            moved_done.extend(fast.step_batch().unwrap().0);
        }
        // Scores, pass/fail and frame counts are speed-independent; only the
        // modeled cost changes with the machine.
        assert_eq!(base_done[0].report.score, moved_done[0].report.score);
        assert_eq!(base_done[0].report.passed, moved_done[0].report.passed);
        assert_eq!(base_done[0].report.frames_run, moved_done[0].report.frames_run);
        assert!(moved_done[0].cost < base_done[0].cost);
    }
}
