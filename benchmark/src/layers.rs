//! The per-layer side of the benchmark: everything `--trace 1` reports.
//!
//! Three sources, all outside the program:
//!
//! * the **frame waterfall** — the workload's sample sessions replayed on a
//!   [`TracedRack`] beside an untraced `CraneSimulator` twin, digest-checked;
//! * the **drain waterfall** — a fleet drained with the program's own
//!   `ObsConfig::Full` sinks armed, its `WallTrace` spans summed by category;
//! * **probes** — isolated timed calls into one layer with the workload's
//!   inputs, and counts read from program-returned stats.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use cod_bench::measure::{measure, MeasureConfig};
use cod_bench::EstablishedPair;
use cod_cb::{AttributeId, Value};
use cod_fleet::{
    run_fleet_timed, run_fleet_traced, AdmissionConfig, AdmissionState, ExecutionMode, FleetConfig,
    FleetReport, ObsConfig, SessionShape, SessionSpec, Shard, ShardConfig, WorkloadConfig,
};
use cod_json::Json;
use cod_net::{LanConfig, LanStats};
use crane_sim::{step_frames_batch_traced, BatchStepStats, CraneSimulator, FidelityTier};
use sim_math::Vec3;

use crate::rack::{TracedRack, CB_SPAN, FRAME_SPAN};
use crate::stats::{median, percentile, tail_is_supported};
use crate::workloads::ratio;

/// Named values for the per-layer table.
pub type LayerValues = Vec<(&'static str, f64)>;

// ---------------------------------------------------------- frame waterfall

/// At most this many passes over the sample sessions: spans stay in memory
/// until the stage ends, and four passes already give >10k traced frames.
const MAX_WATERFALL_PASSES: usize = 4;

/// An untraced simulator and its traced twin, built for one session shape.
struct Twin {
    plain: CraneSimulator,
    traced: TracedRack,
}

fn step_timed(
    frames: usize,
    walls_us: &mut Vec<f64>,
    mut step: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut mark = Instant::now();
    for _ in 0..frames {
        step()?;
        let now = Instant::now();
        walls_us.push((now - mark).as_nanos() as f64 / 1e3);
        mark = now;
    }
    Ok(())
}

/// Replays `sessions` (on the Full tier) on untraced and traced racks until
/// `budget` is spent, and attributes the traced frame to its layers.
///
/// # Errors
///
/// Returns an error — and thereby discards the waterfall — if a traced
/// session does not end on the digest of its untraced twin.
pub fn frame_waterfall(sessions: &[SessionSpec], budget: Duration) -> Result<LayerValues, String> {
    let started = Instant::now();
    let mut twins: BTreeMap<SessionShape, Twin> = BTreeMap::new();
    let mut lan = LanStats::default();
    let (mut p50s, mut p99s, mut traced_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut discovery_us = Vec::new();
    for pass in 0..MAX_WATERFALL_PASSES {
        if pass > 0 && started.elapsed() >= budget {
            break;
        }
        let (mut plain_us, mut traced_us) = (Vec::new(), Vec::new());
        for spec in sessions {
            let mut config = spec.config;
            config.tier = FidelityTier::Full;
            let twin = match twins.entry(SessionShape::of(&config)) {
                Entry::Occupied(slot) => {
                    let twin = slot.into_mut();
                    twin.plain.reset_for_session(config.seed).map_err(|e| e.to_string())?;
                    twin.traced.reset_for_session(config.seed).map_err(|e| e.to_string())?;
                    twin
                }
                Entry::Vacant(slot) => {
                    let plain = CraneSimulator::new(config).map_err(|e| e.to_string())?;
                    let traced = TracedRack::new(config).map_err(|e| e.to_string())?;
                    discovery_us.push(traced.discovery.as_nanos() as f64 / 1e3);
                    slot.insert(Twin { plain, traced })
                }
            };
            twin.plain.set_fault_plan(spec.fault_plan.clone());
            twin.traced.set_fault_plan(spec.fault_plan.clone());
            let Twin { plain, traced } = twin;
            step_timed(spec.frames, &mut plain_us, || {
                plain.step_frame().map(|_| ()).map_err(|e| e.to_string())
            })?;
            step_timed(spec.frames, &mut traced_us, || {
                traced.step_frame().map_err(|e| e.to_string())
            })?;
            let (want, got) = (plain.telemetry_digest(), traced.telemetry_digest());
            if want != got {
                return Err(format!(
                    "traced rack diverged on session {}: {:016x} != {:016x}",
                    spec.name,
                    got.fingerprint(),
                    want.fingerprint()
                ));
            }
            let session_lan = traced.lan_stats();
            lan.datagrams_sent += session_lan.datagrams_sent;
            lan.deliveries += session_lan.deliveries;
            lan.bytes_sent += session_lan.bytes_sent;
            lan.fault_drops += session_lan.fault_drops;
        }
        p50s.push(percentile(&plain_us, 50.0));
        if tail_is_supported(plain_us.len(), 99.0) {
            p99s.push(percentile(&plain_us, 99.0));
        }
        traced_p50s.push(percentile(&traced_us, 50.0));
    }

    let mut by_name: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for twin in twins.values() {
        let log = twin.traced.log().lock().expect("span log poisoned");
        for (name, (count, self_ns)) in log.self_time_by_name() {
            let entry = by_name.entry(name).or_default();
            entry.0 += count;
            entry.1 += self_ns;
        }
    }
    let (frames, executive_ns) = by_name.get(FRAME_SPAN).copied().unwrap_or_default();
    if frames == 0 {
        return Err("the waterfall traced no frame".into());
    }
    let per_frame = |n: u64| n as f64 / frames as f64;
    let total_ns: u64 = by_name.values().map(|(_, ns)| ns).sum();
    let (cb_calls, cb_ns) = by_name.get(CB_SPAN).copied().unwrap_or_default();
    let mut values: LayerValues = vec![
        ("cod-cluster.executive_self_ns", per_frame(executive_ns)),
        ("cod-cluster.executive_self_share", ratio(executive_ns, total_ns)),
        ("cod-cb.api_calls_per_frame", per_frame(cb_calls)),
        ("cod-cb.api_ns_per_frame", per_frame(cb_ns)),
        ("cod-net.datagrams_per_frame", per_frame(lan.datagrams_sent)),
        ("cod-net.deliveries_per_frame", per_frame(lan.deliveries)),
        ("cod-net.bytes_per_frame", per_frame(lan.bytes_sent)),
        ("cod-net.fault_drop_share", ratio(lan.fault_drops, lan.datagrams_sent)),
        ("cod-cb.discovery_us", median(&discovery_us)),
        ("crane-sim.frame_wall_us_p50", median(&p50s)),
        ("bench.trace_overhead_pct", (median(&traced_p50s) / median(&p50s) - 1.0) * 100.0),
    ];
    if !p99s.is_empty() {
        values.push(("crane-sim.frame_wall_us_p99", median(&p99s)));
    }
    for m in crate::metrics::PER_LAYER {
        if let Some((_, self_ns)) = by_name.get(m.name) {
            values.push((m.name, per_frame(*self_ns)));
        }
    }
    Ok(values)
}

// ------------------------------------------------------------------ probes

/// Median nanoseconds per call of `routine`: seven samples of ~4 ms each
/// after a calibration run, ~35 ms a probe.
fn probe_ns(routine: impl FnMut()) -> f64 {
    let config = MeasureConfig {
        warmup_iters: 1,
        samples: 7,
        target_sample_time: Duration::from_millis(4),
        max_iters_per_sample: 10_000,
        bootstrap_resamples: 1,
        ..MeasureConfig::default()
    };
    measure(&config, routine).median_ns()
}

/// Median nanoseconds of the part of `routine` that `routine` itself times,
/// for calls that need untimed preparation before every sample.
fn probe_timed_ns(mut routine: impl FnMut() -> Result<Duration, String>) -> Result<f64, String> {
    let timings = (0..15)
        .map(|_| routine().map(|d| d.as_nanos() as f64))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&timings))
}

/// Kernel probes: one call into each leaf crate, the routines experiments
/// E2–E5 of `cod-bench` time, shrunk to a few milliseconds each.
fn kernel_probes() -> LayerValues {
    use crane_physics::collision::CollisionWorld;
    use crane_physics::terrain::FlatTerrain;
    use crane_physics::{
        CablePendulum, CraneControls, CraneRig, CraneVehicle, DriveControls, VehicleParams,
    };
    use crane_scene::world::TrainingWorld;
    use motion_platform::{MotionController, MotionCue};

    const DT: f64 = 1.0 / 60.0;
    let mut values = LayerValues::new();

    // The audio LP's mixer: 11.025 kHz, one 16 fps frame per render.
    let mut mixer = audio_sim::Mixer::new(11_025);
    mixer.add_background_noise();
    mixer.handle_event(audio_sim::SoundEvent::EngineLoad { intensity: 0.6 });
    mixer.handle_event(audio_sim::SoundEvent::MotorWorking { active: true });
    values.push(("audio-sim.mix_frame_ns", probe_ns(|| drop(black_box(mixer.render(1.0 / 16.0))))));

    let terrain = FlatTerrain::default();
    let mut vehicle = CraneVehicle::new(VehicleParams::default(), Vec3::ZERO, 0.0);
    let mut rig = CraneRig::default();
    let mut pendulum = CablePendulum::new(Vec3::new(0.0, 15.0, 0.0), 6.0, 120.0);
    pendulum.attach_cargo(1_500.0);
    values.push((
        "crane-physics.dynamics_frame_ns",
        probe_ns(|| {
            let drive = DriveControls { throttle: 0.7, steering: 0.2, ..Default::default() };
            vehicle.step(drive, &terrain, DT);
            rig.step(CraneControls { slew: 0.4, luff: 0.2, ..Default::default() }, DT);
            let tip = rig.boom_tip_world(&vehicle.chassis_transform());
            pendulum.step(black_box(tip), 6.0, DT);
        }),
    ));

    values.push((
        "crane-scene.world_build_us",
        probe_ns(|| drop(black_box(TrainingWorld::build()))) / 1e3,
    ));
    let training = TrainingWorld::build();
    let mut world = CollisionWorld::from_obstacles(&training.obstacles);
    world.build_grid(12.0);
    let path = training.course.trajectory.clone();
    values.push((
        "crane-physics.collision_sweep_ns",
        probe_ns(|| {
            let mut contacts = 0;
            for p in &path {
                contacts += world.query_sphere(*p + Vec3::new(0.0, 2.0, 0.0), 0.8).len();
            }
            black_box(contacts);
        }),
    ));

    let gpu = render_sim::GpuCostModel::tnt2_class();
    let mut triangles = 3_000usize;
    values.push((
        "render-sim.channel_cost_ns",
        probe_ns(|| {
            triangles = 3_000 + (triangles + 1) % 64;
            black_box(gpu.frame_time(black_box(triangles), 64 * 48));
        }),
    ));

    let mut controller = MotionController::new(16.0, 3);
    values.push((
        "motion-platform.controller_frame_ns",
        probe_ns(|| {
            controller.push_cue(MotionCue {
                acceleration: Vec3::new(0.5, 0.0, 1.5),
                pitch: 0.02,
                roll: -0.01,
                yaw_rate: 0.1,
                engine_intensity: 0.7,
            });
            for _ in 0..12 {
                black_box(controller.servo_step(1.0 / (16.0 * 12.0)));
            }
        }),
    ));

    // A damped pendulum in (angle, rate): the shape of the dynamics LP's state.
    let deriv = |_t: f64, s: &[f64]| vec![s[1], -9.81 / 6.0 * s[0].sin() - 0.05 * s[1]];
    let mut state = vec![0.3, 0.0];
    values.push((
        "sim-math.rk4_step_ns",
        probe_ns(|| state = sim_math::integrate::rk4_step(black_box(&state), deriv, 0.0, DT)),
    ));
    let mut lanes: Vec<Vec<f64>> = (0..8).map(|i| vec![0.1 + 0.05 * f64::from(i), 0.0]).collect();
    values.push((
        "sim-math.rk4_batch8_lane_ns",
        probe_ns(|| {
            sim_math::batch::rk4_step_batch(black_box(&mut lanes), |_, t, s| deriv(t, s), 0.0, DT)
        }) / 8.0,
    ));
    values
}

/// One 1 KiB update→deliver round between two established CB kernels.
fn cb_round_probe() -> f64 {
    let mut pair = EstablishedPair::new(LanConfig::fast_ethernet(3));
    let object = pair
        .publisher
        .register_object_instance(pair.publisher_lp, pair.class)
        .expect("publisher registers its object");
    let blob = Value::Bytes(vec![0xAB; 1_024]);
    probe_ns(|| {
        pair.publisher
            .update_attribute_values(
                pair.publisher_lp,
                object,
                [(AttributeId(0), blob.clone())].into(),
                pair.now,
            )
            .expect("established channel accepts the update");
        pair.round();
        pair.round();
        black_box(pair.subscriber.reflections(pair.subscriber_lp).len());
    })
}

/// Simulator probes on `sample`: build, reset and step, on both tiers.
fn simulator_probes(sample: &SessionSpec) -> Result<LayerValues, String> {
    let mut values = LayerValues::new();
    for (tier, build_name, step_name) in [
        (FidelityTier::Full, "crane-sim.rack_build_us", "crane-sim.step_frame_full_ns"),
        (FidelityTier::Coarse, "crane-sim.rack_build_coarse_us", "crane-sim.step_frame_coarse_ns"),
    ] {
        let mut config = sample.config;
        config.tier = tier;
        let mut sim = CraneSimulator::new(config).map_err(|e| e.to_string())?;
        sim.set_fault_plan(sample.fault_plan.clone());
        let build = probe_ns(|| drop(black_box(CraneSimulator::new(config))));
        values.push((build_name, build / 1e3));
        // Amortised over session frames: a Coarse rack steps its cluster on
        // a fraction of them.
        values.push((step_name, probe_ns(|| drop(black_box(sim.step_frame())))));
        if tier == FidelityTier::Full {
            // A reset pays for what the session left behind: dirty the rack
            // first, time only the reset.
            let reset = probe_timed_ns(|| {
                for _ in 0..16 {
                    sim.step_frame().map_err(|e| e.to_string())?;
                }
                let started = Instant::now();
                black_box(sim.reset_for_session(config.seed)).map_err(|e| e.to_string())?;
                Ok(started.elapsed())
            })?;
            values.push(("crane-sim.reset_us", reset / 1e3));
        }
    }
    Ok(values)
}

/// A session of `spec`'s shape that outlasts any probe.
fn endless(spec: &SessionSpec, id: u64) -> SessionSpec {
    let mut spec = spec.clone();
    spec.id = id;
    spec.frames = usize::MAX / 2;
    spec
}

/// Shard probes: admission with and without a pooled rack, one batch step of
/// a full shard, and the extract→resume replay behind preemption, migration
/// and re-tiering.
fn shard_probes(samples: &[SessionSpec], config: ShardConfig) -> Result<LayerValues, String> {
    const REPLAY_FRAMES: usize = 64;
    let first = &samples[0];
    let mut values = LayerValues::new();

    values.push((
        "cod-fleet.shard.admit_build_us",
        probe_ns(|| {
            let mut shard = Shard::new(0, config, 1.0);
            black_box(shard.admit(first.clone(), 0, 0)).expect("a fresh shard admits");
        }) / 1e3,
    ));

    // One batch-long sessions: each retires into the pool, so the next
    // admission recycles a used rack.
    let mut recycler = Shard::new(0, config, 1.0);
    let short = SessionSpec { frames: config.batch_frames, ..first.clone() };
    let recycle = probe_timed_ns(|| {
        let spec = short.clone();
        let started = Instant::now();
        recycler.admit(spec, 0, 0).map_err(|e| e.to_string())?;
        let elapsed = started.elapsed();
        recycler.step_batch().map_err(|e| e.to_string())?;
        Ok(elapsed)
    })?;
    values.push(("cod-fleet.shard.admit_recycle_us", recycle / 1e3));

    let mut shard = Shard::new(0, config, 1.0);
    shard.admit(endless(first, 0), 0, 0).map_err(|e| e.to_string())?;
    for _ in 0..REPLAY_FRAMES.div_ceil(config.batch_frames) {
        shard.step_batch().map_err(|e| e.to_string())?;
    }
    let done = REPLAY_FRAMES.div_ceil(config.batch_frames) * config.batch_frames;
    values.push((
        "cod-fleet.shard.replay_ns_per_frame",
        probe_ns(|| {
            let portable = shard.extract(0, false);
            black_box(shard.resume(portable)).expect("a pooled rack replays");
        }) / done as f64,
    ));

    let mut full = Shard::new(0, config, 1.0);
    for (slot, spec) in samples.iter().cycle().take(config.slots).enumerate() {
        full.admit(endless(spec, slot as u64), 0, 0).map_err(|e| e.to_string())?;
    }
    values.push((
        "cod-fleet.shard.step_batch_us",
        probe_ns(|| drop(black_box(full.step_batch()))) / 1e3,
    ));
    Ok(values)
}

/// Driver-side probes: workload generation, one admission-ledger cycle and
/// report rendering.
fn driver_probes(workload: &WorkloadConfig) -> Result<LayerValues, String> {
    let mut values = LayerValues::new();
    values.push((
        "cod-fleet.workload.generate_us",
        probe_ns(|| drop(black_box(cod_fleet::generate(workload)))) / 1e3,
    ));
    let mut admission =
        AdmissionState::new(AdmissionConfig { shards: 4, slots_per_shard: 4, max_pending: 32 });
    values.push((
        "cod-fleet.admission.op_ns",
        probe_ns(|| {
            // offer → place → complete: the ledger work of one session.
            admission.offer(cod_fleet::Priority::Training);
            if let Some((shard, _)) = admission.place() {
                admission.complete(shard);
            }
        }) / 3.0,
    ));
    let small = FleetConfig {
        workload: WorkloadConfig { sessions: 16, base_frames: 8, ..*workload },
        ..FleetConfig::quick(2, workload.seed)
    };
    let (outcome, _) = run_fleet_timed(&small).map_err(|e| e.to_string())?;
    values.push((
        "cod-fleet.report.render_us",
        probe_ns(|| drop(black_box(FleetReport::from_outcome(&outcome).to_json().to_pretty())))
            / 1e3,
    ));
    Ok(values)
}

/// Every probe of a layer on the workload's path, with `samples` (non-empty)
/// as inputs: kernels, CB and simulator always, the shard when sessions run
/// on one, the fleet driver when a fleet drains them.
///
/// # Errors
///
/// Returns the first error a probed call raises during its set-up.
pub fn probes(
    samples: &[SessionSpec],
    shard: Option<ShardConfig>,
    fleet: Option<&FleetConfig>,
) -> Result<LayerValues, String> {
    let mut values = kernel_probes();
    values.push(("cod-cb.remote_round_ns", cb_round_probe()));
    values.extend(simulator_probes(&samples[0])?);
    if let Some(config) = shard {
        values.extend(shard_probes(samples, config)?);
    }
    if let Some(config) = fleet {
        values.extend(driver_probes(&config.workload)?);
    }
    Ok(values)
}

/// Steps the first cohort of `samples` in lockstep through the program's
/// traced batch stepper and reads its counters: what a shard's cohort of
/// this workload shares.
///
/// # Errors
///
/// Returns the first error raised by a session's executive.
pub fn cohort_counts(samples: &[SessionSpec], config: ShardConfig) -> Result<LayerValues, String> {
    let cohort: Vec<&SessionSpec> = samples.iter().take(config.slots).collect();
    let mut sims = cohort
        .iter()
        .map(|spec| CraneSimulator::new(spec.config).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let frames = cohort.iter().map(|spec| spec.frames).min().unwrap_or(0);
    let mut stats = BatchStepStats::default();
    let batches = frames / config.batch_frames;
    for _ in 0..batches {
        let mut batch: Vec<(&mut CraneSimulator, usize)> =
            sims.iter_mut().map(|sim| (sim, config.batch_frames)).collect();
        step_frames_batch_traced(&mut batch, Some(&mut stats)).map_err(|e| e.to_string())?;
    }
    Ok(vec![
        (
            "audio-sim.wavebank_hit_rate",
            ratio(stats.memo_hits, stats.memo_hits + stats.memo_misses),
        ),
        (
            "cod-fleet.shard.mean_cohort_size",
            ratio(stats.frames_stepped, (batches * config.batch_frames) as u64),
        ),
    ])
}

// ---------------------------------------------------------- drain waterfall

/// The spans of one lane of a `WallTrace`, by category.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LaneSpans {
    /// Durations (µs) of complete spans, keyed by category.
    pub durations_us: BTreeMap<String, Vec<f64>>,
}

impl LaneSpans {
    fn total(&self, cat: &str) -> f64 {
        self.durations_us.get(cat).map_or(0.0, |d| d.iter().sum())
    }
}

/// Splits a Chrome trace-event document into per-lane span durations.
pub fn lanes_of(chrome: &Json) -> BTreeMap<u64, LaneSpans> {
    let mut lanes: BTreeMap<u64, LaneSpans> = BTreeMap::new();
    for event in chrome.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
        let field = |key: &str| event.get(key).and_then(Json::as_f64);
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let (Some(tid), Some(dur), Some(cat)) =
            (field("tid"), field("dur"), event.get("cat").and_then(Json::as_str))
        else {
            continue;
        };
        let lane = lanes.entry(tid as u64).or_default();
        lane.durations_us.entry(cat.to_owned()).or_default().push(dur);
    }
    lanes
}

/// Wall-clock of one drain of `config`.
fn drain_wall(config: &FleetConfig) -> Result<f64, String> {
    let started = Instant::now();
    run_fleet_timed(config).map_err(|e| e.to_string())?;
    Ok(started.elapsed().as_secs_f64())
}

/// Drains `config` with the program's sinks armed until `budget` is spent
/// (at least twice) and reports where the drain's wall time went.
/// `frame_us` is the untraced per-frame latency of this workload's sessions.
///
/// # Errors
///
/// Returns an error if a drain fails or the deterministic counters of two
/// traced drains differ.
pub fn drain_waterfall(
    config: &FleetConfig,
    frame_us: f64,
    budget: Duration,
) -> Result<LayerValues, String> {
    let started = Instant::now();
    let armed = FleetConfig { obs: ObsConfig::Full, ..config.clone() };
    let workers = config.execution.threads_for(config.shards);
    let mut det_fingerprint = None;
    let mut rows: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, value: f64| rows.entry(name).or_default().push(value);
    let (mut armed_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut drains = 0;
    while drains < 2 || started.elapsed() < budget {
        drains += 1;
        let drain_started = Instant::now();
        let (outcome, stats, artifacts) = run_fleet_traced(&armed).map_err(|e| e.to_string())?;
        armed_walls.push(drain_started.elapsed().as_secs_f64());
        plain_walls.push(drain_wall(config)?);

        let det = artifacts.det.ok_or("ObsConfig::Full returned no DetTrace")?;
        if *det_fingerprint.get_or_insert(det.fingerprint()) != det.fingerprint() {
            return Err("DetTrace counters differ between two traced drains".into());
        }
        let (hits, misses) = (det.counter("memo_hits"), det.counter("memo_misses"));
        push("audio-sim.wavebank_hit_rate", ratio(hits, hits + misses));
        push(
            "cod-fleet.shard.mean_cohort_size",
            ratio(
                det.counter("frames_stepped"),
                det.counter("cohorts_stepped") * config.shard.batch_frames as u64,
            ),
        );

        let wall = artifacts.wall.ok_or("ObsConfig::Full returned no WallTrace")?;
        let lanes = lanes_of(&wall.to_chrome_json());
        let driver = lanes.get(&0).cloned().unwrap_or_default();
        let ticks = driver.durations_us.get("tick").cloned().unwrap_or_default();
        if ticks.is_empty() {
            return Err("the traced drain recorded no tick span".into());
        }
        let tick_total: f64 = ticks.iter().sum();
        push("cod-fleet.fleet.tick_us_p50", percentile(&ticks, 50.0));
        if tail_is_supported(ticks.len(), 95.0) {
            push("cod-fleet.fleet.tick_us_p95", percentile(&ticks, 95.0));
        }
        push("cod-fleet.fleet.driver_serial_share", 1.0 - driver.total("step") / tick_total);
        let wall_us = stats.wall.as_secs_f64() * 1e6;
        let worker_lanes: Vec<&LaneSpans> =
            lanes.iter().filter(|(lane, _)| **lane != 0).map(|(_, spans)| spans).collect();
        let busy: f64 = worker_lanes.iter().map(|l| l.total("step")).sum();
        let idle: f64 = worker_lanes.iter().map(|l| l.total("idle")).sum();
        push("cod-fleet.executor.busy_share", busy / (wall_us * workers as f64));
        push("cod-fleet.executor.idle_share", idle / (wall_us * workers as f64));
        let tasks: Vec<f64> = worker_lanes
            .iter()
            .flat_map(|l| l.durations_us.get("step").cloned().unwrap_or_default())
            .collect();
        if !tasks.is_empty() {
            push("cod-fleet.executor.task_us_p50", percentile(&tasks, 50.0));
        }
        push("cod-fleet.executor.tasks", stats.worker_tasks.iter().sum::<u64>() as f64);
        push("cod-fleet.executor.steals", stats.worker_steals.iter().sum::<u64>() as f64);
        push("cod-fleet.executor.idle_spins", stats.worker_idle_spins.iter().sum::<u64>() as f64);
        push(
            "cod-fleet.fleet.nonstepping_share",
            1.0 - stats.stepping_wall.as_secs_f64() / stats.wall.as_secs_f64(),
        );
        let frames: u64 = outcome.sessions.iter().map(|s| s.frames as u64).sum();
        push(
            "cod-fleet.fleet.wall_per_frame_ratio",
            stats.wall.as_secs_f64() * 1e6 / (frames as f64 * frame_us),
        );
    }

    let modeled = drain_wall(&FleetConfig { execution: ExecutionMode::Modeled, ..config.clone() })?;
    let single = drain_wall(&FleetConfig {
        execution: ExecutionMode::WallClock { threads: 1 },
        ..config.clone()
    })?;
    let mut values: LayerValues =
        rows.into_iter().map(|(name, samples)| (name, median(&samples))).collect();
    values.push(("cod-fleet.executor.overhead_ratio", single / modeled));
    values.push(("cod-fleet.executor.wall_scaling", single / median(&plain_walls)));
    values.push((
        "cod-trace.obs_overhead_pct",
        (median(&armed_walls) / median(&plain_walls) - 1.0) * 100.0,
    ));
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_fleet::WallTrace;

    #[test]
    fn chrome_events_split_into_lanes_and_categories() {
        let wall = WallTrace::new(2);
        let t0 = wall.now_us();
        wall.complete(0, "tick0".into(), "tick", t0);
        wall.complete(0, "step-phase".into(), "step", t0);
        wall.complete(WallTrace::worker_lane(0), "shard0".into(), "step", t0);
        wall.complete(WallTrace::worker_lane(1), "idle".into(), "idle", t0);
        wall.instant(WallTrace::worker_lane(1), "sibling-steal", "steal");
        let lanes = lanes_of(&wall.to_chrome_json());
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes[&0].durations_us["tick"].len(), 1);
        assert_eq!(lanes[&0].durations_us["step"].len(), 1);
        assert_eq!(lanes[&1].durations_us["step"].len(), 1);
        assert_eq!(lanes[&2].durations_us["idle"].len(), 1);
        assert!(!lanes[&2].durations_us.contains_key("steal"), "instants are not spans");
        assert_eq!(lanes[&1].total("idle"), 0.0);
    }
}
