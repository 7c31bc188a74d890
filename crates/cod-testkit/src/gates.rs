//! The gate registry: every standing gate of the workspace, one row each,
//! each run at one size by the `gates` binary.
//!
//! [`SOURCES`] lists the five artifact families. Each source's run drains
//! what its gates read, writes its `*_cod.json` artifacts to the working
//! directory and hands the artifacts to a pure check — [`bench_rows`],
//! [`audit_rows`], [`scenario_rows`], [`fleet_rows`], [`trace_rows`] — that
//! turns them into [`GateRow`]s. The checks read nothing but their
//! arguments, so a unit test can hand each one a sabotaged artifact and
//! watch the row it guards fail by name.

use std::collections::BTreeMap;
use std::fmt;

use cod_audit::{audit_tree, AuditConfig, AuditReport};
use cod_bench::experiments::audio_mix::KERNEL_SPEEDUP_FLOOR;
use cod_bench::experiments::cluster_speedup::SPEEDUP_FLOOR;
use cod_bench::experiments::observability::TRACING_OVERHEAD_CEILING_PCT;
use cod_bench::experiments::{self, EXPERIMENTS};
use cod_bench::report::BenchReport;
use cod_fleet::{
    document, run_fleet, run_fleet_timed, run_fleet_traced, ExecutionMode, FleetConfig,
    FleetOutcome, FleetReport, ObsConfig, PlacementPolicy, Priority, TieredSection, WorkloadConfig,
};
use crane_sim::SCORE_DRIFT_TOLERANCE;

use crate::matrix::{run_matrix, MatrixConfig, MatrixSummary};

/// Seed of every fleet and trace run.
pub const SEED: u64 = 0xC0D;

/// Shards of the headline fleet.
pub const SHARDS: usize = 4;

/// Minimum sessions/sec scaling from one shard to [`SHARDS`].
const SCALING_FLOOR: f64 = 2.0;

/// Minimum *wall-clock* sessions/sec scaling from 1 to 4 executor threads.
/// Deliberately conservative: shard batches are coarse and the workload
/// small, so perfect 4x is never on the table, and small CI runners share
/// cores with the rest of the job — 1.5x is the floor real parallelism must
/// clear, not a target.
const WALLCLOCK_SCALING_FLOOR: f64 = 1.5;

/// Minimum modeled-capacity multiplier of the tiered run over the all-Full
/// run on the same rack and seed.
const TIERED_CAPACITY_FLOOR: f64 = 2.0;

/// Which side of its bound a gated value must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The value must be at least the bound.
    Floor(f64),
    /// The value must be at most the bound.
    Ceiling(f64),
    /// The value must be strictly greater than the bound.
    Above(f64),
    /// Printed, never failed: this machine cannot measure what the gate is
    /// about.
    Ungated,
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::Floor(bound) => value >= bound,
            Bound::Ceiling(bound) => value <= bound,
            Bound::Above(bound) => value > bound,
            Bound::Ungated => true,
        }
    }

    /// The side's name and the bound, `None` for [`Bound::Ungated`].
    fn side(self) -> Option<(&'static str, f64)> {
        match self {
            Bound::Floor(bound) => Some(("floor", bound)),
            Bound::Ceiling(bound) => Some(("ceiling", bound)),
            Bound::Above(bound) => Some(("strict floor", bound)),
            Bound::Ungated => None,
        }
    }
}

/// One gate evaluated against its artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// What the gate checks; unique across the registry.
    pub name: &'static str,
    /// The measured value, or why nothing was measured.
    pub value: Result<f64, String>,
    /// The bound the value must respect.
    pub bound: Bound,
    /// Context printed beside the value; empty when the value says it all.
    pub detail: String,
}

impl GateRow {
    fn new(name: &'static str, value: Result<f64, String>, bound: Bound) -> GateRow {
        GateRow { name, value, bound, detail: String::new() }
    }

    fn detail(mut self, detail: String) -> GateRow {
        self.detail = detail;
        self
    }

    /// The row of a source whose run failed before its gates could read
    /// anything.
    pub fn broken(why: String) -> GateRow {
        GateRow::new("source ran to completion", Err(why), Bound::Ungated)
    }

    /// The verdict: a value was measured and stays on the passing side.
    pub fn passed(&self) -> bool {
        self.value.as_ref().is_ok_and(|&v| self.bound.holds(v))
    }
}

impl fmt::Display for GateRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let GateRow { name, value, bound, detail } = self;
        let value = match value {
            Ok(value) => *value,
            Err(why) => return write!(f, "REGRESSION: {name}: {why}, gate not evaluated"),
        };
        let sep = if detail.is_empty() { "" } else { "; " };
        match bound.side() {
            None => write!(f, "{name} {value:.2} (not gated{sep}{detail})"),
            Some((side, bound)) if self.passed() => {
                write!(f, "{name} {value:.2} ({side} {bound:.2}{sep}{detail}) — ok")
            }
            Some((side, bound)) => {
                write!(f, "REGRESSION: {name} {value:.2} is past the {bound:.2} {side}")?;
                if !detail.is_empty() {
                    write!(f, " ({detail})")?;
                }
                Ok(())
            }
        }
    }
}

/// One artifact family: its run writes the artifacts and checks them.
pub struct Source {
    /// Short name printed beside each of its rows.
    pub name: &'static str,
    /// The artifacts it writes to the working directory.
    pub artifacts: &'static str,
    /// Drains, writes and checks; `Err` when a run fails before any gate
    /// could read it.
    pub run: fn() -> Result<Vec<GateRow>, String>,
}

/// Every source, in the order the runner drains them.
pub static SOURCES: [Source; 5] = [
    Source { name: "bench", artifacts: "BENCH_cod.json", run: run_bench },
    Source { name: "audit", artifacts: "AUDIT_cod.json", run: run_audit },
    Source { name: "scenario", artifacts: "SCENARIOS_cod.json", run: run_scenarios },
    Source { name: "fleet", artifacts: "FLEET_cod.json", run: run_fleet_gates },
    Source { name: "trace", artifacts: "OBS_cod.json, TRACE_cod.json", run: run_trace },
];

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|err| format!("cannot write {path}: {err}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Lines of `text` that differ from the same line of `reference`, missing
/// and extra lines included; 0 exactly when the two are byte-identical.
fn differing_lines(text: &str, reference: &str) -> f64 {
    if text == reference {
        return 0.0;
    }
    let (ours, theirs) = (text.lines().count(), reference.lines().count());
    let changed = text.lines().zip(reference.lines()).filter(|(a, b)| a != b).count();
    (changed + ours.abs_diff(theirs)).max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One gated metric of `BENCH_cod.json`.
#[derive(Debug)]
pub struct Gate {
    /// Id of the gated experiment.
    pub experiment: &'static str,
    /// One of the experiment's derived metrics; `None` reads the measured
    /// side of its paper comparison.
    pub metric: Option<&'static str>,
    /// The bound.
    pub bound: Bound,
    /// The row's name.
    pub label: &'static str,
}

/// The bench gates, in the order they print.
pub static GATES: [Gate; 4] = [
    // The 8-PC COD must keep beating one desktop PC clearly.
    Gate {
        experiment: "E8",
        metric: None,
        bound: Bound::Floor(SPEEDUP_FLOOR),
        label: "COD speedup (x)",
    },
    // The Coarse tier must stay score-compatible with the full rack.
    Gate {
        experiment: "E12",
        metric: Some("max_score_drift"),
        bound: Bound::Ceiling(SCORE_DRIFT_TOLERANCE),
        label: "E12 Coarse-vs-Full score drift (points)",
    },
    // Arming the deterministic trace sink must stay cheap enough to leave on.
    Gate {
        experiment: "E14",
        metric: Some("tracing_overhead_pct"),
        bound: Bound::Ceiling(TRACING_OVERHEAD_CEILING_PCT),
        label: "E14 tracing overhead on the serving path (%)",
    },
    // The render path must stay off per-sample libm: the ratio collapses to
    // ~1x if it comes back.
    Gate {
        experiment: "E15",
        metric: Some("kernel_speedup_over_pointwise"),
        bound: Bound::Floor(KERNEL_SPEEDUP_FLOOR),
        label: "E15 audio kernel over pointwise synthesis (x)",
    },
];

/// Evaluates every gate of [`GATES`] against `report`; a gated experiment
/// that reported no metric fails its gate.
pub fn bench_rows(report: &BenchReport) -> Vec<GateRow> {
    GATES
        .iter()
        .map(|gate| {
            let experiment = report.experiment(gate.experiment);
            let value = match gate.metric {
                Some(name) => experiment
                    .and_then(|e| e.derived.iter().find(|d| d.name == name))
                    .map(|d| d.value),
                None => experiment.and_then(|e| e.comparison.as_ref()).map(|c| c.measured),
            };
            let missing = || {
                let metric = gate.metric.unwrap_or("paper comparison");
                format!("{} reported no `{metric}`", gate.experiment)
            };
            GateRow::new(gate.label, value.ok_or_else(missing), gate.bound)
        })
        .collect()
}

fn run_bench() -> Result<Vec<GateRow>, String> {
    println!("running the {} experiments...", EXPERIMENTS.len());
    let report = BenchReport::new(cod_bench::measure::wall_unix_ms(), experiments::all());
    println!("\n=== measured vs paper ===\n{}", report.comparison_table());
    write("BENCH_cod.json", &report.to_json_string())?;
    Ok(bench_rows(&report))
}

/// The workspace is audit-clean: no hard violation of rules R1–R6, a stale
/// `[[allow]]` entry included.
pub fn audit_rows(report: &AuditReport) -> Vec<GateRow> {
    let violations = report.violations().count() as f64;
    vec![GateRow::new("hard determinism-audit violations", Ok(violations), Bound::Ceiling(0.0))
        .detail(format!("{} files", report.files_checked))]
}

/// Audits the workspace holding the working directory: the nearest
/// ancestor with an `audit.toml`.
fn run_audit() -> Result<Vec<GateRow>, String> {
    let cwd = std::env::current_dir().map_err(|err| format!("no working directory: {err}"))?;
    let root = cwd
        .ancestors()
        .find(|dir| dir.join("audit.toml").is_file())
        .ok_or("no audit.toml in the working directory or above")?;
    let config_path = root.join("audit.toml");
    let text = std::fs::read_to_string(&config_path)
        .map_err(|err| format!("cannot read {}: {err}", config_path.display()))?;
    let config = AuditConfig::parse(&text).map_err(|err| err.to_string())?;
    let report = audit_tree(root, &config).map_err(|err| format!("audit walk failed: {err}"))?;
    print!("{}", report.render_text(true));
    write("AUDIT_cod.json", &report.to_json().to_pretty())?;
    Ok(audit_rows(&report))
}

/// Every scenario of the matrix holds every invariant.
pub fn scenario_rows(summary: &MatrixSummary) -> Vec<GateRow> {
    let failures = summary.failures();
    let detail = if failures.is_empty() {
        format!("of {} scenarios x {} frames", summary.results.len(), summary.config.frames)
    } else {
        format!("failed: {}", failures.join(", "))
    };
    vec![GateRow::new(
        "scenarios violating an invariant",
        Ok(failures.len() as f64),
        Bound::Ceiling(0.0),
    )
    .detail(detail)]
}

/// The full 72 x 240 matrix: it takes about half a second.
fn run_scenarios() -> Result<Vec<GateRow>, String> {
    let summary =
        run_matrix(&MatrixConfig::full()).map_err(|err| format!("scenario run failed: {err}"))?;
    if let Some((sim_seed, fault_seed)) = summary.results.first().map(|r| r.seeds) {
        println!(
            "{} scenarios; reproduce any row: sim seed {sim_seed:#x}, fault seed {fault_seed:#x} \
             (see README 'Testing')",
            summary.results.len()
        );
    }
    write("SCENARIOS_cod.json", &summary.to_json().to_pretty())?;
    Ok(scenario_rows(&summary))
}

/// What the fleet gates read: the reports of `FLEET_cod.json` plus the
/// headline configuration served by the executor pool.
#[derive(Debug, Clone)]
pub struct FleetRuns {
    /// The headline workload on one shard.
    pub baseline: FleetReport,
    /// The headline workload on [`SHARDS`] shards.
    pub fleet: FleetReport,
    /// The 1x2.0 + 3x0.5 rack with residency-only placement.
    pub naive: FleetReport,
    /// The same rack with speed-weighted placement, priorities, preemption
    /// and migration.
    pub aware: FleetReport,
    /// The aware rack with halved slots, saturated so preemption fires.
    pub pressure: FleetReport,
    /// The burst workload served all-Full and tiered.
    pub tiered: TieredSection,
    /// The headline report text served by the pool at 1 and at 4 threads.
    pub pool_reports: [String; 2],
    /// Real sessions/sec of those two pool runs.
    pub pool_sessions_per_wall_sec: [f64; 2],
    /// Cores of the machine the pool ran on.
    pub cores: usize,
}

/// The eleven fleet gates.
pub fn fleet_rows(runs: &FleetRuns) -> Vec<GateRow> {
    let FleetRuns { baseline, fleet, naive, aware, pressure, tiered, .. } = runs;
    let (int, bat) = (Priority::Interactive.index(), Priority::Batch.index());
    // A class that completed nothing has a p95 of 0.0, which would compare
    // as a pass; with the seed fixed an empty class is a broken run.
    let (int_n, bat_n) = (pressure.class_completed[int], pressure.class_completed[bat]);
    let interactive_p95 = if int_n == 0 || bat_n == 0 {
        Err(format!("{int_n} interactive / {bat_n} batch sessions completed, nothing to compare"))
    } else {
        Ok(pressure.class_latency_p95[int])
    };
    let (demoted, promoted) = (tiered.tiered.demoted, tiered.tiered.promoted);
    let headline = fleet.to_json().to_pretty();
    let [one_thread, four_threads] = &runs.pool_reports;
    let [one_sps, four_sps] = runs.pool_sessions_per_wall_sec;
    // No executor conjures parallel speedup out of fewer than 4 cores.
    let (wall_bound, wall_detail) = if runs.cores >= 4 {
        (Bound::Floor(WALLCLOCK_SCALING_FLOOR), format!("{} cores", runs.cores))
    } else {
        let why = format!(
            "floor {WALLCLOCK_SCALING_FLOOR:.2} on 4+-core runners, {} core(s) here",
            runs.cores
        );
        (Bound::Ungated, why)
    };
    vec![
        GateRow::new(
            "sessions/sec scaling 1 -> 4 shards (x)",
            Ok(ratio(fleet.sessions_per_sec, baseline.sessions_per_sec)),
            Bound::Floor(SCALING_FLOOR),
        ),
        // On unequal machines, weighing placement by speed-scaled backlog
        // must strictly beat counting residents.
        GateRow::new(
            "heterogeneous fleet: speed-weighted over residency-only (x)",
            Ok(ratio(aware.sessions_per_sec, naive.sessions_per_sec)),
            Bound::Above(1.0),
        )
        .detail(format!("{:.2}/s vs {:.2}/s", aware.sessions_per_sec, naive.sessions_per_sec)),
        // A gate over a mechanism the run never exercised proves nothing.
        GateRow::new(
            "preemptions in the saturated priority run",
            Ok(pressure.preempted as f64),
            Bound::Floor(1.0),
        ),
        GateRow::new(
            "interactive p95 under pressure (ticks; ceiling is batch p95)",
            interactive_p95,
            Bound::Ceiling(pressure.class_latency_p95[bat]),
        ),
        // The byte-exact replay gates are exercised under migration only if
        // the aware run migrates.
        GateRow::new(
            "live migrations in the heterogeneous run",
            Ok(aware.migrated as f64),
            Bound::Floor(1.0),
        ),
        GateRow::new(
            "tiered capacity over all-Full (x)",
            Ok(ratio(tiered.tiered.sessions_per_sec, tiered.all_full.sessions_per_sec)),
            Bound::Floor(TIERED_CAPACITY_FLOOR),
        )
        .detail(format!(
            "{:.2}/s vs {:.2}/s",
            tiered.tiered.sessions_per_sec, tiered.all_full.sessions_per_sec
        )),
        // Pressure was real (a demotion) and spare capacity bought fidelity
        // back (a promotion), or the tier gates are vacuous.
        GateRow::new(
            "live retiering in the tiered run (fewer of demotions, promotions)",
            Ok(demoted.min(promoted) as f64),
            Bound::Floor(1.0),
        )
        .detail(format!("{demoted} demotions, {promoted} promotions")),
        GateRow::new(
            "tiered final-score drift (points)",
            Ok(tiered.max_score_drift),
            Bound::Ceiling(SCORE_DRIFT_TOLERANCE),
        ),
        // Thread scheduling must never leak into the deterministic output.
        GateRow::new(
            "pool report at 1 thread: lines differing from the headline",
            Ok(differing_lines(one_thread, &headline)),
            Bound::Ceiling(0.0),
        ),
        GateRow::new(
            "pool report at 4 threads: lines differing from the headline",
            Ok(differing_lines(four_threads, &headline)),
            Bound::Ceiling(0.0),
        ),
        GateRow::new(
            "wall-clock scaling 1 -> 4 threads (x)",
            Ok(ratio(four_sps, one_sps)),
            wall_bound,
        )
        .detail(wall_detail),
    ]
}

fn drain(config: &FleetConfig) -> Result<FleetOutcome, String> {
    run_fleet(config).map_err(|err| format!("fleet run failed: {err}"))
}

fn report_of(config: &FleetConfig) -> Result<FleetReport, String> {
    drain(config).map(|outcome| FleetReport::from_outcome(&outcome))
}

/// Serves the tiered-capacity pair on `base`'s rack: a burst workload
/// (every session at the door at once, so admission pressure is real)
/// served all-Full and then with fidelity tiering on, identical otherwise.
fn serve_tiered_pair(base: FleetConfig) -> Result<TieredSection, String> {
    let mut all_full = base;
    all_full.workload.mean_interarrival_ticks = 0;
    // Tiering concentrates the expensive Full residents on few shards;
    // without rebalancing the busiest shard would mask most of the capacity
    // the Coarse tier frees.
    all_full.preemption = true;
    all_full.migration = true;
    // Admit just under half the burst: the queue must be deep enough to keep
    // the Coarse tail long, but bounded, because the bound is what lets the
    // queue drain to calm while a Training session is still resident — and
    // a calm tick with a live Training candidate is what fires a promotion.
    all_full.max_pending = all_full.workload.sessions / 2 - 2;
    let tiered = FleetConfig { tiering: true, ..all_full.clone() };
    let full_outcome = drain(&all_full)?;
    let tiered_outcome = drain(&tiered)?;
    // The drift pairs the two runs' sessions by id, which the serialized
    // reports no longer carry.
    let full_scores: BTreeMap<u64, f64> =
        full_outcome.sessions.iter().map(|s| (s.id, s.score)).collect();
    let max_score_drift = tiered_outcome
        .sessions
        .iter()
        .filter_map(|s| full_scores.get(&s.id).map(|full| (s.score - full).abs()))
        .fold(0.0_f64, f64::max);
    Ok(TieredSection {
        all_full: FleetReport::from_outcome(&full_outcome),
        tiered: FleetReport::from_outcome(&tiered_outcome),
        max_score_drift,
    })
}

/// The quick size (64 sessions). The full size (256) fails the retiering
/// gate — 0 promotions, ROADMAP item 3 — so it is not gated here; the
/// ignored test `full_size_tiered_burst_makes_a_promotion` reproduces it.
fn run_fleet_gates() -> Result<Vec<GateRow>, String> {
    let quick = |shards| FleetConfig::quick(shards, SEED);
    let aware = FleetConfig::heterogeneous_quick(SEED);
    let naive = FleetConfig {
        placement: PlacementPolicy::LeastResident,
        preemption: false,
        migration: false,
        ..aware.clone()
    };
    let mut pressure = aware.clone();
    pressure.shard.slots /= 2;
    println!(
        "fleet serving: {} sessions (seed {SEED:#x}), {SHARDS} shards vs 1, the heterogeneous \
         1x2.0 + 3x0.5 pair and the tiered burst pair",
        quick(SHARDS).workload.sessions
    );

    let baseline = report_of(&quick(1))?;
    let (outcome, modeled) =
        run_fleet_timed(&quick(SHARDS)).map_err(|err| format!("fleet run failed: {err}"))?;
    let fleet = FleetReport::from_outcome(&outcome);
    let (naive, aware, pressure) = (report_of(&naive)?, report_of(&aware)?, report_of(&pressure)?);
    let tiered = serve_tiered_pair(quick(SHARDS))?;
    write(
        "FLEET_cod.json",
        &document(&baseline, &fleet, (&naive, &aware), &tiered, true).to_pretty(),
    )?;

    let mut pool_reports = [String::new(), String::new()];
    let mut pool_sessions_per_wall_sec = [0.0; 2];
    let mut pool_walls = Vec::new();
    for (i, threads) in [1, 4].into_iter().enumerate() {
        let config =
            FleetConfig { execution: ExecutionMode::WallClock { threads }, ..quick(SHARDS) };
        let (outcome, stats) = run_fleet_timed(&config)
            .map_err(|err| format!("pool run at {threads} thread(s) failed: {err}"))?;
        pool_reports[i] = FleetReport::from_outcome(&outcome).to_json().to_pretty();
        pool_sessions_per_wall_sec[i] = stats.sessions_per_wall_sec(outcome.completed);
        pool_walls.push(stats.wall);
    }
    // The pool's own cost, shown and not gated: a 1-thread pool steps on the
    // driver alone, so its wall over the modeled drain is what it adds.
    println!(
        "executor overhead: 1-thread wall {:.2?} / modeled wall {:.2?} = {:.2}x (informational)",
        pool_walls[0],
        modeled.wall,
        ratio(pool_walls[0].as_secs_f64(), modeled.wall.as_secs_f64()),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(fleet_rows(&FleetRuns {
        baseline,
        fleet,
        naive,
        aware,
        pressure,
        tiered,
        pool_reports,
        pool_sessions_per_wall_sec,
        cores,
    }))
}

/// What the trace gates read: `OBS_cod.json` per execution mode, the fleet
/// report with and without tracing armed, and the Perfetto export.
#[derive(Debug, Clone)]
pub struct TraceRuns {
    /// The modeled run's `OBS_cod.json`, the reference the others match.
    pub obs: String,
    /// The same bytes from a second modeled run of the same seed.
    pub obs_rerun: String,
    /// The same bytes under the pool at 1 and at 4 threads.
    pub obs_pool: [String; 2],
    /// The fleet report of an untraced modeled run.
    pub fleet_untraced: String,
    /// The fleet report of the traced 4-thread run.
    pub fleet_traced: String,
    /// `step` spans the 4-thread Perfetto trace carries on worker lanes.
    /// Every shard is stepped by some worker every tick, so none means the
    /// executor hooks are broken, not that the race was unlucky.
    pub worker_step_spans: usize,
    /// Records of that trace, one metadata record per lane included.
    pub trace_events: usize,
    /// Lanes of that trace, the driver's included.
    pub trace_lanes: usize,
}

/// The five trace gates.
pub fn trace_rows(runs: &TraceRuns) -> Vec<GateRow> {
    let same_as_modeled = |text: &str| Ok(differing_lines(text, &runs.obs));
    vec![
        GateRow::new(
            "OBS_cod.json of a same-seed rerun: lines differing",
            same_as_modeled(&runs.obs_rerun),
            Bound::Ceiling(0.0),
        ),
        GateRow::new(
            "OBS_cod.json at 1 pool thread: lines differing from modeled",
            same_as_modeled(&runs.obs_pool[0]),
            Bound::Ceiling(0.0),
        ),
        GateRow::new(
            "OBS_cod.json at 4 pool threads: lines differing from modeled",
            same_as_modeled(&runs.obs_pool[1]),
            Bound::Ceiling(0.0),
        ),
        GateRow::new(
            "FLEET_cod.json with tracing armed: lines differing from untraced",
            Ok(differing_lines(&runs.fleet_traced, &runs.fleet_untraced)),
            Bound::Ceiling(0.0),
        ),
        GateRow::new(
            "perfetto trace: worker-lane step spans at 4 threads",
            Ok(runs.worker_step_spans as f64),
            Bound::Floor(1.0),
        )
        .detail(format!("{} events across {} lanes", runs.trace_events, runs.trace_lanes)),
    ]
}

/// The heterogeneous rack with priorities, preemption, migration and
/// tiering all engaged, so the deterministic sink sees every event kind the
/// fleet can emit, at the full workload (256 sessions, ~2.8 s on a 2-core
/// box).
fn run_trace() -> Result<Vec<GateRow>, String> {
    let base = FleetConfig {
        tiering: true,
        workload: WorkloadConfig::full(SEED),
        ..FleetConfig::heterogeneous_quick(SEED)
    };
    println!(
        "tracing {} sessions (seed {SEED:#x}) over {} shards",
        base.workload.sessions, base.shards
    );
    let traced = |execution, obs| {
        let config = FleetConfig { execution, obs, ..base.clone() };
        run_fleet_traced(&config).map_err(|err| format!("traced run ({execution:?}) failed: {err}"))
    };
    let obs_of = |execution| {
        let (_, _, artifacts) = traced(execution, ObsConfig::Deterministic)?;
        let det = artifacts.det.expect("ObsConfig::Deterministic arms the deterministic sink");
        Ok::<_, String>(det.to_report_json(SEED).to_pretty())
    };
    let obs = obs_of(ExecutionMode::Modeled)?;
    let obs_rerun = obs_of(ExecutionMode::Modeled)?;
    let obs_pool_1 = obs_of(ExecutionMode::WallClock { threads: 1 })?;
    let fleet_untraced = FleetReport::from_outcome(&drain(&base)?).to_json().to_pretty();
    // One traced 4-thread run serves the OBS identity, the FLEET identity
    // and the Perfetto gates.
    let (outcome, _, artifacts) = traced(ExecutionMode::WallClock { threads: 4 }, ObsConfig::Full)?;
    let det = artifacts.det.expect("ObsConfig::Full arms the deterministic sink");
    let wall = artifacts.wall.expect("ObsConfig::Full arms the wall sink");
    let chrome = wall.to_chrome_json();

    write("OBS_cod.json", &obs)?;
    write("TRACE_cod.json", &chrome.to_pretty())?;
    println!(
        "deterministic sink: {} frames stepped, {} cohorts, fingerprint {:#018x}",
        det.counter("frames_stepped"),
        det.counter("cohorts_stepped"),
        det.fingerprint(),
    );
    Ok(trace_rows(&TraceRuns {
        obs,
        obs_rerun,
        obs_pool: [obs_pool_1, det.to_report_json(SEED).to_pretty()],
        fleet_untraced,
        fleet_traced: FleetReport::from_outcome(&outcome).to_json().to_pretty(),
        worker_step_spans: (1..wall.lanes()).map(|lane| wall.count_of(lane, "step")).sum(),
        trace_events: chrome.get("traceEvents").and_then(|e| e.as_arr()).map_or(0, <[_]>::len),
        trace_lanes: wall.lanes(),
    }))
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use cod_audit::{Disposition, Finding, Rule};
    use cod_bench::report::{Comparison, DerivedMetric, ExperimentResult};
    use cod_fleet::ShardConfig;

    use super::*;
    use crate::matrix::ScenarioResult;

    /// The names of the rows that failed.
    fn failed(rows: &[GateRow]) -> Vec<&'static str> {
        rows.iter().filter(|row| !row.passed()).map(|row| row.name).collect()
    }

    /// A report carrying each gated experiment with the given gated values.
    fn gated_report(speedup: f64, with_e15: bool) -> BenchReport {
        let result = |id: &str, comparison, derived| ExperimentResult {
            id: id.into(),
            name: id.to_lowercase(),
            comparison,
            derived,
            notes: String::new(),
        };
        let mut experiments = vec![
            result(
                "E8",
                Some(Comparison {
                    quantity: "COD vs single-PC frame-rate speedup".into(),
                    unit: "x".into(),
                    measured: speedup,
                    paper: 3.4,
                }),
                vec![],
            ),
            result("E12", None, vec![DerivedMetric::new("max_score_drift", "points", 0.0)]),
            result("E14", None, vec![DerivedMetric::new("tracing_overhead_pct", "%", 0.4)]),
        ];
        if with_e15 {
            experiments.push(result(
                "E15",
                None,
                vec![DerivedMetric::new("kernel_speedup_over_pointwise", "x", 23.0)],
            ));
        }
        BenchReport::new(0, experiments)
    }

    #[test]
    fn gates_fail_a_slow_cod_and_a_missing_experiment() {
        let slow = bench_rows(&gated_report(2.9, true));
        assert_eq!(failed(&slow), ["COD speedup (x)"]);
        assert_eq!(slow[0].to_string(), "REGRESSION: COD speedup (x) 2.90 is past the 3.00 floor");

        let missing = bench_rows(&gated_report(3.44, false));
        assert_eq!(failed(&missing), ["E15 audio kernel over pointwise synthesis (x)"]);
        let e15 = &missing[3];
        assert!(e15.value.is_err());
        assert!(e15.to_string().contains("E15 reported no `kernel_speedup_over_pointwise`"));
    }

    #[test]
    fn audit_gate_fails_on_a_hard_violation() {
        let finding = |disposition| Finding {
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            rule: Rule::WallClock,
            message: "Instant".into(),
            disposition,
        };
        let waived = Disposition::Waived { reason: "test timeout".into() };
        let mut report = AuditReport { findings: vec![finding(waived)], files_checked: 1 };
        assert_eq!(failed(&audit_rows(&report)), Vec::<&str>::new());
        report.findings.push(finding(Disposition::Violation));
        assert_eq!(failed(&audit_rows(&report)), ["hard determinism-audit violations"]);
    }

    #[test]
    fn scenario_gate_fails_on_an_invariant_violation() {
        let result = |name: &str, passed| ScenarioResult {
            name: name.into(),
            seeds: (1, 2),
            passed,
            first_violation: None,
            frames_run: 10,
            score: 100.0,
            synchronized_fps: 15.0,
            drop_ratio: 0.0,
            trace_fingerprint: 0,
        };
        let mut summary =
            MatrixSummary { config: MatrixConfig::quick(), results: vec![result("a", true)] };
        assert_eq!(failed(&scenario_rows(&summary)), Vec::<&str>::new());
        summary.results.push(result("b", false));
        let rows = scenario_rows(&summary);
        assert_eq!(failed(&rows), ["scenarios violating an invariant"]);
        assert!(rows[0].to_string().contains("failed: b"));
    }

    /// Fleet runs that pass every fleet gate, built from one tiny drain.
    fn passing_fleet_runs() -> FleetRuns {
        static REPORT: OnceLock<FleetReport> = OnceLock::new();
        let report = REPORT.get_or_init(|| {
            let config = FleetConfig {
                shards: 2,
                shard: ShardConfig { slots: 2, batch_frames: 8, ..ShardConfig::default() },
                workload: WorkloadConfig {
                    sessions: 3,
                    seed: 5,
                    base_frames: 10,
                    mean_interarrival_ticks: 1,
                },
                ..FleetConfig::quick(2, 5)
            };
            report_of(&config).expect("tiny fleet drains")
        });
        let with = |sessions_per_sec: f64| FleetReport { sessions_per_sec, ..report.clone() };
        let (int, bat) = (Priority::Interactive.index(), Priority::Batch.index());
        let mut pressure = with(1.0);
        pressure.preempted = 1;
        pressure.class_completed[int] = 2;
        pressure.class_completed[bat] = 2;
        pressure.class_latency_p95[int] = 9.0;
        pressure.class_latency_p95[bat] = 10.5;
        let mut tiered = with(2.5);
        (tiered.demoted, tiered.promoted) = (3, 1);
        let fleet = with(3.0);
        let headline = fleet.to_json().to_pretty();
        FleetRuns {
            baseline: with(1.0),
            fleet,
            naive: with(1.0),
            aware: FleetReport { migrated: 1, ..with(1.5) },
            pressure,
            tiered: TieredSection { all_full: with(1.0), tiered, max_score_drift: 0.0 },
            pool_reports: [headline.clone(), headline],
            pool_sessions_per_wall_sec: [10.0, 20.0],
            cores: 4,
        }
    }

    #[test]
    fn every_fleet_gate_fails_on_its_own_sabotage() {
        type Sabotage = fn(&mut FleetRuns);
        let cases: [(&str, Sabotage); 11] = [
            ("sessions/sec scaling 1 -> 4 shards (x)", |r| r.baseline.sessions_per_sec = 2.0),
            ("heterogeneous fleet: speed-weighted over residency-only (x)", |r| {
                r.aware.sessions_per_sec = r.naive.sessions_per_sec
            }),
            ("preemptions in the saturated priority run", |r| r.pressure.preempted = 0),
            ("interactive p95 under pressure (ticks; ceiling is batch p95)", |r| {
                r.pressure.class_latency_p95[Priority::Interactive.index()] = 11.0
            }),
            ("live migrations in the heterogeneous run", |r| r.aware.migrated = 0),
            ("tiered capacity over all-Full (x)", |r| r.tiered.tiered.sessions_per_sec = 1.9),
            ("live retiering in the tiered run (fewer of demotions, promotions)", |r| {
                r.tiered.tiered.promoted = 0
            }),
            ("tiered final-score drift (points)", |r| {
                r.tiered.max_score_drift = SCORE_DRIFT_TOLERANCE + 0.5
            }),
            ("pool report at 1 thread: lines differing from the headline", |r| {
                r.pool_reports[0] = r.pool_reports[0].replacen("\"fingerprint\"", "\"x\"", 1)
            }),
            ("pool report at 4 threads: lines differing from the headline", |r| {
                r.pool_reports[1].push_str("\n}")
            }),
            ("wall-clock scaling 1 -> 4 threads (x)", |r| {
                r.pool_sessions_per_wall_sec = [10.0, 14.0]
            }),
        ];
        let passing = passing_fleet_runs();
        let rows = fleet_rows(&passing);
        assert_eq!(rows.len(), cases.len());
        assert_eq!(failed(&rows), Vec::<&str>::new());
        for ((name, sabotage), row) in cases.into_iter().zip(&rows) {
            assert_eq!(row.name, name, "one case per row, in row order");
            let mut runs = passing.clone();
            sabotage(&mut runs);
            assert_eq!(failed(&fleet_rows(&runs)), [name]);
        }
        // Below 4 cores the wall-scaling row prints but cannot fail.
        let mut small = passing;
        (small.cores, small.pool_sessions_per_wall_sec) = (2, [10.0, 9.0]);
        let scaling = fleet_rows(&small).pop().expect("wall-scaling row");
        assert!(scaling.passed());
        assert!(scaling.to_string().contains("not gated"), "{scaling}");
    }

    #[test]
    fn priority_latency_gate_fails_when_a_class_completed_nothing() {
        let mut runs = passing_fleet_runs();
        runs.pressure.class_completed[Priority::Batch.index()] = 0;
        let rows = fleet_rows(&runs);
        let name = "interactive p95 under pressure (ticks; ceiling is batch p95)";
        assert_eq!(failed(&rows), [name]);
        let row = rows.iter().find(|row| row.name == name).expect("latency row");
        assert_eq!(
            row.to_string(),
            format!(
                "REGRESSION: {name}: 2 interactive / 0 batch sessions completed, nothing to \
                 compare, gate not evaluated"
            )
        );
    }

    #[test]
    fn every_trace_gate_fails_on_its_own_sabotage() {
        type Sabotage = fn(&mut TraceRuns);
        let cases: [(&str, Sabotage); 5] = [
            ("OBS_cod.json of a same-seed rerun: lines differing", |r| r.obs_rerun.clear()),
            ("OBS_cod.json at 1 pool thread: lines differing from modeled", |r| {
                r.obs_pool[0].push_str("\n\"x\": 1")
            }),
            ("OBS_cod.json at 4 pool threads: lines differing from modeled", |r| {
                r.obs_pool[1] = r.obs_pool[1].replace("7", "8")
            }),
            ("FLEET_cod.json with tracing armed: lines differing from untraced", |r| {
                r.fleet_traced.push('\n')
            }),
            ("perfetto trace: worker-lane step spans at 4 threads", |r| r.worker_step_spans = 0),
        ];
        let obs = "{\n  \"frames\": 7\n}".to_owned();
        let fleet = "{\n  \"completed\": 3\n}".to_owned();
        let passing = TraceRuns {
            obs: obs.clone(),
            obs_rerun: obs.clone(),
            obs_pool: [obs.clone(), obs],
            fleet_untraced: fleet.clone(),
            fleet_traced: fleet,
            worker_step_spans: 296,
            trace_events: 1000,
            trace_lanes: 5,
        };
        let rows = trace_rows(&passing);
        assert_eq!(failed(&rows), Vec::<&str>::new());
        for ((name, sabotage), row) in cases.into_iter().zip(&rows) {
            assert_eq!(row.name, name, "one case per row, in row order");
            let mut runs = passing.clone();
            sabotage(&mut runs);
            assert_eq!(failed(&trace_rows(&runs)), [name]);
        }
    }

    #[test]
    fn differing_lines_is_zero_only_for_identical_bytes() {
        assert_eq!(differing_lines("a\nb", "a\nb"), 0.0);
        assert_eq!(differing_lines("a\nb\n", "a\nb"), 1.0);
        assert_eq!(differing_lines("a\nc\nd", "a\nb"), 2.0);
    }

    #[test]
    #[ignore = "ROADMAP item 3: full-size tiered burst makes 0 promotions"]
    fn full_size_tiered_burst_makes_a_promotion() {
        let pair = serve_tiered_pair(FleetConfig::full(SHARDS, SEED)).expect("both runs drain");
        assert!(
            pair.tiered.promoted > 0,
            "{} demotions, {} promotions",
            pair.tiered.demoted,
            pair.tiered.promoted
        );
    }
}
