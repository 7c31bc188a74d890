//! The machine-readable fleet report (`FLEET_cod.json`).
//!
//! Same conventions as `BENCH_cod.json` and `SCENARIOS_cod.json` (see
//! [`cod_json`]): ordered members, `u64` quantities that may exceed 2^53
//! (seeds, fingerprints) as hex strings. Unlike the bench report the fleet
//! report carries **no wall-clock stamp**: a fleet run is a pure function of
//! its seed — priorities, preemption and live migration included — and the
//! acceptance gate diffs two runs byte for byte.

use cod_json::Json;
use crane_sim::{FidelityTier, SCORE_DRIFT_TOLERANCE};
use sim_math::Fnv1a;

use crate::fleet::{FleetOutcome, PlacementPolicy};
use crate::workload::Priority;

/// Schema version of `FLEET_cod.json`; bump on breaking layout changes.
/// v2: priority classes, preemption/migration counters, heterogeneous shard
/// speeds, interpolated latency percentiles.
/// v3: fidelity tiers — per-tier completion counts, p95s and mean scores,
/// promotion/demotion counters, and the tiered-capacity document section.
/// v4: each session's final telemetry-digest fingerprint folded into the
/// report fingerprint, so two runs only match when every session's physics
/// state matched frame for frame — the witness the determinism-under-threads
/// gate compares across execution modes. Wall-clock timings stay out of the
/// report entirely: they vary run to run by nature, and fingerprinting them
/// would break the byte-identity guarantee the gate exists to enforce.
pub const SCHEMA: &str = "cod-fleet-v4";

/// Per-shard row of the report: speed, utilization and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// Relative CPU speed of the shard.
    pub speed: f64,
    /// Fraction of the modeled serving time the shard was busy.
    pub utilization: f64,
    /// Sessions the shard retired.
    pub completed: u64,
    /// Simulators built from scratch.
    pub sims_built: u64,
    /// Sessions served by a recycled simulator.
    pub sims_recycled: u64,
    /// Residents preempted off this shard.
    pub preempted_out: u64,
    /// Residents migrated off this shard.
    pub migrated_out: u64,
    /// Sessions migrated onto this shard.
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

/// Aggregated, serializable view of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Workload seed.
    pub seed: u64,
    /// Number of shards.
    pub shards: usize,
    /// Relative CPU speed per shard.
    pub shard_speeds: Vec<f64>,
    /// Placement policy the run used.
    pub placement: PlacementPolicy,
    /// Whether preemption was enabled.
    pub preemption: bool,
    /// Whether live migration was enabled.
    pub migration: bool,
    /// Whether fidelity tiering was enabled.
    pub tiering: bool,
    /// Concurrent sessions per shard.
    pub slots_per_shard: usize,
    /// Frames per session per fleet tick.
    pub batch_frames: usize,
    /// Admission-queue bound.
    pub max_pending: usize,
    /// Arrivals offered / admitted / completed / rejected.
    pub offered: u64,
    /// Placements onto a shard (preempted sessions re-count on resumption).
    pub admitted: u64,
    /// Sessions retired.
    pub completed: u64,
    /// Arrivals shed by backpressure.
    pub rejected: u64,
    /// Residents preempted back to the queue.
    pub preempted: u64,
    /// Residents migrated live between shards.
    pub migrated: u64,
    /// Residents promoted live to the Full tier.
    pub promoted: u64,
    /// Residents demoted live to the Coarse tier.
    pub demoted: u64,
    /// Fleet ticks until drain.
    pub ticks: u64,
    /// Modeled serving time in milliseconds.
    pub elapsed_modeled_ms: f64,
    /// Completed sessions per modeled second.
    pub sessions_per_sec: f64,
    /// Latency percentiles in fleet ticks (p50, p95, p99), linearly
    /// interpolated like `cod_bench::measure::percentile`.
    pub latency_ticks: [f64; 3],
    /// p95 latency per priority class, indexed by [`Priority::index`].
    pub class_latency_p95: [f64; Priority::COUNT],
    /// Completed sessions per priority class, indexed by [`Priority::index`].
    pub class_completed: [u64; Priority::COUNT],
    /// Completed sessions per fidelity tier, indexed by
    /// [`FidelityTier::index`].
    pub tier_completed: [u64; FidelityTier::COUNT],
    /// p95 latency per fidelity tier, indexed by [`FidelityTier::index`].
    pub tier_latency_p95: [f64; FidelityTier::COUNT],
    /// Mean final score per fidelity tier, indexed by
    /// [`FidelityTier::index`].
    pub tier_mean_score: [f64; FidelityTier::COUNT],
    /// Mean final score of completed sessions.
    pub mean_score: f64,
    /// Fraction of completed sessions that passed.
    pub pass_rate: f64,
    /// Per-shard rows.
    pub shard_rows: Vec<ShardRow>,
    /// FNV-1a fingerprint over every session outcome — two runs of the same
    /// seed must agree bit for bit.
    pub fingerprint: u64,
}

fn placement_name(placement: PlacementPolicy) -> &'static str {
    match placement {
        PlacementPolicy::LeastResident => "least-resident",
        PlacementPolicy::SpeedWeighted => "speed-weighted",
    }
}

impl FleetReport {
    /// Builds the report from a fleet outcome.
    pub fn from_outcome(outcome: &FleetOutcome) -> FleetReport {
        let mut h = Fnv1a::new();
        h.write_u64(outcome.sessions.len() as u64);
        for s in &outcome.sessions {
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
        h.write_u64(outcome.rejected);
        h.write_u64(outcome.preempted);
        h.write_u64(outcome.migrated);
        h.write_u64(outcome.promoted);
        h.write_u64(outcome.demoted);
        h.write_u64(outcome.elapsed_modeled.0);

        let class_latency_p95 = [
            outcome.latency_percentile_ticks_for(Some(Priority::Batch), 95.0),
            outcome.latency_percentile_ticks_for(Some(Priority::Training), 95.0),
            outcome.latency_percentile_ticks_for(Some(Priority::Interactive), 95.0),
        ];
        let class_completed = [
            outcome.completed_of_class(Priority::Batch) as u64,
            outcome.completed_of_class(Priority::Training) as u64,
            outcome.completed_of_class(Priority::Interactive) as u64,
        ];
        let mut tier_completed = [0u64; FidelityTier::COUNT];
        let mut tier_latency_p95 = [0.0; FidelityTier::COUNT];
        let mut tier_mean_score = [0.0; FidelityTier::COUNT];
        for tier in FidelityTier::ALL {
            tier_completed[tier.index()] = outcome.completed_of_tier(tier) as u64;
            tier_latency_p95[tier.index()] = outcome.latency_percentile_ticks_for_tier(tier, 95.0);
            tier_mean_score[tier.index()] = outcome.mean_score_of_tier(tier);
        }

        FleetReport {
            seed: outcome.config.workload.seed,
            shards: outcome.config.shards,
            shard_speeds: (0..outcome.config.shards).map(|i| outcome.config.speed_of(i)).collect(),
            placement: outcome.config.placement,
            preemption: outcome.config.preemption,
            migration: outcome.config.migration,
            tiering: outcome.config.tiering,
            slots_per_shard: outcome.config.shard.slots,
            batch_frames: outcome.config.shard.batch_frames,
            max_pending: outcome.config.max_pending,
            offered: outcome.offered,
            admitted: outcome.admitted,
            completed: outcome.completed,
            rejected: outcome.rejected,
            preempted: outcome.preempted,
            migrated: outcome.migrated,
            promoted: outcome.promoted,
            demoted: outcome.demoted,
            ticks: outcome.ticks_run,
            elapsed_modeled_ms: outcome.elapsed_modeled.as_secs_f64() * 1e3,
            sessions_per_sec: outcome.sessions_per_sec(),
            latency_ticks: [
                outcome.latency_percentile_ticks(50.0),
                outcome.latency_percentile_ticks(95.0),
                outcome.latency_percentile_ticks(99.0),
            ],
            class_latency_p95,
            class_completed,
            tier_completed,
            tier_latency_p95,
            tier_mean_score,
            mean_score: outcome.mean_score(),
            pass_rate: outcome.pass_rate(),
            shard_rows: (0..outcome.shard_stats.len())
                .map(|i| {
                    let s = &outcome.shard_stats[i];
                    ShardRow {
                        speed: outcome.config.speed_of(i),
                        utilization: outcome.shard_utilization(i),
                        completed: s.sessions_completed,
                        sims_built: s.sims_built,
                        sims_recycled: s.sims_recycled,
                        preempted_out: s.preempted_out,
                        migrated_out: s.migrated_out,
                        migrated_in: s.migrated_in,
                        replayed_frames: s.replayed_frames,
                        promoted: s.promoted,
                        demoted: s.demoted,
                        peak_residents: s.peak_residents,
                    }
                })
                .collect(),
            fingerprint: h.finish(),
        }
    }

    /// Serializes to the `FLEET_cod.json` schema (one run's worth).
    pub fn to_json(&self) -> Json {
        let class_obj = |values: &[f64; Priority::COUNT]| {
            Json::Obj(
                Priority::ALL
                    .iter()
                    .map(|p| (p.tag().to_owned(), Json::Num(values[p.index()])))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("seed".into(), Json::Str(format!("{:#x}", self.seed))),
            ("shards".into(), Json::Num(self.shards as f64)),
            (
                "shard_speeds".into(),
                Json::Arr(self.shard_speeds.iter().map(|s| Json::Num(*s)).collect()),
            ),
            ("placement".into(), Json::Str(placement_name(self.placement).into())),
            ("preemption".into(), Json::Bool(self.preemption)),
            ("migration".into(), Json::Bool(self.migration)),
            ("tiering".into(), Json::Bool(self.tiering)),
            ("slots_per_shard".into(), Json::Num(self.slots_per_shard as f64)),
            ("batch_frames".into(), Json::Num(self.batch_frames as f64)),
            ("max_pending".into(), Json::Num(self.max_pending as f64)),
            ("offered".into(), Json::Num(self.offered as f64)),
            ("admitted".into(), Json::Num(self.admitted as f64)),
            ("completed".into(), Json::Num(self.completed as f64)),
            ("rejected".into(), Json::Num(self.rejected as f64)),
            ("preempted".into(), Json::Num(self.preempted as f64)),
            ("migrated".into(), Json::Num(self.migrated as f64)),
            ("promoted".into(), Json::Num(self.promoted as f64)),
            ("demoted".into(), Json::Num(self.demoted as f64)),
            ("ticks".into(), Json::Num(self.ticks as f64)),
            ("elapsed_modeled_ms".into(), Json::Num(self.elapsed_modeled_ms)),
            ("sessions_per_sec".into(), Json::Num(self.sessions_per_sec)),
            ("latency_p50_ticks".into(), Json::Num(self.latency_ticks[0])),
            ("latency_p95_ticks".into(), Json::Num(self.latency_ticks[1])),
            ("latency_p99_ticks".into(), Json::Num(self.latency_ticks[2])),
            ("latency_p95_by_class".into(), class_obj(&self.class_latency_p95)),
            (
                "completed_by_class".into(),
                Json::Obj(
                    Priority::ALL
                        .iter()
                        .map(|p| {
                            (p.tag().to_owned(), Json::Num(self.class_completed[p.index()] as f64))
                        })
                        .collect(),
                ),
            ),
            (
                "completed_by_tier".into(),
                Json::Obj(
                    FidelityTier::ALL
                        .iter()
                        .map(|t| {
                            (t.tag().to_owned(), Json::Num(self.tier_completed[t.index()] as f64))
                        })
                        .collect(),
                ),
            ),
            (
                "latency_p95_by_tier".into(),
                Json::Obj(
                    FidelityTier::ALL
                        .iter()
                        .map(|t| (t.tag().to_owned(), Json::Num(self.tier_latency_p95[t.index()])))
                        .collect(),
                ),
            ),
            (
                "mean_score_by_tier".into(),
                Json::Obj(
                    FidelityTier::ALL
                        .iter()
                        .map(|t| (t.tag().to_owned(), Json::Num(self.tier_mean_score[t.index()])))
                        .collect(),
                ),
            ),
            ("mean_score".into(), Json::Num(self.mean_score)),
            ("pass_rate".into(), Json::Num(self.pass_rate)),
            (
                "shards_detail".into(),
                Json::Arr(
                    self.shard_rows
                        .iter()
                        .enumerate()
                        .map(|(i, row)| {
                            Json::Obj(vec![
                                ("shard".into(), Json::Num(i as f64)),
                                ("speed".into(), Json::Num(row.speed)),
                                ("utilization".into(), Json::Num(row.utilization)),
                                ("completed".into(), Json::Num(row.completed as f64)),
                                ("sims_built".into(), Json::Num(row.sims_built as f64)),
                                ("sims_recycled".into(), Json::Num(row.sims_recycled as f64)),
                                ("preempted_out".into(), Json::Num(row.preempted_out as f64)),
                                ("migrated_out".into(), Json::Num(row.migrated_out as f64)),
                                ("migrated_in".into(), Json::Num(row.migrated_in as f64)),
                                ("replayed_frames".into(), Json::Num(row.replayed_frames as f64)),
                                ("promoted".into(), Json::Num(row.promoted as f64)),
                                ("demoted".into(), Json::Num(row.demoted as f64)),
                                ("peak_residents".into(), Json::Num(row.peak_residents as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("fingerprint".into(), Json::Str(format!("{:016x}", self.fingerprint))),
        ])
    }

    /// Renders the human-readable summary.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {} shards x {} slots ({}, preemption {}, migration {}, tiering {}) | offered {} admitted {} completed {} rejected {} preempted {} migrated {}\n",
            self.shards,
            self.slots_per_shard,
            placement_name(self.placement),
            if self.preemption { "on" } else { "off" },
            if self.migration { "on" } else { "off" },
            if self.tiering { "on" } else { "off" },
            self.offered,
            self.admitted,
            self.completed,
            self.rejected,
            self.preempted,
            self.migrated,
        ));
        out.push_str(&format!(
            "  modeled serving time {:.1} ms | {:.2} sessions/s | latency p50/p95/p99 = {:.1}/{:.1}/{:.1} ticks\n",
            self.elapsed_modeled_ms,
            self.sessions_per_sec,
            self.latency_ticks[0],
            self.latency_ticks[1],
            self.latency_ticks[2],
        ));
        out.push_str(&format!(
            "  p95 by class: int {:.1} / trn {:.1} / bat {:.1} ticks (completed {}/{}/{})\n",
            self.class_latency_p95[Priority::Interactive.index()],
            self.class_latency_p95[Priority::Training.index()],
            self.class_latency_p95[Priority::Batch.index()],
            self.class_completed[Priority::Interactive.index()],
            self.class_completed[Priority::Training.index()],
            self.class_completed[Priority::Batch.index()],
        ));
        if self.tiering {
            out.push_str(&format!(
                "  tiers: full {} / coarse {} completed | promoted {} demoted {} | p95 full {:.1} / coarse {:.1} ticks\n",
                self.tier_completed[FidelityTier::Full.index()],
                self.tier_completed[FidelityTier::Coarse.index()],
                self.promoted,
                self.demoted,
                self.tier_latency_p95[FidelityTier::Full.index()],
                self.tier_latency_p95[FidelityTier::Coarse.index()],
            ));
        }
        out.push_str(&format!(
            "  mean score {:.1} | pass rate {:.0}% | fingerprint {:016x}\n",
            self.mean_score,
            self.pass_rate * 100.0,
            self.fingerprint
        ));
        out.push_str(
            "  shard | speed | util % | done | built | recycled | pre> | mig> | >mig | peak\n",
        );
        for (i, row) in self.shard_rows.iter().enumerate() {
            out.push_str(&format!(
                "  {i:>5} | {:>5.2} | {:>6.1} | {:>4} | {:>5} | {:>8} | {:>4} | {:>4} | {:>4} | {:>4}\n",
                row.speed,
                row.utilization * 100.0,
                row.completed,
                row.sims_built,
                row.sims_recycled,
                row.preempted_out,
                row.migrated_out,
                row.migrated_in,
                row.peak_residents
            ));
        }
        out
    }
}

/// The tiered-capacity pair of the document: the same rack and seed run once
/// all-Full and once with tiering on, plus the largest per-session
/// final-score drift between the two runs. The drift is a property of the
/// paired [`FleetOutcome`]s (sessions matched by id), not recoverable from
/// the two reports alone, so callers compute and carry it here.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredSection {
    /// The burst workload served with every session on the Full tier.
    pub all_full: FleetReport,
    /// The same workload with fidelity tiering enabled.
    pub tiered: FleetReport,
    /// Largest `|tiered score - all-Full score|` over paired sessions.
    pub max_score_drift: f64,
}

/// The whole `FLEET_cod.json` document: the headline run, the one-shard
/// baseline it is gated against, and — when provided — the heterogeneous pair
/// (residency-only vs speed-weighted placement on the 1×fast + 3×slow fleet)
/// behind the placement gate and the tiered-capacity pair behind the fidelity gate.
pub fn document(
    baseline: &FleetReport,
    fleet: &FleetReport,
    hetero: Option<(&FleetReport, &FleetReport)>,
    tiered: Option<&TieredSection>,
    quick: bool,
) -> Json {
    let ratio = |num: &FleetReport, den: &FleetReport| {
        if den.sessions_per_sec > 0.0 {
            num.sessions_per_sec / den.sessions_per_sec
        } else {
            0.0
        }
    };
    let mut members = vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("quick".into(), Json::Bool(quick)),
        ("scaling_sessions_per_sec".into(), Json::Num(ratio(fleet, baseline))),
        ("baseline_1_shard".into(), baseline.to_json()),
        ("fleet".into(), fleet.to_json()),
    ];
    if let Some((residency, weighted)) = hetero {
        members.push((
            "hetero".into(),
            Json::Obj(vec![
                ("speedup_speed_weighted".into(), Json::Num(ratio(weighted, residency))),
                ("least_resident".into(), residency.to_json()),
                ("speed_weighted".into(), weighted.to_json()),
            ]),
        ));
    }
    if let Some(t) = tiered {
        members.push((
            "tiered".into(),
            Json::Obj(vec![
                ("capacity_multiplier".into(), Json::Num(ratio(&t.tiered, &t.all_full))),
                ("max_score_drift".into(), Json::Num(t.max_score_drift)),
                ("score_drift_tolerance".into(), Json::Num(SCORE_DRIFT_TOLERANCE)),
                ("all_full".into(), t.all_full.to_json()),
                ("tiered".into(), t.tiered.to_json()),
            ]),
        ));
    }
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet, ExecutionMode, FleetConfig};
    use crate::shard::ShardConfig;
    use crate::workload::WorkloadConfig;

    fn outcome() -> FleetOutcome {
        run_fleet(&FleetConfig {
            shards: 2,
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
                sessions: 4,
                seed: 5,
                base_frames: 12,
                mean_interarrival_ticks: 1,
            },
            execution: ExecutionMode::Modeled,
            obs: Default::default(),
        })
        .unwrap()
    }

    #[test]
    fn every_execution_mode_serializes_to_identical_bytes() {
        // The report carries no execution-mode or wall-clock field, so the
        // bytes cannot depend on who stepped the shards — the invariant the
        // executor gates of `fleet_report` and the determinism stress test
        // lean on.
        let mut config = outcome().config;
        let modeled = FleetReport::from_outcome(&run_fleet(&config).unwrap());
        let baseline = modeled.to_json().to_pretty();
        for mode in
            [ExecutionMode::WallClock { threads: 2 }, ExecutionMode::WallClock { threads: 3 }]
        {
            config.execution = mode;
            let report = FleetReport::from_outcome(&run_fleet(&config).unwrap());
            assert_eq!(report.fingerprint, modeled.fingerprint, "fingerprint under {mode:?}");
            assert_eq!(report.to_json().to_pretty(), baseline, "bytes under {mode:?}");
        }
    }

    #[test]
    fn report_serializes_and_round_trips_through_the_shared_parser() {
        let report = FleetReport::from_outcome(&outcome());
        let doc = document(&report, &report, None, None, true);
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(parsed.get("scaling_sessions_per_sec").and_then(Json::as_f64), Some(1.0));
        assert!(parsed.get("hetero").is_none(), "no hetero section unless provided");
        assert!(parsed.get("tiered").is_none(), "no tiered section unless provided");
        let fleet = parsed.get("fleet").unwrap();
        assert_eq!(fleet.get("offered").and_then(Json::as_f64), Some(4.0));
        assert_eq!(fleet.get("placement").and_then(Json::as_str), Some("speed-weighted"));
        assert_eq!(fleet.get("preempted").and_then(Json::as_f64), Some(0.0));
        assert_eq!(fleet.get("tiering").and_then(Json::as_bool), Some(false));
        assert_eq!(fleet.get("promoted").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            fleet.get("completed_by_tier").and_then(|t| t.get("full")).and_then(Json::as_f64),
            Some(4.0),
            "an untiered run completes everything on the Full tier"
        );
        assert!(fleet.get("latency_p95_by_tier").and_then(|t| t.get("coarse")).is_some());
        assert!(fleet.get("latency_p95_by_class").and_then(|c| c.get("int")).is_some());
        assert!(fleet.get("fingerprint").and_then(Json::as_str).is_some());
        // Hex seed survives even above 2^53.
        let seed = fleet.get("seed").and_then(Json::as_str).unwrap();
        assert_eq!(u64::from_str_radix(seed.trim_start_matches("0x"), 16).unwrap(), 5);
    }

    #[test]
    fn hetero_section_carries_both_policies() {
        let report = FleetReport::from_outcome(&outcome());
        let doc = document(&report, &report, Some((&report, &report)), None, true);
        let parsed = Json::parse(&doc.to_pretty()).expect("valid JSON");
        let hetero = parsed.get("hetero").expect("hetero section present");
        assert_eq!(hetero.get("speedup_speed_weighted").and_then(Json::as_f64), Some(1.0));
        assert!(hetero.get("least_resident").is_some());
        assert!(hetero.get("speed_weighted").is_some());
    }

    #[test]
    fn tiered_section_carries_both_runs_and_the_pinned_tolerance() {
        let report = FleetReport::from_outcome(&outcome());
        let section = TieredSection {
            all_full: report.clone(),
            tiered: report.clone(),
            max_score_drift: 1.25,
        };
        let doc = document(&report, &report, None, Some(&section), true);
        let parsed = Json::parse(&doc.to_pretty()).expect("valid JSON");
        let tiered = parsed.get("tiered").expect("tiered section present");
        assert_eq!(tiered.get("capacity_multiplier").and_then(Json::as_f64), Some(1.0));
        assert_eq!(tiered.get("max_score_drift").and_then(Json::as_f64), Some(1.25));
        assert_eq!(
            tiered.get("score_drift_tolerance").and_then(Json::as_f64),
            Some(SCORE_DRIFT_TOLERANCE)
        );
        assert!(tiered.get("all_full").is_some());
        assert!(tiered.get("tiered").is_some());
    }

    #[test]
    fn same_outcome_same_fingerprint_and_bytes() {
        let a = FleetReport::from_outcome(&outcome());
        let b = FleetReport::from_outcome(&outcome());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }

    #[test]
    fn table_mentions_the_headline_numbers() {
        let report = FleetReport::from_outcome(&outcome());
        let table = report.render_table();
        assert!(table.contains("sessions/s"));
        assert!(table.contains("pass rate"));
        assert!(table.contains("p95 by class"));
        assert!(table.contains("speed"));
    }
}
