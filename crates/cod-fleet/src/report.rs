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

use crate::fleet::FleetEventKind::{Demote, Migrate, Preempt, Promote};
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

/// A view of one fleet run as `FLEET_cod.json` lays it out. It copies
/// nothing: [`FleetReport::to_json`] and [`FleetReport::render_table`] read
/// the config and each shard's [`ShardStats`](crate::shard::ShardStats) off
/// the borrowed outcome and fold the totals and per-shard move columns from
/// its event log; the fingerprint is [`FleetOutcome::fingerprint`].
/// `from_outcome` is the constructor because `benchmark/` calls
/// `FleetReport::from_outcome(&outcome).to_json()`.
#[derive(Debug, Clone, Copy)]
pub struct FleetReport<'a> {
    outcome: &'a FleetOutcome,
}

fn placement_name(placement: PlacementPolicy) -> &'static str {
    match placement {
        PlacementPolicy::LeastResident => "least-resident",
        PlacementPolicy::SpeedWeighted => "speed-weighted",
    }
}

fn on_off(enabled: bool) -> &'static str {
    if enabled {
        "on"
    } else {
        "off"
    }
}

/// One member per priority class, keyed by its tag.
fn by_class(value: impl Fn(Priority) -> f64) -> Json {
    Json::Obj(Priority::ALL.iter().map(|&p| (p.tag().to_owned(), Json::Num(value(p)))).collect())
}

/// One member per fidelity tier, keyed by its tag.
fn by_tier(value: impl Fn(FidelityTier) -> f64) -> Json {
    Json::Obj(
        FidelityTier::ALL.iter().map(|&t| (t.tag().to_owned(), Json::Num(value(t)))).collect(),
    )
}

impl<'a> FleetReport<'a> {
    /// The report of `outcome`.
    pub fn from_outcome(outcome: &'a FleetOutcome) -> FleetReport<'a> {
        FleetReport { outcome }
    }

    /// Serializes to the `FLEET_cod.json` schema (one run's worth).
    pub fn to_json(&self) -> Json {
        let o = self.outcome;
        let c = &o.config;
        let num = |v: u64| Json::Num(v as f64);
        let done_shard = |i| o.completed_where(|s| s.shard == i);
        Json::Obj(vec![
            ("seed".into(), Json::Str(format!("{:#x}", c.workload.seed))),
            ("shards".into(), num(c.shards as u64)),
            (
                "shard_speeds".into(),
                Json::Arr((0..c.shards).map(|i| Json::Num(c.speed_of(i))).collect()),
            ),
            ("placement".into(), Json::Str(placement_name(c.placement).into())),
            ("preemption".into(), Json::Bool(c.preemption)),
            ("migration".into(), Json::Bool(c.migration)),
            ("tiering".into(), Json::Bool(c.tiering)),
            ("slots_per_shard".into(), num(c.shard.slots as u64)),
            ("batch_frames".into(), num(c.shard.batch_frames as u64)),
            ("max_pending".into(), num(c.max_pending as u64)),
            ("offered".into(), num(o.offered)),
            ("admitted".into(), num(o.admitted())),
            ("completed".into(), num(o.sessions.len() as u64)),
            ("rejected".into(), num(o.rejected)),
            ("preempted".into(), num(o.preempted())),
            ("migrated".into(), num(o.migrated())),
            ("promoted".into(), num(o.promoted())),
            ("demoted".into(), num(o.demoted())),
            ("ticks".into(), num(o.ticks_run)),
            ("elapsed_modeled_ms".into(), Json::Num(o.elapsed_modeled.as_secs_f64() * 1e3)),
            ("sessions_per_sec".into(), Json::Num(o.sessions_per_sec())),
            ("latency_p50_ticks".into(), Json::Num(o.latency_percentile_ticks(50.0))),
            ("latency_p95_ticks".into(), Json::Num(o.latency_percentile_ticks(95.0))),
            ("latency_p99_ticks".into(), Json::Num(o.latency_percentile_ticks(99.0))),
            (
                "latency_p95_by_class".into(),
                by_class(|p| o.latency_percentile_ticks_where(95.0, |s| s.priority == p)),
            ),
            (
                "completed_by_class".into(),
                by_class(|p| o.completed_where(|s| s.priority == p) as f64),
            ),
            ("completed_by_tier".into(), by_tier(|t| o.completed_where(|s| s.tier == t) as f64)),
            (
                "latency_p95_by_tier".into(),
                by_tier(|t| o.latency_percentile_ticks_where(95.0, |s| s.tier == t)),
            ),
            ("mean_score_by_tier".into(), by_tier(|t| o.mean_score_where(|s| s.tier == t))),
            ("mean_score".into(), Json::Num(o.mean_score_where(|_| true))),
            ("pass_rate".into(), Json::Num(o.pass_rate())),
            (
                "shards_detail".into(),
                Json::Arr(
                    o.shard_stats
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            Json::Obj(vec![
                                ("shard".into(), num(i as u64)),
                                ("speed".into(), Json::Num(c.speed_of(i))),
                                ("utilization".into(), Json::Num(o.shard_utilization(i))),
                                ("completed".into(), num(done_shard(i) as u64)),
                                ("sims_built".into(), num(s.sims_built)),
                                ("sims_recycled".into(), num(s.sims_recycled)),
                                ("preempted_out".into(), num(o.count_on(Preempt, i))),
                                ("migrated_out".into(), num(o.migrated_out(i))),
                                ("migrated_in".into(), num(o.count_on(Migrate, i))),
                                ("replayed_frames".into(), num(s.replayed_frames)),
                                ("promoted".into(), num(o.count_on(Promote, i))),
                                ("demoted".into(), num(o.count_on(Demote, i))),
                                ("peak_residents".into(), num(s.peak_residents as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("fingerprint".into(), Json::Str(format!("{:016x}", o.fingerprint()))),
        ])
    }

    /// Renders the human-readable summary.
    pub fn render_table(&self) -> String {
        let o = self.outcome;
        let c = &o.config;
        let p95_class = |p| o.latency_percentile_ticks_where(95.0, |s| s.priority == p);
        let done_class = |p| o.completed_where(|s| s.priority == p);
        let p95_tier = |t| o.latency_percentile_ticks_where(95.0, |s| s.tier == t);
        let done_tier = |t| o.completed_where(|s| s.tier == t);
        let done_shard = |i| o.completed_where(|s| s.shard == i);
        let mut out = String::new();
        out.push_str(&format!(
            "  {} shards x {} slots ({}, preemption {}, migration {}, tiering {}) | offered {} admitted {} completed {} rejected {} preempted {} migrated {}\n",
            c.shards,
            c.shard.slots,
            placement_name(c.placement),
            on_off(c.preemption),
            on_off(c.migration),
            on_off(c.tiering),
            o.offered,
            o.admitted(),
            o.sessions.len(),
            o.rejected,
            o.preempted(),
            o.migrated(),
        ));
        out.push_str(&format!(
            "  modeled serving time {:.1} ms | {:.2} sessions/s | latency p50/p95/p99 = {:.1}/{:.1}/{:.1} ticks\n",
            o.elapsed_modeled.as_secs_f64() * 1e3,
            o.sessions_per_sec(),
            o.latency_percentile_ticks(50.0),
            o.latency_percentile_ticks(95.0),
            o.latency_percentile_ticks(99.0),
        ));
        out.push_str(&format!(
            "  p95 by class: int {:.1} / trn {:.1} / bat {:.1} ticks (completed {}/{}/{})\n",
            p95_class(Priority::Interactive),
            p95_class(Priority::Training),
            p95_class(Priority::Batch),
            done_class(Priority::Interactive),
            done_class(Priority::Training),
            done_class(Priority::Batch),
        ));
        if c.tiering {
            out.push_str(&format!(
                "  tiers: full {} / coarse {} completed | promoted {} demoted {} | p95 full {:.1} / coarse {:.1} ticks\n",
                done_tier(FidelityTier::Full),
                done_tier(FidelityTier::Coarse),
                o.promoted(),
                o.demoted(),
                p95_tier(FidelityTier::Full),
                p95_tier(FidelityTier::Coarse),
            ));
        }
        out.push_str(&format!(
            "  mean score {:.1} | pass rate {:.0}% | fingerprint {:016x}\n",
            o.mean_score_where(|_| true),
            o.pass_rate() * 100.0,
            o.fingerprint()
        ));
        out.push_str(
            "  shard | speed | util % | done | built | recycled | pre> | mig> | >mig | peak\n",
        );
        for (i, s) in o.shard_stats.iter().enumerate() {
            out.push_str(&format!(
                "  {i:>5} | {:>5.2} | {:>6.1} | {:>4} | {:>5} | {:>8} | {:>4} | {:>4} | {:>4} | {:>4}\n",
                c.speed_of(i),
                o.shard_utilization(i) * 100.0,
                done_shard(i),
                s.sims_built,
                s.sims_recycled,
                o.count_on(Preempt, i),
                o.migrated_out(i),
                o.count_on(Migrate, i),
                s.peak_residents
            ));
        }
        out
    }
}

/// The tiered-capacity pair of the document: the same rack and seed run once
/// all-Full and once with tiering on, plus the largest per-session
/// final-score drift between the two runs (sessions matched by id), which
/// callers compute and carry here.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredSection {
    /// The burst workload served with every session on the Full tier.
    pub all_full: FleetOutcome,
    /// The same workload with fidelity tiering enabled.
    pub tiered: FleetOutcome,
    /// Largest `|tiered score - all-Full score|` over paired sessions.
    pub max_score_drift: f64,
}

/// The whole `FLEET_cod.json` document: the headline run, the one-shard
/// baseline it is gated against, the heterogeneous pair (residency-only vs
/// speed-weighted placement on the 1×fast + 3×slow fleet) behind the
/// placement gate and the tiered-capacity pair behind the fidelity gate.
pub fn document(
    baseline: &FleetOutcome,
    fleet: &FleetOutcome,
    (residency, weighted): (&FleetOutcome, &FleetOutcome),
    tiered: &TieredSection,
    quick: bool,
) -> Json {
    let ratio = |num: &FleetOutcome, den: &FleetOutcome| {
        if den.sessions_per_sec() > 0.0 {
            num.sessions_per_sec() / den.sessions_per_sec()
        } else {
            0.0
        }
    };
    let json = |outcome| FleetReport::from_outcome(outcome).to_json();
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("quick".into(), Json::Bool(quick)),
        ("scaling_sessions_per_sec".into(), Json::Num(ratio(fleet, baseline))),
        ("baseline_1_shard".into(), json(baseline)),
        ("fleet".into(), json(fleet)),
        (
            "hetero".into(),
            Json::Obj(vec![
                ("speedup_speed_weighted".into(), Json::Num(ratio(weighted, residency))),
                ("least_resident".into(), json(residency)),
                ("speed_weighted".into(), json(weighted)),
            ]),
        ),
        (
            "tiered".into(),
            Json::Obj(vec![
                ("capacity_multiplier".into(), Json::Num(ratio(&tiered.tiered, &tiered.all_full))),
                ("max_score_drift".into(), Json::Num(tiered.max_score_drift)),
                ("score_drift_tolerance".into(), Json::Num(SCORE_DRIFT_TOLERANCE)),
                ("all_full".into(), json(&tiered.all_full)),
                ("tiered".into(), json(&tiered.tiered)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_trace::ObsConfig;

    use crate::fleet::{run_fleet, run_fleet_traced, ExecutionMode, FleetConfig};
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
        // executor gates of the `gates` runner and the determinism stress test
        // lean on.
        let mut config = outcome().config;
        let modeled = run_fleet(&config).unwrap();
        let baseline = FleetReport::from_outcome(&modeled).to_json().to_pretty();
        for mode in
            [ExecutionMode::WallClock { threads: 2 }, ExecutionMode::WallClock { threads: 3 }]
        {
            config.execution = mode;
            let pooled = run_fleet(&config).unwrap();
            assert_eq!(pooled.fingerprint(), modeled.fingerprint(), "fingerprint under {mode:?}");
            let bytes = FleetReport::from_outcome(&pooled).to_json().to_pretty();
            assert_eq!(bytes, baseline, "bytes under {mode:?}");
        }
    }

    /// The document with `outcome` in every slot and the given tiered drift,
    /// parsed back through the shared parser.
    fn parsed_document(outcome: &FleetOutcome, max_score_drift: f64) -> Json {
        let tiered =
            TieredSection { all_full: outcome.clone(), tiered: outcome.clone(), max_score_drift };
        let doc = document(outcome, outcome, (outcome, outcome), &tiered, true);
        Json::parse(&doc.to_pretty()).expect("valid JSON")
    }

    #[test]
    fn report_serializes_and_round_trips_through_the_shared_parser() {
        let parsed = parsed_document(&outcome(), 0.0);
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(parsed.get("quick").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("scaling_sessions_per_sec").and_then(Json::as_f64), Some(1.0));
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
        let parsed = parsed_document(&outcome(), 0.0);
        let hetero = parsed.get("hetero").expect("hetero section present");
        assert_eq!(hetero.get("speedup_speed_weighted").and_then(Json::as_f64), Some(1.0));
        assert!(hetero.get("least_resident").is_some());
        assert!(hetero.get("speed_weighted").is_some());
    }

    #[test]
    fn tiered_section_carries_both_runs_and_the_pinned_tolerance() {
        let parsed = parsed_document(&outcome(), 1.25);
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
        let (a, b) = (outcome(), outcome());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let bytes = |o| FleetReport::from_outcome(o).to_json().to_pretty();
        assert_eq!(bytes(&a), bytes(&b));
    }

    /// A 2.0 + 0.5 pair of one-slot shards with preemption, migration and
    /// tiering on, so every ledger counter and shard column is non-zero
    /// somewhere.
    fn every_mechanism_config() -> FleetConfig {
        let mut config = outcome().config;
        config.shard.slots = 1;
        config.shard_speeds = vec![2.0, 0.5];
        config.preemption = true;
        config.migration = true;
        config.tiering = true;
        config.max_pending = 8;
        config.workload.sessions = 8;
        config.workload.base_frames = 16;
        config
    }

    #[test]
    fn the_report_bytes_of_a_run_with_every_mechanism_firing_are_pinned() {
        // The pins are this layout's fingerprint and the FNV-1a of its
        // pretty JSON: a moved field, a renamed key or a changed fold order
        // fails here by value.
        let outcome = run_fleet(&every_mechanism_config()).unwrap();
        let (preempted, migrated, demoted) =
            (outcome.preempted(), outcome.migrated(), outcome.demoted());
        assert!(preempted > 0 && migrated > 0 && demoted > 0, "{preempted}/{migrated}/{demoted}");
        let json = FleetReport::from_outcome(&outcome).to_json();
        assert_eq!(json.get("fingerprint").and_then(Json::as_str), Some("d55b540e4ff58308"));
        let mut bytes = sim_math::Fnv1a::new();
        bytes.write_bytes(json.to_pretty().as_bytes());
        assert_eq!(bytes.finish(), 0xd219_b966_0367_17a4);
    }

    #[test]
    fn the_obs_bytes_of_a_run_with_every_mechanism_firing_are_pinned() {
        // The same run with the deterministic sink armed. Its events, rendered
        // from the outcome's log, carry the order of every placement,
        // preemption, migration and retier, so a change to the order the
        // queue hands sessions out fails here by value.
        let config = FleetConfig { obs: ObsConfig::Deterministic, ..every_mechanism_config() };
        let (_, _, artifacts) = run_fleet_traced(&config).unwrap();
        let det = artifacts.det.expect("the deterministic sink was armed");
        for kind in ["place", "preempt", "migrate", "demote"] {
            assert!(det.events_of(kind) > 0, "no {kind} event");
        }
        assert_eq!(det.fingerprint(), 0x7c11_e55a_2779_5caf);
        let mut bytes = sim_math::Fnv1a::new();
        bytes.write_bytes(det.to_report_json(config.workload.seed).to_pretty().as_bytes());
        assert_eq!(bytes.finish(), 0xb3be_6bb5_c657_e03a);
    }

    #[test]
    fn table_mentions_the_headline_numbers() {
        let table = FleetReport::from_outcome(&outcome()).render_table();
        assert!(table.contains("sessions/s"));
        assert!(table.contains("pass rate"));
        assert!(table.contains("p95 by class"));
        assert!(table.contains("speed"));
    }
}
