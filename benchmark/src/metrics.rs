//! The metric names this benchmark reports, with units, directions and
//! regression bounds. `BENCHMARK.json` lists the same tables; a unit test
//! keeps the two in step.

use std::collections::BTreeMap;

use cod_json::Json;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`, at most 64 characters).
    pub name: &'static str,
    /// Unit (`[A-Za-z0-9_/%.-]`, at most 16 characters).
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen; `None`
    /// for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// The end-to-end metrics, each defined on every workload.
///
/// A bound is about three times the widest quartile spread ten runs with ten
/// seeds showed on the reference box (README, "Run-to-run spread"), capped at
/// the 0.25 the contract allows: the box's speed shifts by ~25% for tens of
/// seconds at a time, so wall metrics sit at the cap.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("frames_per_wall_sec", "1/s", Better::Higher, 0.25),
    e2e("sessions_per_wall_sec", "1/s", Better::Higher, 0.25),
    e2e("drain_wall_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("modeled_frames_per_sec", "fps", Better::Higher, 0.25),
];

/// The per-layer metrics (layer = crate name). A layer that is not on a
/// workload's path reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Frame waterfall of the traced rack (self time per frame) and the
    // per-frame latency of its untraced twin.
    lower("crane-sim.frame_wall_us_p50", "us"),
    lower("crane-sim.frame_wall_us_p99", "us"),
    lower("crane-sim.audio.step_ns", "ns"),
    lower("crane-sim.visual.step_ns", "ns"),
    lower("crane-sim.dynamics.step_ns", "ns"),
    lower("crane-sim.dashboard.step_ns", "ns"),
    lower("crane-sim.scenario.step_ns", "ns"),
    lower("crane-sim.instructor.step_ns", "ns"),
    lower("crane-sim.motion.step_ns", "ns"),
    lower("cod-cluster.framesync.step_ns", "ns"),
    lower("cod-cluster.executive_self_ns", "ns"),
    lower("cod-cluster.executive_self_share", "ratio"),
    lower("cod-cb.api_calls_per_frame", "count"),
    lower("cod-cb.api_ns_per_frame", "ns"),
    lower("cod-net.datagrams_per_frame", "count"),
    lower("cod-net.deliveries_per_frame", "count"),
    lower("cod-net.bytes_per_frame", "B"),
    lower("cod-net.fault_drop_share", "ratio"),
    lower("bench.trace_overhead_pct", "%"),
    // Probes: isolated timed calls with the workload's inputs.
    lower("crane-sim.step_frame_full_ns", "ns"),
    lower("crane-sim.step_frame_coarse_ns", "ns"),
    lower("crane-sim.rack_build_us", "us"),
    lower("crane-sim.rack_build_coarse_us", "us"),
    lower("crane-sim.reset_us", "us"),
    lower("cod-cb.remote_round_ns", "ns"),
    lower("cod-cb.discovery_us", "us"),
    lower("audio-sim.mix_frame_ns", "ns"),
    lower("crane-physics.dynamics_frame_ns", "ns"),
    lower("crane-physics.collision_sweep_ns", "ns"),
    lower("render-sim.channel_cost_ns", "ns"),
    lower("motion-platform.controller_frame_ns", "ns"),
    lower("sim-math.rk4_step_ns", "ns"),
    lower("sim-math.rk4_batch8_lane_ns", "ns"),
    lower("crane-scene.world_build_us", "us"),
    lower("cod-fleet.shard.admit_build_us", "us"),
    lower("cod-fleet.shard.admit_recycle_us", "us"),
    lower("cod-fleet.shard.step_batch_us", "us"),
    lower("cod-fleet.shard.replay_ns_per_frame", "ns"),
    lower("cod-fleet.workload.generate_us", "us"),
    lower("cod-fleet.admission.op_ns", "ns"),
    lower("cod-fleet.report.render_us", "us"),
    // Counts read from program-returned stats.
    higher("audio-sim.wavebank_hit_rate", "ratio"),
    higher("cod-fleet.shard.mean_cohort_size", "count"),
    higher("cod-fleet.shard.pool_hit_rate", "ratio"),
    lower("cod-fleet.shard.replay_frame_share", "ratio"),
    // Drain waterfall of the traced fleet.
    lower("cod-fleet.fleet.tick_us_p50", "us"),
    lower("cod-fleet.fleet.tick_us_p95", "us"),
    lower("cod-fleet.fleet.driver_serial_share", "ratio"),
    lower("cod-fleet.fleet.nonstepping_share", "ratio"),
    lower("cod-fleet.fleet.wall_per_frame_ratio", "x"),
    higher("cod-fleet.executor.busy_share", "ratio"),
    lower("cod-fleet.executor.idle_share", "ratio"),
    lower("cod-fleet.executor.task_us_p50", "us"),
    lower("cod-fleet.executor.tasks", "count"),
    lower("cod-fleet.executor.steals", "count"),
    lower("cod-fleet.executor.idle_spins", "count"),
    lower("cod-fleet.executor.overhead_ratio", "x"),
    higher("cod-fleet.executor.wall_scaling", "x"),
    lower("cod-trace.obs_overhead_pct", "%"),
    // The simulator's own cost model: exact per seed.
    higher("modeled_cod_speedup", "x"),
    higher("modeled_sync_fps", "fps"),
    higher("modeled_sessions_per_sec", "1/s"),
    lower("modeled_latency_ticks_p95", "ticks"),
    // The harness itself.
    lower("bench.repeat_iqr_pct", "%"),
    higher("bench.repeats", "count"),
    higher("bench.threads", "count"),
];

#[cfg(test)]
/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, then letters, digits, `_`, `.` and `-`, at most 64 in all.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a legal unit: letters, digits, `_`, `/`, `%`, `.` and
/// `-`, 1 to 16 characters.
pub fn is_valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Measured values keyed by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither metric table: a typo must not silently
    /// become a missing metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unknown metric name {name}"
        );
        self.0.insert(name, value);
    }

    /// Records every pair of `entries`.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in entries {
            self.set(name, value);
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line for one table: every metric of
    /// `table` with its unit. A metric without a value reports 0 — the layer
    /// is not on this workload's path.
    pub fn to_json(&self, table: &[MetricDef]) -> Json {
        Json::Obj(
            table
                .iter()
                .map(|m| {
                    let value = self.get(m.name).unwrap_or(0.0);
                    (
                        m.name.to_owned(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(value)),
                            ("unit".into(), Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    #[test]
    fn every_name_and_unit_fits_the_charset() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(m.name), "bad metric name {}", m.name);
            assert!(is_valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        }
        for name in NAMES {
            assert!(is_valid_name(name), "bad workload name {name}");
        }
        assert!(!is_valid_name(""));
        assert!(!is_valid_name(".hidden"));
        assert!(!is_valid_name("frame wall"));
        assert!(!is_valid_name("frame_wall_µs"));
        assert!(!is_valid_name(&"x".repeat(65)));
        assert!(!is_valid_unit("µs"));
        assert!(is_valid_unit("1/s") && is_valid_unit("%"));
    }

    #[test]
    fn names_are_used_once_and_setup_s_is_bounded_loosest() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let loosest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(loosest));
        assert!(loosest <= 0.25);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = match &doc {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json must be an object"),
        };
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let listed =
            |key: &str| -> Vec<Json> { doc.get(key).and_then(Json::as_arr).unwrap().to_vec() };
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(workloads, NAMES);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = listed(key);
            assert_eq!(entries.len(), table.len(), "{key} length");
            for (entry, m) in entries.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(better), "{}", m.name);
                assert_eq!(entry.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }

    #[test]
    fn result_metrics_round_trip_through_cod_json() {
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        values.set("frames_per_wall_sec", 12_345.678_9);
        let line = crate::one_line(&values.to_json(END_TO_END));
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("emitted metrics parse");
        let setup = parsed.get("setup_s").expect("setup_s present");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            parsed.get("peak_rss_mb").and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(0.0),
            "an unset metric reports 0"
        );
        assert_eq!(parsed, values.to_json(END_TO_END));
    }

    #[test]
    #[should_panic(expected = "unknown metric name")]
    fn a_misspelt_metric_name_is_rejected() {
        Values::default().set("setup_secs", 1.0);
    }
}
