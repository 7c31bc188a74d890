//! Machine-readable experiment reports (`BENCH_cod.json`).
//!
//! Every experiment of `EXPERIMENTS.md` produces one [`ExperimentResult`]:
//! the wall-clock timing statistics of its headline routine plus any derived
//! quantities (frame rates, speedups, latencies) and — where the paper
//! reports a number — a measured-versus-paper [`Comparison`]. The
//! [`BenchReport`] aggregates all of them, renders the paper-style comparison
//! table, and serializes to a single JSON document so CI and future perf PRs
//! can diff results mechanically. Schema documentation lives in the README's
//! "Measurement & benchmarking" section.

use std::io;
use std::path::Path;

use crate::measure::Stats;
use cod_json::Json;

/// Version stamp of the JSON schema; bump on breaking layout changes.
pub const SCHEMA_VERSION: u32 = 2;

/// A secondary quantity derived from an experiment (a rate, a ratio, a
/// simulated-time latency, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedMetric {
    /// Metric name, e.g. `"cluster_fps"`.
    pub name: String,
    /// Unit, e.g. `"fps"`.
    pub unit: String,
    /// Value.
    pub value: f64,
}

impl DerivedMetric {
    /// Convenience constructor.
    pub fn new(name: &str, unit: &str, value: f64) -> DerivedMetric {
        DerivedMetric { name: name.to_owned(), unit: unit.to_owned(), value }
    }
}

/// A measured quantity next to the value the paper reports for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// What is being compared, e.g. `"synchronized surround-view frame rate"`.
    pub quantity: String,
    /// Unit of both values.
    pub unit: String,
    /// Our measured / modeled value.
    pub measured: f64,
    /// The paper-reported value.
    pub paper: f64,
}

/// Result of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment id, `"E1"` .. `"E15"` (retired ids are absent).
    pub id: String,
    /// Short experiment name, as `cargo bench --bench experiments -- <name>` takes it.
    pub name: String,
    /// What the timed routine is.
    pub metric: String,
    /// Timing statistics in nanoseconds per iteration.
    pub timing: Stats,
    /// Calibrated iterations per timed sample.
    pub iters_per_sample: u64,
    /// Measured-versus-paper comparison, where the paper gives a number.
    pub comparison: Option<Comparison>,
    /// Derived quantities.
    pub derived: Vec<DerivedMetric>,
    /// Free-form context (hardware caveats, what the paper value means).
    pub notes: String,
}

impl ExperimentResult {
    /// One-line human summary of the timing statistics.
    pub fn summary(&self) -> String {
        let t = &self.timing;
        format!(
            "{} {}: {} median {} p95 {} p99 {} ({} samples, {} kept, {} iters/sample)",
            self.id,
            self.name,
            self.metric,
            format_ns(t.median),
            format_ns(t.p95),
            format_ns(t.p99),
            t.samples,
            t.kept,
            self.iters_per_sample,
        )
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("name".into(), Json::Str(self.name.clone())),
            ("metric".into(), Json::Str(self.metric.clone())),
            ("unit".into(), Json::Str("ns_per_iter".into())),
            ("timing".into(), stats_to_json(&self.timing)),
            ("iters_per_sample".into(), Json::Num(self.iters_per_sample as f64)),
            (
                "comparison".into(),
                match &self.comparison {
                    None => Json::Null,
                    Some(c) => Json::Obj(vec![
                        ("quantity".into(), Json::Str(c.quantity.clone())),
                        ("unit".into(), Json::Str(c.unit.clone())),
                        ("measured".into(), Json::Num(c.measured)),
                        ("paper".into(), Json::Num(c.paper)),
                    ]),
                },
            ),
            (
                "derived".into(),
                Json::Arr(
                    self.derived
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(d.name.clone())),
                                ("unit".into(), Json::Str(d.unit.clone())),
                                ("value".into(), Json::Num(d.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("notes".into(), Json::Str(self.notes.clone())),
        ])
    }

    fn from_json(json: &Json) -> Result<ExperimentResult, String> {
        let comparison = match json.get("comparison") {
            None | Some(Json::Null) => None,
            Some(c) => Some(Comparison {
                quantity: str_field(c, "quantity")?,
                unit: str_field(c, "unit")?,
                measured: num_field(c, "measured")?,
                paper: num_field(c, "paper")?,
            }),
        };
        let derived = json
            .get("derived")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|d| {
                Ok(DerivedMetric {
                    name: str_field(d, "name")?,
                    unit: str_field(d, "unit")?,
                    value: num_field(d, "value")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ExperimentResult {
            id: str_field(json, "id")?,
            name: str_field(json, "name")?,
            metric: str_field(json, "metric")?,
            timing: stats_from_json(
                json.get("timing").ok_or_else(|| "experiment missing 'timing'".to_owned())?,
            )?,
            iters_per_sample: num_field(json, "iters_per_sample")? as u64,
            comparison,
            derived,
            notes: str_field(json, "notes")?,
        })
    }
}

/// The aggregate report written to `BENCH_cod.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Whether the reduced `--quick` measurement budget was used.
    pub quick: bool,
    /// Wall-clock generation time, milliseconds since the Unix epoch.
    pub generated_unix_ms: u64,
    /// One entry per experiment, E1 first.
    pub experiments: Vec<ExperimentResult>,
}

impl BenchReport {
    /// Builds a report stamped with `generated_unix_ms` (milliseconds since
    /// the Unix epoch — [`crate::measure::wall_unix_ms`] supplies it). The
    /// clock read lives with the rest of the measurement layer's wall-clock
    /// plumbing, not here: this module's output is diffed mechanically by
    /// CI, so `cod_audit` holds it to the ambient-env rule.
    pub fn new(
        quick: bool,
        generated_unix_ms: u64,
        experiments: Vec<ExperimentResult>,
    ) -> BenchReport {
        BenchReport { schema_version: SCHEMA_VERSION, quick, generated_unix_ms, experiments }
    }

    /// Looks up an experiment by id (`"E8"`).
    pub fn experiment(&self, id: &str) -> Option<&ExperimentResult> {
        self.experiments.iter().find(|e| e.id == id)
    }

    /// Serializes to the JSON tree.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(self.schema_version as f64)),
            ("quick".into(), Json::Bool(self.quick)),
            ("generated_unix_ms".into(), Json::Num(self.generated_unix_ms as f64)),
            (
                "experiments".into(),
                Json::Arr(self.experiments.iter().map(ExperimentResult::to_json).collect()),
            ),
        ])
    }

    /// Deserializes from the JSON tree.
    pub fn from_json(json: &Json) -> Result<BenchReport, String> {
        let experiments = json
            .get("experiments")
            .and_then(Json::as_arr)
            .ok_or_else(|| "report missing 'experiments' array".to_owned())?
            .iter()
            .map(ExperimentResult::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport {
            schema_version: num_field(json, "schema_version")? as u32,
            quick: json
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or_else(|| "report missing 'quick'".to_owned())?,
            generated_unix_ms: num_field(json, "generated_unix_ms")? as u64,
            experiments,
        })
    }

    /// Renders the pretty JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses a document produced by [`BenchReport::to_json_string`].
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        BenchReport::from_json(&json)
    }

    /// Writes the JSON document to `path`.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }

    /// The paper-style comparison table: timing summary per experiment plus
    /// the measured-versus-paper column where a paper value exists.
    pub fn comparison_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "experiment         | median    | p95       | p99       | n  | measured vs paper\n",
        );
        out.push_str(
            "-------------------+-----------+-----------+-----------+----+------------------\n",
        );
        for e in &self.experiments {
            let compared = match &e.comparison {
                Some(c) => {
                    format!("{:.1} vs {:.1} {} ({})", c.measured, c.paper, c.unit, c.quantity)
                }
                None => "—".to_owned(),
            };
            out.push_str(&format!(
                "{:<18} | {:>9} | {:>9} | {:>9} | {:>2} | {}\n",
                format!("{} {}", e.id, e.name),
                format_ns(e.timing.median),
                format_ns(e.timing.p95),
                format_ns(e.timing.p99),
                e.timing.kept,
                compared,
            ));
        }
        out
    }
}

fn stats_to_json(stats: &Stats) -> Json {
    Json::Obj(vec![
        ("samples".into(), Json::Num(stats.samples as f64)),
        ("kept".into(), Json::Num(stats.kept as f64)),
        ("outliers_rejected".into(), Json::Num(stats.outliers_rejected as f64)),
        ("mean".into(), Json::Num(stats.mean)),
        ("median".into(), Json::Num(stats.median)),
        ("p95".into(), Json::Num(stats.p95)),
        ("p99".into(), Json::Num(stats.p99)),
        ("min".into(), Json::Num(stats.min)),
        ("max".into(), Json::Num(stats.max)),
        ("std_dev".into(), Json::Num(stats.std_dev)),
        ("mad".into(), Json::Num(stats.mad)),
        ("ci_low".into(), Json::Num(stats.ci_low)),
        ("ci_high".into(), Json::Num(stats.ci_high)),
        ("confidence".into(), Json::Num(stats.confidence)),
    ])
}

fn stats_from_json(json: &Json) -> Result<Stats, String> {
    Ok(Stats {
        samples: num_field(json, "samples")? as usize,
        kept: num_field(json, "kept")? as usize,
        outliers_rejected: num_field(json, "outliers_rejected")? as usize,
        mean: num_field(json, "mean")?,
        median: num_field(json, "median")?,
        p95: num_field(json, "p95")?,
        p99: num_field(json, "p99")?,
        min: num_field(json, "min")?,
        max: num_field(json, "max")?,
        std_dev: num_field(json, "std_dev")?,
        mad: num_field(json, "mad")?,
        ci_low: num_field(json, "ci_low")?,
        ci_high: num_field(json, "ci_high")?,
        confidence: num_field(json, "confidence")?,
    })
}

fn str_field(json: &Json, key: &str) -> Result<String, String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn num_field(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number field '{key}'"))
}

/// Human-formats a nanosecond quantity with an adaptive unit.
pub fn format_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "n/a".to_owned()
    } else if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureConfig;

    fn sample_stats() -> Stats {
        let xs: Vec<f64> = (0..20).map(|i| 1_000.0 + (i % 4) as f64 * 10.0).collect();
        Stats::from_samples(&xs, &MeasureConfig::default())
    }

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            quick: true,
            generated_unix_ms: 1_753_000_000_000,
            experiments: vec![
                ExperimentResult {
                    id: "E1".into(),
                    name: "framerate".into(),
                    metric: "render one surround frame".into(),
                    timing: sample_stats(),
                    iters_per_sample: 12,
                    comparison: Some(Comparison {
                        quantity: "synchronized fps at 3235 polygons".into(),
                        unit: "fps".into(),
                        measured: 16.2,
                        paper: 16.0,
                    }),
                    derived: vec![DerivedMetric::new("free_running_fps", "fps", 17.1)],
                    notes: "unit \"quotes\" and\nnewlines survive".into(),
                },
                ExperimentResult {
                    id: "E3".into(),
                    name: "collision".into(),
                    metric: "trajectory sweep".into(),
                    timing: sample_stats(),
                    iters_per_sample: 1,
                    comparison: None,
                    derived: vec![],
                    notes: String::new(),
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report.to_json_string();
        let parsed = BenchReport::parse(&text).expect("parses back");
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_document_exposes_required_schema_fields() {
        let json = sample_report().to_json();
        let e1 = &json.get("experiments").unwrap().as_arr().unwrap()[0];
        let timing = e1.get("timing").unwrap();
        for key in ["median", "p95", "p99", "samples", "kept", "ci_low", "ci_high"] {
            assert!(timing.get(key).and_then(Json::as_f64).is_some(), "timing.{key} missing");
        }
        assert_eq!(e1.get("id").unwrap().as_str(), Some("E1"));
        assert_eq!(json.get("schema_version").unwrap().as_f64(), Some(SCHEMA_VERSION as f64));
    }

    #[test]
    fn comparison_table_lists_every_experiment() {
        let table = sample_report().comparison_table();
        assert!(table.contains("E1 framerate"));
        assert!(table.contains("E3 collision"));
        assert!(table.contains("16.2 vs 16.0 fps"));
    }

    #[test]
    fn format_ns_picks_adaptive_units() {
        assert_eq!(format_ns(250.0), "250 ns");
        assert_eq!(format_ns(2_500.0), "2.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn experiment_lookup_by_id() {
        let report = sample_report();
        assert!(report.experiment("E3").is_some());
        assert!(report.experiment("E8").is_none());
    }
}
