//! Machine-readable experiment reports (`BENCH_cod.json`).
//!
//! Every experiment of `EXPERIMENTS.md` produces one [`ExperimentResult`]:
//! its derived quantities (frame rates, speedups, latencies) and — where the
//! paper reports a number — a measured-versus-paper [`Comparison`]. The
//! [`BenchReport`] aggregates all of them, renders the paper-style comparison
//! table, and serializes to a single JSON document so CI and future perf PRs
//! can diff results mechanically; the `gates` runner of `cod-testkit` holds
//! the gated metrics to their bounds. Schema documentation lives in the README's
//! "Measurement & benchmarking" section.

use cod_json::Json;

/// Version stamp of the JSON schema; bump on breaking layout changes.
pub const SCHEMA_VERSION: u32 = 3;

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
    /// Measured-versus-paper comparison, where the paper gives a number.
    pub comparison: Option<Comparison>,
    /// Derived quantities.
    pub derived: Vec<DerivedMetric>,
    /// Free-form context (hardware caveats, what the paper value means).
    pub notes: String,
}

impl ExperimentResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("name".into(), Json::Str(self.name.clone())),
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
    pub fn new(generated_unix_ms: u64, experiments: Vec<ExperimentResult>) -> BenchReport {
        BenchReport { schema_version: SCHEMA_VERSION, generated_unix_ms, experiments }
    }

    /// Looks up an experiment by id (`"E8"`).
    pub fn experiment(&self, id: &str) -> Option<&ExperimentResult> {
        self.experiments.iter().find(|e| e.id == id)
    }

    /// Serializes to the JSON tree.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(self.schema_version as f64)),
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

    /// The paper-style comparison table: the measured-versus-paper column of
    /// every experiment, `—` where the paper gives no number.
    pub fn comparison_table(&self) -> String {
        let mut out = String::from("experiment         | measured vs paper\n");
        out.push_str("-------------------+------------------\n");
        for e in &self.experiments {
            let compared = match &e.comparison {
                Some(c) => {
                    format!("{:.1} vs {:.1} {} ({})", c.measured, c.paper, c.unit, c.quantity)
                }
                None => "—".to_owned(),
            };
            out.push_str(&format!("{:<18} | {compared}\n", format!("{} {}", e.id, e.name)));
        }
        out
    }
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

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            generated_unix_ms: 1_753_000_000_000,
            experiments: vec![
                ExperimentResult {
                    id: "E1".into(),
                    name: "framerate".into(),
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
        let experiments = json.get("experiments").unwrap().as_arr().unwrap();
        let e1 = &experiments[0];
        let comparison = e1.get("comparison").unwrap();
        for key in ["measured", "paper"] {
            assert!(comparison.get(key).and_then(Json::as_f64).is_some(), "comparison.{key}");
        }
        let derived = &e1.get("derived").unwrap().as_arr().unwrap()[0];
        assert_eq!(derived.get("value").and_then(Json::as_f64), Some(17.1));
        assert_eq!(experiments[1].get("comparison"), Some(&Json::Null));
        for e in experiments {
            assert!(e.get("timing").is_none(), "schema 3 emits no `timing`");
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
