//! `--compare a.json b.json`: the before/after table every later PR states
//! its performance claim in, and the A/A check of this benchmark itself.
//!
//! Rows are matched per workload. An end-to-end metric whose median got
//! worse by more than its bound is `regressed` — unless either side's own
//! repeat spread is wider than the bound, in which case the pair cannot tell
//! and the row reads `unresolved`. `modeled_*` metrics, `failed` and the
//! simulation fingerprint are a function of (code, seed) alone: with equal
//! seeds they must match exactly.

use cod_json::Json;

use crate::metrics::{Better, MetricDef, END_TO_END};

/// What the pair of runs says about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The runs' own spread exceeds the bound; the pair cannot resolve it.
    Unresolved,
    /// An exact-match quantity matches.
    Exact,
    /// An exact-match quantity differs.
    Mismatch,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Exact => "exact",
            Verdict::Mismatch => "MISMATCH",
        }
    }

    /// Whether this verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Mismatch)
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload the row belongs to.
    pub workload: String,
    /// Metric (or `failed` / `sim_fingerprint`).
    pub metric: String,
    /// Side A, as printed.
    pub a: String,
    /// Side B, as printed.
    pub b: String,
    /// Share by which B is worse than A (negative: better); `None` for
    /// exact-match rows.
    pub worse_by: Option<f64>,
    /// The metric's bound, when it has one.
    pub bound: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Share by which `b` is worse than `a` in the metric's direction.
pub fn worse_by(metric: &MetricDef, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges one bounded metric from both medians and both repeat spreads.
pub fn judge(metric: &MetricDef, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse_by(metric, a, b) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn runs_of(suite: &Json) -> Result<&[Json], String> {
    if suite.get("schema").and_then(Json::as_str) != Some(crate::harness::SCHEMA) {
        return Err(format!("not a {} document", crate::harness::SCHEMA));
    }
    suite.get("runs").and_then(Json::as_arr).ok_or_else(|| "document has no runs".to_owned())
}

fn text<'a>(run: &'a Json, key: &str) -> &'a str {
    run.get(key).and_then(Json::as_str).unwrap_or("?")
}

fn exact_row(workload: &str, metric: &str, a: String, b: String) -> Row {
    let verdict = if a == b { Verdict::Exact } else { Verdict::Mismatch };
    Row {
        workload: workload.to_owned(),
        metric: metric.to_owned(),
        a,
        b,
        worse_by: None,
        bound: None,
        verdict,
    }
}

/// Compares two result documents. Only untraced runs carry bounded metrics;
/// traced runs are skipped.
///
/// # Errors
///
/// Returns an error if either document is not a result document or a
/// workload of A is missing from B.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let runs_b = runs_of(b)?;
    for run_a in
        runs_of(a)?.iter().filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
    {
        let workload = text(run_a, "workload");
        let run_b = runs_b
            .iter()
            .find(|r| text(r, "workload") == workload && r.get("trace") == run_a.get("trace"))
            .ok_or_else(|| format!("workload {workload} is missing from the second document"))?;
        let same_seed = text(run_a, "seed") == text(run_b, "seed");
        let metric = |run: &Json, name: &str| {
            run.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value")?.as_f64())
        };
        let spread = |run: &Json, name: &str| {
            run.get("iqr_share").and_then(|s| s.get(name)).and_then(Json::as_f64).unwrap_or(0.0)
        };
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (metric(run_a, m.name), metric(run_b, m.name)) else {
                return Err(format!("{workload}: metric {} is missing", m.name));
            };
            if m.name.starts_with("modeled_") && same_seed {
                rows.push(exact_row(workload, m.name, va.to_string(), vb.to_string()));
                continue;
            }
            rows.push(Row {
                workload: workload.to_owned(),
                metric: m.name.to_owned(),
                a: format!("{va:.6}"),
                b: format!("{vb:.6}"),
                worse_by: Some(worse_by(m, va, vb)),
                bound: m.bound,
                verdict: judge(m, va, vb, spread(run_a, m.name), spread(run_b, m.name)),
            });
        }
        let count = |run: &Json, key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
        rows.push(exact_row(
            workload,
            "failed",
            count(run_a, "failed").to_string(),
            count(run_b, "failed").to_string(),
        ));
        if same_seed {
            rows.push(exact_row(
                workload,
                "sim_fingerprint",
                text(run_a, "sim_fingerprint").to_owned(),
                text(run_b, "sim_fingerprint").to_owned(),
            ));
        }
    }
    Ok(rows)
}

/// Renders the rows as a Markdown table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | a | b | worse by | bound | verdict |\n|---|---|---|---|---|---|---|\n",
    );
    for row in rows {
        let pct =
            |share: Option<f64>| share.map_or("-".to_owned(), |s| format!("{:+.1}%", s * 100.0));
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            row.workload,
            row.metric,
            row.a,
            row.b,
            pct(row.worse_by),
            row.bound.map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
            row.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::suite_document;

    fn metric(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|m| m.name == name).expect("known metric")
    }

    fn run(seed: &str, fps: f64, modeled: f64, fingerprint: &str, spread: f64) -> Json {
        let value = |v: f64| Json::Obj(vec![("value".into(), Json::Num(v))]);
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "frames_per_wall_sec" => fps,
                    "modeled_frames_per_sec" => modeled,
                    _ => 1.0,
                };
                (m.name.to_owned(), value(v))
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str("rack_exam".into())),
            ("seed".into(), Json::Str(seed.into())),
            ("trace".into(), Json::Bool(false)),
            ("failed".into(), Json::Num(0.0)),
            ("sim_fingerprint".into(), Json::Str(fingerprint.into())),
            ("metrics".into(), Json::Obj(metrics)),
            (
                "iqr_share".into(),
                Json::Obj(vec![("frames_per_wall_sec".into(), Json::Num(spread))]),
            ),
        ])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("no {metric} row"))
            .verdict
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(metric("drain_wall_s"), 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worse_by(metric("frames_per_wall_sec"), 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(metric("frames_per_wall_sec"), 100.0, 120.0) < 0.0);
    }

    #[test]
    fn a_slowdown_beyond_the_bound_regresses_unless_the_spread_hides_it() {
        let fps = metric("frames_per_wall_sec");
        let bound = fps.bound.unwrap();
        assert_eq!(judge(fps, 100.0, 100.0 * (1.0 - bound / 2.0), 0.01, 0.01), Verdict::Ok);
        assert_eq!(judge(fps, 100.0, 100.0 * (1.0 - bound * 2.0), 0.01, 0.01), Verdict::Regressed);
        assert_eq!(
            judge(fps, 100.0, 100.0 * (1.0 - bound * 2.0), bound * 1.5, 0.01),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(fps, 100.0, 150.0, 0.01, 0.01),
            Verdict::Ok,
            "faster is never a regression"
        );
    }

    #[test]
    fn same_seed_runs_must_match_exactly_on_modeled_results_and_fingerprint() {
        let a = suite_document(vec![run("0x1", 100.0, 16.0, "aa", 0.01)]);
        let same = compare(&a, &a).unwrap();
        assert!(same.iter().all(|r| !r.verdict.fails()), "{}", render(&same));
        assert_eq!(verdict_of(&same, "modeled_frames_per_sec"), Verdict::Exact);
        assert_eq!(verdict_of(&same, "sim_fingerprint"), Verdict::Exact);

        let drifted = suite_document(vec![run("0x1", 70.0, 16.5, "ab", 0.01)]);
        let rows = compare(&a, &drifted).unwrap();
        assert_eq!(verdict_of(&rows, "frames_per_wall_sec"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "modeled_frames_per_sec"), Verdict::Mismatch);
        assert_eq!(verdict_of(&rows, "sim_fingerprint"), Verdict::Mismatch);
        assert!(render(&rows).contains("| rack_exam | frames_per_wall_sec |"));

        // Another seed is another input: modeled results may differ within
        // the bound and fingerprints are not compared.
        let other_seed = suite_document(vec![run("0x2", 100.0, 16.5, "ab", 0.01)]);
        let rows = compare(&a, &other_seed).unwrap();
        assert_eq!(verdict_of(&rows, "modeled_frames_per_sec"), Verdict::Ok);
        assert!(rows.iter().all(|r| r.metric != "sim_fingerprint"));
    }

    #[test]
    fn a_missing_workload_or_a_foreign_document_is_an_error() {
        let a = suite_document(vec![run("0x1", 100.0, 16.0, "aa", 0.01)]);
        assert!(compare(&a, &suite_document(Vec::new())).unwrap_err().contains("missing"));
        assert!(compare(&a, &Json::Obj(Vec::new())).is_err());
    }
}
