//! Audit findings, rustc-style rendering and the `AUDIT_cod.json` summary.
//!
//! A finding carries its *disposition*: a hard `Violation`, a `Waived` hit
//! (an inline `// audit:allow(<rule>): <reason>` escape) or an
//! `Allowlisted` hit (a checked-in `[[allow]]` entry in `audit.toml`).
//! Waived and allowlisted findings never fail the audit but are always
//! counted — the per-rule totals in `AUDIT_cod.json` keep every escape
//! hatch visible, so a waiver sweep shows up in review diffs.

use std::fmt::Write as _;

use cod_json::Json;

use crate::rules::Rule;

/// Schema version of `AUDIT_cod.json`; bump on breaking layout changes.
pub const AUDIT_SCHEMA: &str = "cod-audit-v1";

/// How a rule hit was resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// A hard violation: fails the audit.
    Violation,
    /// Waived inline with `// audit:allow(<rule>): <reason>`.
    Waived {
        /// The reason given after the waiver's colon.
        reason: String,
    },
    /// Covered by a checked-in `[[allow]]` entry in `audit.toml`.
    Allowlisted {
        /// The entry's `reason` value.
        reason: String,
    },
}

/// One resolved rule hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Diagnostic text (what matched, why it is banned).
    pub message: String,
    /// How the hit was resolved.
    pub disposition: Disposition,
}

/// The whole audit's outcome.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Every finding, in (path, line, rule) order, then one violation per
    /// stale `[[allow]]` entry (path `audit.toml`, line 0).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
}

impl AuditReport {
    /// The hard violations only.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.disposition == Disposition::Violation)
    }

    /// Whether the tree is audit-clean (no hard violations).
    pub fn clean(&self) -> bool {
        self.violations().next().is_none()
    }

    /// Per-rule (violations, waived, allowlisted) counts, in R1..R6 order.
    pub fn per_rule(&self) -> [(Rule, u64, u64, u64); 6] {
        let mut rows = [(Rule::WallClock, 0, 0, 0); 6];
        for (row, rule) in rows.iter_mut().zip(Rule::ALL) {
            row.0 = rule;
            for finding in self.findings.iter().filter(|f| f.rule == rule) {
                match finding.disposition {
                    Disposition::Violation => row.1 += 1,
                    Disposition::Waived { .. } => row.2 += 1,
                    Disposition::Allowlisted { .. } => row.3 += 1,
                }
            }
        }
        rows
    }

    /// Renders the human-readable audit output: one rustc-style
    /// `file:line: rule [code]: message` per violation, then a per-rule
    /// summary table (suppressed in `quick` mode when the tree is clean).
    pub fn render_text(&self, quick: bool) -> String {
        let mut out = String::new();
        for finding in self.violations() {
            let _ = writeln!(
                out,
                "{}:{}: {} [{}]: {}",
                finding.path,
                finding.line,
                finding.rule.id(),
                finding.rule.code(),
                finding.message
            );
        }
        let violations = self.violations().count();
        if !quick || violations > 0 {
            let _ = writeln!(out, "rule                        viol  waived  allowlisted");
            for (rule, viol, waived, allowed) in self.per_rule() {
                let _ = writeln!(
                    out,
                    "{} {:24}{:>5}{:>8}{:>13}",
                    rule.code(),
                    rule.id(),
                    viol,
                    waived,
                    allowed
                );
            }
        }
        let _ = writeln!(
            out,
            "cod-audit: {} files, {} violation(s), {} waived, {} allowlisted — {}",
            self.files_checked,
            violations,
            self.findings
                .iter()
                .filter(|f| matches!(f.disposition, Disposition::Waived { .. }))
                .count(),
            self.findings
                .iter()
                .filter(|f| matches!(f.disposition, Disposition::Allowlisted { .. }))
                .count(),
            if self.clean() { "clean" } else { "FAILED" }
        );
        out
    }

    /// Serializes the `AUDIT_cod.json` document: schema, file count,
    /// per-rule counts, every hard violation, and every escape hatch in
    /// use. Deterministic for an unchanged tree — the walk is sorted and
    /// nothing here reads a clock.
    pub fn to_json(&self) -> Json {
        let finding_json = |f: &Finding| {
            let mut members = vec![
                ("path".into(), Json::Str(f.path.clone())),
                ("line".into(), Json::Num(f.line as f64)),
                ("rule".into(), Json::Str(f.rule.id().into())),
                ("code".into(), Json::Str(f.rule.code().into())),
                ("message".into(), Json::Str(f.message.clone())),
            ];
            match &f.disposition {
                Disposition::Violation => {}
                Disposition::Waived { reason } => {
                    members.push(("waived".into(), Json::Str(reason.clone())));
                }
                Disposition::Allowlisted { reason } => {
                    members.push(("allowlisted".into(), Json::Str(reason.clone())));
                }
            }
            Json::Obj(members)
        };
        Json::Obj(vec![
            ("schema".into(), Json::Str(AUDIT_SCHEMA.into())),
            ("files_checked".into(), Json::Num(self.files_checked as f64)),
            ("clean".into(), Json::Bool(self.clean())),
            (
                "per_rule".into(),
                Json::Obj(
                    self.per_rule()
                        .into_iter()
                        .map(|(rule, viol, waived, allowed)| {
                            (
                                rule.id().to_owned(),
                                Json::Obj(vec![
                                    ("code".into(), Json::Str(rule.code().into())),
                                    ("violations".into(), Json::Num(viol as f64)),
                                    ("waived".into(), Json::Num(waived as f64)),
                                    ("allowlisted".into(), Json::Num(allowed as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("violations".into(), Json::Arr(self.violations().map(finding_json).collect())),
            (
                "escapes".into(),
                Json::Arr(
                    self.findings
                        .iter()
                        .filter(|f| f.disposition != Disposition::Violation)
                        .map(finding_json)
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditReport {
        AuditReport {
            findings: vec![
                Finding {
                    path: "crates/x/src/lib.rs".into(),
                    line: 3,
                    rule: Rule::WallClock,
                    message: "`Instant`: banned".into(),
                    disposition: Disposition::Violation,
                },
                Finding {
                    path: "crates/x/src/lib.rs".into(),
                    line: 9,
                    rule: Rule::ThreadSpawn,
                    message: "`thread::spawn`: banned".into(),
                    disposition: Disposition::Waived { reason: "test-only".into() },
                },
                Finding {
                    path: "crates/y/src/m.rs".into(),
                    line: 1,
                    rule: Rule::WallClock,
                    message: "`SystemTime`: banned".into(),
                    disposition: Disposition::Allowlisted { reason: "wall half".into() },
                },
            ],
            files_checked: 2,
        }
    }

    #[test]
    fn counts_split_by_disposition() {
        let report = sample();
        assert!(!report.clean());
        let rows = report.per_rule();
        assert_eq!(rows[0], (Rule::WallClock, 1, 0, 1));
        assert_eq!(rows[4], (Rule::ThreadSpawn, 0, 1, 0));
    }

    #[test]
    fn text_output_is_rustc_style() {
        let text = sample().render_text(false);
        assert!(text.contains("crates/x/src/lib.rs:3: wall-clock [R1]: `Instant`: banned"));
        assert!(text.contains("FAILED"));
        assert!(!text.contains("crates/x/src/lib.rs:9:"), "waived hits are not violations");
        let clean = AuditReport { findings: vec![], files_checked: 5 };
        assert!(clean.render_text(true).contains("clean"));
    }

    #[test]
    fn json_round_trips_and_counts_per_rule() {
        let doc = sample().to_json().to_pretty();
        let parsed = Json::parse(&doc).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(AUDIT_SCHEMA));
        assert_eq!(parsed.get("clean").and_then(Json::as_bool), Some(false));
        let wall = parsed.get("per_rule").and_then(|r| r.get("wall-clock")).unwrap();
        assert_eq!(wall.get("violations").and_then(Json::as_f64), Some(1.0));
        assert_eq!(wall.get("allowlisted").and_then(Json::as_f64), Some(1.0));
        assert_eq!(parsed.get("violations").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(parsed.get("escapes").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }
}
