//! Audit findings, rustc-style rendering and the `AUDIT_cod.json` summary.
//!
//! A finding is either a hard violation or waived inline with
//! `// audit:allow(dead-surface): <reason>`. Waived findings never fail the
//! audit but are always listed, so every escape hatch stays visible in
//! `AUDIT_cod.json` and a waiver sweep shows up in review diffs.

use std::fmt::Write as _;

use cod_json::Json;

/// Schema version of `AUDIT_cod.json`; bump on breaking layout changes.
pub const AUDIT_SCHEMA: &str = "cod-audit-v2";

/// One R7 finding: a `pub` item nothing outside its own file's tests names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the file.
    pub path: String,
    /// 1-based line of the item's `pub`.
    pub line: usize,
    /// Diagnostic text (the item, and what to do about it).
    pub message: String,
    /// The reason of the inline waiver covering the item; `None` makes the
    /// finding a hard violation.
    pub waiver: Option<String>,
}

/// The whole audit's outcome.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Every finding, in (path, line) order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
}

impl AuditReport {
    /// The hard violations only.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waiver.is_none())
    }

    /// Whether the tree is audit-clean (no hard violations).
    pub fn clean(&self) -> bool {
        self.violations().next().is_none()
    }

    /// Renders the human-readable audit output: one rustc-style
    /// `file:line: dead-surface [R7]: message` line per violation, then a
    /// one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for finding in self.violations() {
            let _ = writeln!(
                out,
                "{}:{}: dead-surface [R7]: {}",
                finding.path, finding.line, finding.message
            );
        }
        let violations = self.violations().count();
        let _ = writeln!(
            out,
            "cod-audit: {} files, {} violation(s), {} waived — {}",
            self.files_checked,
            violations,
            self.findings.len() - violations,
            if self.clean() { "clean" } else { "FAILED" }
        );
        out
    }

    /// Serializes the `AUDIT_cod.json` document: schema, file count, every
    /// hard violation and every waived finding with its reason.
    /// Deterministic for an unchanged tree — the walk is sorted and nothing
    /// here reads a clock.
    pub fn to_json(&self) -> Json {
        let finding_json = |f: &Finding| {
            let mut members = vec![
                ("path".into(), Json::Str(f.path.clone())),
                ("line".into(), Json::Num(f.line as f64)),
                ("message".into(), Json::Str(f.message.clone())),
            ];
            if let Some(reason) = &f.waiver {
                members.push(("waived".into(), Json::Str(reason.clone())));
            }
            Json::Obj(members)
        };
        Json::Obj(vec![
            ("schema".into(), Json::Str(AUDIT_SCHEMA.into())),
            ("files_checked".into(), Json::Num(self.files_checked as f64)),
            ("clean".into(), Json::Bool(self.clean())),
            ("violations".into(), Json::Arr(self.violations().map(finding_json).collect())),
            (
                "waived".into(),
                Json::Arr(
                    self.findings.iter().filter(|f| f.waiver.is_some()).map(finding_json).collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditReport {
        let finding = |line, waiver: Option<&str>| Finding {
            path: "crates/x/src/lib.rs".into(),
            line,
            message: "`pub fn f`: unnamed".into(),
            waiver: waiver.map(str::to_owned),
        };
        AuditReport {
            findings: vec![finding(3, None), finding(9, Some("planned caller"))],
            files_checked: 2,
        }
    }

    #[test]
    fn counts_split_by_disposition() {
        let report = sample();
        assert!(!report.clean());
        assert_eq!(report.violations().map(|f| f.line).collect::<Vec<_>>(), [3]);
        let waived = AuditReport { findings: report.findings[1..].to_vec(), files_checked: 2 };
        assert!(waived.clean(), "a waived finding never fails the audit");
    }

    #[test]
    fn text_output_is_rustc_style() {
        let text = sample().render_text();
        assert!(text.contains("crates/x/src/lib.rs:3: dead-surface [R7]: `pub fn f`: unnamed"));
        assert!(text.contains("2 files, 1 violation(s), 1 waived — FAILED"));
        assert!(!text.contains("crates/x/src/lib.rs:9:"), "waived findings are not violations");
        let clean = AuditReport { findings: vec![], files_checked: 5 };
        assert!(clean.render_text().contains("clean"));
    }

    #[test]
    fn json_round_trips_and_lists_each_waiver() {
        let doc = sample().to_json().to_pretty();
        let parsed = Json::parse(&doc).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(AUDIT_SCHEMA));
        assert_eq!(parsed.get("clean").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("violations").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        let waived = parsed.get("waived").and_then(Json::as_arr).expect("waived list");
        assert_eq!(waived.len(), 1);
        assert_eq!(waived[0].get("waived").and_then(Json::as_str), Some("planned caller"));
    }
}
