//! `cod-audit` — a static-analysis pass that proves the workspace's
//! determinism contract at the source level.
//!
//! The whole reproduction rests on one contract: same seed ⇒ byte-identical
//! `FLEET_cod.json` / `OBS_cod.json` under Modeled and WallClock execution
//! at any thread count. The runtime equivalence gates (the `fleet` and
//! `trace` rows of the `gates` runner) catch a violation only
//! *after* it ships as a flaky seed-diff; this crate fences the
//! nondeterminism off before it compiles into a run, following the paper's
//! own design (HuangBTG01): node-local wall-clock plumbing is mechanically
//! separated from the lock-step deterministic core.
//!
//! The tool is zero-dependency by necessity — no `syn` offline — so a
//! hand-rolled [`lexer`] splits every source line into code and comment
//! channels (nested block comments, raw-string fences and char/lifetime
//! disambiguation included), and the [`rules`] engine pattern-matches the
//! code channel only. Rules R1..R7 are documented in [`rules::Rule`]; the
//! checked-in `audit.toml` ([`config::AuditConfig`]) carries the per-file
//! allowlists with their justifications, and any single line can be waived
//! with an auditable escape:
//!
//! ```text
//! let deadline = Instant::now(); // audit:allow(wall-clock): test timeout only.
//! ```
//!
//! The `gates` runner of `cod-testkit` walks the workspace with it, prints
//! rustc-style `file:line: rule [code]: message` diagnostics, writes the
//! `AUDIT_cod.json` per-rule summary and fails its `audit` row on any hard
//! violation.
//!
//! One rule is not about determinism: R7 ([`surface`]) flags a `pub` item
//! that nothing outside its own file's tests names, since rustc's
//! `dead_code` lint exempts public items.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod surface;
pub mod walk;

use std::io;
use std::path::Path;

pub use config::{AllowEntry, AuditConfig, ConfigError};
pub use report::{AuditReport, Disposition, Finding, AUDIT_SCHEMA};
pub use rules::Rule;
use rules::Violation;

/// Audits every `.rs` file under the config's roots with the per-file
/// rules, then the whole tree with R7 (reading the reference roots for
/// references only), then the allowlist itself: every `[[allow]]` entry
/// that suppressed nothing is reported as a violation filed against
/// `audit.toml`.
///
/// # Errors
///
/// Propagates filesystem errors from the walk or from reading a source
/// file.
pub fn audit_tree(repo_root: &Path, config: &AuditConfig) -> io::Result<AuditReport> {
    let read = |path: &String| {
        std::fs::read_to_string(repo_root.join(path)).map(|source| lexer::split_lines(&source))
    };
    let audited = walk::rust_files(repo_root, &config.roots)?
        .into_iter()
        .map(|path| read(&path).map(|lines| (path, lines)))
        .collect::<io::Result<Vec<_>>>()?;
    let references = walk::rust_files(repo_root, &config.reference_roots)?
        .iter()
        .map(read)
        .collect::<io::Result<Vec<_>>>()?;
    let mut findings: Vec<Finding> =
        audited.iter().flat_map(|(path, lines)| audit_lines(path, lines, config)).collect();
    for (index, violation) in surface::scan(&audited, &references) {
        let (path, lines) = &audited[index];
        findings.push(resolve(path, lines, violation, config));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let stale = stale_allows(config, &findings);
    findings.extend(stale);
    Ok(AuditReport { findings, files_checked: audited.len() })
}

/// Runs the per-file rules R1–R6 over one lexed file. `path` must be
/// repo-relative (it selects the allowlist entries and R6 scope that
/// apply).
fn audit_lines(path: &str, lines: &[lexer::Line], config: &AuditConfig) -> Vec<Finding> {
    rules::scan(lines, config.is_fingerprint_module(path))
        .into_iter()
        .map(|v| resolve(path, lines, v, config))
        .collect()
}

/// Resolves one raw hit in `path` to a finding: waived inline, allowlisted
/// in `audit.toml`, or a hard violation.
fn resolve(path: &str, lines: &[lexer::Line], v: Violation, config: &AuditConfig) -> Finding {
    let disposition = if let Some(reason) = waiver_reason(lines, v.line, v.rule) {
        Disposition::Waived { reason }
    } else if let Some(reason) = config.allow_reason(v.rule, path) {
        Disposition::Allowlisted { reason: reason.to_owned() }
    } else {
        Disposition::Violation
    };
    Finding { path: path.to_owned(), line: v.line, rule: v.rule, message: v.message, disposition }
}

/// One hard violation, filed against `audit.toml`, per `[[allow]]` entry
/// that downgraded none of `findings`: its file is gone or no longer trips
/// the rule, so the escape hatch has outlived the code it excused and would
/// silently cover whatever next appears at that path.
fn stale_allows(config: &AuditConfig, findings: &[Finding]) -> Vec<Finding> {
    let used = |entry: &AllowEntry| {
        findings.iter().any(|f| {
            f.rule == entry.rule
                && f.path == entry.path
                && matches!(f.disposition, Disposition::Allowlisted { .. })
        })
    };
    config
        .allows
        .iter()
        .filter(|entry| !used(entry))
        .map(|entry| Finding {
            path: "audit.toml".to_owned(),
            line: 0,
            rule: entry.rule,
            message: format!(
                "stale [[allow]] entry for `{}`: it suppressed nothing; remove it",
                entry.path
            ),
            disposition: Disposition::Violation,
        })
        .collect()
}

/// Looks for a well-formed `// audit:allow(<rule>): <reason>` waiver
/// covering 1-based line `lineno`: on the flagged line's own comment, or on
/// the line directly above. A waiver must name the firing rule (by id or
/// `R<n>` code) and carry a non-empty reason — `audit:allow(wall-clock)`
/// with no reason does not suppress anything.
fn waiver_reason(lines: &[lexer::Line], lineno: usize, rule: Rule) -> Option<String> {
    let index = lineno - 1;
    let mut candidates = vec![&lines[index].comment];
    if index > 0 {
        candidates.push(&lines[index - 1].comment);
    }
    candidates.into_iter().find_map(|comment| waiver_in_comment(comment, rule))
}

/// Parses every `audit:allow(...)` occurrence in one comment, returning the
/// reason of the first that names `rule` and is well-formed.
fn waiver_in_comment(comment: &str, rule: Rule) -> Option<String> {
    let mut rest = comment;
    while let Some(at) = rest.find("audit:allow(") {
        rest = &rest[at + "audit:allow(".len()..];
        let close = rest.find(')')?;
        let name = rest[..close].trim();
        let tail = &rest[close + 1..];
        if Rule::from_name(name) == Some(rule) {
            if let Some(reason) = tail.strip_prefix(':') {
                let reason = reason.trim();
                if !reason.is_empty() {
                    return Some(reason.to_owned());
                }
            }
        }
        rest = tail;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_config() -> AuditConfig {
        AuditConfig {
            roots: vec![],
            fingerprint_paths: vec![],
            reference_roots: vec![],
            allows: vec![],
        }
    }

    /// Audits one file's source text with the per-file rules.
    fn audit_source(path: &str, source: &str, config: &AuditConfig) -> Vec<Finding> {
        audit_lines(path, &lexer::split_lines(source), config)
    }

    fn dispositions(source: &str, config: &AuditConfig) -> Vec<(usize, Rule, bool)> {
        audit_source("crates/x/src/lib.rs", source, config)
            .into_iter()
            .map(|f| (f.line, f.rule, f.disposition == Disposition::Violation))
            .collect()
    }

    #[test]
    fn violation_without_escape_is_hard() {
        let found = dispositions("use std::time::Instant;\n", &bare_config());
        assert_eq!(found, vec![(1, Rule::WallClock, true)]);
    }

    #[test]
    fn same_line_waiver_suppresses_with_reason() {
        // Non-ASCII text in the reason reads back unchanged.
        let src = "let t = Instant::now(); // audit:allow(wall-clock): test deadline — 5 µs.\n";
        let found = audit_source("x.rs", src, &bare_config());
        assert_eq!(found.len(), 1);
        assert_eq!(
            found[0].disposition,
            Disposition::Waived { reason: "test deadline — 5 µs.".to_owned() }
        );
    }

    #[test]
    fn line_above_waiver_suppresses() {
        let src = "// audit:allow(R5): hand-off smoke test needs a second thread.\n\
                   let h = std::thread::spawn(f);\n";
        let found = audit_source("x.rs", src, &bare_config());
        assert!(matches!(found[0].disposition, Disposition::Waived { .. }));
    }

    #[test]
    fn waiver_two_lines_up_does_not_reach() {
        let src = "// audit:allow(wall-clock): too far away.\n\n\
                   let t = Instant::now();\n";
        let found = audit_source("x.rs", src, &bare_config());
        assert_eq!(found[0].disposition, Disposition::Violation);
    }

    #[test]
    fn waiver_without_reason_or_wrong_rule_does_not_suppress() {
        for src in [
            "let t = Instant::now(); // audit:allow(wall-clock)\n",
            "let t = Instant::now(); // audit:allow(wall-clock):   \n",
            "let t = Instant::now(); // audit:allow(thread-spawn): wrong rule.\n",
            "let t = Instant::now(); // audit:allow(imaginary): no such rule.\n",
        ] {
            let found = audit_source("x.rs", src, &bare_config());
            assert_eq!(found[0].disposition, Disposition::Violation, "src: {src}");
        }
    }

    #[test]
    fn waiver_text_inside_a_string_is_inert() {
        let src = "let s = \"audit:allow(wall-clock): nope\"; let t = Instant::now();\n";
        let found = audit_source("x.rs", src, &bare_config());
        assert_eq!(found[0].disposition, Disposition::Violation);
    }

    #[test]
    fn allowlist_entry_downgrades_to_allowlisted() {
        let config = AuditConfig {
            roots: vec![],
            fingerprint_paths: vec![],
            reference_roots: vec![],
            allows: vec![AllowEntry {
                rule: Rule::WallClock,
                path: "crates/x/src/lib.rs".to_owned(),
                reason: "wall half".to_owned(),
            }],
        };
        let found = audit_source("crates/x/src/lib.rs", "let t = Instant::now();\n", &config);
        assert_eq!(found[0].disposition, Disposition::Allowlisted { reason: "wall half".into() });
        // The entry is path-exact: another file still violates.
        let other = audit_source("crates/x/src/other.rs", "let t = Instant::now();\n", &config);
        assert_eq!(other[0].disposition, Disposition::Violation);
    }

    #[test]
    fn an_allow_entry_that_suppressed_nothing_is_a_violation() {
        let allow = |rule, path: &str| AllowEntry {
            rule,
            path: path.to_owned(),
            reason: "wall half".to_owned(),
        };
        let config = AuditConfig {
            roots: vec![],
            fingerprint_paths: vec![],
            reference_roots: vec![],
            allows: vec![
                allow(Rule::WallClock, "crates/x/src/lib.rs"),
                allow(Rule::ThreadSpawn, "crates/x/src/lib.rs"),
                allow(Rule::WallClock, "crates/x/src/deleted.rs"),
            ],
        };
        // The file trips R1 once through the allowlist and R5 only through
        // an inline waiver, so its R5 entry is as unused as the entry of the
        // file that no longer exists.
        let src = "let t = Instant::now();\n\
                   let h = std::thread::spawn(f); // audit:allow(R5): fixture.\n";
        let findings = audit_source("crates/x/src/lib.rs", src, &config);
        let stale = stale_allows(&config, &findings);
        assert_eq!(stale.len(), 2);
        assert!(stale.iter().all(|f| f.disposition == Disposition::Violation));
        assert!(stale.iter().all(|f| f.path == "audit.toml"));
        assert_eq!((stale[0].rule, stale[1].rule), (Rule::ThreadSpawn, Rule::WallClock));
        assert!(stale[0].message.contains("crates/x/src/lib.rs"));
        assert!(stale[1].message.contains("crates/x/src/deleted.rs"));
    }

    #[test]
    fn fingerprint_scope_arms_ambient_env() {
        let config = AuditConfig {
            roots: vec![],
            fingerprint_paths: vec!["crates/x/src/report.rs".to_owned()],
            reference_roots: vec![],
            allows: vec![],
        };
        let src = "let home = std::env::var(\"HOME\");\n";
        assert_eq!(audit_source("crates/x/src/report.rs", src, &config).len(), 1);
        assert!(audit_source("crates/x/src/main.rs", src, &config).is_empty());
    }
}
