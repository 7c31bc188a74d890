//! The checked-in audit configuration (`audit.toml`), parsed by hand.
//!
//! Like the lexer, the parser is hand-rolled in the `cod-json` house style:
//! no TOML crate is reachable offline, so this module accepts exactly the
//! subset the config uses — comments, string values, (multi-line) string
//! arrays, `[[allow]]` entry tables and the `[rule.ambient-env]` section:
//!
//! ```toml
//! roots = ["crates", "tests", "examples", "vendor"]
//!
//! [rule.ambient-env]
//! paths = ["crates/cod-bench/src/report.rs"]
//!
//! [[allow]]
//! rule = "wall-clock"
//! path = "crates/cod-bench/src/measure.rs"
//! reason = "the measurement layer is the wall-clock fence"
//! ```
//!
//! Every `[[allow]]` entry must name a known rule, an in-tree path and a
//! non-empty reason — the config is itself part of the audit trail, so a
//! waiver without a reason is a parse error, not a silent pass.

use crate::rules::Rule;

/// One checked-in per-file waiver: `rule` findings in `path` are reported
/// as allowlisted (with `reason`) instead of as violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The waived rule.
    pub rule: Rule,
    /// Repo-relative file path the waiver covers.
    pub path: String,
    /// Why the waiver is sound. Required.
    pub reason: String,
}

/// The parsed audit configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Repo-relative directories whose `.rs` files are audited.
    pub roots: Vec<String>,
    /// Repo-relative files R6 (`ambient-env`) applies to: the modules whose
    /// output feeds a fingerprinted report.
    pub fingerprint_paths: Vec<String>,
    /// Checked-in per-file waivers.
    pub allows: Vec<AllowEntry>,
}

impl AuditConfig {
    /// Whether `path` (repo-relative) is one of R6's fingerprint modules.
    pub fn is_fingerprint_module(&self, path: &str) -> bool {
        self.fingerprint_paths.iter().any(|p| p == path)
    }

    /// The allowlist reason covering `rule` in `path`, if any.
    pub fn allow_reason(&self, rule: Rule, path: &str) -> Option<&str> {
        self.allows.iter().find(|a| a.rule == rule && a.path == path).map(|a| a.reason.as_str())
    }

    /// Parses the `audit.toml` text.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending line on any syntax
    /// the subset does not accept, an unknown rule name, or an `[[allow]]`
    /// entry missing one of its three keys.
    pub fn parse(text: &str) -> Result<AuditConfig, ConfigError> {
        Parser::new(text).parse()
    }
}

/// A configuration parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line the error was detected at.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "audit.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Which table the parser is currently filling.
enum Section {
    Top,
    Allow,
    AmbientEnv,
}

type PendingAllow = (usize, Option<Rule>, Option<String>, Option<String>);

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    section: Section,
    config: AuditConfig,
    /// The `[[allow]]` entry under construction: (the 1-based line of its
    /// header, rule, path, reason).
    pending: Option<PendingAllow>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            lines: text.lines().enumerate(),
            section: Section::Top,
            config: AuditConfig {
                roots: Vec::new(),
                fingerprint_paths: Vec::new(),
                allows: Vec::new(),
            },
            pending: None,
        }
    }

    fn parse(mut self) -> Result<AuditConfig, ConfigError> {
        while let Some((index, raw)) = self.lines.next() {
            let line = strip_comment(raw).trim().to_owned();
            let lineno = index + 1;
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                self.finish_allow()?;
                self.section = Section::Allow;
                self.pending = Some((lineno, None, None, None));
                continue;
            }
            if line.starts_with('[') {
                self.finish_allow()?;
                self.section = match line.as_str() {
                    "[rule.ambient-env]" => Section::AmbientEnv,
                    other => {
                        return Err(err(lineno, &format!("unknown section `{other}`")));
                    }
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
                .ok_or_else(|| err(lineno, "expected `key = value`"))?;
            match (&self.section, key.as_str()) {
                (Section::Top, "roots") => {
                    self.config.roots = self.parse_array(&value, lineno)?;
                }
                (Section::AmbientEnv, "paths") => {
                    self.config.fingerprint_paths = self.parse_array(&value, lineno)?;
                }
                (Section::Allow, "rule") => {
                    let name = parse_string(&value, lineno)?;
                    let rule = Rule::from_name(&name)
                        .ok_or_else(|| err(lineno, &format!("unknown rule `{name}`")))?;
                    self.pending_mut(lineno)?.1 = Some(rule);
                }
                (Section::Allow, "path") => {
                    let path = parse_string(&value, lineno)?;
                    self.pending_mut(lineno)?.2 = Some(path);
                }
                (Section::Allow, "reason") => {
                    let reason = parse_string(&value, lineno)?;
                    if reason.trim().is_empty() {
                        return Err(err(lineno, "allow reason must not be empty"));
                    }
                    self.pending_mut(lineno)?.3 = Some(reason);
                }
                _ => return Err(err(lineno, &format!("unexpected key `{key}` here"))),
            }
        }
        self.finish_allow()?;
        Ok(self.config)
    }

    fn pending_mut(&mut self, lineno: usize) -> Result<&mut PendingAllow, ConfigError> {
        self.pending.as_mut().ok_or_else(|| err(lineno, "key outside an [[allow]] entry"))
    }

    /// Seals the `[[allow]]` entry under construction, requiring all three
    /// keys; an incomplete entry is reported at its own header's line.
    fn finish_allow(&mut self) -> Result<(), ConfigError> {
        if let Some(entry) = self.pending.take() {
            match entry {
                (_, Some(rule), Some(path), Some(reason)) => {
                    self.config.allows.push(AllowEntry { rule, path, reason });
                }
                (header, ..) => {
                    return Err(err(
                        header,
                        "incomplete [[allow]] entry: needs rule, path and reason",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Parses a `["a", "b"]` array, consuming further lines until the
    /// closing `]` when the array is split across lines.
    fn parse_array(&mut self, value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
        let mut text = value.to_owned();
        while !text.trim_end().ends_with(']') {
            let (_, next) = self.lines.next().ok_or_else(|| err(lineno, "unterminated array"))?;
            text.push(' ');
            text.push_str(strip_comment(next).trim());
        }
        let text = text.trim();
        let inner = text
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .ok_or_else(|| err(lineno, "expected a [\"...\"] array"))?;
        let mut items = Vec::new();
        for item in inner.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue; // Tolerates a trailing comma.
            }
            items.push(parse_string(item, lineno)?);
        }
        Ok(items)
    }
}

/// Drops a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_string = !in_string,
            b'#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a double-quoted string value (no escape support — paths and rule
/// names never need it).
fn parse_string(value: &str, lineno: usize) -> Result<String, ConfigError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| err(lineno, &format!("expected a quoted string, got `{value}`")))
}

fn err(line: usize, message: &str) -> ConfigError {
    ConfigError { line, message: message.to_owned() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_config() {
        let text = r#"
# The workspace determinism audit.
roots = ["crates", "tests"]

[rule.ambient-env]
paths = [
    "crates/cod-bench/src/report.rs",  # fingerprint feeder
    "crates/cod-fleet/src/report.rs",
]

[[allow]]
rule = "wall-clock"
path = "crates/cod-bench/src/measure.rs"
reason = "the measurement layer is the wall-clock fence"

[[allow]]
rule = "R5"
path = "crates/cod-fleet/src/executor.rs"
reason = "the one sanctioned thread spawner"
"#;
        let config = AuditConfig::parse(text).expect("parses");
        assert_eq!(config.roots, vec!["crates", "tests"]);
        assert_eq!(config.fingerprint_paths.len(), 2);
        assert!(config.is_fingerprint_module("crates/cod-fleet/src/report.rs"));
        assert!(!config.is_fingerprint_module("crates/cod-fleet/src/fleet.rs"));
        assert_eq!(config.allows.len(), 2);
        assert_eq!(config.allows[1].rule, Rule::ThreadSpawn);
        assert!(config.allow_reason(Rule::WallClock, "crates/cod-bench/src/measure.rs").is_some());
        assert!(config.allow_reason(Rule::WallClock, "crates/cod-bench/src/report.rs").is_none());
    }

    #[test]
    fn rejects_unknown_rules_and_sections() {
        assert!(AuditConfig::parse("[garbage]").is_err());
        let bad_rule = "[[allow]]\nrule = \"made-up\"\npath = \"x\"\nreason = \"y\"";
        assert!(AuditConfig::parse(bad_rule).is_err());
    }

    #[test]
    fn rejects_incomplete_or_unjustified_allows() {
        let missing_reason = "[[allow]]\nrule = \"wall-clock\"\npath = \"x.rs\"";
        assert!(AuditConfig::parse(missing_reason).is_err());
        let empty_reason = "[[allow]]\nrule = \"wall-clock\"\npath = \"x.rs\"\nreason = \" \"";
        assert!(AuditConfig::parse(empty_reason).is_err());
    }

    #[test]
    fn an_incomplete_allow_is_reported_at_its_own_header() {
        let entry = "[[allow]]\nrule = \"wall-clock\"\npath = \"x.rs\"\n";
        let complete = "[[allow]]\nrule = \"wall-clock\"\npath = \"y.rs\"\nreason = \"z\"\n";
        // The last entry: no later header to blame.
        let last = format!("roots = [\"crates\"]\n\n{entry}");
        assert_eq!(AuditConfig::parse(&last).unwrap_err().line, 3);
        // A middle entry: not the line of the header that follows it.
        let middle = format!("{complete}\n{entry}\n{complete}");
        let error = AuditConfig::parse(&middle).unwrap_err();
        assert_eq!(error.line, 6);
        assert!(error.to_string().starts_with("audit.toml:6: incomplete [[allow]] entry"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(AuditConfig::parse("roots = not-an-array").is_err());
        assert!(AuditConfig::parse("stray line").is_err());
        assert!(AuditConfig::parse("unknown = \"key\"").is_err());
    }
}
