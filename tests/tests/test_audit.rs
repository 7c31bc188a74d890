//! Self-audit of the determinism linter, two ways.
//!
//! 1. **Fixture tree** — a synthetic crate containing *exactly one*
//!    violation per rule (R1..R6), each wrapped in decoys that must NOT
//!    fire: the same banned text inside string literals, comments and a
//!    waived line. Proves every rule is detectable and reported exactly
//!    once with the right id.
//! 2. **The workspace itself** — parses the checked-in `audit.toml` and
//!    audits the real tree, asserting it is audit-clean. This makes
//!    `cargo test` a standing witness of the gate CI enforces with
//!    `cod_audit --quick`.

use std::path::Path;

use cod_audit::{audit_tree, AuditConfig, Rule};

/// One fixture file per rule. Each source embeds decoys (strings, comments,
/// waived lines) that the lexer must keep inert, leaving exactly one hard
/// violation at a known line.
const FIXTURES: &[(&str, Rule, &str)] = &[
    (
        "src/clock.rs",
        Rule::WallClock,
        r#"//! Decoy: Instant::now() and SystemTime in a doc comment.
pub fn banned() -> std::time::Instant {
    let s = "Instant::now() inside a string literal";
    let _ = s;
    let w = std::time::SystemTime::UNIX_EPOCH; // audit:allow(wall-clock): fixture waiver.
    let _ = w;
    panic!()
}
"#,
    ),
    (
        "src/map.rs",
        Rule::UnorderedCollections,
        r#"/* Decoy: HashMap in a block comment
   /* nested: HashSet */
   still commented */
pub fn banned(m: &std::collections::HashMap<u32, u32>) -> usize {
    let raw = r#banned_name; // A raw identifier, not a raw string.
    m.len() + raw
}
"#,
    ),
    (
        "src/rng.rs",
        Rule::AmbientRandomness,
        r##"pub fn banned() {
    let decoy = r#"thread_rng() from_entropy inside a raw string "fence" "#;
    let _ = decoy;
    let _rng = rand::thread_rng();
}
"##,
    ),
    (
        "src/raw.rs",
        Rule::UndocumentedUnsafe,
        r#"pub fn documented(p: *const u8) -> u8 {
    // SAFETY: fixture — caller guarantees p is valid; this one must pass.
    let fine = unsafe { *p };
    let banned = unsafe { *p };
    fine + banned
}
"#,
    ),
    (
        "src/spawn.rs",
        Rule::ThreadSpawn,
        r#"pub fn banned() {
    let not_a_spawn = "std::thread::spawn in a string";
    let _ = not_a_spawn; // and thread::spawn in a comment
    std::thread::spawn(|| {}).join().unwrap();
    std::thread::scope(|_| {}); // audit:allow(thread-spawn): fixture waiver.
}
"#,
    ),
    (
        "src/report.rs",
        Rule::AmbientEnv,
        r#"pub fn banned() -> String {
    let decoy = 'e'; // A char literal, then std::env in this comment only.
    let _ = decoy;
    std::env::var("HOME").unwrap_or_default()
}
"#,
    ),
];

/// The line (1-based) of each fixture's single hard violation.
fn expected_line(rule: Rule) -> usize {
    match rule {
        Rule::WallClock => 2,
        Rule::UnorderedCollections => 4,
        Rule::AmbientRandomness => 4,
        Rule::UndocumentedUnsafe => 4,
        Rule::ThreadSpawn => 4,
        Rule::AmbientEnv => 4,
    }
}

fn write_fixture_tree(root: &Path) {
    std::fs::create_dir_all(root.join("src")).expect("mkdir fixture src");
    for (path, _, source) in FIXTURES {
        std::fs::write(root.join(path), source).expect("write fixture");
    }
}

fn fixture_config() -> AuditConfig {
    AuditConfig::parse("roots = [\"src\"]\n[rule.ambient-env]\npaths = [\"src/report.rs\"]\n")
        .expect("fixture config parses")
}

#[test]
fn every_rule_fires_exactly_once_on_the_fixture_tree() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit_fixture");
    write_fixture_tree(&root);
    let report = audit_tree(&root, &fixture_config()).expect("fixture audit runs");

    assert_eq!(report.files_checked, FIXTURES.len());
    assert!(!report.clean());
    let violations: Vec<_> = report.violations().collect();
    assert_eq!(
        violations.len(),
        FIXTURES.len(),
        "one violation per rule, nothing from the decoys: {violations:#?}"
    );
    for (path, rule, _) in FIXTURES {
        let of_rule: Vec<_> = violations.iter().filter(|f| f.rule == *rule).collect();
        assert_eq!(of_rule.len(), 1, "rule {} must fire exactly once", rule.id());
        assert_eq!(of_rule[0].path, *path);
        assert_eq!(of_rule[0].line, expected_line(*rule), "rule {}", rule.id());
    }
    // The R1 fixture's waived line is counted as waived, not as a pass.
    let per_rule = report.per_rule();
    assert_eq!(per_rule[0].2, 1, "one waived wall-clock hit expected");
    // Likewise the R5 fixture's scoped fan-out: detected, then waived.
    assert_eq!(per_rule[4].2, 1, "one waived thread-spawn hit expected");
}

#[test]
fn fixture_audit_json_is_deterministic() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit_fixture_det");
    write_fixture_tree(&root);
    let config = fixture_config();
    let a = audit_tree(&root, &config).expect("first run").to_json().to_pretty();
    let b = audit_tree(&root, &config).expect("second run").to_json().to_pretty();
    assert_eq!(a, b, "AUDIT_cod.json bytes must not vary run to run");
    assert!(a.contains("\"clean\": false"));
}

#[test]
fn the_workspace_itself_is_audit_clean() {
    // tests/ sits directly under the repo root.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repo root").to_owned();
    let config_text =
        std::fs::read_to_string(repo_root.join("audit.toml")).expect("checked-in audit.toml");
    let config = AuditConfig::parse(&config_text).expect("audit.toml parses");
    assert!(
        config.roots.contains(&"crates".to_owned()) && config.roots.contains(&"vendor".to_owned()),
        "the audit must cover the workspace sources"
    );
    let report = audit_tree(&repo_root, &config).expect("workspace audit runs");
    let violations: Vec<String> = report
        .violations()
        .map(|f| format!("{}:{}: {} {}", f.path, f.line, f.rule.id(), f.message))
        .collect();
    assert!(
        violations.is_empty(),
        "workspace determinism audit failed:\n{}",
        violations.join("\n")
    );
    assert!(report.files_checked > 100, "suspiciously small walk: {}", report.files_checked);
}
