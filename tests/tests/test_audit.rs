//! Self-audit of the determinism linter, two ways.
//!
//! 1. **Fixture tree** — a synthetic crate containing *exactly one*
//!    violation per rule (R1..R7), each wrapped in decoys that must NOT
//!    fire: the same banned text inside string literals, comments and a
//!    waived line. Proves every rule is detectable and reported exactly
//!    once with the right id. Small trees of their own then show each
//!    case of the cross-file rule R7 (`dead-surface`).
//! 2. **The workspace itself** — parses the checked-in `audit.toml` and
//!    audits the real tree, asserting it is audit-clean. This makes
//!    `cargo test` a standing witness of the `audit` row CI enforces with
//!    the `gates` runner.

use std::path::Path;

use cod_audit::{audit_tree, AuditConfig, Disposition, Rule};

/// One fixture file per rule. Each source embeds decoys (strings, comments,
/// waived lines) that the lexer must keep inert, leaving exactly one hard
/// violation at a known line.
const FIXTURES: &[(&str, Rule, &str)] = &[
    (
        "crates/fixture/src/clock.rs",
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
        "crates/fixture/src/map.rs",
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
        "crates/fixture/src/rng.rs",
        Rule::AmbientRandomness,
        r##"pub fn banned() {
    let decoy = r#"thread_rng() from_entropy inside a raw string "fence" "#;
    let _ = decoy;
    let _rng = rand::thread_rng();
}
"##,
    ),
    (
        "crates/fixture/src/raw.rs",
        Rule::UndocumentedUnsafe,
        r#"pub fn banned(p: *const u8) -> u8 {
    // SAFETY: fixture — caller guarantees p is valid; this one must pass.
    let fine = unsafe { *p };
    let bare = unsafe { *p };
    fine + bare
}
"#,
    ),
    (
        "crates/fixture/src/spawn.rs",
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
        "crates/fixture/src/report.rs",
        Rule::AmbientEnv,
        r#"pub fn banned() -> String {
    let decoy = 'e'; // A char literal, then std::env in this comment only.
    let _ = decoy;
    std::env::var("HOME").unwrap_or_default()
}
"#,
    ),
    (
        "crates/fixture/src/surface.rs",
        Rule::DeadSurface,
        r#"//! Decoy: `pub fn unreferenced() {}` here neither defines nor references.
pub fn live_in_its_own_file() {}
pub fn unreferenced() {}
// audit:allow(dead-surface): fixture waiver.
pub fn waived() {}
pub(crate) fn restricted() {}
fn caller() {
    live_in_its_own_file();
    let _ = "pub fn unreferenced() {}";
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
        Rule::DeadSurface => 3,
    }
}

fn write_fixture_tree(root: &Path) {
    write_tree(root, FIXTURES.iter().map(|(path, _, source)| (*path, *source)));
}

/// Writes `files` (repo-relative path, source) under a fresh `root`.
fn write_tree<'a>(root: &Path, files: impl IntoIterator<Item = (&'a str, &'a str)>) {
    let _ = std::fs::remove_dir_all(root);
    for (path, source) in files {
        let path = root.join(path);
        std::fs::create_dir_all(path.parent().expect("fixture parent")).expect("mkdir fixture");
        std::fs::write(path, source).expect("write fixture");
    }
}

fn fixture_config() -> AuditConfig {
    AuditConfig::parse(
        "roots = [\"crates\"]\n[rule.ambient-env]\npaths = [\"crates/fixture/src/report.rs\"]\n",
    )
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
    assert_eq!(per_rule[6].2, 1, "one waived dead-surface hit expected");
}

/// Audits a fresh tree of `files` with `crates` as the audited root and
/// `bench` as R7's reference-only root. Returns the R7 findings as (path,
/// line, hard) and the number of files audited.
fn dead_surface(name: &str, files: &[(&str, &str)]) -> (Vec<(String, usize, bool)>, usize) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    write_tree(&root, files.iter().copied());
    std::fs::create_dir_all(root.join("bench")).expect("mkdir reference root");
    let config = AuditConfig::parse(
        "roots = [\"crates\"]\n[rule.dead-surface]\nreference_roots = [\"bench\"]\n",
    )
    .expect("config parses");
    let report = audit_tree(&root, &config).expect("audit runs");
    let findings = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DeadSurface)
        .map(|f| (f.path.clone(), f.line, f.disposition == Disposition::Violation))
        .collect();
    (findings, report.files_checked)
}

#[test]
fn dead_surface_flags_an_unreferenced_pub_fn() {
    let (found, _) = dead_surface(
        "r7_unreferenced",
        &[
            ("crates/a/src/lib.rs", "pub fn orphan() {}\npub fn called() {}\n"),
            ("crates/b/src/lib.rs", "fn user() {\n    a::called();\n}\n"),
        ],
    );
    assert_eq!(found, [("crates/a/src/lib.rs".to_owned(), 1, true)]);
}

#[test]
fn dead_surface_flags_a_pub_fn_only_its_own_tests_call() {
    // The test module ends at its closing brace: the item after it is
    // checked again, and its caller there counts.
    let lib =
        "pub fn helper() -> u8 {\n    1\n}\n\n#[cfg(test)]\nmod tests {\n    use super::*;\n\n\
               #[test]\n    fn calls_it() {\n        assert_eq!(helper(), 1);\n    }\n}\n\n\
               pub fn after_the_tests() {}\n\nfn caller() {\n    after_the_tests();\n}\n";
    let (found, _) = dead_surface("r7_own_tests", &[("crates/a/src/lib.rs", lib)]);
    assert_eq!(found, [("crates/a/src/lib.rs".to_owned(), 1, true)]);
}

#[test]
fn dead_surface_flags_a_pub_fn_named_only_in_use_lines() {
    let (found, _) = dead_surface(
        "r7_use_only",
        &[
            ("crates/a/src/lib.rs", "pub fn reexported() {}\n"),
            ("crates/b/src/lib.rs", "pub use a::reexported;\nuse a::{\n    reexported,\n};\n"),
        ],
    );
    assert_eq!(found, [("crates/a/src/lib.rs".to_owned(), 1, true)]);
}

#[test]
fn dead_surface_counts_the_reference_root_as_live_but_never_audits_it() {
    let files = [
        ("crates/a/src/lib.rs", "pub fn bench_only() {}\n"),
        ("bench/main.rs", "pub fn unaudited() {}\nfn main() {\n    a::bench_only();\n}\n"),
    ];
    let (found, files_checked) = dead_surface("r7_reference_root", &files);
    assert_eq!(found, []);
    assert_eq!(files_checked, 1, "the reference root is read, not audited");
    // Without the reference root the same item is dead.
    let (found, _) = dead_surface("r7_no_reference_root", &files[..1]);
    assert_eq!(found, [("crates/a/src/lib.rs".to_owned(), 1, true)]);
}

#[test]
fn dead_surface_inline_waiver_downgrades_the_finding() {
    let lib = "/// Kept for a planned caller.\n// audit:allow(dead-surface): fixture reason.\n\
               pub fn planned() {}\n";
    let (found, _) = dead_surface("r7_waiver", &[("crates/a/src/lib.rs", lib)]);
    assert_eq!(found, [("crates/a/src/lib.rs".to_owned(), 3, false)]);
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
