//! Self-audit of the dead-surface audit (R7), two ways.
//!
//! 1. **Fixture trees** — a synthetic crate with exactly one dead `pub`
//!    item, wrapped in decoys that must NOT fire: the same text inside a
//!    string literal and a doc comment, a waived item, a restricted one.
//!    Small trees of their own then show each case of the rule.
//! 2. **The workspace itself** — audits the real tree, asserting it is
//!    audit-clean. This makes `cargo test` a standing witness of the
//!    `audit` row CI enforces with the `gates` runner.
//!
//! The audit walks the workspace's fixed roots (`crates`, `tests`,
//! `examples`, `vendor`) and reads `benchmark/src` for references only, so
//! every fixture tree carries those directories.

use std::path::Path;

use cod_audit::audit_tree;

/// The fixture file: one dead item (line 3) among decoys.
const FIXTURE: (&str, &str) = (
    "crates/fixture/src/surface.rs",
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
);

/// Writes `files` (repo-relative path, source) under a fresh `root`, beside
/// the audit's roots and its reference root.
fn write_tree<'a>(root: &Path, files: impl IntoIterator<Item = (&'a str, &'a str)>) {
    let _ = std::fs::remove_dir_all(root);
    for dir in ["crates", "tests", "examples", "vendor", "benchmark/src"] {
        std::fs::create_dir_all(root.join(dir)).expect("mkdir root");
    }
    for (path, source) in files {
        let path = root.join(path);
        std::fs::create_dir_all(path.parent().expect("fixture parent")).expect("mkdir fixture");
        std::fs::write(path, source).expect("write fixture");
    }
}

#[test]
fn every_rule_fires_exactly_once_on_the_fixture_tree() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit_fixture");
    write_tree(&root, [FIXTURE]);
    let report = audit_tree(&root).expect("fixture audit runs");

    assert_eq!(report.files_checked, 1);
    let found: Vec<_> =
        report.findings.iter().map(|f| (f.path.as_str(), f.line, f.waiver.is_none())).collect();
    assert_eq!(found, [(FIXTURE.0, 3, true), (FIXTURE.0, 5, false)], "{:#?}", report.findings);
    assert!(!report.clean());
}

/// Audits a fresh tree of `files`. Returns the findings as (path, line,
/// hard) and the number of files audited.
fn dead_surface(name: &str, files: &[(&str, &str)]) -> (Vec<(String, usize, bool)>, usize) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    write_tree(&root, files.iter().copied());
    let report = audit_tree(&root).expect("audit runs");
    let findings =
        report.findings.iter().map(|f| (f.path.clone(), f.line, f.waiver.is_none())).collect();
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
        ("benchmark/src/main.rs", "pub fn unaudited() {}\nfn main() {\n    a::bench_only();\n}\n"),
    ];
    let (found, files_checked) = dead_surface("r7_reference_root", &files);
    assert_eq!(found, []);
    assert_eq!(files_checked, 1, "the reference root is read, not audited");
    // Without the benchmark's call the same item is dead.
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
    write_tree(&root, [FIXTURE]);
    let a = audit_tree(&root).expect("first run").to_json().to_pretty();
    let b = audit_tree(&root).expect("second run").to_json().to_pretty();
    assert_eq!(a, b, "AUDIT_cod.json bytes must not vary run to run");
    assert!(a.contains("\"clean\": false"));
}

#[test]
fn the_workspace_itself_is_audit_clean() {
    // tests/ sits directly under the repo root.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repo root");
    let report = audit_tree(repo_root).expect("workspace audit runs");
    let violations: Vec<String> =
        report.violations().map(|f| format!("{}:{}: {}", f.path, f.line, f.message)).collect();
    assert!(violations.is_empty(), "dead-surface audit failed:\n{}", violations.join("\n"));
    assert!(report.files_checked > 100, "suspiciously small walk: {}", report.files_checked);
}
