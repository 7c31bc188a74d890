//! `cod-audit` — the dead-surface rule (R7): no `pub` item that nothing
//! outside its own file's tests names.
//!
//! rustc's `dead_code` lint exempts public items, so a public function that
//! nothing calls survives every build. [`audit_tree`] walks every `.rs` file
//! under the workspace's source roots and flags each such item under
//! `crates/`; the `surface` module documents what counts as a reference.
//!
//! The workspace's determinism bans (no `HashMap` / `HashSet` /
//! `RandomState`, no `Instant` / `SystemTime`, no thread creation and no
//! environment reads outside the fenced wall-clock files, and a `// SAFETY:`
//! comment on every `unsafe` block) are not this crate's: clippy enforces
//! them from `clippy.toml` and `[workspace.lints.clippy]` in the root
//! `Cargo.toml`.
//!
//! The tool is zero-dependency by necessity — no `syn` offline — so a
//! hand-rolled lexer splits every source line into code and comment
//! channels (nested block comments, raw-string fences and char/lifetime
//! disambiguation included): a name inside a string or a comment is not a
//! reference. One item can be waived with an auditable escape on its line
//! or the line above:
//!
//! ```text
//! // audit:allow(dead-surface): ROADMAP item 4b — wire it in or delete it.
//! ```
//!
//! The `gates` runner of `cod-testkit` walks the workspace with it, prints
//! rustc-style `file:line: dead-surface [R7]: message` diagnostics, writes
//! `AUDIT_cod.json` and fails its `audit` row on any unwaived finding.

mod lexer;
mod report;
mod surface;
mod walk;

use std::io;
use std::path::Path;

pub use report::{AuditReport, Finding, AUDIT_SCHEMA};

/// Audits every `.rs` file under the source roots of the workspace at
/// `repo_root` with R7, reading the reference roots for references only.
///
/// # Errors
///
/// Propagates filesystem errors from the walk (a missing root included) or
/// from reading a source file.
pub fn audit_tree(repo_root: &Path) -> io::Result<AuditReport> {
    let read = |path: &String| {
        std::fs::read_to_string(repo_root.join(path)).map(|source| lexer::split_lines(&source))
    };
    let audited = walk::rust_files(repo_root, &surface::ROOTS)?
        .into_iter()
        .map(|path| read(&path).map(|lines| (path, lines)))
        .collect::<io::Result<Vec<_>>>()?;
    let references = walk::rust_files(repo_root, &surface::REFERENCE_ROOTS)?
        .iter()
        .map(read)
        .collect::<io::Result<Vec<_>>>()?;
    Ok(AuditReport { findings: findings(&audited, &references), files_checked: audited.len() })
}

/// Runs R7 over the lexed files and resolves each hit's inline waiver.
fn findings(
    audited: &[(String, Vec<lexer::Line>)],
    references: &[Vec<lexer::Line>],
) -> Vec<Finding> {
    surface::scan(audited, references)
        .into_iter()
        .map(|(index, line, message)| {
            let (path, lines) = &audited[index];
            Finding { path: path.clone(), line, message, waiver: waiver_reason(lines, line) }
        })
        .collect()
}

/// The reason of a well-formed `// audit:allow(dead-surface): <reason>`
/// waiver covering 1-based line `lineno`: on the flagged line's own comment,
/// or on the line directly above. A waiver without a reason waives nothing.
fn waiver_reason(lines: &[lexer::Line], lineno: usize) -> Option<String> {
    const WAIVER: &str = "audit:allow(dead-surface):";
    let index = lineno - 1;
    lines[index.saturating_sub(1)..=index].iter().rev().find_map(|line| {
        let at = line.comment.find(WAIVER)?;
        let reason = line.comment[at + WAIVER.len()..].trim();
        (!reason.is_empty()).then(|| reason.to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The findings of a tree holding one file with `source`.
    fn audit_source(source: &str) -> Vec<Finding> {
        findings(&[("crates/x/src/lib.rs".to_owned(), lexer::split_lines(source))], &[])
    }

    fn waiver(source: &str) -> Option<String> {
        let found = audit_source(source);
        assert_eq!(found.len(), 1, "one dead item expected in {source:?}");
        found[0].waiver.clone()
    }

    #[test]
    fn violation_without_escape_is_hard() {
        let found = audit_source("fn private() {}\npub fn orphan() {}\n");
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].line, found[0].waiver.as_deref()), (2, None));
        assert!(found[0].message.starts_with("`pub fn orphan`: "));
    }

    #[test]
    fn same_line_waiver_suppresses_with_reason() {
        // Non-ASCII text in the reason reads back unchanged.
        let src = "pub fn f() {} // audit:allow(dead-surface): planned — 5 µs.\n";
        assert_eq!(waiver(src).as_deref(), Some("planned — 5 µs."));
    }

    #[test]
    fn line_above_waiver_suppresses() {
        let src = "// audit:allow(dead-surface): ROADMAP item 4b.\npub fn f() {}\n";
        assert_eq!(waiver(src).as_deref(), Some("ROADMAP item 4b."));
    }

    #[test]
    fn waiver_two_lines_up_does_not_reach() {
        assert_eq!(waiver("// audit:allow(dead-surface): too far away.\n\npub fn f() {}\n"), None);
    }

    #[test]
    fn waiver_without_reason_or_wrong_rule_does_not_suppress() {
        for src in [
            "pub fn f() {} // audit:allow(dead-surface)\n",
            "pub fn f() {} // audit:allow(dead-surface):   \n",
            "pub fn f() {} // audit:allow(wall-clock): not the audit's rule.\n",
            "pub fn f() {} // audit:allow(R7): the rule goes by its id.\n",
        ] {
            assert_eq!(waiver(src), None, "src: {src}");
        }
    }

    #[test]
    fn waiver_text_inside_a_string_is_inert() {
        assert_eq!(waiver("pub fn f() { let _ = \"audit:allow(dead-surface): nope\"; }\n"), None);
    }
}
