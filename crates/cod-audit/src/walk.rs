//! Deterministic workspace walk: every `.rs` file under the given roots,
//! in sorted repo-relative order.
//!
//! Sorted order matters twice: diagnostics print in a stable order run to
//! run, and `AUDIT_cod.json` — like every other machine-readable artifact in
//! the workspace — must be byte-identical for an unchanged tree.

use std::io;
use std::path::{Path, PathBuf};

/// Collects every `.rs` file under `repo_root/<root>` for each root, returning *repo-relative* paths with `/` separators, sorted.
/// Build output (`target/`) and hidden directories are skipped.
///
/// # Errors
///
/// Propagates filesystem errors; a root that does not exist is
/// reported rather than silently skipped (an audit that quietly scans
/// nothing would pass vacuously).
pub fn rust_files(repo_root: &Path, roots: &[&str]) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for root in roots {
        let dir = repo_root.join(root);
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("audit root `{root}` is not a directory under {}", repo_root.display()),
            ));
        }
        collect(&dir, &mut files)?;
    }
    let mut relative: Vec<String> = files
        .into_iter()
        .map(|path| {
            path.strip_prefix(repo_root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    relative.sort();
    relative.dedup();
    Ok(relative)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_crate_sorted_and_relative() {
        let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
        let files = rust_files(repo_root, &["crates/cod-audit"]).expect("walk succeeds");
        assert!(files.iter().any(|f| f == "crates/cod-audit/src/walk.rs"));
        assert!(files.iter().all(|f| f.ends_with(".rs") && !f.contains('\\')));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }

    #[test]
    fn missing_root_is_an_error_not_a_silent_pass() {
        let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"));
        assert!(rust_files(repo_root, &["no-such-dir"]).is_err());
    }
}
