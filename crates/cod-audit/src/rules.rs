//! The determinism rule set: what the contract bans, where, and why.
//!
//! Every rule is a *line-addressed* check over the lexer's code channel
//! (comments and literal interiors are already stripped, so rule text inside
//! a string or doc comment never fires). The rules encode the workspace's
//! determinism contract — same seed ⇒ byte-identical `FLEET_cod.json` /
//! `OBS_cod.json` under every execution mode — as source-level bans:
//!
//! | code | id                      | ban                                       |
//! |------|-------------------------|-------------------------------------------|
//! | R1   | `wall-clock`            | `Instant` / `SystemTime` / `.elapsed(`    |
//! | R2   | `unordered-collections` | `HashMap` / `HashSet` iteration order     |
//! | R3   | `ambient-randomness`    | OS-seeded RNG constructors                |
//! | R4   | `undocumented-unsafe`   | `unsafe {` without a `// SAFETY:` comment |
//! | R5   | `thread-spawn`          | threads outside the executor pool         |
//! | R6   | `ambient-env`           | `std::env` / `std::time` in fingerprint   |
//! |      |                         | modules                                   |
//! | R7   | `dead-surface`          | a `pub` item under `crates/` whose name   |
//! |      |                         | nothing else in the tree mentions         |
//!
//! R1–R5 run on every audited file (R1 and R5 have checked-in allowlists in
//! `audit.toml`); R6 runs only on the fingerprint-feeding modules the config
//! names. Matching is word-bounded, so `InstantLike` or `elapsed_frames`
//! never false-positive. R7 is not a line pattern but one cross-file pass
//! after the others; [`crate::surface`] documents it.

use crate::lexer::Line;

/// One audit rule. The order here is the R1..R7 numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: no wall-clock reads outside the allowlisted wall half.
    WallClock,
    /// R2: no iteration-order-unstable collections.
    UnorderedCollections,
    /// R3: no OS-entropy-seeded randomness anywhere.
    AmbientRandomness,
    /// R4: every `unsafe` block carries a `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// R5: no thread creation outside the executor pool.
    ThreadSpawn,
    /// R6: no environment or clock reads in fingerprint-feeding modules.
    AmbientEnv,
    /// R7: no `pub` item that nothing outside its own tests names.
    DeadSurface,
}

impl Rule {
    /// Every rule, in R1..R7 order.
    pub const ALL: [Rule; 7] = [
        Rule::WallClock,
        Rule::UnorderedCollections,
        Rule::AmbientRandomness,
        Rule::UndocumentedUnsafe,
        Rule::ThreadSpawn,
        Rule::AmbientEnv,
        Rule::DeadSurface,
    ];

    /// The stable kebab-case id used in `audit:allow(...)` and `audit.toml`.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::UnorderedCollections => "unordered-collections",
            Rule::AmbientRandomness => "ambient-randomness",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::AmbientEnv => "ambient-env",
            Rule::DeadSurface => "dead-surface",
        }
    }

    /// The short `R<n>` code used in diagnostics.
    pub fn code(&self) -> &'static str {
        match self {
            Rule::WallClock => "R1",
            Rule::UnorderedCollections => "R2",
            Rule::AmbientRandomness => "R3",
            Rule::UndocumentedUnsafe => "R4",
            Rule::ThreadSpawn => "R5",
            Rule::AmbientEnv => "R6",
            Rule::DeadSurface => "R7",
        }
    }

    /// Resolves a rule from its id or its `R<n>` code.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == name || r.code() == name)
    }

    /// The word-bounded patterns the rule bans in code text. Empty for R4
    /// and R7, whose checks are structural rather than a pattern match.
    fn patterns(&self) -> &'static [&'static str] {
        match self {
            Rule::WallClock => &["Instant", "SystemTime", "elapsed("],
            Rule::UnorderedCollections => &["HashMap", "HashSet"],
            Rule::AmbientRandomness => &["thread_rng", "from_entropy", "from_os_rng", "OsRng"],
            Rule::UndocumentedUnsafe => &[],
            Rule::ThreadSpawn => &["thread::spawn", "thread::scope", "thread::Builder"],
            Rule::AmbientEnv => &["std::env", "std::time"],
            Rule::DeadSurface => &[],
        }
    }

    /// Why the matched text violates the rule.
    pub(crate) fn rationale(&self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock reads vary run to run; deterministic code uses modeled time \
                 (allowlist the file in audit.toml only if nothing here feeds a fingerprint)"
            }
            Rule::UnorderedCollections => {
                "iteration order is randomized per process; use BTreeMap/BTreeSet or a Vec \
                 so anything folded or printed from it is stable"
            }
            Rule::AmbientRandomness => {
                "OS-entropy seeding breaks replay; every RNG must be seeded from the run's \
                 seed (sim_math::SplitMix64::new or a derived stream)"
            }
            Rule::UndocumentedUnsafe => {
                "every unsafe block must state its proof obligation in a `// SAFETY:` \
                 comment on the line or the lines directly above"
            }
            Rule::ThreadSpawn => {
                "threads outside cod-fleet's executor bypass the shard-id fold-order proof; \
                 route work through the executor pool"
            }
            Rule::AmbientEnv => {
                "this module feeds a fingerprinted report; environment and clock reads make \
                 its bytes depend on who ran it and when"
            }
            Rule::DeadSurface => {
                "no code outside this file's tests names it, a `use` line aside; delete it, \
                 or move a test-only helper into the test module"
            }
        }
    }
}

/// One raw rule hit, before waivers and allowlists are applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based source line of the hit.
    pub line: usize,
    /// The rule violated.
    pub rule: Rule,
    /// Diagnostic text: what matched and why it is banned.
    pub message: String,
}

/// Scans a lexed file against every rule. `fingerprint_module` arms R6,
/// which only applies to the report/obs modules named in `audit.toml`.
/// At most one violation per rule per line is reported.
pub fn scan(lines: &[Line], fingerprint_module: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    for (index, line) in lines.iter().enumerate() {
        for rule in Rule::ALL {
            if rule == Rule::AmbientEnv && !fingerprint_module {
                continue;
            }
            if let Some(pattern) = rule.patterns().iter().find(|p| find_word(&line.code, p)) {
                out.push(Violation {
                    line: index + 1,
                    rule,
                    message: format!("`{pattern}`: {}", rule.rationale()),
                });
            }
        }
    }
    out.extend(scan_unsafe(lines));
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// R4: finds `unsafe` blocks (`unsafe` keyword whose next code token is
/// `{`) lacking a `SAFETY:` comment on the same line or on the run of
/// code-free lines directly above.
fn scan_unsafe(lines: &[Line]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (index, line) in lines.iter().enumerate() {
        let mut search_from = 0;
        while let Some(at) = find_word_at(&line.code[search_from..], "unsafe") {
            let after = search_from + at + "unsafe".len();
            search_from = after;
            if !brace_follows(lines, index, after) {
                continue; // `unsafe fn` / `unsafe impl` declare, not enter.
            }
            let documented = safety_comment_covers(lines, index);
            if !documented {
                out.push(Violation {
                    line: index + 1,
                    rule: Rule::UndocumentedUnsafe,
                    message: format!("`unsafe {{`: {}", Rule::UndocumentedUnsafe.rationale()),
                });
                break; // One report per line is enough.
            }
        }
    }
    out
}

/// Whether the first non-whitespace code byte at or after `from` on line
/// `index` (spilling onto following lines) is `{`.
fn brace_follows(lines: &[Line], index: usize, from: usize) -> bool {
    let mut rest = lines[index].code[from..].trim_start();
    let mut next_line = index + 1;
    while rest.is_empty() && next_line < lines.len() {
        rest = lines[next_line].code.trim_start();
        next_line += 1;
    }
    rest.starts_with('{')
}

/// Whether line `index` or the code-free lines directly above it carry a
/// `SAFETY:` comment.
fn safety_comment_covers(lines: &[Line], index: usize) -> bool {
    if lines[index].comment.contains("SAFETY:") {
        return true;
    }
    for line in lines[..index].iter().rev() {
        if !line.code.trim().is_empty() {
            return false;
        }
        if line.comment.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// Word-bounded substring search: the match may not be flanked by
/// identifier characters on a side where the pattern itself starts/ends
/// with one.
fn find_word(code: &str, pattern: &str) -> bool {
    find_word_at(code, pattern).is_some()
}

/// [`find_word`], returning the byte offset of the first match.
fn find_word_at(code: &str, pattern: &str) -> Option<usize> {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find(pattern).map(|i| from + i) {
        let left_ok = !pattern.starts_with(|c: char| is_ident(c as u8))
            || at == 0
            || !is_ident(bytes[at - 1]);
        let right_ok = !pattern.ends_with(|c: char| is_ident(c as u8))
            || at + pattern.len() >= bytes.len()
            || !is_ident(bytes[at + pattern.len()]);
        if left_ok && right_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::split_lines;

    fn rules_hit(source: &str, fingerprint: bool) -> Vec<(usize, &'static str)> {
        scan(&split_lines(source), fingerprint).into_iter().map(|v| (v.line, v.rule.id())).collect()
    }

    #[test]
    fn wall_clock_patterns_fire_word_bounded() {
        assert_eq!(rules_hit("let t = Instant::now();", false), vec![(1, "wall-clock")]);
        assert_eq!(rules_hit("let d = start.elapsed();", false), vec![(1, "wall-clock")]);
        // Not word matches: different identifiers.
        assert!(rules_hit("struct Instantaneous;", false).is_empty());
        assert!(rules_hit("let elapsed_frames = 3; elapsed_frames(", false).is_empty());
    }

    #[test]
    fn rule_text_in_strings_and_comments_does_not_fire() {
        assert!(rules_hit(r#"let s = "Instant::now() HashMap unsafe {";"#, true).is_empty());
        assert!(rules_hit("// HashMap is banned\nlet x = 1;", true).is_empty());
        assert!(rules_hit("/* thread::spawn(\n SystemTime */ fine();", true).is_empty());
    }

    #[test]
    fn unordered_collections_fire() {
        assert_eq!(
            rules_hit("use std::collections::HashMap;", false),
            vec![(1, "unordered-collections")]
        );
        assert_eq!(
            rules_hit("let s: HashSet<u32> = x;", false),
            vec![(1, "unordered-collections")]
        );
        assert!(rules_hit("use std::collections::BTreeMap;", false).is_empty());
    }

    #[test]
    fn ambient_randomness_fires() {
        assert_eq!(
            rules_hit("let mut rng = rand::thread_rng();", false)[0].1,
            "ambient-randomness"
        );
        assert_eq!(rules_hit("let r = StdRng::from_entropy();", false)[0].1, "ambient-randomness");
        assert!(rules_hit("let r = StdRng::seed_from_u64(7);", false).is_empty());
    }

    #[test]
    fn undocumented_unsafe_block_fires_documented_passes() {
        assert_eq!(rules_hit("let x = unsafe { *p };", false), vec![(1, "undocumented-unsafe")]);
        assert!(rules_hit(
            "// SAFETY: p outlives x per the pool contract.\nlet x = unsafe { *p };",
            false
        )
        .is_empty());
        assert!(rules_hit("let x = unsafe { *p }; // SAFETY: same line works.", false).is_empty());
        // A blank comment-only run above still covers.
        assert!(rules_hit("// SAFETY: covered.\n\nunsafe { go(); }", false).is_empty());
        // Intervening code breaks the cover.
        assert_eq!(
            rules_hit("// SAFETY: stale.\nlet y = 2;\nunsafe { go(); }", false),
            vec![(3, "undocumented-unsafe")]
        );
    }

    #[test]
    fn unsafe_declarations_are_not_blocks() {
        assert!(rules_hit("unsafe fn raw_read(p: *const u8) -> u8 { *p }", false).is_empty());
        assert!(rules_hit("unsafe impl Send for Pool {}", false).is_empty());
        // Brace on the next line still counts as a block.
        assert_eq!(rules_hit("let x = unsafe\n{ *p };", false), vec![(1, "undocumented-unsafe")]);
    }

    #[test]
    fn thread_spawn_fires() {
        assert_eq!(rules_hit("std::thread::spawn(|| {});", false)[0].1, "thread-spawn");
        assert_eq!(rules_hit("thread::Builder::new()", false)[0].1, "thread-spawn");
        // Scoped threads are threads: a per-tick fan-out is still a spawner.
        assert_eq!(rules_hit("std::thread::scope(|s| {});", false)[0].1, "thread-spawn");
        assert!(rules_hit("let thread_scope = thread::scoped_name;", false).is_empty());
        assert!(rules_hit("my_thread::spawner()", false).is_empty());
    }

    #[test]
    fn ambient_env_only_in_fingerprint_modules() {
        let src = "let v = std::env::var(\"X\");";
        assert_eq!(rules_hit(src, true), vec![(1, "ambient-env")]);
        assert!(rules_hit(src, false).is_empty());
        assert_eq!(rules_hit("use std::time::SystemTime;", true).len(), 2); // R1 + R6.
    }

    #[test]
    fn one_report_per_rule_per_line() {
        assert_eq!(rules_hit("let a = (Instant::now(), SystemTime::now());", false).len(), 1);
    }

    #[test]
    fn rule_names_resolve_both_ways() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.id()), Some(rule));
            assert_eq!(Rule::from_name(rule.code()), Some(rule));
        }
        assert_eq!(Rule::from_name("nonsense"), None);
    }
}
