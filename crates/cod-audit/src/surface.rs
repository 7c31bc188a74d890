//! R7 `dead-surface`: the audit's one rule.
//!
//! `pub` items are exempt from rustc's `dead_code` lint, so a public item
//! that nothing calls survives every build. [`scan`] makes one pass over the
//! code channel of every audited file. It flags a `pub` item (`fn`,
//! `struct`, `enum`, `trait`, `type`, `const`, `static` or `union`, inherent
//! methods included) defined under `crates/` outside a `#[cfg(test)]` item
//! when its name appears nowhere else: not in its own file's non-test code
//! beyond the definition, and not in any other audited file, tests included.
//!
//! Identifiers inside a `use` declaration are not references, or every
//! re-exported item would read as live. The one exception is a name renamed
//! with `as`: its uses go by the alias, so the name itself counts. Files
//! under [`REFERENCE_ROOTS`] (`benchmark/src`) are read for references only
//! and never audited.
//!
//! Matching is by name, not by resolved path. A dead item that shares its
//! name with a live one (`new`, `len`) is missed, and so is one whose name
//! its own file's `impl` blocks repeat; in exchange a live item is never
//! flagged. Doc comments are comments to the lexer, so a name used only in
//! a doc example reads as dead.

use std::collections::BTreeMap;

use crate::lexer::Line;

/// The repo-relative directories whose `.rs` files are audited: every
/// workspace member's sources.
pub const ROOTS: [&str; 4] = ["crates", "tests", "examples", "vendor"];

/// The repo-relative directories read for references only. The benchmark
/// binds the crates' public items but is its own package, so it is never
/// audited.
pub const REFERENCE_ROOTS: [&str; 1] = ["benchmark/src"];

/// Why a flagged item fails the audit, and what to do about it.
const RATIONALE: &str = "no code outside this file's tests names it, a `use` line aside; \
                         delete it, or move a test-only helper into the test module";

/// The item keywords whose `pub` definitions R7 checks.
const ITEM_KINDS: [&str; 8] = ["fn", "struct", "enum", "trait", "type", "const", "static", "union"];

/// A code-channel token: one identifier (or number), or one ASCII
/// punctuation byte, with its 1-based line.
struct Token<'a> {
    text: &'a str,
    line: usize,
}

/// One lexed file, tokenized, with each token's test and `use` membership.
struct Tokens<'a> {
    tokens: Vec<Token<'a>>,
    in_test: Vec<bool>,
    /// The token sits in a `use` declaration and is not a reference.
    in_use: Vec<bool>,
}

/// Name counts of the references in one file: every token outside `use`
/// declarations, and the non-test ones alone.
#[derive(Default)]
struct Counts<'a> {
    all: BTreeMap<&'a str, usize>,
    non_test: BTreeMap<&'a str, usize>,
}

/// Runs R7 over `audited` (repo-relative path, lexed lines) and the
/// reference-only files. Returns each finding as (index of its file in
/// `audited`, 1-based line, message), in (path, line) order when
/// `audited` is sorted by path.
pub fn scan(
    audited: &[(String, Vec<Line>)],
    references: &[Vec<Line>],
) -> Vec<(usize, usize, String)> {
    let files: Vec<Tokens> = audited.iter().map(|(_, lines)| Tokens::new(lines)).collect();
    let counts: Vec<Counts> = files.iter().map(Tokens::counts).collect();
    let mut global = BTreeMap::new();
    for (name, n) in counts.iter().flat_map(|c| &c.all) {
        *global.entry(*name).or_insert(0) += n;
    }
    for lines in references {
        for (name, n) in Tokens::new(lines).counts().all {
            *global.entry(name).or_insert(0) += n;
        }
    }
    let mut out = Vec::new();
    for (index, ((path, _), file)) in audited.iter().zip(&files).enumerate() {
        if !path.starts_with("crates/") {
            continue;
        }
        for (kind, name, line) in file.definitions() {
            let own = |map: &BTreeMap<&str, usize>| map.get(name).copied().unwrap_or(0);
            let elsewhere = global[name] - own(&counts[index].all);
            if elsewhere == 0 && own(&counts[index].non_test) <= 1 {
                out.push((index, line, format!("`pub {kind} {name}`: {RATIONALE}")));
            }
        }
    }
    out
}

impl<'a> Tokens<'a> {
    fn new(lines: &'a [Line]) -> Tokens<'a> {
        let mut tokens = Vec::new();
        for (index, line) in lines.iter().enumerate() {
            let bytes = line.code.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                let start = i;
                if is_word_byte(bytes[i]) {
                    while i < bytes.len() && is_word_byte(bytes[i]) {
                        i += 1;
                    }
                } else {
                    i += 1;
                    if bytes[start].is_ascii_whitespace() {
                        continue;
                    }
                }
                tokens.push(Token { text: &line.code[start..i], line: index + 1 });
            }
        }
        let in_test = test_items(&tokens);
        let in_use = use_declarations(&tokens);
        Tokens { tokens, in_test, in_use }
    }

    fn counts(&self) -> Counts<'a> {
        let mut counts = Counts::default();
        for (i, token) in self.tokens.iter().enumerate() {
            if self.in_use[i] || !is_word(token.text) {
                continue;
            }
            *counts.all.entry(token.text).or_insert(0) += 1;
            if !self.in_test[i] {
                *counts.non_test.entry(token.text).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Every non-test `pub` item definition: (kind, name, line of `pub`).
    /// `pub(crate)` and other restricted visibilities are not public.
    fn definitions(&self) -> Vec<(&'a str, &'a str, usize)> {
        let text = |i: usize| self.tokens.get(i).map_or("", |t| t.text);
        let mut out = Vec::new();
        for (i, token) in self.tokens.iter().enumerate() {
            if token.text != "pub" || self.in_test[i] || text(i + 1) == "(" {
                continue;
            }
            let mut k = i + 1;
            while matches!(text(k), "unsafe" | "async")
                || (text(k) == "const" && matches!(text(k + 1), "fn" | "unsafe" | "async"))
            {
                k += 1;
            }
            if !ITEM_KINDS.contains(&text(k)) {
                continue;
            }
            let name = if text(k + 1) == "mut" { text(k + 2) } else { text(k + 1) };
            if is_word(name) {
                out.push((text(k), name, token.line));
            }
        }
        out
    }
}

/// Marks the tokens of every item carrying `#[cfg(test)]`: from the
/// attribute to the item's first `;`, or to the brace that closes its
/// first `{`.
fn test_items(tokens: &[Token]) -> Vec<bool> {
    const ATTRIBUTE: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i + ATTRIBUTE.len() <= tokens.len() {
        if !tokens[i..i + ATTRIBUTE.len()].iter().map(|t| t.text).eq(ATTRIBUTE) {
            i += 1;
            continue;
        }
        let mut end = i + ATTRIBUTE.len();
        let mut depth = 0usize;
        while end < tokens.len() {
            match tokens[end].text {
                ";" if depth == 0 => break,
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let end = end.min(tokens.len() - 1);
        in_test[i..=end].fill(true);
        i = end + 1;
    }
    in_test
}

/// Marks the tokens of every `use` declaration, from `use` up to its `;`,
/// except a name followed by `as`, which its alias stands in for.
fn use_declarations(tokens: &[Token]) -> Vec<bool> {
    let mut in_use = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        // `use<..>` is a precise-capturing bound, not a declaration.
        if tokens[i].text != "use" || tokens.get(i + 1).is_some_and(|t| t.text == "<") {
            i += 1;
            continue;
        }
        while i < tokens.len() && tokens[i].text != ";" {
            in_use[i] = tokens.get(i + 1).is_none_or(|t| t.text != "as");
            i += 1;
        }
    }
    in_use
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || !b.is_ascii()
}

/// Whether a token is an identifier rather than punctuation or a number.
fn is_word(text: &str) -> bool {
    text.bytes().next().is_some_and(|b| is_word_byte(b) && !b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::split_lines;

    /// The names R7 flags when `files` (path, source) are the whole tree.
    fn dead(files: &[(&str, &str)]) -> Vec<String> {
        let audited: Vec<(String, Vec<Line>)> =
            files.iter().map(|(path, src)| (path.to_string(), split_lines(src))).collect();
        scan(&audited, &[])
            .into_iter()
            .map(|(index, line, _)| format!("{}:{line}", audited[index].0))
            .collect()
    }

    #[test]
    fn definitions_cover_every_item_kind_and_skip_restricted_visibility() {
        let src = "pub fn a() {}\npub const fn b() {}\npub unsafe fn c() {}\npub struct D;\n\
                   pub enum E {}\npub trait F {}\npub type G = u8;\npub const H: u8 = 0;\n\
                   pub static mut I: u8 = 0;\npub(crate) fn j() {}\npub mod k {}\npub use x::l;\n\
                   pub m: u8,\n";
        let lines = split_lines(src);
        let names: Vec<_> = Tokens::new(&lines)
            .definitions()
            .into_iter()
            .map(|(kind, name, _)| (kind, name))
            .collect();
        assert_eq!(
            names,
            [
                ("fn", "a"),
                ("fn", "b"),
                ("fn", "c"),
                ("struct", "D"),
                ("enum", "E"),
                ("trait", "F"),
                ("type", "G"),
                ("const", "H"),
                ("static", "I"),
            ]
        );
    }

    #[test]
    fn only_items_under_crates_are_checked() {
        assert!(dead(&[("tests/t.rs", "pub fn helper() {}\n")]).is_empty());
    }

    #[test]
    fn a_renamed_import_is_a_reference() {
        let lib = "pub fn original() {}\n";
        let user = "use a::original as alias;\nfn f() { alias(); }\n";
        assert!(dead(&[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", user)]).is_empty());
    }
}
