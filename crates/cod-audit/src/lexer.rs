//! A hand-rolled Rust surface lexer, just deep enough for line-oriented
//! auditing: it splits every source line into its *code* text and its
//! *comment* text, masking out string/char literal contents on the way.
//!
//! The vendored toolchain has no `syn` (the build environment cannot reach
//! crates.io), so — in the house style of `cod-json` — the lexer is a small
//! byte-level state machine instead of a parser. It understands exactly the
//! token classes that can hide an identifier from a naive `grep`:
//!
//! * line comments (`//`, incl. doc comments) and block comments
//!   (`/* ... */`) **with nesting**, both routed to the comment channel;
//! * string literals (`"..."` with escapes), byte strings (`b"..."`), raw
//!   strings (`r"..."`, `r#"..."#`, any number of `#` fence characters) and
//!   raw byte strings (`br#"..."#`) — interiors are dropped from the code
//!   channel, so `"Instant"` inside a literal is never a reference;
//! * char literals (`'x'`, `'\n'`, `'\u{2603}'`) versus lifetimes (`'a`,
//!   `'static`), disambiguated by lookahead;
//! * raw identifiers (`r#fn`), which must *not* open a raw string.
//!
//! Multi-line tokens (block comments, multi-line strings) carry their state
//! across lines; R7 tokenizes the code channel and reads its
//! `audit:allow` waivers from the comment channel, line by line.

/// One source line, split into its two channels. Either channel may be
/// empty; literal interiors appear in neither.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Line {
    /// The line's code text: everything outside comments, with string and
    /// char literal interiors masked (delimiters are kept, so `"x"` shows
    /// as `""`).
    pub code: String,
    /// The line's comment text, both `//` and `/* */` flavors, markers
    /// included.
    pub comment: String,
}

/// Lexer state that survives a newline.
enum State {
    Code,
    BlockComment { depth: u32 },
    Str { raw_hashes: Option<u32>, escaped: bool },
}

/// Splits `source` into per-line code/comment channels. Never fails: on
/// text that is not valid Rust the split degrades gracefully (an unclosed
/// literal simply masks the rest of the file), which is the right behavior
/// for a linter that must not crash on a broken tree.
pub fn split_lines(source: &str) -> Vec<Line> {
    let bytes = source.as_bytes();
    let mut lines = Vec::new();
    let mut line = Line::default();
    let mut state = State::Code;
    let mut i = 0;

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            // A newline ends the line in every state; line comments die
            // with it, block comments and strings persist.
            // Strings (raw or not) stay open across the newline: rustc
            // would reject an illegally-split literal anyway, and masking
            // more can only *hide* an identifier, never invent it.
            lines.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match state {
            State::Code => match b {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    // Line comment: consume to end of line into the
                    // comment channel.
                    let end = source[i..].find('\n').map_or(source.len(), |n| i + n);
                    line.comment.push_str(&source[i..end]);
                    i = end;
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    line.comment.push_str("/*");
                    state = State::BlockComment { depth: 1 };
                    i += 2;
                }
                b'"' => {
                    line.code.push('"');
                    state = State::Str { raw_hashes: None, escaped: false };
                    i += 1;
                }
                b'r' | b'b' if !prev_is_ident(&line.code) => {
                    // Possible raw string / byte string / byte char
                    // prefix. Only enter literal state when the full
                    // opening sequence is present; `r#fn` (raw
                    // identifier) and plain identifiers fall through.
                    if let Some((advance, hashes)) = raw_string_open(&bytes[i..]) {
                        for _ in 0..advance {
                            line.code.push(bytes[i] as char);
                            i += 1;
                        }
                        state = State::Str { raw_hashes: Some(hashes), escaped: false };
                    } else if b == b'b' && bytes.get(i + 1) == Some(&b'"') {
                        line.code.push_str("b\"");
                        state = State::Str { raw_hashes: None, escaped: false };
                        i += 2;
                    } else if b == b'b' && bytes.get(i + 1) == Some(&b'\'') {
                        line.code.push('b');
                        i += 1; // The `'` is handled by the char-literal arm.
                    } else {
                        line.code.push(b as char);
                        i += 1;
                    }
                }
                b'\'' => {
                    i = lex_quote(bytes, i, &mut line.code);
                }
                _ => i = push_scalar(&mut line.code, source, i),
            },
            State::BlockComment { depth } => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    line.comment.push_str("*/");
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment { depth: depth - 1 }
                    };
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    line.comment.push_str("/*");
                    state = State::BlockComment { depth: depth + 1 };
                    i += 2;
                } else {
                    i = push_scalar(&mut line.comment, source, i);
                }
            }
            State::Str { raw_hashes, escaped } => {
                match raw_hashes {
                    None => {
                        if escaped {
                            state = State::Str { raw_hashes, escaped: false };
                        } else if b == b'\\' {
                            state = State::Str { raw_hashes, escaped: true };
                        } else if b == b'"' {
                            line.code.push('"');
                            state = State::Code;
                        }
                    }
                    Some(hashes) => {
                        // A raw string closes on `"` followed by exactly
                        // its fence of `#`s.
                        if b == b'"' && fence_follows(&bytes[i + 1..], hashes) {
                            line.code.push('"');
                            for _ in 0..hashes {
                                line.code.push('#');
                            }
                            i += hashes as usize;
                            state = State::Code;
                        }
                    }
                }
                i += 1;
            }
        }
    }
    lines.push(line);
    lines
}

/// Appends the whole UTF-8 scalar starting at byte `i` of `source` to
/// `out`, so non-ASCII text reads back unchanged. Returns the index of the
/// byte after it.
fn push_scalar(out: &mut String, source: &str, i: usize) -> usize {
    let end = i + utf8_len(source.as_bytes()[i]);
    out.push_str(&source[i..end]);
    end
}

/// Whether the last byte pushed to the code channel is an identifier char —
/// if so, a following `r`/`b` is part of that identifier, not a literal
/// prefix.
fn prev_is_ident(code: &str) -> bool {
    code.bytes().last().is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Matches a raw-string opener (`r"`, `r##"`, `br#"`, ...) at the start of
/// `rest`. Returns the opener length in bytes and its `#` fence count.
fn raw_string_open(rest: &[u8]) -> Option<(usize, u32)> {
    let mut i = 0;
    if rest.get(i) == Some(&b'b') {
        i += 1;
    }
    if rest.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0u32;
    while rest.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if rest.get(i) == Some(&b'"') {
        Some((i + 1, hashes))
    } else {
        None
    }
}

/// Whether `rest` starts with `hashes` consecutive `#` bytes.
fn fence_follows(rest: &[u8], hashes: u32) -> bool {
    let n = hashes as usize;
    rest.len() >= n && rest[..n].iter().all(|b| *b == b'#')
}

/// Lexes a `'` at `bytes[i]`: either a char literal (masked like a string)
/// or a lifetime (left in the code channel untouched). Returns the index of
/// the first byte after the consumed token.
fn lex_quote(bytes: &[u8], i: usize, code: &mut String) -> usize {
    debug_assert_eq!(bytes[i], b'\'');
    // Escaped char literal: `'\n'`, `'\u{2603}'`, `'\''` ...
    if bytes.get(i + 1) == Some(&b'\\') {
        code.push_str("''");
        let mut j = i + 2;
        let mut escaped = true;
        while j < bytes.len() && bytes[j] != b'\n' {
            if escaped {
                escaped = false;
            } else if bytes[j] == b'\\' {
                escaped = true;
            } else if bytes[j] == b'\'' {
                return j + 1;
            }
            j += 1;
        }
        return j;
    }
    // Unescaped: `'X'` is a char literal when a closing quote follows one
    // scalar; anything else (`'a`, `'static`, `<'a>`) is a lifetime.
    if let Some(&next) = bytes.get(i + 1) {
        let scalar_len = utf8_len(next);
        if bytes.get(i + 1 + scalar_len) == Some(&b'\'') {
            code.push_str("''");
            return i + scalar_len + 2;
        }
    }
    code.push('\'');
    i + 1
}

/// Byte length of the UTF-8 scalar starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b & 0xE0 == 0xC0 => 2,
        b if b & 0xF0 == 0xE0 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(source: &str) -> Vec<String> {
        split_lines(source).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comment_goes_to_the_comment_channel() {
        let lines = split_lines("let x = 1; // Instant::now()");
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].code, "let x = 1; ");
        assert_eq!(lines[0].comment, "// Instant::now()");
    }

    #[test]
    fn nested_block_comments_stay_comments_to_the_outer_close() {
        let src = "a /* one /* two */ still comment */ b\nc";
        let lines = split_lines(src);
        assert_eq!(lines[0].code, "a  b");
        assert!(lines[0].comment.contains("still comment"));
        assert_eq!(lines[1].code, "c");
    }

    #[test]
    fn multi_line_block_comment_carries_state() {
        let src = "code(); /* open\nInstant::now()\n*/ after();";
        let lines = split_lines(src);
        assert_eq!(lines[0].code, "code(); ");
        assert_eq!(lines[1].code, "");
        assert!(lines[1].comment.contains("Instant::now()"));
        assert_eq!(lines[2].code, " after();");
    }

    #[test]
    fn string_interiors_are_masked() {
        assert_eq!(codes(r#"let s = "HashMap in a string";"#), vec![r#"let s = "";"#]);
        assert_eq!(codes(r#"let s = "esc \" Instant \\";"#), vec![r#"let s = "";"#]);
        assert_eq!(codes(r#"let b = b"SystemTime";"#), vec![r#"let b = b"";"#]);
    }

    #[test]
    fn raw_strings_with_fences_are_masked() {
        assert_eq!(codes(r##"let s = r"thread_rng";"##), vec![r#"let s = r"";"#]);
        assert_eq!(codes(r###"let s = r#"elapsed( "quoted" "#;"###), vec![r###"let s = r#""#;"###]);
        assert_eq!(
            codes(r####"let s = br##"unsafe { }"##;"####),
            vec![r####"let s = br##""##;"####]
        );
    }

    #[test]
    fn raw_string_spans_lines() {
        let src = "let s = r#\"one\nInstant::now()\ntwo\"#; done();";
        let lines = split_lines(src);
        assert_eq!(lines[0].code, "let s = r#\"");
        assert_eq!(lines[1].code, "");
        assert_eq!(lines[2].code, "\"#; done();");
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        assert_eq!(codes("let r#fn = 1;"), vec!["let r#fn = 1;"]);
    }

    #[test]
    fn identifier_ending_in_r_or_b_does_not_open_a_literal() {
        assert_eq!(codes(r#"for chr"#), vec!["for chr"]);
        assert_eq!(codes("let numb = 2;"), vec!["let numb = 2;"]);
    }

    #[test]
    fn char_literals_masked_lifetimes_kept() {
        assert_eq!(codes("let c = 'H'; let d = '\\n';"), vec!["let c = ''; let d = '';"]);
        assert_eq!(codes("fn f<'a>(x: &'a str) {}"), vec!["fn f<'a>(x: &'a str) {}"]);
        assert_eq!(codes("let q = '\\'';"), vec!["let q = '';"]);
        assert_eq!(codes("let u = 'µ';"), vec!["let u = '';"]);
        assert_eq!(codes("&'static str"), vec!["&'static str"]);
    }

    #[test]
    fn comment_markers_inside_strings_are_inert() {
        let lines = split_lines(r#"let s = "// not a comment"; real();"#);
        assert_eq!(lines[0].code, r#"let s = ""; real();"#);
        assert_eq!(lines[0].comment, "");
    }

    #[test]
    fn string_quotes_inside_comments_are_inert() {
        let lines = split_lines("// \"open\nlet x = 1;");
        assert_eq!(lines[1].code, "let x = 1;");
    }

    #[test]
    fn non_ascii_text_reads_back_unchanged() {
        let lines = split_lines("let x = 1; // audit:allow(R5): item 4b — 5 µs\n/* é */ fn µ() {}");
        assert_eq!(lines[0].comment, "// audit:allow(R5): item 4b — 5 µs");
        assert_eq!(lines[1].comment, "/* é */");
        assert_eq!(lines[1].code, " fn µ() {}");
    }

    #[test]
    fn empty_source_yields_one_empty_line() {
        let lines = split_lines("");
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0], Line::default());
    }
}
