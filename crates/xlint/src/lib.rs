//! `xlint` — the repository's own static-analysis pass.
//!
//! Clippy cannot express the rules this codebase actually relies on:
//! that the *serving* crates never panic, that every `unsafe` block
//! justifies itself, that kernels stay deterministic (no ambient IO or
//! clocks outside the storage layer), that every bench that produces a
//! `BENCH_*.json` artifact is actually wired into CI, and that the
//! public API of the summary/engine layers is documented. This crate is
//! a hand-rolled, comment- and string-aware token scanner (the build
//! container is offline, so no `syn`) enforcing exactly those rules.
//!
//! # Rules
//!
//! | rule | scope | meaning |
//! |------|-------|---------|
//! | `no-panic` (R1) | `core`, `engine`, `xml`, `predicate`, `query` src, non-test | no `.unwrap()` / `.expect(…)` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` |
//! | `safety-comment` (R2) | whole repo | every `unsafe` token is preceded by a `// SAFETY:` comment (same line or up to 3 lines above) |
//! | `io-confinement` (R3) | serving crates, non-test | `std::fs` / `std::net` / `Instant::now` / `SystemTime` appear only in `core::store` (and the bench crate) |
//! | `bench-in-ci` (R4) | workspace | every registered bench that hooks the `XMLEST_BENCH_JSON` artifact writer is invoked with `--bench <name>` in `.github/workflows/ci.yml` |
//! | `doc-pub` (R5) | `core`, `engine` src, non-test | every `pub` item declaration (fn/struct/enum/trait/type/const/static/mod/union) carries a doc comment |
//! | `lock-free-serving` (R6) | warm estimate-path modules, non-test | no `Mutex`/`RwLock` acquisition (`.lock()` / `.read()` / `.write()`) — the serving read path must stay wait-free |
//! | `metrics-discipline` (R7) | serving crates, non-test | every `.counter(…)`/`.histogram(…)` registration passes a string-literal name **and** a non-empty string-literal doc; raw `Instant::now` is confined to `xobs::clock` — instrumented code times itself through `Recorder` spans |
//!
//! # Pragma escape hatch
//!
//! A violation is suppressed by a **same-line** pragma with a
//! **non-empty justification**:
//!
//! ```text
//! let g = grid.lock().expect("lock"); // xlint: allow(no-panic, "poisoned lock means a prior panic; propagating is intended")
//! ```
//!
//! A pragma without a justification is itself reported. Unknown rule
//! names in a pragma are reported too, so typos cannot silently
//! suppress anything.
//!
//! # Test code
//!
//! Items under a `#[cfg(test)]` attribute (and everything inside them)
//! are exempt from `no-panic`, `io-confinement` and `doc-pub` — tests
//! are expected to unwrap. `safety-comment` applies everywhere: unsafe
//! test scaffolding still wants a justification.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// The rules this pass enforces. Names are what pragmas refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: no panicking constructs in non-test serving code.
    NoPanic,
    /// R2: every `unsafe` is preceded by a `// SAFETY:` comment.
    SafetyComment,
    /// R3: ambient IO and clocks confined to `core::store` and `bench`.
    IoConfinement,
    /// R4: benches that write `BENCH_*.json` artifacts must run in CI.
    BenchInCi,
    /// R5: `pub` items in `core`/`engine` carry doc comments.
    DocPub,
    /// R6: no lock acquisition in warm estimate-path modules.
    LockFreeServing,
    /// R7: metric registrations carry literal names and non-empty
    /// docs; raw clock reads are confined to `xobs::clock`.
    MetricsDiscipline,
    /// Meta-rule: a malformed pragma (missing justification, unknown
    /// rule name) is itself a violation.
    BadPragma,
}

impl Rule {
    /// The pragma/display name of the rule.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::SafetyComment => "safety-comment",
            Rule::IoConfinement => "io-confinement",
            Rule::BenchInCi => "bench-in-ci",
            Rule::DocPub => "doc-pub",
            Rule::LockFreeServing => "lock-free-serving",
            Rule::MetricsDiscipline => "metrics-discipline",
            Rule::BadPragma => "bad-pragma",
        }
    }

    /// Parses a pragma rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "no-panic" => Rule::NoPanic,
            "safety-comment" => Rule::SafetyComment,
            "io-confinement" => Rule::IoConfinement,
            "bench-in-ci" => Rule::BenchInCi,
            "doc-pub" => Rule::DocPub,
            "lock-free-serving" => Rule::LockFreeServing,
            "metrics-discipline" => Rule::MetricsDiscipline,
            _ => return None,
        })
    }
}

/// One finding, addressed by file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the violation is in (as passed to the scanner).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule.name(),
            self.msg
        )
    }
}

/// A source file reduced to what the rules inspect: code with every
/// comment, string and char literal blanked to spaces (newlines kept,
/// so byte offsets and line numbers survive), plus the comment texts
/// per line (for SAFETY comments and pragmas).
#[derive(Debug)]
pub struct ScannedFile {
    /// Original text (for R4's string-literal search).
    pub raw: String,
    /// Comment/string/char-free text, same length as `raw`.
    pub code: String,
    /// `(1-based line, comment text)` for every comment, in order.
    pub comments: Vec<(usize, String)>,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
}

/// Lexer state for [`blank_source`].
enum Lex {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Blanks comments, strings and char literals out of Rust source,
/// collecting comment texts. The output has the same byte length as the
/// input; every blanked byte becomes a space (newlines are preserved).
fn blank_source(src: &str) -> (String, Vec<(usize, String)>) {
    let bytes = src.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut cur_comment = String::new();
    let mut cur_comment_line = 0usize;
    let mut line = 1usize;
    let mut state = Lex::Code;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            out[i] = b'\n';
            if let Lex::LineComment = state {
                comments.push((cur_comment_line, std::mem::take(&mut cur_comment)));
                state = Lex::Code;
            }
            line += 1;
            i += 1;
            continue;
        }
        match state {
            Lex::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = Lex::LineComment;
                    cur_comment_line = line;
                    cur_comment.clear();
                    i += 2;
                    continue;
                }
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = Lex::BlockComment(1);
                    cur_comment_line = line;
                    cur_comment.clear();
                    i += 2;
                    continue;
                }
                if b == b'"' {
                    state = Lex::Str;
                    i += 1;
                    continue;
                }
                // String introducers: r"…", r#"…"#, b"…", br#"…"#.
                if (b == b'r' || b == b'b') && !prev_is_ident(bytes, i) {
                    let mut j = i + 1;
                    let mut is_raw = b == b'r';
                    if b == b'b' && bytes.get(j) == Some(&b'r') {
                        is_raw = true;
                        j += 1;
                    }
                    if is_raw {
                        let mut hashes = 0u32;
                        while bytes.get(j) == Some(&b'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&b'"') {
                            state = Lex::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                    } else if bytes.get(j) == Some(&b'"') {
                        state = Lex::Str;
                        i = j + 1;
                        continue;
                    }
                    out[i] = b;
                    i += 1;
                    continue;
                }
                if b == b'\'' {
                    // Char literal vs lifetime: a char literal closes with
                    // a quote after one (possibly escaped) character.
                    if bytes.get(i + 1) == Some(&b'\\')
                        || (bytes.get(i + 2) == Some(&b'\'')
                            && bytes.get(i + 1).is_some_and(|c| *c != b'\''))
                    {
                        state = Lex::Char;
                        i += 1;
                        continue;
                    }
                    // Lifetime: drop the quote, keep the identifier.
                    i += 1;
                    continue;
                }
                out[i] = b;
                i += 1;
            }
            Lex::LineComment => {
                cur_comment.push(b as char);
                i += 1;
            }
            Lex::BlockComment(depth) => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = Lex::BlockComment(depth + 1);
                    i += 2;
                } else if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    if depth == 1 {
                        comments.push((cur_comment_line, std::mem::take(&mut cur_comment)));
                        state = Lex::Code;
                    } else {
                        state = Lex::BlockComment(depth - 1);
                    }
                    i += 2;
                } else {
                    cur_comment.push(b as char);
                    i += 1;
                }
            }
            Lex::Str => {
                if b == b'\\' {
                    // An escaped newline (string line-continuation) must
                    // still reach the top-of-loop newline handling, or
                    // line numbering desyncs for the rest of the file.
                    i += if bytes.get(i + 1) == Some(&b'\n') {
                        1
                    } else {
                        2
                    };
                } else if b == b'"' {
                    state = Lex::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Lex::RawStr(hashes) => {
                if b == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && bytes.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        state = Lex::Code;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
            Lex::Char => {
                if b == b'\\' {
                    i += if bytes.get(i + 1) == Some(&b'\n') {
                        1
                    } else {
                        2
                    };
                } else if b == b'\'' {
                    state = Lex::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    if let Lex::LineComment | Lex::BlockComment(_) = state {
        comments.push((cur_comment_line, cur_comment));
    }
    // The blanking above is byte-wise; re-validate as UTF-8 by replacing
    // any orphaned continuation bytes (from blanked multi-byte chars in
    // code position — identifiers are ASCII in this repo) with spaces.
    let code = String::from_utf8(out)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    (code, comments)
}

/// Whether the byte before `i` continues an identifier (so `r` in
/// `for` is not a raw-string introducer).
fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

impl ScannedFile {
    /// Lexes `src` into the scanner's working form.
    pub fn new(src: &str) -> ScannedFile {
        let (code, comments) = blank_source(src);
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut f = ScannedFile {
            raw: src.to_owned(),
            code,
            comments,
            line_starts,
            test_ranges: Vec::new(),
        };
        f.test_ranges = f.find_test_ranges();
        f
    }

    /// 1-based line of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    /// Whether `offset` falls inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, offset: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| s <= offset && offset < e)
    }

    /// Comment texts attached to `line` (there can be several).
    fn comments_on(&self, line: usize) -> impl Iterator<Item = &str> {
        self.comments
            .iter()
            .filter(move |&&(l, _)| l == line)
            .map(|(_, t)| t.as_str())
    }

    /// Finds the byte ranges of items annotated `#[cfg(test)]`. The
    /// range starts at the attribute and ends at the close of the
    /// item's brace block (or its terminating `;`).
    fn find_test_ranges(&self) -> Vec<(usize, usize)> {
        let bytes = self.code.as_bytes();
        let mut ranges = Vec::new();
        let mut i = 0usize;
        while let Some(rel) = self.code[i..].find("#[") {
            let attr_start = i + rel;
            let Some((attr_end, content)) = read_attr(&self.code, attr_start) else {
                i = attr_start + 2;
                continue;
            };
            let compact: String = content.chars().filter(|c| !c.is_whitespace()).collect();
            let is_test_cfg = compact.starts_with("cfg(") && compact.contains("test");
            if !is_test_cfg {
                i = attr_end;
                continue;
            }
            // Skip any further attributes, then consume the item.
            let mut j = attr_end;
            loop {
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if self.code[j..].starts_with("#[") {
                    match read_attr(&self.code, j) {
                        Some((end, _)) => j = end,
                        None => break,
                    }
                } else {
                    break;
                }
            }
            let end = item_end(&self.code, j);
            ranges.push((attr_start, end));
            i = end.max(attr_end);
        }
        ranges
    }
}

/// Reads the balanced `#[...]` attribute starting at `start`; returns
/// `(end_offset, inner_text)`.
fn read_attr(code: &str, start: usize) -> Option<(usize, String)> {
    let bytes = code.as_bytes();
    debug_assert!(code[start..].starts_with("#["));
    let mut depth = 0i32;
    for (k, &b) in bytes.iter().enumerate().skip(start + 1) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some((k + 1, code[start + 2..k].to_owned()));
                }
            }
            _ => {}
        }
    }
    None
}

/// Finds the end of the item starting at `start`: the matching close of
/// its first brace block, or its terminating `;` if one comes first.
fn item_end(code: &str, start: usize) -> usize {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut seen_brace = false;
    for (k, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'{' => {
                depth += 1;
                seen_brace = true;
            }
            b'}' => {
                depth -= 1;
                if seen_brace && depth == 0 {
                    return k + 1;
                }
            }
            b';' if !seen_brace && depth == 0 => return k + 1,
            _ => {}
        }
    }
    code.len()
}

/// A parsed `// xlint: allow(rule, "justification")` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma suppresses.
    pub line: usize,
    /// Rule being allowed (`None` for an unknown name).
    pub rule: Option<Rule>,
    /// The quoted justification (`None` when missing/empty).
    pub justification: Option<String>,
}

/// Extracts every pragma in a scanned file.
///
/// Doc comments are skipped: a pragma lives in a plain `//` comment, and
/// rustdoc prose is allowed to *show* the pragma syntax without it being
/// parsed as one.
pub fn pragmas(file: &ScannedFile) -> Vec<Pragma> {
    let mut out = Vec::new();
    for &(line, ref text) in &file.comments {
        if text.starts_with('/') || text.starts_with('!') || text.starts_with('*') {
            continue;
        }
        let Some(pos) = text.find("xlint: allow(") else {
            continue;
        };
        let rest = &text[pos + "xlint: allow(".len()..];
        // Rule name runs to the first `,` or `)`; the justification is a
        // quoted string that may itself contain parentheses, so it is
        // delimited by its quotes, not by scanning for `)`.
        let name_end = rest.find([',', ')']).unwrap_or(rest.len());
        let name = rest[..name_end].trim();
        let justification = rest[name_end..]
            .strip_prefix(',')
            .map(str::trim_start)
            .and_then(|s| s.strip_prefix('"'))
            .and_then(|s| s.split_once('"'))
            .filter(|(_, after)| after.trim_start().starts_with(')'))
            .map(|(just, _)| just.trim())
            .filter(|s| !s.is_empty())
            .map(str::to_owned);
        out.push(Pragma {
            line,
            rule: Rule::from_name(name),
            justification,
        });
    }
    out
}

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// R1 applies.
    pub no_panic: bool,
    /// R2 applies (it applies everywhere; kept switchable for tests).
    pub safety: bool,
    /// R3 applies.
    pub io: bool,
    /// R5 applies.
    pub doc_pub: bool,
    /// R6 applies.
    pub lock_free: bool,
    /// R7 applies.
    pub metrics: bool,
}

impl RuleSet {
    /// Every file-level rule on — what fixtures and explicit paths get.
    pub fn all() -> RuleSet {
        RuleSet {
            no_panic: true,
            safety: true,
            io: true,
            doc_pub: true,
            lock_free: true,
            metrics: true,
        }
    }
}

/// Scans one file's source under `rules`, honoring pragmas. This is the
/// pure core of the tool: no filesystem access, fully unit-testable.
pub fn check_source(path: &Path, src: &str, rules: RuleSet) -> Vec<Violation> {
    let file = ScannedFile::new(src);
    let prag = pragmas(&file);
    let mut raw: Vec<Violation> = Vec::new();

    if rules.no_panic {
        no_panic_rule(path, &file, &mut raw);
    }
    if rules.safety {
        safety_rule(path, &file, &mut raw);
    }
    if rules.io {
        io_rule(path, &file, &mut raw);
    }
    if rules.doc_pub {
        doc_pub_rule(path, &file, &mut raw);
    }
    if rules.lock_free {
        lock_free_rule(path, &file, &mut raw);
    }
    if rules.metrics {
        metrics_rule(path, &file, &mut raw);
    }

    // Apply pragmas: a well-formed pragma on the same line suppresses
    // that rule's findings; malformed pragmas become findings.
    let mut out: Vec<Violation> = Vec::new();
    for v in raw {
        let suppressed = prag.iter().any(|p| {
            p.line == v.line
                && p.justification.is_some()
                && (p.rule == Some(v.rule)
                    // R7's clock half deliberately overlaps R3: a raw
                    // clock read already justified under io-confinement
                    // stays justified — one pragma, not two.
                    || (v.rule == Rule::MetricsDiscipline
                        && p.rule == Some(Rule::IoConfinement)
                        && v.msg.contains("Instant::now")))
        });
        if !suppressed {
            out.push(v);
        }
    }
    for p in &prag {
        if p.rule.is_none() {
            out.push(Violation {
                path: path.to_owned(),
                line: p.line,
                rule: Rule::BadPragma,
                msg: "pragma names an unknown rule".into(),
            });
        } else if p.justification.is_none() {
            out.push(Violation {
                path: path.to_owned(),
                line: p.line,
                rule: Rule::BadPragma,
                msg: "pragma is missing a quoted, non-empty justification".into(),
            });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Iterator over `(byte_offset, word)` identifiers in blanked code.
fn words(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = code.as_bytes();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            let b = bytes[i];
            if b.is_ascii_alphabetic() || b == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                return Some((start, &code[start..i]));
            }
            i += 1;
        }
        None
    })
}

/// First non-whitespace byte at or after `i`.
fn next_nonws(bytes: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some((i, bytes[i]));
        }
        i += 1;
    }
    None
}

/// Last non-whitespace byte before `i`.
fn prev_nonws(bytes: &[u8], i: usize) -> Option<u8> {
    bytes[..i]
        .iter()
        .rev()
        .find(|b| !b.is_ascii_whitespace())
        .copied()
}

/// Whether the call whose open paren sits at `open` has its matching
/// close paren immediately followed by `?`. Operates on blanked code, so
/// parens inside string literals never skew the balance.
fn call_is_try_propagated(bytes: &[u8], open: Option<usize>) -> bool {
    let Some(open) = open else { return false };
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return next_nonws(bytes, i + 1).is_some_and(|(_, b)| b == b'?');
                }
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// R1: panicking constructs in non-test code.
fn no_panic_rule(path: &Path, file: &ScannedFile, out: &mut Vec<Violation>) {
    let bytes = file.code.as_bytes();
    for (off, word) in words(&file.code) {
        if file.in_test_code(off) {
            continue;
        }
        let after = next_nonws(bytes, off + word.len());
        let flagged = match word {
            // Method calls only: `.unwrap()` / `.expect(`; a local fn
            // named `expect` would be a different thing entirely. A call
            // whose close paren is immediately followed by `?` is a
            // user-defined fallible method (std's panicking forms return
            // a bare value, which `?` would reject), so it is skipped.
            "unwrap" | "expect" => {
                prev_nonws(bytes, off) == Some(b'.')
                    && after.is_some_and(|(_, b)| b == b'(')
                    && !call_is_try_propagated(bytes, after.map(|(i, _)| i))
            }
            // Macro invocations.
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                after.is_some_and(|(_, b)| b == b'!')
            }
            _ => false,
        };
        if flagged {
            out.push(Violation {
                path: path.to_owned(),
                line: file.line_of(off),
                rule: Rule::NoPanic,
                msg: format!("`{word}` in non-test serving code (return a typed error, or justify with `// xlint: allow(no-panic, \"…\")`)"),
            });
        }
    }
}

/// R2: `unsafe` without a nearby `// SAFETY:` comment. The comment must
/// sit on the same line or within the 3 lines above the `unsafe` token.
fn safety_rule(path: &Path, file: &ScannedFile, out: &mut Vec<Violation>) {
    for (off, word) in words(&file.code) {
        if word != "unsafe" {
            continue;
        }
        let line = file.line_of(off);
        let covered = (line.saturating_sub(3)..=line)
            .any(|l| file.comments_on(l).any(|c| c.contains("SAFETY:")));
        if !covered {
            out.push(Violation {
                path: path.to_owned(),
                line,
                rule: Rule::SafetyComment,
                msg:
                    "`unsafe` without a `// SAFETY:` comment on the same line or the 3 lines above"
                        .into(),
            });
        }
    }
}

/// R3: ambient IO / clock tokens outside the storage layer. Matches the
/// exact path spellings rustfmt produces (no spaces around `::`).
fn io_rule(path: &Path, file: &ScannedFile, out: &mut Vec<Violation>) {
    const NEEDLES: [&str; 4] = ["std::fs", "std::net", "Instant::now", "SystemTime"];
    let code = &file.code;
    for needle in NEEDLES {
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(needle) {
            let off = from + rel;
            from = off + needle.len();
            // Word-boundary both sides so e.g. `MySystemTime` is not hit.
            let before_ok = off == 0 || {
                let b = code.as_bytes()[off - 1];
                !(b.is_ascii_alphanumeric() || b == b'_' || b == b':')
            };
            let after_ok = code[off + needle.len()..]
                .bytes()
                .next()
                .is_none_or(|b| !(b.is_ascii_alphanumeric() || b == b'_'));
            if !(before_ok && after_ok) || file.in_test_code(off) {
                continue;
            }
            out.push(Violation {
                path: path.to_owned(),
                line: file.line_of(off),
                rule: Rule::IoConfinement,
                msg: format!("`{needle}` outside `core::store`/`bench` breaks kernel determinism"),
            });
        }
    }
}

/// Item keywords R5 requires documentation on.
const DOC_ITEMS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// R5: undocumented `pub` item declarations. `pub(crate)`/`pub(super)`
/// visibility and `pub use` re-exports are exempt; struct fields and
/// enum variants are not item declarations and are exempt too.
fn doc_pub_rule(path: &Path, file: &ScannedFile, out: &mut Vec<Violation>) {
    let bytes = file.code.as_bytes();
    for (off, word) in words(&file.code) {
        if word != "pub" || file.in_test_code(off) {
            continue;
        }
        // Restricted visibility: `pub(` …
        if next_nonws(bytes, off + 3).is_some_and(|(_, b)| b == b'(') {
            continue;
        }
        // Walk modifier keywords to the item keyword.
        let mut item: Option<&str> = None;
        let mut probe = off + 3;
        for _ in 0..4 {
            let Some((woff, w)) = words(&file.code[probe..])
                .next()
                .map(|(o, w)| (probe + o, w))
            else {
                break;
            };
            match w {
                "unsafe" | "async" | "extern" => probe = woff + w.len(),
                "const" => {
                    // `pub const fn f` vs `pub const X: …`.
                    let next = words(&file.code[woff + w.len()..]).next().map(|(_, w)| w);
                    if next == Some("fn") {
                        item = Some("fn");
                    } else {
                        item = Some("const");
                    }
                    break;
                }
                other => {
                    if DOC_ITEMS.contains(&other) {
                        item = Some(other);
                    }
                    break;
                }
            }
        }
        let Some(item) = item else { continue };
        let line = file.line_of(off);
        if !has_doc_above(file, off) {
            let name = words(&file.code[off..])
                .map(|(_, w)| w)
                .skip_while(|w| !DOC_ITEMS.contains(w))
                .nth(1)
                .unwrap_or("?")
                .to_owned();
            out.push(Violation {
                path: path.to_owned(),
                line,
                rule: Rule::DocPub,
                msg: format!("undocumented `pub {item} {name}`"),
            });
        }
    }
}

/// Whether the item whose `pub` keyword sits at `pub_off` carries a doc
/// comment. Walks *backward* over whitespace and attribute groups
/// (`#[…]`, possibly multi-line, in any order relative to the docs)
/// until it hits preceding code, then checks whether any comment in the
/// attachment region is a doc comment (`///`, `//!` or `/** … */` — in
/// the blanked form their text starts with `/`, `!` or `*`).
fn has_doc_above(file: &ScannedFile, pub_off: usize) -> bool {
    let bytes = file.code.as_bytes();
    let mut p = pub_off; // exclusive end of the region scanned so far
    loop {
        while p > 0 && bytes[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        if p > 0 && bytes[p - 1] == b']' {
            // Backward-match to the opening `[` of a `#[…]` group.
            let mut depth = 0i32;
            let mut q = p;
            let mut opener = None;
            while q > 0 {
                q -= 1;
                match bytes[q] {
                    b']' => depth += 1,
                    b'[' => {
                        depth -= 1;
                        if depth == 0 {
                            opener = Some(q);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if let Some(q) = opener {
                if q > 0 && bytes[q - 1] == b'#' {
                    p = q - 1;
                    continue;
                }
            }
            return false;
        }
        break;
    }
    let start_line = if p == 0 { 0 } else { file.line_of(p - 1) };
    let end_line = file.line_of(pub_off);
    file.comments.iter().any(|&(l, ref t)| {
        l > start_line
            && l <= end_line
            && (t.starts_with('/') || t.starts_with('!') || t.starts_with('*'))
    })
}

/// R6: lock acquisitions in warm estimate-path modules. The wait-free
/// serving contract (`engine::snapshot`) promises that estimates never
/// block on a mutation; a `Mutex`/`RwLock` acquisition on that path
/// would silently void it. Declaring a lock is fine (a writer-side
/// publication lock, say); *acquiring* one —
/// `.lock()`, `.read()`, `.write()` method calls — is flagged unless a
/// same-line pragma justifies it as writer-side only.
fn lock_free_rule(path: &Path, file: &ScannedFile, out: &mut Vec<Violation>) {
    let bytes = file.code.as_bytes();
    for (off, word) in words(&file.code) {
        if !matches!(word, "lock" | "read" | "write") || file.in_test_code(off) {
            continue;
        }
        // Method-call form only: `.lock()` / `.read()` / `.write()` with
        // no arguments — the std lock-acquisition shapes. A call taking
        // arguments (e.g. `io::Write::write(buf)`) is something else.
        // Blanked string literals leave spaces in `code`, so an
        // apparently-empty argument span must also be empty in `raw`
        // (`w.write(b"…")` is IO, not an acquisition).
        let is_acquisition = prev_nonws(bytes, off) == Some(b'.')
            && next_nonws(bytes, off + word.len()).is_some_and(|(i, b)| {
                b == b'('
                    && next_nonws(bytes, i + 1)
                        .is_some_and(|(k, b)| b == b')' && file.raw[i + 1..k].trim().is_empty())
            });
        if is_acquisition {
            out.push(Violation {
                path: path.to_owned(),
                line: file.line_of(off),
                rule: Rule::LockFreeServing,
                msg: format!(
                    "`.{word}()` acquisition in a warm estimate-path module — serve from the published snapshot, or justify with `// xlint: allow(lock-free-serving, \"…\")`"
                ),
            });
        }
    }
}

/// Offset of the closing quote of the string literal whose opening
/// quote sits at `open` in the raw text (escape-aware).
fn str_end(raw: &[u8], open: usize) -> Option<usize> {
    let mut i = open + 1;
    while i < raw.len() {
        match raw[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// R7: metrics discipline. Two halves:
///
/// * **Registration** — every `.counter(…)` / `.histogram(…)` call
///   must pass a string-literal metric name followed by a non-empty
///   string-literal doc. The registry renders an empty doc as
///   `(undocumented)`; this rule makes that state unreachable from
///   checked code, and literal names keep every metric greppable.
/// * **Clock confinement** — raw `Instant::now` belongs to
///   `xobs::clock` alone. Instrumented code times itself through
///   `Recorder::span` / `StageClock`, so the reading lands in a
///   histogram instead of vanishing into an ad-hoc local.
///
/// The argument scan reads the *raw* text (blanking erases string
/// quotes along with their contents); offsets line up because blanked
/// and raw text have identical byte lengths.
fn metrics_rule(path: &Path, file: &ScannedFile, out: &mut Vec<Violation>) {
    let bytes = file.code.as_bytes();
    let raw = file.raw.as_bytes();
    for (off, word) in words(&file.code) {
        if !matches!(word, "counter" | "histogram") || file.in_test_code(off) {
            continue;
        }
        // Method-call form only: `.counter(` / `.histogram(`.
        if prev_nonws(bytes, off) != Some(b'.') {
            continue;
        }
        let Some((open, paren)) = next_nonws(bytes, off + word.len()) else {
            continue;
        };
        if paren != b'(' {
            continue;
        }
        let line = file.line_of(off);
        let Some((q0, c0)) = next_nonws(raw, open + 1) else {
            continue;
        };
        if c0 != b'"' {
            out.push(Violation {
                path: path.to_owned(),
                line,
                rule: Rule::MetricsDiscipline,
                msg: format!(
                    "`.{word}(…)` registration with a non-literal metric name — pass a `\"…\"` literal so the metric stays greppable"
                ),
            });
            continue;
        }
        let doc_ok = str_end(raw, q0)
            .and_then(|q1| next_nonws(raw, q1 + 1))
            .filter(|&(_, b)| b == b',')
            .and_then(|(ci, _)| next_nonws(raw, ci + 1))
            .filter(|&(_, b)| b == b'"')
            .and_then(|(d0, _)| str_end(raw, d0).map(|d1| (d0, d1)))
            .is_some_and(|(d0, d1)| raw[d0 + 1..d1].iter().any(|b| !b.is_ascii_whitespace()));
        if !doc_ok {
            out.push(Violation {
                path: path.to_owned(),
                line,
                rule: Rule::MetricsDiscipline,
                msg: format!(
                    "`.{word}(…)` registration without a non-empty string-literal doc — the registry would render it `(undocumented)`"
                ),
            });
        }
    }
    // Clock confinement (same needle mechanics as R3).
    let needle = "Instant::now";
    let mut from = 0usize;
    while let Some(rel) = file.code[from..].find(needle) {
        let off = from + rel;
        from = off + needle.len();
        let before_ok = off == 0 || {
            let b = bytes[off - 1];
            !(b.is_ascii_alphanumeric() || b == b'_' || b == b':')
        };
        let after_ok = file.code[off + needle.len()..]
            .bytes()
            .next()
            .is_none_or(|b| !(b.is_ascii_alphanumeric() || b == b'_'));
        if !(before_ok && after_ok) || file.in_test_code(off) {
            continue;
        }
        out.push(Violation {
            path: path.to_owned(),
            line: file.line_of(off),
            rule: Rule::MetricsDiscipline,
            msg: "raw `Instant::now` outside `xobs::clock` — time warm code with `Recorder::span`/`StageClock` so the reading lands in a histogram"
                .into(),
        });
    }
}

/// R4 input: the registered benches of the bench crate and the CI text.
#[derive(Debug, Default)]
pub struct BenchCiInput {
    /// `(bench name, bench source text)` pairs.
    pub benches: Vec<(String, String)>,
    /// Contents of `.github/workflows/ci.yml`.
    pub ci: String,
}

/// R4: every bench whose source mentions a `BENCH_*.json` artifact must
/// be invoked by name in CI.
///
/// Detection keys on `XMLEST_BENCH_JSON` — the criterion-shim env hook
/// that makes a bench emit its artifact — rather than the `BENCH_`
/// substring, which false-positives on identifiers like
/// `DEPT_BENCH_NODES`.
pub fn check_bench_ci(input: &BenchCiInput) -> Vec<Violation> {
    let mut out = Vec::new();
    for (name, src) in &input.benches {
        let writes_artifact = src.contains("XMLEST_BENCH_JSON");
        let in_ci = input.ci.contains(&format!("--bench {name}"));
        if writes_artifact && !in_ci {
            out.push(Violation {
                path: PathBuf::from(format!("crates/bench/benches/{name}.rs")),
                line: 1,
                rule: Rule::BenchInCi,
                msg: format!(
                    "bench `{name}` writes a BENCH_*.json artifact but `.github/workflows/ci.yml` never runs `--bench {name}`"
                ),
            });
        }
    }
    out
}

/// Extracts `[[bench]]` names from a bench-crate `Cargo.toml` (minimal
/// TOML subset: `name = "…"` lines inside `[[bench]]` tables).
pub fn bench_names(cargo_toml: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_bench = false;
    for line in cargo_toml.lines() {
        let t = line.trim();
        if t.starts_with("[[") {
            in_bench = t == "[[bench]]";
        } else if t.starts_with('[') {
            in_bench = false;
        } else if in_bench && t.starts_with("name") {
            if let Some(q) = t.find('"') {
                if let Some(e) = t[q + 1..].find('"') {
                    names.push(t[q + 1..q + 1 + e].to_owned());
                }
            }
        }
    }
    names
}

/// Crates whose `src/` falls under R1/R3/R7 (serving crates).
pub const SERVING_CRATES: [&str; 6] = ["core", "engine", "xml", "predicate", "query", "xobs"];

/// Crates whose `src/` falls under R5.
pub const DOC_CRATES: [&str; 3] = ["core", "engine", "xobs"];

/// Modules on the warm estimate path — R6 keeps them free of lock
/// acquisitions so the wait-free serving contract holds by
/// construction. (The prepared cache is deliberately absent: its locks
/// are cold-path; snapshots carry a frozen lock-free view of it.)
pub const WARM_SERVING_FILES: [&str; 4] = [
    "crates/core/src/estimator.rs",
    "crates/engine/src/snapshot.rs",
    "crates/shims/arcswap/src/lib.rs",
    "crates/xobs/src/lib.rs",
];

/// Classifies a workspace-relative path into the rule set that applies
/// in a full-workspace scan. Returns `None` for files not scanned at
/// all (shim internals get R2 only — they are vendored stand-ins).
pub fn rules_for(rel: &Path) -> Option<RuleSet> {
    let s = rel.to_string_lossy().replace('\\', "/");
    if s.contains("/fixtures/") || s.starts_with("target/") || s.contains("/target/") {
        return None;
    }
    let mut rules = RuleSet {
        safety: true,
        ..RuleSet::default()
    };
    for c in SERVING_CRATES {
        if s.starts_with(&format!("crates/{c}/src/")) {
            rules.no_panic = true;
            // The storage backend is the one place ambient IO belongs,
            // and `xobs::clock` is the one sanctioned `Instant::now`.
            rules.io = s != "crates/core/src/store.rs" && s != "crates/xobs/src/clock.rs";
            // R7 shares both escape hatches: the store's timestamps and
            // the clock shim implement what the rule confines.
            rules.metrics = rules.io;
        }
    }
    for c in DOC_CRATES {
        if s.starts_with(&format!("crates/{c}/src/")) {
            rules.doc_pub = true;
        }
    }
    if WARM_SERVING_FILES.contains(&s.as_str()) {
        rules.lock_free = true;
    }
    Some(rules)
}

/// Recursively collects `.rs` files under `root`, skipping `target/`
/// and fixture corpora. Paths come back workspace-relative and sorted.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = BTreeSet::new();
    let mut stack = vec![root.to_owned()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path).to_owned();
                out.insert(rel);
            }
        }
    }
    Ok(out.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str) -> Vec<Violation> {
        check_source(Path::new("t.rs"), src, RuleSet::all())
    }

    fn count(src: &str, rule: Rule) -> usize {
        rules(src).iter().filter(|v| v.rule == rule).count()
    }

    #[test]
    fn unwrap_in_code_flagged() {
        assert_eq!(count("fn f() { x.unwrap(); }", Rule::NoPanic), 1);
        assert_eq!(count("fn f() { x.expect(\"m\"); }", Rule::NoPanic), 1);
        assert_eq!(count("fn f() { panic!(\"m\"); }", Rule::NoPanic), 1);
        assert_eq!(count("fn f() { unreachable!() }", Rule::NoPanic), 1);
        assert_eq!(count("fn f() { todo!() }", Rule::NoPanic), 1);
    }

    #[test]
    fn lookalikes_not_flagged() {
        // Different identifiers entirely.
        assert_eq!(count("fn f() { x.unwrap_or(0); }", Rule::NoPanic), 0);
        assert_eq!(count("fn f() { x.unwrap_or_default(); }", Rule::NoPanic), 0);
        assert_eq!(count("fn f() { x.expect_err(\"m\"); }", Rule::NoPanic), 0);
        // Not a method call.
        assert_eq!(count("fn expect(x: u8) {}", Rule::NoPanic), 0);
        // debug_assert is allowed (compiled out in release).
        assert_eq!(count("fn f() { debug_assert!(x); }", Rule::NoPanic), 0);
        // A `?`-propagated call is a user-defined fallible method, not
        // std's panicking form (which returns a bare value).
        assert_eq!(count("fn f() -> R { p.expect(\">\")?; }", Rule::NoPanic), 0);
        assert_eq!(
            count("fn f() -> R { p.expect(inner(a, b))?; }", Rule::NoPanic),
            0
        );
        // …but `?` on a *later* call in the chain does not launder it.
        assert_eq!(
            count("fn f() -> R { x.unwrap().checked()?; }", Rule::NoPanic),
            1
        );
    }

    #[test]
    fn strings_and_comments_ignored() {
        assert_eq!(
            count("fn f() { let s = \"x.unwrap()\"; }", Rule::NoPanic),
            0
        );
        assert_eq!(
            count("// x.unwrap() in a comment\nfn f() {}", Rule::NoPanic),
            0
        );
        assert_eq!(count("/* panic!() */ fn f() {}", Rule::NoPanic), 0);
        assert_eq!(
            count("fn f() { let s = r#\"y.expect(\"q\")\"#; }", Rule::NoPanic),
            0
        );
        // A string closing then real code after it still scans.
        assert_eq!(
            count("fn f() { let s = \"ok\"; x.unwrap(); }", Rule::NoPanic),
            1
        );
    }

    #[test]
    fn char_literals_and_lifetimes() {
        // A char literal containing a quote-like escape must not absorb
        // the rest of the file.
        assert_eq!(
            count("fn f() { let c = '\\''; x.unwrap(); }", Rule::NoPanic),
            1
        );
        // Lifetimes are not char literals.
        assert_eq!(
            count("fn f<'a>(x: &'a Foo) { x.unwrap(); }", Rule::NoPanic),
            1
        );
    }

    #[test]
    fn cfg_test_items_exempt() {
        let src = r#"
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); z.expect("m"); panic!(); }
}
"#;
        assert_eq!(count(src, Rule::NoPanic), 1);
        let src2 = "#[cfg(test)]\nfn helper() { x.unwrap(); }\nfn live() { y.unwrap(); }";
        assert_eq!(count(src2, Rule::NoPanic), 1);
    }

    #[test]
    fn pragma_suppresses_with_justification() {
        let src = "fn f() { x.unwrap(); } // xlint: allow(no-panic, \"startup path, cannot fail\")";
        assert_eq!(rules(src), vec![]);
    }

    #[test]
    fn pragma_without_justification_is_a_violation() {
        let src = "fn f() { x.unwrap(); } // xlint: allow(no-panic)";
        let v = rules(src);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::NoPanic).count(), 1);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::BadPragma).count(), 1);
    }

    #[test]
    fn pragma_unknown_rule_is_a_violation() {
        let src = "fn f() {} // xlint: allow(no-such-rule, \"nope\")";
        assert_eq!(count(src, Rule::BadPragma), 1);
    }

    #[test]
    fn pragma_wrong_rule_does_not_suppress() {
        let src = "fn f() { x.unwrap(); } // xlint: allow(safety-comment, \"mismatched\")";
        assert_eq!(count(src, Rule::NoPanic), 1);
    }

    #[test]
    fn pragma_justification_may_contain_parens() {
        let src = "fn f() { x.unwrap(); } // xlint: allow(no-panic, \"take(2) returned exactly 2 bytes\")";
        assert_eq!(rules(src), vec![]);
    }

    #[test]
    fn escaped_newline_in_string_keeps_lines_aligned() {
        // A `\`-continued string must not desync line numbering: the
        // pragma three lines below still suppresses its own line.
        let src = "fn f() {\n    let m = format!(\n        \"two-line \\\n         tail\",\n    );\n    x.unwrap(); // xlint: allow(no-panic, \"aligned\")\n}";
        assert_eq!(rules(src), vec![]);
    }

    #[test]
    fn pragma_in_doc_comment_is_prose_not_pragma() {
        // Rustdoc may *show* the pragma syntax without it parsing as
        // one — neither suppressing nor reported as malformed.
        let src = "/// Example: `// xlint: allow(rule, \"justification\")`.\nfn f() {}";
        assert_eq!(rules(src), vec![]);
        // And a same-line doc comment does not suppress a real violation.
        let src = "fn f() { x.unwrap(); } /** xlint: allow(no-panic, \"doc prose\") */";
        assert_eq!(count(src, Rule::NoPanic), 1);
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        assert_eq!(count("fn f() { unsafe { g() } }", Rule::SafetyComment), 1);
        assert_eq!(
            count(
                "// SAFETY: g has no preconditions here\nfn f() { unsafe { g() } }",
                Rule::SafetyComment
            ),
            0
        );
        assert_eq!(
            count(
                "fn f() { unsafe { g() } } // SAFETY: g has no preconditions",
                Rule::SafetyComment
            ),
            0
        );
        // Too far above (4 lines).
        assert_eq!(
            count(
                "// SAFETY: stale\n\n\n\nfn f() { unsafe { g() } }",
                Rule::SafetyComment
            ),
            1
        );
        // The word in a string is not an unsafe token.
        assert_eq!(
            count("fn f() { let s = \"unsafe\"; }", Rule::SafetyComment),
            0
        );
    }

    #[test]
    fn io_confinement() {
        assert_eq!(
            count("fn f() { std::fs::read(p); }", Rule::IoConfinement),
            1
        );
        assert_eq!(count("use std::fs;", Rule::IoConfinement), 1);
        assert_eq!(
            count("fn f() { let t = Instant::now(); }", Rule::IoConfinement),
            1
        );
        assert_eq!(count("fn f(t: SystemTime) {}", Rule::IoConfinement), 1);
        assert_eq!(count("use std::net::TcpStream;", Rule::IoConfinement), 1);
        // Lookalikes.
        assert_eq!(count("fn f(t: MySystemTime) {}", Rule::IoConfinement), 0);
        assert_eq!(count("fn f() { foo::std::fs(); }", Rule::IoConfinement), 0);
        // Strings don't count.
        assert_eq!(
            count("fn f() { let s = \"std::fs\"; }", Rule::IoConfinement),
            0
        );
    }

    #[test]
    fn doc_pub_rule_basics() {
        assert_eq!(count("pub fn f() {}", Rule::DocPub), 1);
        assert_eq!(count("/// Doc.\npub fn f() {}", Rule::DocPub), 0);
        assert_eq!(count("pub(crate) fn f() {}", Rule::DocPub), 0);
        assert_eq!(count("pub use foo::Bar;", Rule::DocPub), 0);
        assert_eq!(
            count("/// Doc.\n#[derive(Debug)]\npub struct S;", Rule::DocPub),
            0
        );
        assert_eq!(
            count("#[derive(Debug)]\n/// Doc.\npub struct S;", Rule::DocPub),
            0
        );
        assert_eq!(count("#[derive(Debug)]\npub struct S;", Rule::DocPub), 1);
        // Multi-line attribute between doc and item.
        assert_eq!(
            count(
                "/// Doc.\n#[cfg_attr(\n    feature = \"x\",\n    derive(Debug)\n)]\npub enum E {}",
                Rule::DocPub
            ),
            0
        );
        // Modifier chains.
        assert_eq!(count("/// D.\npub const fn f() {}", Rule::DocPub), 0);
        assert_eq!(count("pub const X: u8 = 0;", Rule::DocPub), 1);
        assert_eq!(count("/// D.\npub unsafe fn f() {}", Rule::DocPub), 0);
        // Fields are not items.
        assert_eq!(
            count("/// D.\npub struct S {\n    pub x: u8,\n}", Rule::DocPub),
            0
        );
    }

    #[test]
    fn bench_ci_cross_check() {
        let input = BenchCiInput {
            benches: vec![
                (
                    "wired".into(),
                    "// XMLEST_BENCH_JSON=BENCH_wired.json".into(),
                ),
                (
                    "orphan".into(),
                    "// XMLEST_BENCH_JSON=BENCH_orphan.json".into(),
                ),
                (
                    "no_artifact".into(),
                    "const N: u64 = DEPT_BENCH_NODES;".into(),
                ),
            ],
            ci: "run: cargo bench -p xmlest-bench --bench wired".into(),
        };
        let v = check_bench_ci(&input);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("orphan"));
    }

    #[test]
    fn bench_names_parsed_from_toml() {
        let toml = "[package]\nname = \"x\"\n[[bench]]\nname = \"a\"\nharness = false\n[[bench]]\nname = \"b\"\n";
        assert_eq!(bench_names(toml), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn rules_for_classifies_paths() {
        let r = rules_for(Path::new("crates/core/src/grid.rs")).unwrap();
        assert!(r.no_panic && r.io && r.doc_pub && r.safety);
        let r = rules_for(Path::new("crates/core/src/store.rs")).unwrap();
        assert!(r.no_panic && !r.io && r.doc_pub);
        let r = rules_for(Path::new("crates/xml/src/tree.rs")).unwrap();
        assert!(r.no_panic && r.io && !r.doc_pub);
        let r = rules_for(Path::new("tests/alloc_discipline.rs")).unwrap();
        assert!(!r.no_panic && r.safety && !r.io && !r.doc_pub);
        let r = rules_for(Path::new("crates/bench/benches/substrate.rs")).unwrap();
        assert!(!r.no_panic && !r.io);
        assert!(rules_for(Path::new("crates/xlint/fixtures/x.rs")).is_none());
    }

    #[test]
    fn raw_string_with_hashes_containing_quotes() {
        let src = "fn f() { let s = r##\"a \"quoted\" panic!()\"##; x.unwrap(); }";
        assert_eq!(count(src, Rule::NoPanic), 1);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner panic!() */ still comment x.unwrap() */ fn f() {}";
        assert_eq!(count(src, Rule::NoPanic), 0);
    }

    #[test]
    fn lock_acquisitions_flagged() {
        assert_eq!(
            count(
                "fn f(m: &Mutex<u8>) { let _ = m.lock(); }",
                Rule::LockFreeServing
            ),
            1
        );
        assert_eq!(
            count(
                "fn f(l: &RwLock<u8>) { let _ = l.read(); }",
                Rule::LockFreeServing
            ),
            1
        );
        assert_eq!(
            count(
                "fn f(l: &RwLock<u8>) { let _ = l.write(); }",
                Rule::LockFreeServing
            ),
            1
        );
    }

    #[test]
    fn lock_free_rule_skips_non_acquisitions() {
        // Calls with arguments are IO/writes, not lock acquisitions.
        assert_eq!(
            count(
                "fn f(w: &mut Vec<u8>) { w.write(b); }",
                Rule::LockFreeServing
            ),
            0
        );
        // A string-literal argument is blanked to spaces by the lexer
        // but the call still has an argument — not an acquisition.
        assert_eq!(
            count(
                "fn f(w: &mut Vec<u8>) { w.write(b\"state\"); }",
                Rule::LockFreeServing
            ),
            0
        );
        // `write!` macro, free fn call, and declaring a lock are fine.
        assert_eq!(
            count("fn f() { write!(out, \"x\"); }", Rule::LockFreeServing),
            0
        );
        assert_eq!(count("fn f() { read(); }", Rule::LockFreeServing), 0);
        assert_eq!(
            count(
                "struct S { m: Mutex<()>, l: RwLock<u8> }",
                Rule::LockFreeServing
            ),
            0
        );
        // Test code is exempt.
        assert_eq!(
            count(
                "#[cfg(test)] mod t { fn f(m: &Mutex<u8>) { m.lock(); } }",
                Rule::LockFreeServing
            ),
            0
        );
    }

    #[test]
    fn lock_free_pragma_suppresses() {
        let src = "fn f(m: &Mutex<u8>) { let _ = m.lock(); // xlint: allow(lock-free-serving, \"writer side\")\n}";
        assert_eq!(count(src, Rule::LockFreeServing), 0);
    }

    #[test]
    fn metrics_registration_requires_literal_name_and_doc() {
        // Clean: literal name + non-empty literal doc, multi-line form
        // (what rustfmt produces at the real registration sites).
        assert_eq!(
            count(
                "fn f(r: &Recorder) { r.counter(\n    \"m_total\",\n    \"Things counted.\",\n); }",
                Rule::MetricsDiscipline
            ),
            0
        );
        assert_eq!(
            count(
                "fn f(r: &Recorder) { r.histogram(\"h_ns\", \"Latency, log-bucketed.\"); }",
                Rule::MetricsDiscipline
            ),
            0
        );
        // Missing doc argument entirely.
        assert_eq!(
            count(
                "fn f(r: &Recorder) { r.counter(\"m_total\"); }",
                Rule::MetricsDiscipline
            ),
            1
        );
        // Empty (or whitespace-only) doc.
        assert_eq!(
            count(
                "fn f(r: &Recorder) { r.counter(\"m_total\", \"\"); }",
                Rule::MetricsDiscipline
            ),
            1
        );
        assert_eq!(
            count(
                "fn f(r: &Recorder) { r.histogram(\"h_ns\", \"  \"); }",
                Rule::MetricsDiscipline
            ),
            1
        );
        // Non-literal name.
        assert_eq!(
            count(
                "fn f(r: &Recorder) { r.counter(name, doc); }",
                Rule::MetricsDiscipline
            ),
            1
        );
        // A free fn named `counter` is not a registration; nor is a
        // field access without a call.
        assert_eq!(count("fn f() { counter(1); }", Rule::MetricsDiscipline), 0);
        assert_eq!(
            count("fn f(m: &M) -> u64 { m.counter }", Rule::MetricsDiscipline),
            0
        );
        // Test code is exempt.
        assert_eq!(
            count(
                "#[cfg(test)] mod t { fn f(r: &R) { r.counter(n, d); } }",
                Rule::MetricsDiscipline
            ),
            0
        );
    }

    #[test]
    fn metrics_clock_confinement() {
        assert_eq!(
            count(
                "fn f() { let t = Instant::now(); }",
                Rule::MetricsDiscipline
            ),
            1
        );
        // Its own pragma suppresses…
        let src = "fn f() { let t = Instant::now(); // xlint: allow(metrics-discipline, \"cold diagnostic path\")\n}";
        assert_eq!(count(src, Rule::MetricsDiscipline), 0);
        // …and so does an io-confinement pragma: the clock half of R7
        // overlaps R3, and one justification covers both.
        let src = "fn f() { let t = Instant::now(); // xlint: allow(io-confinement, \"report-only wall clock\")\n}";
        assert_eq!(count(src, Rule::MetricsDiscipline), 0);
        assert_eq!(count(src, Rule::IoConfinement), 0);
        // An io-confinement pragma does NOT cover the registration half.
        let src =
            "fn f(r: &R) { r.counter(n, d); // xlint: allow(io-confinement, \"wrong rule\")\n}";
        assert_eq!(count(src, Rule::MetricsDiscipline), 1);
        // Lookalikes and test code.
        assert_eq!(
            count("fn f(t: MyInstant::now_ish) {}", Rule::MetricsDiscipline),
            0
        );
        assert_eq!(
            count(
                "#[cfg(test)] mod t { fn f() { Instant::now(); } }",
                Rule::MetricsDiscipline
            ),
            0
        );
    }

    #[test]
    fn xobs_paths_classified() {
        let r = rules_for(Path::new("crates/xobs/src/lib.rs")).unwrap();
        assert!(r.no_panic && r.io && r.doc_pub && r.lock_free && r.metrics);
        // The clock shim implements the sanctioned call site.
        let r = rules_for(Path::new("crates/xobs/src/clock.rs")).unwrap();
        assert!(r.no_panic && !r.io && !r.metrics && !r.lock_free);
        let r = rules_for(Path::new("crates/engine/src/telemetry.rs")).unwrap();
        assert!(r.metrics && r.doc_pub);
        // The store keeps its timestamp escape hatch for R7 too.
        let r = rules_for(Path::new("crates/core/src/store.rs")).unwrap();
        assert!(!r.metrics && !r.io);
    }

    #[test]
    fn warm_files_get_lock_free_rule() {
        let r = rules_for(Path::new("crates/engine/src/snapshot.rs")).unwrap();
        assert!(r.lock_free);
        let r = rules_for(Path::new("crates/core/src/estimator.rs")).unwrap();
        assert!(r.lock_free);
        let r = rules_for(Path::new("crates/shims/arcswap/src/lib.rs")).unwrap();
        assert!(r.lock_free && r.safety && !r.no_panic);
        // The prepared cache's locks are cold-path: not a warm module.
        let r = rules_for(Path::new("crates/engine/src/prepared.rs")).unwrap();
        assert!(!r.lock_free);
    }
}
