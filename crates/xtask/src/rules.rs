//! The lint rules, re-based on the token stream of [`crate::lexer`].
//!
//! Every rule pattern-matches short token sequences instead of raw line
//! text, so keywords inside string literals and comments can neither
//! *trip* a rule (no more `"unsafe"`-in-a-string false positives) nor
//! *mask* one (a `SAFETY:` inside a string no longer satisfies rule 1).
//! The rule table itself is data ([`RULES`]): `xtask lint --list` renders
//! it and a test pins DESIGN.md §7 to the same table verbatim.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// One row of the rule table: stable id, rule name (the tag printed in
/// violations), where it applies, and the enforced invariant.
struct RuleInfo {
    /// Stable numeric id (rule N in DESIGN.md §7).
    id: u8,
    /// The short name violations are tagged with.
    name: &'static str,
    /// Where the rule applies.
    scope: &'static str,
    /// One-line statement of the invariant.
    summary: &'static str,
}

/// The full rule table — the single source of truth for `lint --list`,
/// DESIGN.md §7 (pinned by a test) and the scanner below.
const RULES: [RuleInfo; 10] = [
    RuleInfo {
        id: 1,
        name: "safety-comment",
        scope: "all code, tests included",
        summary: "every `unsafe` carries a `// SAFETY:` comment (or `# Safety` doc) within 12 preceding lines",
    },
    RuleInfo {
        id: 2,
        name: "seeded-rng",
        scope: "non-test code, all crates",
        summary: "`thread_rng`/`from_entropy` banned; RNG must be seeded explicitly (DESIGN.md §5)",
    },
    RuleInfo {
        id: 3,
        name: "missing-docs",
        scope: "every crate root",
        summary: "crate root declares `#![warn(missing_docs)]`",
    },
    RuleInfo {
        id: 4,
        name: "no-unwrap",
        scope: "crates/core, crates/ann, crates/serve, crates/scenario + fault-path files, non-test",
        summary: "`.unwrap()`/`.expect()` banned on the serving and fault-tolerance paths; propagate typed errors",
    },
    RuleInfo {
        id: 5,
        name: "no-instant",
        scope: "non-test code outside crates/obs and compat/",
        summary: "`Instant::now()` banned; timing flows through `sisg_obs::Stopwatch`/`span`",
    },
    RuleInfo {
        id: 7,
        name: "no-assert",
        scope: "crates/core, crates/serve, crates/scenario, non-test",
        summary: "`assert!`/`assert_eq!`/`assert_ne!` banned in serving code (`debug_assert!` allowed); return typed errors",
    },
    RuleInfo {
        id: 8,
        name: "ordering-justified",
        scope: "all code incl. tests, compat/ exempt",
        summary: "every atomic `Ordering::*` use carries a `// ORDERING:` justification within 16 preceding lines; `SeqCst` must additionally say why weaker orderings fail",
    },
    RuleInfo {
        id: 9,
        name: "guard-across-channel",
        scope: "crates/serve, crates/distributed, non-test",
        summary: "no lock guard live across channel `send`/`recv`/`try_send` or `thread::spawn`/`join` (the bounded-queue deadlock shape)",
    },
    RuleInfo {
        id: 10,
        name: "no-sleep",
        scope: "non-test library code, compat/ exempt",
        summary: "`thread::sleep` and `yield_now` banned; block on channels/condvars or the simtest virtual clock",
    },
    RuleInfo {
        id: 11,
        name: "pub-reached",
        scope: "non-test code of crates/*/src",
        summary: "every `pub` item is named by another `.rs` file or by the signature of a reached `pub` item in its own file, else it carries a reasoned `REACH_ALLOWLIST` entry; a stale entry is an error too",
    },
];

/// Renders [`RULES`] as the markdown table embedded verbatim in
/// DESIGN.md §7 (a test enforces the embedding, so docs cannot drift).
pub fn render_rule_table() -> String {
    let mut out =
        String::from("| # | rule | scope | invariant |\n|---|------|-------|-----------|\n");
    for r in &RULES {
        out.push_str(&format!(
            "| {} | `{}` | {} | {} |\n",
            r.id, r.name, r.scope, r.summary
        ));
    }
    out
}

/// One rule violation, formatted `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Rule name (see [`RULES`]).
    pub rule: &'static str,
    /// Human-oriented explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Crates whose non-test library code must be `unwrap()`/`expect()`-free.
const PANIC_FREE_CRATES: &[&str] = &[
    "crates/core",
    "crates/ann",
    "crates/serve",
    "crates/scenario",
];

/// Crates whose non-test library code must also be `assert!`-free
/// (rule 7): these are the online serving crates, where a failed
/// invariant must surface as a typed error on one request, not abort the
/// process for every request. `debug_assert!` stays allowed — it
/// vanishes in release builds.
const ASSERT_FREE_CRATES: &[&str] = &["crates/core", "crates/serve", "crates/scenario"];

/// Individual files under the same panic-free rule: every file holding
/// code the Section III machines run under both drivers (the exchange,
/// its retry and recovery paths, the TNS scan and step, the averaging of
/// `Q`) and the fault simulator — a panic while absorbing a fault turns a
/// recoverable event into a crash, so these propagate errors instead —
/// plus the streaming ingest pipeline, which feeds live serve engines
/// and must poison itself with a typed error rather than take down the
/// ingest thread.
const PANIC_FREE_FILES: &[&str] = &[
    "crates/distributed/src/protocol.rs",
    "crates/distributed/src/tns.rs",
    "crates/distributed/src/hotset.rs",
    "crates/distributed/src/report.rs",
    "crates/distributed/src/fault.rs",
    "crates/distributed/src/recovery.rs",
    "crates/simtest/src/lib.rs",
    "crates/stream/src/pipeline.rs",
];

/// Crates whose non-test code is checked for lock guards held across
/// channel/thread operations (rule 9): the two crates whose bounded
/// queues make the lock-then-blocking-send deadlock shape reachable.
const GUARD_CHANNEL_CRATES: &[&str] = &["crates/serve", "crates/distributed"];

/// Crates allowed to call `Instant::now()` directly: the observability
/// layer itself (it implements `Stopwatch`) and the offline dependency
/// stubs (they mirror upstream APIs verbatim).
fn instant_exempt(rel_crate: &str) -> bool {
    rel_crate == "crates/obs" || rel_crate.starts_with("compat/")
}

/// Which rules apply to one file; computed per crate/file by
/// [`run_lint`], injected directly by the rule self-tests.
#[derive(Debug, Clone, Copy, Default)]
struct ScanScope {
    /// The whole file is test code (`tests/`, `benches/`).
    all_test: bool,
    /// Rule 4 applies.
    panic_free: bool,
    /// Rule 7 applies.
    assert_free: bool,
    /// Rule 5 applies.
    obs_timing: bool,
    /// Rule 8 applies.
    ordering: bool,
    /// Rule 9 applies.
    guard_channel: bool,
    /// Rule 10 applies.
    no_sleep: bool,
}

/// Runs every rule over the workspace tree rooted at `root`.
pub fn run_lint(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    // Every lexed `.rs` file, for rule 11's workspace-wide name index.
    let mut lexed: Vec<(String, Vec<Token>)> = Vec::new();
    let mut crate_dirs = Vec::new();
    for holder in ["crates", "compat"] {
        crate_dirs.extend(list_crate_dirs(&root.join(holder))?);
    }
    for crate_dir in crate_dirs {
        let rel_crate = crate_dir
            .strip_prefix(root)
            .unwrap_or(&crate_dir)
            .to_string_lossy()
            .replace('\\', "/");
        let compat = rel_crate.starts_with("compat/");
        let panic_free = PANIC_FREE_CRATES.contains(&rel_crate.as_str());
        let assert_free = ASSERT_FREE_CRATES.contains(&rel_crate.as_str());
        let obs_timing = !instant_exempt(&rel_crate);
        let guard_channel = GUARD_CHANNEL_CRATES.contains(&rel_crate.as_str());

        let mut saw_root = false;
        for file in rust_files(&crate_dir)? {
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let content = std::fs::read_to_string(&file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            let tokens = lex(&content);
            let is_crate_root = file.ends_with("src/lib.rs") || file.ends_with("src/main.rs");
            if is_crate_root {
                saw_root = true;
                violations.extend(check_missing_docs_attr(&rel, &tokens));
            }
            // Integration tests and benches are test code end to end.
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let all_test = rel_str.contains("/tests/") || rel_str.contains("/benches/");
            let scope = ScanScope {
                all_test,
                panic_free: panic_free || PANIC_FREE_FILES.contains(&rel_str.as_str()),
                assert_free,
                obs_timing,
                ordering: !compat,
                guard_channel,
                no_sleep: !compat,
            };
            violations.extend(scan_tokens(&rel, &tokens, scope));
            lexed.push((rel_str, tokens));
        }
        if !saw_root {
            violations.push(Violation {
                path: PathBuf::from(&rel_crate),
                line: 1,
                rule: "missing-docs",
                message: "crate has no src/lib.rs or src/main.rs".into(),
            });
        }
    }
    for dir in REACH_EXTRA_ROOTS {
        if root.join(dir).is_dir() {
            for file in rust_files(&root.join(dir))? {
                let rel = file.strip_prefix(root).unwrap_or(&file);
                let content = std::fs::read_to_string(&file)
                    .map_err(|e| format!("read {}: {e}", file.display()))?;
                lexed.push((rel.to_string_lossy().replace('\\', "/"), lex(&content)));
            }
        }
    }
    violations.extend(check_reachability(&lexed, REACH_ALLOWLIST));
    Ok(violations)
}

/// Workspace member directories under `crates/` (one level, plus
/// `crates/compat/*`).
fn list_crate_dirs(crates_dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(crates_dir)
        .map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if !path.is_dir() {
            continue;
        }
        if path.join("Cargo.toml").is_file() {
            out.push(path);
        } else {
            // A holder of nested members (crates/compat/*).
            let nested = std::fs::read_dir(&path)
                .map_err(|e| format!("read_dir {}: {e}", path.display()))?;
            for sub in nested {
                let sub = sub.map_err(|e| e.to_string())?.path();
                if sub.is_dir() && sub.join("Cargo.toml").is_file() {
                    out.push(sub);
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// All `.rs` files in a crate directory, recursively, skipping `target/`.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let entries = std::fs::read_dir(&current)
            .map_err(|e| format!("read_dir {}: {e}", current.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Rule 3: the crate root must opt into missing-docs warnings. Token
/// match for `#![warn(missing_docs)]` / `#![deny(missing_docs)]`, so a
/// string literal mentioning the attribute no longer satisfies the rule.
fn check_missing_docs_attr(rel: &Path, tokens: &[Token]) -> Option<Violation> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !is_comment(t)).collect();
    for i in 0..code.len() {
        if punct(&code, i, "#")
            && punct(&code, i + 1, "!")
            && punct(&code, i + 2, "[")
            && (ident_is(&code, i + 3, "warn") || ident_is(&code, i + 3, "deny"))
            && punct(&code, i + 4, "(")
            && ident_is(&code, i + 5, "missing_docs")
        {
            return None;
        }
    }
    Some(Violation {
        path: rel.to_path_buf(),
        line: 1,
        rule: "missing-docs",
        message: "crate root lacks #![warn(missing_docs)]".into(),
    })
}

/// How many lines above an `unsafe` occurrence we look for a SAFETY note.
const SAFETY_LOOKBACK: usize = 12;

/// How many lines above an `Ordering::*` use we look for an ORDERING
/// note. Slightly deeper than [`SAFETY_LOOKBACK`]: one justification is
/// allowed to cover a whole unrolled kernel body.
const ORDERING_LOOKBACK: usize = 16;

/// The five atomic memory-ordering levels rule 8 watches.
const ATOMIC_ORDERINGS: &[&str] = &["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];

/// Channel/thread operations a lock guard must not be live across
/// (rule 9). Matched as `.op(` or `::op(`.
const CHANNEL_OPS: &[&str] = &[
    "send",
    "try_send",
    "send_timeout",
    "recv",
    "try_recv",
    "recv_timeout",
    "spawn",
    "join",
];

fn is_comment(t: &Token) -> bool {
    matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
}

fn ident_is(code: &[&Token], i: usize, name: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
}

fn ident_in(code: &[&Token], i: usize, names: &[&str]) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && names.contains(&t.text.as_str()))
}

fn punct(code: &[&Token], i: usize, ch: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == ch)
}

/// A tracked lock guard binding (rule 9).
#[derive(Debug)]
struct Guard {
    names: Vec<String>,
    line: usize,
    depth: i64,
    kind: &'static str,
}

/// Tracks whether the scanner is inside a `#[cfg(test)]`-gated item:
/// after the attribute, the next `{` opens the region and it ends when
/// the brace depth returns to the opening level.
#[derive(Debug, Default)]
struct TestRegionTracker {
    pending_attr: bool,
    region_close_depth: Option<i64>,
}

impl TestRegionTracker {
    fn in_test(&self) -> bool {
        self.region_close_depth.is_some() || self.pending_attr
    }

    /// Steps over `code[i]`: tracks the brace `depth` and opens or
    /// closes a `#[cfg(test)]` region.
    fn advance(&mut self, code: &[&Token], i: usize, depth: &mut i64) {
        if code[i].kind != TokenKind::Punct {
            return;
        }
        match code[i].text.as_str() {
            "#" if punct(code, i + 1, "[")
                && ident_is(code, i + 2, "cfg")
                && punct(code, i + 3, "(")
                && ident_is(code, i + 4, "test")
                && punct(code, i + 5, ")")
                && punct(code, i + 6, "]")
                && self.region_close_depth.is_none() =>
            {
                self.pending_attr = true;
            }
            "{" => {
                if self.pending_attr {
                    self.pending_attr = false;
                    self.region_close_depth = Some(*depth);
                }
                *depth += 1;
            }
            "}" => {
                *depth -= 1;
                if self.region_close_depth == Some(*depth) {
                    self.region_close_depth = None;
                }
            }
            _ => {}
        }
    }
}

/// Rules 1, 2, 4, 5, 6, 7, 8, 9 and 10 over one file's source text
/// (the self-test entry point; [`run_lint`] lexes once per file).
#[cfg(test)]
fn scan_file(rel: &Path, content: &str, scope: ScanScope) -> Vec<Violation> {
    scan_tokens(rel, &lex(content), scope)
}

fn scan_tokens(rel: &Path, tokens: &[Token], scope: ScanScope) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Comments feed the SAFETY/ORDERING justification lookups; everything
    // else is the code stream the rules pattern-match.
    let comments: Vec<&Token> = tokens.iter().filter(|t| is_comment(t)).collect();
    let code: Vec<&Token> = tokens.iter().filter(|t| !is_comment(t)).collect();

    // True when a comment overlapping lines [lo, hi] contains `needle`.
    let comment_in = |lo: usize, hi: usize, needle: &str| -> bool {
        comments
            .iter()
            .any(|c| c.line <= hi && c.end_line() >= lo && c.text.contains(needle))
    };

    let mut depth: i64 = 0;
    let mut regions = TestRegionTracker::default();
    let mut guards: Vec<Guard> = Vec::new();

    for i in 0..code.len() {
        let tok = code[i];
        let line = tok.line;

        // ---- structure tracking -------------------------------------
        regions.advance(&code, i, &mut depth);
        if punct(&code, i, "}") {
            guards.retain(|g| g.depth <= depth);
        }
        let in_test = scope.all_test || regions.in_test();

        // ---- rule 1: `unsafe` requires a nearby justification. Applies
        // in test code too — tests exercising unsafe APIs document why
        // they are sound just like production call sites. Only *comment*
        // tokens can satisfy the rule: a `SAFETY:` inside a string
        // literal neither trips nor masks it.
        if tok.kind == TokenKind::Ident && tok.text == "unsafe" {
            let lo = line.saturating_sub(SAFETY_LOOKBACK);
            if !comment_in(lo, line, "SAFETY:") && !comment_in(lo, line, "# Safety") {
                violations.push(Violation {
                    path: rel.to_path_buf(),
                    line,
                    rule: "safety-comment",
                    message: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc) on this or a preceding line".into(),
                });
            }
        }

        // ---- rule 8: atomic orderings carry an ORDERING justification.
        // Applies in tests too: a test that hand-rolls an atomic protocol
        // documents its ordering choices like production code does.
        if scope.ordering
            && tok.kind == TokenKind::Ident
            && tok.text == "Ordering"
            && punct(&code, i + 1, ":")
            && punct(&code, i + 2, ":")
            && ident_in(&code, i + 3, ATOMIC_ORDERINGS)
        {
            let level = code[i + 3].text.as_str();
            let lo = line.saturating_sub(ORDERING_LOOKBACK);
            if !comment_in(lo, line, "ORDERING:") {
                violations.push(Violation {
                    path: rel.to_path_buf(),
                    line,
                    rule: "ordering-justified",
                    message: format!(
                        "`Ordering::{level}` without a nearby `// ORDERING:` justification (within {ORDERING_LOOKBACK} preceding lines)"
                    ),
                });
            } else if level == "SeqCst" {
                // SeqCst is the expensive, usually-overkill default;
                // its justification must name it and argue why weaker
                // orderings fail (the word `weaker` is the contract).
                let justified = comments.iter().any(|c| {
                    c.line <= line
                        && c.end_line() >= lo
                        && c.text.contains("ORDERING:")
                        && c.text.contains("SeqCst")
                        && c.text.contains("weaker")
                });
                if !justified {
                    violations.push(Violation {
                        path: rel.to_path_buf(),
                        line,
                        rule: "ordering-justified",
                        message: "`Ordering::SeqCst` needs an `// ORDERING:` justification naming SeqCst and saying why weaker orderings fail (mention `weaker`)".into(),
                    });
                }
            }
        }

        if in_test {
            continue;
        }

        // ---- rule 2: determinism — no ambient-entropy RNG constructors.
        if tok.kind == TokenKind::Ident && (tok.text == "thread_rng" || tok.text == "from_entropy")
        {
            violations.push(Violation {
                path: rel.to_path_buf(),
                line,
                rule: "seeded-rng",
                message: format!(
                    "`{}` is banned outside tests; seed explicitly (DESIGN.md §5)",
                    tok.text
                ),
            });
        }

        // ---- rule 4: panic-free serving path (`.unwrap()`/`.expect(`).
        if scope.panic_free
            && punct(&code, i, ".")
            && (ident_is(&code, i + 1, "unwrap") || ident_is(&code, i + 1, "expect"))
            && punct(&code, i + 2, "(")
        {
            violations.push(Violation {
                path: rel.to_path_buf(),
                line: code[i + 1].line,
                rule: "no-unwrap",
                message: "`.unwrap()`/`.expect()` banned in panic-free library code (serving and fault-tolerance paths); propagate the error".into(),
            });
        }

        // ---- rule 7: assert-free serving crates — a request-path
        // invariant failure must be a typed error, not an abort.
        if scope.assert_free
            && tok.kind == TokenKind::Ident
            && ["assert", "assert_eq", "assert_ne"].contains(&tok.text.as_str())
            && punct(&code, i + 1, "!")
        {
            violations.push(Violation {
                path: rel.to_path_buf(),
                line,
                rule: "no-assert",
                message: format!(
                    "`{}!` banned in assert-free serving code; return a typed error (`debug_assert!` is allowed)",
                    tok.text
                ),
            });
        }

        // ---- rule 5: timing goes through sisg-obs so it is observable.
        if scope.obs_timing
            && ident_is(&code, i, "Instant")
            && punct(&code, i + 1, ":")
            && punct(&code, i + 2, ":")
            && ident_is(&code, i + 3, "now")
        {
            violations.push(Violation {
                path: rel.to_path_buf(),
                line,
                rule: "no-instant",
                message: "`Instant::now()` banned outside crates/obs; use sisg_obs::Stopwatch or span (docs/OBSERVABILITY.md)".into(),
            });
        }

        // ---- rule 10: no real-time waits in library code — timing must
        // stay visible to the virtual clock (simtest) and the obs layer.
        if scope.no_sleep
            && tok.kind == TokenKind::Ident
            && (tok.text == "sleep" || tok.text == "yield_now")
            && punct(&code, i + 1, "(")
        {
            violations.push(Violation {
                path: rel.to_path_buf(),
                line,
                rule: "no-sleep",
                message: format!(
                    "`{}` banned in non-test library code; block on a channel/condvar or use the simtest virtual clock",
                    tok.text
                ),
            });
        }

        // ---- rule 9: lock guards must not be live across channel or
        // thread operations (lexical scope analysis).
        if scope.guard_channel {
            // New guard binding: `let <pat> = ….lock()/.read()/.write()…;`
            if tok.kind == TokenKind::Ident && tok.text == "let" {
                if let Some(guard) = detect_guard_binding(&code, i, depth) {
                    guards.push(guard);
                }
            }
            // `drop(name)` releases the named guard early.
            if ident_is(&code, i, "drop") && punct(&code, i + 1, "(") && punct(&code, i + 3, ")") {
                if let Some(t) = code.get(i + 2) {
                    if t.kind == TokenKind::Ident {
                        guards.retain(|g| !g.names.contains(&t.text));
                    }
                }
            }
            // A channel/thread op while any guard is live.
            if !guards.is_empty()
                && (punct(&code, i, ".") || punct(&code, i, ":"))
                && ident_in(&code, i + 1, CHANNEL_OPS)
                && punct(&code, i + 2, "(")
            {
                let g = &guards[guards.len() - 1];
                violations.push(Violation {
                    path: rel.to_path_buf(),
                    line: code[i + 1].line,
                    rule: "guard-across-channel",
                    message: format!(
                        "`.{}(` with `{}` guard `{}` (bound line {}) still live; a blocked channel/thread op while holding a lock is the bounded-queue deadlock shape — drop the guard first",
                        code[i + 1].text,
                        g.kind,
                        g.names.join("/"),
                        g.line
                    ),
                });
            }
        }
    }
    violations
}

/// Inspects the `let` statement starting at `code[i]` and returns a
/// [`Guard`] when its initializer takes a lock. The pattern's idents
/// (minus `mut`/`_`) become the guard names for `drop(name)` matching;
/// the initializer scan stops at the terminating `;` or at a `{` (a
/// `while let`/`if let` body or struct literal — out of statement scope).
fn detect_guard_binding(code: &[&Token], i: usize, depth: i64) -> Option<Guard> {
    let mut names = Vec::new();
    let mut j = i + 1;
    // Pattern side: idents up to `=` (bounded so a malformed file cannot
    // send the scan far afield).
    while j < code.len() && j < i + 24 {
        let t = code[j];
        match t.kind {
            TokenKind::Punct if t.text == "=" => break,
            TokenKind::Punct if t.text == ";" || t.text == "{" => return None,
            TokenKind::Ident if t.text != "mut" && t.text != "_" => names.push(t.text.clone()),
            _ => {}
        }
        j += 1;
    }
    if names.is_empty() {
        return None;
    }
    // `let v = *l.read()…` copies the value out; the temporary guard
    // dies at the end of the statement, so nothing stays live.
    if code
        .get(j + 1)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "*")
    {
        return None;
    }
    // Initializer side: look for `.lock(` / `.read(` / `.write(`.
    let mut kind: Option<&'static str> = None;
    while j < code.len() {
        let t = code[j];
        if t.kind == TokenKind::Punct && (t.text == ";" || t.text == "{") {
            break;
        }
        if punct(code, j, ".") {
            // Empty parens required: `reader.read(&mut buf)` is io, not a
            // lock acquisition.
            for candidate in ["lock", "read", "write"] {
                if ident_is(code, j + 1, candidate)
                    && punct(code, j + 2, "(")
                    && punct(code, j + 3, ")")
                {
                    kind = Some(match candidate {
                        "lock" => ".lock()",
                        "read" => ".read()",
                        _ => ".write()",
                    });
                }
            }
        }
        j += 1;
    }
    kind.map(|kind| Guard {
        names,
        line: code[i].line,
        depth,
        kind,
    })
}

/// Top-level directories outside `crates/` and `compat/` whose `.rs`
/// files can reach a `pub` item for rule 11: the frozen benchmark, the
/// root facade, its integration tests and the examples.
const REACH_EXTRA_ROOTS: &[&str] = &["benchmark", "src", "tests", "examples"];

/// Rule 11's exceptions: `(file, item, reason)` for a `pub` item that no
/// other file names and no reached signature in its file mentions, kept
/// on purpose. An entry whose item is gone or is now reached is itself a
/// violation, so the list cannot rot.
const REACH_ALLOWLIST: &[(&str, &str, &str)] = &[(
    "crates/distributed/src/pipeline.rs",
    "resume",
    "coordinator-crash recovery (DESIGN.md §9): only its own test calls it, and recovery code stays",
)];

/// Item keywords whose next ident is a definition, not a use.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// One non-test `pub` item (rule 11).
struct PubItem {
    kind: String,
    name: String,
    line: usize,
    /// Idents of its signature: a fn's header, a type's fields or
    /// variants, a const's type.
    signature: HashSet<String>,
}

/// True for the files whose `pub` surface rule 11 checks:
/// `crates/<crate>/src/…`.
fn defines_surface(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

/// The idents a file *uses*: every ident except the names its own item
/// definitions introduce and the paths of its `use` declarations (an
/// import or re-export reaches nothing by itself).
fn used_names<'a>(code: &[&'a Token]) -> HashSet<&'a str> {
    let mut names = HashSet::new();
    let mut i = 0;
    while i < code.len() {
        if ident_is(code, i, "use") {
            while i < code.len() && !punct(code, i, ";") {
                i += 1;
            }
        } else if code[i].kind == TokenKind::Ident
            && !(i > 0 && ident_in(code, i - 1, ITEM_KEYWORDS))
        {
            names.insert(code[i].text.as_str());
        }
        i += 1;
    }
    names
}

/// The non-test `pub` items of one file: `pub` (not `pub(crate)`) plus
/// optional `const`/`unsafe`/`async`/`extern "C"` qualifiers, then an
/// item keyword other than `mod`.
fn pub_items(code: &[&Token]) -> Vec<PubItem> {
    let mut items = Vec::new();
    let mut depth = 0;
    let mut regions = TestRegionTracker::default();
    for i in 0..code.len() {
        regions.advance(code, i, &mut depth);
        if regions.in_test() || !ident_is(code, i, "pub") || punct(code, i + 1, "(") {
            continue;
        }
        let mut j = i + 1;
        loop {
            if ident_in(code, j, &["unsafe", "async"])
                || (ident_is(code, j, "const") && ident_in(code, j + 1, &["fn", "unsafe", "async"]))
            {
                j += 1;
            } else if ident_is(code, j, "extern") {
                j += 1;
                if code.get(j).is_some_and(|t| t.kind == TokenKind::Str) {
                    j += 1;
                }
            } else {
                break;
            }
        }
        if !ident_in(code, j, ITEM_KEYWORDS) || ident_is(code, j, "mod") {
            continue;
        }
        let Some(name) = code.get(j + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        let kind = code[j].text.as_str();
        let end = signature_end(code, j + 2, kind);
        items.push(PubItem {
            kind: kind.to_string(),
            name: name.text.clone(),
            line: name.line,
            signature: signature_names(code, j + 2, end, kind),
        });
    }
    items
}

/// One past the last token of an item's signature, scanning from
/// `start`: a fn, type alias, const or static stops at its body, `=` or
/// `;`; a struct, enum, union or trait runs through its braced body.
fn signature_end(code: &[&Token], start: usize, kind: &str) -> usize {
    let body_is_signature = matches!(kind, "struct" | "enum" | "union" | "trait");
    let mut nest = 0i64;
    for (j, t) in code.iter().enumerate().skip(start) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" if nest == 0 && !body_is_signature => return j,
            "(" | "[" | "{" => nest += 1,
            ")" | "]" => nest -= 1,
            "}" => {
                nest -= 1;
                if nest == 0 {
                    return j + 1;
                }
            }
            ";" if nest == 0 => return j,
            "=" if nest == 0 && matches!(kind, "const" | "static") => return j,
            _ => {}
        }
    }
    code.len()
}

/// The idents of the signature `code[start..end]` that name other items:
/// binding names (`name: Type` parameters and fields) are dropped, and so
/// are the types of a struct's non-`pub` fields.
fn signature_names(code: &[&Token], start: usize, end: usize, kind: &str) -> HashSet<String> {
    let has_fields = matches!(kind, "struct" | "union");
    let mut names = HashSet::new();
    let mut braces = 0;
    let mut public_field = true;
    for k in start..end {
        if punct(code, k, "{") {
            braces += 1;
        } else if punct(code, k, "}") {
            braces -= 1;
        }
        if code[k].kind != TokenKind::Ident {
            continue;
        }
        if punct(code, k + 1, ":") && !punct(code, k + 2, ":") {
            if has_fields && braces == 1 {
                public_field = ident_is(code, k.saturating_sub(1), "pub");
            }
            continue;
        }
        if !has_fields || braces == 0 || public_field {
            names.insert(code[k].text.clone());
        }
    }
    names
}

/// Marks the items a reached item's signature names as reached, until
/// nothing changes.
fn close_over_signatures(items: &[PubItem], reached: &mut [bool]) {
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..items.len() {
            if !reached[i] {
                continue;
            }
            for k in 0..items.len() {
                if !reached[k] && items[i].signature.contains(&items[k].name) {
                    reached[k] = true;
                    changed = true;
                }
            }
        }
    }
}

/// Rule 11 over every lexed file (`(workspace-relative path, tokens)`):
/// each `pub` item of `crates/*/src` must be named by another file, by a
/// reached signature in its own file, or by an `allow` entry — and every
/// entry must name a present, otherwise unreached item.
fn check_reachability(
    files: &[(String, Vec<Token>)],
    allow: &[(&str, &str, &str)],
) -> Vec<Violation> {
    let code: Vec<Vec<&Token>> = files
        .iter()
        .map(|(_, tokens)| tokens.iter().filter(|t| !is_comment(t)).collect())
        .collect();
    let used: Vec<HashSet<&str>> = code.iter().map(|c| used_names(c)).collect();
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for names in &used {
        for name in names {
            *files_naming.entry(name).or_default() += 1;
        }
    }
    let mut violations = Vec::new();
    let mut entry_seen = vec![false; allow.len()];
    for (f, (path, _)) in files.iter().enumerate() {
        if !defines_surface(path) {
            continue;
        }
        let items = pub_items(&code[f]);
        let mut reached: Vec<bool> = items
            .iter()
            .map(|it| {
                let own = usize::from(used[f].contains(it.name.as_str()));
                files_naming.get(it.name.as_str()).copied().unwrap_or(0) > own
            })
            .collect();
        close_over_signatures(&items, &mut reached);
        let mut kept = reached.clone();
        for (e, (entry_path, entry_item, _)) in allow.iter().enumerate() {
            if entry_path != path {
                continue;
            }
            let matching: Vec<usize> = (0..items.len())
                .filter(|&i| items[i].name == *entry_item)
                .collect();
            entry_seen[e] = !matching.is_empty();
            if matching.iter().any(|&i| reached[i]) {
                violations.push(Violation {
                    path: PathBuf::from(path),
                    line: items[matching[0]].line,
                    rule: "pub-reached",
                    message: format!(
                        "REACH_ALLOWLIST entry `{entry_item}` is stale: the item is reached now; drop the entry"
                    ),
                });
            }
            for i in matching {
                kept[i] = true;
            }
        }
        close_over_signatures(&items, &mut kept);
        for (item, _) in items.iter().zip(&kept).filter(|(_, &k)| !k) {
            violations.push(Violation {
                path: PathBuf::from(path),
                line: item.line,
                rule: "pub-reached",
                message: format!(
                    "`pub {} {}` is named by no other `.rs` file and by no reached signature in this file; delete it, narrow it, or add a reasoned REACH_ALLOWLIST entry",
                    item.kind, item.name
                ),
            });
        }
    }
    for ((entry_path, entry_item, _), seen) in allow.iter().zip(entry_seen) {
        if !seen {
            violations.push(Violation {
                path: PathBuf::from(entry_path),
                line: 1,
                rule: "pub-reached",
                message: format!(
                    "REACH_ALLOWLIST entry `{entry_item}` is stale: no non-test `pub` item of that name is left here; drop the entry"
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(content: &str, panic_free: bool) -> Vec<Violation> {
        scan_file(
            Path::new("x.rs"),
            content,
            ScanScope {
                panic_free,
                obs_timing: true,
                ..ScanScope::default()
            },
        )
    }

    fn scan_assert_free(content: &str) -> Vec<Violation> {
        scan_file(
            Path::new("x.rs"),
            content,
            ScanScope {
                panic_free: true,
                assert_free: true,
                obs_timing: true,
                ..ScanScope::default()
            },
        )
    }

    fn scan_ordering(content: &str) -> Vec<Violation> {
        scan_file(
            Path::new("x.rs"),
            content,
            ScanScope {
                ordering: true,
                ..ScanScope::default()
            },
        )
    }

    fn scan_guard(content: &str) -> Vec<Violation> {
        scan_file(
            Path::new("x.rs"),
            content,
            ScanScope {
                guard_channel: true,
                ..ScanScope::default()
            },
        )
    }

    fn scan_no_sleep(content: &str) -> Vec<Violation> {
        scan_file(
            Path::new("x.rs"),
            content,
            ScanScope {
                no_sleep: true,
                ..ScanScope::default()
            },
        )
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let bad = "fn f(p: *mut f32) {\n    unsafe { *p = 1.0; }\n}\n";
        let v = scan(bad, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let good =
            "fn f(p: *mut f32) {\n    // SAFETY: p is valid and exclusive here.\n    unsafe { *p = 1.0; }\n}\n";
        assert!(scan(good, false).is_empty());
    }

    #[test]
    fn unsafe_fn_with_safety_doc_section_passes() {
        let good = "/// Does things.\n///\n/// # Safety\n/// Caller must uphold X.\npub unsafe fn f() {}\n";
        assert!(scan(good, false).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let ok = "// this mentions unsafe in prose\nlet s = \"unsafe\";\n";
        assert!(scan(ok, false).is_empty());
    }

    #[test]
    fn safety_inside_a_string_does_not_mask_rule_1() {
        // The line scanner's masking false negative: a `SAFETY:` inside a
        // string literal used to satisfy the lookback. Token-aware
        // lookback only accepts comments.
        let bad = "fn f(p: *mut f32) {\n    let s = \"SAFETY: not a comment\";\n    unsafe { *p = 1.0; }\n}\n";
        let v = scan(bad, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
    }

    #[test]
    fn multiline_string_contents_do_not_trip_rules() {
        // The line scanner reset its string state per line, so the second
        // line of a multi-line literal was scanned as code.
        let ok = "fn f() -> &'static str {\n    \"first line\n     unsafe thread_rng Instant::now() .unwrap()\"\n}\n";
        assert!(scan(ok, true).is_empty());
    }

    #[test]
    fn raw_string_contents_do_not_trip_rules() {
        let ok = "fn f() -> &'static str {\n    r#\"unsafe { thread_rng().unwrap() } \"quoted\" \"#\n}\n";
        assert!(scan(ok, true).is_empty());
    }

    #[test]
    fn unwrap_in_comment_does_not_trip_rule_4() {
        let ok = "fn f() {\n    // never call .unwrap() here\n    /* nor .expect(\"x\") */\n}\n";
        assert!(scan(ok, true).is_empty());
    }

    #[test]
    fn thread_rng_outside_tests_is_flagged() {
        let bad = "fn f() { let mut r = rand::thread_rng(); }\n";
        let v = scan(bad, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "seeded-rng");
    }

    #[test]
    fn from_entropy_outside_tests_is_flagged() {
        let bad = "fn f() { let r = StdRng::from_entropy(); }\n";
        let v = scan(bad, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "seeded-rng");
    }

    #[test]
    fn thread_rng_inside_cfg_test_module_passes() {
        let ok = "#[cfg(test)]\nmod tests {\n    fn f() { let r = rand::thread_rng(); }\n}\n";
        assert!(scan(ok, false).is_empty());
    }

    #[test]
    fn unwrap_in_panic_free_crate_is_flagged() {
        let bad = "fn f() { let x: Option<u32> = None; x.unwrap(); }\n";
        let v = scan(bad, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap");
    }

    #[test]
    fn expect_in_panic_free_crate_is_flagged() {
        let bad = "fn f() { let x: Option<u32> = None; x.expect(\"boom\"); }\n";
        let v = scan(bad, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap");
    }

    #[test]
    fn unwrap_in_test_module_of_panic_free_crate_passes() {
        let ok = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(scan(ok, true).is_empty());
    }

    #[test]
    fn unwrap_outside_panic_free_crates_passes() {
        let ok = "fn f() { Some(1).unwrap(); }\n";
        assert!(scan(ok, false).is_empty());
    }

    #[test]
    fn asserts_in_assert_free_crate_are_flagged() {
        for bad in [
            "fn f(x: usize) { assert!(x > 0); }\n",
            "fn f(x: usize) { assert_eq!(x, 1); }\n",
            "fn f(x: usize) { assert_ne!(x, 0); }\n",
        ] {
            let v = scan_assert_free(bad);
            assert_eq!(v.len(), 1, "missed: {bad}");
            assert_eq!(v[0].rule, "no-assert");
        }
    }

    #[test]
    fn debug_assert_and_test_asserts_pass_the_assert_rule() {
        // debug_assert! compiles out of release builds — allowed.
        let ok = "fn f(x: usize) { debug_assert!(x > 0); }\n";
        assert!(scan_assert_free(ok).is_empty());
        // Test modules keep their asserts.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(1, 1); }\n}\n";
        assert!(scan_assert_free(test_src).is_empty());
        // Crates outside the assert-free set are untouched.
        let other = "fn f(x: usize) { assert!(x > 0); }\n";
        assert!(scan(other, false).is_empty());
    }

    #[test]
    fn missing_docs_attr_detected() {
        let check = |src: &str| check_missing_docs_attr(Path::new("x.rs"), &lex(src));
        assert!(check("//! Docs.\nfn f() {}\n").is_some());
        assert!(check("//! Docs.\n#![warn(missing_docs)]\nfn f() {}\n").is_none());
        assert!(check("//! Docs.\n#![deny(missing_docs)]\nfn f() {}\n").is_none());
        // A string mentioning the attribute no longer satisfies rule 3.
        assert!(check("fn f() { let s = \"#![warn(missing_docs)]\"; }\n").is_some());
    }

    #[test]
    fn test_region_tracker_handles_nesting() {
        let src = "mod a {\n#[cfg(test)]\nmod tests {\n fn f() { let x = { 1 }; }\n}\nfn g() { thread_rng(); }\n}\n";
        let v = scan(src, false);
        // Only the call *outside* the test module fires.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn integration_test_files_are_exempt_from_rng_rule() {
        let src = "fn f() { thread_rng(); }\n";
        let v = scan_file(
            Path::new("crates/x/tests/t.rs"),
            src,
            ScanScope {
                all_test: true,
                obs_timing: true,
                ..ScanScope::default()
            },
        );
        assert!(v.is_empty());
    }

    #[test]
    fn instant_now_outside_obs_is_flagged() {
        let bad = "fn f() { let t = std::time::Instant::now(); }\n";
        let v = scan(bad, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-instant");
    }

    #[test]
    fn instant_now_in_exempt_crate_or_test_passes() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(scan_file(Path::new("o.rs"), src, ScanScope::default()).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n fn f() { Instant::now(); }\n}\n";
        assert!(scan(test_src, false).is_empty());
        assert!(instant_exempt("crates/obs"));
        assert!(!instant_exempt("crates/sgns"));
    }

    // ---- rule 8: ordering-justified --------------------------------

    #[test]
    fn ordering_without_justification_is_flagged() {
        for level in ["Relaxed", "Acquire", "Release", "AcqRel"] {
            let bad = format!("fn f(a: &AtomicU64) {{ a.load(Ordering::{level}); }}\n");
            let v = scan_ordering(&bad);
            assert_eq!(v.len(), 1, "missed: {level}");
            assert_eq!(v[0].rule, "ordering-justified");
            assert!(v[0].message.contains(level));
        }
    }

    #[test]
    fn ordering_with_justification_passes() {
        let good = "fn f(a: &AtomicU64) {\n    // ORDERING: Relaxed — counter only, no data published through it.\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(scan_ordering(good).is_empty());
    }

    #[test]
    fn one_ordering_comment_covers_a_nearby_block() {
        // A single justification within ORDERING_LOOKBACK lines covers
        // several sites — the unrolled-kernel pattern.
        let good = "fn f(a: &AtomicU64) {\n    // ORDERING: Relaxed — both counters are independent stats.\n    a.fetch_add(1, Ordering::Relaxed);\n    a.fetch_add(2, Ordering::Relaxed);\n}\n";
        assert!(scan_ordering(good).is_empty());
    }

    #[test]
    fn ordering_comment_beyond_lookback_does_not_count() {
        let padding = "    let _x = 0;\n".repeat(ORDERING_LOOKBACK + 1);
        let bad = format!(
            "fn f(a: &AtomicU64) {{\n    // ORDERING: Relaxed — too far away.\n{padding}    a.load(Ordering::Relaxed);\n}}\n"
        );
        let v = scan_ordering(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ordering-justified");
    }

    #[test]
    fn seqcst_needs_a_weaker_orderings_argument() {
        // A generic ORDERING comment is not enough for SeqCst…
        let bad = "fn f(a: &AtomicU64) {\n    // ORDERING: strongest, to be safe.\n    a.load(Ordering::SeqCst);\n}\n";
        let v = scan_ordering(bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("weaker"));
        // …it must name SeqCst and argue why weaker orderings fail.
        let good = "fn f(a: &AtomicU64) {\n    // ORDERING: SeqCst — weaker orderings allow the store/load pair\n    // to reorder across the flag check (IRIW-style), breaking the barrier.\n    a.load(Ordering::SeqCst);\n}\n";
        assert!(scan_ordering(good).is_empty());
    }

    #[test]
    fn ordering_rule_applies_inside_test_modules_too() {
        let bad = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}\n";
        let v = scan_ordering(bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ordering-justified");
    }

    #[test]
    fn ordering_in_string_or_comment_does_not_trip_or_mask() {
        // In a string: no violation (and no masking of a later real one).
        let ok = "fn f() { let s = \"Ordering::SeqCst\"; }\n";
        assert!(scan_ordering(ok).is_empty());
        // An `ORDERING:` inside a string does not satisfy the rule.
        let bad = "fn f(a: &AtomicU64) {\n    let s = \"ORDERING: fake\";\n    a.load(Ordering::Relaxed);\n}\n";
        assert_eq!(scan_ordering(bad).len(), 1);
    }

    #[test]
    fn ordering_rule_off_in_compat_scope() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        assert!(scan_file(Path::new("x.rs"), src, ScanScope::default()).is_empty());
    }

    #[test]
    fn cmp_ordering_variants_do_not_trip_rule_8() {
        let ok = "fn f(a: u32, b: u32) -> Ordering {\n    if a < b { Ordering::Less } else { Ordering::Greater }\n}\n";
        assert!(scan_ordering(ok).is_empty());
    }

    // ---- rule 9: guard-across-channel ------------------------------

    #[test]
    fn guard_live_across_send_is_flagged() {
        let bad = "fn f(l: &Mutex<u32>, tx: &Sender<u32>) {\n    let g = l.lock().unwrap_or_else(|e| e.into_inner());\n    tx.send(*g);\n}\n";
        let v = scan_guard(bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "guard-across-channel");
        assert!(v[0].message.contains('g') && v[0].message.contains("send"));
    }

    #[test]
    fn guard_live_across_recv_spawn_join_is_flagged() {
        for op in [
            "rx.recv()",
            "rx.try_recv()",
            "thread::spawn(|| {})",
            "h.join()",
        ] {
            let bad = format!(
                "fn f(l: &RwLock<u32>) {{\n    let snap = l.read().ok();\n    let _ = {op};\n}}\n"
            );
            let v = scan_guard(&bad);
            assert_eq!(v.len(), 1, "missed: {op}");
            assert_eq!(v[0].rule, "guard-across-channel");
        }
    }

    #[test]
    fn dropped_guard_before_send_passes() {
        let good = "fn f(l: &Mutex<u32>, tx: &Sender<u32>) {\n    let g = l.lock().unwrap_or_else(|e| e.into_inner());\n    let v = *g;\n    drop(g);\n    tx.send(v);\n}\n";
        assert!(scan_guard(good).is_empty());
    }

    #[test]
    fn scoped_guard_released_before_send_passes() {
        let good = "fn f(l: &Mutex<u32>, tx: &Sender<u32>) {\n    let v = {\n        let g = l.lock().unwrap_or_else(|e| e.into_inner());\n        *g\n    };\n    tx.send(v);\n}\n";
        assert!(scan_guard(good).is_empty());
    }

    #[test]
    fn underscore_binding_is_not_a_live_guard() {
        // `let _ = l.lock()` drops the guard immediately.
        let good =
            "fn f(l: &Mutex<u32>, tx: &Sender<u32>) {\n    let _ = l.lock();\n    tx.send(1);\n}\n";
        assert!(scan_guard(good).is_empty());
    }

    #[test]
    fn tail_expression_locks_are_not_guards() {
        // Lock taken and released within one expression — no binding.
        let good = "fn f(l: &RwLock<u32>, tx: &Sender<u32>) {\n    let v = *l.read().unwrap_or_else(|e| e.into_inner());\n    tx.send(v);\n}\n";
        assert!(scan_guard(good).is_empty());
    }

    #[test]
    fn guard_rule_skips_tests_and_other_crates() {
        let src = "fn f(l: &Mutex<u32>, tx: &Sender<u32>) {\n    let g = l.lock().unwrap();\n    tx.send(*g);\n}\n";
        // Not in scope (other crates).
        assert!(scan(src, false).is_empty());
        // Test module inside an in-scope crate.
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(scan_guard(&test_src).is_empty());
    }

    // ---- rule 10: no-sleep -----------------------------------------

    #[test]
    fn sleep_and_yield_now_are_flagged() {
        for bad in [
            "fn f() { std::thread::sleep(Duration::from_millis(1)); }\n",
            "fn f() { thread::sleep(Duration::from_millis(1)); }\n",
            "fn f() { std::thread::yield_now(); }\n",
        ] {
            let v = scan_no_sleep(bad);
            assert_eq!(v.len(), 1, "missed: {bad}");
            assert_eq!(v[0].rule, "no-sleep");
        }
    }

    #[test]
    fn sleep_in_tests_or_out_of_scope_passes() {
        let src = "fn f() { thread::sleep(Duration::from_millis(1)); }\n";
        assert!(scan(src, false).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { thread::yield_now(); }\n}\n";
        assert!(scan_no_sleep(test_src).is_empty());
        // Mentions in comments/strings never fire.
        let ok = "// callers must not sleep() here\nfn f() { let s = \"yield_now()\"; }\n";
        assert!(scan_no_sleep(ok).is_empty());
    }

    // ---- rule 11: pub-reached --------------------------------------

    fn reach(files: &[(&str, &str)], allow: &[(&str, &str, &str)]) -> Vec<Violation> {
        let lexed: Vec<(String, Vec<Token>)> = files
            .iter()
            .map(|(path, src)| (path.to_string(), lex(src)))
            .collect();
        check_reachability(&lexed, allow)
    }

    #[test]
    fn seeded_unused_pub_fn_fails() {
        let lib = "pub fn used() {}\npub fn orphan() {}\n";
        let v = reach(
            &[
                ("crates/a/src/lib.rs", lib),
                ("crates/b/src/lib.rs", "fn f() { a::used(); }\n"),
            ],
            &[],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("pub-reached", 2));
        assert!(v[0].message.contains("orphan"));
    }

    #[test]
    fn a_name_in_benchmark_or_another_crates_tests_reaches() {
        for user in ["benchmark/src/main.rs", "crates/b/tests/t.rs"] {
            let v = reach(
                &[
                    ("crates/a/src/lib.rs", "pub fn probe() {}\n"),
                    (user, "fn main() { a::probe(); }\n"),
                ],
                &[],
            );
            assert!(v.is_empty(), "{user}: {v:?}");
        }
        // A re-export, a same-named definition and the item's own test
        // module reach nothing.
        let lib =
            "pub fn probe() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::probe(); }\n}\n";
        let other = "pub use a::probe;\nfn probe() {}\n// probe()\n";
        let v = reach(
            &[("crates/a/src/lib.rs", lib), ("crates/b/src/x.rs", other)],
            &[],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("probe"));
    }

    #[test]
    fn a_type_named_by_a_live_signature_is_reached() {
        let lib = "pub enum LoadError { Bad }\n\
                   pub const WIDTH: usize = 4;\n\
                   pub fn load(buf: Inner) -> Result<[u8; WIDTH], LoadError> { todo!() }\n\
                   pub struct Inner { hidden: Hidden }\n\
                   pub struct Hidden;\n\
                   pub fn buf() {}\n";
        let v = reach(
            &[
                ("crates/a/src/lib.rs", lib),
                ("tests/t.rs", "fn t() { a::load(); }\n"),
            ],
            &[],
        );
        // `Inner` is reached through `load`; a private field's type and a
        // parameter name are not signatures.
        let flagged: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(v.len(), 2, "{flagged:?}");
        assert!(flagged[0].contains("struct Hidden") && flagged[1].contains("fn buf"));
    }

    #[test]
    fn an_allowlist_entry_for_a_gone_or_reached_item_fails() {
        let lib = (
            "crates/a/src/lib.rs",
            "pub fn kept() {}\npub fn live() {}\n",
        );
        let user = ("src/lib.rs", "fn f() { a::live(); }\n");
        let kept = ("crates/a/src/lib.rs", "kept", "reason");
        assert!(reach(&[lib, user], &[kept]).is_empty());
        for (stale, needle) in [("live", "reached now"), ("gone", "no non-test")] {
            let v = reach(
                &[lib, user],
                &[kept, ("crates/a/src/lib.rs", stale, "reason")],
            );
            assert_eq!(v.len(), 1, "{stale}: {v:?}");
            assert!(v[0].message.contains(stale) && v[0].message.contains(needle));
        }
    }

    #[test]
    fn allowlist_is_short_and_reasoned() {
        assert!(REACH_ALLOWLIST.len() <= 10);
        for (path, item, reason) in REACH_ALLOWLIST {
            assert!(defines_surface(path), "{path}");
            assert!(!item.is_empty() && !reason.trim().is_empty(), "{item}");
        }
    }

    // ---- rule table / registry -------------------------------------

    #[test]
    fn rule_ids_are_stable_and_names_unique() {
        // Ids never move: a retired rule leaves its number unused (6, the
        // `RowPtr` kernel-path rule, went with `RowPtr` itself).
        let ids: Vec<u8> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 3, 4, 5, 7, 8, 9, 10, 11]);
        for r in &RULES {
            assert!(!r.summary.contains('|'), "summary breaks the md table");
            assert!(!r.scope.contains('|'), "scope breaks the md table");
        }
        let mut names: Vec<_> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULES.len());
    }

    #[test]
    fn design_doc_embeds_the_rule_table_verbatim() {
        // DESIGN.md §7 must contain exactly the table `lint --list`
        // prints, so the docs cannot drift from the registry.
        let root = crate::workspace_root();
        let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
        let table = render_rule_table();
        assert!(
            design.contains(&table),
            "DESIGN.md §7 is out of sync with the rule registry; \
             paste the output of `cargo run -p xtask -- lint --list`:\n{table}"
        );
    }

    #[test]
    fn violation_display_format_is_stable() {
        let v = Violation {
            path: PathBuf::from("crates/x/src/lib.rs"),
            line: 7,
            rule: "no-sleep",
            message: "msg".into(),
        };
        assert_eq!(v.to_string(), "crates/x/src/lib.rs:7: [no-sleep] msg");
    }

    #[test]
    fn panic_free_file_list_points_at_real_files() {
        // A renamed or moved fault-path file would silently drop out of
        // rule 4; keep the list anchored to the tree.
        let root = crate::workspace_root();
        for f in PANIC_FREE_FILES {
            assert!(
                root.join(f).is_file(),
                "PANIC_FREE_FILES entry `{f}` does not exist"
            );
        }
    }

    #[test]
    fn lint_runs_clean_on_this_workspace() {
        // The self-hosting check: the real tree must pass. Covered here so
        // `cargo test` fails fast if a violation slips in without running
        // scripts/check.sh.
        let root = crate::workspace_root();
        let violations = run_lint(&root).expect("lint walks the tree");
        assert!(
            violations.is_empty(),
            "workspace has lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
