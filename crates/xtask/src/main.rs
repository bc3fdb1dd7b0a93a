//! Workspace automation tasks (the cargo-xtask pattern).
//!
//! `cargo run -p xtask -- lint` runs the repo's static-analysis rules —
//! invariants that `rustc`/`clippy` cannot express — as hard errors. The
//! rules pattern-match the token stream of a small hand-rolled Rust lexer
//! ([`lexer`]), so keywords inside string literals and comments neither
//! trip nor mask a rule. `cargo run -p xtask -- lint --list` prints the
//! rule table (the same markdown table embedded in DESIGN.md §7 — a test
//! keeps them identical); see [`rules::RULES`] for ids, scopes and the
//! enforced invariants, from `safety-comment` (rule 1) through the
//! concurrency-discipline rules `ordering-justified`,
//! `guard-across-channel` and `no-sleep` (rules 8–10).
//!
//! `cargo run -p xtask -- validate-metrics [--catalog <md>] <file>...`
//! checks that emitted metrics files (`results/metrics/*.json`) parse
//! and have the documented snapshot shape. With `--catalog
//! docs/OBSERVABILITY.md` every snapshot metric must also be declared in
//! the doc's metric table. Failure classes exit distinctly: usage 2,
//! unreadable/malformed JSON 3, wrong shape 4, undeclared metric 5.
#![warn(missing_docs)]
// This crate talks *about* SAFETY comments (it implements the lint that
// requires them); clippy's `unnecessary_safety_comment` misreads that
// prose as misplaced safety comments.
#![allow(clippy::unnecessary_safety_comment)]

mod lexer;
mod metrics;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: cargo run -p xtask -- lint [--list] | validate-metrics [--catalog <md>] <file>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.len() == 2 && args[1] == "--list" => {
            print!("{}", rules::render_rule_table());
            ExitCode::SUCCESS
        }
        Some("lint") if args.len() == 1 => {
            let root = workspace_root();
            match rules::run_lint(&root) {
                Ok(violations) if violations.is_empty() => {
                    println!("xtask lint: OK");
                    ExitCode::SUCCESS
                }
                Ok(violations) => {
                    for v in &violations {
                        eprintln!("{v}");
                    }
                    eprintln!("xtask lint: {} violation(s)", violations.len());
                    ExitCode::FAILURE
                }
                Err(err) => {
                    eprintln!("xtask lint: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("validate-metrics") if args.len() > 1 => {
            let mut files: Vec<&str> = Vec::new();
            let mut catalog_path: Option<&str> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                if arg == "--catalog" {
                    match it.next() {
                        Some(p) => catalog_path = Some(p),
                        None => {
                            eprintln!("{USAGE}");
                            return ExitCode::from(2);
                        }
                    }
                } else {
                    files.push(arg);
                }
            }
            if files.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            let catalog = match catalog_path.map(|p| metrics::load_catalog(Path::new(p))) {
                Some(Ok(c)) => Some(c),
                Some(Err(err)) => {
                    eprintln!("xtask validate-metrics: {err}");
                    return ExitCode::from(err.exit_code());
                }
                None => None,
            };
            let mut count = 0usize;
            for path in &files {
                match metrics::validate_metrics_file(Path::new(path), catalog.as_ref()) {
                    Ok(n) => count += n,
                    Err(err) => {
                        eprintln!("xtask validate-metrics: {path}: {err}");
                        return ExitCode::from(err.exit_code());
                    }
                }
            }
            println!(
                "xtask validate-metrics: OK ({} snapshot(s), {count} metric(s))",
                files.len()
            );
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Locates the workspace root: xtask is always run via `cargo run -p xtask`,
/// so `CARGO_MANIFEST_DIR` is `<root>/crates/xtask`.
pub(crate) fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}
