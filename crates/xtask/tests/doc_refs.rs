//! Prose must not point at nothing: every `-p sisg-bench --bin <name>`
//! command, every `results/<file>` path and every `crates/<…>.rs` source
//! path named in the docs, the verify skill and the scripts has to exist
//! in the tree, so deleting a binary, a committed result or a source file
//! fails here until the text that cites it is updated.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md, the verify skill and
/// scripts/*.sh, as paths relative to the workspace root.
fn sources() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ]
    .iter()
    .map(PathBuf::from)
    .collect();
    for (dir, ext) in [("docs", "md"), ("scripts", "sh")] {
        let entries = fs::read_dir(root().join(dir)).expect("list directory");
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == ext) {
                files.push(Path::new(dir).join(path.file_name().expect("file name")));
            }
        }
    }
    files.sort();
    files
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-')
}

/// Paths the text names under `dir` (written with its trailing slash),
/// e.g. `results/metrics/x.json` under `results/`. Templates (`results/metrics/<name>.json`, `results/*.txt`,
/// `results/${name}.txt`) and other directories that merely end in the
/// same word (`target/ci-results/`) are not references to committed files.
fn paths_under(text: &str, dir: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices(dir) {
        if text[..at].chars().next_back().is_some_and(is_path_char) {
            continue;
        }
        let rest = &text[at..];
        let end = rest.find(|c| !is_path_char(c)).unwrap_or(rest.len());
        if rest[end..].starts_with(['<', '*', '$', '{']) {
            continue;
        }
        let path = rest[..end].trim_end_matches(['.', '/']);
        if path.len() > dir.len() {
            found.push(path.to_string());
        }
    }
    found
}

/// Rust source files the text names under `crates/`, e.g.
/// `crates/obs/src/names.rs`; crate directories are not checked.
fn crate_sources(text: &str) -> Vec<String> {
    let mut found = paths_under(text, "crates/");
    found.retain(|path| path.ends_with(".rs"));
    found
}

/// Binary names from `… -p sisg-bench … --bin <name>` commands: a `--bin`
/// whose nearest preceding `-p` (at most six words back) selects
/// `sisg-bench`. Works on whitespace-separated words, so a command wrapped
/// across lines counts.
fn bench_bins(text: &str) -> Vec<String> {
    let words: Vec<&str> = text
        .split_whitespace()
        .map(|w| {
            w.trim_matches(|c: char| matches!(c, '`' | '"' | '\'' | '(' | ')' | ',' | ';' | '.'))
        })
        .collect();
    let mut found = Vec::new();
    for i in 0..words.len().saturating_sub(1) {
        if words[i] != "--bin" || words[i + 1].starts_with('<') {
            continue;
        }
        let package = (i.saturating_sub(6)..i)
            .rev()
            .find(|&j| words[j] == "-p")
            .map(|j| words[j + 1]);
        if package == Some("sisg-bench") {
            found.push(words[i + 1].to_string());
        }
    }
    found
}

#[test]
fn extractors_find_references_and_skip_templates() {
    let text = "see `results/metrics/a.json`, results/BENCH_x.json. Not \
                results/metrics/<name>.json, results/*.txt, results/${n}.txt or \
                target/ci-results/b.json.\n\
                `cargo run --release -p sisg-bench --bin\n  perf_gone` and \
                `-p sisg-bench --bin <name>`; `-p xtask --bin other`. \
                `crates/a/src/gone.rs`, crates/a (a directory), not \
                crates/a/src/{b,c}.rs or ../crates/a/src/d.rs.";
    assert_eq!(
        paths_under(text, "results/"),
        ["results/metrics/a.json", "results/BENCH_x.json"]
    );
    assert_eq!(bench_bins(text), ["perf_gone"]);
    assert_eq!(crate_sources(text), ["crates/a/src/gone.rs"]);
}

#[test]
fn every_named_bench_binary_and_results_file_exists() {
    let root = root();
    let mut dangling = Vec::new();
    let mut checked = 0usize;
    for source in sources() {
        let text = fs::read_to_string(root.join(&source)).expect("read source");
        for path in paths_under(&text, "results/")
            .into_iter()
            .chain(crate_sources(&text))
        {
            checked += 1;
            if !root.join(&path).exists() {
                dangling.push(format!("{}: {path}", source.display()));
            }
        }
        for bin in bench_bins(&text) {
            checked += 1;
            if !root.join(format!("crates/bench/src/bin/{bin}.rs")).exists() {
                dangling.push(format!("{}: --bin {bin}", source.display()));
            }
        }
    }
    assert!(checked > 0, "the scan found no references at all");
    assert!(
        dangling.is_empty(),
        "docs and scripts name files that do not exist:\n  {}",
        dangling.join("\n  ")
    );
}
