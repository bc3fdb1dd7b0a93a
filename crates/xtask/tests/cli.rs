//! End-to-end tests of the xtask CLI: each failure class must map to its
//! documented, distinct exit code so scripts/check.sh and CI can tell a
//! malformed results file from an undeclared metric without parsing stderr.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("xtask-cli");
    fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write scratch file");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask")
}

fn validate(paths: &[&Path]) -> Output {
    let mut args = vec!["validate-metrics"];
    let strs: Vec<&str> = paths
        .iter()
        .map(|p| p.to_str().expect("utf8 path"))
        .collect();
    args.extend(strs);
    run(&args)
}

const GOOD_SNAPSHOT: &str = r#"{
  "name": "smoke",
  "counters": { "sgns.pairs_total": 12 },
  "gauges": {},
  "histograms": {}
}"#;

#[test]
fn malformed_json_exits_3() {
    let p = scratch("malformed.json", "{ \"name\": \"x\", ");
    let out = validate(&[&p]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", text(&out.stderr));
    assert!(text(&out.stderr).contains("parse"), "{}", text(&out.stderr));
}

#[test]
fn unreadable_file_exits_3() {
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("does-not-exist.json");
    let out = validate(&[&missing]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", text(&out.stderr));
}

#[test]
fn missing_required_keys_exits_4() {
    // A snapshot must carry name + counters/gauges/histograms; dropping the
    // sections is a shape error, distinct from a parse error.
    let p = scratch("missing-keys.json", r#"{ "name": "x", "counters": {} }"#);
    let out = validate(&[&p]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", text(&out.stderr));
    assert!(
        text(&out.stderr).contains("gauges"),
        "{}",
        text(&out.stderr)
    );
}

#[test]
fn wrong_value_shape_exits_4() {
    let p = scratch(
        "bad-counter.json",
        r#"{ "name": "x", "counters": { "a": -1 }, "gauges": {}, "histograms": {} }"#,
    );
    let out = validate(&[&p]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", text(&out.stderr));
}

#[test]
fn schema_tagged_document_exits_4() {
    // Only registry snapshots are validated. A document that announces
    // some other format through a `schema` key is a shape error whatever
    // else it carries — it must not be waved through or skipped.
    let tagged = GOOD_SNAPSHOT.replacen('{', "{\n  \"schema\": \"some.format.v1\",", 1);
    let p = scratch("schema-tagged.json", &tagged);
    let out = validate(&[&p]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", text(&out.stderr));
    assert!(
        text(&out.stderr).contains("schema"),
        "{}",
        text(&out.stderr)
    );
}

#[test]
fn undeclared_metric_with_catalog_exits_5() {
    let catalog = scratch(
        "mini-catalog.md",
        "# Metrics\n\n| name | kind |\n| --- | --- |\n| `sgns.pairs_total` | counter |\n",
    );
    let declared = scratch("declared.json", GOOD_SNAPSHOT);
    let undeclared = scratch(
        "undeclared.json",
        r#"{
  "name": "smoke",
  "counters": { "made.up_metric": 1 },
  "gauges": {},
  "histograms": {}
}"#,
    );

    let ok = run(&[
        "validate-metrics",
        "--catalog",
        catalog.to_str().expect("utf8"),
        declared.to_str().expect("utf8"),
    ]);
    assert_eq!(ok.status.code(), Some(0), "stderr: {}", text(&ok.stderr));

    let bad = run(&[
        "validate-metrics",
        "--catalog",
        catalog.to_str().expect("utf8"),
        undeclared.to_str().expect("utf8"),
    ]);
    assert_eq!(bad.status.code(), Some(5), "stderr: {}", text(&bad.stderr));
    assert!(
        text(&bad.stderr).contains("made.up_metric"),
        "{}",
        text(&bad.stderr)
    );
}

#[test]
fn error_classes_are_distinct_exit_codes() {
    // The contract the driver scripts rely on: parse, shape, and catalog
    // failures are distinguishable from each other and from usage errors.
    let parse = validate(&[&scratch("d-parse.json", "not json")]);
    let shape = validate(&[&scratch("d-shape.json", r#"{ "name": 7, "counters": {} }"#)]);
    let usage = run(&["validate-metrics"]);
    let codes = [
        usage.status.code(),
        parse.status.code(),
        shape.status.code(),
    ];
    assert_eq!(codes, [Some(2), Some(3), Some(4)]);
}

#[test]
fn lint_list_prints_the_rule_table() {
    let out = run(&["lint", "--list"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", text(&out.stderr));
    let table = text(&out.stdout);
    for rule in [
        "safety-comment",
        "ordering-justified",
        "guard-across-channel",
        "no-sleep",
    ] {
        assert!(table.contains(rule), "missing `{rule}` in:\n{table}");
    }
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        text(&out.stderr).contains("usage:"),
        "{}",
        text(&out.stderr)
    );
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}
