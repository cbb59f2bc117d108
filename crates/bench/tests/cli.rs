//! Binary-level tests of `repro`'s command line: machine-readable stdout
//! stays machine-clean, `repro profile` emits parseable artefacts, and
//! flags an item does not take exit 2.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn check_json_stdout_is_machine_clean() {
    let out = repro(&["check", "--json"]);
    assert!(out.status.success());
    let stdout = text(&out.stdout);
    for line in stdout.lines().filter(|l| !l.is_empty()) {
        assert!(
            line.starts_with('{'),
            "non-JSON line on check --json stdout: {line}"
        );
        tut_trace::json::parse(line).expect("stdout line parses as JSON");
    }
}

#[test]
fn profile_folded_stdout_is_pure_collapsed_stacks() {
    let out = repro(&["profile", "--quick", "--folded"]);
    assert!(out.status.success());
    let stdout = text(&out.stdout);
    assert!(!stdout.is_empty(), "folded output must be non-empty");
    let mut nested = false;
    for line in stdout.lines() {
        let (stack, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("impure folded line: {line}"));
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric sample value: {line}"));
        nested |= stack.contains(';');
    }
    assert!(nested, "expected at least one parent;child stack");
    // Status lines live on stderr.
    assert!(text(&out.stderr).contains("[profile]"));
}

#[test]
fn profile_json_stdout_is_a_chrome_trace() {
    let out = repro(&["profile", "--quick", "--json"]);
    assert!(out.status.success());
    let stdout = text(&out.stdout);
    let doc = tut_trace::json::parse(&stdout).expect("stdout is one JSON document");
    let events = doc
        .get("traceEvents")
        .and_then(tut_trace::json::Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
}

#[test]
fn profile_rejects_unknown_items() {
    let out = repro(&["profile", "nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("unknown profile item"));
}

#[test]
fn store_is_rejected_outside_check_and_watch() {
    let dir = std::env::temp_dir().join(format!("repro-cli-store-{}", std::process::id()));
    let dir = dir.to_str().expect("utf-8 temp path");
    for args in [
        &["fault-sweep", "--quick", "--store", dir][..],
        &["explore", "--store", dir],
        &["--store", dir],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = text(&out.stderr);
        assert!(
            stderr.contains("`check` and `watch`"),
            "{args:?}: the message must name the items that take --store:\n{stderr}"
        );
        assert!(text(&out.stdout).is_empty(), "{args:?} ran before failing");
    }
    assert!(
        !std::path::Path::new(dir).exists(),
        "a rejected --store must not create its directory"
    );
}

#[test]
fn removed_flags_are_unknown_items() {
    for args in [
        &["--threads", "2", "explore"][..],
        &["--resume", "fault-sweep"],
        &["--no-progress", "explore"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            text(&out.stderr).contains(&format!("unknown item `{}`", args[0])),
            "{args:?}: {}",
            text(&out.stderr)
        );
    }
}
