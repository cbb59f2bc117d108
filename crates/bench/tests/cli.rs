//! Binary-level tests of `repro`'s command line: machine-readable stdout
//! stays machine-clean, `repro profile` emits parseable artefacts, and
//! every usage mistake (an unknown item or flag, a missing or malformed
//! flag value, an unreadable model path, a flag an item does not take)
//! exits 2 with a message before anything runs.

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

/// Asserts `args` is a usage error: exit 2, nothing on stdout, `message`
/// on stderr, and no panic.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = repro(args);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran before failing:\n{}",
        text(&out.stdout)
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert!(
        stderr.contains(message),
        "{args:?}: expected `{message}` on stderr:\n{stderr}"
    );
}

/// A path under the system temp directory unique to this test process.
fn temp_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("repro-cli-{name}-{}", std::process::id()));
    path.to_str().expect("utf-8 temp path").to_owned()
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
    let dir = temp_path("rejected-store");
    let dir = dir.as_str();
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

#[test]
fn every_item_is_validated_before_the_first_runs() {
    let trace = temp_path("trace.json");
    for args in [
        &["explore", "--threads", "2"][..],
        &["table1", "fig1", "bogus"],
        &["all", "bogus"],
        &["--trace", &trace, "fig1", "bogus"],
    ] {
        assert_usage_error(args, "unknown item `");
    }
    assert!(
        !std::path::Path::new(&trace).exists(),
        "the traced run must not start before the items are validated"
    );
}

#[test]
fn missing_or_malformed_flag_values_exit_2() {
    assert_usage_error(&["profile", "--top", "x"], "--top needs a number");
    assert_usage_error(&["profile", "--top"], "--top needs an argument");
    assert_usage_error(&["fig1", "--trace"], "--trace needs an argument");
    assert_usage_error(&["check", "--store"], "--store needs an argument");
}

#[test]
fn unwritable_export_paths_exit_2_before_the_traced_run() {
    let missing = "/nonexistent-dir/m.txt";
    assert_usage_error(
        &["--prom", missing, "fig1"],
        "--prom `/nonexistent-dir/m.txt`",
    );
    assert_usage_error(
        &["--trace", missing],
        "directory `/nonexistent-dir` does not exist",
    );
    assert_usage_error(
        &["fig1", "--vcd", missing],
        "--vcd `/nonexistent-dir/m.txt`",
    );
    let dir = std::env::temp_dir();
    let dir = dir.to_str().expect("utf-8 temp path");
    assert_usage_error(&["--trace", dir], "is a directory");
}

#[test]
fn unreadable_check_paths_exit_2() {
    assert_usage_error(&["check", "--help"], "cannot read `--help`");
    // A readable model before the unreadable one is not checked either,
    // and the store is not opened.
    let store = temp_path("store");
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/check_bad.xml");
    assert_usage_error(
        &["check", "--store", &store, fixture, "no-such-model.xml"],
        "cannot read `no-such-model.xml`",
    );
    assert!(
        !std::path::Path::new(&store).exists(),
        "an unreadable path must not create the store"
    );
}
