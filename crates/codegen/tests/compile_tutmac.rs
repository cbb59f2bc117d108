//! The paper's case study through the generated-C leg of Figure 2:
//! generate the C project for `TutmacConfig::default()`, build it with
//! the host C compiler under `-Werror`, and run the binary. The runtime's
//! event bound (`tut_rt_run(100000)` in `main.c`) stops it; the run is
//! killed if it outlives a wall-clock deadline, and its address space is
//! capped so a runaway cannot exhaust the host's memory. Skipped (with a
//! note) when no compiler is available.

use std::collections::HashSet;
use std::fs::File;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use tut_codegen::generate_project;
use tutmac::{build_tutmac_system, TutmacConfig};

/// How long the binary may run before it counts as hung. A correct run
/// takes a fraction of a second; a runtime whose re-armed timers pile up
/// instead of replacing each other does not finish in minutes.
const RUN_DEADLINE: Duration = Duration::from_secs(20);

/// The binary's address-space cap, in KiB (`ulimit -v`).
const RUN_MEMORY_KIB: u32 = 1 << 20;

fn cc_available() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

#[test]
fn tutmac_project_compiles_and_runs() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let system = build_tutmac_system(&TutmacConfig::default()).expect("tutmac builds");
    let files = generate_project(&system).expect("generate");

    let dir = std::env::temp_dir().join(format!("tut_codegen_tutmac_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut sources = Vec::new();
    for file in &files {
        let path = dir.join(&file.name);
        std::fs::write(&path, &file.contents).expect("write generated file");
        if file.name.ends_with(".c") {
            sources.push(path);
        }
    }
    assert_eq!(sources.len(), 11, "ten processes plus main.c");

    let binary = dir.join("tutmac");
    let output = Command::new("cc")
        .args(["-std=c99", "-O2", "-Wall", "-Wextra", "-Werror", "-o"])
        .arg(&binary)
        .args(&sources)
        .output()
        .expect("run cc");
    assert!(
        output.status.success(),
        "cc failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The log goes to a file, so a long run cannot block on a full pipe.
    let log_path = dir.join("tutmac.log");
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -v {RUN_MEMORY_KIB} && exec \"$0\""))
        .arg(&binary)
        .stdout(File::create(&log_path).expect("create log file"))
        .stderr(Stdio::null())
        .spawn()
        .expect("start the generated binary");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the generated binary") {
            break status;
        }
        if started.elapsed() > RUN_DEADLINE {
            child.kill().ok();
            child.wait().ok();
            std::fs::remove_dir_all(&dir).ok();
            panic!("the generated binary was still running after {RUN_DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let log = std::fs::read_to_string(&log_path).expect("read log");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        status.success(),
        "the generated binary exited with {status}"
    );

    // `EXEC <time> <process> <cycles> <ns> <from> <to> <trigger>`: a
    // re-armed timer replaces the pending one, so one process never
    // fires the same timer twice at one instant.
    let mut fired = HashSet::new();
    let mut timer_steps = 0;
    for line in log.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if fields[0] != "EXEC" || !fields[fields.len() - 1].starts_with("timer:") {
            continue;
        }
        timer_steps += 1;
        let key = (fields[1], fields[2], fields[fields.len() - 1]);
        assert!(
            fired.insert(key),
            "timer fired twice at one instant: {line}"
        );
    }
    assert!(timer_steps > 0, "the run fired no timer");
}
