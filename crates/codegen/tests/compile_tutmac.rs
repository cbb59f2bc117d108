//! The paper's case study through the generated-C leg of Figure 2:
//! generate the C project for `TutmacConfig::default()` and build it
//! with the host C compiler under `-Werror`. The binary is only built,
//! never run: its traffic timers keep re-arming, so it does not stop on
//! its own. Skipped (with a note) when no compiler is available.

use std::process::Command;

use tut_codegen::generate_project;
use tutmac::{build_tutmac_system, TutmacConfig};

fn cc_available() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

#[test]
fn tutmac_project_compiles_warning_free() {
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

    let output = Command::new("cc")
        .args(["-std=c99", "-O2", "-Wall", "-Wextra", "-Werror", "-o"])
        .arg(dir.join("tutmac"))
        .args(&sources)
        .output()
        .expect("run cc");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        output.status.success(),
        "cc failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
