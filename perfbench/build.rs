//! Records build provenance for the benchmark's report: the compiler
//! version and, when the sources sit in a git checkout, the commit.

use std::path::Path;
use std::process::Command;

fn output_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_owned())
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        output_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");

    // Only ask git when the repository root itself is a checkout, so an
    // unrelated enclosing repository is never reported.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let root = Path::new(&manifest).join("..");
    let git_dir = root.join(".git");
    let commit = if git_dir.exists() {
        for watched in ["HEAD", "index"] {
            let path = git_dir.join(watched);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
        output_of(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );
}
