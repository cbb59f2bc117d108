//! Crash-at-every-boundary tests of the durable campaign jobs: kill the
//! sweep at each store boundary (in-process panic injection, subprocess
//! abort via `TUT_STORE_KILL`, and a genuine SIGKILL), resume, and
//! require the result — table *and* journal bytes — to be bit-identical
//! to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tut_bench::{faultsweep, jobs};
use tut_sim::SimConfig;
use tut_store::{kill, KillMode, StorePanic, W_TORN_TAIL};
use tut_trace::Progress;

/// The kill-injection registry is process-global: any journal append in
/// this process counts against an armed site. Every test that touches a
/// journal in-process takes this lock so arming cannot leak across
/// tests under the parallel runner.
static KILL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A previous test panicking mid-scenario poisons the lock; the
    // registry is re-armed per scenario, so the guard is still valid.
    KILL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tut-bench-resume-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A 1 ms horizon keeps each BER point to a few milliseconds, so the
/// crash matrix stays fast while still exercising the real pipeline.
fn fast_config() -> SimConfig {
    SimConfig::with_horizon_ns(1_000_000)
}

fn run_sweep(dir: &Path, resume: bool) -> Result<jobs::DurableSweep, jobs::JobError> {
    jobs::run_sweep_durable(&fast_config(), 1, &Progress::disabled(), dir, resume)
}

fn journal_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(jobs::SWEEP_JOURNAL)).expect("journal exists")
}

/// The durable sweep computes the same table as the in-memory sweep, at
/// one worker, at two, and at a budget that oversubscribes any host.
#[test]
fn durable_sweep_matches_the_in_memory_sweep() {
    let _guard = lock();
    let in_memory = faultsweep::run_sweep_observed(&fast_config(), 1, &Progress::disabled())
        .expect("in-memory sweep");
    for threads in [1, 2, 2 * faultsweep::SWEEP_BERS.len() + 2] {
        let dir = temp_dir(&format!("sweep-same-{threads}"));
        let durable =
            jobs::run_sweep_durable(&fast_config(), threads, &Progress::disabled(), &dir, false)
                .expect("durable sweep");
        assert_eq!(durable.points, in_memory, "{threads} threads");
        assert_eq!(durable.resumed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// For every append and torn-write boundary k: kill the sweep at k,
/// resume, and require the resumed table and journal to be bit-identical
/// to the uninterrupted reference — with exactly the durable prefix
/// replayed rather than recomputed.
#[test]
fn sweep_killed_at_every_boundary_resumes_bit_identical() {
    let _guard = lock();
    let reference_dir = temp_dir("sweep-ref");
    let reference = run_sweep(&reference_dir, false).expect("reference sweep");
    let reference_bytes = journal_bytes(&reference_dir);
    let total = reference.points.len() as u64;
    assert_eq!(reference.resumed, 0);

    for site in ["store.append", "store.torn"] {
        for kill_at in 1..=total {
            let dir = temp_dir(&format!("sweep-{site}-{kill_at}"));
            kill::arm(site, kill_at, KillMode::Panic);
            let crashed =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_sweep(&dir, false)))
                    .expect_err("armed site must fire");
            kill::disarm();
            assert_eq!(
                crashed
                    .downcast::<StorePanic>()
                    .expect("injected crash, not a genuine bug")
                    .site,
                site
            );

            let resumed = run_sweep(&dir, true)
                .unwrap_or_else(|e| panic!("resume after {site}@{kill_at}: {e}"));
            assert_eq!(
                resumed.points, reference.points,
                "{site}@{kill_at}: resumed table diverged"
            );
            // Both sites fire before the k-th record is durable, so
            // exactly the first k-1 points are replayed.
            assert_eq!(resumed.resumed, kill_at - 1, "{site}@{kill_at}");
            if site == "store.torn" {
                // The torn site leaves half a frame behind; recovery
                // must surface the truncation as W0502.
                assert!(
                    resumed.warnings.iter().any(|w| w.code == W_TORN_TAIL),
                    "{site}@{kill_at}: missing torn-tail warning"
                );
            }
            assert_eq!(
                journal_bytes(&dir),
                reference_bytes,
                "{site}@{kill_at}: resumed journal bytes diverged"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&reference_dir).ok();
}

/// A flipped bit in a committed record must drop that record and
/// everything after it (CRC prefix recovery), then resume cleanly to the
/// same table and journal bytes.
#[test]
fn sweep_journal_bit_flip_truncates_and_resumes() {
    let _guard = lock();
    let reference_dir = temp_dir("flip-ref");
    let reference = run_sweep(&reference_dir, false).expect("reference sweep");
    let reference_bytes = journal_bytes(&reference_dir);

    let dir = temp_dir("flip");
    run_sweep(&dir, false).expect("fresh sweep");
    let path = dir.join(jobs::SWEEP_JOURNAL);
    let mut bytes = std::fs::read(&path).expect("journal");
    // Header is 20 bytes, each frame is 8 + 68; flip a payload byte of
    // the third record (index 2).
    let target = 20 + 2 * 76 + 12;
    bytes[target] ^= 0x40;
    std::fs::write(&path, &bytes).expect("corrupt journal");

    let resumed = run_sweep(&dir, true).expect("resume over corruption");
    assert_eq!(resumed.points, reference.points);
    assert_eq!(
        resumed.resumed, 2,
        "records before the flipped one are replayed, the rest recomputed"
    );
    assert!(resumed.warnings.iter().any(|w| w.code == W_TORN_TAIL));
    assert_eq!(journal_bytes(&dir), reference_bytes);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&reference_dir).ok();
}

/// The exploration job resumes to bit-identical solutions with every
/// unit replayed, across thread counts.
#[test]
fn explore_resumes_bit_identical_at_any_thread_count() {
    let _guard = lock();
    let dir = temp_dir("explore");
    let fresh = jobs::run_explore_durable(1, &dir, false, false).expect("fresh explore");
    assert_eq!(fresh.resumed, 0);
    for threads in [1usize, 4] {
        let resumed = jobs::run_explore_durable(threads, &dir, true, false)
            .unwrap_or_else(|e| panic!("resume at {threads} threads: {e}"));
        assert_eq!(resumed.grouping, fresh.grouping, "{threads} threads");
        assert_eq!(resumed.mapping, fresh.mapping, "{threads} threads");
        assert_eq!(
            resumed.mapping.cost.to_bits(),
            fresh.mapping.cost.to_bits(),
            "{threads} threads"
        );
        assert_eq!(resumed.resumed, fresh.total_units, "everything replayed");
        assert!(resumed.warnings.is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Subprocess crashes: the repro binary dying for real.
// ---------------------------------------------------------------------

fn repro(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["fault-sweep", "--quick", "--no-progress", "--store"])
        .arg(dir)
        .args(args);
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("repro runs")
}

fn stdout_table(out: &std::process::Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    let table: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("BER") || l.contains("Mbit/s"))
        .collect();
    assert!(!table.is_empty(), "no sweep table on stdout:\n{text}");
    table.join("\n")
}

/// `TUT_STORE_KILL` aborts the binary (no unwinding, no flushing — the
/// in-process stand-in for a power cut) mid-way through the third
/// record's write; `--resume` must replay 2 points, recompute 3, and
/// print the same table as an uninterrupted run.
#[test]
fn subprocess_abort_at_boundary_then_resume_matches_uninterrupted() {
    let reference_dir = temp_dir("sub-ref");
    let reference = repro(&reference_dir, &[], &[]);
    assert!(reference.status.success());

    let dir = temp_dir("sub-abort");
    let killed = repro(&dir, &[], &[("TUT_STORE_KILL", "store.torn:3:abort")]);
    assert!(!killed.status.success(), "armed abort must kill the run");

    let resumed = repro(&dir, &["--resume"], &[]);
    assert!(
        resumed.status.success(),
        "resume failed:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(stdout_table(&resumed), stdout_table(&reference));
    let text = String::from_utf8_lossy(&resumed.stdout);
    assert!(text.contains("resumed=2 total=5"), "{text}");
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains(W_TORN_TAIL),
        "torn-tail warning must reach stderr"
    );
    assert_eq!(
        std::fs::read(dir.join(jobs::SWEEP_JOURNAL)).expect("journal"),
        std::fs::read(reference_dir.join(jobs::SWEEP_JOURNAL)).expect("journal"),
        "resumed journal bytes diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&reference_dir).ok();
}

/// A genuine SIGKILL (`Child::kill`) racing the run: whenever the signal
/// lands, a `--resume` afterwards must converge to the uninterrupted
/// table. (If the run wins the race the resume simply replays all 5.)
#[test]
fn subprocess_sigkill_then_resume_matches_uninterrupted() {
    let reference_dir = temp_dir("kill9-ref");
    let reference = repro(&reference_dir, &[], &[]);
    assert!(reference.status.success());

    let dir = temp_dir("kill9");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fault-sweep", "--quick", "--no-progress", "--store"])
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("repro spawns");
    // Kill as soon as the journal holds at least one committed record
    // (header 20 bytes + one 76-byte frame), or let it finish if it wins.
    let path = dir.join(jobs::SWEEP_JOURNAL);
    for _ in 0..500 {
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if len >= 96 {
            child.kill().ok();
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    child.wait().expect("child reaped");

    let resumed = repro(&dir, &["--resume"], &[]);
    assert!(
        resumed.status.success(),
        "resume failed:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(stdout_table(&resumed), stdout_table(&reference));
    assert_eq!(
        std::fs::read(&path).expect("journal"),
        std::fs::read(reference_dir.join(jobs::SWEEP_JOURNAL)).expect("journal"),
        "journal must converge to the uninterrupted bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&reference_dir).ok();
}
