//! The `repro watch` driver: re-check a model document on every save.
//!
//! Polls the file's modification time (cheap, no read) and falls back to
//! a content hash before re-checking, so editors that rewrite the file
//! without changing it (or touch the mtime twice per save) never trigger
//! a duplicate report. Each re-check runs through the incremental
//! [`Checker`], so after the first pass the
//! turnaround is dominated by what the edit actually invalidated.

use std::path::Path;
use std::time::{Duration, Instant, SystemTime};

use tut_query::Fp;

use crate::incremental::Checker;

/// How often the file is polled.
pub const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Cache generations kept live between edits (older memo entries are
/// evicted so day-long sessions stay flat).
const KEEP_GENERATIONS: u64 = 16;

/// The change-detection state of one watched file: mtime first, content
/// hash second.
#[derive(Default)]
pub struct Debounce {
    last_mtime: Option<SystemTime>,
    last_fp: Option<Fp>,
}

impl Debounce {
    /// True when the mtime differs from the last observation — the
    /// caller should read the file and ask [`Debounce::content_changed`].
    pub fn mtime_changed(&mut self, mtime: Option<SystemTime>) -> bool {
        if self.last_mtime == mtime && mtime.is_some() {
            return false;
        }
        self.last_mtime = mtime;
        true
    }

    /// True when the content fingerprint differs from the last checked
    /// one; records it either way.
    pub fn content_changed(&mut self, fp: Fp) -> bool {
        if self.last_fp == Some(fp) {
            return false;
        }
        self.last_fp = Some(fp);
        true
    }
}

/// Runs the watch loop over one document until the process is killed.
/// Returns only on a startup error (unreadable file), with the exit code.
pub fn run_watch(path: &str, json: bool, cache_stats: bool, store: Option<&Path>) -> i32 {
    let mut checker = Checker::new();
    if let Some(dir) = store {
        match checker.open_disk(&dir.join("check-cache.journal")) {
            Ok(n) => eprintln!("[watch] disk cache attached ({n} cached reports)"),
            Err(e) => eprintln!("[watch] W0503: disk cache unavailable ({e}); running memory-only"),
        }
    }
    // First pass must succeed so misconfigurations fail loudly.
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("[watch] cannot read `{path}`: {e}");
            return 2;
        }
    };
    let mut debounce = Debounce::default();
    debounce.mtime_changed(mtime_of(path));
    debounce.content_changed(Fp::of_str(&text));
    check_and_print(&mut checker, path, &text, json, cache_stats);
    loop {
        std::thread::sleep(POLL_INTERVAL);
        if !debounce.mtime_changed(mtime_of(path)) {
            continue;
        }
        // A transient read failure (editor mid-rename) retries on the
        // next poll; the stale mtime was already consumed, but the
        // content hash catches up once the file is back.
        let Ok(text) = std::fs::read_to_string(path) else {
            debounce.last_mtime = None;
            continue;
        };
        if !debounce.content_changed(Fp::of_str(&text)) {
            continue;
        }
        check_and_print(&mut checker, path, &text, json, cache_stats);
        checker.trim(KEEP_GENERATIONS);
    }
}

fn mtime_of(path: &str) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

fn check_and_print(checker: &mut Checker, path: &str, text: &str, json: bool, cache_stats: bool) {
    let before = checker.stats();
    let started = Instant::now();
    let outcome = checker.check(path, text);
    let elapsed = started.elapsed();
    if json {
        println!("{}", outcome.json);
    } else {
        print!("{}", outcome.text);
    }
    if cache_stats {
        print!("{}", checker.stats().since(&before).render());
    }
    eprintln!(
        "[watch] checked `{path}` in {:.1} ms; waiting for changes (ctrl-c to stop)",
        elapsed.as_secs_f64() * 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, UNIX_EPOCH};

    #[test]
    fn debounce_skips_unchanged_mtime() {
        let mut d = Debounce::default();
        let t0 = Some(UNIX_EPOCH + Duration::from_secs(100));
        assert!(d.mtime_changed(t0), "first observation always fires");
        assert!(!d.mtime_changed(t0));
        let t1 = Some(UNIX_EPOCH + Duration::from_secs(101));
        assert!(d.mtime_changed(t1));
        // An unreadable file (no mtime) never latches: the next good
        // observation must fire again.
        assert!(d.mtime_changed(None));
        assert!(d.mtime_changed(None));
        assert!(d.mtime_changed(t1));
    }

    #[test]
    fn debounce_skips_touches_that_keep_content() {
        let mut d = Debounce::default();
        let a = Fp::of_str("a");
        assert!(d.content_changed(a), "first content always checks");
        assert!(!d.content_changed(a), "same bytes, new mtime: no re-check");
        assert!(d.content_changed(Fp::of_str("b")));
        assert!(d.content_changed(a), "reverted content re-checks");
    }
}
