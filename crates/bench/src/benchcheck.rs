//! The `repro bench-check` driver: cold vs warm front-end latency.
//!
//! Measures the cold `repro check` pipeline against the incremental
//! [`Checker`] on the TUTMAC fixture,
//! applying a fresh single-statement behaviour edit before every warm
//! repetition so each one does genuine patch work (never a report-cache
//! hit). Every warm iteration is also verified byte-identical against
//! the cold pipeline on the same text — the benchmark doubles as the
//! correctness drill. The command prints its numbers, and the warm path
//! must clear [`WARM_SPEEDUP_FLOOR`].

use std::time::Instant;

use tut_uml::outline::Outline;

use crate::incremental::Checker;

/// Minimum cold/warm ratio for a behaviour-body re-check (the
/// acceptance floor; measured headroom is larger).
pub const WARM_SPEEDUP_FLOOR: f64 = 10.0;

const NAME: &str = "paper-system.xml";

/// One cold/warm measurement pair, in nanoseconds (minimum over the
/// repetitions, the usual low-noise estimator for sub-ms latencies).
#[derive(Clone, Copy, Debug)]
pub struct BenchCheckReport {
    /// Cold pipeline latency on the unedited fixture.
    pub cold_ns: u64,
    /// Warm incremental re-check latency after a behaviour edit.
    pub warm_ns: u64,
    /// Cold repetitions measured.
    pub cold_iters: u32,
    /// Warm repetitions measured.
    pub warm_iters: u32,
}

impl BenchCheckReport {
    /// Cold/warm ratio.
    pub fn speedup(&self) -> f64 {
        self.cold_ns as f64 / self.warm_ns.max(1) as f64
    }
}

/// Rewrites one `compute` amount inside the first state-machine segment
/// that has one, so edit `n` yields a distinct, still-clean document.
/// `None` if the fixture unexpectedly has no such site.
pub fn edit_behavior(text: &str, n: u64) -> Option<String> {
    let outline = Outline::scan(text)?;
    for (i, seg) in outline.segments.iter().enumerate() {
        if &*seg.ty != "uml:StateMachine" {
            continue;
        }
        let seg_text = outline.segment_text(text, i);
        let Some(compute_at) = seg_text.find("<compute ") else {
            continue;
        };
        let data_rel = seg_text[compute_at..].find("data=\"")? + compute_at + "data=\"".len();
        let end_rel = data_rel + seg_text[data_rel..].find('"')?;
        let start = seg.range.start + data_rel;
        let end = seg.range.start + end_rel;
        return Some(format!("{}{}{}", &text[..start], 1000 + n, &text[end..]));
    }
    None
}

/// Runs the measurement. `quick` shortens the repetition counts (CI
/// smoke); the floor and the byte-identity check apply in both modes.
pub fn run_bench_check(quick: bool) -> i32 {
    let base = crate::paper_system().to_xml();
    let (cold_iters, warm_iters): (u32, u32) = if quick { (5, 15) } else { (20, 50) };

    // Cold: a fresh checker per repetition, so nothing carries over.
    let mut cold_ns = u64::MAX;
    for _ in 0..cold_iters {
        let mut checker = Checker::new();
        let started = Instant::now();
        let out = checker.check(NAME, &base);
        cold_ns = cold_ns.min(started.elapsed().as_nanos() as u64);
        if out.has_errors {
            eprintln!(
                "[bench-check] fixture unexpectedly has errors:\n{}",
                out.text
            );
            return 1;
        }
    }

    // Warm: one checker primed on the base text, then a fresh behaviour
    // edit per repetition. The edits and the cold-pipeline oracles are
    // all prepared up front so nothing but the warm path runs inside
    // (or between) the timed regions; outcomes are collected and
    // verified byte-identical afterwards.
    let mut edits = Vec::with_capacity(warm_iters as usize);
    for n in 0..warm_iters {
        let Some(edited) = edit_behavior(&base, u64::from(n)) else {
            eprintln!("[bench-check] no compute statement found in any state machine");
            return 1;
        };
        edits.push(edited);
    }
    let oracles: Vec<(String, String)> = edits
        .iter()
        .map(|edited| {
            let report = crate::check::check_source(NAME, edited);
            (report.render_text(), report.render_json())
        })
        .collect();
    let mut checker = Checker::new();
    checker.check(NAME, &base);
    let mut warm_ns = u64::MAX;
    let mut outcomes = Vec::with_capacity(edits.len());
    for edited in &edits {
        let started = Instant::now();
        let out = checker.check(NAME, edited);
        warm_ns = warm_ns.min(started.elapsed().as_nanos() as u64);
        outcomes.push(out);
    }
    for (n, (out, oracle)) in outcomes.iter().zip(&oracles).enumerate() {
        if out.text != oracle.0 || out.json != oracle.1 {
            eprintln!("[bench-check] warm report diverged from cold pipeline at edit {n}");
            eprintln!("--- warm ---\n{}\n--- cold ---\n{}", out.text, oracle.0);
            return 1;
        }
    }

    let report = BenchCheckReport {
        cold_ns,
        warm_ns,
        cold_iters,
        warm_iters,
    };
    println!(
        "Front-end check latency (TUTMAC fixture, {} bytes)",
        base.len()
    );
    println!();
    println!(
        "  cold check             {:>9.3} ms  (min of {})",
        report.cold_ns as f64 / 1e6,
        report.cold_iters
    );
    println!(
        "  warm re-check (edit)   {:>9.3} ms  (min of {}, byte-identical to cold)",
        report.warm_ns as f64 / 1e6,
        report.warm_iters
    );
    println!(
        "  speedup                {:>9.1}x  (floor {:.0}x)",
        report.speedup(),
        WARM_SPEEDUP_FLOOR
    );
    if report.speedup() < WARM_SPEEDUP_FLOOR {
        eprintln!(
            "[bench-check] warm re-check speedup {:.1}x below floor {:.0}x",
            report.speedup(),
            WARM_SPEEDUP_FLOOR
        );
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_produce_distinct_clean_documents() {
        let base = crate::paper_system().to_xml();
        let a = edit_behavior(&base, 0).expect("fixture has a compute site");
        let b = edit_behavior(&base, 1).expect("fixture has a compute site");
        assert_ne!(a, base);
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        let report = crate::check::check_source("edited.xml", &a);
        assert!(!report.has_errors(), "{}", report.render_text());
    }
}
