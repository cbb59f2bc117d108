//! What the benchmark reads out of the layers' own results: query
//! counters per stage, the simulator's profiler rows, and content
//! fingerprints of profiling reports.

use tut_profiling::ProfilingReport;
use tut_trace::perf;

use crate::measure::Fnv;
use crate::Output;

/// Query stages of `incremental::Checker`, in pipeline order.
pub const STAGES: [&str; 14] = [
    "report",
    "outline",
    "parse_xml",
    "xmi_decode",
    "profile_apply",
    "wf_unique_names",
    "wf_parts_ports",
    "wf_connectors",
    "wf_composition",
    "wf_behavior",
    "wf_generalisation",
    "profile_rules",
    "codegen_dry_run",
    "sim_setup",
];

/// TUTMAC's simulated processes, in process order.
pub const PROCESSES: [&str; 10] = [
    "mng",
    "rmng",
    "rca",
    "user",
    "channel",
    "ui.msduRec",
    "ui.msduDel",
    "dp.frag",
    "dp.defrag",
    "dp.crc",
];

/// Content fingerprint of a profiling report through its renderings.
pub fn report_fingerprint(report: &ProfilingReport) -> u64 {
    Fnv::new()
        .str(&tut_profiling::render_table4(report))
        .str(&tut_profiling::render_counters(report))
        .str(&tut_profiling::report::render_transfers(report))
        .finish()
}

/// Per-stage query counters of `stats`, with the overall hit ratio.
pub fn stage_counts(out: &mut Output, stats: &tut_query::CacheStats) {
    let (mut hits, mut misses) = (0u64, 0u64);
    for stage in STAGES {
        let s = stats.stages.iter().find(|s| s.name == stage);
        let (h, m, r) = s.map_or((0, 0, 0), |s| (s.hits, s.misses, s.recomputes));
        hits += h;
        misses += m;
        out.set(&format!("query.{stage}.hits"), h as f64);
        out.set(&format!("query.{stage}.misses"), m as f64);
        out.set(&format!("query.{stage}.recomputed"), r as f64);
    }
    if hits + misses > 0 {
        out.set("query.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    out.line(format!(
        "exact: {}",
        stats.render().lines().next().unwrap_or("").trim()
    ));
}

/// The simulator's share of a traced iteration, from the profiler: time
/// per event kind, the event loop's own time, and self time per process.
pub fn sim_rows(report: &perf::PerfReport) -> Vec<(String, u64)> {
    let spots = report.hotspots();
    let find = |label: &str| spots.iter().find(|s| s.label == label);
    let mut rows = Vec::new();
    let mut events = 0u64;
    for kind in ["deliver", "timer", "pe_free"] {
        let ns = find(&format!("sim.event.{kind}")).map_or(0, |s| s.total_ns);
        events += ns;
        rows.push((format!("sim.event.{kind}_ms"), ns));
    }
    let run = find("sim.run").map_or(0, |s| s.total_ns);
    rows.push(("sim.loop_self_ms".into(), run.saturating_sub(events)));
    for process in PROCESSES {
        let ns = find(&format!("proc/{process}")).map_or(0, |s| s.self_ns);
        rows.push((format!("sim.proc.{process}.self_ms"), ns));
    }
    rows
}
