//! Regenerates every table and figure of the paper from the live
//! implementation.
//!
//! ```text
//! cargo run -p tut-bench --bin repro -- all
//! cargo run -p tut-bench --bin repro -- table4
//! cargo run -p tut-bench --bin repro -- fig6 fig8
//! ```
//!
//! Observability exports (run the TUTMAC case study traced and write
//! the artefacts; combinable with any item list):
//!
//! ```text
//! cargo run -p tut-bench --bin repro -- --trace out.json   # Chrome/Perfetto
//! cargo run -p tut-bench --bin repro -- --vcd bus.vcd      # GTKWave waveform
//! cargo run -p tut-bench --bin repro -- --prom metrics.txt # Prometheus text
//! ```
//!
//! Model checking (parse → validate → profile rules → codegen dry run,
//! one aggregated severity-sorted report with source spans):
//!
//! ```text
//! cargo run -p tut-bench --bin repro -- check model.xml    # rustc-style text
//! cargo run -p tut-bench --bin repro -- check --json m.xml # machine-readable
//! cargo run -p tut-bench --bin repro -- check              # clean TUTMAC baseline
//! ```
//!
//! `check` exits nonzero when any error-severity finding fired; warnings
//! alone keep the exit status at zero. It runs on the incremental query
//! engine: `--cache-stats` appends per-stage hit/miss counters,
//! `--store DIR` persists the report cache across runs (only `check`
//! and `watch` take it; any other item exits 2), `watch m.xml`
//! re-checks on every save, and `bench-check` measures (and gates) the
//! warm-re-check speedup.
//!
//! Self-profiling (where the tool's own host time goes):
//!
//! ```text
//! cargo run -rp tut-bench --bin repro -- profile            # hotspot table
//! cargo run -rp tut-bench --bin repro -- profile --folded   # flamegraph stacks
//! cargo run -rp tut-bench --bin repro -- profile --json     # Chrome trace
//! cargo run -rp tut-bench --bin repro -- profile bench --quick
//! ```

use tut_bench::figures;
use tut_faults::NoFaults;
use tut_profile::{tables, TutProfile};
use tut_profiling::render_table4;
use tut_trace::perf::NoProf;
use tut_trace::Recorder;

fn print_fig1() {
    println!("Figure 1. Design flow with TUT-Profile.");
    println!();
    println!("  UML 2.0 (TUT-Profile) -> tools -> prototype");
    println!("  tools: this repository replaces Telelogic TAU G2 + the TCL profiling tool;");
    println!("  the physical Altera FPGA prototype is replaced by the tut-sim / tut-hibi");
    println!("  co-simulation (see DESIGN.md section 2 for the substitution table).");
    println!();
    println!("{}", tut_profile::flow::render_flow());
}

fn print_fig2() {
    println!("Figure 2. TUT-Profile design and profiling flow — executed live:");
    println!();
    let system = tut_bench::paper_system();

    // Stage: validation.
    let findings = system.validate();
    println!(
        "  [validate]     {} findings (errors: {})",
        findings.len(),
        findings.iter().filter(|f| f.starts_with("[error]")).count()
    );

    // Stage: model parsing (XML text boundary).
    let xml = system.to_xml();
    let groups = tut_profiling::groups::parse_model_xml(&xml).expect("model parses");
    println!(
        "  [model parse]  {} bytes of XML -> {} groups, {} processes",
        xml.len(),
        groups.groups.len(),
        groups.process_count()
    );

    // Stage: code generation.
    let files = tut_codegen::generate_project(&system).expect("codegen");
    let loc: usize = files.iter().map(|f| f.contents.lines().count()).sum();
    println!("  [codegen]      {} C files, {} lines", files.len(), loc);

    // Stage: simulation.
    let report = tut_sim::Simulation::from_system(&system, tut_bench::table4_config())
        .expect("sim builds")
        .run()
        .expect("sim runs");
    println!("  [simulate]     {}", report.summary());
    let log_text = report.log.to_text();
    println!(
        "  [log-file]     {} bytes, {} records",
        log_text.len(),
        report.log.len()
    );

    // Stage: profiling.
    let profile = tut_profiling::analyze(&groups, &log_text).expect("analysis");
    println!(
        "  [profile]      {} groups, dominant: {}",
        profile.group_exec.len(),
        profile
            .dominant_group()
            .map(|g| g.group.as_str())
            .unwrap_or("-")
    );
    for suggestion in tut_profiling::suggest::suggest(&profile, 0.85) {
        println!("  [suggest]      {suggestion}");
    }
}

fn print_table4() {
    let system = tut_bench::paper_system();
    let report = tut_bench::profile(&system);
    println!("{}", render_table4(&report));
    println!("Paper reference (Table 4a): Group1 92.1 %, Group2 5.2 %, Group3 2.5 %,");
    println!("Group4 0.2 %, Environment 0.0 % — compare the Proportion column above.");
}

fn print_transfers() {
    let system = tut_bench::paper_system();
    let report = tut_bench::profile(&system);
    println!("{}", tut_profiling::report::render_transfers(&report));
}

/// Runs the automated exploration loop of §4.5 — partition the measured
/// communication graph, then search the group→element mapping.
fn print_explore() {
    println!("Design-space exploration (grouping + mapping).");
    println!();
    let explore = tut_bench::explore_paper_system();
    println!(
        "  [grouping] {} nodes -> 5 groups, cut weight {}, objective {:.1}",
        explore.nodes, explore.grouping.cut_weight, explore.grouping.objective,
    );
    println!(
        "  [mapping]  {} groups over {} elements, cost {:.1}",
        explore.group_names.len(),
        explore.pes,
        explore.mapping.cost,
    );
    for (group, &pe) in explore.mapping.assignment.iter().enumerate() {
        println!(
            "             {} -> element {}",
            explore.group_names[group], pe
        );
    }
}

/// Runs the fault-injection reliability campaign (experiment R1): sweep
/// the channel BER, report delivery ratio / retries / goodput from the
/// ARQ counters. `--quick` runs the sweep on a 10 ms horizon and fails
/// the process when the BER 1e-4 row's delivery ratio leaves its
/// expected band, so CI can smoke-test the whole fault path in one short
/// run.
fn print_fault_sweep(quick: bool) {
    use tut_bench::faultsweep;
    let config = if quick {
        tut_sim::SimConfig::with_horizon_ns(10_000_000)
    } else {
        tut_bench::table4_config()
    };
    println!(
        "Reliability under injected channel faults (seed {:#x}, horizon {} ms).",
        faultsweep::SWEEP_SEED,
        config.max_time_ns / 1_000_000
    );
    println!();
    let points = match faultsweep::run_sweep(&config) {
        Ok(points) => points,
        Err(e) => {
            eprintln!("[fault-sweep] {e}");
            std::process::exit(1);
        }
    };
    println!("{}", faultsweep::render(&points));
    if quick {
        // Pinned band: deterministic seed, so the exact value is stable;
        // the band only absorbs deliberate model recalibrations.
        let point = points[3];
        let ratio = point.delivery_ratio();
        let (lo, hi) = (0.40, 0.95);
        if !(lo..=hi).contains(&ratio) {
            eprintln!(
                "[fault-sweep --quick] delivery ratio {ratio:.3} outside pinned band [{lo}, {hi}]"
            );
            std::process::exit(1);
        }
        if point.retries == 0 {
            eprintln!("[fault-sweep --quick] expected non-zero ARQ retries at BER 1e-4");
            std::process::exit(1);
        }
        println!("[fault-sweep --quick] delivery ratio {ratio:.3} within pinned band [{lo}, {hi}]");
    } else {
        let monotone_delivery = points
            .windows(2)
            .all(|w| w[1].delivery_ratio() <= w[0].delivery_ratio() + 1e-9);
        let monotone_retries = points
            .windows(2)
            .all(|w| w[1].mean_retries() + 1e-9 >= w[0].mean_retries());
        println!(
            "delivery ratio monotonically non-increasing: {monotone_delivery}; \
             mean retries monotonically non-decreasing: {monotone_retries}"
        );
    }
}

/// Runs the TUTMAC case study with a [`Recorder`] attached and writes
/// the requested export files.
fn run_traced(trace: Option<&str>, vcd: Option<&str>, prom: Option<&str>) {
    let system = tut_bench::paper_system();
    let mut recorder = Recorder::new();
    tut_profiling::profile_system_prof(
        &system,
        tut_bench::table4_config(),
        &mut NoFaults,
        &mut recorder,
        NoProf,
    )
    .expect("traced profiling run");

    let tracks = recorder.tracks();
    let pe_tracks = tracks.iter().filter(|t| t.name.starts_with("pe/")).count();
    let hibi_tracks = tracks
        .iter()
        .filter(|t| t.name.starts_with("hibi/"))
        .count();
    println!(
        "[trace] {} events on {} tracks ({} processing elements, {} HIBI segments)",
        recorder.len(),
        tracks.len(),
        pe_tracks,
        hibi_tracks
    );

    let write = |path: &str, contents: &str, what: &str| {
        tut_store::write_atomic(std::path::Path::new(path), contents.as_bytes())
            .unwrap_or_else(|e| panic!("writing {what} to `{path}`: {e}"));
        println!("[trace] wrote {what}: {path} ({} bytes)", contents.len());
    };
    if let Some(path) = trace {
        write(
            path,
            &tut_trace::chrome::to_chrome_json(&recorder),
            "Chrome trace JSON",
        );
    }
    if let Some(path) = vcd {
        let text = tut_trace::vcd::to_vcd(&recorder, "hibi/");
        tut_trace::vcd::validate_vcd(&text).expect("VCD export validates");
        write(path, &text, "VCD waveform");
    }
    if let Some(path) = prom {
        write(
            path,
            &tut_trace::prom::to_prometheus(&recorder.metrics),
            "Prometheus metrics",
        );
    }
}

/// Runs the `check` item: every path (or the serialised paper system
/// when none is given) through the incremental query pipeline. Each
/// distinct file is read, hashed and checked exactly once — repeated
/// paths reuse the first outcome. Returns the process exit code per the
/// contract: errors → 1, warnings only → 0, an unreadable path → 2
/// (before any file is checked or the store is opened).
fn run_check(
    paths: &[String],
    json: bool,
    cache_stats: bool,
    store: Option<&std::path::Path>,
) -> i32 {
    use tut_bench::incremental::{CheckOutcome, Checker};
    let mut sources: Vec<(&str, String)> = Vec::new();
    for path in paths {
        if sources.iter().any(|(seen, _)| *seen == path.as_str()) {
            continue;
        }
        match std::fs::read_to_string(path) {
            Ok(text) => sources.push((path, text)),
            Err(e) => {
                eprintln!("[check] cannot read `{path}`: {e}");
                return 2;
            }
        }
    }
    let mut checker = Checker::new();
    if let Some(dir) = store {
        match checker.open_disk(&dir.join("check-cache.journal")) {
            Ok(n) => eprintln!("[check] disk cache attached ({n} cached reports)"),
            Err(e) => eprintln!("[check] W0503: disk cache unavailable ({e}); running memory-only"),
        }
    }
    let outcomes: Vec<CheckOutcome> = if paths.is_empty() {
        vec![checker.check("paper-system.xml", &tut_bench::paper_system().to_xml())]
    } else {
        let by_path: std::collections::HashMap<&str, CheckOutcome> = sources
            .iter()
            .map(|(path, text)| (*path, checker.check(path, text)))
            .collect();
        paths
            .iter()
            .map(|path| by_path[path.as_str()].clone())
            .collect()
    };
    let mut failed = false;
    for (i, outcome) in outcomes.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if json {
            println!("{}", outcome.json);
        } else {
            print!("{}", outcome.text);
        }
        failed |= outcome.has_errors;
    }
    if cache_stats {
        print!("{}", checker.stats().render());
    }
    i32::from(failed)
}

/// The items `all` (or an empty item list) runs, in order.
const ALL_ITEMS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "table1",
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table4",
    "explore",
    "fault-sweep",
];

/// Reports a command-line mistake and exits 2 before any item runs.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Rejects an export path no file can be written to — one that names a
/// directory, or whose directory does not exist — before the traced run
/// spends its time.
fn check_export_path(flag: &str, path: &str) {
    let file = std::path::Path::new(path);
    let dir = file
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(std::path::Path::new("."));
    if file.is_dir() {
        usage_error(&format!("{flag} `{path}` is a directory"));
    }
    if !dir.is_dir() {
        usage_error(&format!(
            "{flag} `{path}`: directory `{}` does not exist",
            dir.display()
        ));
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let (mut trace, mut vcd, mut prom) = (None, None, None);
    let mut quick = false;
    let mut json = false;
    let mut cache_stats = false;
    let mut folded = false;
    let mut top = None;
    let mut store: Option<String> = None;
    let mut iter = raw.into_iter();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| {
            iter.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs an argument")))
        };
        match arg.as_str() {
            "--trace" => trace = Some(take("--trace")),
            "--vcd" => vcd = Some(take("--vcd")),
            "--prom" => prom = Some(take("--prom")),
            "--quick" => quick = true,
            "--json" => json = true,
            "--cache-stats" => cache_stats = true,
            "--folded" => folded = true,
            "--store" => store = Some(take("--store")),
            "--top" => {
                let rows = take("--top");
                top = Some(rows.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--top needs a number of table rows, not `{rows}`"))
                }))
            }
            _ => args.push(arg),
        }
    }
    // `check` consumes the rest of the argument list as model paths.
    if args.first().map(String::as_str) == Some("check") {
        let store_dir = store.as_deref().map(std::path::Path::new);
        std::process::exit(run_check(&args[1..], json, cache_stats, store_dir));
    }
    // `watch` consumes exactly one model path and re-checks it on save.
    if args.first().map(String::as_str) == Some("watch") {
        let [path] = &args[1..] else {
            eprintln!("watch takes exactly one model path");
            std::process::exit(2);
        };
        let store_dir = store.as_deref().map(std::path::Path::new);
        std::process::exit(tut_bench::watch::run_watch(
            path,
            json,
            cache_stats,
            store_dir,
        ));
    }
    if store.is_some() {
        eprintln!("--store applies only to `check` and `watch`");
        std::process::exit(2);
    }
    if args.first().map(String::as_str) == Some("bench-check") {
        std::process::exit(tut_bench::benchcheck::run_bench_check(quick));
    }
    // `profile` consumes the rest as the (single, optional) workload item.
    if args.first().map(String::as_str) == Some("profile") {
        let flags = tut_bench::profile_cmd::ProfileFlags {
            quick,
            json,
            folded,
            top,
        };
        std::process::exit(tut_bench::profile_cmd::run_profile(&args[1..], &flags));
    }
    // Every item is validated before the first one (or the traced run)
    // starts, so a bad item anywhere on the line prints nothing.
    if let Some(unknown) = args.iter().find(|item| {
        !ALL_ITEMS.contains(&item.as_str()) && !["transfers", "all"].contains(&item.as_str())
    }) {
        usage_error(&format!(
            "unknown item `{unknown}`; known: fig1..fig8, table1..table4, transfers, \
             explore, fault-sweep, bench-check, check, watch, profile, all"
        ));
    }
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_ITEMS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for (flag, path) in [("--trace", &trace), ("--vcd", &vcd), ("--prom", &prom)] {
        if let Some(path) = path {
            check_export_path(flag, path);
        }
    }
    let tracing_requested = trace.is_some() || vcd.is_some() || prom.is_some();
    if tracing_requested {
        run_traced(trace.as_deref(), vcd.as_deref(), prom.as_deref());
        if args.is_empty() {
            return;
        }
        println!("\n{}\n", "=".repeat(72));
    }
    let tut = TutProfile::new();
    for (index, item) in selected.iter().enumerate() {
        if index > 0 {
            println!("\n{}\n", "=".repeat(72));
        }
        match *item {
            "fig1" => print_fig1(),
            "fig2" => print_fig2(),
            "fig3" => println!("{}", tut.hierarchy()),
            "table1" => println!("{}", tables::table1(&tut)),
            "table2" => println!("{}", tables::table2(&tut)),
            "table3" => println!("{}", tables::table3(&tut)),
            "fig4" => println!("{}", figures::fig4()),
            "fig5" => println!("{}", figures::fig5()),
            "fig6" => println!("{}", figures::fig6()),
            "fig7" => println!("{}", figures::fig7()),
            "fig8" => println!("{}", figures::fig8()),
            "table4" => print_table4(),
            "transfers" => print_transfers(),
            "explore" => print_explore(),
            "fault-sweep" => print_fault_sweep(quick),
            other => unreachable!("item `{other}` was validated"),
        }
    }
}
