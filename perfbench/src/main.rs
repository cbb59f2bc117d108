//! Layer-attributed end-to-end benchmark of the TUT-Profile Figure-2
//! flow (read → check → codegen → simulate → profile → explore).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_flow --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One single-threaded process sets the workload up several times
//! (reporting the median as `setup_s`), runs one warm-up iteration
//! (reported on its own, excluded from every median), then iterates until
//! `--seconds` have passed. Every iteration composes the flow from the
//! layers' public calls and times each call from outside; every output
//! is checked, and a failed check counts toward `failed_ratio` instead
//! of aborting the run.
//!
//! With `--trace 0` every iteration runs untraced and the last stdout line
//! carries the end-to-end metrics. With `--trace 1` every other iteration
//! runs with the host self-profiler (`tut_trace::perf`) on; those
//! iterations give the per-layer metrics and the layer table, and their
//! median minus the untraced median is `trace.overhead_ms`.

mod edit_check;
mod fault_campaign;
mod layers;
mod measure;
mod paper_flow;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use layers::{PROCESSES, STAGES};
use measure::{median, ms, quantile};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// End-to-end metrics (printed with `--trace 0`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("iteration_ms", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (printed with `--trace 1`), beyond the per-stage
/// query counters and per-process sim rows generated from the tables
/// above. A layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tutmac.build_ms", "ms"),
    ("uml.to_xml_ms", "ms"),
    ("query.check_ms", "ms"),
    ("query.cold_ms", "ms"),
    ("query.warm_ms", "ms"),
    ("query.warm_p95_ms", "ms"),
    ("check.cold_oracle_ms", "ms"),
    ("query.hit_ratio", "ratio"),
    ("query.recomputed_per_edit", "count"),
    ("codegen.generate_ms", "ms"),
    ("codegen.bytes", "bytes"),
    ("profiling.parse_groups_ms", "ms"),
    ("profiling.analyze_ms", "ms"),
    ("sim.setup_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_record", "ns"),
    ("sim.records_per_s", "1/s"),
    ("sim.records", "count"),
    ("sim.steps", "count"),
    ("sim.event.deliver_ms", "ms"),
    ("sim.event.timer_ms", "ms"),
    ("sim.event.pe_free_ms", "ms"),
    ("sim.loop_self_ms", "ms"),
    ("faults.corrupted", "count"),
    ("faults.dropped", "count"),
    ("arq.tx", "count"),
    ("arq.acked", "count"),
    ("arq.retries", "count"),
    ("arq.delivery_ratio", "ratio"),
    ("explore.partition_ms", "ms"),
    ("explore.mapping_ms", "ms"),
    ("flow.total_ms", "ms"),
    ("flow.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("warmup.first_iter_ms", "ms"),
    ("failed_ratio", "ratio"),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Timed iterations a run makes at least, whatever `--seconds` says.
const MIN_TIMED: usize = 4;

/// Every per-layer metric name with its unit, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for stage in STAGES {
        for counter in ["hits", "misses", "recomputed"] {
            names.push((format!("query.{stage}.{counter}"), "count"));
        }
    }
    for process in PROCESSES {
        names.push((format!("sim.proc.{process}.self_ms"), "ms"));
    }
    names
}

/// One timed iteration of a workload.
pub struct Iteration {
    /// Wall time of the iteration's timed region.
    pub total_ns: u64,
    /// Layer calls inside the timed region, in flow order; whatever they
    /// leave uncovered is `flow.unattributed_ms`.
    pub layers: Vec<(&'static str, u64)>,
    /// Profiler rows nested inside one layer (traced iterations only).
    pub inner: Vec<(String, u64)>,
    /// Operations attempted and failed (a failed output check counts).
    pub attempted: u64,
    pub failed: u64,
}

/// What one set-up cost, split by layer.
pub struct SetupCost {
    pub total_ns: u64,
    pub build_ns: u64,
    pub xml_ns: u64,
}

/// Metric values and report lines a workload adds at the end of a run.
#[derive(Default)]
pub struct Output {
    pub metrics: BTreeMap<String, f64>,
    pub lines: Vec<String>,
}

impl Output {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }
}

pub trait Workload {
    /// Runs one iteration; `traced` turns the host self-profiler on.
    fn iterate(&mut self, traced: bool) -> Iteration;
    /// The workload's own metrics, exact counts and fingerprints.
    fn finish(&self, out: &mut Output);
    /// The issue-level name of one iteration's time (`flow_s`, …) and
    /// the factor from ns to its unit.
    fn iteration_alias(&self) -> (&'static str, f64);
    /// Timed iterations a run makes at least, whatever `--seconds` says.
    fn min_iterations(&self) -> usize {
        MIN_TIMED
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Sets the workload up [`SETUP_REPS`] times and keeps the last one.
fn set_up(name: &str, seed: u64) -> Option<(Box<dyn Workload>, Vec<SetupCost>)> {
    let mut costs = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (workload, cost): (Box<dyn Workload>, SetupCost) = match name {
            "paper_flow" => {
                let (w, c) = paper_flow::PaperFlow::set_up(seed);
                (Box::new(w), c)
            }
            "fault_campaign" => {
                let (w, c) = fault_campaign::FaultCampaign::set_up(seed);
                (Box::new(w), c)
            }
            "edit_check" => {
                let (w, c) = edit_check::EditCheck::set_up(seed);
                (Box::new(w), c)
            }
            _ => return None,
        };
        costs.push(cost);
        last = Some(workload);
    }
    last.map(|w| (w, costs))
}

fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "provenance: nproc={nproc} threads=1 profile={profile} rustc=\"{}\" commit={}",
        env!("PERFBENCH_RUSTC_VERSION"),
        env!("PERFBENCH_GIT_COMMIT"),
    )
}

/// Everything one run measured.
struct Run {
    first: Iteration,
    untraced: Vec<u64>,
    traced: Vec<u64>,
    /// Per-layer sums over the layer-table iterations, in flow order.
    layers: Vec<(&'static str, u64)>,
    inner: BTreeMap<String, u64>,
    table_total: u64,
    table_iters: usize,
    attempted: u64,
    failed: u64,
    min_iterations: usize,
    peak_heap_mb: f64,
}

impl Run {
    /// Mean ms per layer-table iteration.
    fn mean_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.table_iters.max(1) as f64
    }

    fn unattributed_ns(&self) -> u64 {
        let covered: u64 = self.layers.iter().map(|l| l.1).sum();
        self.table_total.saturating_sub(covered)
    }
}

/// One warm-up iteration, then iterations until `budget` has passed (and
/// at least the workload's minimum). With `trace`, every other iteration
/// runs traced and only those feed the layer table.
fn measure_run(workload: &mut dyn Workload, budget: Duration, trace: bool) -> Run {
    // The first iteration in a process pays allocator growth and cold
    // caches; it is reported on its own and excluded from medians.
    let first = workload.iterate(false);
    let mut run = Run {
        attempted: first.attempted,
        failed: first.failed,
        first,
        untraced: Vec::new(),
        traced: Vec::new(),
        layers: Vec::new(),
        inner: BTreeMap::new(),
        table_total: 0,
        table_iters: 0,
        min_iterations: workload.min_iterations(),
        peak_heap_mb: 0.0,
    };
    let started = Instant::now();
    let mut index = 0;
    while index < run.min_iterations || started.elapsed() < budget {
        index += 1;
        let is_traced = trace && index % 2 == 1;
        let it = workload.iterate(is_traced);
        // Peak memory after a fixed amount of work, so it does not grow
        // with the number of iterations that fit into the run.
        if index == run.min_iterations {
            run.peak_heap_mb = measure::peak_heap_mb();
        }
        run.attempted += it.attempted;
        run.failed += it.failed;
        if is_traced {
            run.traced.push(it.total_ns);
        } else {
            run.untraced.push(it.total_ns);
        }
        if is_traced == trace {
            run.table_total += it.total_ns;
            run.table_iters += 1;
            for (name, ns) in it.layers {
                match run.layers.iter_mut().find(|l| l.0 == name) {
                    Some(l) => l.1 += ns,
                    None => run.layers.push((name, ns)),
                }
            }
            for (name, ns) in it.inner {
                *run.inner.entry(name).or_default() += ns;
            }
        }
    }
    run
}

/// Every metric of a run, by name.
fn metrics_of(
    run: &Run,
    setups: &[SetupCost],
    mut out: Output,
    trace: bool,
) -> BTreeMap<String, f64> {
    let setup = |f: fn(&SetupCost) -> u64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let m = &mut out.metrics;
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };
    set("setup_s", setup(|c| c.total_ns) as f64 / 1e9);
    set("iteration_ms", ms(median(&run.untraced)));
    set("peak_heap_mb", run.peak_heap_mb);
    set("tutmac.build_ms", ms(setup(|c| c.build_ns)));
    // A workload whose iterations never serialise reports its set-up's.
    set("uml.to_xml_ms", ms(setup(|c| c.xml_ns)));
    for &(name, ns) in &run.layers {
        set(name, run.mean_ms(ns));
    }
    for (name, &ns) in &run.inner {
        set(name, run.mean_ms(ns));
    }
    set("flow.total_ms", run.mean_ms(run.table_total));
    set("flow.unattributed_ms", run.mean_ms(run.unattributed_ns()));
    if trace {
        set(
            "trace.overhead_ms",
            ms(median(&run.traced)) - ms(median(&run.untraced)),
        );
    }
    set("warmup.first_iter_ms", ms(run.first.total_ns));
    set(
        "failed_ratio",
        run.failed as f64 / run.attempted.max(1) as f64,
    );
    let records = m.get("sim.records").copied().unwrap_or(0.0);
    let run_ms = m.get("sim.run_ms").copied().unwrap_or(0.0);
    if records > 0.0 && run_ms > 0.0 {
        m.insert("sim.ns_per_record".into(), run_ms * 1e6 / records);
        m.insert("sim.records_per_s".into(), records / (run_ms / 1e3));
    }
    out.metrics
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper_flow|fault_campaign|edit_check \
                 --seed N --seconds N --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let Some((mut workload, setups)) = set_up(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload `{}`; known: paper_flow, fault_campaign, edit_check",
            args.workload
        );
        std::process::exit(2);
    };
    let run = measure_run(
        workload.as_mut(),
        Duration::from_secs(args.seconds),
        args.trace,
    );
    let mut out = Output::default();
    workload.finish(&mut out);
    let lines = std::mem::take(&mut out.lines);
    let metrics = metrics_of(&run, &setups, out, args.trace);

    // Human-readable report, then the one-line result.
    let (alias, scale) = workload.iteration_alias();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", provenance());
    println!(
        "samples: setup={} warm-up=1 untraced={} traced={}",
        setups.len(),
        run.untraced.len(),
        run.traced.len()
    );
    println!(
        "{alias} = {:.6} (median of {} untraced iterations; p95 {:.6}; warm-up iteration {:.6})",
        median(&run.untraced) as f64 * scale,
        run.untraced.len(),
        quantile(&run.untraced, 0.95) as f64 * scale,
        run.first.total_ns as f64 * scale,
    );
    println!(
        "memory: peak live heap {:.3} MiB after set-up, warm-up and {} timed iterations",
        run.peak_heap_mb, run.min_iterations
    );
    for line in &lines {
        println!("{line}");
    }
    println!(
        "layer table ({} iterations, mean ms per iteration):",
        if args.trace { "traced" } else { "untraced" }
    );
    let total_ms = run.mean_ms(run.table_total);
    let rows = run
        .layers
        .iter()
        .map(|&(name, ns)| (name, ns))
        .chain([("flow.unattributed_ms", run.unattributed_ns())]);
    for (name, ns) in rows {
        let v = run.mean_ms(ns);
        println!(
            "  {name:<28} {v:>12.4}  {:>6.1} %",
            100.0 * v / total_ms.max(1e-12)
        );
    }
    println!("  {:<28} {total_ms:>12.4}  100.0 %", "flow.total_ms");

    let end_to_end: Vec<(String, &str)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    println!("metrics:");
    for (name, unit) in end_to_end.iter().chain(&per_layer_names()) {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<36} {value:>16} {unit}");
    }
    let selected = if args.trace {
        per_layer_names()
    } else {
        end_to_end
    };
    let body: Vec<String> = selected
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
