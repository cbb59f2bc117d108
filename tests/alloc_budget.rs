//! Allocation budgets of the simulation step, the log analysis and the
//! XML reader.
//!
//! Simulated time never depends on how the host allocates, so these
//! bounds pin host cost only. A run-to-completion step of
//! `Simulation::run` allocates only what its payload needs: the send
//! payload `Vec` and the `Bytes` data the actions compute. `analyze_log`
//! aggregates the log's interned records and allocates only for the
//! report, so its allocation count must not grow with the record count.
//! `XmlNode::parse` borrows every string it can from the input, so it
//! allocates once per element with attributes and once per element with
//! children.
//!
//! The counting allocator tallies per thread, so tests running in
//! parallel in this binary cannot charge each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tut_profile_suite::profiling::{analyze::analyze_log, groups::gather_groups};
use tut_profile_suite::sim::{SimConfig, Simulation};
use tut_profile_suite::tutmac::{build_tutmac_system, TutmacConfig};
use tut_profile_suite::uml::xml::XmlNode;

/// The system allocator, counting allocation calls (fresh and resized
/// blocks) on the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter only observes calls.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// 200 ms of the paper's default load: long enough for `frag`'s backlog
/// and the ARQ exchange to reach their steady state.
const HORIZON_NS: u64 = 200_000_000;

#[test]
fn simulation_step_allocates_only_payloads() {
    let system = build_tutmac_system(&TutmacConfig::default()).expect("build");
    let sim = Simulation::from_system(&system, SimConfig::with_horizon_ns(HORIZON_NS))
        .expect("sim builds");
    let (report, allocations) = allocations_in(|| sim.run().expect("sim runs"));
    let per_step = allocations as f64 / report.total_steps as f64;
    assert!(
        per_step <= 3.5,
        "{allocations} allocations over {} steps = {per_step:.2} per step (budget 3.5)",
        report.total_steps
    );
}

#[test]
fn log_analysis_allocations_do_not_grow_with_records() {
    let system = build_tutmac_system(&TutmacConfig::default()).expect("build");
    let groups = gather_groups(&system).expect("groups");
    let log = Simulation::from_system(&system, SimConfig::with_horizon_ns(HORIZON_NS))
        .expect("sim builds")
        .run()
        .expect("sim runs")
        .log;
    let (report, allocations) = allocations_in(|| analyze_log(&groups, &log));
    assert!(report.total_cycles > 0, "the analysis saw the run");
    assert!(
        allocations * 100 < log.len() as u64,
        "{allocations} allocations for {} records (budget: under 1 per 100)",
        log.len()
    );
}

#[test]
fn xml_parse_allocates_per_element_not_per_string() {
    fn vectors(node: &XmlNode<'_>) -> u64 {
        u64::from(!node.attrs.is_empty())
            + u64::from(!node.children.is_empty())
            + node.children.iter().map(vectors).sum::<u64>()
    }
    let xml = build_tutmac_system(&TutmacConfig::default())
        .expect("build")
        .to_xml();
    let (root, allocations) = allocations_in(|| XmlNode::parse(&xml).expect("parses"));
    // The constant covers the parser's three scratch stacks growing to
    // their peak and the few values that hold an entity reference.
    let budget = vectors(&root) + 32;
    assert!(
        allocations <= budget,
        "{allocations} allocations to parse {} bytes (budget {budget})",
        xml.len()
    );
}
