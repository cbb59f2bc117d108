//! End-to-end reproduction of the paper's Table 4: build TUTMAC, run the
//! full design & profiling flow, and check the report's *shape* against
//! the paper (group1 dominates ≫ group2 > group3 ≫ group4; the
//! environment executes zero cycles), and check that EXPERIMENTS.md's
//! Table 4a records exactly the cells the report renders.

use tut_profiling::{profile_system, render_table4};
use tut_sim::SimConfig;
use tutmac::{build_tutmac_system, TutmacConfig};

#[test]
fn table4_shape_matches_the_paper() {
    let system = build_tutmac_system(&TutmacConfig::default()).expect("build");
    assert!(system.validate_errors().is_empty());

    let report = profile_system(&system, SimConfig::with_horizon_ns(20_000_000)).expect("profile");
    let table = render_table4(&report);
    println!("{table}");

    let proportion = |name: &str| report.group(name).map(|g| g.proportion).unwrap_or(0.0);
    let g1 = proportion("group1");
    let g2 = proportion("group2");
    let g3 = proportion("group3");
    let g4 = proportion("group4");
    let env = proportion("Environment");

    // Paper: 92.1 / 5.2 / 2.5 / 0.2 / 0.0 %. We require the shape, with
    // generous bands. Pricing accelerator mem work at the documented
    // 4 cycles/unit (it was mistakenly 1) lifts group4 — CRC forwards
    // whole frames, which is mem work — to just under group3, so the
    // band for the smallest group is 4%.
    assert!(g1 > 0.80, "group1 must dominate: {g1:.3}\n{table}");
    assert!(
        g2 > g3,
        "group2 ({g2:.3}) should exceed group3 ({g3:.3})\n{table}"
    );
    assert!(
        g3 > g4,
        "group3 ({g3:.3}) should exceed group4 ({g4:.3})\n{table}"
    );
    assert!(
        g4 < 0.04,
        "group4 on the accelerator must stay the smallest: {g4:.4}\n{table}"
    );
    assert!(
        env == 0.0,
        "environment must execute zero cycles: {env}\n{table}"
    );

    // Communication structure (Table 4b): groups do exchange signals, and
    // the environment row is populated (user traffic + channel).
    let matrix = &report.signal_matrix;
    assert!(
        matrix.between("group3", "group4").unwrap_or(0) > 0,
        "frag -> crc"
    );
    assert!(
        matrix.between("group4", "group1").unwrap_or(0) > 0,
        "crc -> rca"
    );
    assert!(
        matrix.between("Environment", "group1").unwrap_or(0) > 0,
        "channel acks/frames -> rca"
    );

    // The protocol actually works: data is delivered end to end.
    assert!(
        matrix.between("group2", "Environment").unwrap_or(0) > 0,
        "msduDel -> user deliveries:\n{table}"
    );
}

#[test]
fn deterministic_table4() {
    let system = build_tutmac_system(&TutmacConfig::default()).expect("build");
    let a = profile_system(&system, SimConfig::with_horizon_ns(5_000_000)).expect("profile a");
    let b = profile_system(&system, SimConfig::with_horizon_ns(5_000_000)).expect("profile b");
    assert_eq!(a, b);
}

/// Table 4a's rows as `(group, cycles, proportion)`, the group named as
/// the report prints it (`group1`, …, `Environment`).
type Table4a = Vec<(String, String, String)>;

/// Table 4a as `render_table4` prints it: `group | N cycles | P %`.
fn rendered_table4a(table: &str) -> Table4a {
    table
        .lines()
        .skip_while(|line| !line.starts_with("---"))
        .skip(1)
        .take_while(|line| !line.is_empty())
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let cycles = cells[1].trim_end_matches(" cycles");
            (cells[0].to_owned(), cycles.to_owned(), cells[2].to_owned())
        })
        .collect()
}

/// Table 4a as EXPERIMENTS.md records it: `| Group1 (…) | paper % |
/// N NNN | **P %** |`, digits grouped by spaces and the measured share
/// in bold.
fn documented_table4a(experiments: &str) -> Table4a {
    experiments
        .lines()
        .skip_while(|line| !line.starts_with("### (a) Execution time per process group"))
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter(|line| line.starts_with("| Group") || line.starts_with("| Environment"))
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            let label = cells[0].split(' ').next().unwrap_or_default();
            let group = if label == "Environment" {
                label.to_owned()
            } else {
                label.to_lowercase()
            };
            (
                group,
                cells[2].replace(' ', ""),
                cells[3].trim_matches('*').to_owned(),
            )
        })
        .collect()
}

/// Every measured cell of EXPERIMENTS.md's Table 4a equals what
/// `repro table4` prints, so the documented table cannot go stale.
#[test]
fn experiments_table4a_matches_the_rendered_report() {
    let system = build_tutmac_system(&TutmacConfig::default()).expect("build");
    let report = profile_system(&system, SimConfig::with_horizon_ns(20_000_000)).expect("profile");
    let table = render_table4(&report);
    let experiments = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"));
    let rendered = rendered_table4a(&table);
    assert_eq!(rendered.len(), 5, "five rows:\n{table}");
    assert_eq!(
        documented_table4a(experiments),
        rendered,
        "EXPERIMENTS.md Table 4a differs from `repro table4`:\n{table}"
    );
}
