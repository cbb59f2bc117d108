//! Cross-crate integration of the exploration loop: profile → analyse →
//! re-group/re-map → re-profile, asserting the optimiser's results are
//! consistent with the paper's design decisions, and that EXPERIMENTS.md's
//! A2 and A3 rows state the values the loop computes.

use tut_profile_suite::explore;
use tut_profile_suite::profile::application::ProcessType;
use tut_profile_suite::profile::platform::ComponentKind;
use tut_profile_suite::profile::SystemModel;
use tut_profile_suite::profiling;
use tut_profile_suite::sim::{SimConfig, Simulation};
use tut_profile_suite::trace::SplitMix64;
use tut_profile_suite::tutmac::{self, TutmacConfig};

#[test]
fn partitioner_reproduces_the_papers_grouping_intent() {
    let system = tutmac::build_tutmac_system(&TutmacConfig::default()).expect("build");
    let report = profiling::profile_system(&system, SimConfig::with_horizon_ns(20_000_000))
        .expect("profile");
    let graph = explore::CommGraph::from_report(&report);

    // Pin the environment out of the way, then ask for 5 parts.
    let pinned: Vec<(usize, usize)> = graph
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.as_str() == "user" || n.as_str() == "channel")
        .map(|(i, _)| (i, 4))
        .collect();
    let solution = explore::partition(
        &graph,
        &explore::GroupingOptions {
            groups: 5,
            balance_weight: 0.0,
            pinned,
            ..Default::default()
        },
    );

    // The paper's own grouping scored on the same graph.
    let paper: Vec<usize> = graph
        .nodes()
        .iter()
        .map(|name| match name.as_str() {
            "rca" | "mng" | "rmng" => 0,
            "ui.msduRec" | "ui.msduDel" => 1,
            "dp.frag" | "dp.defrag" => 2,
            "dp.crc" => 3,
            _ => 4,
        })
        .collect();
    let paper_cut = graph.cut_weight(&paper);
    assert!(
        solution.cut_weight <= paper_cut,
        "the optimiser must match or beat the paper's manual grouping: {} vs {paper_cut}",
        solution.cut_weight
    );

    // Sanity: heavy communicators end up together.
    let frag = graph.index_of("dp.frag").expect("frag node");
    let crc = graph.index_of("dp.crc").expect("crc node");
    let rca = graph.index_of("rca").expect("rca node");
    let same_cluster = solution.assignment[frag] == solution.assignment[crc]
        || solution.assignment[crc] == solution.assignment[rca];
    assert!(
        same_cluster,
        "crc must join one of its heavy peers (frag or rca)"
    );

    // EXPERIMENTS A2 states these cuts; a round-robin scatter splits
    // communicating neighbours.
    let scatter: Vec<usize> = (0..graph.len()).map(|i| i % 5).collect();
    let row = experiments_row("A2");
    for (label, cut) in [
        ("worst-case scatter", graph.cut_weight(&scatter)),
        ("paper (fig. 6)", paper_cut),
        ("explore partition", solution.cut_weight),
    ] {
        assert_eq!(
            documented_figure(row, label),
            cut,
            "EXPERIMENTS.md A2 `{label}` differs from the computed cut"
        );
    }
}

#[test]
fn remapping_respects_fixed_group4() {
    let (system, handles) =
        tutmac::model::build_with_handles(&TutmacConfig::default()).expect("build");
    let report = profiling::profile_system(&system, SimConfig::with_horizon_ns(10_000_000))
        .expect("profile");
    let (problem, groups, instances) =
        explore::mapping::problem_from_system(&system, &report).expect("problem");

    let acc_index = instances
        .iter()
        .position(|&p| p == handles.accelerator)
        .expect("accelerator");
    let solution = explore::optimise_mapping(
        &problem,
        &explore::MappingOptions {
            pinned: vec![(3, acc_index)],
            ..Default::default()
        },
    );
    let mut remapped = system.clone();
    explore::apply::apply_mapping(&mut remapped, &groups, &instances, &solution.assignment);

    // group4's mapping is Fixed in the model; whatever the optimiser says,
    // it stays on the accelerator.
    assert_eq!(
        remapped.mapping().instance_of(handles.groups[3]),
        Some(handles.accelerator)
    );
    // The remapped system still validates and simulates.
    assert!(remapped.validate_errors().is_empty());
    let report2 = profiling::profile_system(&remapped, SimConfig::with_horizon_ns(5_000_000))
        .expect("reprofile");
    assert!(report2.total_cycles > 0);
}

/// `repro explore`'s answer on the paper system, pinned bit for bit: a
/// change to either optimiser's search order, cost arithmetic or seeding
/// shows here.
#[test]
fn repro_explore_finds_the_pinned_design() {
    let explore = tut_bench::explore_paper_system();
    assert_eq!(explore.nodes, 10);
    assert_eq!(explore.grouping.cut_weight, 0);
    assert_eq!(explore.grouping.objective.to_bits(), 0.0f64.to_bits());
    assert_eq!(explore.grouping.assignment, vec![4; 10]);
    assert_eq!(
        explore.group_names,
        ["group1", "group2", "group3", "group4"]
    );
    assert_eq!(explore.pes, 4);
    assert_eq!(explore.mapping.assignment, vec![2, 0, 2, 3]);
    assert_eq!(
        explore.mapping.cost.to_bits(),
        0x40d3_f69f_be76_c8b5,
        "mapping cost {} moved",
        explore.mapping.cost
    );
}

/// Property: the exhaustive mapping search returns the first minimum of
/// `mapping_cost` over every assignment that honours the pins, across
/// random problems and pin sets.
#[test]
fn mapping_search_matches_brute_force_on_random_problems() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    let kinds = [
        ProcessType::General,
        ProcessType::Dsp,
        ProcessType::Hardware,
    ];
    let pe_kinds = [
        ComponentKind::General,
        ComponentKind::Dsp,
        ComponentKind::HwAccelerator,
    ];
    for _case in 0..25 {
        let groups = 2 + rng.next_index(4);
        let pes = 2 + rng.next_index(3);
        let mut comm = vec![vec![0u64; groups]; groups];
        for (g, row) in comm.iter_mut().enumerate() {
            for (h, cell) in row.iter_mut().enumerate() {
                if g != h {
                    *cell = rng.next_below(200);
                }
            }
        }
        let mut distance = vec![vec![0u64; pes]; pes];
        for (a, row) in distance.iter_mut().enumerate() {
            for (b, cell) in row.iter_mut().enumerate() {
                if a != b {
                    *cell = 1 + rng.next_below(3);
                }
            }
        }
        let problem = explore::mapping::MappingProblem {
            group_names: (0..groups).map(|g| format!("g{g}")).collect(),
            group_cycles: (0..groups).map(|_| rng.next_below(100_000)).collect(),
            group_kinds: (0..groups).map(|_| kinds[rng.next_index(3)]).collect(),
            comm,
            pes: (0..pes)
                .map(|_| explore::mapping::PeInfo {
                    frequency_mhz: 1 + rng.next_below(200),
                    kind: pe_kinds[rng.next_index(3)],
                })
                .collect(),
            distance,
        };
        let mut pinned: Vec<(usize, usize)> = Vec::new();
        for g in 0..groups {
            if rng.next_below(3) == 0 {
                pinned.push((g, rng.next_index(pes)));
            }
        }
        let options = explore::MappingOptions {
            pinned: pinned.clone(),
            ..Default::default()
        };
        let found = explore::optimise_mapping(&problem, &options);

        // Every assignment in lexicographic order; the first strict
        // minimum wins.
        let mut best: Option<(f64, Vec<usize>)> = None;
        for index in 0..(pes as u64).pow(groups as u32) {
            let assignment: Vec<usize> = (0..groups)
                .map(|g| (index / (pes as u64).pow(g as u32) % pes as u64) as usize)
                .collect();
            if pinned.iter().any(|&(g, pe)| assignment[g] != pe) {
                continue;
            }
            let cost = explore::mapping::mapping_cost(&problem, &assignment, &options);
            if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                best = Some((cost, assignment));
            }
        }
        let (cost, assignment) = best.expect("a feasible assignment");
        assert_eq!(
            found.cost.to_bits(),
            cost.to_bits(),
            "cost differs from brute force (pins {pinned:?})"
        );
        assert_eq!(
            found.assignment, assignment,
            "assignment differs (pins {pinned:?})"
        );
    }
}

#[test]
fn static_and_dynamic_graphs_agree_on_the_heavy_edges() {
    let system = tutmac::build_tutmac_system(&TutmacConfig::default()).expect("build");
    let dynamic = explore::CommGraph::from_report(
        &profiling::profile_system(&system, SimConfig::with_horizon_ns(10_000_000))
            .expect("profile"),
    );
    let static_graph = explore::CommGraph::from_static(&system).expect("static");

    // Every dynamically observed edge exists statically (the static graph
    // over-approximates: it knows connectivity, not traffic volume).
    for (a, b, w) in dynamic.edges() {
        if w == 0 {
            continue;
        }
        let sa = static_graph.index_of(&dynamic.nodes()[a]);
        let sb = static_graph.index_of(&dynamic.nodes()[b]);
        let (Some(sa), Some(sb)) = (sa, sb) else {
            panic!("dynamic node missing statically");
        };
        assert!(
            static_graph.weight(sa, sb) > 0,
            "edge {}-{} observed dynamically but absent statically",
            dynamic.nodes()[a],
            dynamic.nodes()[b]
        );
    }
}

/// `communities` cliques of `per` nodes (intra-weight 20) joined in a
/// ring by weight-1 bridges.
fn ring_of_communities(communities: usize, per: usize) -> explore::CommGraph {
    let mut g = explore::CommGraph::default();
    for community in 0..communities {
        for node in 0..per {
            g.intern(&format!("c{community}n{node}"));
        }
    }
    for community in 0..communities {
        let base = community * per;
        for a in 0..per {
            for b in (a + 1)..per {
                g.add_edge(base + a, base + b, 20);
            }
        }
        let next = ((community + 1) % communities) * per;
        g.add_edge(base, next, 1);
    }
    g
}

/// The refinement pass priced by a full O(E) objective recompute per
/// candidate move: the reference that `refine`, which prices moves
/// through the incremental `ObjectiveState`, must agree with.
fn refine_full_recompute(
    graph: &explore::CommGraph,
    assignment: &mut [usize],
    groups: usize,
    balance_weight: f64,
) -> f64 {
    let mut current = explore::full_objective(graph, assignment, groups, balance_weight);
    let mut improved = true;
    while improved {
        improved = false;
        for node in 0..graph.len() {
            for group in 0..groups {
                if group == assignment[node] {
                    continue;
                }
                let previous = assignment[node];
                assignment[node] = group;
                let candidate = explore::full_objective(graph, assignment, groups, balance_weight);
                if candidate < current {
                    current = candidate;
                    improved = true;
                } else {
                    assignment[node] = previous;
                }
            }
        }
    }
    current
}

/// EXPERIMENTS A2b: a refinement pass through `ObjectiveState` and one
/// that recomputes the whole objective per candidate move land on the
/// same assignment and a bit-identical objective (16 × 6 ring, scatter
/// start).
#[test]
fn incremental_refinement_matches_full_recompute() {
    let communities = 16;
    let graph = ring_of_communities(communities, 6);
    let scatter: Vec<usize> = (0..graph.len()).map(|i| i % communities).collect();
    let options = explore::GroupingOptions {
        groups: communities,
        balance_weight: 0.2,
        annealing_iterations: 0,
        ..Default::default()
    };

    let start = explore::full_objective(&graph, &scatter, communities, 0.2);
    let mut full = scatter.clone();
    let full_value = refine_full_recompute(&graph, &mut full, communities, 0.2);
    let mut incremental = scatter;
    let incremental_value = explore::refine(&graph, &mut incremental, &options);
    assert!(
        full_value < start,
        "refinement must improve on the scatter start ({start})"
    );
    assert_eq!(
        full_value.to_bits(),
        incremental_value.to_bits(),
        "objectives differ: full {full_value} vs incremental {incremental_value}"
    );
    assert_eq!(
        full, incremental,
        "refinements settle on different groupings"
    );
}

/// Mapping variants compared by the mapping-exploration experiment (A3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MappingVariant {
    /// The paper's Figure 8 mapping (as built).
    Paper,
    /// Everything (including the CRC group) on `processor1`.
    AllOnProcessor1,
    /// The assignment found by `tut-explore`'s exhaustive search.
    Optimised,
}

impl MappingVariant {
    /// All variants in report order.
    const ALL: [MappingVariant; 3] = [
        MappingVariant::Paper,
        MappingVariant::AllOnProcessor1,
        MappingVariant::Optimised,
    ];

    /// Display label, as EXPERIMENTS.md's A3 row names the variant.
    fn label(self) -> &'static str {
        match self {
            MappingVariant::Paper => "paper (fig. 8)",
            MappingVariant::AllOnProcessor1 => "all-on-processor1",
            MappingVariant::Optimised => "explore-optimised",
        }
    }
}

/// Returns the paper system remapped according to `variant`.
fn system_with_mapping(variant: MappingVariant) -> SystemModel {
    let (mut system, handles) = tut_bench::paper_system_with_handles();
    match variant {
        MappingVariant::Paper => system,
        MappingVariant::AllOnProcessor1 => {
            // group4's mapping is fixed (accelerator); the rest moves.
            let groups = [
                handles.groups[0],
                handles.groups[1],
                handles.groups[2],
                handles.groups[3],
            ];
            let instances = vec![
                handles.processors[0],
                handles.processors[1],
                handles.processors[2],
                handles.accelerator,
            ];
            explore::apply::apply_mapping(&mut system, &groups, &instances, &[0, 0, 0, 0]);
            system
        }
        MappingVariant::Optimised => {
            let report =
                profiling::profile_system(&system, tut_bench::table4_config()).expect("profile");
            let (problem, groups, instances) =
                explore::mapping::problem_from_system(&system, &report).expect("problem");
            // Pin group4 where its Fixed mapping already holds it.
            let acc_index = instances
                .iter()
                .position(|&p| p == handles.accelerator)
                .expect("accelerator instance present");
            let options = explore::mapping::MappingOptions {
                pinned: vec![(3, acc_index)],
                ..Default::default()
            };
            let solution = explore::optimise_mapping(&problem, &options);
            explore::apply::apply_mapping(&mut system, &groups, &instances, &solution.assignment);
            system
        }
    }
}

/// The bottleneck processing-element busy time of a simulation — the
/// makespan-style score the mapping experiment compares.
fn bottleneck_busy_ns(system: &SystemModel, config: SimConfig) -> u64 {
    let report = Simulation::from_system(system, config)
        .expect("simulation builds")
        .run()
        .expect("simulation runs");
    report
        .pes
        .iter()
        .filter(|(_, s)| !s.is_env)
        .map(|(_, s)| s.busy_ns)
        .max()
        .unwrap_or(0)
}

#[test]
fn mapping_variants_build_and_differ() {
    let paper = system_with_mapping(MappingVariant::Paper);
    let all_one = system_with_mapping(MappingVariant::AllOnProcessor1);
    assert_ne!(paper.apps, all_one.apps);
}

#[test]
fn optimised_mapping_is_no_worse_than_all_on_one() {
    let config = SimConfig::with_horizon_ns(5_000_000);
    let all_one = bottleneck_busy_ns(
        &system_with_mapping(MappingVariant::AllOnProcessor1),
        config.clone(),
    );
    let optimised = bottleneck_busy_ns(&system_with_mapping(MappingVariant::Optimised), config);
    assert!(
        optimised <= all_one,
        "optimised {optimised} should not exceed all-on-one {all_one}"
    );
}

/// The EXPERIMENTS.md table row whose first cell is `id`.
fn experiments_row(id: &str) -> &'static str {
    let experiments = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"));
    let prefix = format!("| {id} |");
    experiments
        .lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {id} row"))
}

/// The number a row states right after `label: `, written with its
/// digits grouped by spaces (`7 739 040 ns`).
fn documented_figure(row: &str, label: &str) -> u64 {
    let (_, rest) = row
        .split_once(&format!("{label}: "))
        .unwrap_or_else(|| panic!("no `{label}: ` figure in {row}"));
    let digits: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == ' ')
        .filter(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("`{label}: ` is not followed by a number in {row}"))
}

/// EXPERIMENTS A3: the documented 10 ms bottleneck busy time of every
/// mapping variant equals the simulated one, so the row cannot go stale.
#[test]
fn experiments_a3_matches_the_simulated_busy_times() {
    let row = experiments_row("A3");
    for variant in MappingVariant::ALL {
        let busy = bottleneck_busy_ns(
            &system_with_mapping(variant),
            SimConfig::with_horizon_ns(10_000_000),
        );
        assert_eq!(
            documented_figure(row, variant.label()),
            busy,
            "EXPERIMENTS.md A3 `{}` differs from the simulation",
            variant.label()
        );
    }
}
