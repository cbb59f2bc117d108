//! Mapping optimisation: assign process groups to platform instances.

use tut_profile::application::ProcessType;
use tut_profile::platform::ComponentKind;
use tut_profile::SystemModel;
use tut_profiling::ProfilingReport;
use tut_trace::perf;
use tut_uml::ids::{ClassId, PropertyId};

/// One processing element as the optimiser sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeInfo {
    /// Clock frequency in MHz.
    pub frequency_mhz: u64,
    /// Element kind.
    pub kind: ComponentKind,
}

/// The abstract mapping problem: group workloads, group kinds, the
/// inter-group communication matrix, the elements, and their pairwise
/// communication distances.
#[derive(Clone, PartialEq, Debug)]
pub struct MappingProblem {
    /// Group names (for reports).
    pub group_names: Vec<String>,
    /// Per-group computation in cycles (measured on the reference run).
    pub group_cycles: Vec<u64>,
    /// Per-group declared `ProcessType`.
    pub group_kinds: Vec<ProcessType>,
    /// Symmetric inter-group signal counts.
    pub comm: Vec<Vec<u64>>,
    /// The candidate elements.
    pub pes: Vec<PeInfo>,
    /// `distance[a][b]`: abstract bus cost between elements (0 on the
    /// same element, 1 on a shared segment, +1 per bridge hop).
    pub distance: Vec<Vec<u64>>,
}

/// Options for [`optimise_mapping`].
#[derive(Clone, PartialEq, Debug)]
pub struct MappingOptions {
    /// Weight of a communication unit against a computation time unit.
    pub comm_weight: f64,
    /// Pinned assignments (`Fixed` mappings): `(group, element)`.
    pub pinned: Vec<(usize, usize)>,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            // One signal crossing one segment costs two cycles/MHz time
            // units. A fixed heuristic, not a calibration: on TUTMAC the
            // static estimate and the simulated bottleneck rank mappings
            // differently (EXPERIMENTS A3, pinned by
            // `experiments_a3_matches_the_simulated_busy_times`).
            comm_weight: 2.0,
            pinned: Vec::new(),
        }
    }
}

/// A mapping result.
#[derive(Clone, PartialEq, Debug)]
pub struct MappingSolution {
    /// `assignment[group] = element`.
    pub assignment: Vec<usize>,
    /// The estimated cost (bottleneck time + weighted communication).
    pub cost: f64,
}

/// How much slower `kind` work runs on a `pe` of the given kind, relative
/// to its natural element (mirrors [`tut_platform::CostModel`]).
fn kind_penalty(group: ProcessType, pe: ComponentKind) -> f64 {
    match (group, pe) {
        (ProcessType::General, ComponentKind::General) => 1.0,
        (ProcessType::General, ComponentKind::Dsp) => 2.0,
        (ProcessType::General, ComponentKind::HwAccelerator) => 32.0,
        (ProcessType::Dsp, ComponentKind::Dsp) => 0.25,
        (ProcessType::Dsp, ComponentKind::General) => 1.0,
        (ProcessType::Dsp, ComponentKind::HwAccelerator) => 32.0,
        (ProcessType::Hardware, ComponentKind::HwAccelerator) => 1.0 / 16.0,
        (ProcessType::Hardware, _) => 1.0,
    }
}

/// The cost of one assignment: bottleneck computation time plus weighted
/// communication distance.
pub fn mapping_cost(
    problem: &MappingProblem,
    assignment: &[usize],
    options: &MappingOptions,
) -> f64 {
    cost_into(problem, assignment, options, &mut Vec::new())
}

/// [`mapping_cost`] with a caller-owned scratch buffer so the inner
/// search loop does not allocate per candidate.
fn cost_into(
    problem: &MappingProblem,
    assignment: &[usize],
    options: &MappingOptions,
    loads: &mut Vec<f64>,
) -> f64 {
    loads.clear();
    loads.resize(problem.pes.len(), 0.0);
    for (group, &pe) in assignment.iter().enumerate() {
        let penalty = kind_penalty(problem.group_kinds[group], problem.pes[pe].kind);
        let time = problem.group_cycles[group] as f64 * penalty
            / problem.pes[pe].frequency_mhz.max(1) as f64;
        loads[pe] += time;
    }
    let bottleneck = loads.iter().cloned().fold(0.0, f64::max);
    // A light total-load term: placements that waste cycles below the
    // bottleneck (e.g. general code parked on the accelerator) still pay.
    let total: f64 = loads.iter().sum();
    let mut comm = 0.0;
    for g in 0..assignment.len() {
        for h in (g + 1)..assignment.len() {
            let signals = problem.comm[g][h] + problem.comm[h][g];
            if signals == 0 {
                continue;
            }
            let distance = problem.distance[assignment[g]][assignment[h]] as f64;
            comm += signals as f64 * distance * options.comm_weight;
        }
    }
    bottleneck + 0.2 * total + comm
}

/// Finds the cost-minimal assignment by exhaustive search. Pinned groups
/// are collapsed out of the enumeration, so the space is
/// `pes^free_groups` (the paper's case is `4^4 = 256` unpinned, `4^3`
/// with the accelerator pin). For larger systems use a coarser group
/// count first. Ties go to the first minimum in enumeration order. The
/// search is the `explore.mapping.search` self-profiler frame (see
/// [`tut_trace::perf`]).
///
/// # Panics
///
/// Panics if the problem is inconsistent (mismatched lengths, pins out of
/// range) or the pin-collapsed search space exceeds `10^7` candidates.
pub fn optimise_mapping(problem: &MappingProblem, options: &MappingOptions) -> MappingSolution {
    let _search_span = perf::enter_named("explore.mapping.search");
    let (mut assignment, free, total) = pin_collapse(problem, options);
    let pes = problem.pes.len();
    let mut best_assignment = assignment.clone();
    let mut best_cost = 0.0;
    let mut loads = Vec::new();
    for index in 0..total {
        let cost = cost_into(problem, &assignment, options, &mut loads);
        if index == 0 || cost < best_cost {
            best_cost = cost;
            best_assignment.copy_from_slice(&assignment);
        }
        // Odometer increment over the free digits, digit 0 fastest.
        for &group in &free {
            assignment[group] += 1;
            if assignment[group] < pes {
                break;
            }
            assignment[group] = 0;
        }
    }
    MappingSolution {
        assignment: best_assignment,
        cost: best_cost,
    }
}

/// Validates the problem, collapses pins out of the enumeration, and
/// returns `(base assignment, free group indices, candidate count)`.
///
/// # Panics
///
/// Panics if the problem is inconsistent (mismatched lengths, pins out
/// of range) or the pin-collapsed space exceeds `10^7` candidates.
fn pin_collapse(
    problem: &MappingProblem,
    options: &MappingOptions,
) -> (Vec<usize>, Vec<usize>, u64) {
    let groups = problem.group_cycles.len();
    assert_eq!(problem.group_kinds.len(), groups);
    assert_eq!(problem.comm.len(), groups);
    let pes = problem.pes.len();
    assert!(pes > 0, "need at least one element");

    let mut pinned: Vec<Option<usize>> = vec![None; groups];
    for &(group, pe) in &options.pinned {
        assert!(group < groups && pe < pes, "pin out of range");
        pinned[group] = Some(pe);
    }
    // Collapse pins out of the odometer: enumerate only the free groups.
    let base: Vec<usize> = pinned.iter().map(|pin| pin.unwrap_or(0)).collect();
    let free: Vec<usize> = (0..groups).filter(|&g| pinned[g].is_none()).collect();
    let space = (pes as f64).powi(free.len() as i32);
    assert!(space <= 1e7, "search space too large: {space}");
    let total = (pes as u64).pow(free.len() as u32);
    (base, free, total)
}

/// Builds a [`MappingProblem`] from a system and its profiling report:
/// group cycles and communication from the report (Table 4), elements and
/// distances from the platform view.
///
/// Returns the problem plus the group classes and instance parts in
/// problem order, so a solution can be applied back with
/// [`crate::apply::apply_mapping`].
///
/// # Errors
///
/// Returns a message when the system has no groups or platform instances.
pub fn problem_from_system(
    system: &SystemModel,
    report: &ProfilingReport,
) -> Result<(MappingProblem, Vec<ClassId>, Vec<PropertyId>), String> {
    let app = system.application();
    let platform = system.platform();
    let groups = app.groups();
    if groups.is_empty() {
        return Err("system has no process groups".into());
    }
    let instances = platform.instances();
    if instances.is_empty() {
        return Err("platform has no component instances".into());
    }

    let group_names: Vec<String> = groups.iter().map(|g| g.name.clone()).collect();
    let group_cycles: Vec<u64> = group_names
        .iter()
        .map(|name| report.group(name).map(|g| g.cycles).unwrap_or(0))
        .collect();
    let group_kinds: Vec<ProcessType> = groups.iter().map(|g| g.process_type).collect();

    let n = group_names.len();
    let mut comm = vec![vec![0u64; n]; n];
    for (i, a) in group_names.iter().enumerate() {
        for (j, b) in group_names.iter().enumerate() {
            comm[i][j] = report.signal_matrix.between(a, b).unwrap_or(0);
        }
    }

    let pes: Vec<PeInfo> = instances
        .iter()
        .map(|i| PeInfo {
            frequency_mhz: i.frequency.max(1) as u64,
            kind: i.kind,
        })
        .collect();

    // Segment distances: BFS over the bridge graph.
    let segments: Vec<PropertyId> = platform.segments().iter().map(|s| s.part).collect();
    let seg_index = |part: PropertyId| segments.iter().position(|&s| s == part);
    let mut seg_adjacent = vec![Vec::new(); segments.len()];
    for bridge in platform.bridges() {
        if let (Some(a), Some(b)) = (seg_index(bridge.a), seg_index(bridge.b)) {
            seg_adjacent[a].push(b);
            seg_adjacent[b].push(a);
        }
    }
    let seg_distance = |from: usize, to: usize| -> u64 {
        if from == to {
            return 1;
        }
        let mut dist = vec![u64::MAX; segments.len()];
        dist[from] = 1;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(s) = queue.pop_front() {
            for &next in &seg_adjacent[s] {
                if dist[next] == u64::MAX {
                    dist[next] = dist[s] + 1;
                    queue.push_back(next);
                }
            }
        }
        if dist[to] == u64::MAX {
            8 // disconnected: strongly discourage
        } else {
            dist[to]
        }
    };

    let pe_segment: Vec<Option<usize>> = instances
        .iter()
        .map(|i| platform.segment_of(i.part).and_then(seg_index))
        .collect();
    let mut distance = vec![vec![0u64; pes.len()]; pes.len()];
    for a in 0..pes.len() {
        for b in 0..pes.len() {
            if a == b {
                continue;
            }
            distance[a][b] = match (pe_segment[a], pe_segment[b]) {
                (Some(sa), Some(sb)) => seg_distance(sa, sb),
                _ => 8,
            };
        }
    }

    let group_classes: Vec<ClassId> = groups.iter().map(|g| g.class).collect();
    let instance_parts: Vec<PropertyId> = instances.iter().map(|i| i.part).collect();
    Ok((
        MappingProblem {
            group_names,
            group_cycles,
            group_kinds,
            comm,
            pes,
            distance,
        },
        group_classes,
        instance_parts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> MappingProblem {
        MappingProblem {
            group_names: vec!["g1".into(), "g2".into(), "hw".into()],
            group_cycles: vec![1000, 900, 50],
            group_kinds: vec![
                ProcessType::General,
                ProcessType::General,
                ProcessType::Hardware,
            ],
            comm: vec![vec![0, 100, 5], vec![100, 0, 0], vec![5, 0, 0]],
            pes: vec![
                PeInfo {
                    frequency_mhz: 50,
                    kind: ComponentKind::General,
                },
                PeInfo {
                    frequency_mhz: 50,
                    kind: ComponentKind::General,
                },
                PeInfo {
                    frequency_mhz: 100,
                    kind: ComponentKind::HwAccelerator,
                },
            ],
            distance: vec![vec![0, 1, 2], vec![1, 0, 2], vec![2, 2, 0]],
        }
    }

    #[test]
    fn hardware_group_lands_on_the_accelerator() {
        // Make the hardware workload heavy and communication-free so the
        // accelerator's 16x compute advantage decides the placement.
        let mut problem = small_problem();
        problem.group_cycles[2] = 20_000;
        problem.comm[0][2] = 0;
        problem.comm[2][0] = 0;
        let solution = optimise_mapping(&problem, &MappingOptions::default());
        assert_eq!(solution.assignment[2], 2, "hw group -> accelerator");
    }

    #[test]
    fn light_chatty_hardware_group_colocates_instead() {
        // The paper-scale case: tiny CRC workload, frequent signals. The
        // optimiser correctly prefers co-location over the accelerator
        // when communication dominates.
        let solution = optimise_mapping(&small_problem(), &MappingOptions::default());
        assert_eq!(
            solution.assignment[2], solution.assignment[0],
            "chatty light group follows its peer"
        );
    }

    #[test]
    fn heavy_communicators_colocate_when_comm_dominates() {
        let options = MappingOptions {
            comm_weight: 1000.0,
            ..MappingOptions::default()
        };
        let solution = optimise_mapping(&small_problem(), &options);
        assert_eq!(
            solution.assignment[0], solution.assignment[1],
            "g1/g2 exchange 200 signals; with heavy comm weight they co-locate"
        );
    }

    #[test]
    fn load_balances_when_comm_is_free() {
        let options = MappingOptions {
            comm_weight: 0.0,
            ..MappingOptions::default()
        };
        let solution = optimise_mapping(&small_problem(), &options);
        assert_ne!(
            solution.assignment[0], solution.assignment[1],
            "with free communication the two heavy groups split"
        );
    }

    #[test]
    fn pins_are_respected() {
        let options = MappingOptions {
            pinned: vec![(0, 1)],
            ..MappingOptions::default()
        };
        let solution = optimise_mapping(&small_problem(), &options);
        assert_eq!(solution.assignment[0], 1);
    }

    #[test]
    fn cost_penalises_general_work_on_the_accelerator() {
        let problem = small_problem();
        let options = MappingOptions::default();
        let on_cpu = mapping_cost(&problem, &[0, 1, 2], &options);
        let on_acc = mapping_cost(&problem, &[2, 1, 2], &options);
        assert!(on_acc > on_cpu);
    }

    #[test]
    fn pin_collapse_shrinks_the_enumerated_space() {
        let (base, free, total) = pin_collapse(
            &small_problem(),
            &MappingOptions {
                pinned: vec![(2, 2)],
                ..MappingOptions::default()
            },
        );
        assert_eq!(base, vec![0, 0, 2], "the pinned group sits on its element");
        assert_eq!(free, vec![0, 1]);
        assert_eq!(
            total, 9,
            "3 pes ^ 2 free groups — the pinned group is out of the odometer"
        );
    }
}
