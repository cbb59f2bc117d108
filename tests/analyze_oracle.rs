//! `analyze_log` against a string-keyed reference.
//!
//! `analyze_log` aggregates the log's interned records by symbol and
//! resolves names only for the report. The reference below is the
//! straightforward form of the same analysis: it walks `SimLog::iter()`,
//! resolves every group by name on every record and keys its tables by
//! owned strings in `BTreeMap`s, whose order is the report's row order.
//! Both must produce the same report, and so must the text path
//! (`analyze`) on the rendered log.

use std::collections::BTreeMap;

use tut_profile_suite::faults::{FaultConfig, FaultPlan};
use tut_profile_suite::profile::application::ProcessType;
use tut_profile_suite::profile::SystemModel;
use tut_profile_suite::profiling::analyze::{analyze, analyze_log};
use tut_profile_suite::profiling::groups::{gather_groups, ProcessGroupInfo, ENVIRONMENT};
use tut_profile_suite::profiling::report::{
    GroupCounter, GroupExec, ProcessTransfer, ProfilingReport, SignalMatrix,
};
use tut_profile_suite::sim::{FaultTally, RecordRef, SimConfig, SimLog, Simulation};
use tut_profile_suite::trace::NoopSink;
use tut_profile_suite::tutmac::{build_tutmac_system, TutmacConfig};
use tut_profile_suite::uml::statemachine::StateMachine;

/// The string-keyed reference analysis.
fn reference(groups: &ProcessGroupInfo, log: &SimLog) -> ProfilingReport {
    let labels = groups.labels();
    let index_of = |label: &str| labels.iter().position(|l| l == label).expect("known label");
    let mut group_cycles = vec![0u64; labels.len()];
    let mut group_busy_ns = vec![0u64; labels.len()];
    let mut matrix = vec![vec![0u64; labels.len()]; labels.len()];
    let mut transfers: BTreeMap<(String, String, String), (u64, u64)> = BTreeMap::new();
    let mut process_cycles: BTreeMap<String, u64> = BTreeMap::new();
    let mut counters: BTreeMap<(String, String), i64> = BTreeMap::new();
    let (mut horizon_ns, mut drops, mut losses) = (0, 0, 0);
    let (mut latency_total_ns, mut latency_count) = (0u64, 0u64);
    let mut faults = FaultTally::default();
    for record in log.iter() {
        horizon_ns = horizon_ns.max(record.time_ns());
        match record {
            RecordRef::Exec {
                process,
                cycles,
                duration_ns,
                ..
            } => {
                let g = index_of(groups.group_of(process));
                group_cycles[g] += cycles;
                group_busy_ns[g] += duration_ns;
                *process_cycles.entry(process.to_owned()).or_default() += cycles;
            }
            RecordRef::Sig {
                sender,
                receiver,
                signal,
                bytes,
                latency_ns,
                ..
            } => {
                let from = index_of(groups.group_of(sender));
                let to = index_of(groups.group_of(receiver));
                matrix[from][to] += 1;
                let entry = transfers
                    .entry((sender.to_owned(), receiver.to_owned(), signal.to_owned()))
                    .or_default();
                entry.0 += 1;
                entry.1 += bytes;
                latency_total_ns += latency_ns;
                latency_count += 1;
            }
            RecordRef::Drop { .. } => drops += 1,
            RecordRef::Lost { .. } => losses += 1,
            RecordRef::Fault { kind, .. } => match kind {
                "corrupt" => faults.corrupted += 1,
                "drop" => faults.dropped += 1,
                "unroutable" => faults.unroutable += 1,
                _ => {}
            },
            RecordRef::Count {
                process,
                counter,
                amount,
                ..
            } => {
                let group = groups.group_of(process).to_owned();
                *counters.entry((group, counter.to_owned())).or_default() += amount;
            }
            RecordRef::User { .. } => {}
        }
    }
    let total_cycles: u64 = group_cycles.iter().sum();
    ProfilingReport {
        horizon_ns,
        total_cycles,
        group_exec: labels
            .iter()
            .zip(group_cycles.iter().zip(&group_busy_ns))
            .map(|(label, (&cycles, &busy_ns))| GroupExec {
                group: label.clone(),
                cycles,
                busy_ns,
                proportion: if total_cycles == 0 {
                    0.0
                } else {
                    cycles as f64 / total_cycles as f64
                },
            })
            .collect(),
        signal_matrix: SignalMatrix {
            labels: labels.clone(),
            counts: matrix,
        },
        process_transfers: transfers
            .into_iter()
            .map(
                |((sender, receiver, signal), (count, bytes))| ProcessTransfer {
                    sender,
                    receiver,
                    signal,
                    count,
                    bytes,
                },
            )
            .collect(),
        process_cycles: process_cycles.into_iter().collect(),
        drops,
        losses,
        mean_signal_latency_ns: if latency_count == 0 {
            0.0
        } else {
            latency_total_ns as f64 / latency_count as f64
        },
        faults,
        group_counters: counters
            .into_iter()
            .map(|((group, counter), total)| GroupCounter {
                group,
                counter,
                total,
            })
            .collect(),
    }
}

/// Asserts that the symbol-keyed analysis, the text path and the
/// reference agree on `log`.
fn assert_matches_reference(groups: &ProcessGroupInfo, log: &SimLog) -> ProfilingReport {
    let report = analyze_log(groups, log);
    assert_eq!(report, reference(groups, log), "analyze_log vs reference");
    let from_text = analyze(groups, &log.to_text()).expect("rendered log parses");
    assert_eq!(from_text, report, "analyze(text) vs analyze_log");
    report
}

#[test]
fn default_load_matches_reference() {
    let system = build_tutmac_system(&TutmacConfig::default()).expect("build");
    let log = Simulation::from_system(&system, SimConfig::with_horizon_ns(200_000_000))
        .expect("sim builds")
        .run()
        .expect("sim runs")
        .log;
    let report = assert_matches_reference(&gather_groups(&system).expect("groups"), &log);
    assert!(report.process_transfers.len() > 1 && report.process_cycles.len() > 1);
}

#[test]
fn faulted_light_load_matches_reference() {
    let system = build_tutmac_system(&TutmacConfig::light_load()).expect("build");
    let mut plan = FaultPlan::new(FaultConfig::with_ber(0x7071, 1e-4));
    let log = Simulation::from_system(&system, SimConfig::with_horizon_ns(1_000_000_000))
        .expect("sim builds")
        .run_with_faults(&mut plan, &mut NoopSink)
        .expect("sim runs")
        .log;
    let report = assert_matches_reference(&gather_groups(&system).expect("groups"), &log);
    // This input covers corrupted transfers and the ARQ and channel
    // counters. It has no discarded input, lost signal, dropped or
    // unroutable transfer: the hand-written log below covers those.
    assert!(report.faults.corrupted > 0, "FAULT records");
    assert!(report.group_counters.len() > 1, "CNT records");
}

/// Two processes, `rca` in `group1` and `mng` in `group2`, with one-state
/// behaviours: only their grouping matters to the analysis.
fn two_group_system() -> SystemModel {
    let mut s = SystemModel::new("Oracle");
    let top = s.model.add_class("Top");
    s.apply(top, |t| t.application).unwrap();
    let worker = s.model.add_class("Worker");
    s.apply(worker, |t| t.application_component).unwrap();
    let mut behaviour = StateMachine::new("WorkerB");
    let idle = behaviour.add_state("Idle");
    behaviour.set_initial(idle);
    s.model.add_state_machine(worker, behaviour);
    for (process, group) in [("rca", "group1"), ("mng", "group2")] {
        let part = s.model.add_part(top, process, worker);
        s.apply(part, |t| t.application_process).unwrap();
        let group = s.add_process_group(group, false, ProcessType::General);
        s.assign_to_group(part, group);
    }
    s
}

#[test]
fn hand_written_log_matches_reference() {
    let groups = gather_groups(&two_group_system()).expect("groups");
    assert_eq!(groups.labels(), ["group1", "group2", ENVIRONMENT]);
    let text = [
        "EXEC 0 rca 900 18000 Idle Busy start",
        "EXEC 10 mng 100 2000 Idle Idle start",
        // `probe` belongs to no group: it falls back to Environment.
        "EXEC 20 probe 0 0 Idle Idle start",
        "EXEC 25 probe 7 70 Idle Idle tick",
        "SIG 30 rca mng Data 16 120",
        "SIG 35 rca mng Data 16 100",
        "SIG 40 mng rca Ack 8 80",
        "SIG 50 probe rca Frame 64 1000",
        "DROP 60 mng Beacon",
        "LOST 70 rca pPhy TxFrame",
        "USER 75 rca hello world",
        "FAULT 80 rca drop TxFrame",
        "FAULT 85 rca unroutable TxFrame",
        // An unknown fault kind is counted nowhere.
        "FAULT 90 rca meltdown TxFrame",
        "CNT 95 rca arq.retries 2",
        "CNT 96 probe arq.retries -1",
        "CNT 97 mng arq.tx 5",
    ]
    .join("\n");
    let log = SimLog::parse(&text).expect("hand-written log parses");
    let report = assert_matches_reference(&groups, &log);
    assert_eq!(report.group(ENVIRONMENT).map(|g| g.cycles), Some(7));
    assert_eq!(
        report.group_counters,
        [
            GroupCounter {
                group: ENVIRONMENT.to_owned(),
                counter: "arq.retries".to_owned(),
                total: -1
            },
            GroupCounter {
                group: "group1".to_owned(),
                counter: "arq.retries".to_owned(),
                total: 2
            },
            GroupCounter {
                group: "group2".to_owned(),
                counter: "arq.tx".to_owned(),
                total: 5
            },
        ]
    );
    assert_eq!(
        (
            report.faults.dropped,
            report.faults.unroutable,
            report.faults.corrupted
        ),
        (1, 1, 0)
    );
}
