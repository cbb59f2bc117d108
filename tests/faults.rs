//! Fault-injection integration through the facade crate: determinism of
//! seeded [`FaultPlan`]s, the stop-and-wait ARQ contract of the TUTMAC
//! case study under injected bit errors, and the quiescence watchdog on
//! a processing-element outage.

use tut_profile_suite::faults::{FaultConfig, FaultPlan, Outage};
use tut_profile_suite::profiling;
use tut_profile_suite::sim::{RecordRef, SimConfig, SimError, SimReport, Simulation};
use tut_profile_suite::trace::perf::NoProf;
use tut_profile_suite::trace::NoopSink;
use tut_profile_suite::tutmac::{self, TutmacConfig};

/// The paper's case-study system with default calibration.
fn paper_system() -> tut_profile_suite::profile::SystemModel {
    tutmac::build_tutmac_system(&TutmacConfig::default()).expect("tutmac builds")
}

/// A short horizon that still carries dozens of ARQ frames.
fn short_config() -> SimConfig {
    SimConfig::with_horizon_ns(10_000_000)
}

fn run_plain(config: SimConfig) -> SimReport {
    Simulation::from_system(&paper_system(), config)
        .expect("sim builds")
        .run()
        .expect("sim runs")
}

fn run_faulted(config: SimConfig, fault_config: FaultConfig) -> SimReport {
    let mut plan = FaultPlan::new(fault_config);
    Simulation::from_system(&paper_system(), config)
        .expect("sim builds")
        .run_with_faults(&mut plan, &mut NoopSink)
        .expect("sim runs")
}

/// Determinism regression: a zero-rate fault plan must be byte-identical
/// to a build that never heard of fault injection — same report, same
/// log-file text.
#[test]
fn zero_rate_fault_plan_is_byte_identical_to_a_plain_run() {
    let plain = run_plain(short_config());
    let faulted = run_faulted(short_config(), FaultConfig::default());

    assert_eq!(
        plain.log.to_text(),
        faulted.log.to_text(),
        "zero-rate fault plan must not perturb the log-file"
    );
    assert_eq!(plain, faulted, "reports must match field for field");
    assert_eq!(faulted.faults.injected(), 0);
}

/// Same seed, same scenario: the whole campaign is reproducible.
#[test]
fn same_seed_reproduces_the_same_faulted_run() {
    let fault_config = FaultConfig::with_ber(0xABCD, 1e-4);
    let first = run_faulted(short_config(), fault_config.clone());
    let second = run_faulted(short_config(), fault_config);

    assert!(
        first.faults.corrupted > 0,
        "BER 1e-4 over 10 ms should corrupt at least one transfer"
    );
    assert_eq!(first.log.to_text(), second.log.to_text());
    assert_eq!(first, second);

    let other_seed = run_faulted(short_config(), FaultConfig::with_ber(0xDCBA, 1e-4));
    assert_ne!(
        first.log.to_text(),
        other_seed.log.to_text(),
        "a different seed should land faults differently"
    );
}

/// The stop-and-wait ARQ contract, checked frame by frame from the `CNT`
/// records of the log: for any seeded error rate below 1.0, every frame
/// the sender does not give up on is acknowledged exactly once, frames
/// are handled strictly one at a time (in order), and no frame is
/// retried past the configured cap.
#[test]
fn arq_delivers_every_non_abandoned_frame_exactly_once_in_order() {
    // Disable the channel's deterministic ack-loss so injected bit
    // errors are the only disturbance under test.
    let tutmac_config = TutmacConfig {
        loss_modulus: 0,
        ..TutmacConfig::default()
    };
    let system = tutmac::build_tutmac_system(&tutmac_config).expect("tutmac builds");

    for seed in [0xA1, 0xB2, 0xC3] {
        for ber in [1e-5, 1e-4] {
            let mut plan = FaultPlan::new(FaultConfig::with_ber(seed, ber));
            let report = Simulation::from_system(&system, short_config())
                .expect("sim builds")
                .run_with_faults(&mut plan, &mut NoopSink)
                .expect("sim runs");

            check_arq_contract(&report, tutmac_config.max_retries, seed, ber);
        }
    }
}

/// Walks the log's `arq.*` counter records and asserts the per-frame
/// stop-and-wait invariants.
fn check_arq_contract(report: &SimReport, max_retries: i64, seed: u64, ber: f64) {
    let ctx = format!("seed {seed:#x}, BER {ber:e}");
    let mut open = false; // a frame window is in flight
    let mut window_retries = 0i64;
    let mut window_outcomes = 0i64; // acked + gave_up of the open window
    let mut tx = 0i64;
    let mut acked = 0i64;
    let mut gave_up = 0i64;

    for record in report.log.iter() {
        let RecordRef::Count {
            counter, amount, ..
        } = record
        else {
            continue;
        };
        match counter {
            "arq.tx" => {
                // The previous frame must be fully settled before the
                // next one starts: that is the in-order guarantee of
                // stop-and-wait.
                if open {
                    assert_eq!(
                        window_outcomes, 1,
                        "{ctx}: frame window must settle (ack or give-up) before the next tx"
                    );
                }
                open = true;
                window_retries = 0;
                window_outcomes = 0;
                tx += amount;
            }
            "arq.retries" => {
                assert!(open, "{ctx}: retry outside any frame window");
                assert_eq!(window_outcomes, 0, "{ctx}: retry after the frame settled");
                window_retries += amount;
                assert!(
                    window_retries <= max_retries,
                    "{ctx}: frame exceeded the retry cap ({window_retries} > {max_retries})"
                );
            }
            "arq.acked" | "arq.gave_up" => {
                assert!(open, "{ctx}: outcome outside any frame window");
                window_outcomes += amount;
                assert_eq!(
                    window_outcomes, 1,
                    "{ctx}: a frame must settle exactly once (duplicate ack or give-up)"
                );
                if counter == "arq.acked" {
                    acked += amount;
                } else {
                    gave_up += amount;
                }
            }
            _ => {}
        }
    }

    assert!(tx > 0, "{ctx}: the run should transmit at least one frame");
    assert!(acked > 0, "{ctx}: some frames should get through");
    assert!(
        acked + gave_up <= tx,
        "{ctx}: settled frames cannot exceed transmissions"
    );
    assert!(
        report
            .log
            .iter()
            .any(|r| matches!(r, RecordRef::Count { counter, .. } if counter == "arq.tx")),
        "{ctx}: counter records must be present in the log"
    );
}

/// A permanent outage of every mapped processing element leaves only the
/// environment ticking: the run makes no useful progress, and the
/// quiescence watchdog must convert that livelock into an error naming
/// the starved processes.
#[test]
fn pe_outage_trips_the_quiescence_watchdog() {
    let mut config = SimConfig::with_horizon_ns(20_000_000);
    config.watchdog.quiescence_ns = 2_000_000;

    // Control: the un-faulted system finishes under the same watchdog.
    let mut none = FaultPlan::new(FaultConfig::default());
    Simulation::from_system(&paper_system(), config.clone())
        .expect("sim builds")
        .run_with_faults(&mut none, &mut NoopSink)
        .expect("the healthy system must not trip the watchdog");

    let outages = ["processor1", "processor2", "processor3", "accelerator1"]
        .into_iter()
        .map(|pe| Outage {
            pe: pe.to_owned(),
            from_ns: 0,
            until_ns: u64::MAX,
        })
        .collect();
    let mut plan = FaultPlan::new(FaultConfig {
        outages,
        ..FaultConfig::default()
    });
    let err = Simulation::from_system(&paper_system(), config)
        .expect("sim builds")
        .run_with_faults(&mut plan, &mut NoopSink)
        .expect_err("a fully stalled platform must trip the watchdog");

    match err {
        SimError::WatchdogExpired {
            limit,
            hot_processes,
            time_ns,
            ..
        } => {
            assert_eq!(limit, "quiescence");
            assert!(
                !hot_processes.is_empty(),
                "the error should name the starved processes"
            );
            assert!(time_ns > 0);
        }
        other => panic!("expected WatchdogExpired, got {other}"),
    }
}

/// The profiling report of a lossy run surfaces the fault totals and the
/// retransmission counters of the ARQ process group (the acceptance
/// criterion of the fault-injection campaign).
#[test]
fn profiling_report_surfaces_fault_and_retry_counters() {
    let mut plan = FaultPlan::new(FaultConfig::with_ber(0x7071, 1e-4));
    let report = profiling::profile_system_prof(
        &paper_system(),
        short_config(),
        &mut plan,
        &mut NoopSink,
        NoProf,
    )
    .expect("profiling pipeline");

    assert!(
        report.faults.corrupted > 0,
        "BER 1e-4 should corrupt frames"
    );
    assert!(
        report.counter_total("arq.retries") > 0,
        "corrupted frames must drive retransmissions"
    );
    let retry_group = report
        .group_counters
        .iter()
        .find(|c| c.counter == "arq.retries")
        .expect("retry counter attributed to a process group");
    assert!(
        !retry_group.group.is_empty() && retry_group.total > 0,
        "the retransmitting group must show a non-zero retry counter"
    );
}
