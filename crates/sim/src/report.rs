//! Simulation results: per-process and per-element statistics plus the
//! log.

use crate::log::SimLog;

/// Per-process counters accumulated during a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProcessStats {
    /// Run-to-completion steps executed.
    pub steps: u64,
    /// Total cycles charged on the process's processing element.
    pub cycles: u64,
    /// Total busy time in nanoseconds.
    pub busy_ns: u64,
    /// Signals sent (counted per receiver).
    pub signals_sent: u64,
    /// Signals received.
    pub signals_received: u64,
    /// Payload bytes sent (including headers, counted per receiver).
    pub bytes_sent: u64,
    /// Inputs discarded with no enabled transition.
    pub drops: u64,
    /// Total time inputs waited in the queue before dispatch (response
    /// time accounting, ns).
    pub queue_wait_ns: u64,
    /// Worst-case single-input queueing delay (ns).
    pub max_queue_wait_ns: u64,
}

/// Per-processing-element counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PeStats {
    /// Total busy time in nanoseconds.
    pub busy_ns: u64,
    /// Total cycles executed.
    pub busy_cycles: u64,
    /// True for the implicit environment element.
    pub is_env: bool,
}

/// Fault-related totals of one run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultTally {
    /// Transfers whose payload was corrupted by the fault model.
    pub corrupted: u64,
    /// Transfers dropped in flight by the fault model.
    pub dropped: u64,
    /// Transfers that found no route and fell back to free local
    /// delivery (a platform-model defect, not an injected fault).
    pub unroutable: u64,
}

impl FaultTally {
    /// Total injected faults (corruptions + drops).
    pub fn injected(&self) -> u64 {
        self.corrupted + self.dropped
    }
}

/// The result of a simulation run.
#[derive(Clone, PartialEq, Debug)]
pub struct SimReport {
    /// Simulated time at the last processed event (ns).
    pub end_time_ns: u64,
    /// Total run-to-completion steps.
    pub total_steps: u64,
    /// The simulation log (write `log.to_text()` to produce the log-file
    /// for the profiling tool).
    pub log: SimLog,
    /// `(process name, stats)` in process order.
    pub processes: Vec<(String, ProcessStats)>,
    /// `(element name, stats)` in element order; index 0 is the
    /// environment.
    pub pes: Vec<(String, PeStats)>,
    /// Fault totals (all zero for an un-faulted run on a routable
    /// platform).
    pub faults: FaultTally,
}

impl SimReport {
    /// Total cycles across all non-environment elements.
    pub fn total_cycles(&self) -> u64 {
        self.pes
            .iter()
            .filter(|(_, s)| !s.is_env)
            .map(|(_, s)| s.busy_cycles)
            .sum()
    }

    /// Stats for one process by name.
    pub fn process(&self, name: &str) -> Option<&ProcessStats> {
        self.processes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Total of one named counter across all processes (from the log's
    /// `CNT` records; see `Statement::Count`). Served from the tallies
    /// the log accumulates at push time — no record rescan.
    pub fn counter_total(&self, counter: &str) -> i64 {
        self.log.counter_total(counter)
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        let mut text = format!(
            "simulated {} steps to t={} ns; {} log records; {} processes on {} elements; total {} cycles",
            self.total_steps,
            self.end_time_ns,
            self.log.len(),
            self.processes.len(),
            self.pes.len(),
            self.total_cycles(),
        );
        if self.faults.injected() > 0 || self.faults.unroutable > 0 {
            text.push_str(&format!(
                "; faults: {} corrupted, {} dropped, {} unroutable",
                self.faults.corrupted, self.faults.dropped, self.faults.unroutable
            ));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogRecord;

    fn sample() -> SimReport {
        SimReport {
            end_time_ns: 1000,
            total_steps: 10,
            log: SimLog::new(),
            processes: vec![(
                "p1".into(),
                ProcessStats {
                    steps: 10,
                    cycles: 500,
                    busy_ns: 600,
                    ..ProcessStats::default()
                },
            )],
            pes: vec![
                (
                    "environment".into(),
                    PeStats {
                        busy_ns: 0,
                        busy_cycles: 0,
                        is_env: true,
                    },
                ),
                (
                    "cpu1".into(),
                    PeStats {
                        busy_ns: 600,
                        busy_cycles: 500,
                        is_env: false,
                    },
                ),
            ],
            faults: FaultTally::default(),
        }
    }

    #[test]
    fn totals_exclude_environment() {
        let r = sample();
        assert_eq!(r.total_cycles(), 500);
    }

    #[test]
    fn lookups() {
        let r = sample();
        assert_eq!(r.process("p1").unwrap().cycles, 500);
        assert!(r.process("nope").is_none());
    }

    #[test]
    fn summary_mentions_counts() {
        let text = sample().summary();
        assert!(text.contains("10 steps"));
        assert!(text.contains("500 cycles"));
        assert!(!text.contains("faults"), "clean run stays quiet");
        let mut lossy = sample();
        lossy.faults.dropped = 3;
        assert!(lossy.summary().contains("3 dropped"));
    }

    #[test]
    fn counter_totals_come_from_the_log() {
        let mut r = sample();
        for (process, amount) in [("p1", 2), ("p1", 3), ("p2", 10)] {
            r.log.push(LogRecord::Count {
                time_ns: 1,
                process: process.into(),
                counter: "arq.tx".into(),
                amount,
            });
        }
        r.log.push(LogRecord::Count {
            time_ns: 2,
            process: "p1".into(),
            counter: "arq.acked".into(),
            amount: 4,
        });
        assert_eq!(r.counter_total("arq.tx"), 15);
        assert_eq!(r.counter_total("nope"), 0);
    }
}
