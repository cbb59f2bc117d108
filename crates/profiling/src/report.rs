//! The profiling report: Table 4 of the paper plus per-process metrics.

use std::fmt::Write as _;

/// One row of Table 4(a): execution time of one process group.
#[derive(Clone, PartialEq, Debug)]
pub struct GroupExec {
    /// Group label.
    pub group: String,
    /// Total execution cycles charged to the group's processes.
    pub cycles: u64,
    /// Total busy time in nanoseconds.
    pub busy_ns: u64,
    /// The group's share of all cycles, in `[0, 1]`.
    pub proportion: f64,
}

/// Table 4(b): the matrix of signal counts between groups.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignalMatrix {
    /// Row/column labels (sender = row, receiver = column).
    pub labels: Vec<String>,
    /// `counts[sender][receiver]`.
    pub counts: Vec<Vec<u64>>,
}

impl SignalMatrix {
    /// Total signals in the matrix.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Signals crossing group boundaries (off-diagonal sum) — the
    /// quantity the paper's grouping minimises.
    pub fn inter_group(&self) -> u64 {
        let mut sum = 0;
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &count) in row.iter().enumerate() {
                if i != j {
                    sum += count;
                }
            }
        }
        sum
    }

    /// The count from one label to another, if both exist.
    pub fn between(&self, from: &str, to: &str) -> Option<u64> {
        let i = self.labels.iter().position(|l| l == from)?;
        let j = self.labels.iter().position(|l| l == to)?;
        Some(self.counts[i][j])
    }
}

/// One per-process transfer row ("other metrics, such as transfers
/// between individual application processes, are also available", §4.4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProcessTransfer {
    /// Sending process instance.
    pub sender: String,
    /// Receiving process instance.
    pub receiver: String,
    /// Signal type.
    pub signal: String,
    /// Number of signals.
    pub count: u64,
    /// Total payload bytes.
    pub bytes: u64,
}

/// One per-group protocol counter total, accumulated from the log's
/// `CNT` records (see `tut_uml::action::Statement::Count`): ARQ frame
/// tallies, retries, give-ups and any other model-defined counters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupCounter {
    /// Group label the counting process belongs to.
    pub group: String,
    /// Counter name (e.g. `arq.retries`).
    pub counter: String,
    /// Signed total over the run.
    pub total: i64,
}

/// The full profiling report.
#[derive(Clone, PartialEq, Debug)]
pub struct ProfilingReport {
    /// Last timestamp in the log (ns).
    pub horizon_ns: u64,
    /// Total cycles across all groups.
    pub total_cycles: u64,
    /// Table 4(a) rows, in group order (Environment last).
    pub group_exec: Vec<GroupExec>,
    /// Table 4(b).
    pub signal_matrix: SignalMatrix,
    /// Per-(sender, receiver, signal) transfer counts.
    pub process_transfers: Vec<ProcessTransfer>,
    /// Per-process cycle totals.
    pub process_cycles: Vec<(String, u64)>,
    /// Signals discarded with no enabled transition.
    pub drops: u64,
    /// Signals sent with no connected receiver.
    pub losses: u64,
    /// Mean end-to-end signal latency (ns).
    pub mean_signal_latency_ns: f64,
    /// Fault events from the log (`FAULT` records by kind).
    pub faults: tut_sim::FaultTally,
    /// Per-group protocol counter totals (`CNT` records), sorted by
    /// group then counter name.
    pub group_counters: Vec<GroupCounter>,
}

impl ProfilingReport {
    /// The Table 4(a) row for one group.
    pub fn group(&self, name: &str) -> Option<&GroupExec> {
        self.group_exec.iter().find(|g| g.group == name)
    }

    /// The group with the largest cycle share.
    pub fn dominant_group(&self) -> Option<&GroupExec> {
        self.group_exec
            .iter()
            .max_by(|a, b| a.cycles.cmp(&b.cycles))
    }

    /// Total of one named counter across all groups.
    pub fn counter_total(&self, counter: &str) -> i64 {
        self.group_counters
            .iter()
            .filter(|c| c.counter == counter)
            .map(|c| c.total)
            .sum()
    }
}

fn pad(text: &str, width: usize) -> String {
    let mut s = text.to_owned();
    while s.chars().count() < width {
        s.push(' ');
    }
    s
}

/// Renders the report in the paper's Table 4 layout.
pub fn render_table4(report: &ProfilingReport) -> String {
    let mut out = String::new();
    out.push_str("Table 4. A profiling report based on the simulations.\n");
    out.push_str("(a)\n");
    out.push_str(&format!(
        "{} | {} | {}\n",
        pad("Process group", 14),
        pad("Total execution time", 22),
        "Proportion"
    ));
    out.push_str(&format!(
        "{}-+-{}-+-{}\n",
        "-".repeat(14),
        "-".repeat(22),
        "-".repeat(10)
    ));
    for row in &report.group_exec {
        out.push_str(&format!(
            "{} | {} | {:>6.1} %\n",
            pad(&row.group, 14),
            pad(&format!("{} cycles", row.cycles), 22),
            row.proportion * 100.0
        ));
    }
    out.push('\n');
    out.push_str("(b) Number of signals between groups\n");
    let matrix = &report.signal_matrix;
    let width = matrix
        .labels
        .iter()
        .map(|l| l.chars().count())
        .max()
        .unwrap_or(8)
        .max(8);
    let _ = write!(out, "{} |", pad("Sender/Receiver", 16));
    for label in &matrix.labels {
        let _ = write!(out, " {}", pad(label, width));
    }
    out.push('\n');
    let _ = write!(out, "{}-+", "-".repeat(16));
    for _ in &matrix.labels {
        let _ = write!(out, "-{}", "-".repeat(width));
    }
    out.push('\n');
    for (i, label) in matrix.labels.iter().enumerate() {
        let _ = write!(out, "{} |", pad(label, 16));
        for j in 0..matrix.labels.len() {
            let _ = write!(out, " {}", pad(&matrix.counts[i][j].to_string(), width));
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&format!(
        "total: {} cycles over {} ns; {} signals ({} inter-group); {} drops, {} lost; mean signal latency {:.0} ns\n",
        report.total_cycles,
        report.horizon_ns,
        matrix.total(),
        matrix.inter_group(),
        report.drops,
        report.losses,
        report.mean_signal_latency_ns
    ));
    if report.faults.injected() > 0 || report.faults.unroutable > 0 {
        out.push_str(&format!(
            "faults: {} corrupted, {} dropped, {} unroutable\n",
            report.faults.corrupted, report.faults.dropped, report.faults.unroutable
        ));
    }
    out
}

/// Renders the per-group protocol counter table (empty string when the
/// model counted nothing).
pub fn render_counters(report: &ProfilingReport) -> String {
    if report.group_counters.is_empty() {
        return String::new();
    }
    let mut out = String::from("Protocol counters per process group\n");
    out.push_str(&format!(
        "{} | {} | {}\n",
        pad("Group", 16),
        pad("Counter", 16),
        "Total"
    ));
    for c in &report.group_counters {
        out.push_str(&format!(
            "{} | {} | {}\n",
            pad(&c.group, 16),
            pad(&c.counter, 16),
            c.total
        ));
    }
    out
}

/// Renders the per-process transfer table (the paper's "other metrics").
pub fn render_transfers(report: &ProfilingReport) -> String {
    let mut out = String::from("Transfers between individual application processes\n");
    out.push_str(&format!(
        "{} | {} | {} | {} | {}\n",
        pad("Sender", 16),
        pad("Receiver", 16),
        pad("Signal", 16),
        pad("Count", 8),
        "Bytes"
    ));
    for t in &report.process_transfers {
        out.push_str(&format!(
            "{} | {} | {} | {} | {}\n",
            pad(&t.sender, 16),
            pad(&t.receiver, 16),
            pad(&t.signal, 16),
            pad(&t.count.to_string(), 8),
            t.bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfilingReport {
        ProfilingReport {
            horizon_ns: 1_000_000,
            total_cycles: 1000,
            group_exec: vec![
                GroupExec {
                    group: "Group1".into(),
                    cycles: 921,
                    busy_ns: 92100,
                    proportion: 0.921,
                },
                GroupExec {
                    group: "Environment".into(),
                    cycles: 0,
                    busy_ns: 0,
                    proportion: 0.0,
                },
            ],
            signal_matrix: SignalMatrix {
                labels: vec!["Group1".into(), "Environment".into()],
                counts: vec![vec![2, 3], vec![5, 0]],
            },
            process_transfers: vec![ProcessTransfer {
                sender: "rca".into(),
                receiver: "mng".into(),
                signal: "Data".into(),
                count: 7,
                bytes: 700,
            }],
            process_cycles: vec![("rca".into(), 921)],
            drops: 1,
            losses: 2,
            mean_signal_latency_ns: 250.0,
            faults: tut_sim::FaultTally::default(),
            group_counters: vec![
                GroupCounter {
                    group: "Group1".into(),
                    counter: "arq.retries".into(),
                    total: 4,
                },
                GroupCounter {
                    group: "Group1".into(),
                    counter: "arq.tx".into(),
                    total: 9,
                },
            ],
        }
    }

    #[test]
    fn matrix_helpers() {
        let r = sample();
        assert_eq!(r.signal_matrix.total(), 10);
        assert_eq!(r.signal_matrix.inter_group(), 8);
        assert_eq!(r.signal_matrix.between("Group1", "Environment"), Some(3));
        assert_eq!(r.signal_matrix.between("Nope", "Environment"), None);
    }

    #[test]
    fn dominant_group() {
        let r = sample();
        assert_eq!(r.dominant_group().unwrap().group, "Group1");
        assert_eq!(r.group("Environment").unwrap().cycles, 0);
    }

    #[test]
    fn table4_rendering_matches_paper_layout() {
        let text = render_table4(&sample());
        assert!(text.contains("(a)"));
        assert!(text.contains("Process group"));
        assert!(text.contains("921 cycles"));
        assert!(text.contains("92.1 %"));
        assert!(text.contains("(b) Number of signals between groups"));
        assert!(text.contains("Sender/Receiver"));
        assert!(text.contains("Environment"));
    }

    #[test]
    fn transfers_rendering() {
        let text = render_transfers(&sample());
        assert!(text.contains("rca"));
        assert!(text.contains("700"));
    }

    #[test]
    fn counter_lookups_and_rendering() {
        let r = sample();
        assert_eq!(r.counter_total("arq.tx"), 9);
        let text = render_counters(&r);
        assert!(text.contains("arq.retries"));
        assert!(text.contains("arq.tx"));

        let mut empty = sample();
        empty.group_counters.clear();
        assert_eq!(render_counters(&empty), "");
    }

    #[test]
    fn faults_appear_in_table4_only_when_present() {
        assert!(!render_table4(&sample()).contains("faults:"));
        let mut lossy = sample();
        lossy.faults.dropped = 5;
        lossy.faults.corrupted = 2;
        let text = render_table4(&lossy);
        assert!(text.contains("faults: 2 corrupted, 5 dropped, 0 unroutable"));
    }
}
