//! The execution cost model: workload units and action weight → cycles.
//!
//! "The parameterized models are used to perform a high-level
//! hardware/software co-simulation. In that case, the execution of
//! application processes is guided with the properties of the platform
//! components." (§3.2). This table is that guidance: it prices each
//! [`CostClass`] on each [`PeKind`], expressing the match (DSP code on a
//! DSP) and mismatch (bit-twiddling on a plain CPU) the paper's mapping
//! exploration exploits.

use tut_uml::action::CostClass;

use crate::pe::PeKind;

/// Cycles-per-unit table for every (element kind, workload class) pair.
#[derive(Clone, PartialEq, Debug)]
pub struct CostModel {
    /// `cycles[kind][class]`, indexed by [`kind_index`] / [`class_index`].
    table: [[u64; 4]; 3],
    /// Cycles charged per unit of action-language execution weight
    /// (statements, expression nodes), per element kind. A fixed-function
    /// accelerator does not interpret actions — its control flow is wired
    /// logic — so its multiplier is 0 and only `Compute` workload and the
    /// per-step overhead are priced.
    cycles_per_weight: [u64; 3],
    /// Fixed cycles charged per run-to-completion step (dispatch
    /// overhead: dequeue, trigger matching, context), per element kind.
    step_overhead: [u64; 3],
}

fn kind_index(kind: PeKind) -> usize {
    match kind {
        PeKind::GeneralCpu => 0,
        PeKind::DspCpu => 1,
        PeKind::HwAccelerator => 2,
    }
}

fn class_index(class: CostClass) -> usize {
    match class {
        CostClass::Control => 0,
        CostClass::Dsp => 1,
        CostClass::Bit => 2,
        CostClass::Mem => 3,
    }
}

impl CostModel {
    /// The default table used throughout the reproduction:
    ///
    /// | cycles/unit | control | dsp | bit | mem |
    /// |---|---|---|---|---|
    /// | general CPU | 1 | 4 | 16 | 2 |
    /// | DSP CPU | 2 | 1 | 16 | 2 |
    /// | HW accelerator | 64 | 64 | 1 | 4 |
    ///
    /// The accelerator runs bit-level work (CRC) an order of magnitude
    /// faster than a CPU, and is hopeless at general code — matching the
    /// paper's decision to map only `group4` (CRC processing) to
    /// `accelerator1`.
    pub fn paper_defaults() -> CostModel {
        CostModel {
            table: [[1, 4, 16, 2], [2, 1, 16, 2], [64, 64, 1, 4]],
            cycles_per_weight: [2, 2, 0],
            step_overhead: [20, 20, 4],
        }
    }

    /// Cycles for `units` of `class` work on a `kind` element.
    pub fn compute_cycles(&self, kind: PeKind, class: CostClass, units: u64) -> u64 {
        self.table[kind_index(kind)][class_index(class)].saturating_mul(units)
    }

    /// Cycles for `weight` units of action-language interpretation on a
    /// `kind` element.
    pub fn weight_cycles(&self, kind: PeKind, weight: u64) -> u64 {
        self.cycles_per_weight[kind_index(kind)].saturating_mul(weight)
    }

    /// The fixed dispatch overhead per run-to-completion step on a `kind`
    /// element.
    pub fn step_overhead_cycles(&self, kind: PeKind) -> u64 {
        self.step_overhead[kind_index(kind)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accelerator_wins_on_bit_work() {
        let m = CostModel::paper_defaults();
        let on_cpu = m.compute_cycles(PeKind::GeneralCpu, CostClass::Bit, 1000);
        let on_acc = m.compute_cycles(PeKind::HwAccelerator, CostClass::Bit, 1000);
        assert!(
            on_acc * 10 <= on_cpu,
            "accelerator should be >=10x faster on bit work"
        );
    }

    #[test]
    fn dsp_wins_on_dsp_work() {
        let m = CostModel::paper_defaults();
        assert!(
            m.compute_cycles(PeKind::DspCpu, CostClass::Dsp, 100)
                < m.compute_cycles(PeKind::GeneralCpu, CostClass::Dsp, 100)
        );
    }

    #[test]
    fn accelerator_is_terrible_at_control() {
        let m = CostModel::paper_defaults();
        assert!(
            m.compute_cycles(PeKind::HwAccelerator, CostClass::Control, 10)
                > m.compute_cycles(PeKind::GeneralCpu, CostClass::Control, 10)
        );
    }

    #[test]
    fn weight_and_overhead() {
        let m = CostModel::paper_defaults();
        assert_eq!(m.weight_cycles(PeKind::GeneralCpu, 10), 20);
        assert_eq!(
            m.weight_cycles(PeKind::HwAccelerator, 10),
            0,
            "fixed-function logic does not interpret actions"
        );
        assert!(
            m.step_overhead_cycles(PeKind::HwAccelerator)
                < m.step_overhead_cycles(PeKind::GeneralCpu)
        );
    }

    #[test]
    fn paper_default_table_is_pinned() {
        // Regression: the code table drifted from the documented one
        // (accelerator mem was priced at 1 instead of 4). Pin every entry
        // so doc and code cannot diverge silently again.
        let m = CostModel::paper_defaults();
        let expected = [
            (PeKind::GeneralCpu, [1u64, 4, 16, 2]),
            (PeKind::DspCpu, [2, 1, 16, 2]),
            (PeKind::HwAccelerator, [64, 64, 1, 4]),
        ];
        let classes = [
            CostClass::Control,
            CostClass::Dsp,
            CostClass::Bit,
            CostClass::Mem,
        ];
        for (kind, row) in expected {
            for (class, cycles) in classes.into_iter().zip(row) {
                assert_eq!(
                    m.compute_cycles(kind, class, 1),
                    cycles,
                    "{kind:?}/{class:?} must match the documented table"
                );
            }
        }
        for (kind, weight, overhead) in [
            (PeKind::GeneralCpu, 2, 20),
            (PeKind::DspCpu, 2, 20),
            (PeKind::HwAccelerator, 0, 4),
        ] {
            assert_eq!(m.weight_cycles(kind, 1), weight);
            assert_eq!(m.step_overhead_cycles(kind), overhead);
        }
    }

    #[test]
    fn saturating_multiplication() {
        let m = CostModel::paper_defaults();
        let huge = m.compute_cycles(PeKind::GeneralCpu, CostClass::Bit, u64::MAX);
        assert_eq!(huge, u64::MAX);
    }
}
