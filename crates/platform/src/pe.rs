//! Processing-element descriptors.

/// The kind of a processing element; mirrors the `Type` tagged value of
/// `«PlatformComponent»` (general / dsp / hw accelerator).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PeKind {
    /// General-purpose soft-core CPU (the paper's Nios-class processors).
    GeneralCpu,
    /// DSP-oriented core.
    DspCpu,
    /// Fixed-function hardware accelerator (the paper's CRC-32 block).
    HwAccelerator,
}

/// A parameterised processing element, assembled from the `Type` and
/// `Frequency` tagged values of the platform model.
#[derive(Clone, PartialEq, Debug)]
pub struct PeDescriptor {
    /// Display name (instance name, e.g. `processor1`).
    pub name: String,
    /// Element kind.
    pub kind: PeKind,
    /// Clock frequency in MHz.
    pub frequency_mhz: u32,
}

impl PeDescriptor {
    /// A descriptor with the given name, kind and frequency (clamped to at
    /// least 1 MHz).
    pub fn new(name: impl Into<String>, kind: PeKind, frequency_mhz: u32) -> PeDescriptor {
        PeDescriptor {
            name: name.into(),
            kind,
            frequency_mhz: frequency_mhz.max(1),
        }
    }

    /// Nanoseconds taken by `cycles` clock cycles on this element.
    pub fn ns_for_cycles(&self, cycles: u64) -> u64 {
        // ns = cycles * 1000 / MHz, rounded up so work never takes 0 time.
        (cycles * 1000)
            .div_ceil(u64::from(self.frequency_mhz))
            .max(u64::from(cycles > 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_to_time_conversion() {
        let pe = PeDescriptor::new("cpu", PeKind::GeneralCpu, 50);
        assert_eq!(pe.ns_for_cycles(50), 1000);
        assert_eq!(pe.ns_for_cycles(0), 0);
        assert_eq!(pe.ns_for_cycles(1), 20);
        let fast = PeDescriptor::new("acc", PeKind::HwAccelerator, 1000);
        assert_eq!(fast.ns_for_cycles(1), 1, "sub-ns work rounds up to 1 ns");
    }

    #[test]
    fn frequency_clamped_to_nonzero() {
        let pe = PeDescriptor::new("cpu", PeKind::GeneralCpu, 0);
        assert_eq!(pe.frequency_mhz, 1);
    }
}
