//! Processing-element descriptors.

use std::fmt;

/// The kind of a processing element; mirrors the `Type` tagged value of
/// `«PlatformComponent»` (general / dsp / hw accelerator).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PeKind {
    /// General-purpose soft-core CPU (the paper's Nios-class processors).
    #[default]
    GeneralCpu,
    /// DSP-oriented core.
    DspCpu,
    /// Fixed-function hardware accelerator (the paper's CRC-32 block).
    HwAccelerator,
}

impl PeKind {
    /// Stable lowercase name matching the profile's enum literals.
    pub fn name(self) -> &'static str {
        match self {
            PeKind::GeneralCpu => "general",
            PeKind::DspCpu => "dsp",
            PeKind::HwAccelerator => "hw_accelerator",
        }
    }

    /// Parses from the profile literal.
    pub fn from_name(name: &str) -> Option<PeKind> {
        match name {
            "general" => Some(PeKind::GeneralCpu),
            "dsp" => Some(PeKind::DspCpu),
            "hw_accelerator" => Some(PeKind::HwAccelerator),
            _ => None,
        }
    }
}

impl fmt::Display for PeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parameterised processing element, assembled from the `Type`,
/// `Frequency`, `Area`, `Power`, and `IntMemory` tagged values of the
/// platform model.
#[derive(Clone, PartialEq, Debug)]
pub struct PeDescriptor {
    /// Display name (instance name, e.g. `processor1`).
    pub name: String,
    /// Element kind.
    pub kind: PeKind,
    /// Clock frequency in MHz.
    pub frequency_mhz: u32,
    /// Internal memory in bytes.
    pub int_memory_bytes: u64,
    /// Scheduling priority of the instance (higher value = more urgent;
    /// used to break ties between ready processes).
    pub priority: i64,
    /// Declared silicon area (arbitrary units).
    pub area: f64,
    /// Declared power (arbitrary units).
    pub power: f64,
}

impl PeDescriptor {
    /// A descriptor with the given name/kind/frequency and defaults for
    /// the rest.
    pub fn new(name: impl Into<String>, kind: PeKind, frequency_mhz: u32) -> PeDescriptor {
        PeDescriptor {
            name: name.into(),
            kind,
            frequency_mhz: frequency_mhz.max(1),
            int_memory_bytes: 64 * 1024,
            priority: 0,
            area: 1.0,
            power: 0.1,
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
    fn names_round_trip() {
        for kind in [PeKind::GeneralCpu, PeKind::DspCpu, PeKind::HwAccelerator] {
            assert_eq!(PeKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(PeKind::from_name("fpga"), None);
    }

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
