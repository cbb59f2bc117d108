//! The CRC-32 hardware accelerator model.
//!
//! The paper's platform library "contains implementations of some time
//! critical algorithms, such as Cyclic Redundancy Check (CRC), that can be
//! used for hardware acceleration of protocol functions" (§4). This module
//! models that block: functionally the table-driven CRC-32
//! [`tut_uml::action::crc32`] (IEEE 802.3, bit-exact with the bitwise
//! software reference [`tut_uml::action::crc32_bitwise`]) with
//! hardware-like timing — a fixed setup cost plus one cycle per input
//! byte.

/// A table-driven CRC-32 engine with a hardware timing model.
#[derive(Clone, Debug)]
pub struct Crc32Accelerator {
    /// Fixed cycles to load the descriptor and start the engine.
    pub setup_cycles: u64,
    /// Bytes consumed per cycle once streaming.
    pub bytes_per_cycle: u64,
}

impl Crc32Accelerator {
    /// Builds the engine with the default timing: 4 setup cycles, 1 byte
    /// per cycle.
    pub fn new() -> Crc32Accelerator {
        Crc32Accelerator {
            setup_cycles: 4,
            bytes_per_cycle: 1,
        }
    }

    /// Computes the CRC-32 of `data` (IEEE 802.3: reflected,
    /// init `!0`, xorout `!0`).
    pub fn compute(&self, data: &[u8]) -> u32 {
        tut_uml::action::crc32(data)
    }

    /// The cycles the engine needs for `len` input bytes.
    pub fn cycles(&self, len: u64) -> u64 {
        self.setup_cycles + len.div_ceil(self.bytes_per_cycle.max(1))
    }

    /// Verifies `data` against an expected CRC (receive-side check).
    pub fn verify(&self, data: &[u8], expected: u32) -> bool {
        self.compute(data) == expected
    }
}

impl Default for Crc32Accelerator {
    fn default() -> Self {
        Crc32Accelerator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_trace::SplitMix64;
    use tut_uml::action::crc32_bitwise;

    #[test]
    fn known_answer() {
        let acc = Crc32Accelerator::new();
        assert_eq!(acc.compute(b"123456789"), 0xCBF4_3926);
        assert_eq!(acc.compute(b""), 0);
    }

    #[test]
    fn verify_catches_corruption() {
        let acc = Crc32Accelerator::new();
        let crc = acc.compute(b"payload");
        assert!(acc.verify(b"payload", crc));
        assert!(!acc.verify(b"paxload", crc));
    }

    #[test]
    fn timing_model() {
        let acc = Crc32Accelerator::new();
        assert_eq!(acc.cycles(0), 4);
        assert_eq!(acc.cycles(100), 104);
    }

    fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        data
    }

    /// The "hardware" (table-driven) and "software" (bitwise) CRC
    /// implementations agree on all inputs — the invariant the paper
    /// relies on when moving CRC from software to the accelerator.
    #[test]
    fn hardware_matches_software_reference() {
        let acc = Crc32Accelerator::new();
        let mut rng = SplitMix64::new(0xC4C3_2001);
        for _ in 0..256 {
            let len = rng.next_index(512);
            let data = random_bytes(&mut rng, len);
            assert_eq!(acc.compute(&data), crc32_bitwise(&data));
        }
    }

    /// Single-bit corruption is always detected.
    #[test]
    fn single_bit_flips_detected() {
        let acc = Crc32Accelerator::new();
        let mut rng = SplitMix64::new(0xC4C3_2002);
        for _ in 0..256 {
            let len = 1 + rng.next_index(255);
            let data = random_bytes(&mut rng, len);
            let crc = acc.compute(&data);
            let mut corrupted = data.clone();
            let index = rng.next_index(corrupted.len());
            let bit = rng.next_index(8);
            corrupted[index] ^= 1 << bit;
            assert!(!acc.verify(&corrupted, crc));
        }
    }
}
