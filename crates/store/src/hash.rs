//! Stable FNV-1a 64-bit hashing with length-prefixed field framing: the
//! query engine's input fingerprints and the disk report cache's format
//! hash. A cache journal whose header hash differs from the running
//! build's is recreated empty instead of replayed.
//!
//! FNV-1a is used (not `DefaultHasher`) because the hash must be stable
//! across processes, Rust versions, and platforms — it is persisted in
//! the journal header.

/// Incremental FNV-1a 64-bit hasher with length-prefixed field framing.
#[derive(Clone, Debug)]
pub struct JobHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl JobHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> JobHasher {
        JobHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.write(&value.to_le_bytes())
    }

    /// Feeds a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, value: &str) -> &mut Self {
        self.write_u64(value.len() as u64).write(value.as_bytes())
    }

    /// The 64-bit job hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for JobHasher {
    fn default() -> Self {
        JobHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // FNV-1a 64 reference values.
        assert_eq!(JobHasher::new().finish(), FNV_OFFSET);
        assert_eq!(JobHasher::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            JobHasher::new().write(b"foobar").finish(),
            0x85944171f73967e8,
        );
    }

    #[test]
    fn framing_disambiguates_field_boundaries() {
        let ab_c = JobHasher::new().write_str("ab").write_str("c").finish();
        let a_bc = JobHasher::new().write_str("a").write_str("bc").finish();
        assert_ne!(ab_c, a_bc);
    }
}
