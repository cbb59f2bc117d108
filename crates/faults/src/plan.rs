//! Seeded, reproducible fault plans.

use tut_trace::SplitMix64;

use crate::model::{FaultModel, TransferVerdict};

/// A stall/outage window for one processing element.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outage {
    /// Processing-element instance name (as shown in `SimReport`).
    pub pe: String,
    /// Window start, inclusive, in simulation nanoseconds.
    pub from_ns: u64,
    /// Window end, exclusive (`u64::MAX` for a permanent outage).
    pub until_ns: u64,
}

/// Parameters of a deterministic fault process.
///
/// All rates default to zero: a default-constructed plan injects
/// nothing and draws nothing, so it is behaviourally identical to
/// [`crate::NoFaults`].
#[derive(Clone, PartialEq, Debug)]
pub struct FaultConfig {
    /// PRNG seed; the same seed and scenario reproduce the same run.
    pub seed: u64,
    /// Per-bit probability that a transferred bit is flipped. A
    /// transfer of `b` bytes is corrupted with probability
    /// `1 − (1 − ber)^(8·b)`.
    pub bit_error_rate: f64,
    /// Per-hop probability that a transfer is dropped outright. A
    /// transfer over `h` segments is lost with probability
    /// `1 − (1 − p)^h`.
    pub drop_per_hop: f64,
    /// Maximum extra delay drawn uniformly in `[0, jitter]` whenever a
    /// timer is armed (0 = timers are exact).
    pub timer_jitter_ns: u64,
    /// Stall/outage windows per processing element.
    pub outages: Vec<Outage>,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0x5EED,
            bit_error_rate: 0.0,
            drop_per_hop: 0.0,
            timer_jitter_ns: 0,
            outages: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A plan that only sets the bit-error rate (the common sweep knob).
    pub fn with_ber(seed: u64, bit_error_rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            bit_error_rate,
            ..FaultConfig::default()
        }
    }
}

/// SplitMix64's avalanche finalizer: a cheap bijective mixer used to
/// fold the decision key into a stream seed.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Purpose constants keep the verdict, corruption and jitter streams of
/// one `(now, salt)` key independent of each other.
const PURPOSE_VERDICT: u64 = 0x01;
const PURPOSE_CORRUPT: u64 = 0x02;
const PURPOSE_JITTER: u64 = 0x03;

/// A [`FaultModel`] whose every decision is a pure function of the
/// decision key `(now_ns, salt)` and the plan's configuration.
///
/// Each hook derives a private SplitMix64 stream from
/// `(seed, purpose, now_ns, salt)`, so decisions do not depend on how
/// many other decisions were made before them or in what order, and
/// zero-rate hooks still short-circuit without touching the PRNG at
/// all.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Creates the plan.
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan { config }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The decision stream for one `(purpose, now, salt)` key.
    fn stream(&self, purpose: u64, now_ns: u64, salt: u64) -> SplitMix64 {
        let mut k = self.config.seed;
        k = mix64(k.wrapping_add(purpose));
        k = mix64(k ^ now_ns.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        k = mix64(k ^ salt);
        SplitMix64::new(k)
    }
}

impl FaultModel for FaultPlan {
    fn is_active(&self) -> bool {
        self.config.bit_error_rate > 0.0
            || self.config.drop_per_hop > 0.0
            || self.config.timer_jitter_ns > 0
            || !self.config.outages.is_empty()
    }

    fn transfer_verdict(
        &mut self,
        now_ns: u64,
        bytes: u64,
        hops: u32,
        salt: u64,
    ) -> TransferVerdict {
        // Drop is decided first (a dropped transfer never reaches the
        // receiver to be corrupted). Both decisions read one stream so
        // drop/corrupt outcomes of a single transfer stay correlated
        // the way the sequential draw order was.
        if self.config.drop_per_hop <= 0.0 && self.config.bit_error_rate <= 0.0 {
            return TransferVerdict::Deliver;
        }
        let mut rng = self.stream(PURPOSE_VERDICT, now_ns, salt);
        if self.config.drop_per_hop > 0.0 && hops > 0 {
            let survive = (1.0 - self.config.drop_per_hop).powi(hops as i32);
            if rng.next_f64() >= survive {
                return TransferVerdict::Drop;
            }
        }
        if self.config.bit_error_rate > 0.0 && bytes > 0 {
            let bits = (8 * bytes).min(i32::MAX as u64) as i32;
            let survive = (1.0 - self.config.bit_error_rate).powi(bits);
            if rng.next_f64() >= survive {
                return TransferVerdict::Corrupt;
            }
        }
        TransferVerdict::Deliver
    }

    fn corrupt_payload(&mut self, now_ns: u64, payload: &mut [u8], salt: u64) {
        if payload.is_empty() {
            return;
        }
        let mut rng = self.stream(PURPOSE_CORRUPT, now_ns, salt);
        let bit = rng.next_below(payload.len() as u64 * 8);
        payload[(bit / 8) as usize] ^= 1 << (bit % 8);
    }

    fn timer_jitter_ns(&mut self, now_ns: u64, _duration_ns: u64, salt: u64) -> u64 {
        if self.config.timer_jitter_ns == 0 {
            return 0;
        }
        let mut rng = self.stream(PURPOSE_JITTER, now_ns, salt);
        rng.next_below(self.config.timer_jitter_ns + 1)
    }

    fn outage_until(&mut self, pe: &str, now_ns: u64) -> Option<u64> {
        self.config
            .outages
            .iter()
            .find(|o| o.pe == pe && o.from_ns <= now_ns && now_ns < o.until_ns)
            .map(|o| o.until_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdicts(plan: &mut FaultPlan, n: usize) -> Vec<TransferVerdict> {
        (0..n)
            .map(|k| plan.transfer_verdict(k as u64 * 37, 256, 2, k as u64))
            .collect()
    }

    #[test]
    fn zero_rate_plan_is_inert() {
        let mut plan = FaultPlan::new(FaultConfig::default());
        assert!(!plan.is_active());
        assert!(verdicts(&mut plan, 100)
            .iter()
            .all(|v| *v == TransferVerdict::Deliver));
        assert_eq!(plan.timer_jitter_ns(0, 1000, 7), 0);
        assert_eq!(plan.outage_until("cpu1", 5), None);
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_stream() {
        let config = FaultConfig::with_ber(42, 1e-4);
        let a = verdicts(&mut FaultPlan::new(config.clone()), 500);
        let b = verdicts(&mut FaultPlan::new(config), 500);
        assert_eq!(a, b);
        assert!(a.contains(&TransferVerdict::Corrupt), "rate high enough");
    }

    /// Each decision depends only on its `(now, salt)` key, never on how
    /// many decisions were made before it.
    #[test]
    fn draws_are_pure_functions_of_the_key() {
        let config = FaultConfig {
            seed: 77,
            bit_error_rate: 1e-4,
            drop_per_hop: 0.05,
            timer_jitter_ns: 300,
            ..FaultConfig::default()
        };
        let keys: Vec<(u64, u64)> = (0..200).map(|k| (k * 13, k * 7 + 1)).collect();

        // Forward order.
        let mut plan = FaultPlan::new(config.clone());
        let forward: Vec<_> = keys
            .iter()
            .map(|&(now, salt)| {
                (
                    plan.transfer_verdict(now, 128, 2, salt),
                    plan.timer_jitter_ns(now, 1_000, salt),
                )
            })
            .collect();

        // Reverse order, with unrelated draws interleaved.
        let mut plan = FaultPlan::new(config);
        let mut backward: Vec<_> = keys
            .iter()
            .rev()
            .map(|&(now, salt)| {
                let _noise = plan.transfer_verdict(now + 1, 64, 1, salt ^ 0xFFFF);
                (
                    plan.transfer_verdict(now, 128, 2, salt),
                    plan.timer_jitter_ns(now, 1_000, salt),
                )
            })
            .collect();
        backward.reverse();

        assert_eq!(forward, backward);
        assert!(
            forward.iter().any(|(v, _)| *v != TransferVerdict::Deliver),
            "rates high enough that something fired"
        );
        assert!(forward.iter().any(|(_, j)| *j > 0), "jitter fired");
    }

    #[test]
    fn corruption_rate_grows_with_ber() {
        let count = |ber: f64| {
            verdicts(&mut FaultPlan::new(FaultConfig::with_ber(7, ber)), 2000)
                .iter()
                .filter(|v| **v == TransferVerdict::Corrupt)
                .count()
        };
        let low = count(1e-6);
        let high = count(1e-3);
        assert!(low < high, "corruptions: {low} at 1e-6 vs {high} at 1e-3");
    }

    #[test]
    fn corrupt_payload_flips_exactly_one_bit() {
        let mut plan = FaultPlan::new(FaultConfig::with_ber(9, 1e-3));
        let clean = vec![0u8; 64];
        let mut dirty = clean.clone();
        plan.corrupt_payload(11, &mut dirty, 5);
        let flipped: u32 = clean
            .iter()
            .zip(&dirty)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn drops_follow_per_hop_rate() {
        let config = FaultConfig {
            seed: 3,
            drop_per_hop: 0.5,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(config);
        let dropped = (0..1000u64)
            .filter(|k| plan.transfer_verdict(k * 11, 8, 1, *k) == TransferVerdict::Drop)
            .count();
        // P(drop) = 0.5 per hop; allow a broad band around 500.
        assert!((350..650).contains(&dropped), "dropped {dropped} of 1000");
    }

    #[test]
    fn outage_windows_cover_half_open_ranges() {
        let config = FaultConfig {
            seed: 1,
            outages: vec![Outage {
                pe: "cpu2".into(),
                from_ns: 100,
                until_ns: 200,
            }],
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(config);
        assert!(plan.is_active());
        assert_eq!(plan.outage_until("cpu2", 99), None);
        assert_eq!(plan.outage_until("cpu2", 100), Some(200));
        assert_eq!(plan.outage_until("cpu2", 199), Some(200));
        assert_eq!(plan.outage_until("cpu2", 200), None);
        assert_eq!(plan.outage_until("cpu1", 150), None);
    }

    #[test]
    fn timer_jitter_is_bounded() {
        let config = FaultConfig {
            seed: 11,
            timer_jitter_ns: 500,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(config);
        for k in 0..1000u64 {
            assert!(plan.timer_jitter_ns(k * 3, 10_000, k) <= 500);
        }
    }
}
