//! Log-identity pins for the paper's default load and a faulted light
//! load.
//!
//! The simulated cost of an action comes from the static
//! `Expr::weight()` and `Compute` statements, never from how fast the
//! interpreter runs. A change that only speeds the interpreter up must
//! therefore leave the simulation log byte-identical. 200 ms of
//! `TutmacConfig::default()` is long enough for `frag`'s backlog to build,
//! so buffer append, pop and CRC all run on large values. One second of
//! `TutmacConfig::light_load()` at a bit-error rate of 1e-4 corrupts a
//! few hundred payloads in flight, so the corrupted bytes, the CRC
//! checks that catch them and the ARQ retries are pinned too.

use tut_profile_suite::faults::{FaultConfig, FaultPlan};
use tut_profile_suite::sim::{SimConfig, Simulation};
use tut_profile_suite::trace::NoopSink;
use tut_profile_suite::tutmac::{build_tutmac_system, TutmacConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[test]
fn default_load_log_is_pinned() {
    let system = build_tutmac_system(&TutmacConfig::default()).expect("build");
    let report = Simulation::from_system(&system, SimConfig::with_horizon_ns(200_000_000))
        .expect("sim builds")
        .run()
        .expect("sim runs");
    let text = report.log.to_text();
    let got = (report.log.len(), report.total_steps, fnv1a(text.as_bytes()));
    assert_eq!(
        got,
        (13_546, 6_141, 0x6C82_B030_746D_62B4),
        "default-load log changed: (records, steps, fnv1a)"
    );
}

#[test]
fn faulted_light_load_log_is_pinned() {
    let system = build_tutmac_system(&TutmacConfig::light_load()).expect("build");
    let mut plan = FaultPlan::new(FaultConfig::with_ber(0x7071, 1e-4));
    let report = Simulation::from_system(&system, SimConfig::with_horizon_ns(1_000_000_000))
        .expect("sim builds")
        .run_with_faults(&mut plan, &mut NoopSink)
        .expect("sim runs");
    assert_eq!(report.faults.corrupted, 329, "payloads corrupted in flight");
    let text = report.log.to_text();
    let got = (report.log.len(), report.total_steps, fnv1a(text.as_bytes()));
    assert_eq!(
        got,
        (15_482, 7_227, 0xADBE_B96B_FB6A_D1C2),
        "faulted light-load log changed: (records, steps, fnv1a)"
    );
}
