//! Randomised tests on the HIBI transfer model's invariants, driven by
//! a seeded in-tree generator (deterministic, no external dependencies).

use tut_hibi::topology::{BridgeConfig, NetworkBuilder, SegmentConfig, WrapperConfig};
use tut_trace::{NoopSink, SplitMix64};

const CASES: u64 = 128;

fn two_segment_network() -> (
    tut_hibi::Network,
    tut_hibi::AgentId,
    tut_hibi::AgentId,
    tut_hibi::AgentId,
) {
    let mut b = NetworkBuilder::new();
    let s0 = b.add_segment("s0", SegmentConfig::default());
    let s1 = b.add_segment("s1", SegmentConfig::default());
    let a0 = b.add_agent(s0, WrapperConfig::new(0x10));
    let a1 = b.add_agent(s0, WrapperConfig::new(0x20));
    let a2 = b.add_agent(s1, WrapperConfig::new(0x30));
    b.add_bridge(s0, s1, BridgeConfig::default());
    (b.build().expect("network"), a0, a1, a2)
}

/// `lo + rng() % (hi - lo)` — a value in `lo..hi`.
fn in_range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

/// Completion never precedes submission, and more bytes never finish
/// earlier on an otherwise idle network.
#[test]
fn latency_is_monotonic_in_bytes() {
    let mut rng = SplitMix64::new(0x11B1_0001);
    for _ in 0..CASES {
        let bytes = in_range(&mut rng, 1, 8192);
        let extra = in_range(&mut rng, 1, 4096);
        let now = in_range(&mut rng, 0, 1_000_000);
        let (mut n, a0, a1, _) = two_segment_network();
        let small = n.transfer(a0, a1, bytes, now, &mut NoopSink);
        assert!(small.completion_ns >= now);
        n.reset();
        let big = n.transfer(a0, a1, bytes + extra, now, &mut NoopSink);
        assert!(
            big.completion_ns >= small.completion_ns,
            "{} bytes at {} vs {} bytes at {}",
            bytes,
            small.completion_ns,
            bytes + extra,
            big.completion_ns
        );
    }
}

/// Crossing the bridge is never faster than staying on one segment.
#[test]
fn remote_is_never_faster_than_local() {
    let mut rng = SplitMix64::new(0x11B1_0002);
    for _ in 0..CASES {
        let bytes = in_range(&mut rng, 1, 4096);
        let now = in_range(&mut rng, 0, 1_000_000);
        let (mut n, a0, a1, a2) = two_segment_network();
        let local = n.transfer(a0, a1, bytes, now, &mut NoopSink);
        n.reset();
        let remote = n.transfer(a0, a2, bytes, now, &mut NoopSink);
        assert!(remote.completion_ns >= local.completion_ns);
        assert_eq!(remote.segments_traversed, 2);
    }
}

/// Back-to-back transfers on the same segment serialise: the second
/// completes no earlier than the first.
#[test]
fn contention_serialises() {
    let mut rng = SplitMix64::new(0x11B1_0003);
    for _ in 0..CASES {
        let bytes_a = in_range(&mut rng, 1, 4096);
        let bytes_b = in_range(&mut rng, 1, 4096);
        let now = in_range(&mut rng, 0, 1_000_000);
        let (mut n, a0, a1, _) = two_segment_network();
        let first = n.transfer(a0, a1, bytes_a, now, &mut NoopSink);
        let second = n.transfer(a1, a0, bytes_b, now, &mut NoopSink);
        assert!(second.completion_ns >= first.completion_ns);
        assert!(second.queued_ns > 0 || bytes_a == 0);
    }
}

/// Contention never helps: a transfer behind a pre-loaded segment
/// completes no earlier than the same transfer on a fresh network.
#[test]
fn contended_transfer_is_never_faster_than_fresh() {
    let mut rng = SplitMix64::new(0x11B1_0004);
    for _ in 0..CASES {
        let bytes = in_range(&mut rng, 1, 4096);
        let load = in_range(&mut rng, 1, 4096);
        let (mut n, a0, a1, a2) = two_segment_network();
        let fresh = n.transfer(a0, a2, bytes, 0, &mut NoopSink);
        n.reset();
        // Pre-load the first segment, then measure again.
        n.transfer(a1, a0, load, 0, &mut NoopSink);
        let contended = n.transfer(a0, a2, bytes, 0, &mut NoopSink);
        assert!(contended.completion_ns >= fresh.completion_ns);
    }
}
