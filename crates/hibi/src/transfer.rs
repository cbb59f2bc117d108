//! Reservation-based transfer timing across the network.
//!
//! The co-simulation path: when the discrete-event simulator delivers a
//! signal between processes mapped to different processing elements, it
//! asks the network when the payload lands. [`Network::transfer`] routes
//! the payload across the segment graph and reserves each segment in
//! order, modelling:
//!
//! * **queueing** — a segment busy with an earlier transfer delays later
//!   ones (`free_at_ns` per segment);
//! * **arbitration overhead** — one bus cycle for priority (the paper's
//!   default), two for round-robin (grant rotation), and slot alignment
//!   for TDMA;
//! * **burst splitting** — a transfer longer than the sender wrapper's
//!   `MaxTime` re-arbitrates between bursts;
//! * **bridge store-and-forward** — fixed latency per segment crossing.
//!
//! This layer is deliberately a timing envelope, not a cycle-level bus
//! model: it answers when each payload lands, which is what the
//! profiling flow of the paper needs.

use tut_trace::{Clock, TraceSink};

use crate::topology::{AgentId, Arbitration, Network};

/// The outcome of scheduling one transfer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransferResult {
    /// Simulation time at which the last byte arrives at the destination
    /// wrapper.
    pub completion_ns: u64,
    /// Total queueing delay suffered across all traversed segments.
    pub queued_ns: u64,
    /// Number of segments traversed (1 = same-segment transfer).
    pub segments_traversed: u32,
    /// Number of bursts the transfer was split into on the first segment.
    pub bursts: u32,
    /// `false` when no route existed between the endpoints and the
    /// transfer fell back to free local delivery; such transfers are
    /// tallied in [`Network::unroutable_transfers`].
    pub routed: bool,
}

impl Network {
    /// Schedules a `bytes`-byte transfer from `from` to `to`, submitted at
    /// `now_ns`, and returns its timing. Per-segment statistics are
    /// accumulated (see [`Network::segment_stats`]). With an enabled
    /// `tracer`, every traversed segment gets `arb` and `busy` spans on its
    /// `hibi/<segment>` track (simulated clock), plus
    /// `hibi.<segment>.{busy,wait,arbitration}_ns` counter metrics — the
    /// per-segment utilisation view of the paper's communication
    /// profiling; pass [`tut_trace::NoopSink`] for none.
    ///
    /// Transfers between two agents on the same wrapper (i.e. `from ==
    /// to`) complete immediately — local communication never touches the
    /// bus, matching the paper's motivation for grouping communicating
    /// processes onto the same processing element.
    ///
    /// # Panics
    ///
    /// Panics if either agent does not belong to this network. Routing
    /// failures (disconnected segments) are reported by
    /// [`Network::route`]; this method falls back to treating unroutable
    /// transfers as local (zero cost) so a broken platform model cannot
    /// wedge a simulation — but the fallback is not silent: the result
    /// carries `routed: false`, the network tallies it
    /// ([`Network::unroutable_transfers`]), and a
    /// `hibi.unroutable_transfers` counter is traced.
    pub fn transfer<T: TraceSink>(
        &mut self,
        from: AgentId,
        to: AgentId,
        bytes: u64,
        now_ns: u64,
        tracer: &mut T,
    ) -> TransferResult {
        if from == to || bytes == 0 {
            return TransferResult {
                completion_ns: now_ns,
                queued_ns: 0,
                segments_traversed: 0,
                bursts: 0,
                routed: true,
            };
        }
        // Borrowing the route from its own field leaves the segments free
        // to update below.
        let Some(route) = self.routes.get(self.segment_of(from), self.segment_of(to)) else {
            // Fall back to free local delivery so a broken platform
            // model cannot wedge the simulation — but make it visible:
            // count it and flag the result.
            self.unroutable += 1;
            tracer.add("hibi.unroutable_transfers", 1);
            return TransferResult {
                completion_ns: now_ns,
                queued_ns: 0,
                segments_traversed: 0,
                bursts: 0,
                routed: false,
            };
        };
        let sender = self.agents[from.index()].config;
        let mut time = now_ns;
        let mut queued_total = 0;
        let mut first_bursts = 0;
        for (hop, &segment_id) in route.iter().enumerate() {
            let hop_latency = if hop == 0 {
                0
            } else {
                self.hop_latency[route[hop - 1].index()][segment_id.index()]
            };
            time += hop_latency;

            let track = if tracer.enabled() {
                let name = format!("hibi/{}", self.segments[segment_id.index()].name);
                Some(tracer.track(&name, Clock::Sim))
            } else {
                None
            };
            let segment = &mut self.segments[segment_id.index()];
            let cfg = segment.config;
            let cycle = cfg.cycle_ns();
            let words = bytes.div_ceil(cfg.bytes_per_cycle());
            let burst_words = u64::from(sender.max_time).max(1);
            let bursts = words.div_ceil(burst_words);

            // Queueing: wait for the segment to free up.
            let start = time.max(segment.free_at_ns);
            let waited = start - time;

            // Arbitration overhead per burst.
            let arb_per_burst = match cfg.arbitration {
                Arbitration::Priority => cycle,
                Arbitration::RoundRobin => 2 * cycle,
                Arbitration::Tdma => {
                    // Wait for the sender's slot: slots rotate every
                    // `max_time` cycles among `tdma_slots` agents.
                    let slots = u64::from(cfg.tdma_slots.max(1));
                    let slot_len = u64::from(sender.max_time) * cycle;
                    let frame = slots * slot_len;
                    let my_slot = sender.address % slots;
                    let offset = (start + frame) % frame;
                    let slot_start = my_slot * slot_len;
                    let align = if offset <= slot_start {
                        slot_start - offset
                    } else {
                        frame - offset + slot_start
                    };
                    align / bursts.max(1) + cycle
                }
            };
            let arbitration = arb_per_burst * bursts;
            let busy = words * cycle;
            let done = start + arbitration + busy;

            segment.free_at_ns = done;
            segment.stats.reservations += bursts;
            segment.stats.bytes += bytes;
            segment.stats.busy_ns += busy;
            segment.stats.wait_ns += waited;
            segment.stats.arbitration_ns += arbitration;

            if let Some(track) = track {
                let name = &self.segments[segment_id.index()].name;
                if arbitration > 0 {
                    tracer.span(track, "arb", start, arbitration);
                }
                tracer.span(track, "busy", start + arbitration, busy);
                tracer.add(&format!("hibi.{name}.busy_ns"), busy);
                tracer.add(&format!("hibi.{name}.wait_ns"), waited);
                tracer.add(&format!("hibi.{name}.arbitration_ns"), arbitration);
                tracer.observe("hibi.segment_wait_ns", waited);
            }

            queued_total += waited;
            if hop == 0 {
                first_bursts = bursts as u32;
            }
            time = done;
        }
        TransferResult {
            completion_ns: time,
            queued_ns: queued_total,
            segments_traversed: route.len() as u32,
            bursts: first_bursts,
            routed: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{BridgeConfig, NetworkBuilder, SegmentConfig, WrapperConfig};
    use tut_trace::NoopSink;

    fn single_segment(arbitration: Arbitration) -> (Network, AgentId, AgentId) {
        let mut b = NetworkBuilder::new();
        let s = b.add_segment(
            "s",
            SegmentConfig {
                data_width_bits: 32,
                frequency_mhz: 100, // 10 ns cycle, 4 bytes/cycle
                arbitration,
                tdma_slots: 4,
            },
        );
        let a0 = b.add_agent(s, WrapperConfig::new(0).max_time(16));
        let a1 = b.add_agent(s, WrapperConfig::new(1).max_time(16));
        (b.build().unwrap(), a0, a1)
    }

    #[test]
    fn local_transfer_is_free() {
        let (mut n, a0, _) = single_segment(Arbitration::Priority);
        let r = n.transfer(a0, a0, 1024, 500, &mut NoopSink);
        assert_eq!(r.completion_ns, 500);
        assert_eq!(r.segments_traversed, 0);
    }

    #[test]
    fn single_segment_latency_scales_with_bytes() {
        let (mut n, a0, a1) = single_segment(Arbitration::Priority);
        // 64 bytes = 16 words = 160 ns busy + 10 ns arbitration.
        let r = n.transfer(a0, a1, 64, 0, &mut NoopSink);
        assert_eq!(r.completion_ns, 170);
        assert_eq!(r.bursts, 1);
        n.reset();
        let r2 = n.transfer(a0, a1, 128, 0, &mut NoopSink);
        assert!(r2.completion_ns > 170, "double the bytes takes longer");
    }

    #[test]
    fn bursts_split_on_max_time() {
        let (mut n, a0, a1) = single_segment(Arbitration::Priority);
        // 256 bytes = 64 words, max_time 16 -> 4 bursts.
        let r = n.transfer(a0, a1, 256, 0, &mut NoopSink);
        assert_eq!(r.bursts, 4);
        // 4 bursts x 10ns arb + 64 words x 10ns = 680.
        assert_eq!(r.completion_ns, 680);
    }

    #[test]
    fn queueing_delays_second_transfer() {
        let (mut n, a0, a1) = single_segment(Arbitration::Priority);
        let first = n.transfer(a0, a1, 64, 0, &mut NoopSink);
        let second = n.transfer(a1, a0, 64, 0, &mut NoopSink);
        assert!(second.queued_ns > 0);
        assert!(second.completion_ns > first.completion_ns);
        let stats = n.segment_stats(n.segment_of(a0));
        assert_eq!(stats.bytes, 128);
        assert_eq!(stats.wait_ns, second.queued_ns);
    }

    #[test]
    fn round_robin_costs_more_arbitration_than_priority() {
        let (mut p, a0, a1) = single_segment(Arbitration::Priority);
        let (mut rr, b0, b1) = single_segment(Arbitration::RoundRobin);
        let rp = p.transfer(a0, a1, 64, 0, &mut NoopSink);
        let rrr = rr.transfer(b0, b1, 64, 0, &mut NoopSink);
        assert!(rrr.completion_ns > rp.completion_ns);
    }

    #[test]
    fn tdma_aligns_to_slots() {
        let (mut n, a0, a1) = single_segment(Arbitration::Tdma);
        // Agent 0 owns slot 0; a transfer submitted at time 0 starts with
        // at most one slot-alignment penalty.
        let r0 = n.transfer(a0, a1, 64, 0, &mut NoopSink);
        n.reset();
        // Agent 1 owns slot 1 and must wait for its slot.
        let r1 = n.transfer(a1, a0, 64, 0, &mut NoopSink);
        assert!(r1.completion_ns >= r0.completion_ns);
    }

    #[test]
    fn bridge_adds_latency() {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_segment("s0", SegmentConfig::default());
        let s1 = b.add_segment("s1", SegmentConfig::default());
        let a0 = b.add_agent(s0, WrapperConfig::new(0));
        let a1 = b.add_agent(s0, WrapperConfig::new(1));
        let a2 = b.add_agent(s1, WrapperConfig::new(2));
        b.add_bridge(s0, s1, BridgeConfig { latency_ns: 1000 });
        let mut n = b.build().unwrap();
        let local = n.transfer(a0, a1, 64, 0, &mut NoopSink);
        n.reset();
        let remote = n.transfer(a0, a2, 64, 0, &mut NoopSink);
        assert!(
            remote.completion_ns >= local.completion_ns + 1000,
            "crossing the bridge must add its latency: {} vs {}",
            remote.completion_ns,
            local.completion_ns
        );
        assert_eq!(remote.segments_traversed, 2);
    }

    #[test]
    fn stats_reset() {
        let (mut n, a0, a1) = single_segment(Arbitration::Priority);
        n.transfer(a0, a1, 64, 0, &mut NoopSink);
        assert!(n.segment_stats(n.segment_of(a0)).bytes > 0);
        n.reset();
        assert_eq!(n.segment_stats(n.segment_of(a0)).bytes, 0);
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let (mut n, a0, a1) = single_segment(Arbitration::Priority);
        let r = n.transfer(a0, a1, 0, 42, &mut NoopSink);
        assert_eq!(r.completion_ns, 42);
        assert!(r.routed);
    }

    #[test]
    fn unroutable_transfer_is_counted_not_silent() {
        // Two disconnected segments: the fallback must be visible.
        let mut b = NetworkBuilder::new();
        let s0 = b.add_segment("s0", SegmentConfig::default());
        let s1 = b.add_segment("s1", SegmentConfig::default());
        let a0 = b.add_agent(s0, WrapperConfig::new(0));
        let a1 = b.add_agent(s1, WrapperConfig::new(1));
        let mut n = b.build().unwrap();

        let mut recorder = tut_trace::Recorder::new();
        let r = n.transfer(a0, a1, 64, 7, &mut recorder);
        assert_eq!(r.completion_ns, 7, "fallback stays free");
        assert!(!r.routed);
        assert_eq!(n.unroutable_transfers(), 1);
        assert_eq!(
            recorder.metrics.counter("hibi.unroutable_transfers"),
            Some(1)
        );

        n.reset();
        assert_eq!(n.unroutable_transfers(), 0, "reset clears the tally");
    }
}
