//! Network topology: segments, wrappers (agents), and bridges.

use std::collections::VecDeque;
use std::fmt;

use crate::error::HibiError;
use crate::stats::SegmentStats;

/// Identifies a segment in a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SegmentId(pub(crate) u32);

impl SegmentId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// Identifies an agent (a wrapper attaching one processing element) in a
/// [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AgentId(pub(crate) u32);

impl AgentId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent{}", self.0)
    }
}

/// Arbitration schemes of a segment (the `Arbitration` tagged value).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Arbitration {
    /// Fixed priority: the lowest wrapper address wins (paper default).
    #[default]
    Priority,
    /// Round-robin among requesting agents.
    RoundRobin,
    /// Time-division multiple access with a fixed slot schedule.
    Tdma,
}

impl Arbitration {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Arbitration::Priority => "priority",
            Arbitration::RoundRobin => "round-robin",
            Arbitration::Tdma => "tdma",
        }
    }
}

impl fmt::Display for Arbitration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one bus segment (Table 3, `«CommunicationSegment»` /
/// `«HIBISegment»`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentConfig {
    /// Data width in bits; one word of this width moves per bus cycle.
    pub data_width_bits: u32,
    /// Clock frequency in MHz.
    pub frequency_mhz: u32,
    /// Arbitration scheme.
    pub arbitration: Arbitration,
    /// TDMA slot count (only meaningful with [`Arbitration::Tdma`]; 0
    /// falls back to the agent count at build time).
    pub tdma_slots: u32,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            data_width_bits: 32,
            frequency_mhz: 50,
            arbitration: Arbitration::Priority,
            tdma_slots: 0,
        }
    }
}

impl SegmentConfig {
    /// Nanoseconds per bus cycle.
    pub fn cycle_ns(&self) -> u64 {
        (1000 / self.frequency_mhz.max(1)).max(1) as u64
    }

    /// Bytes carried per bus cycle.
    pub fn bytes_per_cycle(&self) -> u64 {
        u64::from(self.data_width_bits / 8).max(1)
    }
}

/// Configuration of one wrapper (Table 3, `«CommunicationWrapper»` /
/// `«HIBIWrapper»`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WrapperConfig {
    /// Bus address of the wrapper; must be network-unique.
    pub address: u64,
    /// Buffer size in words (bounds a burst the wrapper can absorb without
    /// back-pressure).
    pub buffer_size: u32,
    /// Maximum consecutive cycles the wrapper may hold the segment before
    /// re-arbitrating (burst split).
    pub max_time: u32,
}

impl WrapperConfig {
    /// A wrapper with the given address and the paper-ish defaults
    /// (8-word buffers, 16-cycle reservation limit).
    pub fn new(address: u64) -> WrapperConfig {
        WrapperConfig {
            address,
            buffer_size: 8,
            max_time: 16,
        }
    }

    /// Sets the buffer size, builder-style.
    pub fn buffer(mut self, words: u32) -> WrapperConfig {
        self.buffer_size = words;
        self
    }

    /// Sets the reservation limit, builder-style.
    pub fn max_time(mut self, cycles: u32) -> WrapperConfig {
        self.max_time = cycles;
        self
    }
}

#[derive(Clone, Debug)]
pub(crate) struct Segment {
    pub(crate) name: String,
    pub(crate) config: SegmentConfig,
    /// Earliest time the segment is free for a new reservation.
    pub(crate) free_at_ns: u64,
    pub(crate) stats: SegmentStats,
}

#[derive(Clone, Debug)]
pub(crate) struct Agent {
    pub(crate) segment: SegmentId,
    pub(crate) config: WrapperConfig,
}

/// A bridge joining two segments (store-and-forward, one word buffered).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BridgeConfig {
    /// Store-and-forward latency in nanoseconds added per crossing.
    pub latency_ns: u64,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig { latency_ns: 40 }
    }
}

/// Builder for a [`Network`].
#[derive(Clone, Debug, Default)]
pub struct NetworkBuilder {
    segments: Vec<Segment>,
    agents: Vec<Agent>,
    bridges: Vec<(SegmentId, SegmentId, BridgeConfig)>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Adds a segment.
    pub fn add_segment(&mut self, name: impl Into<String>, config: SegmentConfig) -> SegmentId {
        let id = SegmentId(self.segments.len() as u32);
        self.segments.push(Segment {
            name: name.into(),
            config,
            free_at_ns: 0,
            stats: SegmentStats::default(),
        });
        id
    }

    /// Attaches an agent (wrapper) to a segment.
    ///
    /// # Panics
    ///
    /// Panics if `segment` was not created by this builder.
    pub fn add_agent(&mut self, segment: SegmentId, config: WrapperConfig) -> AgentId {
        assert!(segment.index() < self.segments.len(), "unknown {segment}");
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(Agent { segment, config });
        id
    }

    /// Joins two segments with a bridge.
    pub fn add_bridge(&mut self, a: SegmentId, b: SegmentId, config: BridgeConfig) {
        self.bridges.push((a, b, config));
    }

    /// Finalises the network.
    ///
    /// # Errors
    ///
    /// * [`HibiError::DuplicateAddress`] if two wrappers share an address.
    /// * [`HibiError::BadConfig`] for zero-width segments or zero
    ///   `max_time` wrappers.
    pub fn build(self) -> Result<Network, HibiError> {
        let mut seen = std::collections::HashSet::new();
        for agent in &self.agents {
            if !seen.insert(agent.config.address) {
                return Err(HibiError::DuplicateAddress {
                    address: agent.config.address,
                });
            }
            if agent.config.max_time == 0 {
                return Err(HibiError::BadConfig(
                    "wrapper max_time must be at least 1 cycle".into(),
                ));
            }
        }
        for segment in &self.segments {
            if segment.config.data_width_bits < 8 {
                return Err(HibiError::BadConfig(format!(
                    "segment `{}` data width must be at least 8 bits",
                    segment.name
                )));
            }
            if segment.config.frequency_mhz == 0 {
                return Err(HibiError::BadConfig(format!(
                    "segment `{}` frequency must be non-zero",
                    segment.name
                )));
            }
        }
        // Precompute segment-level routing (BFS over the bridge graph).
        let n = self.segments.len();
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b, cfg) in &self.bridges {
            adjacency[a.index()].push((b, cfg));
            adjacency[b.index()].push((a, cfg));
        }
        let mut next_hop = vec![vec![None; n]; n];
        let mut hop_latency = vec![vec![0u64; n]; n];
        for start in 0..n {
            // BFS from `start`; record the first hop towards every target.
            let mut visited = vec![false; n];
            let mut queue = VecDeque::from([start]);
            visited[start] = true;
            let mut parent: Vec<Option<(usize, u64)>> = vec![None; n];
            while let Some(seg) = queue.pop_front() {
                for &(peer, cfg) in &adjacency[seg] {
                    if !visited[peer.index()] {
                        visited[peer.index()] = true;
                        parent[peer.index()] = Some((seg, cfg.latency_ns));
                        queue.push_back(peer.index());
                    }
                }
            }
            for target in 0..n {
                if target == start || !visited[target] {
                    continue;
                }
                // Walk back from target to start to find the first hop.
                let mut current = target;
                let mut hops = Vec::new();
                while current != start {
                    let (prev, latency) = parent[current].expect("visited node has parent");
                    hops.push((current, latency));
                    current = prev;
                }
                let &(first, latency) = hops.last().expect("target != start");
                next_hop[start][target] = Some(SegmentId(first as u32));
                hop_latency[start][target] = latency;
            }
        }
        Ok(Network {
            segments: self.segments,
            agents: self.agents,
            routes: Routes::build(&next_hop),
            hop_latency,
            unroutable: 0,
        })
    }
}

/// Every segment pair's route. The topology is fixed once the network is
/// built, so each route is walked once there and transfers borrow it.
#[derive(Clone, Debug)]
pub(crate) struct Routes {
    segments: usize,
    /// `table[a * segments + b]` = the segments from `a` to `b`, both
    /// included; `None` when they are disconnected.
    table: Vec<Option<Box<[SegmentId]>>>,
}

impl Routes {
    /// Walks `next_hop[a][b]` (first segment after `a` on the way to
    /// `b`) for every pair.
    fn build(next_hop: &[Vec<Option<SegmentId>>]) -> Routes {
        let n = next_hop.len();
        let walk = |start: usize, goal: usize| {
            let (start, goal) = (SegmentId(start as u32), SegmentId(goal as u32));
            let mut route = vec![start];
            let mut current = start;
            while current != goal {
                let next = next_hop[current.index()][goal.index()]?;
                route.push(next);
                current = next;
                if route.len() > n {
                    return None;
                }
            }
            Some(route.into_boxed_slice())
        };
        Routes {
            segments: n,
            table: (0..n * n).map(|i| walk(i / n, i % n)).collect(),
        }
    }

    /// The route from segment `start` to segment `goal`.
    pub(crate) fn get(&self, start: SegmentId, goal: SegmentId) -> Option<&[SegmentId]> {
        self.table[start.index() * self.segments + goal.index()].as_deref()
    }
}

/// A built HIBI network; drive it with
/// [`Network::transfer`](crate::transfer) and read statistics back with
/// [`Network::segment_stats`].
#[derive(Clone, Debug)]
pub struct Network {
    pub(crate) segments: Vec<Segment>,
    pub(crate) agents: Vec<Agent>,
    pub(crate) routes: Routes,
    /// `hop_latency[a][b]` = latency of the first bridge on the route
    /// from segment `a` to segment `b`.
    pub(crate) hop_latency: Vec<Vec<u64>>,
    /// Transfers that found no route and fell back to local delivery.
    pub(crate) unroutable: u64,
}

impl Network {
    /// The segment an agent is attached to.
    ///
    /// # Panics
    ///
    /// Panics if `agent` does not belong to this network.
    pub fn segment_of(&self, agent: AgentId) -> SegmentId {
        self.agents[agent.index()].segment
    }

    /// The bus address of an agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` does not belong to this network.
    pub fn address_of(&self, agent: AgentId) -> u64 {
        self.agents[agent.index()].config.address
    }

    /// Finds an agent by bus address.
    pub fn agent_by_address(&self, address: u64) -> Option<AgentId> {
        self.agents
            .iter()
            .position(|a| a.config.address == address)
            .map(|i| AgentId(i as u32))
    }

    /// The ordered list of segments a transfer from `from` to `to`
    /// traverses (both endpoints' segments included), precomputed when
    /// the network was built.
    ///
    /// # Errors
    ///
    /// Returns [`HibiError::NoRoute`] when the segments are disconnected.
    pub fn route(&self, from: AgentId, to: AgentId) -> Result<&[SegmentId], HibiError> {
        self.routes
            .get(self.segment_of(from), self.segment_of(to))
            .ok_or_else(|| HibiError::NoRoute {
                from: self.address_of(from),
                to: self.address_of(to),
            })
    }

    /// Statistics gathered by the transfers on one segment.
    ///
    /// # Panics
    ///
    /// Panics if `segment` does not belong to this network.
    pub fn segment_stats(&self, segment: SegmentId) -> &SegmentStats {
        &self.segments[segment.index()].stats
    }

    /// The segment's display name.
    ///
    /// # Panics
    ///
    /// Panics if `segment` does not belong to this network.
    pub fn segment_name(&self, segment: SegmentId) -> &str {
        &self.segments[segment.index()].name
    }

    /// Number of transfers that found no route between their endpoints
    /// and fell back to free local delivery. A non-zero count means the
    /// platform model is broken (disconnected segments) and every
    /// affected transfer was costed as if it were local.
    pub fn unroutable_transfers(&self) -> u64 {
        self.unroutable
    }

    /// Resets the reservation clock and statistics (fresh simulation run).
    pub fn reset(&mut self) {
        for segment in &mut self.segments {
            segment.free_at_ns = 0;
            segment.stats = SegmentStats::default();
        }
        self.unroutable = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_segment_network() -> (Network, AgentId, AgentId, AgentId) {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_segment("s0", SegmentConfig::default());
        let s1 = b.add_segment("s1", SegmentConfig::default());
        let a0 = b.add_agent(s0, WrapperConfig::new(0x10));
        let a1 = b.add_agent(s0, WrapperConfig::new(0x20));
        let a2 = b.add_agent(s1, WrapperConfig::new(0x30));
        b.add_bridge(s0, s1, BridgeConfig::default());
        (b.build().unwrap(), a0, a1, a2)
    }

    #[test]
    fn build_validates_addresses() {
        let mut b = NetworkBuilder::new();
        let s = b.add_segment("s", SegmentConfig::default());
        b.add_agent(s, WrapperConfig::new(1));
        b.add_agent(s, WrapperConfig::new(1));
        assert!(matches!(
            b.build(),
            Err(HibiError::DuplicateAddress { address: 1 })
        ));
    }

    #[test]
    fn build_validates_config() {
        let mut b = NetworkBuilder::new();
        let s = b.add_segment(
            "s",
            SegmentConfig {
                data_width_bits: 4,
                ..SegmentConfig::default()
            },
        );
        b.add_agent(s, WrapperConfig::new(1));
        assert!(matches!(b.build(), Err(HibiError::BadConfig(_))));

        let mut b = NetworkBuilder::new();
        let s = b.add_segment("s", SegmentConfig::default());
        b.add_agent(s, WrapperConfig::new(1).max_time(0));
        assert!(matches!(b.build(), Err(HibiError::BadConfig(_))));
    }

    #[test]
    fn routes_within_and_across_segments() {
        let (network, a0, a1, a2) = two_segment_network();
        assert_eq!(network.route(a0, a1).unwrap().len(), 1);
        let cross = network.route(a0, a2).unwrap();
        assert_eq!(cross.len(), 2);
        assert_eq!(cross[0], network.segment_of(a0));
        assert_eq!(cross[1], network.segment_of(a2));
    }

    #[test]
    fn disconnected_segments_have_no_route() {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_segment("s0", SegmentConfig::default());
        let s1 = b.add_segment("s1", SegmentConfig::default());
        let a0 = b.add_agent(s0, WrapperConfig::new(1));
        let a1 = b.add_agent(s1, WrapperConfig::new(2));
        let network = b.build().unwrap();
        assert!(matches!(
            network.route(a0, a1),
            Err(HibiError::NoRoute { .. })
        ));
    }

    #[test]
    fn three_segment_chain_routes_through_middle() {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_segment("s0", SegmentConfig::default());
        let bridge_seg = b.add_segment("bridge", SegmentConfig::default());
        let s2 = b.add_segment("s2", SegmentConfig::default());
        let a0 = b.add_agent(s0, WrapperConfig::new(1));
        let a1 = b.add_agent(s2, WrapperConfig::new(2));
        b.add_bridge(s0, bridge_seg, BridgeConfig::default());
        b.add_bridge(bridge_seg, s2, BridgeConfig::default());
        let network = b.build().unwrap();
        let route = network.route(a0, a1).unwrap();
        assert_eq!(route.len(), 3);
        assert_eq!(network.segment_name(route[1]), "bridge");
    }

    #[test]
    fn address_lookup() {
        let (network, a0, ..) = two_segment_network();
        assert_eq!(network.agent_by_address(0x10), Some(a0));
        assert_eq!(network.agent_by_address(0x99), None);
        assert_eq!(network.address_of(a0), 0x10);
    }

    #[test]
    fn segment_config_units() {
        let cfg = SegmentConfig {
            data_width_bits: 32,
            frequency_mhz: 100,
            ..SegmentConfig::default()
        };
        assert_eq!(cfg.cycle_ns(), 10);
        assert_eq!(cfg.bytes_per_cycle(), 4);
    }
}
