//! Checkpoint hooks: how the optimisers externalise resumable progress.
//!
//! Both searches already decompose into an ordered list of independent,
//! deterministic work units — annealing *restarts* for grouping (each
//! fully determined by its derived seed) and contiguous candidate
//! *shards* for the exhaustive mapping search. A checkpoint sink
//! ([`ExploreCheckpoint`]) observes each finished unit and can replay
//! units finished by an earlier, interrupted run so they are skipped
//! instead of recomputed.
//!
//! Because every unit's result is a pure function of the problem and the
//! unit index, a run resumed from any prefix of completed units is
//! **bit-identical** to an uninterrupted run — the hooks only decide
//! *whether* a unit is recomputed, never *what* it produces. The durable
//! implementation lives in the bench crate, backed by `tut_store`
//! journals; this crate only defines the seam (plus [`NoCheckpoint`],
//! the zero-cost default).
//!
//! Replayed units deliberately do not tick the progress meter — the
//! driver accounts for them up front via `tut_trace::Progress::set_resumed`,
//! so live heartbeats show `done/total (resumed N)` without
//! double-counting.

/// One finished annealing restart of the grouping search, as persisted
/// and replayed.
#[derive(Clone, PartialEq, Debug)]
pub struct RestartOutcome {
    /// The restart's best objective value.
    pub objective: f64,
    /// The restart's best assignment (`assignment[node] = group`).
    pub assignment: Vec<usize>,
}

/// One finished shard of the exhaustive mapping search: the first strict
/// minimum in the shard as `(cost, candidate index)`, or `None` for an
/// empty shard.
pub type ShardBest = Option<(f64, u64)>;

/// A sink for completed work units, with replay of units a previous run
/// already finished.
///
/// Implementations must be [`Sync`]: both optimisers invoke the hooks
/// from inside their scoped worker threads. All methods default to
/// no-ops / "nothing recorded", so a sink only overrides the pairs it
/// cares about.
pub trait ExploreCheckpoint: Sync {
    /// Returns grouping restart `restart` if a previous run completed
    /// it, to be used verbatim instead of re-annealing.
    fn replay_restart(&self, restart: usize) -> Option<RestartOutcome> {
        let _ = restart;
        None
    }

    /// Observes a freshly computed grouping restart.
    fn restart_done(&self, restart: usize, outcome: &RestartOutcome) {
        let _ = (restart, outcome);
    }

    /// Returns mapping shard `shard` if a previous run completed it.
    fn replay_mapping_shard(&self, shard: usize) -> Option<ShardBest> {
        let _ = shard;
        None
    }

    /// Observes a freshly computed mapping shard.
    fn mapping_shard_done(&self, shard: usize, best: &ShardBest) {
        let _ = (shard, best);
    }
}

/// The default sink: records nothing, replays nothing. The plain entry
/// points ([`crate::partition`], [`crate::optimise_mapping`]) pass it to
/// their checkpointed counterparts.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoCheckpoint;

impl ExploreCheckpoint for NoCheckpoint {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use tut_trace::{NoopSink, Progress};

    use super::*;
    use crate::commgraph::CommGraph;
    use crate::grouping::{partition, partition_checkpointed, GroupingOptions};
    use crate::mapping::{optimise_mapping, optimise_mapping_checkpointed, MappingOptions};

    /// An in-memory sink that records everything and replays a chosen
    /// prefix — the pure-logic stand-in for the journal-backed store.
    #[derive(Default)]
    struct MemCheckpoint {
        restarts: Mutex<HashMap<usize, RestartOutcome>>,
        shards: Mutex<HashMap<usize, ShardBest>>,
        replay_restarts: HashMap<usize, RestartOutcome>,
        replay_shards: HashMap<usize, ShardBest>,
        recomputed: AtomicUsize,
    }

    impl ExploreCheckpoint for MemCheckpoint {
        fn replay_restart(&self, restart: usize) -> Option<RestartOutcome> {
            self.replay_restarts.get(&restart).cloned()
        }
        fn restart_done(&self, restart: usize, outcome: &RestartOutcome) {
            self.recomputed.fetch_add(1, Ordering::SeqCst);
            self.restarts
                .lock()
                .unwrap()
                .insert(restart, outcome.clone());
        }
        fn replay_mapping_shard(&self, shard: usize) -> Option<ShardBest> {
            self.replay_shards.get(&shard).copied()
        }
        fn mapping_shard_done(&self, shard: usize, best: &ShardBest) {
            self.recomputed.fetch_add(1, Ordering::SeqCst);
            self.shards.lock().unwrap().insert(shard, *best);
        }
    }

    fn two_communities() -> CommGraph {
        let mut g = CommGraph::default();
        for name in ["a0", "a1", "a2", "b0", "b1", "b2"] {
            g.intern(name);
        }
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 10);
        g.add_edge(0, 2, 10);
        g.add_edge(3, 4, 10);
        g.add_edge(4, 5, 10);
        g.add_edge(3, 5, 10);
        g.add_edge(2, 3, 1);
        g
    }

    fn small_problem() -> crate::mapping::MappingProblem {
        use tut_profile::application::ProcessType;
        use tut_profile::platform::ComponentKind;
        crate::mapping::MappingProblem {
            group_names: vec!["g1".into(), "g2".into(), "hw".into()],
            group_cycles: vec![1000, 900, 50],
            group_kinds: vec![
                ProcessType::General,
                ProcessType::General,
                ProcessType::Hardware,
            ],
            comm: vec![vec![0, 100, 5], vec![100, 0, 0], vec![5, 0, 0]],
            pes: vec![
                crate::mapping::PeInfo {
                    frequency_mhz: 50,
                    kind: ComponentKind::General,
                },
                crate::mapping::PeInfo {
                    frequency_mhz: 50,
                    kind: ComponentKind::General,
                },
                crate::mapping::PeInfo {
                    frequency_mhz: 100,
                    kind: ComponentKind::HwAccelerator,
                },
            ],
            distance: vec![vec![0, 1, 2], vec![1, 0, 2], vec![2, 2, 0]],
        }
    }

    /// Interrupt-at-every-boundary for grouping: for every prefix of
    /// completed restarts, resuming from that prefix reproduces the
    /// uninterrupted solution bit for bit, serial and parallel, and only
    /// the missing restarts are recomputed.
    #[test]
    fn grouping_resume_from_any_prefix_is_bit_identical() {
        let g = two_communities();
        let options = GroupingOptions {
            groups: 2,
            restarts: 4,
            annealing_iterations: 400,
            ..GroupingOptions::default()
        };
        let reference = partition(&g, &options);

        // First pass records every restart.
        let recording = MemCheckpoint::default();
        let first = partition_checkpointed(
            &g,
            &options,
            &mut NoopSink,
            &Progress::disabled(),
            &recording,
        );
        assert_eq!(first, reference, "a checkpoint sink is an observer");
        let recorded = recording.restarts.into_inner().unwrap();
        assert_eq!(recorded.len(), 4, "every restart reported");

        for prefix in 0..=recorded.len() {
            for threads in [1usize, 3] {
                let resume = MemCheckpoint {
                    replay_restarts: (0..prefix).map(|r| (r, recorded[&r].clone())).collect(),
                    ..MemCheckpoint::default()
                };
                let options = GroupingOptions {
                    threads,
                    ..options.clone()
                };
                let resumed = partition_checkpointed(
                    &g,
                    &options,
                    &mut NoopSink,
                    &Progress::disabled(),
                    &resume,
                );
                assert_eq!(resumed.assignment, reference.assignment);
                assert_eq!(
                    resumed.objective.to_bits(),
                    reference.objective.to_bits(),
                    "prefix {prefix} at {threads} threads diverged"
                );
                assert_eq!(
                    resume.recomputed.load(Ordering::SeqCst),
                    recorded.len() - prefix,
                    "exactly the missing restarts are recomputed"
                );
            }
        }
    }

    /// The same property for the mapping search's fixed shards.
    #[test]
    fn mapping_resume_from_any_prefix_is_bit_identical() {
        let problem = small_problem();
        let options = MappingOptions::default();
        let reference = optimise_mapping(&problem, &options);

        let recording = MemCheckpoint::default();
        let first = optimise_mapping_checkpointed(
            &problem,
            &options,
            &mut NoopSink,
            &Progress::disabled(),
            &recording,
        );
        assert_eq!(first, reference, "a checkpoint sink is an observer");
        let recorded = recording.shards.into_inner().unwrap();
        assert!(!recorded.is_empty());

        for prefix in 0..=recorded.len() {
            for threads in [1usize, 4] {
                let resume = MemCheckpoint {
                    replay_shards: (0..prefix).map(|s| (s, recorded[&s])).collect(),
                    ..MemCheckpoint::default()
                };
                let options = MappingOptions {
                    threads,
                    ..options.clone()
                };
                let resumed = optimise_mapping_checkpointed(
                    &problem,
                    &options,
                    &mut NoopSink,
                    &Progress::disabled(),
                    &resume,
                );
                assert_eq!(resumed.assignment, reference.assignment);
                assert_eq!(
                    resumed.cost.to_bits(),
                    reference.cost.to_bits(),
                    "prefix {prefix} at {threads} threads diverged"
                );
                assert_eq!(
                    resume.recomputed.load(Ordering::SeqCst),
                    recorded.len() - prefix,
                    "exactly the missing shards are recomputed"
                );
            }
        }
    }
}
