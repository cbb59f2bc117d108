//! Simulation configuration.

use tut_platform::CostModel;

/// The per-processor scheduling policy — the paper's conclusion names
/// "real-time operating system will be used in system processors" as
/// future work; this is that RTOS model at run-to-completion granularity
/// (EFSM steps are atomic critical sections, as in SDL-style RTOSes).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedPolicy {
    /// Fixed-priority dispatch: the ready process with the highest
    /// `Priority` tagged value runs first (default; matches the profile's
    /// `Priority` semantics).
    #[default]
    Priority,
    /// Round-robin dispatch: ready processes take turns regardless of
    /// priority (a fairness baseline for the RTOS ablation).
    RoundRobin,
}

/// RTOS parameters of the processing elements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scheduler {
    /// Dispatch policy.
    pub policy: SchedPolicy,
    /// Cycles charged when a processing element switches from one process
    /// to a different one (context save/restore). Zero models a bare-metal
    /// single loop.
    pub context_switch_cycles: u64,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler {
            policy: SchedPolicy::Priority,
            context_switch_cycles: 0,
        }
    }
}

/// What an attached [`tut_trace::TraceSink`] receives from the engine.
///
/// These only select *which* events are emitted; with the default
/// [`tut_trace::NoopSink`] nothing is recorded regardless, and the
/// simulated behaviour (report, log) never depends on them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceOptions {
    /// One span per run-to-completion step on the executing element's
    /// `pe/<name>` track (simulated clock).
    pub step_spans: bool,
    /// Event-queue depth counter samples on the `sim/events` track each
    /// time the engine pops an event.
    pub queue_depth: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            step_spans: true,
            queue_depth: true,
        }
    }
}

/// Watchdog limits that convert livelock into a structured
/// [`crate::SimError::WatchdogExpired`] instead of running (or idling)
/// to the horizon.
///
/// Both limits default to 0 = disabled, so the watchdog never changes
/// the behaviour of existing configurations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Watchdog {
    /// Abort after this many popped events (0 = unlimited). Catches
    /// event storms such as unbounded ARQ retry loops.
    pub max_events: u64,
    /// Abort when no run-to-completion step has executed on a
    /// non-environment element for this much *simulated* time while
    /// events keep flowing (0 = no deadline). Catches quiescent livelock
    /// such as a stalled processing element with traffic still arriving.
    pub quiescence_ns: u64,
}

impl Watchdog {
    /// True when either limit is armed.
    pub fn is_armed(&self) -> bool {
        self.max_events > 0 || self.quiescence_ns > 0
    }
}

/// Tunables of one simulation run.
#[derive(Clone, PartialEq, Debug)]
pub struct SimConfig {
    /// Stop once simulated time passes this horizon (nanoseconds).
    pub max_time_ns: u64,
    /// Stop after this many run-to-completion steps (runaway guard).
    pub max_steps: u64,
    /// The execution cost model.
    pub cost_model: CostModel,
    /// Delivery latency for signals between processes on the same
    /// processing element (local queue push), nanoseconds.
    pub local_latency_ns: u64,
    /// Delivery latency for signals crossing the environment boundary
    /// (traffic sources, radio channel), nanoseconds.
    pub env_latency_ns: u64,
    /// Protocol header bytes added to every signal payload on the bus.
    pub header_bytes: u64,
    /// Sender-side copy cost: one `mem` workload unit per this many
    /// payload bytes.
    pub bytes_per_mem_unit: u64,
    /// The RTOS scheduling model of the processing elements.
    pub scheduler: Scheduler,
    /// Event selection for [`crate::Simulation::run_with`] tracing.
    pub trace: TraceOptions,
    /// Livelock watchdog (disabled by default).
    pub watchdog: Watchdog,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_time_ns: 10_000_000, // 10 ms
            max_steps: 2_000_000,
            cost_model: CostModel::paper_defaults(),
            local_latency_ns: 20,
            env_latency_ns: 1_000,
            header_bytes: 8,
            bytes_per_mem_unit: 4,
            scheduler: Scheduler::default(),
            trace: TraceOptions::default(),
            watchdog: Watchdog::default(),
        }
    }
}

impl SimConfig {
    /// A configuration with the given time horizon and defaults for the
    /// rest.
    pub fn with_horizon_ns(max_time_ns: u64) -> SimConfig {
        SimConfig {
            max_time_ns,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.max_time_ns > 0);
        assert!(c.max_steps > 0);
        assert!(c.bytes_per_mem_unit > 0);
    }

    #[test]
    fn with_horizon() {
        let c = SimConfig::with_horizon_ns(123);
        assert_eq!(c.max_time_ns, 123);
    }

    #[test]
    fn watchdog_defaults_to_disarmed() {
        let c = SimConfig::default();
        assert!(!c.watchdog.is_armed());
        assert!(Watchdog {
            max_events: 1,
            quiescence_ns: 0
        }
        .is_armed());
        assert!(Watchdog {
            max_events: 0,
            quiescence_ns: 1
        }
        .is_armed());
    }
}
