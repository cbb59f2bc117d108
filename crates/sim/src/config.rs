//! Simulation configuration.

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

/// Tunables of one simulation run: the horizon and the runaway guards.
/// Execution is priced by [`tut_platform::CostModel::paper_defaults`],
/// and each processing element dispatches its ready processes by fixed
/// priority with no context-switch charge.
#[derive(Clone, PartialEq, Debug)]
pub struct SimConfig {
    /// Stop once simulated time passes this horizon (nanoseconds).
    pub max_time_ns: u64,
    /// Stop after this many run-to-completion steps (runaway guard).
    pub max_steps: u64,
    /// Livelock watchdog (disabled by default).
    pub watchdog: Watchdog,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_time_ns: 10_000_000, // 10 ms
            max_steps: 2_000_000,
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
    }

    #[test]
    fn with_horizon() {
        let c = SimConfig::with_horizon_ns(123);
        assert_eq!(c.max_time_ns, 123);
    }

    #[test]
    fn watchdog_defaults_to_disarmed() {
        let c = SimConfig::default();
        assert_eq!(
            c.watchdog,
            Watchdog {
                max_events: 0,
                quiescence_ns: 0
            }
        );
    }
}
