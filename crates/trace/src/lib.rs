//! Structured tracing and metrics for the TUT-Profile tool flow.
//!
//! The paper's whole methodology (Figure 2, §4.4) revolves around
//! *observing* an executing system: a simulation produces a log that a
//! profiling tool analyses to drive grouping and mapping iteration. This
//! crate is the observability substrate for that loop, built std-only
//! with zero external dependencies so the workspace stays buildable
//! offline:
//!
//! * [`sink::TraceSink`] — the instrumentation boundary. Hot code
//!   (`tut-sim`'s run-to-completion kernel, `tut-hibi`'s transfer
//!   scheduler) is generic over the sink, so the no-op implementation
//!   ([`sink::NoopSink`]) is statically dispatched and compiles away.
//! * [`recorder::Recorder`] — the collecting implementation: named
//!   tracks on two clock domains (simulated nanoseconds and a monotonic
//!   host clock for tool-stage timing), spans, instants, counter
//!   samples, plus an embedded [`metrics::MetricsRegistry`].
//! * [`metrics`] — counters, gauges, and log-linear histograms
//!   (constant-size, HdrHistogram-style bucketing) for latency and
//!   utilisation distributions.
//! * Exporters: [`chrome`] (trace-event JSON loadable in Perfetto or
//!   `chrome://tracing`), [`prom`] (Prometheus text exposition), and
//!   [`vcd`] (value-change-dump waveforms of per-segment busy/reserved
//!   lines, viewable in GTKWave).
//! * [`perf`] — the host-side self-profiler: scoped span timers over
//!   `std::time::Instant` with interned labels, a thread-local span
//!   stack, and per-thread buffers merged at drain. Renders a hotspot
//!   table, collapsed (flamegraph) stacks, and a Chrome trace; the
//!   [`perf::NoProf`]/[`perf::HostProf`] pair gives instrumented code
//!   the same statically-dispatched zero-cost-off discipline as
//!   [`sink::NoopSink`].
//! * [`json`] — a minimal JSON parser used to validate exporter output
//!   in tests without external tooling.
//! * [`rng`] — a SplitMix64 PRNG: the in-tree replacement for the
//!   `rand` crate used by `tut-explore`'s annealing pass and by seeded
//!   test-data generators across the workspace.
//!
//! # Example
//!
//! ```
//! use tut_trace::{Clock, Recorder, TraceSink};
//!
//! let mut rec = Recorder::new();
//! let cpu = rec.track("pe/cpu1", Clock::Sim);
//! rec.span(cpu, "step", 100, 40);
//! rec.counter(cpu, "queue_depth", 140, 2.0);
//! rec.observe("sim.signal_latency_ns", 1234);
//! let json = tut_trace::chrome::to_chrome_json(&rec);
//! assert!(json.contains("pe/cpu1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod perf;
pub mod prom;
pub mod recorder;
pub mod rng;
pub mod sink;
pub mod vcd;

pub use metrics::{Histogram, MetricsRegistry};
pub use perf::{HostProf, NoProf, PerfReport, PerfSpan, Prof};
pub use recorder::{EventKind, Recorder, TraceEvent};
pub use rng::SplitMix64;
pub use sink::{Clock, NoopSink, TraceSink, TrackId};
