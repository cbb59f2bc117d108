//! The collecting [`TraceSink`]: tracks, events, and embedded metrics.

use std::collections::HashMap;
use std::time::Instant;

use crate::metrics::MetricsRegistry;
use crate::sink::{Clock, TraceSink, TrackId};

/// What kind of event a [`TraceEvent`] is.
#[derive(Clone, PartialEq, Debug)]
pub enum EventKind {
    /// A complete span lasting `dur_ns` from the event timestamp.
    Span {
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A zero-duration marker.
    Instant,
    /// A counter sample.
    Counter {
        /// Sampled value.
        value: f64,
    },
}

/// One recorded event.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceEvent {
    /// The track the event belongs to.
    pub track: TrackId,
    /// Event name (span label, instant label, or counter series name).
    pub name: String,
    /// Timestamp in nanoseconds (clock domain of the track).
    pub ts_ns: u64,
    /// Span, instant, or counter payload.
    pub kind: EventKind,
}

/// One named track.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Track {
    /// Display name (`pe/cpu1`, `hibi/seg0`, `tool/profiling`).
    pub name: String,
    /// The clock domain of the track's timestamps.
    pub clock: Clock,
}

/// An in-memory trace recorder.
///
/// Collects events on interned tracks plus metric samples, and carries
/// the monotonic host clock used to stamp tool-stage spans. Export the
/// result with [`crate::chrome::to_chrome_json`],
/// [`crate::prom::to_prometheus`], or [`crate::vcd::to_vcd`].
#[derive(Clone, Debug)]
pub struct Recorder {
    tracks: Vec<Track>,
    by_name: HashMap<(String, bool), TrackId>,
    events: Vec<TraceEvent>,
    /// Counters, gauges, and histograms recorded through the sink
    /// interface (or directly).
    pub metrics: MetricsRegistry,
    started: Instant,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder; the host clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            tracks: Vec::new(),
            by_name: HashMap::new(),
            events: Vec::new(),
            metrics: MetricsRegistry::new(),
            started: Instant::now(),
        }
    }

    /// All tracks in creation order (`TrackId::index` indexes this).
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// All events in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Looks a track up by name without creating it.
    pub fn find_track(&self, name: &str) -> Option<TrackId> {
        self.tracks
            .iter()
            .position(|t| t.name == name)
            .map(|i| TrackId(i as u32))
    }
}

impl TraceSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn track(&mut self, name: &str, clock: Clock) -> TrackId {
        let key = (name.to_owned(), matches!(clock, Clock::Host));
        if let Some(&id) = self.by_name.get(&key) {
            return id;
        }
        let id = TrackId(self.tracks.len() as u32);
        self.tracks.push(Track {
            name: name.to_owned(),
            clock,
        });
        self.by_name.insert(key, id);
        id
    }

    fn span(&mut self, track: TrackId, name: &str, start_ns: u64, dur_ns: u64) {
        self.events.push(TraceEvent {
            track,
            name: name.to_owned(),
            ts_ns: start_ns,
            kind: EventKind::Span { dur_ns },
        });
    }

    fn instant(&mut self, track: TrackId, name: &str, ts_ns: u64) {
        self.events.push(TraceEvent {
            track,
            name: name.to_owned(),
            ts_ns,
            kind: EventKind::Instant,
        });
    }

    fn counter(&mut self, track: TrackId, name: &str, ts_ns: u64, value: f64) {
        self.events.push(TraceEvent {
            track,
            name: name.to_owned(),
            ts_ns,
            kind: EventKind::Counter { value },
        });
    }

    fn add(&mut self, name: &str, by: u64) {
        self.metrics.add(name, by);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.metrics.gauge(name, value);
    }

    fn observe(&mut self, name: &str, value: u64) {
        self.metrics.observe(name, value);
    }

    fn host_now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_are_interned() {
        let mut rec = Recorder::new();
        let a = rec.track("pe/cpu1", Clock::Sim);
        let b = rec.track("pe/cpu1", Clock::Sim);
        let c = rec.track("pe/cpu2", Clock::Sim);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(rec.tracks().len(), 2);
        assert_eq!(rec.find_track("pe/cpu2"), Some(c));
        assert_eq!(rec.find_track("nope"), None);
    }

    #[test]
    fn events_are_recorded_in_order() {
        let mut rec = Recorder::new();
        let t = rec.track("t", Clock::Sim);
        rec.span(t, "a", 0, 5);
        rec.instant(t, "b", 2);
        rec.counter(t, "c", 3, 1.5);
        assert_eq!(rec.len(), 3);
        assert!(matches!(
            rec.events()[0].kind,
            EventKind::Span { dur_ns: 5 }
        ));
        assert!(matches!(rec.events()[1].kind, EventKind::Instant));
        assert!(matches!(rec.events()[2].kind, EventKind::Counter { .. }));
    }

    #[test]
    fn metrics_route_to_the_registry() {
        let mut rec = Recorder::new();
        rec.add("n", 2);
        rec.observe("h", 7);
        rec.gauge("g", 3.0);
        assert_eq!(rec.metrics.counter("n"), Some(2));
        assert_eq!(rec.metrics.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn host_clock_is_monotonic() {
        let rec = Recorder::new();
        let a = rec.host_now_ns();
        let b = rec.host_now_ns();
        assert!(b >= a);
    }
}
