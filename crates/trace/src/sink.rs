//! The instrumentation boundary: [`TraceSink`] and its no-op impl.
//!
//! Instrumented hot paths take a `&mut impl TraceSink` parameter. The
//! default entry points pass [`NoopSink`], whose methods are empty and
//! `#[inline]`, so a non-traced build monomorphises to straight-line
//! code — disabled tracing costs at most a dead branch.

/// Identifies one track (a horizontal lane in the trace viewer: one per
/// processing element, HIBI segment, or the event queue).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TrackId(pub(crate) u32);

impl TrackId {
    /// Raw index into the recorder's track table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Receives trace events and metric samples from instrumented code.
///
/// All methods take `&mut self`; implementations are single-threaded by
/// design (the simulator is deterministic and sequential). Timestamps
/// are simulated nanoseconds; host time is measured by [`crate::perf`].
pub trait TraceSink {
    /// True when events are actually recorded. Instrumentation may
    /// branch on this to skip building event arguments.
    fn enabled(&self) -> bool;

    /// Interns a track by name, creating it on first use. Calling again
    /// with the same name returns the same id.
    fn track(&mut self, name: &str) -> TrackId;

    /// Records a complete span `[start_ns, start_ns + dur_ns)`.
    fn span(&mut self, track: TrackId, name: &str, start_ns: u64, dur_ns: u64);

    /// Records a zero-duration instant event.
    fn instant(&mut self, track: TrackId, name: &str, ts_ns: u64);

    /// Records a counter sample (a time series rendered as a filled
    /// graph in the trace viewer).
    fn counter(&mut self, track: TrackId, name: &str, ts_ns: u64, value: f64);

    /// Increments the named metric counter.
    fn add(&mut self, name: &str, by: u64);

    /// Sets the named metric gauge.
    fn gauge(&mut self, name: &str, value: f64);

    /// Records one observation into the named log-linear histogram.
    fn observe(&mut self, name: &str, value: u64);
}

/// The statically-dispatchable do-nothing sink.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
    #[inline]
    fn track(&mut self, _name: &str) -> TrackId {
        TrackId(0)
    }
    #[inline]
    fn span(&mut self, _track: TrackId, _name: &str, _start_ns: u64, _dur_ns: u64) {}
    #[inline]
    fn instant(&mut self, _track: TrackId, _name: &str, _ts_ns: u64) {}
    #[inline]
    fn counter(&mut self, _track: TrackId, _name: &str, _ts_ns: u64, _value: f64) {}
    #[inline]
    fn add(&mut self, _name: &str, _by: u64) {}
    #[inline]
    fn gauge(&mut self, _name: &str, _value: f64) {}
    #[inline]
    fn observe(&mut self, _name: &str, _value: u64) {}
}

/// Forwarding impl so instrumented call chains can hand their sink down
/// by mutable reference without re-monomorphising on reference depth.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    #[inline]
    fn track(&mut self, name: &str) -> TrackId {
        (**self).track(name)
    }
    #[inline]
    fn span(&mut self, track: TrackId, name: &str, start_ns: u64, dur_ns: u64) {
        (**self).span(track, name, start_ns, dur_ns)
    }
    #[inline]
    fn instant(&mut self, track: TrackId, name: &str, ts_ns: u64) {
        (**self).instant(track, name, ts_ns)
    }
    #[inline]
    fn counter(&mut self, track: TrackId, name: &str, ts_ns: u64, value: f64) {
        (**self).counter(track, name, ts_ns, value)
    }
    #[inline]
    fn add(&mut self, name: &str, by: u64) {
        (**self).add(name, by)
    }
    #[inline]
    fn gauge(&mut self, name: &str, value: f64) {
        (**self).gauge(name, value)
    }
    #[inline]
    fn observe(&mut self, name: &str, value: u64) {
        (**self).observe(name, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        let t = sink.track("anything");
        assert_eq!(t.index(), 0);
        sink.span(t, "s", 0, 10);
        sink.observe("h", 42);
    }

    /// Exercises the forwarding impl through a generic bound, the way
    /// instrumented code hands sinks down call chains.
    fn drive<T: TraceSink>(mut sink: T) -> bool {
        let t = sink.track("x");
        sink.instant(t, "i", 5);
        sink.enabled()
    }

    #[test]
    fn mutable_reference_forwards() {
        let mut sink = NoopSink;
        assert!(!drive(&mut sink));
        assert!(!drive(sink));
    }
}
