//! Chrome trace-event JSON export (hand-rolled writer).
//!
//! The output loads in Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`. Every track is one thread of process 1, named by
//! a `thread_name` metadata event. A recorder holds one clock, so the
//! exporter names no process: [`crate::Recorder`] tracks are simulated
//! time, and [`crate::perf::PerfReport::to_chrome`] replays host time
//! through the same writer.
//!
//! Timestamps are emitted in microseconds (the trace-event unit) with
//! nanosecond precision preserved as three decimals.

use std::fmt::Write as _;

use crate::recorder::{EventKind, Recorder};

/// Appends `text` escaped for a JSON string literal (quotes not
/// included).
fn escape_json_into(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends nanoseconds rendered as microseconds with 3 decimals.
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Renders the recorder's events as a complete Chrome trace-event JSON
/// document (object form, `traceEvents` array).
pub fn to_chrome_json(recorder: &Recorder) -> String {
    let mut out = String::with_capacity(64 + recorder.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    // Every event is rendered with `write!` straight into the one
    // output buffer; `sep` places the comma/newline between them.
    let mut sep = move |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };

    // Metadata: name every track (thread).
    for (index, track) in recorder.tracks().iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{index},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"",
        );
        escape_json_into(&mut out, &track.name);
        out.push_str("\"}}");
    }

    for event in recorder.events() {
        let tid = event.track.index();
        sep(&mut out);
        let ph = match event.kind {
            EventKind::Span { .. } => "X",
            EventKind::Instant => "i",
            EventKind::Counter { .. } => "C",
        };
        let _ = write!(out, "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"name\":\"");
        escape_json_into(&mut out, &event.name);
        out.push_str("\",\"ts\":");
        write_us(&mut out, event.ts_ns);
        match event.kind {
            EventKind::Span { dur_ns } => {
                out.push_str(",\"dur\":");
                write_us(&mut out, dur_ns);
                out.push('}');
            }
            EventKind::Instant => out.push_str(",\"s\":\"t\"}"),
            EventKind::Counter { value } => {
                let _ = write!(out, ",\"args\":{{\"value\":{}}}}}", fmt_f64(value));
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders a float as valid JSON (no NaN/Inf, which JSON forbids).
fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        let text = format!("{value}");
        // `{}` on a whole f64 prints without a dot; keep it numeric
        // either way (both are valid JSON numbers).
        text
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::sink::TraceSink;

    fn sample() -> Recorder {
        let mut rec = Recorder::new();
        let cpu = rec.track("pe/cpu1");
        let seg = rec.track("hibi/seg0");
        rec.span(cpu, "step \"x\"", 1_500, 250);
        rec.instant(cpu, "drop", 2_000);
        rec.counter(cpu, "queue_depth", 2_000, 3.0);
        rec.span(seg, "busy", 10, 20);
        rec
    }

    #[test]
    fn output_is_valid_json() {
        let text = to_chrome_json(&sample());
        let doc = crate::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name + 4 events.
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn spans_carry_microsecond_timestamps() {
        let text = to_chrome_json(&sample());
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("one span event");
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn every_track_lives_in_process_one() {
        let text = to_chrome_json(&sample());
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events
            .iter()
            .all(|e| e.get("pid").unwrap().as_f64() == Some(1.0)));
        let seg_span = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("tid").unwrap().as_f64() == Some(1.0)
            })
            .expect("second track's span present");
        assert_eq!(seg_span.get("name").and_then(Json::as_str), Some("busy"));
    }

    /// Perfetto/chrome://tracing label threads from `M` metadata events;
    /// without them the UI shows bare tids. Pin that every track gets a
    /// `thread_name` carrying the track's display name, and that no
    /// process is named (a recorder holds one clock, named by no one).
    #[test]
    fn metadata_names_every_track() {
        let text = to_chrome_json(&sample());
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let meta_names: Vec<(&str, &str)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .unwrap(),
                )
            })
            .collect();
        assert!(meta_names.iter().all(|&(kind, _)| kind == "thread_name"));
        for track in ["pe/cpu1", "hibi/seg0"] {
            assert!(
                meta_names.contains(&("thread_name", track)),
                "track {track} must be named: {meta_names:?}"
            );
        }
    }

    #[test]
    fn quotes_in_names_are_escaped() {
        let text = to_chrome_json(&sample());
        assert!(text.contains("step \\\"x\\\""));
        crate::json::parse(&text).expect("still valid JSON");
    }

    #[test]
    fn empty_recorder_exports_an_empty_array() {
        let rec = Recorder::new();
        let doc = crate::json::parse(&to_chrome_json(&rec)).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }
}
