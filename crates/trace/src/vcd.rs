//! VCD (value change dump) waveform export.
//!
//! Renders span activity as 1-bit wires, the natural EDA view of the
//! HIBI bus: for every selected track, each distinct span name becomes
//! a wire (`seg0_busy`, `seg0_arb`, …) that is high while a span of
//! that name is active. The output loads in GTKWave or any IEEE 1364
//! VCD viewer. Timescale is 1 ns, matching the simulated clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::recorder::{EventKind, Recorder};

/// A VCD short identifier: base-94 over the printable ASCII range.
fn id_code(mut index: usize) -> String {
    let mut out = String::new();
    loop {
        out.push((33 + (index % 94)) as u8 as char);
        index /= 94;
        if index == 0 {
            return out;
        }
        index -= 1;
    }
}

/// Maps a track/span name to a legal VCD identifier word.
fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders every track whose name starts with
/// `track_prefix` as a set of 1-bit wires, one per distinct span name.
///
/// Overlapping spans on the same wire are merged (the wire stays high
/// until the last one ends). Tracks without spans are skipped. Passing
/// an empty prefix selects every track.
pub fn to_vcd(recorder: &Recorder, track_prefix: &str) -> String {
    // wire key: (track index, span name) -> edge list (ts, delta).
    let mut edges: BTreeMap<(usize, String), Vec<(u64, i64)>> = BTreeMap::new();
    for event in recorder.events() {
        let track = &recorder.tracks()[event.track.index()];
        if !track.name.starts_with(track_prefix) {
            continue;
        }
        if let EventKind::Span { dur_ns } = event.kind {
            let wire = edges
                .entry((event.track.index(), event.name.clone()))
                .or_default();
            wire.push((event.ts_ns, 1));
            wire.push((event.ts_ns.saturating_add(dur_ns.max(1)), -1));
        }
    }

    let mut out = String::new();
    out.push_str("$version tut-trace VCD export $end\n");
    out.push_str("$timescale 1 ns $end\n");
    out.push_str("$scope module trace $end\n");
    let mut wires: Vec<(String, Vec<(u64, i64)>)> = Vec::new();
    for ((track_index, span_name), wire_edges) in edges {
        let track = &recorder.tracks()[track_index];
        let code = id_code(wires.len());
        let _ = writeln!(
            out,
            "$var wire 1 {code} {}_{} $end",
            sanitise(&track.name),
            sanitise(&span_name)
        );
        wires.push((code, wire_edges));
    }
    out.push_str("$upscope $end\n$enddefinitions $end\n");

    // Initial values: everything low.
    out.push_str("$dumpvars\n");
    for (code, _) in &wires {
        let _ = writeln!(out, "0{code}");
    }
    out.push_str("$end\n");

    // Sweep: merge per-wire edge lists into a global change timeline.
    // (time, wire index, new bit)
    let mut changes: Vec<(u64, usize, u8)> = Vec::new();
    for (wire_index, (_, wire_edges)) in wires.iter_mut().enumerate() {
        wire_edges.sort_by_key(|&(ts, delta)| (ts, -delta));
        let mut depth: i64 = 0;
        for &(ts, delta) in wire_edges.iter() {
            let was_high = depth > 0;
            depth += delta;
            let is_high = depth > 0;
            if was_high != is_high {
                changes.push((ts, wire_index, u8::from(is_high)));
            }
        }
    }
    changes.sort_by_key(|&(ts, wire, _)| (ts, wire));
    let mut current_time: Option<u64> = None;
    for (ts, wire, bit) in changes {
        if current_time != Some(ts) {
            let _ = writeln!(out, "#{ts}");
            current_time = Some(ts);
        }
        let _ = writeln!(out, "{bit}{}", wires[wire].0);
    }
    out
}

/// A lightweight structural check of a VCD document: header present,
/// every change references a declared identifier, timestamps
/// non-decreasing. Used by tests and the `repro` binary to confirm
/// exports parse before handing them to a real viewer.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn validate_vcd(text: &str) -> Result<(), String> {
    let mut declared: Vec<String> = Vec::new();
    let mut in_definitions = true;
    let mut last_time: u64 = 0;
    let mut saw_timescale = false;
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        let fail = |msg: &str| Err(format!("line {}: {msg}", number + 1));
        if line.is_empty() {
            continue;
        }
        if in_definitions {
            if line.starts_with("$timescale") {
                saw_timescale = true;
            } else if line.starts_with("$var") {
                let fields: Vec<&str> = line.split_whitespace().collect();
                if fields.len() < 6 || fields[5] != "$end" && fields[fields.len() - 1] != "$end" {
                    return fail("malformed $var");
                }
                declared.push(fields[3].to_owned());
            } else if line.starts_with("$enddefinitions") {
                in_definitions = false;
            }
            continue;
        }
        if line.starts_with('$') {
            continue; // $dumpvars / $end blocks
        }
        if let Some(stripped) = line.strip_prefix('#') {
            let ts: u64 = stripped
                .parse()
                .map_err(|_| format!("line {}: bad timestamp", number + 1))?;
            if ts < last_time {
                return fail("timestamps must not decrease");
            }
            last_time = ts;
        } else if let Some(code) = line.strip_prefix(['0', '1', 'x', 'z']) {
            if !declared.iter().any(|d| d == code) {
                return fail("change references undeclared identifier");
            }
        } else {
            return fail("unrecognised line");
        }
    }
    if !saw_timescale {
        return Err("missing $timescale".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    fn sample() -> Recorder {
        let mut rec = Recorder::new();
        let seg = rec.track("hibi/seg0");
        let other = rec.track("pe/cpu1");
        rec.span(seg, "busy", 100, 50);
        rec.span(seg, "arb", 90, 10);
        rec.span(seg, "busy", 200, 25);
        rec.span(other, "step", 0, 10);
        rec
    }

    #[test]
    fn export_declares_one_wire_per_span_name() {
        let text = to_vcd(&sample(), "hibi/");
        assert!(text.contains("hibi_seg0_busy"));
        assert!(text.contains("hibi_seg0_arb"));
        assert!(!text.contains("pe_cpu1"), "prefix filter applies");
        validate_vcd(&text).expect("structurally valid");
    }

    #[test]
    fn changes_are_time_ordered_and_toggle() {
        let text = to_vcd(&sample(), "hibi/");
        let times: Vec<u64> = text
            .lines()
            .filter_map(|l| l.strip_prefix('#'))
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(times, vec![90, 100, 150, 200, 225]);
    }

    #[test]
    fn overlapping_spans_merge() {
        let mut rec = Recorder::new();
        let seg = rec.track("hibi/seg0");
        rec.span(seg, "busy", 0, 100);
        rec.span(seg, "busy", 50, 100); // overlaps; wire high 0..150
        let text = to_vcd(&rec, "hibi/");
        let times: Vec<u64> = text
            .lines()
            .filter_map(|l| l.strip_prefix('#'))
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(times, vec![0, 150], "no glitch at 50 or 100");
        validate_vcd(&text).unwrap();
    }

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let code = id_code(i);
            assert!(code.bytes().all(|b| (33..127).contains(&b)));
            assert!(seen.insert(code));
        }
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_vcd("not a vcd").is_err());
        let good = to_vcd(&sample(), "");
        validate_vcd(&good).unwrap();
        let bad = good.replace("#90", "#999999999\n#90");
        assert!(validate_vcd(&bad).is_err(), "time went backwards");
    }
}
