//! Prometheus text exposition of a [`MetricsRegistry`].
//!
//! Produces the classic text format (`# TYPE` lines, cumulative
//! `_bucket{le="…"}` series for histograms). Metric names are sanitised
//! to the exposition charset: anything outside `[a-zA-Z0-9_:]` becomes
//! `_`, so the dotted in-tree names (`sim.signal_latency_ns`) export as
//! `sim_signal_latency_ns`.

use std::fmt::Write as _;

use crate::metrics::MetricsRegistry;

/// Maps an in-tree metric name to a legal Prometheus metric name.
pub(crate) fn sanitise(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out
        .chars()
        .next()
        .map(|c| c.is_ascii_digit())
        .unwrap_or(true)
    {
        out.insert(0, '_');
    }
    out
}

fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else if value.is_nan() {
        "NaN".to_owned()
    } else if value > 0.0 {
        "+Inf".to_owned()
    } else {
        "-Inf".to_owned()
    }
}

/// Renders the registry in Prometheus text exposition format.
pub fn to_prometheus(metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, value) in metrics.counters() {
        let name = sanitise(name);
        let _ = write!(out, "# TYPE {name} counter\n{name} {value}\n");
    }
    for (name, value) in metrics.gauges() {
        let name = sanitise(name);
        let _ = write!(out, "# TYPE {name} gauge\n{name} {}\n", fmt_f64(value));
    }
    for (name, histogram) in metrics.histograms() {
        let name = sanitise(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (_, high, count) in histogram.nonzero_buckets() {
            cumulative += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{high}\"}} {cumulative}");
        }
        let _ = write!(
            out,
            "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
            histogram.count(),
            histogram.sum(),
            histogram.count()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitises_names() {
        assert_eq!(sanitise("sim.signal_latency_ns"), "sim_signal_latency_ns");
        assert_eq!(sanitise("hibi/seg 0"), "hibi_seg_0");
        assert_eq!(sanitise("9lives"), "_9lives");
        assert_eq!(sanitise(""), "_");
    }

    #[test]
    fn counters_gauges_histograms_export() {
        let mut m = MetricsRegistry::new();
        m.add("sim.steps", 12);
        m.gauge("queue.depth", 3.5);
        m.observe("latency", 5);
        m.observe("latency", 5);
        m.observe("latency", 100);
        let text = to_prometheus(&m);
        assert!(text.contains("# TYPE sim_steps counter\nsim_steps 12\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth 3.5\n"));
        assert!(text.contains("# TYPE latency histogram\n"));
        assert!(text.contains("latency_bucket{le=\"5\"} 2\n"));
        assert!(text.contains("latency_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("latency_sum 110\n"));
        assert!(text.contains("latency_count 3\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sorted() {
        let mut m = MetricsRegistry::new();
        for v in [1u64, 2, 2, 50, 1000] {
            m.observe("h", v);
        }
        let text = to_prometheus(&m);
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("h_bucket{") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 5);
    }

    #[test]
    fn empty_registry_exports_nothing() {
        assert_eq!(to_prometheus(&MetricsRegistry::new()), "");
    }
}
