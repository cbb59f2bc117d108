//! Counters, gauges, and log-linear histograms.

use std::collections::BTreeMap;

/// Direct linear bucket indices cover values `0..LINEAR_CUTOFF`.
const LINEAR_CUTOFF: u64 = 32;
/// Sub-bucket resolution above the linear range: 2^SUB_BITS linear
/// sub-buckets per power-of-two octave (relative precision ~6%).
const SUB_BITS: u32 = 4;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// First octave above the linear range starts at 2^5 = 32.
const FIRST_OCTAVE: u32 = 5;
/// Octaves 5..=63 inclusive.
const NUM_BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - FIRST_OCTAVE as usize) * SUB_COUNT;

/// A fixed-size log-linear histogram of `u64` observations.
///
/// Values below 32 land in exact unit-width buckets; above that, each
/// power-of-two octave is split into 16 linear sub-buckets, so relative
/// error is bounded by 1/16 across the whole `u64` range — the classic
/// HdrHistogram bucketing, sized at 976 buckets (~8 KiB) per histogram.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    fn bucket_index(value: u64) -> usize {
        if value < LINEAR_CUTOFF {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros();
            let sub = ((value >> (msb - SUB_BITS)) as usize) & (SUB_COUNT - 1);
            LINEAR_CUTOFF as usize + (msb - FIRST_OCTAVE) as usize * SUB_COUNT + sub
        }
    }

    /// The inclusive `[low, high]` value range of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the bucket count.
    fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < NUM_BUCKETS, "bucket index out of range");
        if (index as u64) < LINEAR_CUTOFF {
            (index as u64, index as u64)
        } else {
            let rel = index - LINEAR_CUTOFF as usize;
            let octave = FIRST_OCTAVE + (rel / SUB_COUNT) as u32;
            let sub = (rel % SUB_COUNT) as u64;
            let width = 1u64 << (octave - SUB_BITS);
            let low = (1u64 << octave) + sub * width;
            (low, low.wrapping_add(width).wrapping_sub(1))
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`q` in `[0, 1]`), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Histogram::bucket_bounds(index).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Iterates non-empty buckets as `(low, high, count)`.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(index, &c)| {
                let (low, high) = Histogram::bucket_bounds(index);
                (low, high, c)
            })
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names use a dotted hierarchy (`sim.signal_latency_ns`,
/// `hibi.seg0.wait_ns`); the Prometheus exporter sanitises them to the
/// exposition charset. `BTreeMap` keeps exports deterministically
/// ordered.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increments counter `name` by `by` (creating it at 0).
    pub fn add(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_owned(), by);
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_owned(), value);
        }
    }

    /// Records `value` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// The current value of counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, &v)| (n.as_str(), v))
    }

    /// All gauges in name order.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, &v)| (n.as_str(), v))
    }

    /// All histograms in name order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_lands_in_bucket_zero() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
    }

    #[test]
    fn linear_range_is_exact() {
        for v in 0..LINEAR_CUTOFF {
            let index = Histogram::bucket_index(v);
            assert_eq!(index, v as usize);
            assert_eq!(Histogram::bucket_bounds(index), (v, v));
        }
    }

    #[test]
    fn bucket_boundaries_are_consistent() {
        // Every bucket's bounds contain exactly the values that map back
        // to it, probed at the edges.
        for index in 0..NUM_BUCKETS {
            let (low, high) = Histogram::bucket_bounds(index);
            assert_eq!(Histogram::bucket_index(low), index, "low edge of {index}");
            assert_eq!(Histogram::bucket_index(high), index, "high edge of {index}");
            if low > 0 {
                assert_eq!(
                    Histogram::bucket_index(low - 1),
                    index - 1,
                    "value below bucket {index} must fall in the previous bucket"
                );
            }
        }
    }

    #[test]
    fn u64_max_lands_in_the_last_bucket() {
        let index = Histogram::bucket_index(u64::MAX);
        assert_eq!(index, NUM_BUCKETS - 1);
        let (low, high) = Histogram::bucket_bounds(index);
        assert!(low < high);
        assert_eq!(high, u64::MAX);
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn powers_of_two_start_new_sub_ranges() {
        for exp in FIRST_OCTAVE..64 {
            let v = 1u64 << exp;
            let (low, _) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert_eq!(low, v, "2^{exp} must start its bucket");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        for v in [100u64, 1_000, 123_456, 10_000_000_000] {
            h.record(v);
            let (low, high) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert!(low <= v && v <= high);
            // Bucket width is at most 1/16 of the bucket's base value.
            assert!(high - low <= low / 8, "bucket [{low}, {high}] too wide");
        }
    }

    #[test]
    fn stats_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 50.5).abs() < 1e-9);
        let median = h.quantile(0.5).unwrap();
        assert!(
            (45..=55).contains(&median),
            "median bucket ~50, got {median}"
        );
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn registry_round_trip() {
        let mut m = MetricsRegistry::new();
        m.add("sim.steps", 3);
        m.add("sim.steps", 2);
        m.gauge("queue_depth", 4.0);
        m.observe("latency", 10);
        m.observe("latency", 20);
        assert_eq!(m.counter("sim.steps"), Some(5));
        assert!(m.gauges().eq([("queue_depth", 4.0)]));
        assert_eq!(m.histogram("latency").unwrap().count(), 2);
        assert!(m.counter("nope").is_none());
        assert!(!m.is_empty());
    }
}
