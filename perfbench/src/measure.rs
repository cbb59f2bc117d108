//! Measurement helpers: clocks, order statistics, content fingerprints,
//! the seed generator, and peak live-heap accounting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Runs `f` and returns its result with the elapsed wall time in ns.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank rule; 0 for
/// an empty set.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (the lower middle for an even count).
pub fn median(samples: &[u64]) -> u64 {
    quantile(samples, 0.5)
}

/// 64-bit FNV-1a. The benchmark keeps its own hash so its fingerprints
/// stay comparable across changes to the hashers inside the program.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length separator, so concatenations of different splits differ.
        for b in (bytes.len() as u64).to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn str(self, text: &str) -> Fnv {
        self.bytes(text.as_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives every seeded input from the `--seed` argument.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The system allocator, counting live heap bytes and their peak. The
/// peak depends only on what the program allocates, not on how the
/// allocator lays it out, so it repeats far more closely than resident
/// memory does.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`; `System` hands out zeroed pages cheaply.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        new
    }
}

/// Counts `bytes` more live heap and raises the peak. The counters
/// publish no other data, so relaxed ordering suffices.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Peak live heap so far, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = [5, 1, 4, 2, 3];
        assert_eq!(median(&s), 3);
        assert_eq!(quantile(&s, 0.95), 5);
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(median(&[]), 0);
    }

    #[test]
    fn fnv_separates_splits() {
        let a = Fnv::new().str("ab").str("c").finish();
        let b = Fnv::new().str("a").str("bc").finish();
        assert_ne!(a, b);
    }
}
