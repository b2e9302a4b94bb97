//! The global metrics registry: counters and fixed-bucket histograms
//! with lock-free hot paths.
//!
//! Registration takes a short-lived registry lock once per call site
//! (the [`counter!`](crate::counter)/[`histogram!`](crate::histogram)
//! macros cache the returned
//! `&'static` handle in a `OnceLock`); every subsequent update is a
//! single atomic RMW. Metrics always count, independent of whether span
//! tracing is enabled — an atomic add is cheap enough to leave on, and
//! it keeps counter values meaningful for the summary table whenever
//! the user asks for one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets: bucket 0 holds exactly 0, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i)`, and the top bucket (64)
/// holds `[2^63, u64::MAX]`. 65 buckets cover the full `u64` range, so
/// any duration lands somewhere. (Sized 64 historically, which made
/// `record(v)` panic with an out-of-bounds bucket for `v >= 2^63` —
/// pinned by the exact-rank oracle in `tests/quantile_oracle.rs`.)
pub(crate) const BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram. `record` is three relaxed
/// atomic adds; quantiles are approximate (bucket upper bound), the
/// mean is exact.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Approximate quantile (`0.0..=1.0`), computed as a *bucket upper
    /// bound*: the exact rank-`ceil(q·count)` observation is located by
    /// walking cumulative bucket counts, and the largest value its
    /// power-of-two bucket admits is reported. The estimate therefore
    /// never under-reports, and over-reports by strictly less than 2×
    /// (`exact <= quantile(q) < 2 * max(exact, 1)`): enough to tell
    /// microseconds from milliseconds, never enough to tell 600 ns from
    /// 900 ns. The exact-rank contract is pinned against a sorted
    /// oracle in `tests/quantile_oracle.rs`.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.bucket_counts(), q)
    }

    /// A relaxed snapshot of the per-bucket counts.
    pub(crate) fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// Largest value a bucket admits (inclusive).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// [`Histogram::quantile`] over a plain bucket-count array — the shared
/// kernel for live histograms and merged window snapshots (see
/// `crate::window`). Same approximation contract: reports the upper
/// bound of the bucket holding the exact rank-`ceil(q·count)`
/// observation.
pub(crate) fn quantile_from_counts(counts: &[u64; BUCKETS], q: f64) -> u64 {
    let count: u64 = counts.iter().sum();
    if count == 0 {
        return 0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for (i, &bucket) in counts.iter().enumerate() {
        cumulative += bucket;
        if cumulative >= target {
            return bucket_upper_bound(i);
        }
    }
    u64::MAX
}

enum Handle {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<Vec<(String, Handle)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(String, Handle)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers (or fetches) the counter named `name`. Handles are leaked
/// intentionally: metrics live for the process, and a `&'static`
/// reference is what makes the hot path lock-free.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry().lock().expect("metric registry poisoned");
    for (n, handle) in reg.iter() {
        if let Handle::Counter(c) = handle {
            if n == name {
                return c;
            }
        }
    }
    let leaked: &'static Counter = Box::leak(Box::default());
    reg.push((name.to_string(), Handle::Counter(leaked)));
    leaked
}

/// Registers (or fetches) the histogram named `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = registry().lock().expect("metric registry poisoned");
    for (n, handle) in reg.iter() {
        if let Handle::Histogram(h) = handle {
            if n == name {
                return h;
            }
        }
    }
    let leaked: &'static Histogram = Box::leak(Box::default());
    reg.push((name.to_string(), Handle::Histogram(leaked)));
    leaked
}

/// A point-in-time metric reading for reporting.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Histogram digest: count, sum, approximate p50/p99.
    Histogram {
        /// Observation count.
        count: u64,
        /// Exact sum.
        sum: u64,
        /// Approximate median.
        p50: u64,
        /// Approximate 99th percentile.
        p99: u64,
    },
}

/// Snapshot of every registered metric, sorted by name.
pub(crate) fn snapshot() -> Vec<(String, MetricValue)> {
    let reg = registry().lock().expect("metric registry poisoned");
    let mut out: Vec<(String, MetricValue)> = reg
        .iter()
        .map(|(name, handle)| {
            let value = match handle {
                Handle::Counter(c) => MetricValue::Counter(c.get()),
                Handle::Histogram(h) => MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    p50: h.quantile(0.50),
                    p99: h.quantile(0.99),
                },
            };
            (name.clone(), value)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Zeroes every registered metric (handles stay valid). For tests.
pub(crate) fn reset() {
    let reg = registry().lock().expect("metric registry poisoned");
    for (_, handle) in reg.iter() {
        match handle {
            Handle::Counter(c) => c.reset(),
            Handle::Histogram(h) => h.reset(),
        }
    }
}

/// A counter handle cached per call site: the registry lock is taken at
/// most once, every later hit is a `OnceLock` fast-path load plus one
/// atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// A histogram handle cached per call site (see [`counter!`](crate::counter)).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn counter_roundtrip() {
        let c = counter("test.counter.roundtrip");
        let before = c.get();
        c.add(5);
        c.incr();
        assert_eq!(c.get(), before + 6);
        // Same name returns the same handle.
        assert!(std::ptr::eq(c, counter("test.counter.roundtrip")));
    }

    #[test]
    fn histogram_mean_exact_quantiles_coarse() {
        let h = Histogram::default();
        for v in [100u64, 200, 400, 800] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1500);
        assert!((h.mean() - 375.0).abs() < 1e-9);
        // p50 falls in the bucket holding 200 ([128, 256)).
        assert_eq!(h.quantile(0.5), 255);
        // p99 falls in the bucket holding 800 ([512, 1024)).
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        counter("test.snap.a").add(1);
        histogram("test.snap.b").record(3);
        let snap = snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("test.snap."))
            .collect();
        assert_eq!(names, ["test.snap.a", "test.snap.b"]);
        let mut sorted = snap.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(snap, sorted);
    }
}
