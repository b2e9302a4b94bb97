//! Rolling-window histograms: recent latency, not lifetime latency.
//!
//! A lifetime [`Histogram`] answers "how has
//! this process behaved since it started"; a live dashboard needs "how
//! is it behaving *now*". [`WindowedHistogram`] keeps a small ring of
//! per-slot histograms, each covering `slot_ms` of wall time. Recording
//! lands in the slot for the current time; a snapshot merges every slot
//! whose stamp falls inside the window and reports count/sum/p50/p99
//! over just that span. Old slots are reclaimed lazily: the first
//! recorder to land in a slot with a stale stamp wins a CAS and zeroes
//! the slot's buckets before counting itself.
//!
//! Concurrency model — lock-light, not lock-free-perfect: the stamp CAS
//! serializes slot rotation, but a recorder racing the winner's reset
//! can have its observation zeroed, and a snapshot racing a reset can
//! read a partially cleared slot. Both races lose at most a slot's
//! worth of *recent* observations from a *windowed approximation*; they
//! never corrupt counts (all atomics), never panic, and never touch the
//! lifetime histograms that feed the summary table. That trade is taken
//! deliberately: `record` stays at one load + CAS-on-rotation + three
//! relaxed adds, cheap enough to sit on the daemon's per-request path.
//!
//! Time plumbing: callers normally use [`WindowedHistogram::record`] /
//! [`WindowedHistogram::snapshot`], which derive "now" from a private
//! monotonic epoch. The `_at` variants take explicit milliseconds so
//! tests (and Miri, which dislikes wall-clock waits) can drive rotation
//! deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::metrics::{quantile_from_counts, Histogram, BUCKETS};

/// One ring slot: a stamp naming which time slice the histogram holds.
/// Stamp 0 means "never used"; live stamps are `slice_index + 1`.
#[derive(Debug, Default)]
struct Slot {
    stamp: AtomicU64,
    hist: Histogram,
}

/// A rolling-window histogram digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowDigest {
    /// Observations inside the window.
    pub count: u64,
    /// Exact sum of those observations.
    pub sum: u64,
    /// Approximate median (bucket upper bound, see
    /// [`Histogram::quantile`](crate::metrics::Histogram::quantile)).
    pub p50: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Width of the window this digest covers, in milliseconds.
    pub window_ms: u64,
}

/// A bounded ring of time-sliced histograms; see the module docs.
#[derive(Debug)]
pub struct WindowedHistogram {
    slots: Vec<Slot>,
    slot_ms: u64,
    epoch: Instant,
}

impl Default for WindowedHistogram {
    /// 12 slots of 5 s: a 60 s window, rotating often enough that a
    /// watch loop sees load changes within seconds.
    fn default() -> Self {
        WindowedHistogram::new(12, 5_000)
    }
}

impl WindowedHistogram {
    /// A window of `slots * slot_ms` milliseconds. Both are clamped to
    /// at least 1.
    pub(crate) fn new(slots: usize, slot_ms: u64) -> WindowedHistogram {
        WindowedHistogram {
            slots: (0..slots.max(1)).map(|_| Slot::default()).collect(),
            slot_ms: slot_ms.max(1),
            epoch: Instant::now(),
        }
    }

    /// Total window width in milliseconds.
    pub(crate) fn window_ms(&self) -> u64 {
        self.slot_ms * self.slots.len() as u64
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Records one observation at the current time.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_at(value, self.now_ms());
    }

    /// Records one observation as if it happened at `now_ms`
    /// milliseconds past the epoch (deterministic test hook).
    pub(crate) fn record_at(&self, value: u64, now_ms: u64) {
        let stamp = now_ms / self.slot_ms + 1;
        let slot = &self.slots[(stamp % self.slots.len() as u64) as usize];
        let seen = slot.stamp.load(Ordering::Acquire);
        if seen != stamp {
            // The slot still holds an expired slice. One recorder wins
            // the rotation and clears it; losers record into the fresh
            // slice without clearing (their CAS fails because the
            // winner already advanced the stamp).
            if slot
                .stamp
                .compare_exchange(seen, stamp, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slot.hist.reset();
            }
        }
        slot.hist.record(value);
    }

    /// Digest of every observation inside the window ending now.
    pub fn snapshot(&self) -> WindowDigest {
        self.snapshot_at(self.now_ms())
    }

    /// Digest of the window ending at `now_ms` (deterministic test
    /// hook). Slots whose stamp falls outside
    /// `(current - slots, current]` are expired and excluded even
    /// though they have not been physically cleared yet.
    pub(crate) fn snapshot_at(&self, now_ms: u64) -> WindowDigest {
        let current = now_ms / self.slot_ms + 1;
        let n = self.slots.len() as u64;
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut counts = [0u64; BUCKETS];
        for slot in &self.slots {
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == 0 || stamp > current || current - stamp >= n {
                continue;
            }
            count += slot.hist.count();
            sum += slot.hist.sum();
            for (acc, b) in counts.iter_mut().zip(slot.hist.bucket_counts()) {
                *acc += b;
            }
        }
        WindowDigest {
            count,
            sum,
            p50: quantile_from_counts(&counts, 0.50),
            p99: quantile_from_counts(&counts, 0.99),
            window_ms: self.window_ms(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_digests_to_zero() {
        let w = WindowedHistogram::new(4, 100);
        let d = w.snapshot_at(0);
        assert_eq!(d.count, 0);
        assert_eq!(d.sum, 0);
        assert_eq!(d.p50, 0);
        assert_eq!(d.p99, 0);
        assert_eq!(d.window_ms, 400);
    }

    #[test]
    fn observations_inside_the_window_are_counted() {
        let w = WindowedHistogram::new(4, 100);
        w.record_at(100, 0);
        w.record_at(200, 150);
        w.record_at(400, 250);
        let d = w.snapshot_at(250);
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 700);
        // Rank-2 of [100, 200, 400] is 200 → bucket [128, 256).
        assert_eq!(d.p50, 255);
        assert_eq!(d.p99, 511);
    }

    #[test]
    fn old_observations_roll_out_of_the_window() {
        let w = WindowedHistogram::new(4, 100);
        w.record_at(1_000_000, 0);
        // Still visible one slot later...
        assert_eq!(w.snapshot_at(150).count, 1);
        // ...gone once the window has fully passed it.
        assert_eq!(w.snapshot_at(450).count, 0, "stale slot must be excluded");
        // New recordings land in recycled slots with fresh counts.
        w.record_at(7, 460);
        let d = w.snapshot_at(470);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 7);
    }

    #[test]
    fn slot_reuse_resets_the_old_slice() {
        let w = WindowedHistogram::new(2, 100);
        w.record_at(10, 0);
        w.record_at(20, 50);
        // Both early values land in slice stamp 1. At 200 ms (stamp 3)
        // the ring wraps onto the same physical slot: the recorder must
        // clear the expired slice, not merge into it.
        w.record_at(30, 200);
        let d = w.snapshot_at(200);
        // Window covers stamps {2, 3}: only the post-wrap value counts.
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 30);
    }

    #[test]
    fn default_window_is_a_minute() {
        let w = WindowedHistogram::default();
        assert_eq!(w.window_ms(), 60_000);
        w.record(5);
        let d = w.snapshot();
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 5);
    }

    #[test]
    fn concurrent_recording_never_loses_more_than_races_allow() {
        // All threads record into the same slice: no rotation races, so
        // every observation must be visible.
        let w = WindowedHistogram::new(8, 1_000_000);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in 0..250u64 {
                        w.record_at(v, 10);
                    }
                });
            }
        });
        assert_eq!(w.snapshot_at(10).count, 1000);
    }
}
