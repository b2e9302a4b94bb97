//! Work partitioning for intra-statevector parallelism.
//!
//! Every specialized kernel in [`crate::state`] is written as a *range
//! kernel*: a function over a contiguous range of a flat task space (pair
//! indices for one-qubit gates, 4-tuple indices for two-qubit gates) whose
//! writes for disjoint ranges touch disjoint amplitudes. [`run_chunked`]
//! decides how many workers a kernel fans out to and dispatches the ranges
//! over the rayon stand-in's persistent pool.
//!
//! **Determinism.** Each task's output depends only on the pre-gate
//! amplitudes it reads, never on which worker ran it or where chunk
//! boundaries fell, so amplitudes are bit-identical at every thread count
//! — the same contract the shot-level executor enforces for `Counts`, now
//! extended inside a single trajectory (test-enforced by the forced-chunk
//! kernel tests and the `tests/properties.rs` thread-sweep proptest).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use supermarq_circuit::C64;

/// Minimum tasks per worker before a kernel fans out. Below this the
/// per-region dispatch overhead (queue hand-off + wakeup, single-digit
/// microseconds) outweighs the work: 2^14 pair tasks is a 15-qubit state's
/// entire 1q gate, which runs in ~10 us serially.
const MIN_TASKS_PER_WORKER: usize = 1 << 14;

/// Test hook: when set, [`run_chunked`] fans out even for tiny task counts
/// so unit tests can exercise chunk-boundary behaviour on small states.
static FORCE_PARALLEL: AtomicBool = AtomicBool::new(false);

/// Forces kernels to fan out regardless of task count (tests only).
/// Returns the previous value so tests can restore it.
#[cfg(test)]
pub(crate) fn set_force_parallel(on: bool) -> bool {
    FORCE_PARALLEL.swap(on, Ordering::Relaxed)
}

/// Held by every test that sets [`FORCE_PARALLEL`] or needs it clear:
/// the flag is process-global and the test harness runs tests in
/// parallel.
#[cfg(test)]
pub(crate) static FORCE_PARALLEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A raw pointer to the amplitude array, shareable across pool workers.
///
/// Range kernels index disjoint amplitude sets for disjoint task ranges,
/// so concurrent `&mut`-free writes through this pointer are data-race
/// free. The wrapper exists because `*mut C64` is neither `Send` nor
/// `Sync`; the safety argument lives with each kernel's task-to-index
/// mapping.
pub(crate) struct SharedAmps {
    ptr: *mut C64,
    #[cfg(debug_assertions)]
    len: usize,
}

unsafe impl Send for SharedAmps {}
unsafe impl Sync for SharedAmps {}

impl SharedAmps {
    pub(crate) fn new(amps: &mut [C64]) -> SharedAmps {
        SharedAmps {
            ptr: amps.as_mut_ptr(),
            #[cfg(debug_assertions)]
            len: amps.len(),
        }
    }

    /// Wraps a raw allocation (possibly uninitialized, e.g. the
    /// write-only output buffer of a permutation pass).
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reads and writes of `len` amplitudes for
    /// the wrapper's lifetime.
    pub(crate) unsafe fn from_raw(ptr: *mut C64, len: usize) -> SharedAmps {
        #[cfg(not(debug_assertions))]
        let _ = len;
        SharedAmps {
            ptr,
            #[cfg(debug_assertions)]
            len,
        }
    }

    /// Pointer to amplitude `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds, and the caller's task partition must
    /// guarantee no other worker concurrently accesses amplitude `i`.
    #[inline(always)]
    pub(crate) unsafe fn at(&self, i: usize) -> *mut C64 {
        #[cfg(debug_assertions)]
        debug_assert!(i < self.len, "amplitude index {i} out of bounds");
        self.ptr.add(i)
    }
}

/// Runs `kernel` over `0..tasks`, split into contiguous ranges across the
/// pool when the state is large enough (and the effective thread count is
/// more than one); inline on the calling thread otherwise.
pub(crate) fn run_chunked(tasks: usize, kernel: impl Fn(Range<usize>) + Sync) {
    let threads = rayon::current_num_threads();
    let forced = FORCE_PARALLEL.load(Ordering::Relaxed);
    let workers = if forced {
        threads.min(tasks).max(1)
    } else {
        threads.min(tasks / MIN_TASKS_PER_WORKER).max(1)
    };
    if workers <= 1 {
        crate::simd::dispatch(|| kernel(0..tasks));
        return;
    }
    let chunk = tasks.div_ceil(workers);
    let ranges: Vec<Range<usize>> = (0..workers)
        .map(|w| w * chunk..((w + 1) * chunk).min(tasks))
        .filter(|r| !r.is_empty())
        .collect();
    use rayon::prelude::*;
    ranges
        .par_iter()
        .for_each(|r| crate::simd::dispatch(|| kernel(r.clone())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::PoisonError;

    #[test]
    fn small_task_counts_stay_inline() {
        let _force_lock = FORCE_PARALLEL_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // 100 tasks is far below MIN_TASKS_PER_WORKER: one contiguous call.
        let calls = AtomicUsize::new(0);
        run_chunked(100, |r| {
            assert_eq!(r, 0..100);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn forced_chunking_covers_every_task_exactly_once() {
        let _force_lock = FORCE_PARALLEL_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let prev = set_force_parallel(true);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            run_chunked(37, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        set_force_parallel(prev);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn shared_amps_round_trips_disjoint_writes() {
        let mut amps = vec![C64::ZERO; 8];
        let shared = SharedAmps::new(&mut amps);
        run_chunked(8, |r| {
            for i in r {
                // SAFETY: every task index is written exactly once.
                unsafe { *shared.at(i) = C64::real(i as f64) };
            }
        });
        for (i, a) in amps.iter().enumerate() {
            assert_eq!(a.re, i as f64);
        }
    }
}
