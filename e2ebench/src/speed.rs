//! The machine's speed during a run, from a fixed reference kernel.
//!
//! The benchmark's machine is shared with other tenants, and its speed
//! moves: in bursts of a few seconds, and between regimes that last
//! minutes, so that the same binary on the same inputs runs 15-40%
//! apart within an hour. Every reported time is therefore scaled to a
//! reference speed: a run times [`probe_ms`] between its ops and
//! multiplies its times by [`REFERENCE_PROBE_MS`] over the 5th
//! percentile of its probes. Like the best-of-run op times it scales,
//! that probe is one that no burst slowed. The kernel is this package's
//! own code and calls nothing in the program under test, so a change to
//! the program moves the scaled times exactly as it moves the raw ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A typical [`Speed::quiet_ms`] on the 2-vCPU virtual machine the
/// benchmark was tuned on, so that scaled times read close to raw ones
/// there.
pub const REFERENCE_PROBE_MS: f64 = 5.3;

/// Least time between two probes of one phase.
const PROBE_INTERVAL: Duration = Duration::from_millis(200);

/// Amplitudes of the probe's statevector, and rotation rounds over it.
const PROBE_QUBITS: usize = 12;
const PROBE_ROUNDS: usize = 40;
/// `available_parallelism` calls of the probe: the cgroup reads that
/// every statevector kernel makes through `rayon::current_num_threads`.
const PROBE_LOOKUPS: usize = 200;

/// Milliseconds of one reference kernel: rotations of every qubit of a
/// small statevector (arithmetic), then thread-count lookups (system
/// calls), the two costs the workloads are made of.
fn probe_ms() -> f64 {
    let start = Instant::now();
    let n = 1usize << PROBE_QUBITS;
    let mut re = vec![black_box(1.0) / 64.0; n];
    let mut im = vec![0.0f64; n];
    for round in 0..PROBE_ROUNDS {
        for q in 0..PROBE_QUBITS {
            let bit = 1 << q;
            let (s, c) = ((round * PROBE_QUBITS + q) as f64 * 0.37).sin_cos();
            for i in (0..n).filter(|i| i & bit == 0) {
                let j = i | bit;
                let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                re[i] = c * ar - s * bi;
                im[i] = c * ai + s * br;
                re[j] = c * br - s * ai;
                im[j] = c * bi + s * ar;
            }
        }
    }
    black_box((&re, &im));
    for _ in 0..PROBE_LOOKUPS {
        black_box(std::thread::available_parallelism().ok());
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// The probes of a phase, taken at most [`PROBE_INTERVAL`] apart.
#[derive(Default)]
pub struct Speed {
    probes_ms: Vec<f64>,
    at: Option<Instant>,
}

impl Speed {
    /// Probes when [`PROBE_INTERVAL`] has passed since the last probe.
    pub fn tick(&mut self) {
        if self.at.is_none_or(|t| t.elapsed() >= PROBE_INTERVAL) {
            self.probes_ms.push(probe_ms());
            self.at = Some(Instant::now());
        }
    }

    /// The phase's typical unhindered probe: the 5th percentile, which
    /// no burst slowed but which one lucky probe cannot move.
    pub fn quiet_ms(&self) -> f64 {
        crate::quantile(&self.probes_ms, 0.05)
    }

    /// The factor that takes this phase's times to the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_PROBE_MS / self.quiet_ms()
    }
}
