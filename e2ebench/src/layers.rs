//! Per-layer accounting for the traced run.
//!
//! The traced copy of each op calls the layers' public functions one by
//! one and adds the time and work of each call here. Layers are named
//! after crates. Work is counted per pass, so counts repeat exactly for
//! the same inputs. Shares are of thread-busy op time: an op's wall
//! time, except that a section fanned over the rayon pool counts the
//! busy time summed across its workers. The layer shares and
//! `unattributed.share` therefore sum to 1.
//!
//! A layer's unit cost comes from a fixed probe that every traced run
//! makes the same way, so it reads a measured time even on a workload
//! that never calls the layer.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use supermarq::{BenchmarkRegistry, CircuitFamily, Mirror};
use supermarq_clifford::StabilizerExecutor;
use supermarq_device::Device;
use supermarq_sim::{Executor, NoiseModel};
use supermarq_store::{RunOutcome, RunRecord, RunSpec, Store};
use supermarq_transpile::Transpiler;

use crate::Metric;

/// Calls of `rayon::current_num_threads` timed by its probe.
const RAYON_PROBE_CALLS: u32 = 2000;
/// `Executor::run` calls of the simulator probe: transpiled GHZ-3 under
/// IonQ noise at the IonQ shot count, as in a `fig2-ionq` cell.
const SIM_PROBE_CALLS: u64 = 10;
const SIM_PROBE_SHOTS: u64 = 35;
/// `success_fraction` calls of the tableau probe: a 50-qubit GHZ mirror.
const CLIFFORD_PROBE_CALLS: u64 = 5;
const CLIFFORD_PROBE_SHOTS: u64 = 20;
/// Put-then-get round trips of the store probe.
const STORE_PROBE_CALLS: u32 = 50;

/// Runs `f`, returning its result and the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

#[derive(Default)]
pub struct Layers {
    pub passes: u64,
    /// Thread-busy time of every traced op.
    pub total_ns: u64,
    pub gen_ns: u64,
    pub gen_gates: u64,
    pub transpile_ns: u64,
    pub swaps: u64,
    pub two_qubit_gates: u64,
    pub sim_ns: u64,
    pub shots: u64,
    pub gate_shots: u64,
    pub clifford_ns: u64,
    pub clifford_gate_shots: u64,
    pub score_ns: u64,
    /// `Store::get` and `Store::put` inside ops.
    pub store_ns: u64,
    pub gets: u64,
    pub puts: u64,
    pub bytes_written: u64,
    /// Client calls into the daemon.
    pub serve_ns: u64,
    /// Round trips of traced warm runs, and the daemon's share of them
    /// from the timing echo.
    pub run_rtt_ns: u64,
    pub run_server_ns: u64,
    pub batch_rtt_ns: u64,
    /// Direct `Store::get` reads of the daemon's working set, outside
    /// ops.
    pub probe_ns: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean nanoseconds per `rayon::current_num_threads()` call on this
/// thread: the lookup every statevector kernel makes.
fn rayon_probe_ns() -> f64 {
    let (_, ns) = timed(|| {
        for _ in 0..RAYON_PROBE_CALLS {
            black_box(rayon::current_num_threads());
        }
    });
    ns as f64 / f64::from(RAYON_PROBE_CALLS)
}

fn build(id: &str, size: usize) -> Result<Box<dyn supermarq::Benchmark>, String> {
    BenchmarkRegistry::builtin()
        .build(id, &[("size".to_string(), size.to_string())])
        .map_err(|e| e.to_string())
}

/// Nanoseconds per gate per shot of noisy statevector simulation.
fn sim_probe_ns() -> Result<f64, String> {
    let device = Device::ionq();
    let circuit = build("ghz", 3)?.circuits().remove(0);
    let transpiled = Transpiler::for_device(&device)
        .run(&circuit)
        .map_err(|e| e.to_string())?;
    let (compact, _) = transpiled.circuit.compacted();
    let executor = Executor::new(device.noise_model());
    let (_, ns) = timed(|| {
        for seed in 0..SIM_PROBE_CALLS {
            black_box(executor.run(&compact, SIM_PROBE_SHOTS as usize, seed));
        }
    });
    let gate_shots = compact.gate_count() as u64 * SIM_PROBE_SHOTS * SIM_PROBE_CALLS;
    Ok(ns as f64 / gate_shots as f64)
}

/// Nanoseconds per gate per shot of the noiseless CHP tableau.
fn clifford_probe_ns() -> Result<f64, String> {
    let mirror = Mirror::new(build("ghz", 50)?);
    let circuit = mirror.circuits().remove(0);
    let expected = mirror.expected_bits();
    let exec = StabilizerExecutor::new(NoiseModel::ideal());
    let (_, ns) = timed(|| {
        for seed in 0..CLIFFORD_PROBE_CALLS {
            black_box(exec.success_fraction(
                &circuit,
                &expected,
                CLIFFORD_PROBE_SHOTS as usize,
                seed,
            ));
        }
    });
    let gate_shots = circuit.gate_count() as u64 * CLIFFORD_PROBE_SHOTS * CLIFFORD_PROBE_CALLS;
    Ok(ns as f64 / gate_shots as f64)
}

/// Mean microseconds of one `Store::put` and one `Store::get` of a
/// Fig. 2-sized record in a scratch store under `work`.
fn store_probe_us(work: &Path) -> Result<(f64, f64), String> {
    let store = Store::open(work.join("store-probe")).map_err(|e| e.to_string())?;
    let spec = RunSpec::new("ghz", vec![("size".into(), "3".into())], "IonQ", 35, 3, 1);
    let record = RunRecord {
        spec: spec.clone(),
        outcome: RunOutcome {
            scores: vec![0.9142857142857143, 0.8857142857142857, 0.9428571428571428],
            swap_count: 0,
            two_qubit_gates: 2,
        },
    };
    let (mut put_ns, mut get_ns) = (0, 0);
    for _ in 0..STORE_PROBE_CALLS {
        let (put, ns) = timed(|| store.put(&record));
        put.map_err(|e| e.to_string())?;
        put_ns += ns;
        let (got, ns) = timed(|| store.get(&spec));
        if got.as_ref() != Some(&record) {
            return Err("store probe read back a different record".into());
        }
        get_ns += ns;
    }
    let mean_us = |ns: u64| ns as f64 / 1e3 / f64::from(STORE_PROBE_CALLS);
    Ok((mean_us(put_ns), mean_us(get_ns)))
}

impl Layers {
    /// The per-layer metrics, given the traced and untraced phases'
    /// throughput. Runs the unit-cost probes, with scratch space under
    /// `work`.
    pub fn metrics(
        &self,
        traced_ops_per_s: f64,
        untraced_ops_per_s: f64,
        work: &Path,
    ) -> Result<Vec<Metric>, String> {
        let passes = self.passes.max(1) as f64;
        let count = |n: u64| n as f64 / passes;
        let share = |ns: u64| ratio(ns as f64, self.total_ns as f64);
        let attributed = self.gen_ns
            + self.transpile_ns
            + self.sim_ns
            + self.clifford_ns
            + self.score_ns
            + self.store_ns
            + self.serve_ns;
        let (put_us, get_us) = store_probe_us(work)?;
        let m = |name, value, unit| Metric { name, value, unit };
        Ok(vec![
            m("rayon.current_num_threads_ns", rayon_probe_ns(), "ns"),
            m("op.busy_ms", self.total_ns as f64 / 1e6 / passes, "ms"),
            m("gen.share", share(self.gen_ns), "fraction"),
            m("gen.gates", count(self.gen_gates), "count"),
            m("transpile.share", share(self.transpile_ns), "fraction"),
            m("transpile.swaps", count(self.swaps), "count"),
            m(
                "transpile.two_qubit_gates",
                count(self.two_qubit_gates),
                "count",
            ),
            m("sim.share", share(self.sim_ns), "fraction"),
            m("sim.shots", count(self.shots), "count"),
            m("sim.gate_shots", count(self.gate_shots), "count"),
            m("sim.ns_per_gate_shot", sim_probe_ns()?, "ns"),
            m("clifford.share", share(self.clifford_ns), "fraction"),
            m(
                "clifford.gate_shots",
                count(self.clifford_gate_shots),
                "count",
            ),
            m("clifford.ns_per_gate_shot", clifford_probe_ns()?, "ns"),
            m("score.share", share(self.score_ns), "fraction"),
            m("store.share", share(self.store_ns), "fraction"),
            m("store.gets", count(self.gets), "count"),
            m("store.puts", count(self.puts), "count"),
            m("store.bytes_written", count(self.bytes_written), "bytes"),
            m("store.get_us", get_us, "us"),
            m("store.put_us", put_us, "us"),
            m(
                "store.probe_batch_share",
                ratio(self.probe_ns as f64, self.batch_rtt_ns as f64),
                "fraction",
            ),
            m("serve.share", share(self.serve_ns), "fraction"),
            m(
                "serve.server_share",
                ratio(self.run_server_ns as f64, self.run_rtt_ns as f64),
                "fraction",
            ),
            m(
                "unattributed.share",
                share(self.total_ns.saturating_sub(attributed)),
                "fraction",
            ),
            m(
                "trace_overhead",
                1.0 - ratio(traced_ops_per_s, untraced_ops_per_s),
                "fraction",
            ),
        ])
    }
}
