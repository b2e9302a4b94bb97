//! `fig2-ionq` and `fig2-ibm`: cold Fig. 2 cells, one per op, through
//! `SweepEngine::run_job(spec, execute_spec)` on a fresh store per pass,
//! so every op generates, transpiles, simulates, scores and writes.

use std::path::Path;
use std::time::Instant;

use rayon::prelude::*;
use supermarq::spec::{device_from_spec, execute_spec, run_config_from_spec};
use supermarq::{BenchmarkRegistry, ScoreError};
use supermarq_bench::{figure2_points, shots_for};
use supermarq_device::Device;
use supermarq_sim::{Counts, Executor};
use supermarq_store::{RunOutcome, RunRecord, RunSpec, Store, SweepEngine};
use supermarq_transpile::Transpiler;

use crate::layers::timed;
use crate::{end_to_end, repeated_setup, timed_passes, Args, Layers, Report, SplitMix};

/// `(cell, swap_count, two_qubit_gates)` per IonQ cell, in figure order.
/// All-to-all connectivity: no routing.
const IONQ_TRANSPILE: &[(&str, u64, u64)] = &[
    ("ghz size=3", 0, 2),
    ("ghz size=4", 0, 3),
    ("ghz size=5", 0, 4),
    ("ghz size=6", 0, 5),
    ("mermin-bell size=3", 0, 8),
    ("mermin-bell size=4", 0, 12),
    ("mermin-bell size=5", 0, 16),
    ("phase-code init=101,rounds=1,size=3", 0, 4),
    ("phase-code init=101,rounds=3,size=3", 0, 12),
    ("phase-code init=1010,rounds=2,size=4", 0, 12),
    ("bit-code init=101,rounds=1,size=3", 0, 4),
    ("bit-code init=101,rounds=3,size=3", 0, 12),
    ("bit-code init=1010,rounds=2,size=4", 0, 12),
    ("vqe layers=1,size=3", 0, 4),
    ("vqe layers=1,size=4", 0, 6),
    ("vqe layers=1,size=5", 0, 8),
    ("hamsim size=3,steps=3", 0, 6),
    ("hamsim size=4,steps=4", 0, 12),
    ("hamsim size=5,steps=5", 0, 20),
    ("qaoa-swap seed=1,size=4", 0, 24),
    ("qaoa-swap seed=1,size=5", 0, 40),
    ("qaoa-swap seed=1,size=6", 0, 60),
    ("qaoa-vanilla seed=1,size=4", 0, 6),
    ("qaoa-vanilla seed=1,size=5", 0, 10),
    ("qaoa-vanilla seed=1,size=6", 0, 15),
];

/// `(cell, swap_count, two_qubit_gates)` per IBM-Montreal cell, in
/// figure order: heavy-hex routing inserts the SWAPs.
const IBM_TRANSPILE: &[(&str, u64, u64)] = &[
    ("ghz size=3", 0, 2),
    ("mermin-bell size=3", 2, 12),
    ("phase-code init=101,rounds=1,size=3", 0, 4),
    ("bit-code init=101,rounds=1,size=3", 0, 4),
    ("vqe layers=1,size=3", 0, 4),
    ("hamsim size=3,steps=3", 0, 12),
    ("qaoa-swap seed=1,size=4", 0, 18),
    ("qaoa-vanilla seed=1,size=4", 3, 19),
];

/// Which column of Fig. 2 a workload runs.
#[derive(Clone, Copy)]
pub enum Grid {
    /// The 25 IonQ cells at paper settings (35 shots, 3 repetitions).
    Ionq,
    /// The smallest instance of each panel on IBM-Montreal at the
    /// paper's 2000 shots and 1 repetition.
    Ibm,
}

impl Grid {
    fn specs(self, seed: u64) -> Vec<RunSpec> {
        let (device, repetitions) = match self {
            Grid::Ionq => (Device::ionq(), 3),
            Grid::Ibm => (Device::ibm_montreal(), 1),
        };
        let panels = figure2_points();
        let points: Vec<_> = match self {
            Grid::Ionq => panels
                .into_iter()
                .flat_map(|(_, points, _)| points)
                .collect(),
            Grid::Ibm => panels
                .into_iter()
                .filter_map(|(_, points, _)| points.into_iter().next())
                .collect(),
        };
        points
            .into_iter()
            .map(|(id, params)| {
                RunSpec::new(
                    id,
                    params,
                    device.name(),
                    shots_for(&device),
                    repetitions,
                    seed,
                )
            })
            .collect()
    }

    fn expected(self) -> &'static [(&'static str, u64, u64)] {
        match self {
            Grid::Ionq => IONQ_TRANSPILE,
            Grid::Ibm => IBM_TRANSPILE,
        }
    }
}

/// A cell's name in the committed transpile tables.
fn cell_label(spec: &RunSpec) -> String {
    let params: Vec<String> = spec
        .params
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!("{} {}", spec.benchmark, params.join(","))
}

pub fn run(args: &Args, grid: Grid, work: &Path) -> Result<Report, String> {
    let specs = grid.specs(args.seed);
    let expected = grid.expected();
    let labels: Vec<String> = specs.iter().map(cell_label).collect();
    if labels
        .iter()
        .map(String::as_str)
        .ne(expected.iter().map(|e| e.0))
    {
        return Err(format!(
            "cells {labels:?} do not match the committed transpile table"
        ));
    }
    // The warm-up pass touches every cell's code path once, at the
    // fewest shots and one repetition, so lazy initialisation is not
    // timed.
    let warm: Vec<RunSpec> = specs
        .iter()
        .map(|spec| RunSpec {
            shots: 35,
            repetitions: 1,
            ..spec.clone()
        })
        .collect();
    let ((), setup_s) = repeated_setup(|i| {
        let store = open_store(work, &format!("setup-{i}"))?;
        warm.iter()
            .try_for_each(|spec| cold_job(&store, spec).map(drop))
    })?;

    let mut rng = SplitMix::new(args.seed);
    // The first record of each cell; every later one must match it byte
    // for byte, including the traced copy's.
    let mut reference: Vec<Option<String>> = vec![None; specs.len()];
    let mut check = |i: usize, record: RunRecord| {
        check_record(&record, &specs[i], expected[i], &mut reference[i])
    };
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = timed_passes(untraced_s, |pass, phase| {
        let store = open_store(work, &format!("pass-{pass}"));
        for i in rng.permutation(specs.len()) {
            phase.op(
                i,
                || cold_job(store.as_ref().map_err(Clone::clone)?, &specs[i]),
                |record| check(i, record),
            );
        }
        let _ = std::fs::remove_dir_all(work.join(format!("pass-{pass}")));
    });
    if !args.trace {
        return Ok(Report {
            attempted: untraced.attempted(),
            failed: untraced.failed,
            metrics: end_to_end(setup_s, &untraced),
        });
    }
    let mut layers = Layers::default();
    let traced = timed_passes(args.seconds / 2.0, |pass, phase| {
        let store = open_store(work, &format!("traced-{pass}"));
        for i in rng.permutation(specs.len()) {
            phase.op(
                i,
                || {
                    traced_job(
                        store.as_ref().map_err(Clone::clone)?,
                        &specs[i],
                        &mut layers,
                    )
                },
                |record| check(i, record),
            );
        }
        layers.passes += 1;
        let _ = std::fs::remove_dir_all(work.join(format!("traced-{pass}")));
    });
    Ok(Report {
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed + traced.failed,
        metrics: layers.metrics(traced.ops_per_s(), untraced.ops_per_s(), work)?,
    })
}

fn open_store(work: &Path, name: &str) -> Result<Store, String> {
    Store::open(work.join(name)).map_err(|e| format!("cannot open store {name}: {e}"))
}

/// One cold cell the way `fig2_scores` and `supermarq batch` run it.
fn cold_job(store: &Store, spec: &RunSpec) -> Result<RunRecord, String> {
    let result =
        SweepEngine::new(store).run_job(spec, |s| execute_spec(s).map_err(|e| e.to_string()));
    if result.from_cache {
        return Err(format!(
            "{}: cold cell served from the store",
            cell_label(spec)
        ));
    }
    if result.store_error {
        return Err(format!("{}: record not persisted", cell_label(spec)));
    }
    result.outcome
}

/// The output oracle of a Fig. 2 cell.
fn check_record(
    record: &RunRecord,
    spec: &RunSpec,
    expected: (&str, u64, u64),
    reference: &mut Option<String>,
) -> Result<(), String> {
    let label = expected.0;
    let outcome = &record.outcome;
    if outcome.scores.len() as u64 != spec.repetitions {
        return Err(format!(
            "{label}: {} scores for {} repetitions",
            outcome.scores.len(),
            spec.repetitions
        ));
    }
    if !outcome.scores.iter().all(|s| (0.0..=1.0).contains(s)) {
        return Err(format!(
            "{label}: score outside [0, 1]: {:?}",
            outcome.scores
        ));
    }
    if (outcome.swap_count, outcome.two_qubit_gates) != (expected.1, expected.2) {
        return Err(format!(
            "{label}: swap_count={} two_qubit_gates={}, committed table says {} and {}",
            outcome.swap_count, outcome.two_qubit_gates, expected.1, expected.2
        ));
    }
    let line = record.to_line();
    match reference {
        Some(first) if *first != line => Err(format!(
            "{label}: record differs from the first one:\n{first}\n{line}"
        )),
        Some(_) => Ok(()),
        None => {
            *reference = Some(line);
            Ok(())
        }
    }
}

/// [`cold_job`] with each layer's public call timed from here. It
/// repeats `SweepEngine::run_job`, `execute_spec` and `run_on_device`
/// step by step, so it must produce the same record byte for byte.
fn traced_job(store: &Store, spec: &RunSpec, layers: &mut Layers) -> Result<RunRecord, String> {
    let op_start = Instant::now();
    let (hit, ns) = timed(|| store.get(spec));
    layers.store_ns += ns;
    layers.gets += 1;
    if hit.is_some() {
        return Err(format!(
            "{}: cold cell served from the store",
            cell_label(spec)
        ));
    }
    let (generated, ns) = timed(|| {
        BenchmarkRegistry::builtin()
            .build(&spec.benchmark, &spec.params)
            .map(|bench| {
                let circuits = bench.circuits();
                (bench, circuits)
            })
    });
    layers.gen_ns += ns;
    let (bench, circuits) = generated.map_err(|e| e.to_string())?;
    layers.gen_gates += circuits.iter().map(|c| c.gate_count() as u64).sum::<u64>();
    let device = device_from_spec(&spec.device).map_err(|e| e.to_string())?;
    let config = run_config_from_spec(spec).map_err(|e| e.to_string())?;
    if spec.division != "closed" {
        return Err(format!("unsupported division '{}'", spec.division));
    }
    let transpiler = Transpiler::for_device(&device)
        .with_placement(config.placement)
        .with_pipeline(config.pipeline);
    let mut prepared = Vec::with_capacity(circuits.len());
    let (mut swap_count, mut two_qubit_gates) = (0, 0);
    for circuit in &circuits {
        let (result, ns) = timed(|| transpiler.run(circuit));
        layers.transpile_ns += ns;
        let t = result.map_err(|e| e.to_string())?;
        swap_count += t.swap_count as u64;
        two_qubit_gates += t.two_qubit_gates as u64;
        let (compact, phys_to_dense) = t.circuit.compacted();
        let measured_dense: Vec<Option<usize>> = t
            .measured_on
            .iter()
            .map(|m| m.and_then(|p| phys_to_dense[p]))
            .collect();
        prepared.push((compact, measured_dense));
    }
    layers.swaps += swap_count;
    layers.two_qubit_gates += two_qubit_gates;
    let executor = Executor::new(device.noise_model());
    // Repetitions fan over the pool as in the runner; each worker times
    // its own calls and the busy times are summed.
    let par_start = Instant::now();
    let per_rep: Vec<(Result<f64, ScoreError>, u64, u64, u64)> = (0..config.repetitions)
        .into_par_iter()
        .map(|rep| {
            let rep_start = Instant::now();
            let mut sim_ns = 0;
            let counts: Vec<Counts> = prepared
                .iter()
                .enumerate()
                .map(|(i, (compact, measured_dense))| {
                    let seed = config
                        .seed
                        .wrapping_add(rep as u64)
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
                    let (raw, ns) = timed(|| executor.run(compact, config.shots, seed));
                    sim_ns += ns;
                    relabel(&raw, measured_dense)
                })
                .collect();
            let (score, score_ns) = timed(|| bench.score(&counts));
            (
                score,
                sim_ns,
                score_ns,
                rep_start.elapsed().as_nanos() as u64,
            )
        })
        .collect();
    let par_wall = par_start.elapsed().as_nanos() as u64;
    let reps = config.repetitions as u64;
    let shots = config.shots as u64;
    layers.shots += shots * reps * prepared.len() as u64;
    layers.gate_shots += shots
        * reps
        * prepared
            .iter()
            .map(|(c, _)| c.gate_count() as u64)
            .sum::<u64>();
    let mut busy = 0;
    let mut scores = Vec::with_capacity(per_rep.len());
    for (score, sim_ns, score_ns, rep_ns) in per_rep {
        layers.sim_ns += sim_ns;
        layers.score_ns += score_ns;
        busy += rep_ns;
        scores.push(score.map_err(|e| e.to_string())?);
    }
    let record = RunRecord {
        spec: spec.clone(),
        outcome: RunOutcome {
            scores,
            swap_count,
            two_qubit_gates,
        },
    };
    let (put, ns) = timed(|| store.put(&record));
    layers.store_ns += ns;
    layers.puts += 1;
    layers.bytes_written += record.to_line().len() as u64 + 1;
    put.map_err(|e| format!("{}: record not persisted: {e}", cell_label(spec)))?;
    layers.total_ns += (op_start.elapsed().as_nanos() as u64 - par_wall) + busy;
    Ok(record)
}

/// Dense-register counts to program-qubit order: the runner's private
/// `relabel`, repeated so the traced op can call the layers one by one.
fn relabel(raw: &Counts, measured_dense: &[Option<usize>]) -> Counts {
    let mut out = Counts::new(measured_dense.len());
    for (bits, count) in raw.iter() {
        let mut relabeled = 0u64;
        for (prog, &dense) in measured_dense.iter().enumerate() {
            if let Some(d) = dense {
                if bits >> d & 1 == 1 {
                    relabeled |= 1 << prog;
                }
            }
        }
        out.record_n(relabeled, count);
    }
    out
}
