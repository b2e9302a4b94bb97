//! `mirror-wide`: `Mirror::score_noiseless` (the `supermarq bench
//! mirror` path) on wide Clifford mirrors, scored by the CHP tableau.

use std::path::Path;
use std::time::Instant;

use supermarq::{Benchmark, BenchmarkRegistry, CircuitFamily, Mirror, MirrorPath};
use supermarq_clifford::StabilizerExecutor;
use supermarq_sim::NoiseModel;

use crate::layers::timed;
use crate::{end_to_end, repeated_setup, timed_passes, Args, Layers, Report, SplitMix};

/// `(base id, size)` of each mirror; every other parameter takes the
/// registry's default.
const MIRRORS: &[(&str, usize)] = &[
    ("ghz", 100),
    ("ghz", 200),
    ("bv", 60),
    ("bit-code", 50),
    ("phase-code", 50),
];

const SHOTS: usize = 100;

type WideMirror = Mirror<Box<dyn Benchmark>>;

/// Builds a base benchmark through the registry with its default
/// parameters, as `supermarq bench mirror <id> --size <n>` does.
fn build(id: &str, size: usize) -> Result<WideMirror, String> {
    let registry = BenchmarkRegistry::builtin();
    let entry = registry
        .get(id)
        .ok_or_else(|| format!("unknown benchmark '{id}'"))?;
    let params: Vec<(String, String)> = entry
        .schema()
        .iter()
        .map(|p| {
            let value = p
                .default
                .map_or(size.to_string(), |default| default(size, 1));
            (p.key.to_string(), value)
        })
        .collect();
    let base = registry.build(id, &params).map_err(|e| e.to_string())?;
    Ok(Mirror::new(base))
}

/// U·U† = I: a noiseless mirror reads all zeros on every shot.
fn check(name: &str, (score, path): (f64, MirrorPath)) -> Result<(), String> {
    if score != 1.0 || path != MirrorPath::Clifford {
        return Err(format!(
            "{name}: score {score} on the {path} path, expected exactly 1 on CHP"
        ));
    }
    Ok(())
}

pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    // Each mirror keeps one sampling seed for the whole run.
    let mut rng = SplitMix::new(args.seed);
    let seeds: Vec<u64> = MIRRORS.iter().map(|_| rng.next_u64() >> 1).collect();
    let (mirrors, setup_s) = repeated_setup(|_| {
        let mirrors = MIRRORS
            .iter()
            .map(|&(id, size)| build(id, size))
            .collect::<Result<Vec<_>, _>>()?;
        // One untimed warm-up pass, so lazy initialisation is not timed.
        for (mirror, &seed) in mirrors.iter().zip(&seeds) {
            let warm = mirror
                .score_noiseless(SHOTS, seed)
                .map_err(|e| e.to_string())?;
            check(&mirror.name(), warm)?;
        }
        Ok(mirrors)
    })?;
    let names: Vec<String> = mirrors.iter().map(CircuitFamily::name).collect();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = timed_passes(untraced_s, |_, phase| {
        for i in rng.permutation(mirrors.len()) {
            phase.op(
                i,
                || {
                    mirrors[i]
                        .score_noiseless(SHOTS, seeds[i])
                        .map_err(|e| e.to_string())
                },
                |out| check(&names[i], out),
            );
        }
    });
    if !args.trace {
        return Ok(Report {
            attempted: untraced.attempted(),
            failed: untraced.failed,
            metrics: end_to_end(setup_s, &untraced),
        });
    }
    // The untraced result of each mirror, which the traced copy must
    // reproduce bit for bit.
    let reference: Vec<(f64, MirrorPath)> = mirrors
        .iter()
        .zip(&seeds)
        .map(|(m, &seed)| m.score_noiseless(SHOTS, seed).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut layers = Layers::default();
    let traced = timed_passes(args.seconds / 2.0, |_, phase| {
        for i in rng.permutation(mirrors.len()) {
            phase.op(
                i,
                || traced_score(&mirrors[i], seeds[i], &mut layers),
                |out| {
                    check(&names[i], out)?;
                    if out.0.to_bits() != reference[i].0.to_bits() || out.1 != reference[i].1 {
                        return Err(format!(
                            "{}: traced result {out:?} differs from {:?}",
                            names[i], reference[i]
                        ));
                    }
                    Ok(())
                },
            );
        }
        layers.passes += 1;
    });
    Ok(Report {
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed + traced.failed,
        metrics: layers.metrics(traced.ops_per_s(), untraced.ops_per_s(), work)?,
    })
}

/// `Mirror::score_noiseless`'s Clifford path with each call timed.
fn traced_score(
    mirror: &WideMirror,
    seed: u64,
    layers: &mut Layers,
) -> Result<(f64, MirrorPath), String> {
    let op_start = Instant::now();
    let (((circuits, expected), clifford), ns) = timed(|| {
        let circuits = mirror.circuits();
        let expected = mirror.expected_bits();
        ((circuits, expected), mirror.is_clifford())
    });
    layers.gen_ns += ns;
    layers.gen_gates += circuits.iter().map(|c| c.gate_count() as u64).sum::<u64>();
    if !clifford {
        return Err(format!("{} is not Clifford", mirror.name()));
    }
    let exec = StabilizerExecutor::new(NoiseModel::ideal());
    let mut total = 0.0;
    for (i, c) in circuits.iter().enumerate() {
        let (fraction, ns) =
            timed(|| exec.success_fraction(c, &expected, SHOTS, seed + i as u64 * 7919));
        layers.clifford_ns += ns;
        layers.clifford_gate_shots += (c.gate_count() * SHOTS) as u64;
        total += fraction;
    }
    layers.total_ns += op_start.elapsed().as_nanos() as u64;
    Ok((total / circuits.len() as f64, MirrorPath::Clifford))
}
