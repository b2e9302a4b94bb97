//! `serve-warm`: an in-process daemon over a store filled at set-up with
//! the `fig2-ionq` cells. One connection sends three warm `Client::run`
//! calls for each `Client::batch` of the whole IonQ column, so the
//! daemon and store reads are loaded and simulation is bypassed.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use supermarq::spec::execute_spec;
use supermarq_bench::{figure2_points, shots_for};
use supermarq_device::Device;
use supermarq_obs::{TraceContext, TraceId};
use supermarq_serve::{BatchResponse, Client, RunningServer, ServeConfig, Server};
use supermarq_store::{RunSpec, Store, SweepGrid, TranspileSpec};

use crate::layers::timed;
use crate::{end_to_end, repeated_setup, timed_passes, Args, Layers, Phase, Report, SplitMix};

/// Warm `run` calls per `batch`: puts the median in the `run` mode and
/// p90 in the `batch` mode, which are about 10x apart.
const RUNS_PER_BATCH: usize = 3;

/// A daemon with its store filled and one connection open. The client
/// is declared first so it disconnects before the server drains.
struct Daemon {
    client: Client,
    server: RunningServer,
    store: Store,
    /// The record line of each cell, as the cold fill wrote it.
    lines: Vec<String>,
}

fn ionq_column(seed: u64) -> SweepGrid {
    let device = Device::ionq();
    SweepGrid {
        benchmarks: figure2_points()
            .into_iter()
            .flat_map(|(_, points, _)| points)
            .collect(),
        devices: vec![device.name().to_string()],
        shots: vec![shots_for(&device)],
        seeds: vec![seed],
        repetitions: 3,
        transpile: TranspileSpec::default(),
        division: "closed".into(),
    }
}

fn check_line(line: &str, expected: &str) -> Result<(), String> {
    if line == expected {
        Ok(())
    } else {
        Err(format!(
            "warm line differs from the stored record:\n{expected}\n{line}"
        ))
    }
}

fn check_batch(response: &BatchResponse, lines: &[String]) -> Result<(), String> {
    let total = lines.len() as u64;
    if (
        response.total,
        response.hits,
        response.misses,
        response.failures,
    ) != (total, total, 0, 0)
    {
        return Err(format!(
            "batch header total={} hits={} misses={} failures={}, expected {total} warm hits",
            response.total, response.hits, response.misses, response.failures
        ));
    }
    response
        .lines
        .iter()
        .zip(lines)
        .try_for_each(|(line, expected)| check_line(line, expected))
}

fn start_daemon(
    work: &Path,
    name: &str,
    grid: &SweepGrid,
    specs: &[RunSpec],
) -> Result<Daemon, String> {
    let store =
        Store::open(work.join(name)).map_err(|e| format!("cannot open store {name}: {e}"))?;
    let exec = Arc::new(|spec: &RunSpec| execute_spec(spec).map_err(|e| e.to_string()));
    let server = Server::bind(ServeConfig::default(), store.clone(), exec)
        .map_err(|e| format!("cannot bind daemon: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"))?;
    // The cold fill: every cell simulates once, through the daemon.
    let cold = client.batch(grid)?;
    let n = specs.len() as u64;
    if (cold.total, cold.misses, cold.failures) != (n, n, 0) {
        return Err(format!(
            "cold fill total={} misses={} failures={}, expected {n} fresh cells",
            cold.total, cold.misses, cold.failures
        ));
    }
    for (spec, line) in specs.iter().zip(&cold.lines) {
        let stored = store.get(spec).map(|r| r.to_line()).unwrap_or_default();
        check_line(line, &stored)?;
    }
    let mut daemon = Daemon {
        client,
        server,
        store,
        lines: cold.lines,
    };
    // One untimed warm round, so lazy initialisation is not timed.
    let mut warm = Phase::default();
    round(&mut warm, &mut daemon, grid, specs, &[0, 1, 2]);
    if warm.failed > 0 {
        return Err("warm-up round failed its checks".into());
    }
    Ok(daemon)
}

/// `RUNS_PER_BATCH` warm runs of the given cells, then one batch.
fn round(
    phase: &mut Phase,
    daemon: &mut Daemon,
    grid: &SweepGrid,
    specs: &[RunSpec],
    cells: &[usize],
) {
    for &i in cells {
        phase.op(
            i,
            || daemon.client.run(&specs[i]),
            |line| check_line(&line, &daemon.lines[i]),
        );
    }
    phase.op(
        specs.len(),
        || daemon.client.batch(grid),
        |response| check_batch(&response, &daemon.lines),
    );
}

fn simulations(daemon: &Daemon) -> u64 {
    daemon.server.metrics().simulations.load(Ordering::SeqCst)
}

pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let grid = ionq_column(args.seed);
    let specs = grid.expand();
    let n = specs.len();
    let (mut daemon, setup_s) =
        repeated_setup(|i| start_daemon(work, &format!("setup-{i}"), &grid, &specs))?;
    let mut rng = SplitMix::new(args.seed);
    // A pass is one round per cell: each cell is run RUNS_PER_BATCH
    // times, in seeded order, and the column is batched n times.
    let simulations_before = simulations(&daemon);
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut untraced = timed_passes(untraced_s, |_, phase| {
        let order = rng.permutation(n);
        for r in 0..n {
            let cells: Vec<usize> = (0..RUNS_PER_BATCH)
                .map(|k| order[(RUNS_PER_BATCH * r + k) % n])
                .collect();
            round(phase, &mut daemon, &grid, &specs, &cells);
        }
    });
    if simulations(&daemon) != simulations_before {
        eprintln!("e2ebench: the daemon simulated during the warm phase");
        untraced.failed += 1;
    }
    if !args.trace {
        return Ok(Report {
            attempted: untraced.attempted(),
            failed: untraced.failed,
            metrics: end_to_end(setup_s, &untraced),
        });
    }
    let ctx = TraceContext::new(TraceId::from_u128(u128::from(args.seed) | 1 << 64), 1);
    let mut layers = Layers::default();
    let mut probe_s = 0.0;
    let mut traced = timed_passes(args.seconds / 2.0, |_, phase| {
        let order = rng.permutation(n);
        for r in 0..n {
            for k in 0..RUNS_PER_BATCH {
                let i = order[(RUNS_PER_BATCH * r + k) % n];
                phase.op(
                    i,
                    || {
                        let start = Instant::now();
                        let (line, timing) = daemon.client.run_traced(&specs[i], Some(&ctx))?;
                        let rtt_ns = start.elapsed().as_nanos() as u64;
                        let timing = timing.ok_or("traced run without a timing echo")?;
                        layers.serve_ns += rtt_ns;
                        layers.total_ns += start.elapsed().as_nanos() as u64;
                        layers.run_rtt_ns += rtt_ns;
                        layers.run_server_ns += timing.total_ns;
                        Ok(line)
                    },
                    |line| check_line(&line, &daemon.lines[i]),
                );
            }
            phase.op(
                n,
                || {
                    let start = Instant::now();
                    let (response, rtt_ns) = timed(|| daemon.client.batch(&grid));
                    layers.serve_ns += rtt_ns;
                    layers.total_ns += start.elapsed().as_nanos() as u64;
                    layers.batch_rtt_ns += rtt_ns;
                    response
                },
                |response| check_batch(&response, &daemon.lines),
            );
            // The daemon's own reads cannot be timed from outside, so
            // read the same working set directly. Not part of any op.
            let probe_start = Instant::now();
            for (spec, expected) in specs.iter().zip(&daemon.lines) {
                let (record, ns) = timed(|| daemon.store.get(spec));
                layers.probe_ns += ns;
                layers.gets += 1;
                if record.map(|r| r.to_line()).as_deref() != Some(expected.as_str()) {
                    phase.failed += 1;
                    eprintln!("e2ebench: direct store read differs from the stored record");
                }
            }
            probe_s += probe_start.elapsed().as_secs_f64();
        }
        layers.passes += 1;
    });
    traced.wall_s -= probe_s;
    if simulations(&daemon) != simulations_before {
        eprintln!("e2ebench: the daemon simulated during the traced warm phase");
        traced.failed += 1;
    }
    Ok(Report {
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed + traced.failed,
        metrics: layers.metrics(traced.ops_per_s(), untraced.ops_per_s(), work)?,
    })
}
