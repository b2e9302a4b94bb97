//! CLI subcommand implementations.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use supermarq::coverage::coverage_of_features;
use supermarq::registry::{BenchmarkEntry, BenchmarkRegistry, ParamKind, ParamSpec};
use supermarq::runner::{run_on_device, run_on_device_open, RunConfig};
use supermarq::spec::execute_spec;
use supermarq::{Benchmark, CircuitFamily, FeatureVector, Mirror};
use supermarq_circuit::Circuit;
use supermarq_device::Device;
use supermarq_serve::{signal, Client, Executor, ServeConfig, Server};
use supermarq_store::{Json, RunSpec, Store, SweepEngine, SweepGrid, TranspileSpec};
use supermarq_transpile::{
    differential_pipelines, PassSpec, PipelineId, TranspileError, Transpiler,
};
use supermarq_verify::{
    clifford_corpus, verify_circuit, verify_on_device, CheckId, Report, Severity,
};

use crate::args::Args;

/// Usage text shown on errors.
pub const USAGE: &str = "usage:
  supermarq devices
  supermarq generate <benchmark> [--size N] [--rounds R] [--seed S] [--steps K] [--layers L]
  supermarq show <benchmark> [--size N] [...]
  supermarq features <file.qasm>
  supermarq run <benchmark> --device <name> [--size N] [--shots N] [--reps R] [--seed S] [--open]
                [--pipeline <name>] [--json [--store <dir>] [--no-cache]]
  supermarq batch --benchmarks <b1,b2,...> [--sizes N1,N2] [--devices all|<d1,d2>]
                  [--shots S1,S2] [--seeds S1,S2] [--reps R] [--open] [--pipeline <name>]
                  [--out <file.jsonl>] [--store <dir>] [--no-cache]
  supermarq transpile passes
  supermarq transpile diff <pipeline-a> <pipeline-b> --device <name> [--max-qubits N]
  supermarq serve [--addr host:port] [--store <dir>] [--workers N] [--queue N]
                  [--no-cache] [--addr-file <path>]
  supermarq client <ping|stats|shutdown> [--addr host:port]
  supermarq client run <benchmark> --device <name> [run options] [--addr host:port]
  supermarq client batch <batch options> [--addr host:port]
  supermarq client metrics [--format json|prometheus] [--addr host:port]
  supermarq client trace [--id <trace-id>] [--limit N] [--addr host:port]
  supermarq client watch [--interval-ms N] [--count N] [--addr host:port]
  supermarq cache <stats|verify|gc> [--store <dir>] [--format text|json]
  supermarq lint <benchmark>|<file.qasm> [--device <name>] [--pipeline <name>]
                 [--format text|json] [--size N] [...]
  supermarq lint --list
  supermarq bench list
  supermarq bench mirror <benchmark> [--size N] [...] [--shots N] [--min X]
  supermarq coverage
  supermarq export --dir <path>

observability (any command):
  --profile            print a per-span timing summary to stderr on exit
  --trace-out <path>   write a JSONL span trace (enables tracing)
  SUPERMARQ_TRACE      comma-separated span-name prefixes to record
  (traced `client run`/`client batch` forward the trace to the daemon,
  which continues it server-side and echoes per-request timing)

result store (run --json, batch, serve):
  --no-cache           skip the cache read; fresh results are still stored

benchmarks: ghz, mermin-bell, bit-code, phase-code, qaoa-vanilla, qaoa-swap,
            vqe, hamsim, qft, bv, adder, grover — plus a '<id>-mirror'
            variant of each (see `supermarq bench list`)";

/// How a command failed: whether usage help would be useful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The invocation itself was malformed; `main` prints the usage text.
    Usage(String),
    /// The command ran and failed (lint findings, transpile error, bad
    /// file); repeating the usage text would bury the real message.
    Failure(String),
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }

    fn failure(message: impl Into<String>) -> Self {
        CliError::Failure(message.into())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failure(m) => f.write_str(m),
        }
    }
}

/// Dispatches a parsed command line, returning printable output.
///
/// The observability options apply to every subcommand: `--trace-out
/// <path>` writes a JSONL span trace, `--profile` prints the per-span
/// timing summary to stderr after the command finishes, and either one
/// enables tracing (filtered by `SUPERMARQ_TRACE` name prefixes).
/// Tracing only observes — command output is byte-identical with or
/// without these flags.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv).map_err(CliError::Usage)?;
    let profile = args.flag("profile");
    if let Some(path) = args.option("trace-out") {
        supermarq_obs::init_trace_file(path)
            .map_err(|e| CliError::failure(format!("cannot create trace file {path}: {e}")))?;
    } else if profile {
        supermarq_obs::enable();
    }
    let result = match args.positional(0) {
        Some("devices") => cmd_devices(),
        Some("generate") => cmd_generate(&args),
        Some("show") => cmd_show(&args),
        Some("export") => cmd_export(&args),
        Some("features") => cmd_features(&args),
        Some("run") => cmd_run(&args),
        Some("batch") => cmd_batch(&args),
        Some("transpile") => cmd_transpile(&args),
        Some("serve") => cmd_serve(&args),
        Some("client") => cmd_client(&args),
        Some("cache") => cmd_cache(&args),
        Some("lint") => cmd_lint(&args),
        Some("bench") => cmd_bench(&args),
        Some("coverage") => cmd_coverage(),
        Some(other) => Err(CliError::usage(format!("unknown command '{other}'"))),
        None => Err(CliError::usage("missing command")),
    };
    if args.option("trace-out").is_some() || profile {
        supermarq_obs::flush();
        if profile {
            let table = supermarq_obs::summary_table();
            if !table.is_empty() {
                eprint!("{table}");
            }
        }
        // Leave the process as we found it (the in-process CLI tests
        // dispatch many commands from one binary).
        supermarq_obs::disable();
    }
    result
}

/// Builds a benchmark from CLI arguments.
fn build_benchmark(args: &Args) -> Result<Box<dyn Benchmark>, CliError> {
    let name = args
        .positional(1)
        .ok_or_else(|| CliError::usage("missing benchmark name"))?;
    build_named_benchmark(name, args)
}

/// Builds a benchmark by name through the registry (including `-mirror`
/// variants); `Err` is a usage error naming the unknown benchmark.
///
/// Interactive commands are forgiving where the spec layer is strict:
/// sizes clamp into the entry's declared range, counts clamp up to their
/// minimum, and bitmask parameters truncate to the instance width.
fn build_named_benchmark(name: &str, args: &Args) -> Result<Box<dyn Benchmark>, CliError> {
    let entry = resolve_entry(name)?;
    let instance_seed: u64 = args.option_parse("seed", 1).map_err(CliError::Usage)?;
    let size = clamped_size(entry, args)?;
    let params = registry_params(entry, size, instance_seed, args)?;
    BenchmarkRegistry::builtin()
        .build(name, &params)
        .map_err(|e| CliError::usage(e.to_string()))
}

/// The registry entry `kind` names (a `-mirror` id resolves to its
/// base); `Err` is a usage error naming the unknown benchmark.
fn resolve_entry(kind: &str) -> Result<&'static BenchmarkEntry, CliError> {
    BenchmarkRegistry::builtin()
        .resolve(kind)
        .map(|resolved| resolved.entry)
        .ok_or_else(|| CliError::usage(format!("unknown benchmark '{kind}'")))
}

/// The `--size` argument clamped into the entry's declared range.
fn clamped_size(entry: &BenchmarkEntry, args: &Args) -> Result<usize, CliError> {
    let size: usize = args.option_parse("size", 4).map_err(CliError::Usage)?;
    for p in entry.schema() {
        if let ParamKind::Size { min, max } = p.kind {
            return Ok(size.clamp(min, max));
        }
    }
    Ok(size)
}

/// Materializes an entry's full parameter list from CLI options and the
/// schema's declared defaults. Always complete (no omitted-but-defaulted
/// parameters), so each logical run has exactly one content hash.
fn registry_params(
    entry: &BenchmarkEntry,
    size: usize,
    instance_seed: u64,
    args: &Args,
) -> Result<Vec<(String, String)>, CliError> {
    let default_of = |p: &ParamSpec| -> String {
        p.default.expect("non-size parameters declare defaults")(size, instance_seed)
    };
    let mut params = Vec::with_capacity(entry.schema().len());
    for p in entry.schema() {
        let value = match p.kind {
            ParamKind::Size { .. } => size.to_string(),
            ParamKind::InitBits => args
                .option(p.key)
                .map(str::to_string)
                .unwrap_or_else(|| default_of(p)),
            ParamKind::Count { min } => {
                let default: usize = default_of(p).parse().expect("numeric default");
                args.option_parse(p.key, default)
                    .map_err(CliError::Usage)?
                    .max(min)
                    .to_string()
            }
            // The instance seed comes from the caller (`--seed` for run,
            // `--bench-seed` for batch), matching the legacy behavior.
            ParamKind::Seed => instance_seed.to_string(),
            ParamKind::BitMask => {
                let default: u64 = default_of(p).parse().expect("numeric default");
                let raw: u64 = args.option_parse(p.key, default).map_err(CliError::Usage)?;
                let mask = if size >= 64 {
                    u64::MAX
                } else {
                    (1u64 << size) - 1
                };
                (raw & mask).to_string()
            }
        };
        params.push((p.key.to_string(), value));
    }
    Ok(params)
}

fn cmd_devices() -> Result<String, CliError> {
    let mut out = String::from("name             qubits  topology          T1(us)    2q-err\n");
    for d in Device::all_paper_devices() {
        out.push_str(&format!(
            "{:<16} {:>6}  {:<16} {:>8.5e} {:>8.4}\n",
            d.name(),
            d.num_qubits(),
            d.topology().name(),
            d.calibration().t1_us,
            d.calibration().err_2q,
        ));
    }
    Ok(out)
}

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let bench = build_benchmark(args)?;
    let circuits = bench.circuits();
    let mut out = String::new();
    for (i, c) in circuits.iter().enumerate() {
        if circuits.len() > 1 {
            out.push_str(&format!("// circuit {} of {}\n", i + 1, circuits.len()));
        }
        out.push_str(&c.to_qasm());
    }
    Ok(out)
}

fn cmd_show(args: &Args) -> Result<String, CliError> {
    let bench = build_benchmark(args)?;
    let circuits = bench.circuits();
    let mut out = format!("{}  ({})\n", bench.name(), bench.features());
    for (i, c) in circuits.iter().enumerate() {
        if circuits.len() > 1 {
            out.push_str(&format!("-- circuit {} of {} --\n", i + 1, circuits.len()));
        }
        out.push_str(&c.to_diagram());
    }
    Ok(out)
}

/// Writes the full 52-circuit Table I SupermarQ corpus as OpenQASM files —
/// the paper's "benchmarks specified at the level of OpenQASM" deliverable.
fn cmd_export(args: &Args) -> Result<String, CliError> {
    let dir = args
        .option("dir")
        .ok_or_else(|| CliError::usage("missing --dir"))?;
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::failure(format!("cannot create {}: {e}", dir.display())))?;
    let suite = supermarq::coverage::supermarq_suite();
    let mut written = 0usize;
    for (i, circuit) in suite.iter().enumerate() {
        let path = dir.join(format!("supermarq_{:02}_{}q.qasm", i, circuit.num_qubits()));
        std::fs::write(&path, circuit.to_qasm())
            .map_err(|e| CliError::failure(format!("cannot write {}: {e}", path.display())))?;
        written += 1;
    }
    Ok(format!(
        "wrote {written} OpenQASM files to {}",
        dir.display()
    ))
}

fn cmd_features(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional(1)
        .ok_or_else(|| CliError::usage("missing qasm file path"))?;
    let circuit = load_qasm_file(path)?;
    let f = FeatureVector::of(&circuit);
    Ok(format!(
        "qubits: {}\ndepth: {}\n2q gates: {}\nfeatures: {}",
        circuit.num_qubits(),
        circuit.depth(),
        circuit.two_qubit_gate_count(),
        f
    ))
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    let bench = build_benchmark(args)?;
    let device_name = args
        .option("device")
        .ok_or_else(|| CliError::usage("missing --device"))?;
    let device = find_device(device_name)?;
    let config = run_config_from_args(args)?;
    if args.flag("json") {
        // Emit the exact record schema the store persists, so ad-hoc CLI
        // runs and cached sweep artifacts are directly diffable — and
        // resolve like one `batch` cell: a run seen before is served from
        // the store (unless --no-cache), and a fresh run seeds the store
        // for later sweeps.
        let kind = args
            .positional(1)
            .ok_or_else(|| CliError::usage("missing benchmark name"))?;
        let spec = build_run_spec(kind, &device, &config, args)?;
        let store = open_store(args)?;
        let result = SweepEngine::new(&store)
            .with_cache(!args.flag("no-cache"))
            .run_job(&spec, |spec| execute_spec(spec).map_err(|e| e.to_string()));
        if result.store_error {
            return Err(CliError::failure(format!(
                "cannot persist record in store {}",
                store.root().display()
            )));
        }
        return result
            .outcome
            .map(|r| r.to_line())
            .map_err(CliError::failure);
    }
    let result = if args.flag("open") {
        run_on_device_open(bench.as_ref(), &device, &config)
    } else {
        run_on_device(bench.as_ref(), &device, &config)
    }
    .map_err(|e| CliError::failure(e.to_string()))?;
    Ok(format!(
        "benchmark: {}\ndevice: {}\ndivision: {}\nscore: {:.4} ± {:.4}\nswaps: {}\n2q gates: {}\nfeatures: {}",
        result.benchmark,
        result.device,
        if args.flag("open") { "open (readout-mitigated)" } else { "closed" },
        result.mean_score(),
        result.std_dev(),
        result.swap_count,
        result.two_qubit_gates,
        bench.features(),
    ))
}

/// Builds the content-addressed spec for a single `run` invocation.
/// Matches the text `run` behavior: `--size` clamps into the entry's
/// range, and `--seed` feeds both the QAOA instance and the run seed.
fn build_run_spec(
    kind: &str,
    device: &Device,
    config: &RunConfig,
    args: &Args,
) -> Result<RunSpec, CliError> {
    let entry = resolve_entry(kind)?;
    let size = clamped_size(entry, args)?;
    let params = registry_params(entry, size, config.seed, args)?;
    let mut spec = RunSpec::new(
        kind,
        params,
        device.name(),
        config.shots as u64,
        config.repetitions as u64,
        config.seed,
    );
    spec.transpile = supermarq::spec::transpile_spec_of(config);
    if args.flag("open") {
        spec.division = "open".into();
    }
    Ok(spec)
}

/// The run settings `run` and `client run` share: `--shots` (default
/// 2000), `--reps` (3), `--seed` (1) and `--pipeline`.
fn run_config_from_args(args: &Args) -> Result<RunConfig, CliError> {
    Ok(RunConfig {
        shots: args
            .option_parse("shots", 2000usize)
            .map_err(CliError::Usage)?,
        repetitions: args.option_parse("reps", 3usize).map_err(CliError::Usage)?,
        seed: args.option_parse("seed", 1u64).map_err(CliError::Usage)?,
        pipeline: pipeline_from_args(args)?,
        ..RunConfig::default()
    })
}

/// Resolves `--pipeline` against the built-in pipeline names, falling
/// back to the default pipeline when the flag is absent.
fn pipeline_from_args(args: &Args) -> Result<PipelineId, CliError> {
    match args.option("pipeline") {
        None => Ok(PipelineId::default()),
        Some(name) => PipelineId::parse(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown pipeline '{name}' (try `supermarq transpile passes`)"
            ))
        }),
    }
}

/// `supermarq transpile passes`: list the built-in pipelines and the
/// passes they are built from. `supermarq transpile diff` differentially
/// certifies two pipelines against each other on a Clifford corpus.
fn cmd_transpile(args: &Args) -> Result<String, CliError> {
    match args.positional(1) {
        Some("passes") => {
            let mut out = String::from("pipelines:\n");
            for pipeline in PipelineId::ALL {
                out.push_str(&format!("  {}\n", pipeline.render()));
            }
            out.push_str("\npasses:\n");
            for pass in PassSpec::ALL {
                out.push_str(&format!("  {:<17} {}\n", pass.id(), pass.describe()));
            }
            Ok(out.trim_end().to_string())
        }
        Some("diff") => cmd_transpile_diff(args),
        Some(other) => Err(CliError::usage(format!(
            "unknown transpile action '{other}' (expected passes or diff)"
        ))),
        None => Err(CliError::usage("missing transpile action (passes|diff)")),
    }
}

/// `supermarq transpile diff <a> <b> --device <name>`: compile a Clifford
/// corpus through both pipelines and symbolically prove each output
/// equivalent to its source. All-proven certifies the pipelines agree;
/// anything less is a command failure so CI catches regressions.
fn cmd_transpile_diff(args: &Args) -> Result<String, CliError> {
    let parse_pipeline = |pos: usize, side: &str| {
        let name = args.positional(pos).ok_or_else(|| {
            CliError::usage(
                "transpile diff needs two pipelines: transpile diff <a> <b> --device <name>",
            )
        })?;
        PipelineId::parse(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown pipeline {side} '{name}' (try `supermarq transpile passes`)"
            ))
        })
    };
    let a = parse_pipeline(2, "A")?;
    let b = parse_pipeline(3, "B")?;
    let device = find_device(
        args.option("device")
            .ok_or_else(|| CliError::usage("transpile diff requires --device"))?,
    )?;
    let max_qubits: usize = args
        .option_parse("max-qubits", 5usize)
        .map_err(CliError::Usage)?;
    let corpus = clifford_corpus(max_qubits.min(device.num_qubits()));
    let report = differential_pipelines(&device, a, b, &corpus);
    let mut out = format!(
        "differential: {a} vs {b} on {} ({} corpus circuit(s))\n",
        device.name(),
        corpus.len()
    );
    out.push_str(&report.render());
    if report.all_proven() {
        out.push_str("\nall cases proven: pipelines agree on the corpus");
        Ok(out)
    } else {
        out.push_str("\npipelines NOT certified equivalent on the corpus");
        Err(CliError::failure(out))
    }
}

/// Opens the store named by `--store`, `$SUPERMARQ_STORE`, or the
/// default `.supermarq-store/` directory, in that priority order.
fn open_store(args: &Args) -> Result<Store, CliError> {
    let root = match args.option("store") {
        Some(dir) => PathBuf::from(dir),
        None => supermarq_store::default_root(),
    };
    Store::open(&root)
        .map_err(|e| CliError::failure(format!("cannot open store {}: {e}", root.display())))
}

/// Parses a comma-separated list option, with a default when absent.
fn parse_list<T: std::str::FromStr>(
    args: &Args,
    key: &str,
    default: &str,
) -> Result<Vec<T>, CliError> {
    let raw = args.option(key).unwrap_or(default);
    raw.split(',')
        .map(|item| {
            item.trim()
                .parse::<T>()
                .map_err(|_| CliError::usage(format!("invalid value '{item}' in --{key}")))
        })
        .collect()
}

/// Builds the sweep grid described by `--benchmarks`/`--sizes`/... —
/// shared by `supermarq batch` (expanded locally) and `supermarq client
/// batch` (shipped to a daemon, expanded server-side), so both name the
/// same cells and produce byte-identical result lines.
fn build_grid(args: &Args) -> Result<SweepGrid, CliError> {
    let kinds_raw = args
        .option("benchmarks")
        .ok_or_else(|| CliError::usage("missing --benchmarks"))?;
    let sizes: Vec<usize> = parse_list(args, "sizes", "4")?;
    let shots: Vec<u64> = parse_list(args, "shots", "2000")?;
    let seeds: Vec<u64> = parse_list(args, "seeds", "1")?;
    let repetitions: u64 = args.option_parse("reps", 3u64).map_err(CliError::Usage)?;
    let instance_seed: u64 = args
        .option_parse("bench-seed", 1u64)
        .map_err(CliError::Usage)?;
    let devices: Vec<String> = match args.option("devices") {
        None | Some("all") => Device::all_paper_devices()
            .iter()
            .map(|d| d.name().to_string())
            .collect(),
        Some(list) => list
            .split(',')
            .map(|name| find_device(name.trim()).map(|d| d.name().to_string()))
            .collect::<Result<_, _>>()?,
    };
    let mut benchmarks = Vec::new();
    for kind in kinds_raw.split(',') {
        let kind = kind.trim();
        for &size in &sizes {
            let params = registry_params(resolve_entry(kind)?, size, instance_seed, args)?;
            // Fail fast on grids that could never execute (bad sizes,
            // malformed init strings) rather than per-cell at run time.
            supermarq::spec::benchmark_from_params(kind, &params)
                .map_err(|e| CliError::usage(e.to_string()))?;
            benchmarks.push((kind.to_string(), params));
        }
    }
    Ok(SweepGrid {
        benchmarks,
        devices,
        shots,
        seeds,
        repetitions,
        transpile: TranspileSpec {
            pipeline: pipeline_from_args(args)?.as_str().into(),
            ..TranspileSpec::default()
        },
        division: if args.flag("open") { "open" } else { "closed" }.into(),
    })
}

/// `supermarq batch`: expand a sweep grid into content-addressed jobs,
/// serve cache hits from the store, execute only the misses, and emit
/// one JSONL record per cell. Rerunning the same grid is all-hits and
/// byte-identical — the resumable-sweep workflow.
///
/// Ctrl-C is intercepted: completed cells are already persisted (the
/// store publishes each record atomically as it lands), pending misses
/// fail fast as `interrupted` error lines, every completed JSONL line is
/// flushed, and the command exits cleanly with a resume hint instead of
/// dying mid-write.
fn cmd_batch(args: &Args) -> Result<String, CliError> {
    let grid = build_grid(args)?;
    let specs = grid.expand();
    let store = open_store(args)?;
    let engine = SweepEngine::new(&store).with_cache(!args.flag("no-cache"));
    signal::install_handler();
    signal::clear();
    let exec = |spec: &RunSpec| {
        if signal::interrupted() {
            return Err("interrupted by Ctrl-C before execution".to_string());
        }
        execute_spec(spec).map_err(|e| e.to_string())
    };
    let resume_hint = |report: &supermarq_store::SweepReport| {
        signal::clear();
        let done = report.results.iter().filter(|r| r.outcome.is_ok()).count();
        format!(
            "interrupted: {done}/{} cells completed and persisted\n\
             rerun the same command to resume (completed cells replay as cache hits)",
            report.results.len()
        )
    };
    match args.option("out") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::failure(format!("cannot create {path}: {e}")))?;
            let mut writer = std::io::BufWriter::new(file);
            let report = engine
                .run_to_writer(&specs, exec, &mut writer)
                .map_err(|e| CliError::failure(format!("cannot write {path}: {e}")))?;
            if signal::interrupted() {
                return Err(CliError::failure(format!(
                    "wrote {} result lines to {path}\n{}",
                    report.results.len(),
                    resume_hint(&report)
                )));
            }
            Ok(format!(
                "wrote {} result lines to {path}\nstore: {}\n{}",
                report.results.len(),
                store.root().display(),
                report.stats.summary()
            ))
        }
        None => {
            // Pure JSONL on stdout; the summary goes to stderr so the
            // output stays machine-readable.
            let mut buffer = Vec::new();
            let report = engine
                .run_to_writer(&specs, exec, &mut buffer)
                .map_err(|e| CliError::failure(e.to_string()))?;
            let mut text = String::from_utf8(buffer)
                .map_err(|e| CliError::failure(format!("non-utf8 record: {e}")))?;
            text.truncate(text.trim_end().len());
            if signal::interrupted() {
                // Flush what completed before reporting the interrupt.
                println!("{text}");
                return Err(CliError::failure(resume_hint(&report)));
            }
            eprintln!("store: {}", store.root().display());
            eprintln!("{}", report.stats.summary());
            Ok(text)
        }
    }
}

/// `supermarq serve`: run the benchmark daemon in the foreground until
/// Ctrl-C or a client `shutdown` request, then drain gracefully.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let addr = args.option("addr").unwrap_or("127.0.0.1:7787");
    let config = ServeConfig {
        addr: addr.to_string(),
        workers: args
            .option_parse("workers", 0usize)
            .map_err(CliError::Usage)?,
        queue_capacity: args
            .option_parse("queue", 256usize)
            .map_err(CliError::Usage)?,
        use_cache: !args.flag("no-cache"),
        ..ServeConfig::default()
    };
    let store = open_store(args)?;
    let store_root = store.root().display().to_string();
    let exec: Executor = Arc::new(|spec: &RunSpec| execute_spec(spec).map_err(|e| e.to_string()));
    let server = Server::bind(config, store, exec)
        .map_err(|e| CliError::failure(format!("cannot bind {addr}: {e}")))?;
    // Announce the resolved address eagerly (stderr, and optionally a
    // file) so scripts binding port 0 can discover where we landed.
    eprintln!("supermarq serve: listening on {}", server.addr());
    eprintln!("supermarq serve: store {store_root}");
    if let Some(path) = args.option("addr-file") {
        std::fs::write(path, format!("{}\n", server.addr()))
            .map_err(|e| CliError::failure(format!("cannot write {path}: {e}")))?;
    }
    signal::install_handler();
    signal::clear();
    while !signal::interrupted() && !server.stop_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    signal::clear();
    let summary = server.summary();
    server.shutdown();
    Ok(summary)
}

/// `supermarq client`: talk to a running daemon. `run` and `batch`
/// accept the same options as their local counterparts and print the
/// same (byte-identical) result lines. When tracing is enabled
/// (`--trace-out`/`--profile`), `run` and `batch` open a client root
/// span and forward its context, so the daemon's spans continue the
/// client's trace and the server echoes per-request timing.
fn cmd_client(args: &Args) -> Result<String, CliError> {
    let action = args.positional(1).ok_or_else(|| {
        CliError::usage("missing client action (ping|stats|shutdown|run|batch|metrics|trace|watch)")
    })?;
    let addr = args.option("addr").unwrap_or("127.0.0.1:7787");
    let mut client = Client::connect(addr)
        .map_err(|e| CliError::failure(format!("cannot connect to {addr}: {e}")))?;
    match action {
        "ping" => {
            client.ping().map_err(CliError::Failure)?;
            Ok("pong".to_string())
        }
        "stats" => client
            .stats()
            .map(|value| value.to_string())
            .map_err(CliError::Failure),
        "shutdown" => {
            client.shutdown_server().map_err(CliError::Failure)?;
            Ok("server shutting down".to_string())
        }
        "run" => {
            let kind = args
                .positional(2)
                .ok_or_else(|| CliError::usage("missing benchmark name"))?;
            let device = find_device(
                args.option("device")
                    .ok_or_else(|| CliError::usage("missing --device"))?,
            )?;
            let config = run_config_from_args(args)?;
            let spec = build_run_spec(kind, &device, &config, args)?;
            // With tracing off this span is inert and `ctx()` is `None`
            // — the request goes out untraced, byte-identical to before.
            let root = supermarq_obs::Span::open_traced("client.run");
            let started = Instant::now();
            let ctx = root.ctx();
            let (line, timing) = client
                .run_traced(&spec, ctx.as_ref())
                .map_err(CliError::Failure)?;
            if let Some(timing) = timing {
                let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let wire_ns = total_ns.saturating_sub(timing.total_ns);
                eprintln!(
                    "serve timing: source={} server_ns={} queue_ns={} execute_ns={} wire_ns={}",
                    timing.source, timing.total_ns, timing.queue_ns, timing.execute_ns, wire_ns
                );
            }
            Ok(line)
        }
        "batch" => {
            let grid = build_grid(args)?;
            let root = supermarq_obs::Span::open_traced("client.batch");
            let ctx = root.ctx();
            let response = client
                .batch_traced(&grid, ctx.as_ref())
                .map_err(CliError::Failure)?;
            eprintln!(
                "serve batch: total={} hits={} misses={} failures={}",
                response.total, response.hits, response.misses, response.failures
            );
            Ok(response.lines.join("\n"))
        }
        "metrics" => match args.option("format").unwrap_or("json") {
            "json" => client
                .metrics_json()
                .map(|value| value.to_string())
                .map_err(CliError::Failure),
            "prometheus" => client.metrics_prometheus().map_err(CliError::Failure),
            other => Err(CliError::usage(format!(
                "unknown format '{other}' (expected json or prometheus)"
            ))),
        },
        "trace" => {
            let limit: u64 = args.option_parse("limit", 64u64).map_err(CliError::Usage)?;
            client
                .trace_recent(args.option("id"), Some(limit))
                .map(|value| value.to_string())
                .map_err(CliError::Failure)
        }
        "watch" => {
            let interval_ms: u64 = args
                .option_parse("interval-ms", 1000u64)
                .map_err(CliError::Usage)?;
            let count: u64 = args.option_parse("count", 0u64).map_err(CliError::Usage)?;
            client_watch(&mut client, interval_ms, count)
        }
        other => Err(CliError::usage(format!(
            "unknown client action '{other}' \
             (expected ping, stats, shutdown, run, batch, metrics, trace, or watch)"
        ))),
    }
}

/// `supermarq client watch`: a polling live view over `stats` +
/// `metrics`. Prints one line per refresh to stderr (throughput,
/// warm-hit ratio of cells served warm over cells requested, queue
/// depth, rolling p50/p99) and returns the last sample. `count == 0`
/// polls until Ctrl-C.
fn client_watch(client: &mut Client, interval_ms: u64, count: u64) -> Result<String, CliError> {
    signal::install_handler();
    signal::clear();
    let mut last_requests: Option<u64> = None;
    let mut last_line;
    let mut ticks = 0u64;
    loop {
        let stats = client.stats().map_err(CliError::Failure)?;
        let metrics = client.metrics_json().map_err(CliError::Failure)?;
        let serve = metrics
            .get("serve")
            .ok_or_else(|| CliError::failure("metrics response missing 'serve'"))?;
        let field = |key: &str| serve.get(key).and_then(Json::as_u64).unwrap_or(0);
        let entries = stats
            .get("store")
            .and_then(|s| s.get("entries"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let requests = field("requests");
        let (hits, misses) = (field("hits"), field("misses"));
        let window = metrics.get("window").and_then(|w| w.get("request"));
        let wfield = |key: &str| {
            window
                .and_then(|w| w.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        // Throughput is the request-counter delta over the poll
        // interval; the first tick has no delta yet.
        let rps = match last_requests {
            Some(prev) if interval_ms > 0 => {
                requests.saturating_sub(prev) as f64 * 1000.0 / interval_ms as f64
            }
            _ => 0.0,
        };
        // Warm-hit ratio over cells, not request lines: `stats`,
        // `metrics` and the other non-cell ops request no cells.
        let warm_pct = if hits + misses > 0 {
            hits as f64 * 100.0 / (hits + misses) as f64
        } else {
            0.0
        };
        last_line = format!(
            "requests={requests} rps={rps:.1} warm_hit={warm_pct:.1}% queue={} inflight={} \
             entries={entries} window_p50_ns={} window_p99_ns={} window_n={}",
            field("queue_depth"),
            field("inflight"),
            wfield("p50_ns"),
            wfield("p99_ns"),
            wfield("count"),
        );
        eprintln!("{last_line}");
        last_requests = Some(requests);
        ticks += 1;
        if count != 0 && ticks >= count {
            break;
        }
        // Sleep in short slices so Ctrl-C lands promptly even with a
        // long refresh interval.
        let mut remaining = interval_ms.max(1);
        while remaining > 0 && !signal::interrupted() {
            let step = remaining.min(50);
            std::thread::sleep(Duration::from_millis(step));
            remaining -= step;
        }
        if signal::interrupted() {
            break;
        }
    }
    signal::clear();
    Ok(last_line)
}

/// `supermarq cache`: inspect and maintain the run-artifact store.
fn cmd_cache(args: &Args) -> Result<String, CliError> {
    let action = args
        .positional(1)
        .ok_or_else(|| CliError::usage("missing cache action (stats|verify|gc)"))?;
    let store = open_store(args)?;
    let io_err = |e: std::io::Error| CliError::failure(format!("cache scan failed: {e}"));
    match action {
        "stats" => {
            let stats = store.stats().map_err(io_err)?;
            match args.option("format").unwrap_or("text") {
                // The JSON form reuses the store's own serializer, so the
                // daemon's `stats` response and this command emit the
                // same object with the same key order.
                "json" => Ok(Json::Obj(vec![
                    (
                        "store".into(),
                        Json::Str(store.root().display().to_string()),
                    ),
                    ("stats".into(), stats.to_json()),
                ])
                .to_string()),
                "text" => Ok(format!(
                    "store: {}\nentries: {}\nbytes: {}\nstray tmp files: {}",
                    store.root().display(),
                    stats.entries,
                    stats.bytes,
                    stats.stray_tmp
                )),
                other => Err(CliError::usage(format!(
                    "unknown format '{other}' (expected text or json)"
                ))),
            }
        }
        "verify" => {
            let report = store.verify().map_err(io_err)?;
            if report.is_clean() {
                Ok(format!(
                    "store: {}\n{} entr{} verified, all valid",
                    store.root().display(),
                    report.ok,
                    if report.ok == 1 { "y" } else { "ies" }
                ))
            } else {
                let mut out = format!(
                    "store: {}\n{} valid, {} corrupt, {} misplaced\n",
                    store.root().display(),
                    report.ok,
                    report.corrupt.len(),
                    report.misplaced.len()
                );
                for (path, reason) in &report.corrupt {
                    out.push_str(&format!("corrupt: {}: {reason}\n", path.display()));
                }
                for path in &report.misplaced {
                    out.push_str(&format!("misplaced: {}\n", path.display()));
                }
                out.push_str("run `supermarq cache gc` to remove invalid entries");
                Err(CliError::failure(out))
            }
        }
        "gc" => {
            let report = store.gc().map_err(io_err)?;
            Ok(format!(
                "store: {}\nremoved {} stray tmp file(s), {} invalid object(s); kept {}",
                store.root().display(),
                report.removed_tmp,
                report.removed_objects,
                report.kept
            ))
        }
        other => Err(CliError::usage(format!(
            "unknown cache action '{other}' (expected stats, verify, or gc)"
        ))),
    }
}

/// Resolves a catalog device by case-insensitive name.
fn find_device(name: &str) -> Result<Device, CliError> {
    Device::all_paper_devices()
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            CliError::failure(format!("unknown device '{name}' (try `supermarq devices`)"))
        })
}

/// Reads and parses an OpenQASM file, mapping both I/O and parse
/// failures into command errors (the verifier never panics on bad input).
fn load_qasm_file(path: &str) -> Result<Circuit, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::failure(format!("cannot read {path}: {e}")))?;
    Circuit::from_qasm(&text).map_err(|e| CliError::failure(format!("cannot parse {path}: {e}")))
}

/// `supermarq lint`: run the static verifier over a benchmark's circuits
/// or a QASM file and print every diagnostic. Error-severity findings
/// make the command fail so CI scripts get a non-zero exit.
fn cmd_lint(args: &Args) -> Result<String, CliError> {
    if args.flag("list") {
        let mut out = String::from("available checks:\n");
        for check in CheckId::ALL {
            out.push_str(&format!(
                "  {:<5} {:<24} {}\n",
                check.code(),
                check.name(),
                check.description()
            ));
        }
        return Ok(out.trim_end().to_string());
    }
    if args.positional_len() > 2 {
        return Err(CliError::usage(
            "lint takes a single benchmark name or .qasm file",
        ));
    }
    let json = match args.option("format") {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown lint format '{other}' (expected text or json)"
            )))
        }
    };
    let target = args
        .positional(1)
        .ok_or_else(|| CliError::usage("missing lint target (benchmark name or .qasm file)"))?;
    let device = match args.option("device") {
        Some(name) => Some(find_device(name)?),
        None => None,
    };
    let pipeline = match args.option("pipeline") {
        None => None,
        Some(_) if device.is_none() => {
            return Err(CliError::usage("lint --pipeline requires --device"))
        }
        Some(_) => Some(pipeline_from_args(args)?),
    };
    // A `.qasm` suffix means a file on disk; anything else is a benchmark.
    let circuits: Vec<(String, Circuit)> = if target.ends_with(".qasm") {
        vec![(target.to_string(), load_qasm_file(target)?)]
    } else {
        let bench = build_named_benchmark(target, args)?;
        let name = bench.name();
        bench
            .circuits()
            .into_iter()
            .enumerate()
            .map(|(i, c)| (format!("{name}[{i}]"), c))
            .collect()
    };
    let mut results: Vec<(String, Report)> = Vec::with_capacity(circuits.len());
    for (label, circuit) in circuits {
        let report: Report = match (&pipeline, &device) {
            (Some(id), Some(d)) => lint_through_pipeline(d, *id, &circuit)
                .map_err(|e| CliError::failure(format!("{label}: {e}")))?,
            (_, Some(d)) => verify_on_device(&circuit, d),
            (_, None) => verify_circuit(&circuit),
        };
        results.push((label, report));
    }
    let count = |severity| {
        results
            .iter()
            .map(|(_, r)| r.count(severity))
            .sum::<usize>()
    };
    let (errors, warnings, lints) = (
        count(Severity::Error),
        count(Severity::Warning),
        count(Severity::Lint),
    );
    let out = if json {
        lint_json(&results, errors, warnings, lints)
    } else {
        let mut out = String::new();
        for (label, report) in &results {
            if !report.is_clean() {
                out.push_str(&format!("{label}:\n{}\n", report.render()));
            }
        }
        out.push_str(&format!(
            "{} circuit(s) checked: {errors} error(s), {warnings} warning(s), {lints} lint(s)",
            results.len()
        ));
        out
    };
    if errors > 0 {
        Err(CliError::failure(out))
    } else {
        Ok(out)
    }
}

/// Lints a circuit by running it through a full transpiler pipeline, so
/// diagnostics carry per-pass blame. Error-grade findings abort the
/// pipeline with [`TranspileError::Verification`]; those diagnostics are
/// the lint result, not a command error — the caller renders them.
fn lint_through_pipeline(
    device: &Device,
    id: PipelineId,
    circuit: &Circuit,
) -> Result<Report, String> {
    let transpiler = Transpiler::for_device(device).with_pipeline(id);
    match transpiler.run_with_context(circuit) {
        Ok(ctx) => Ok(Report {
            diagnostics: ctx.diagnostics().to_vec(),
        }),
        Err(TranspileError::Verification { diagnostics, .. }) => Ok(Report { diagnostics }),
        Err(e) => Err(e.to_string()),
    }
}

/// Renders lint results as line-delimited strict JSON: one object per
/// diagnostic (in [`Report::sorted`] order) plus a trailing summary
/// object. Every emitted line is round-tripped through the store's JSON
/// parser, so downstream tooling can consume the stream with `jq`-style
/// line splitting and no leniency.
fn lint_json(results: &[(String, Report)], errors: usize, warnings: usize, lints: usize) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (label, report) in results {
        for d in report.sorted() {
            let obj = Json::Obj(vec![
                ("circuit".into(), Json::str(label.clone())),
                ("check".into(), Json::str(d.check.code())),
                ("name".into(), Json::str(d.check.name())),
                ("severity".into(), Json::str(d.severity.to_string())),
                (
                    "instruction".into(),
                    match d.instruction {
                        Some(i) => Json::uint(i as u64),
                        None => Json::Null,
                    },
                ),
                ("message".into(), Json::str(d.message.clone())),
                (
                    "blame".into(),
                    Json::str(d.blame.as_deref().unwrap_or("input")),
                ),
            ]);
            lines.push(obj.to_string());
        }
    }
    let summary = Json::Obj(vec![
        ("circuits".into(), Json::uint(results.len() as u64)),
        ("errors".into(), Json::uint(errors as u64)),
        ("warnings".into(), Json::uint(warnings as u64)),
        ("lints".into(), Json::uint(lints as u64)),
    ]);
    lines.push(summary.to_string());
    for line in &lines {
        // Self-check the emitter: a line the parser rejects is a bug here,
        // not in the consumer.
        debug_assert!(Json::parse(line).is_ok(), "invalid JSON line: {line}");
    }
    lines.join("\n")
}

/// `supermarq bench`: registry introspection (`list`) and the
/// mirror-circuit self-check (`mirror`).
fn cmd_bench(args: &Args) -> Result<String, CliError> {
    match args.positional(1) {
        Some("list") => cmd_bench_list(),
        Some("mirror") => cmd_bench_mirror(args),
        _ => Err(CliError::usage(
            "usage: supermarq bench <list|mirror <benchmark>>",
        )),
    }
}

/// One-token rendering of a declared parameter for `bench list`.
fn describe_param(p: &ParamSpec) -> String {
    match p.kind {
        ParamKind::Size { min, max } => {
            if max == usize::MAX {
                format!("size={min}..")
            } else {
                format!("size={min}..{max}")
            }
        }
        ParamKind::Count { min } => format!("{}>={min}", p.key),
        ParamKind::Seed => p.key.to_string(),
        ParamKind::InitBits => format!("{}=0/1 string", p.key),
        ParamKind::BitMask => format!("{}<2^size", p.key),
    }
}

fn cmd_bench_list() -> Result<String, CliError> {
    let registry = BenchmarkRegistry::builtin();
    let mut out = format!(
        "{:<13} {:<34} summary
",
        "id", "parameters"
    );
    for e in registry.entries() {
        let params: Vec<String> = e.schema().iter().map(describe_param).collect();
        out.push_str(&format!(
            "{:<13} {:<34} {}
",
            e.id(),
            params.join(" "),
            e.summary()
        ));
    }
    out.push_str(concat!(
        "\nEvery benchmark also registers a '<id>-mirror' variant taking the\n",
        "same parameters: run the circuit's measurement-free prefix, append\n",
        "its inverse, and score P(all zeros). Clifford mirrors verify at any\n",
        "width through the CHP tableau executor.\n",
    ));
    Ok(out)
}

/// `supermarq bench mirror <benchmark>`: score the benchmark's mirror
/// variant noiselessly, printing which executor path (CHP tableau vs
/// statevector) scored it. `--min X` turns the command into a check that
/// fails when the score drops below `X` (the CI smoke hook).
fn cmd_bench_mirror(args: &Args) -> Result<String, CliError> {
    let name = args
        .positional(2)
        .ok_or_else(|| CliError::usage("missing benchmark name"))?;
    let base_id = name.strip_suffix("-mirror").unwrap_or(name);
    let base = build_named_benchmark(base_id, args)?;
    let mirror = Mirror::new(base);
    let shots: usize = args
        .option_parse("shots", 1000usize)
        .map_err(CliError::Usage)?;
    let seed: u64 = args.option_parse("seed", 1u64).map_err(CliError::Usage)?;
    let started = Instant::now();
    let (score, path) = mirror
        .score_noiseless(shots, seed)
        .map_err(|e| CliError::failure(e.to_string()))?;
    let elapsed = started.elapsed();
    let mut out = format!(
        "benchmark: {}
qubits: {}
path: {}
shots: {}
score: {:.4}
elapsed: {elapsed:.1?}
",
        mirror.name(),
        mirror.num_qubits(),
        path,
        shots,
        score,
    );
    if let Some(raw) = args.option("min") {
        let min: f64 = raw
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --min '{raw}'")))?;
        if score < min {
            return Err(CliError::failure(format!(
                "{} scored {score:.4}, below the required minimum {min}",
                mirror.name()
            )));
        }
        out.push_str(&format!(
            "minimum {min} satisfied
"
        ));
    }
    Ok(out)
}

fn cmd_coverage() -> Result<String, CliError> {
    // The standard small suite's coverage plus the synthetic reference.
    let suite = supermarq::benchmarks::standard_suite();
    let features: Vec<FeatureVector> = suite.iter().map(|b| b.features()).collect();
    let volume = coverage_of_features(&features);
    let synthetic = coverage_of_features(&supermarq::coverage::synthetic_suite_features());
    let mut out = String::from("benchmark                      features\n");
    for (b, f) in suite.iter().zip(&features) {
        out.push_str(&format!("{:<30} {}\n", b.name(), f));
    }
    out.push_str(&format!("\nstandard-suite hull volume: {volume:.3e}\n"));
    out.push_str(&format!("synthetic unit-vector reference: {synthetic:.3e}"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;
    use supermarq_store::RunRecord;

    fn run(tokens: &[&str]) -> Result<String, String> {
        dispatch(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .map_err(|e| e.to_string())
    }

    #[test]
    fn devices_lists_all_machines() {
        let out = run(&["devices"]).unwrap();
        for name in ["IBM-Casablanca", "IBM-Montreal", "IonQ", "AQT"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn generate_emits_parseable_qasm() {
        let out = run(&["generate", "ghz", "--size", "4"]).unwrap();
        let c = Circuit::from_qasm(&out).unwrap();
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(c.two_qubit_gate_count(), 3);
    }

    #[test]
    fn generate_supports_every_benchmark() {
        for b in [
            "ghz",
            "mermin-bell",
            "bit-code",
            "phase-code",
            "qaoa-vanilla",
            "qaoa-swap",
            "vqe",
            "hamsim",
        ] {
            let out = run(&["generate", b, "--size", "3"]).unwrap();
            assert!(out.contains("OPENQASM 2.0;"), "{b}");
        }
    }

    #[test]
    fn run_scores_a_small_benchmark() {
        let out = run(&[
            "run", "ghz", "--size", "3", "--device", "ionq", "--shots", "200", "--reps", "1",
        ])
        .unwrap();
        assert!(out.contains("score:"), "{out}");
        assert!(out.contains("division: closed"));
    }

    #[test]
    fn run_open_division_flag() {
        let out = run(&[
            "run", "ghz", "--size", "3", "--device", "aqt", "--shots", "200", "--reps", "1",
            "--open",
        ])
        .unwrap();
        assert!(out.contains("open (readout-mitigated)"), "{out}");
    }

    #[test]
    fn features_command_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("supermarq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ghz.qasm");
        let qasm = run(&["generate", "ghz", "--size", "5"]).unwrap();
        std::fs::write(&path, qasm).unwrap();
        let out = run(&["features", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("qubits: 5"), "{out}");
        assert!(out.contains("CD=1.000"), "{out}");
    }

    #[test]
    fn show_renders_a_diagram() {
        let out = run(&["show", "ghz", "--size", "3"]).unwrap();
        assert!(out.contains("q0:"), "{out}");
        assert!(out.contains("[M]"));
        assert!(out.contains("GHZ-3"));
    }

    #[test]
    fn export_writes_parseable_qasm_corpus() {
        let dir = std::env::temp_dir().join("supermarq_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(&["export", "--dir", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("wrote 52"), "{out}");
        // Every exported file parses back.
        let mut count = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            Circuit::from_qasm(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            count += 1;
        }
        assert_eq!(count, 52);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_inputs_error_cleanly() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["generate", "not-a-benchmark"]).is_err());
        assert!(run(&["run", "ghz", "--device", "not-a-device"]).is_err());
        assert!(run(&["features", "/nonexistent/file.qasm"]).is_err());
    }

    #[test]
    fn oversized_run_reports_too_many_qubits() {
        let err = run(&["run", "ghz", "--size", "6", "--device", "aqt"]).unwrap_err();
        assert!(err.contains("qubits"), "{err}");
    }

    #[test]
    fn lint_list_names_every_check() {
        let out = run(&["lint", "--list"]).unwrap();
        for code in [
            "V001", "V002", "V003", "V004", "V005", "V006", "V007", "V008", "V009", "V010",
        ] {
            assert!(out.contains(code), "missing {code} in {out}");
        }
        assert!(out.contains("coupling-map"), "{out}");
        assert!(out.contains("dead-gate"), "{out}");
        assert!(out.contains("clifford-preservation"), "{out}");
    }

    #[test]
    fn lint_clean_benchmark_succeeds() {
        let out = run(&["lint", "ghz", "--size", "4"]).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn lint_against_device_flags_non_native_gates() {
        // A logical GHZ circuit uses H, which no Table II machine offers
        // natively, so device-level linting must fail with V004 findings.
        let err = run(&["lint", "ghz", "--size", "3", "--device", "ibm-casablanca"]).unwrap_err();
        assert!(err.contains("V004"), "{err}");
        assert!(matches!(
            dispatch(
                &["lint", "ghz", "--device", "ibm-casablanca"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
            ),
            Err(CliError::Failure(_))
        ));
    }

    #[test]
    fn lint_qasm_file_round_trip() {
        let dir = std::env::temp_dir().join("supermarq_lint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ghz.qasm");
        let qasm = run(&["generate", "ghz", "--size", "4"]).unwrap();
        std::fs::write(&path, qasm).unwrap();
        let out = run(&["lint", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn lint_json_emits_one_parseable_object_per_line() {
        // Device-level lint of a logical GHZ fails (V004), and every line
        // of the JSON stream must parse strictly, diagnostics and summary
        // alike.
        let err = run(&[
            "lint",
            "ghz",
            "--size",
            "3",
            "--device",
            "ibm-casablanca",
            "--format",
            "json",
        ])
        .unwrap_err();
        let lines: Vec<&str> = err.lines().collect();
        assert!(lines.len() >= 2, "{err}");
        for line in &lines {
            let obj = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(matches!(obj, Json::Obj(_)), "{line}");
        }
        // Diagnostic lines carry the full field set; blame defaults to
        // "input" outside pipeline runs.
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("check").and_then(Json::as_str), Some("V004"));
        assert_eq!(
            first.get("severity").and_then(Json::as_str),
            Some("error"),
            "{err}"
        );
        assert_eq!(first.get("blame").and_then(Json::as_str), Some("input"));
        assert!(first.get("instruction").and_then(Json::as_u64).is_some());
        // The last line is the summary object.
        let summary = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(summary.get("circuits").and_then(Json::as_u64), Some(1));
        assert!(summary.get("errors").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn lint_json_clean_run_is_just_the_summary() {
        let out = run(&["lint", "ghz", "--size", "3", "--format", "json"]).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "{out}");
        let summary = Json::parse(lines[0]).unwrap();
        assert_eq!(summary.get("errors").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn lint_pipeline_mode_compiles_and_blames() {
        // Through a pipeline the H is decomposed to natives, so the same
        // circuit that fails plain device lint passes --pipeline lint.
        let out = run(&[
            "lint",
            "ghz",
            "--size",
            "3",
            "--device",
            "ibm-casablanca",
            "--pipeline",
            "closed-stages",
            "--format",
            "json",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        let summary = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(summary.get("errors").and_then(Json::as_u64), Some(0));
        // Every diagnostic the pipeline did accumulate names its pass.
        for line in &lines[..lines.len() - 1] {
            let obj = Json::parse(line).unwrap();
            let blame = obj.get("blame").and_then(Json::as_str).unwrap_or("");
            assert!(!blame.is_empty(), "{line}");
        }
    }

    #[test]
    fn lint_pipeline_requires_device() {
        let argv: Vec<String> = ["lint", "ghz", "--pipeline", "closed-default"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(dispatch(&argv), Err(CliError::Usage(_))));
    }

    #[test]
    fn transpile_diff_certifies_builtin_pipelines() {
        let out = run(&[
            "transpile",
            "diff",
            "closed-default",
            "no-optimize",
            "--device",
            "ibm-casablanca",
            "--max-qubits",
            "4",
        ])
        .unwrap();
        assert!(out.contains("all cases proven"), "{out}");
        assert!(out.contains("proven"), "{out}");
    }

    #[test]
    fn transpile_diff_bad_inputs_are_usage_errors() {
        let argv = |tokens: &[&str]| tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(
            dispatch(&argv(&["transpile", "diff"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&argv(&[
                "transpile",
                "diff",
                "closed-default",
                "no-optimize"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&argv(&[
                "transpile",
                "diff",
                "nope",
                "no-optimize",
                "--device",
                "ionq"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn lint_bad_inputs_error_without_panicking() {
        assert!(run(&["lint"]).is_err());
        assert!(run(&["lint", "/nonexistent/file.qasm"]).is_err());
        assert!(run(&["lint", "not-a-benchmark"]).is_err());
        let dir = std::env::temp_dir().join("supermarq_lint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("malformed.qasm");
        std::fs::write(&path, "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n").unwrap();
        let err = run(&["lint", path.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
    }

    #[test]
    fn usage_errors_are_distinguished_from_failures() {
        let argv = |tokens: &[&str]| tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(
            dispatch(&argv(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&argv(&["features", "/nonexistent/file.qasm"])),
            Err(CliError::Failure(_))
        ));
    }

    /// A unique temp directory for store-backed tests.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "supermarq-cli-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn run_json_emits_the_store_record_schema() {
        let store = temp_dir("run-json");
        let out = run(&[
            "run",
            "ghz",
            "--size",
            "3",
            "--device",
            "ionq",
            "--shots",
            "100",
            "--reps",
            "2",
            "--seed",
            "5",
            "--json",
            "--store",
            store.to_str().unwrap(),
        ])
        .unwrap();
        let record = RunRecord::from_str(&out).unwrap();
        assert_eq!(record.spec.benchmark, "ghz");
        // Device name is canonicalized, so the hash is input-case-proof.
        assert_eq!(record.spec.device, "IonQ");
        assert_eq!(record.spec.shots, 100);
        assert_eq!(record.spec.seed, 5);
        assert_eq!(record.outcome.scores.len(), 2);
    }

    #[test]
    fn run_json_clamps_size_like_run() {
        let store = temp_dir("run-json-clamp");
        let json = |size: &str| {
            run(&[
                "run",
                "ghz",
                "--size",
                size,
                "--device",
                "ionq",
                "--shots",
                "50",
                "--reps",
                "1",
                "--json",
                "--store",
                store.to_str().unwrap(),
            ])
        };
        let clamped = json("1").unwrap();
        assert!(clamped.contains(r#""size":"2""#), "{clamped}");
        // Same record as asking for the clamped size directly.
        assert_eq!(clamped, json("2").unwrap());
    }

    #[test]
    fn run_json_matches_cached_batch_artifact_byte_for_byte() {
        let store = temp_dir("json-diff");
        let store_arg = store.to_str().unwrap();
        let jsonl = run(&[
            "batch",
            "--benchmarks",
            "ghz",
            "--sizes",
            "3",
            "--devices",
            "ionq",
            "--shots",
            "100",
            "--seeds",
            "5",
            "--reps",
            "2",
            "--store",
            store_arg,
        ])
        .unwrap();
        // Sharing the batch's store: the run is served from cache.
        let json = run(&[
            "run", "ghz", "--size", "3", "--device", "ionq", "--shots", "100", "--reps", "2",
            "--seed", "5", "--json", "--store", store_arg,
        ])
        .unwrap();
        assert_eq!(
            jsonl, json,
            "CLI runs and cached artifacts must be diffable"
        );
    }

    #[test]
    fn batch_second_pass_is_all_hits_and_byte_identical() {
        let store = temp_dir("batch-rerun");
        let store_arg = store.to_str().unwrap();
        let grid = [
            "batch",
            "--benchmarks",
            "ghz,qaoa-swap",
            "--sizes",
            "3,4",
            "--devices",
            "ionq,aqt",
            "--shots",
            "50",
            "--reps",
            "1",
            "--store",
            store_arg,
        ];
        let first = run(&grid).unwrap();
        assert_eq!(first.lines().count(), 2 * 2 * 2);
        for line in first.lines() {
            RunRecord::from_str(line).unwrap();
        }
        let second = run(&grid).unwrap();
        assert_eq!(first, second);
        // And the stats prove the second pass came from the store.
        let out_file = store.join("out.jsonl");
        let mut with_out = grid.to_vec();
        with_out.extend(["--out", out_file.to_str().unwrap()]);
        let summary = run(&with_out).unwrap();
        assert!(summary.contains("misses=0"), "{summary}");
        assert!(summary.contains("hits=8"), "{summary}");
        let written = std::fs::read_to_string(&out_file).unwrap();
        assert_eq!(written.trim_end(), first);
    }

    /// `run --json` argv for one small GHZ cell over `store`.
    fn run_json_argv<'a>(store: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
        let mut argv = vec![
            "run", "ghz", "--size", "3", "--device", "IonQ", "--shots", "100", "--reps", "1",
            "--json", "--store", store,
        ];
        argv.extend(extra);
        argv
    }

    /// `--no-cache` skips the cache read only: like `batch`, a fresh
    /// `run --json` result is still stored.
    #[test]
    fn run_json_no_cache_still_stores_the_result() {
        let store = temp_dir("run-json-nocache");
        let store_arg = store.to_str().unwrap();
        let fresh = run(&run_json_argv(store_arg, &["--no-cache"])).unwrap();
        let stats = run(&["cache", "stats", "--store", store_arg]).unwrap();
        assert!(stats.contains("entries: 1"), "{stats}");
        // The stored record is the line printed, and a cached read
        // replays it byte for byte.
        assert_eq!(run(&run_json_argv(store_arg, &[])).unwrap(), fresh);
        assert_eq!(
            run(&run_json_argv(store_arg, &["--no-cache"])).unwrap(),
            fresh
        );
    }

    /// A record that cannot be stored fails `run --json`, with or without
    /// `--no-cache`.
    #[test]
    fn run_json_fails_when_the_store_cannot_write() {
        let probe = temp_dir("run-json-probe");
        let line = run(&run_json_argv(probe.to_str().unwrap(), &[])).unwrap();
        let hash = RunRecord::from_str(&line).unwrap().spec.content_hash();
        let store = temp_dir("run-json-blocked");
        // A file where the record's shard directory belongs.
        std::fs::create_dir_all(store.join("objects")).unwrap();
        std::fs::write(store.join("objects").join(&hash[..2]), "").unwrap();
        let store_arg = store.to_str().unwrap();
        for extra in [&[][..], &["--no-cache"][..]] {
            let err = run(&run_json_argv(store_arg, extra)).unwrap_err();
            assert!(err.contains("cannot persist record"), "{err}");
        }
    }

    #[test]
    fn batch_no_cache_forces_recomputation() {
        let store = temp_dir("batch-nocache");
        let store_arg = store.to_str().unwrap();
        fn grid<'a>(store_arg: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
            let mut argv = vec![
                "batch",
                "--benchmarks",
                "ghz",
                "--sizes",
                "3",
                "--devices",
                "ionq",
                "--shots",
                "50",
                "--reps",
                "1",
                "--store",
                store_arg,
                "--out",
            ];
            argv.extend(extra);
            argv
        }
        let out1 = store.join("1.jsonl");
        let out2 = store.join("2.jsonl");
        run(&grid(store_arg, &[out1.to_str().unwrap()])).unwrap();
        let summary = run(&grid(store_arg, &[out2.to_str().unwrap(), "--no-cache"])).unwrap();
        assert!(summary.contains("misses=1"), "{summary}");
    }

    #[test]
    fn batch_rejects_bad_grids() {
        assert!(run(&["batch"]).is_err());
        assert!(run(&["batch", "--benchmarks", "not-a-benchmark"]).is_err());
        assert!(run(&["batch", "--benchmarks", "ghz", "--devices", "not-a-device"]).is_err());
        assert!(run(&["batch", "--benchmarks", "ghz", "--sizes", "xyz"]).is_err());
        assert!(run(&["batch", "--benchmarks", "ghz", "--sizes", "1"]).is_err());
    }

    #[test]
    fn cache_stats_verify_gc_lifecycle() {
        let store_dir = temp_dir("cache-cmd");
        let store_arg = store_dir.to_str().unwrap().to_string();
        // Empty store: zero entries, clean verify, no-op gc.
        let out = run(&["cache", "stats", "--store", &store_arg]).unwrap();
        assert!(out.contains("entries: 0"), "{out}");
        assert!(run(&["cache", "verify", "--store", &store_arg]).is_ok());
        // Populate one entry via batch.
        run(&[
            "batch",
            "--benchmarks",
            "ghz",
            "--sizes",
            "3",
            "--devices",
            "ionq",
            "--shots",
            "50",
            "--reps",
            "1",
            "--store",
            &store_arg,
        ])
        .unwrap();
        let out = run(&["cache", "stats", "--store", &store_arg]).unwrap();
        assert!(out.contains("entries: 1"), "{out}");
        let out = run(&["cache", "verify", "--store", &store_arg]).unwrap();
        assert!(out.contains("all valid"), "{out}");
        // Corrupt the entry: verify fails, gc removes it, verify is clean.
        let store = Store::open(&store_dir).unwrap();
        let objects: Vec<_> = walk_json_files(&store_dir.join("objects"));
        assert_eq!(objects.len(), 1);
        std::fs::write(&objects[0], "{ truncated garbage").unwrap();
        let err = run(&["cache", "verify", "--store", &store_arg]).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        let out = run(&["cache", "gc", "--store", &store_arg]).unwrap();
        assert!(out.contains("1 invalid object(s)"), "{out}");
        assert!(run(&["cache", "verify", "--store", &store_arg]).is_ok());
        assert_eq!(store.stats().unwrap().entries, 0);
        // Unknown action is a usage error.
        assert!(run(&["cache", "frobnicate", "--store", &store_arg]).is_err());
        assert!(run(&["cache"]).is_err());
    }

    fn walk_json_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut found = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    found.extend(walk_json_files(&path));
                } else if path.extension().is_some_and(|e| e == "json") {
                    found.push(path);
                }
            }
        }
        found
    }

    #[test]
    fn profile_and_trace_flags_do_not_perturb_output() {
        let dir = temp_dir("obs-flags");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let plain = run(&[
            "run", "ghz", "--size", "3", "--device", "ionq", "--shots", "100", "--reps", "1",
        ])
        .unwrap();
        let profiled = run(&[
            "run",
            "ghz",
            "--size",
            "3",
            "--device",
            "ionq",
            "--shots",
            "100",
            "--reps",
            "1",
            "--profile",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            plain, profiled,
            "observability flags must not change stdout"
        );
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(!text.is_empty(), "trace file must not be empty");
        assert!(
            text.lines().any(|l| l.contains("transpile.route")),
            "trace must contain transpiler stage spans"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transpile_passes_lists_every_pipeline_and_pass() {
        let out = run(&["transpile", "passes"]).unwrap();
        for pipeline in PipelineId::ALL {
            assert!(
                out.contains(pipeline.as_str()),
                "missing {pipeline} in {out}"
            );
        }
        for pass in PassSpec::ALL {
            assert!(out.contains(pass.id()), "missing {} in {out}", pass.id());
        }
        // The whole listing, byte for byte: each pipeline's passes in run
        // order, then one line per pass.
        assert_eq!(
            out,
            "pipelines:
  closed-default: optimize-logical place route decompose optimize-physical verify-final schedule
  closed-stages: optimize-logical verify-logical place route verify-routed decompose verify-native optimize-physical verify-final schedule
  closed-unverified: optimize-logical place route decompose optimize-physical schedule
  no-optimize: place route decompose verify-final schedule
  no-optimize-stages: verify-logical place route verify-routed decompose verify-native verify-final schedule
  no-optimize-unverified: place route decompose schedule

passes:
  optimize-logical  logical single-qubit fusion + adjacent-gate cancellation
  verify-logical    structural checks on the logical circuit
  place             initial program-to-physical placement
  route             SWAP-insertion routing onto the coupling map
  verify-routed     coupling-map checks + Closed-Division routing audit
  decompose         lowering to the device's native gate set
  verify-native     full checks on the freshly decomposed circuit
  optimize-physical physical fusion + cancellation, re-lowered to native
  verify-final      full checks on the final circuit
  schedule          ASAP scheduling: depth and two-qubit gate count"
        );
        // Bad actions are usage errors.
        assert!(run(&["transpile"]).is_err());
        assert!(run(&["transpile", "frobnicate"]).is_err());
    }

    #[test]
    fn run_accepts_a_pipeline_and_rejects_unknown_names() {
        let out = run(&[
            "run",
            "ghz",
            "--size",
            "3",
            "--device",
            "ionq",
            "--shots",
            "100",
            "--reps",
            "1",
            "--pipeline",
            "no-optimize",
        ])
        .unwrap();
        assert!(out.contains("score:"), "{out}");
        let err = run(&[
            "run",
            "ghz",
            "--size",
            "3",
            "--device",
            "ionq",
            "--pipeline",
            "frobnicate",
        ])
        .unwrap_err();
        assert!(err.contains("unknown pipeline"), "{err}");
    }

    #[test]
    fn batch_pipeline_flag_lands_in_the_cached_spec() {
        let store = temp_dir("batch-pipeline");
        let out = run(&[
            "batch",
            "--benchmarks",
            "ghz",
            "--sizes",
            "3",
            "--devices",
            "ionq",
            "--shots",
            "50",
            "--reps",
            "1",
            "--pipeline",
            "closed-stages",
            "--store",
            store.to_str().unwrap(),
        ])
        .unwrap();
        let record = RunRecord::from_str(out.trim_end()).unwrap();
        assert_eq!(record.spec.transpile.pipeline, "closed-stages");
        assert!(run(&["batch", "--benchmarks", "ghz", "--pipeline", "nope"]).is_err());
    }

    #[test]
    fn coverage_reports_volumes() {
        let out = run(&["coverage"]).unwrap();
        assert!(out.contains("hull volume"));
        assert!(out.contains("1.389e-3"));
    }
}
