//! End-to-end benchmark of the SupermarQ reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <fig2-ionq|fig2-ibm|mirror-wide|serve-warm> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process, one client, a closed loop: each op starts when the
//! previous one has returned and passed its output check. A run sets
//! its workload up at least [`SETUPS`] times (reporting the median as
//! `setup_s`), then repeats whole passes over the workload's op list, in
//! an order drawn from `--seed`, until `--seconds` have elapsed.
//!
//! `--trace 0` prints the end-to-end metrics, built from each input's
//! best latency in the run and scaled to a reference machine speed (see
//! [`end_to_end`] and [`speed`]). `--trace 1` spends half
//! the time untraced and half in a traced copy of each op that times the
//! calls into every layer from outside the program, and prints the
//! per-layer metrics instead. The last stdout line is always the JSON
//! result; the exit code is non-zero when any output check failed.
//!
//! See `README.md` next to this file for why each workload exists and
//! which layer each one loads.

mod fig2;
mod layers;
mod mirror;
mod serve;
mod speed;
mod stats;

use std::path::Path;
use std::time::Instant;

use supermarq_store::Json;

pub use layers::Layers;

/// Least set-ups per run, and least time spent setting up: a short
/// set-up repeats until the set-ups span bursts of the machine's other
/// load. `setup_s` is their median.
pub const SETUPS: usize = 3;
pub const SETUP_SECONDS: f64 = 3.0;

/// The command line, validated.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back: op counts plus the metrics of the mode
/// it ran in.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Latencies and failures of one timed phase.
#[derive(Default)]
pub struct Phase {
    pub lat_ms: Vec<f64>,
    /// The input of each op in `lat_ms`: ops with the same input do the
    /// same work.
    pub inputs: Vec<usize>,
    pub failed: u64,
    pub passes: u64,
    pub wall_s: f64,
    pub speed: speed::Speed,
}

impl Phase {
    /// Times `call` as one op on `input`, then checks its output untimed.
    /// An error from either counts the op as failed.
    pub fn op<T>(
        &mut self,
        input: usize,
        call: impl FnOnce() -> Result<T, String>,
        check: impl FnOnce(T) -> Result<(), String>,
    ) {
        let start = Instant::now();
        let out = call();
        self.lat_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.inputs.push(input);
        self.speed.tick();
        if let Err(e) = out.and_then(check) {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("e2ebench: op failed: {e}");
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.lat_ms.len() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        (self.attempted() - self.failed) as f64 / self.wall_s
    }

    /// The latency of one pass's ops, each taken at its input's best in
    /// the phase and scaled to the reference speed. Every pass runs each
    /// input equally often, so an input appears as often as it ran per
    /// pass.
    pub fn best_pass_ms(&self) -> Vec<f64> {
        let n = self.inputs.iter().max().map_or(0, |&i| i + 1);
        let mut best = vec![f64::INFINITY; n];
        let mut runs = vec![0u64; n];
        for (&i, &ms) in self.inputs.iter().zip(&self.lat_ms) {
            best[i] = best[i].min(ms);
            runs[i] += 1;
        }
        let passes = self.passes.max(1);
        let scale = self.speed.scale();
        best.iter()
            .zip(&runs)
            .flat_map(|(&ms, &r)| std::iter::repeat_n(ms * scale, (r / passes) as usize))
            .collect()
    }
}

/// Runs whole passes until `seconds` have elapsed (at least one pass).
pub fn timed_passes(seconds: f64, mut pass: impl FnMut(u64, &mut Phase)) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    while phase.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        pass(phase.passes, &mut phase);
        phase.passes += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Runs `setup` at least [`SETUPS`] times and for at least
/// [`SETUP_SECONDS`], keeping the last result; returns it with the
/// median set-up time in seconds.
pub fn repeated_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let begin = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUPS || begin.elapsed().as_secs_f64() < SETUP_SECONDS {
        let start = Instant::now();
        let state = setup(times.len())?;
        times.push(start.elapsed().as_secs_f64());
        // Earlier set-ups are torn down outside the timed window.
        kept = Some(state);
    }
    Ok((kept.expect("at least one set-up"), quantile(&times, 0.5)))
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The end-to-end metrics of an untraced phase.
///
/// Every time is scaled to the reference speed (see [`speed`]), which
/// takes out the drift of the whole machine. Other tenants also slow it
/// by up to 2x in bursts of a few seconds, so the latency metrics
/// describe one pass with each op at its input's best in the run, which
/// such bursts rarely all cover, and estimate its percentiles with
/// [`stats::harrell_davis`]. The raw wall-clock figures go to stderr.
pub fn end_to_end(setup_s: f64, phase: &Phase) -> Vec<Metric> {
    let scale = phase.speed.scale();
    eprintln!(
        "e2ebench: raw wall clock: {:.4} ops/s, p50 {:.4} ms, p90 {:.4} ms over {} ops; \
         set-up {setup_s:.4} s; quiet probe {:.4} ms, so times are scaled by {scale:.4}",
        phase.ops_per_s(),
        quantile(&phase.lat_ms, 0.5),
        quantile(&phase.lat_ms, 0.9),
        phase.attempted(),
        phase.speed.quiet_ms(),
    );
    let pass = phase.best_pass_ms();
    vec![
        Metric {
            name: "setup_s",
            value: setup_s * scale,
            unit: "s",
        },
        Metric {
            name: "ops_per_s",
            value: pass.len() as f64 * 1e3 / pass.iter().sum::<f64>(),
            unit: "1/s",
        },
        Metric {
            name: "op_p50_ms",
            value: stats::harrell_davis(&pass, 0.5),
            unit: "ms",
        },
        Metric {
            name: "op_p90_ms",
            value: stats::harrell_davis(&pass, 0.9),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of input randomness.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// Parent of every run's scratch space, under the working directory.
const WORK_ROOT: &str = ".bench_work";

/// The environment every result depends on. `RAYON_NUM_THREADS` changes
/// the simulation-bound workloads by 50-100x, so a run with it set is
/// marked and warned about.
fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rayon_env = std::env::var("RAYON_NUM_THREADS").ok();
    let marked = rayon_env.is_some();
    if let Some(v) = &rayon_env {
        eprintln!(
            "e2ebench: WARNING: RAYON_NUM_THREADS={v} is set; results are not comparable \
             with runs in the default environment"
        );
    }
    // Only ask git about this directory's own repository, never a parent's.
    let (git, dirty) = if Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| {
                let describe = String::from_utf8_lossy(&o.stdout).trim().to_string();
                let dirty = describe.ends_with("-dirty");
                (Json::str(describe), Json::Bool(dirty))
            })
            .unwrap_or((Json::str("unknown"), Json::Null))
    } else {
        (Json::str("not a git checkout"), Json::Null)
    };
    Json::Obj(vec![
        ("nproc".into(), Json::uint(nproc as u64)),
        (
            "rayon_threads".into(),
            Json::uint(rayon::current_num_threads() as u64),
        ),
        (
            "rayon_num_threads_env".into(),
            rayon_env.map_or(Json::Null, Json::str),
        ),
        ("marked".into(), Json::Bool(marked)),
        ("git".into(), git),
        ("dirty".into(), dirty),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <fig2-ionq|fig2-ibm|mirror-wide|serve-warm> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!("{}", Json::Obj(vec![("env".into(), environment())]));
    // Scratch stores for this run, removed at exit.
    let work = Path::new(WORK_ROOT).join(std::process::id().to_string());
    let result = match args.workload.as_str() {
        "fig2-ionq" => fig2::run(&args, fig2::Grid::Ionq, &work),
        "fig2-ibm" => fig2::run(&args, fig2::Grid::Ibm, &work),
        "mirror-wide" => mirror::run(&args, &work),
        "serve-warm" => serve::run(&args, &work),
        other => Err(format!("unknown workload '{other}'")),
    };
    let _ = std::fs::remove_dir_all(&work);
    // Fails, harmlessly, while another run still uses it.
    let _ = std::fs::remove_dir(WORK_ROOT);
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for m in &report.metrics {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = report.failed == 0;
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::float(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::uint(report.attempted)),
            ("failed".into(), Json::uint(report.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}
