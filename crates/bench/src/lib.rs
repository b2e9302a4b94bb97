//! Shared helpers for the evaluation harness binaries.
//!
//! Each table and figure of the paper's evaluation section has a dedicated
//! binary in this crate (see `src/bin/`); this library holds the pieces
//! they share: the Fig. 2 benchmark grid, result records, and plain-text
//! table rendering.

use supermarq::spec::{benchmark_from_params, default_init};
use supermarq::Benchmark;

/// A benchmark point in spec form: `(benchmark id, parameters)` — the
/// `(benchmark, params)` half of a `supermarq_store::RunSpec`, so grid
/// cells are content-addressable.
pub(crate) type BenchPoint = (String, Vec<(String, String)>);

/// One Fig. 2 panel: `(panel_label, instances, is_error_correction)`.
pub(crate) type Fig2Panel = (&'static str, Vec<Box<dyn Benchmark>>, bool);

/// One Fig. 2 panel in spec form: `(panel_label, points, is_error_correction)`.
pub(crate) type Fig2SpecPanel = (&'static str, Vec<BenchPoint>, bool);

/// Parses the observability flags shared by the figure binaries
/// (`--profile`, `--trace-out <path>`) from the process arguments and
/// enables tracing accordingly. Returns `true` when the caller should
/// print the profile summary at exit (via [`finish_observability`]).
/// Exits with status 2 when the trace file cannot be created.
pub fn init_observability(tool: &str) -> bool {
    let args: Vec<String> = std::env::args().collect();
    let profile = args.iter().any(|a| a == "--profile");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1));
    if let Some(path) = trace_out {
        if let Err(e) = supermarq_obs::init_trace_file(path) {
            eprintln!("{tool}: cannot create trace file {path}: {e}");
            std::process::exit(2);
        }
    } else if profile {
        supermarq_obs::enable();
    }
    profile
}

/// Flushes the trace sink and, when `profile` is set, prints the span /
/// metrics summary table to stderr. The tables on stdout are unaffected.
pub fn finish_observability(profile: bool) {
    supermarq_obs::flush();
    if profile {
        let table = supermarq_obs::summary_table();
        if !table.is_empty() {
            eprint!("{table}");
        }
    }
}

/// Paper shot budgets per device: 2000 on IBM machines, 1024 on AQT, 35
/// on IonQ ("selected to maintain a reasonable cost budget"). Shared by
/// the Fig. 2 binary and the warm-cache regression test so their specs
/// hash identically.
pub fn shots_for(device: &supermarq_device::Device) -> u64 {
    match device.name() {
        "IonQ" => 35,
        "AQT" => 1024,
        _ => 2000,
    }
}

fn point(id: &str, params: &[(&str, String)]) -> BenchPoint {
    (
        id.to_string(),
        params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn sized(id: &str, size: usize) -> BenchPoint {
    point(id, &[("size", size.to_string())])
}

fn code(id: &str, size: usize, rounds: usize) -> BenchPoint {
    point(
        id,
        &[
            ("size", size.to_string()),
            ("rounds", rounds.to_string()),
            ("init", default_init(size)),
        ],
    )
}

/// The Fig. 2 benchmark grid in spec form: for each of the eight
/// applications, the instance sizes the paper swept (kept within
/// statevector reach), in the paper's panel order. This is the single
/// source of truth; [`figure2_grid`] instantiates it.
pub fn figure2_points() -> Vec<Fig2SpecPanel> {
    let qaoa =
        |id: &str, size: usize| point(id, &[("size", size.to_string()), ("seed", "1".to_string())]);
    let vqe = |size: usize| {
        point(
            "vqe",
            &[("size", size.to_string()), ("layers", "1".to_string())],
        )
    };
    let hamsim = |size: usize| {
        point(
            "hamsim",
            &[("size", size.to_string()), ("steps", size.to_string())],
        )
    };
    vec![
        ("a) GHZ", (3..=6).map(|n| sized("ghz", n)).collect(), false),
        (
            "b) Mermin-Bell",
            (3..=5).map(|n| sized("mermin-bell", n)).collect(),
            false,
        ),
        (
            "c) Phase Code",
            vec![
                code("phase-code", 3, 1),
                code("phase-code", 3, 3),
                code("phase-code", 4, 2),
            ],
            true,
        ),
        (
            "d) Bit Code",
            vec![
                code("bit-code", 3, 1),
                code("bit-code", 3, 3),
                code("bit-code", 4, 2),
            ],
            true,
        ),
        ("e) VQE", (3..=5).map(vqe).collect(), false),
        (
            "f) Hamiltonian Simulation",
            (3..=5).map(hamsim).collect(),
            false,
        ),
        (
            "g) ZZ-SWAP QAOA",
            (4..=6).map(|n| qaoa("qaoa-swap", n)).collect(),
            false,
        ),
        (
            "h) Vanilla QAOA",
            (4..=6).map(|n| qaoa("qaoa-vanilla", n)).collect(),
            false,
        ),
    ]
}

/// The Fig. 2 benchmark grid, instantiated from [`figure2_points`].
pub fn figure2_grid() -> Vec<Fig2Panel> {
    figure2_points()
        .into_iter()
        .map(|(label, points, is_ec)| {
            let instances = points
                .iter()
                .map(|(id, params)| {
                    benchmark_from_params(id, params)
                        .unwrap_or_else(|e| panic!("in-tree grid point {id} is valid: {e}"))
                })
                .collect();
            (label, instances, is_ec)
        })
        .collect()
}

/// Renders a plain-text table with a header row.
pub fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let mut out = String::new();
    out.push_str(&fmt_row(headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats an optional score cell (`None` renders the paper's black X for
/// benchmarks that exceed a device's qubit count).
pub fn score_cell(score: Option<(f64, f64)>) -> String {
    match score {
        Some((mean, sd)) => format!("{mean:.3}±{sd:.3}"),
        None => "X".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_eight_applications() {
        let grid = figure2_grid();
        assert_eq!(grid.len(), 8);
        let ec_panels = grid.iter().filter(|(_, _, ec)| *ec).count();
        assert_eq!(ec_panels, 2);
        for (label, instances, _) in &grid {
            assert!(!instances.is_empty(), "{label}");
        }
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[
                vec!["xxx".into(), "y".into()],
                vec!["z".into(), "wwww".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
    }

    #[test]
    fn score_cells() {
        assert_eq!(score_cell(None), "X");
        assert_eq!(score_cell(Some((0.5, 0.01))), "0.500±0.010");
    }

    /// Acceptance gate for the Closed-Division pipeline: the smallest
    /// instance of each of the eight applications must transpile onto every
    /// Table II device with zero error-level diagnostics at the strictest
    /// verification level. Benchmarks that exceed a device's qubit count
    /// are the legitimate black X's of Fig. 2 and are skipped.
    #[test]
    fn verifier_accepts_every_benchmark_on_every_device() {
        use supermarq_device::Device;
        use supermarq_transpile::{PipelineId, TranspileError, Transpiler};
        use supermarq_verify::verify_on_device;
        for (label, instances, _) in figure2_grid() {
            let bench = &instances[0];
            for device in Device::all_paper_devices() {
                let transpiler =
                    Transpiler::for_device(&device).with_pipeline(PipelineId::ClosedStages);
                for circuit in bench.circuits() {
                    match transpiler.run(&circuit) {
                        Ok(result) => {
                            let report = verify_on_device(&result.circuit, &device);
                            assert!(
                                !report.has_errors(),
                                "{label} on {}:\n{}",
                                device.name(),
                                report.render()
                            );
                        }
                        Err(TranspileError::TooManyQubits { .. }) => {}
                        Err(e) => panic!("{label} on {}: {e}", device.name()),
                    }
                }
            }
        }
    }
}
