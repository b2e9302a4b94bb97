//! Ablation: noise-channel knockouts.
//!
//! Removes one channel at a time from the IBM-Guadalupe noise model and
//! re-runs representative benchmarks, isolating which physical mechanism
//! drives each score — the mechanism-level confirmation of the Fig. 3
//! correlation study (readout/reset duration is what sinks the EC codes;
//! two-qubit depolarizing is what sinks QAOA).

use supermarq::benchmarks::{BitCodeBenchmark, GhzBenchmark, QaoaSwapBenchmark};
use supermarq::Benchmark;
use supermarq_bench::render_table;
use supermarq_device::Device;
use supermarq_sim::{Executor, NoiseModel};
use supermarq_transpile::{relabel_counts, Transpiler};

/// Runs a benchmark under an explicit noise model through the device
/// pipeline.
fn score_with(bench: &dyn Benchmark, device: &Device, noise: NoiseModel) -> f64 {
    let transpiler = Transpiler::for_device(device);
    let executor = Executor::new(noise);
    let mut counts = Vec::new();
    for (i, c) in bench.circuits().iter().enumerate() {
        let (compact, readout) = transpiler.run(c).expect("fits").compacted();
        counts.push(relabel_counts(
            &executor.run(&compact, 2000, 31 + i as u64),
            &readout,
        ));
    }
    bench.score(&counts).expect("scorable counts")
}

fn main() {
    println!("== Ablation: noise-channel knockouts on IBM-Guadalupe ==\n");
    let device = Device::ibm_guadalupe();
    let full = device.noise_model();
    let variants: Vec<(&str, NoiseModel)> = vec![
        ("full model", full.clone()),
        (
            "no readout error",
            NoiseModel {
                readout_error: 0.0,
                ..full.clone()
            },
        ),
        (
            "no reset error",
            NoiseModel {
                reset_error: 0.0,
                ..full.clone()
            },
        ),
        (
            "no relaxation (T1=T2=inf)",
            NoiseModel {
                t1: f64::INFINITY,
                t2: f64::INFINITY,
                ..full.clone()
            },
        ),
        (
            "no 2q depolarizing",
            NoiseModel {
                depolarizing_2q: 0.0,
                ..full.clone()
            },
        ),
        (
            "no crosstalk",
            NoiseModel {
                crosstalk: 0.0,
                ..full.clone()
            },
        ),
        ("ideal", NoiseModel::ideal()),
    ];
    let benches: Vec<Box<dyn Benchmark>> = vec![
        Box::new(GhzBenchmark::new(5)),
        Box::new(BitCodeBenchmark::new(3, 3, &[true, true, true])),
        Box::new(QaoaSwapBenchmark::new(5, 1)),
    ];
    let mut headers: Vec<String> = vec!["Variant".into()];
    headers.extend(benches.iter().map(|b| b.name()));
    let mut rows = Vec::new();
    for (label, noise) in &variants {
        let mut row = vec![label.to_string()];
        for b in &benches {
            row.push(format!(
                "{:.3}",
                score_with(b.as_ref(), &device, noise.clone())
            ));
        }
        rows.push(row);
    }
    println!("{}", render_table(&headers, &rows));
    println!("Expected: the bit code recovers most when relaxation or readout");
    println!("error is removed (slow measure/reset + T1 decay is its killer);");
    println!("GHZ and QAOA recover most when 2q depolarizing is removed.");
}
