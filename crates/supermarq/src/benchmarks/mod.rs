//! The benchmark applications: the eight of paper Sec. IV plus the
//! scored Table-I corpus (QFT, Bernstein–Vazirani, ripple-carry adder,
//! Grover) in `corpus`.

mod bit_code;
pub(crate) mod corpus;
mod ghz;
mod hamiltonian_sim;
mod mermin_bell;
mod phase_code;
mod qaoa_swap;
mod qaoa_vanilla;
mod vqe;

pub use bit_code::BitCodeBenchmark;
pub(crate) use corpus::{
    BernsteinVaziraniBenchmark, GroverBenchmark, QftBenchmark, RippleAdderBenchmark,
};
pub use ghz::GhzBenchmark;
pub use hamiltonian_sim::HamiltonianSimBenchmark;
pub use mermin_bell::MerminBellBenchmark;
pub use phase_code::PhaseCodeBenchmark;
pub use qaoa_swap::QaoaSwapBenchmark;
pub use qaoa_vanilla::QaoaVanillaBenchmark;
pub use vqe::VqeBenchmark;

use crate::benchmark::Benchmark;

/// The standard suite instances used throughout the evaluation harness:
/// one representative small instance of each application, sized like the
/// paper's Fig. 2 (3–6 qubits, fitting every Table II device except AQT's
/// 4-qubit testbed for the larger entries).
pub fn standard_suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(GhzBenchmark::new(5)),
        Box::new(MerminBellBenchmark::new(4)),
        Box::new(BitCodeBenchmark::new(3, 2, &[true, false, true])),
        Box::new(PhaseCodeBenchmark::new(3, 2, &[true, false, true])),
        Box::new(QaoaVanillaBenchmark::new(5, 1)),
        Box::new(QaoaSwapBenchmark::new(5, 1)),
        Box::new(VqeBenchmark::new(4, 1)),
        Box::new(HamiltonianSimBenchmark::new(4, 4)),
    ]
}
