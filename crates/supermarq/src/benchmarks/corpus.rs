//! The Table-I comparison corpus, promoted to scored benchmarks.
//!
//! The paper's Table I positions SupermarQ against the common
//! QASMBench/MQT-Bench workloads — QFT, Bernstein–Vazirani, arithmetic
//! (ripple-carry adders) and Grover search. This module makes them
//! first-class [`Benchmark`](crate::Benchmark)s with classically
//! verifiable scores, registered in the
//! [`BenchmarkRegistry`](crate::registry::BenchmarkRegistry) with
//! canonical store specs.
//!
//! Its circuit generators, plus six more that only the comparison suites
//! use (teleportation, brickwork, W state, phase estimation,
//! Deutsch–Jozsa, a UCCSD-like ansatz), also build the Table I corpora in
//! [`crate::coverage`].

use std::f64::consts::PI;

use supermarq_circuit::Circuit;
use supermarq_sim::Counts;

use crate::benchmark::{clamp_score, expect_counts, CircuitFamily, ScoreError, ScoringStrategy};

// ---------------------------------------------------------------------------
// Circuit generators (scored benchmarks and Table I corpora).
// ---------------------------------------------------------------------------

/// The quantum Fourier transform on `n` qubits (with final swaps).
///
/// # Panics
///
/// Panics if `n == 0`.
pub(crate) fn qft(n: usize) -> Circuit {
    assert!(n > 0, "QFT needs at least one qubit");
    let mut c = Circuit::new(n);
    for target in 0..n {
        c.h(target);
        for control in target + 1..n {
            let k = (control - target) as i32;
            // pi / 2^k, computed in floats so 1000-qubit instances do not
            // overflow an integer shift (angles underflow to 0 harmlessly).
            c.cp(PI * 0.5f64.powi(k), control, target);
        }
    }
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q);
    }
    c
}

/// Bernstein–Vazirani with the given hidden string (bit `i` of `secret`
/// couples data qubit `i` to the phase ancilla, which is qubit `n`).
pub(crate) fn bernstein_vazirani(n: usize, secret: u64) -> Circuit {
    assert!(n > 0 && n <= 63, "1..=63 data qubits");
    let mut c = Circuit::new(n + 1);
    c.x(n).h(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        if secret >> q & 1 == 1 {
            c.cx(q, n);
        }
    }
    for q in 0..n {
        c.h(q);
        c.measure(q);
    }
    c
}

/// Standard exact Toffoli realization over the IR's 2q + 1q gate set.
fn toffoli(c: &mut Circuit, x: usize, y: usize, z: usize) {
    c.h(z)
        .cx(y, z)
        .tdg(z)
        .cx(x, z)
        .t(z)
        .cx(y, z)
        .tdg(z)
        .cx(x, z)
        .t(y)
        .t(z)
        .h(z)
        .cx(x, y)
        .t(x)
        .tdg(y)
        .cx(x, y);
}

/// The MAJ/UMA body of Cuccaro's ripple-carry adder (no input prep, no
/// measurements): computes `b <- (a + b) mod 2^n` in place, restoring `a`
/// and the carry qubit.
fn ripple_adder_body(c: &mut Circuit, n: usize) {
    let a = |i: usize| i;
    let b = |i: usize| n + i;
    let carry = 2 * n;
    for i in 0..n {
        let prev = if i == 0 { carry } else { a(i - 1) };
        c.cx(a(i), b(i));
        c.cx(a(i), prev);
        toffoli(c, prev, b(i), a(i));
    }
    // Sum extraction (UMA, simplified skeleton).
    for i in (0..n).rev() {
        let prev = if i == 0 { carry } else { a(i - 1) };
        toffoli(c, prev, b(i), a(i));
        c.cx(a(i), prev);
        c.cx(prev, b(i));
    }
}

/// A ripple-carry adder skeleton on `2n + 1` qubits (two `n`-bit registers
/// plus carry): the MAJ/UMA structure of Cuccaro's adder, used as a
/// QASMBench-style arithmetic workload.
pub(crate) fn ripple_adder(n: usize) -> Circuit {
    assert!(n >= 1, "need at least one bit");
    // Layout: a_0..a_{n-1}, b_0..b_{n-1}, carry.
    let total = 2 * n + 1;
    let mut c = Circuit::new(total);
    ripple_adder_body(&mut c, n);
    c.measure_all();
    c
}

/// [`ripple_adder`] with classical inputs loaded by X gates: register `a`
/// holds `a_in`, register `b` holds `b_in`, and the ideal readout is
/// `a_in` unchanged, `(a_in + b_in) mod 2^n` in `b`, carry restored to 0.
pub(crate) fn ripple_adder_with_inputs(n: usize, a_in: u64, b_in: u64) -> Circuit {
    assert!(n >= 1, "need at least one bit");
    assert!(
        n < 64 && a_in >> n == 0 && b_in >> n == 0,
        "inputs must fit in {n} bits"
    );
    let mut c = Circuit::new(2 * n + 1);
    for i in 0..n {
        if a_in >> i & 1 == 1 {
            c.x(i);
        }
        if b_in >> i & 1 == 1 {
            c.x(n + i);
        }
    }
    ripple_adder_body(&mut c, n);
    c.measure_all();
    c
}

/// Applies an exact multi-controlled Z over `qubits` (phase -1 on the
/// all-ones subspace) using the parity-network decomposition: the product
/// `b_0 b_1 ... b_{k-1}` expands over subset parities, each realized with a
/// CX chain and a phase gate. Uses `2^k - 1` phase rotations — exact at any
/// size, practical for the small registers the comparison suites use.
///
/// # Panics
///
/// Panics if fewer than 1 or more than 16 qubits are given.
pub(crate) fn multi_controlled_z(c: &mut Circuit, qubits: &[usize]) {
    let k = qubits.len();
    assert!((1..=16).contains(&k), "1..=16 qubits");
    if k == 1 {
        c.z(qubits[0]);
        return;
    }
    if k == 2 {
        c.cz(qubits[0], qubits[1]);
        return;
    }
    let base = PI / (1u64 << (k - 1)) as f64;
    for subset in 1u32..(1 << k) {
        let members: Vec<usize> = (0..k)
            .filter(|&i| subset >> i & 1 == 1)
            .map(|i| qubits[i])
            .collect();
        let sign = if members.len() % 2 == 1 { 1.0 } else { -1.0 };
        let target = *members.last().expect("non-empty subset");
        for w in members.windows(2) {
            c.cx(w[0], w[1]);
        }
        c.p(sign * base, target);
        for w in members.windows(2).rev() {
            c.cx(w[0], w[1]);
        }
    }
}

/// Grover search with a single marked element on `n` data qubits and the
/// given number of oracle+diffusion iterations, built on the exact
/// [`multi_controlled_z`].
pub(crate) fn grover_circuit(n: usize, marked: u64, iterations: usize) -> Circuit {
    assert!((2..=12).contains(&n), "2..=12 qubits");
    let mut c = Circuit::new(n);
    let all: Vec<usize> = (0..n).collect();
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..iterations {
        // Oracle: flip phase of |marked>.
        for q in 0..n {
            if marked >> q & 1 == 0 {
                c.x(q);
            }
        }
        multi_controlled_z(&mut c, &all);
        for q in 0..n {
            if marked >> q & 1 == 0 {
                c.x(q);
            }
        }
        // Diffusion.
        for q in 0..n {
            c.h(q);
            c.x(q);
        }
        multi_controlled_z(&mut c, &all);
        for q in 0..n {
            c.x(q);
            c.h(q);
        }
    }
    c.measure_all();
    c
}

/// Grover search with a single marked element on `n` data qubits, one
/// iteration: phase oracle + diffusion, both built on the exact
/// [`multi_controlled_z`].
pub(crate) fn grover(n: usize, marked: u64) -> Circuit {
    grover_circuit(n, marked, 1)
}

// ---------------------------------------------------------------------------
// Comparison-suite circuits (Table I corpora only).
// ---------------------------------------------------------------------------

/// Quantum teleportation of one qubit (3 qubits, with mid-circuit
/// measurement + classically-controlled corrections modeled as controlled
/// gates, the deferred-measurement form).
pub(crate) fn teleportation() -> Circuit {
    let mut c = Circuit::new(3);
    c.ry(0.9, 0); // state to teleport
    c.h(1).cx(1, 2); // Bell pair
    c.cx(0, 1).h(0);
    // Deferred corrections.
    c.cx(1, 2);
    c.cz(0, 2);
    c.measure_all();
    c
}

/// A random hardware-efficient layered circuit (QAOA-like brickwork) used
/// by CBG2021-style synthetic entries.
pub(crate) fn brickwork(n: usize, layers: usize, seed: u64) -> Circuit {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    assert!(n >= 2, "need at least two qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            c.ry(rng.gen_range(-PI..PI), q);
            c.rz(rng.gen_range(-PI..PI), q);
        }
        let start = layer % 2;
        let mut i = start;
        while i + 1 < n {
            c.cz(i, i + 1);
            i += 2;
        }
    }
    c.measure_all();
    c
}

/// W-state preparation on `n` qubits (TriQ-style small application).
pub(crate) fn w_state(n: usize) -> Circuit {
    assert!(n >= 2, "need at least two qubits");
    let mut c = Circuit::new(n);
    // Cascade of controlled rotations distributing a single excitation.
    c.x(0);
    for k in 1..n {
        // Move amplitude sqrt((n-k)/(n-k+1)) of the remaining excitation
        // onto qubit k.
        let theta = 2.0 * (((n - k) as f64 / (n - k + 1) as f64).sqrt()).asin();
        // Controlled-Ry(theta) from k-1 to k, realized with ry/cx.
        c.ry(theta / 2.0, k);
        c.cx(k - 1, k);
        c.ry(-theta / 2.0, k);
        c.cx(k - 1, k);
        c.cx(k, k - 1);
    }
    c.measure_all();
    c
}

/// Quantum phase estimation of the eigenphase of `P(2 pi phase)` on the
/// `|1>` eigenstate, with `bits` counting qubits. The eigenstate qubit is
/// the last register position.
///
/// # Panics
///
/// Panics if `bits` is 0 or above 16.
pub(crate) fn phase_estimation(bits: usize, phase: f64) -> Circuit {
    assert!((1..=16).contains(&bits), "1..=16 counting qubits");
    let n = bits + 1;
    let target = bits;
    let mut c = Circuit::new(n);
    c.x(target); // eigenstate |1> of the phase gate
    for q in 0..bits {
        c.h(q);
    }
    // Controlled powers: counting qubit q applies P(2 pi phase * 2^q).
    for q in 0..bits {
        let angle = 2.0 * PI * phase * (1u64 << q) as f64;
        c.cp(angle, q, target);
    }
    // Inverse QFT on the counting register.
    for q in (0..bits).rev() {
        for later in (q + 1..bits).rev() {
            let k = (later - q) as i32;
            c.cp(-PI * 0.5f64.powi(k), later, q);
        }
        c.h(q);
    }
    for q in 0..bits {
        c.measure(q);
    }
    c
}

/// Deutsch–Jozsa on `n` data qubits with a balanced oracle defined by the
/// mask (`f(x) = parity(x & mask)`), or the constant-zero oracle when
/// `mask == 0`.
pub(crate) fn deutsch_jozsa(n: usize, mask: u64) -> Circuit {
    assert!((1..=60).contains(&n), "1..=60 data qubits");
    let mut c = Circuit::new(n + 1);
    c.x(n).h(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        if mask >> q & 1 == 1 {
            c.cx(q, n);
        }
    }
    for q in 0..n {
        c.h(q);
        c.measure(q);
    }
    c
}

/// Variational chemistry-style ansatz (PPL+2020 VQE-like entry).
pub(crate) fn uccsd_like(n: usize, seed: u64) -> Circuit {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    assert!(n >= 2, "need at least two qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.rx(rng.gen_range(-1.0..1.0), q);
    }
    // Pauli-evolution blocks: CX ladders with a middle RZ.
    for _ in 0..2 {
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.rz(rng.gen_range(-1.0..1.0), n - 1);
        for q in (0..n - 1).rev() {
            c.cx(q, q + 1);
        }
    }
    c.measure_all();
    c
}

// ---------------------------------------------------------------------------
// Scored benchmarks.
// ---------------------------------------------------------------------------

/// QFT on `|0...0>`, scored by the Hellinger fidelity of the measured
/// distribution against the ideal uniform distribution over all `2^n`
/// outcomes. The score iterates observed outcomes only (at most `shots`
/// of them), so it never materializes the exponential ideal distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QftBenchmark {
    n: usize,
}

impl QftBenchmark {
    /// Creates the benchmark for `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n < 1` or `n > 32` (probability resolution of the
    /// uniform reference).
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            (1..=32).contains(&n),
            "QFT benchmark supports 1..=32 qubits"
        );
        QftBenchmark { n }
    }
}

impl CircuitFamily for QftBenchmark {
    fn name(&self) -> String {
        format!("QFT-{}", self.n)
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn circuits(&self) -> Vec<Circuit> {
        let mut c = qft(self.n);
        c.measure_all();
        vec![c]
    }
}

impl ScoringStrategy for QftBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 1)?;
        // Hellinger fidelity vs uniform: (sum_k sqrt(p_k / 2^n))^2, where
        // unobserved outcomes contribute 0.
        let uniform = 1.0 / (1u64 << self.n) as f64;
        let mut bc = 0.0;
        for (_, p) in counts[0].to_probabilities() {
            bc += (p * uniform).sqrt();
        }
        clamp_score(bc * bc)
    }
}

/// Bernstein–Vazirani on `n` data qubits plus one phase ancilla, scored
/// by the probability of reading the hidden string off the data register
/// — deterministic in the ideal case, so verifiable at any width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BernsteinVaziraniBenchmark {
    n: usize,
    secret: u64,
}

impl BernsteinVaziraniBenchmark {
    /// Creates the benchmark with `n` data qubits and the given hidden
    /// string.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=63` or `secret` does not fit in `n`
    /// bits.
    pub(crate) fn new(n: usize, secret: u64) -> Self {
        assert!((1..=63).contains(&n), "1..=63 data qubits");
        assert!(secret >> n == 0, "secret must fit in {n} bits");
        BernsteinVaziraniBenchmark { n, secret }
    }
}

impl CircuitFamily for BernsteinVaziraniBenchmark {
    fn name(&self) -> String {
        format!("BV-{}", self.n)
    }

    fn num_qubits(&self) -> usize {
        self.n + 1
    }

    fn circuits(&self) -> Vec<Circuit> {
        vec![bernstein_vazirani(self.n, self.secret)]
    }
}

impl ScoringStrategy for BernsteinVaziraniBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 1)?;
        // Marginalize onto the data register (the ancilla is unmeasured
        // and ends in |->, so its bit is irrelevant to correctness).
        let data: Vec<usize> = (0..self.n).collect();
        clamp_score(counts[0].marginal(&data).probability(self.secret))
    }
}

/// Cuccaro ripple-carry addition of two classical `n`-bit inputs, scored
/// by the probability of the single correct readout: `a` restored,
/// `(a + b) mod 2^n` in the `b` register, carry back to 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RippleAdderBenchmark {
    n: usize,
    a: u64,
    b: u64,
}

impl RippleAdderBenchmark {
    /// Creates the benchmark adding `a + b` over `n`-bit registers
    /// (`2n + 1` qubits total).
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=31` or an input does not fit in `n`
    /// bits.
    pub(crate) fn new(n: usize, a: u64, b: u64) -> Self {
        assert!((1..=31).contains(&n), "1..=31 bits per register");
        assert!(a >> n == 0 && b >> n == 0, "inputs must fit in {n} bits");
        RippleAdderBenchmark { n, a, b }
    }

    /// The single ideal outcome over the full `2n + 1`-qubit register.
    pub(crate) fn ideal_outcome(&self) -> u64 {
        let sum = (self.a + self.b) & ((1u64 << self.n) - 1);
        self.a | (sum << self.n)
    }
}

impl CircuitFamily for RippleAdderBenchmark {
    fn name(&self) -> String {
        format!("Adder-{}b", self.n)
    }

    fn num_qubits(&self) -> usize {
        2 * self.n + 1
    }

    fn circuits(&self) -> Vec<Circuit> {
        vec![ripple_adder_with_inputs(self.n, self.a, self.b)]
    }
}

impl ScoringStrategy for RippleAdderBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 1)?;
        clamp_score(counts[0].probability(self.ideal_outcome()))
    }
}

/// Grover search with a single marked element, run for the optimal number
/// of iterations and scored by the measured success probability relative
/// to the ideal `sin^2((2r + 1) theta)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GroverBenchmark {
    n: usize,
    marked: u64,
}

impl GroverBenchmark {
    /// Creates the benchmark on `n` data qubits with the given marked
    /// element.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `2..=12` or `marked` does not fit in `n`
    /// bits.
    pub(crate) fn new(n: usize, marked: u64) -> Self {
        assert!((2..=12).contains(&n), "2..=12 qubits");
        assert!(marked >> n == 0, "marked element must fit in {n} bits");
        GroverBenchmark { n, marked }
    }

    /// `theta = asin(2^{-n/2})`, the rotation angle per Grover iteration.
    fn theta(&self) -> f64 {
        (1.0 / (1u64 << self.n) as f64).sqrt().asin()
    }

    /// The optimal iteration count `round(pi / (4 theta) - 1/2)`, at
    /// least 1.
    pub(crate) fn iterations(&self) -> usize {
        let r = (PI / (4.0 * self.theta()) - 0.5).round() as i64;
        r.max(1) as usize
    }

    /// The ideal success probability `sin^2((2r + 1) theta)` after
    /// [`GroverBenchmark::iterations`] iterations.
    pub(crate) fn ideal_success(&self) -> f64 {
        let angle = (2 * self.iterations() + 1) as f64 * self.theta();
        angle.sin().powi(2)
    }
}

impl CircuitFamily for GroverBenchmark {
    fn name(&self) -> String {
        format!("Grover-{}", self.n)
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn circuits(&self) -> Vec<Circuit> {
        vec![grover_circuit(self.n, self.marked, self.iterations())]
    }
}

impl ScoringStrategy for GroverBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 1)?;
        clamp_score(counts[0].probability(self.marked) / self.ideal_success())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_sim::{Executor, NoiseModel};

    #[test]
    fn qft_noiseless_score_is_high() {
        let b = QftBenchmark::new(4);
        let counts = Executor::noiseless().run(&b.circuits()[0], 4000, 3);
        let s = b.score(&[counts]).unwrap();
        assert!(s > 0.99, "score={s}");
    }

    #[test]
    fn qft_noise_decreases_score_direction() {
        // Depolarizing noise leaves the output near-uniform, so the QFT
        // score is noise-tolerant by construction; a readout-biased model
        // skews the distribution and must lower it.
        let b = QftBenchmark::new(3);
        let circuit = &b.circuits()[0];
        let clean = b
            .score(&[Executor::noiseless().run(circuit, 4000, 5)])
            .unwrap();
        let mut noise = NoiseModel::ideal();
        noise.t1 = 3.0;
        noise.durations.two_qubit = 2.0;
        let noisy = b
            .score(&[Executor::new(noise).run(circuit, 4000, 5)])
            .unwrap();
        assert!(clean > noisy, "clean={clean} noisy={noisy}");
    }

    #[test]
    fn bv_recovers_secret_noiselessly() {
        for secret in [0b000u64, 0b101, 0b111] {
            let b = BernsteinVaziraniBenchmark::new(3, secret);
            let counts = Executor::noiseless().run(&b.circuits()[0], 500, 1);
            let s = b.score(&[counts]).unwrap();
            assert!(s > 0.999, "secret={secret:03b} score={s}");
        }
    }

    #[test]
    fn bv_noise_lowers_score() {
        let b = BernsteinVaziraniBenchmark::new(4, 0b1011);
        let circuit = &b.circuits()[0];
        let clean = b
            .score(&[Executor::noiseless().run(circuit, 2000, 7)])
            .unwrap();
        let noisy = b
            .score(&[Executor::new(NoiseModel::uniform_depolarizing(0.05)).run(circuit, 2000, 7)])
            .unwrap();
        assert!(clean > noisy, "clean={clean} noisy={noisy}");
    }

    #[test]
    fn adder_computes_all_small_sums() {
        for a in 0..4u64 {
            for b_in in 0..4u64 {
                let b = RippleAdderBenchmark::new(2, a, b_in);
                let counts = Executor::noiseless().run(&b.circuits()[0], 100, 1);
                let s = b.score(&[counts]).unwrap();
                assert!(s > 0.999, "a={a} b={b_in} score={s}");
            }
        }
    }

    #[test]
    fn adder_ideal_outcome_layout() {
        // a=3, b=2, n=2: sum = 5 mod 4 = 1, so b register reads 01 and a
        // stays 11: bits = 0b01_11.
        let b = RippleAdderBenchmark::new(2, 3, 2);
        assert_eq!(b.ideal_outcome(), 0b0111);
    }

    #[test]
    fn grover_optimal_iterations_score_near_one() {
        for n in [2usize, 3, 4] {
            let b = GroverBenchmark::new(n, 1);
            let counts = Executor::noiseless().run(&b.circuits()[0], 4000, 9);
            let s = b.score(&[counts]).unwrap();
            assert!(s > 0.95, "n={n} score={s}");
        }
    }

    #[test]
    fn grover_iteration_count_grows_with_width() {
        // n=2 is the exact-search special case (1 iteration, P=1); by
        // n=8 the optimal count is ~ pi/4 sqrt(256) = 12.
        assert_eq!(GroverBenchmark::new(2, 0).iterations(), 1);
        assert!((GroverBenchmark::new(2, 0).ideal_success() - 1.0).abs() < 1e-12);
        assert_eq!(GroverBenchmark::new(8, 0).iterations(), 12);
        assert!(GroverBenchmark::new(8, 0).ideal_success() > 0.99);
    }

    #[test]
    fn generator_structures() {
        assert_eq!(qft(4).gate_count(), 4 + 6 + 2);
        assert_eq!(bernstein_vazirani(3, 0b101).num_qubits(), 4);
        assert_eq!(ripple_adder(2).num_qubits(), 5);
        // ripple_adder is the uninitialized (a=b=0) circuit plus prep.
        assert_eq!(
            ripple_adder(3).gate_count(),
            ripple_adder_with_inputs(3, 0, 0).gate_count()
        );
    }

    #[test]
    fn qft_structure_and_unitarity() {
        let c = qft(4);
        assert_eq!(c.num_qubits(), 4);
        // n H's + n(n-1)/2 controlled-phases + n/2 swaps.
        assert_eq!(c.gate_count(), 4 + 6 + 2);
        // QFT of |0000> is the uniform superposition.
        let psi = Executor::final_state(&c).expect("unitary circuit");
        for p in psi.probabilities() {
            assert!((p - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn qft_maps_basis_state_to_fourier_phases() {
        // QFT|1> on 2 qubits: amplitudes (1, i, -1, -i)/2 for input |01>...
        // verify via probability flatness + inverse round trip.
        let c = qft(3);
        let adj = c.adjoint().unwrap();
        let mut full = Circuit::new(3);
        full.x(0);
        full.extend_from(&c);
        full.extend_from(&adj);
        let psi = Executor::final_state(&full).expect("unitary circuit");
        assert!((psi.probability(0b001) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bernstein_vazirani_recovers_secret() {
        for secret in [0b101u64, 0b110, 0b011, 0b000] {
            let c = bernstein_vazirani(3, secret);
            let counts = Executor::noiseless().run(&c, 200, 1);
            // Data qubits (bits 0..3) must read the secret deterministically.
            for (bits, _) in counts.iter() {
                assert_eq!(bits & 0b111, secret, "secret={secret:03b} bits={bits:04b}");
            }
        }
    }

    #[test]
    fn multi_controlled_z_flips_only_all_ones() {
        for n in [2usize, 3, 4, 5] {
            let mut plus = Circuit::new(n);
            for q in 0..n {
                plus.h(q);
            }
            let before = Executor::final_state(&plus).expect("unitary circuit");
            let qubits: Vec<usize> = (0..n).collect();
            multi_controlled_z(&mut plus, &qubits);
            let after = Executor::final_state(&plus).expect("unitary circuit");
            let dim = 1usize << n;
            for i in 0..dim {
                let a = before.amplitudes()[i];
                let b = after.amplitudes()[i];
                if i == dim - 1 {
                    assert!((a + b).norm() < 1e-9, "n={n} i={i}: expected sign flip");
                } else {
                    assert!((a - b).norm() < 1e-9, "n={n} i={i}: expected unchanged");
                }
            }
        }
    }

    #[test]
    fn grover_amplifies_marked_element() {
        let n = 3;
        let marked = 0b101;
        let c = grover(n, marked);
        let counts = Executor::noiseless().run(&c, 4000, 5);
        let p_marked = counts.probability(marked);
        // One Grover iteration on 8 elements: ~78% success.
        assert!(p_marked > 0.5, "p={p_marked}");
    }

    #[test]
    fn teleportation_transfers_state() {
        // Compare qubit-2 marginal against direct preparation.
        let c = teleportation();
        let counts = Executor::noiseless().run(&c, 20000, 9).marginal(&[2]);
        let p1 = counts.probability(1);
        let expected = (0.45f64).sin().powi(2); // Ry(0.9) on |0>
        assert!((p1 - expected).abs() < 0.02, "p1={p1} expected={expected}");
    }

    #[test]
    fn w_state_has_single_excitation() {
        let n = 4;
        let c = w_state(n);
        let counts = Executor::noiseless().run(&c, 8000, 13);
        for (bits, count) in counts.iter() {
            assert_eq!(bits.count_ones(), 1, "bits={bits:04b} x{count}");
        }
        // Roughly uniform over the n one-hot outcomes.
        for q in 0..n {
            let p = counts.probability(1 << q);
            assert!((p - 1.0 / n as f64).abs() < 0.05, "q={q} p={p}");
        }
    }

    #[test]
    fn phase_estimation_recovers_dyadic_phase() {
        // phase = 3/8 is exactly representable with 3 counting bits: the
        // counting register must read 3 (big-endian weight 2^q per qubit q
        // in our convention: estimate = sum bits_q 2^q / 2^bits... verify
        // the dominant outcome decodes back to 3/8).
        let bits = 3;
        let c = phase_estimation(bits, 3.0 / 8.0);
        let counts = Executor::noiseless().run(&c, 2000, 3);
        let (top, _) = counts.most_common().unwrap();
        // Decode: counting qubit q carries weight 2^q; estimate = top / 2^bits
        // after bit-reversal of the inverse-QFT output ordering.
        let estimate = (top & 0b111) as f64 / 8.0;
        let alt = {
            // bit-reversed reading
            let mut v = 0u64;
            for q in 0..bits {
                if top >> q & 1 == 1 {
                    v |= 1 << (bits - 1 - q);
                }
            }
            v as f64 / 8.0
        };
        assert!(
            (estimate - 0.375).abs() < 1e-9 || (alt - 0.375).abs() < 1e-9,
            "top={top:03b} estimate={estimate} alt={alt}"
        );
        // The dominant outcome should be (near-)deterministic.
        assert!(counts.probability(top) > 0.9);
    }

    #[test]
    fn deutsch_jozsa_separates_constant_from_balanced() {
        // Constant oracle: all-zero data register, always.
        let c = deutsch_jozsa(4, 0);
        let counts = Executor::noiseless().run(&c, 500, 5);
        assert_eq!(counts.count(0), 500);
        // Balanced oracle: all-zero outcome never appears.
        let b = deutsch_jozsa(4, 0b1011);
        let counts = Executor::noiseless().run(&b, 500, 5);
        assert_eq!(counts.count(0), 0);
    }

    #[test]
    fn ripple_adder_is_well_formed() {
        let c = ripple_adder(2);
        assert_eq!(c.num_qubits(), 5);
        assert!(c.two_qubit_gate_count() > 10);
        assert_eq!(c.measurement_count(), 5);
    }

    #[test]
    fn brickwork_and_uccsd_are_deterministic_per_seed() {
        assert_eq!(brickwork(4, 3, 7), brickwork(4, 3, 7));
        assert_ne!(brickwork(4, 3, 7), brickwork(4, 3, 8));
        assert_eq!(uccsd_like(4, 1), uccsd_like(4, 1));
    }
}
