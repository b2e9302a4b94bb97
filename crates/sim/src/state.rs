//! Exact statevector representation and gate application.
//!
//! Gate kernels are written as *range kernels* over a flat task space
//! (pair indices for one-qubit gates, 4-tuple indices for two-qubit
//! gates): `chunk::run_chunked` splits the task space across the
//! thread pool for large states and runs inline otherwise, and the inner
//! loops go through the `simd` lanes. Amplitudes are
//! bit-identical at every thread count — see `chunk.rs` for the contract.

use crate::chunk::{self, SharedAmps};
use crate::pool;
use crate::simd;
use rand::Rng;
use std::ops::Range;
use supermarq_circuit::{Gate, Instruction, C64};
use supermarq_pauli::{PauliString, PauliSum};

/// Maximum register size the simulator accepts (memory guard: a 26-qubit
/// state is already 1 GiB of amplitudes).
pub const MAX_QUBITS: usize = 26;

/// Numerically-zero threshold for *squared* norms: a state (or measurement
/// branch) whose `norm_sqr()` is at or below this — i.e. whose norm is at
/// or below `1e-12` — cannot be renormalized. `StateVector::renormalize`
/// panics below it; `StateVector::project_qubit` and the trajectory
/// noise channels in `crate::noise` rely on that to reject
/// zero-probability branches (their branch selection draws against the
/// *pre-collapse* probability, so a surviving branch always has weight
/// well above this threshold).
pub const MIN_NORM_SQR: f64 = 1e-24;

/// An exact `2^n`-amplitude quantum state.
///
/// Qubit `q` corresponds to bit `q` of the amplitude index (little-endian:
/// qubit 0 is the least-significant bit).
///
/// # Example
///
/// ```
/// use supermarq_sim::StateVector;
/// use supermarq_circuit::Gate;
///
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_gate(&Gate::H, &[0]);
/// psi.apply_gate(&Gate::Cx, &[0, 1]);
/// assert!((psi.probability(0b00) - 0.5).abs() < 1e-12);
/// assert!((psi.probability(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The computational-basis state `|00...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > MAX_QUBITS`.
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= MAX_QUBITS,
            "register too large: {num_qubits} > {MAX_QUBITS}"
        );
        let len = 1usize << num_qubits;
        let mut amps = pool::take(len);
        amps.resize(len, C64::ZERO);
        amps[0] = C64::ONE;
        StateVector { num_qubits, amps }
    }

    /// The computational-basis state `|bits>` (bit `q` of `bits` = qubit `q`).
    pub fn basis_state(num_qubits: usize, bits: u64) -> Self {
        assert!(num_qubits <= MAX_QUBITS, "register too large");
        assert!(
            num_qubits == 64 || bits < (1u64 << num_qubits),
            "basis index out of range"
        );
        let len = 1usize << num_qubits;
        let mut amps = pool::take(len);
        amps.resize(len, C64::ZERO);
        amps[bits as usize] = C64::ONE;
        StateVector { num_qubits, amps }
    }

    /// Builds a state from raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the norm differs from 1
    /// by more than `1e-6`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(
            len.is_power_of_two() && len > 0,
            "amplitude count must be a power of two"
        );
        let num_qubits = len.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-6,
            "state is not normalized (norm^2 = {norm})"
        );
        StateVector { num_qubits, amps }
    }

    /// Number of qubits.
    pub(crate) fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude vector.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Probability of observing basis state `bits` on full measurement.
    pub fn probability(&self, bits: u64) -> f64 {
        self.amps[bits as usize].norm_sqr()
    }

    /// `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch.
    pub fn inner_product(&self, other: &StateVector) -> C64 {
        assert_eq!(self.num_qubits, other.num_qubits, "size mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|<self|other>|^2`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Squared norm (should be 1 up to numerical error).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Renormalizes the state to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is numerically zero, i.e. its squared norm is
    /// at or below [`MIN_NORM_SQR`] (norm `<= 1e-12`). The threshold is
    /// compared in squared-norm space to avoid disagreeing with callers —
    /// the noise channels in `crate::noise` reason about branch weights as
    /// probabilities (squared norms), never plain norms.
    pub(crate) fn renormalize(&mut self) {
        let n2 = self.norm_sqr();
        self.scale_to_unit(n2);
    }

    /// Divides every amplitude by `sqrt(n2)`, the state's squared norm
    /// as [`StateVector::norm_sqr`] sums it; panics at or below
    /// [`MIN_NORM_SQR`] like [`StateVector::renormalize`].
    fn scale_to_unit(&mut self, n2: f64) {
        assert!(
            n2 > MIN_NORM_SQR,
            "cannot renormalize numerically-zero state (norm^2 = {n2:e})"
        );
        let inv = 1.0 / n2.sqrt();
        for a in &mut self.amps {
            *a = a.scale(inv);
        }
    }

    /// The no-jump branch of amplitude damping on `qubit`: applies
    /// `K0 = diag(1, sqrt(1 - gamma))` and renormalizes, in one pass that
    /// scales the `|1>` half while summing the squared norm in index
    /// order and one pass that rescales. Every amplitude equals what
    /// `apply_matrix1(K0)` followed by `renormalize` gives, value for
    /// value; only an exact zero may come out with the other sign, and
    /// no probability reads that sign.
    pub(crate) fn damp_no_jump(&mut self, qubit: usize, gamma: f64) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let s = (1.0 - gamma).sqrt();
        let stride = 1usize << qubit;
        let mut n2 = 0.0;
        for block in self.amps.chunks_exact_mut(stride << 1) {
            let (zero, one) = block.split_at_mut(stride);
            for a in zero.iter() {
                n2 += a.norm_sqr();
            }
            for a in one {
                *a = a.scale(s);
                n2 += a.norm_sqr();
            }
        }
        self.scale_to_unit(n2);
    }

    /// Applies a 2x2 unitary to `qubit` (chunked + SIMD dense kernel).
    pub fn apply_matrix1(&mut self, m: &[[C64; 2]; 2], qubit: usize) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let stride = 1usize << qubit;
        let pairs = self.amps.len() / 2;
        let amps = SharedAmps::new(&mut self.amps);
        if stride == 1 {
            // Qubit 0: every pair is adjacent in memory, so a task range is
            // one contiguous block — walk it directly instead of degrading
            // to length-1 runs.
            chunk::run_chunked(pairs, |tasks| {
                // SAFETY: pair task p owns amplitudes (2p, 2p + 1); disjoint
                // task ranges own disjoint blocks.
                unsafe { simd::matrix1_adjacent(amps.at(2 * tasks.start), tasks.len(), m) };
            });
        } else {
            chunk::run_chunked(pairs, |tasks| matrix1_range(&amps, m, stride, tasks));
        }
    }

    /// Applies a 4x4 unitary to the ordered pair `(q0, q1)`; the matrix uses
    /// basis order `|q0 q1>` with `q0` as the most-significant bit, matching
    /// [`Gate::matrix2`].
    ///
    /// Enumerates the `2^(n-2)` tuple bases directly with the same
    /// two-level stride walk the specialized kernels use (the original
    /// kernel scanned all `2^n` indices and skipped three quarters of
    /// them — O(4·2^n) branchy work per gate). Exact-zero matrix entries
    /// are masked out of the row accumulation once up front
    /// (`simd::nonzero_mask4`), so sparse gate matrices — CX touches 4
    /// of 16 entries — pay only for their nonzero structure; the mask is
    /// fixed per gate, keeping amplitudes bit-identical at any chunking.
    pub fn apply_matrix2(&mut self, m: &[[C64; 4]; 4], q0: usize, q1: usize) {
        assert!(
            q0 < self.num_qubits && q1 < self.num_qubits && q0 != q1,
            "bad qubit pair"
        );
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let (lo, hi) = if b0 < b1 { (b0, b1) } else { (b1, b0) };
        let mask = simd::nonzero_mask4(m);
        let tuples = self.amps.len() / 4;
        let amps = SharedAmps::new(&mut self.amps);
        chunk::run_chunked(tuples, |tasks| {
            matrix2_range(&amps, m, mask, [b0, b1], [lo, hi], tasks);
        });
    }

    /// Applies a unitary gate to the given operands.
    ///
    /// Diagonal gates (Z/S/T/Rz/P/Cz/Cp/Rzz) dispatch to in-place phase
    /// multiplies, X/CX/SWAP to index permutations; everything else falls
    /// back to the general dense [`StateVector::apply_matrix1`] /
    /// [`StateVector::apply_matrix2`] kernels. All callers (the executor,
    /// the density-matrix reference, verification audits, Clifford
    /// cross-checks) route through here and share the specialized paths.
    ///
    /// # Panics
    ///
    /// Panics if the gate is not unitary (use measurement/reset methods for
    /// those) or the operand count mismatches.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        self.apply_kernel(&Kernel::of(gate, qubits));
    }

    /// Applies a prepared [`Kernel`]: for a gate resolved by
    /// [`Kernel::of`], the same kernel with the same constants as
    /// [`StateVector::apply_gate`], so the same amplitudes.
    pub(crate) fn apply_kernel(&mut self, kernel: &Kernel) {
        match *kernel {
            Kernel::Identity(q) => assert!(q < self.num_qubits, "qubit out of range"),
            Kernel::X(q) => self.apply_x(q),
            Kernel::Phase(q, phase) => self.apply_phase1(q, phase),
            Kernel::Diagonal(q, d0, d1) => self.apply_diagonal1(q, d0, d1),
            Kernel::Cx(c, t) => self.apply_cx(c, t),
            Kernel::ControlledPhase(a, b, phase) => self.apply_controlled_phase(a, b, phase),
            Kernel::Swap(a, b) => self.apply_swap(a, b),
            Kernel::Rzz(a, b, even, odd) => self.apply_rzz(a, b, even, odd),
            Kernel::Matrix1(q, ref m) => self.apply_matrix1(m, q),
            Kernel::Matrix2(a, b, ref m) => self.apply_matrix2(m, a, b),
            Kernel::Permutation(ref cols, offset) => self.permute_amps(cols, offset),
        }
    }

    /// Pauli-X as an index permutation: swaps each `|...0_q...>` amplitude
    /// with its `|...1_q...>` partner, no arithmetic.
    fn apply_x(&mut self, qubit: usize) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let stride = 1usize << qubit;
        let pairs = self.amps.len() / 2;
        let amps = SharedAmps::new(&mut self.amps);
        chunk::run_chunked(pairs, |tasks| {
            for_pair_runs(stride, tasks, |i0, run| {
                // SAFETY: disjoint pair tasks, and the two swapped runs are
                // `stride >= run` apart, so they never overlap.
                unsafe { simd::swap_run(amps.at(i0), amps.at(i0 + stride), run) };
            });
        });
    }

    /// Diagonal one-qubit gate `diag(d0, d1)` as in-place multiplies.
    fn apply_diagonal1(&mut self, qubit: usize, d0: C64, d1: C64) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let stride = 1usize << qubit;
        let pairs = self.amps.len() / 2;
        let amps = SharedAmps::new(&mut self.amps);
        if stride == 1 {
            chunk::run_chunked(pairs, |tasks| {
                // SAFETY: pair task p owns amplitudes (2p, 2p + 1); disjoint
                // task ranges own disjoint blocks.
                unsafe { simd::diagonal_adjacent(amps.at(2 * tasks.start), tasks.len(), d0, d1) };
            });
        } else {
            chunk::run_chunked(pairs, |tasks| {
                for_pair_runs(stride, tasks, |i0, run| {
                    // SAFETY: disjoint pair tasks touch disjoint index pairs.
                    unsafe {
                        simd::cmul_run(amps.at(i0), run, d0);
                        simd::cmul_run(amps.at(i0 + stride), run, d1);
                    }
                });
            });
        }
    }

    /// Phase gate `diag(1, phase)`: touches only the `|1>` half of the
    /// register (Z/S/T/P all land here).
    fn apply_phase1(&mut self, qubit: usize, phase: C64) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let stride = 1usize << qubit;
        let pairs = self.amps.len() / 2;
        let amps = SharedAmps::new(&mut self.amps);
        if stride == 1 {
            // Qubit 0: the |1> amplitudes sit at every odd index, so the
            // strided walk degrades to length-1 runs. The adjacent diagonal
            // kernel streams the whole block instead; multiplying the |0>
            // half by exact 1.0 costs nothing at this memory-bound size.
            chunk::run_chunked(pairs, |tasks| {
                // SAFETY: pair task p owns amplitudes (2p, 2p + 1); disjoint
                // task ranges own disjoint blocks.
                unsafe {
                    simd::diagonal_adjacent(amps.at(2 * tasks.start), tasks.len(), C64::ONE, phase);
                }
            });
        } else {
            chunk::run_chunked(pairs, |tasks| {
                for_pair_runs(stride, tasks, |i0, run| {
                    // SAFETY: disjoint pair tasks; only the |1> member is written.
                    unsafe { simd::cmul_run(amps.at(i0 + stride), run, phase) };
                });
            });
        }
    }

    /// CNOT as an index permutation: for every index with the control set,
    /// swaps the target's `0`/`1` amplitudes.
    fn apply_cx(&mut self, control: usize, target: usize) {
        self.assert_pair(control, target);
        let bc = 1usize << control;
        let bt = 1usize << target;
        let (lo, hi) = if bc < bt { (bc, bt) } else { (bt, bc) };
        let tuples = self.amps.len() / 4;
        let amps = SharedAmps::new(&mut self.amps);
        if bc == 1 && bt == 2 {
            // CX(0, 1): each 4-tuple is one contiguous 4-amplitude group
            // (swap elements 1 and 3), so a task range is one block.
            chunk::run_chunked(tuples, |tasks| {
                // SAFETY: tuple t owns amplitudes 4t..4t+4; disjoint task
                // ranges own disjoint blocks.
                unsafe { simd::swap_odd_adjacent(amps.at(4 * tasks.start), tasks.len()) };
            });
        } else if bc == 1 {
            // Control = qubit 0, target higher: the generic walk degrades
            // to length-1 runs (one swap per tuple). Here the swapped
            // elements are the odd-indexed amplitudes of the two contiguous
            // `bt`-long halves of each `2*bt` block, which the odd-lane
            // swap kernel streams whole. `bt/2` tuples per half-block.
            let shift = (bt / 2).trailing_zeros();
            let mask = bt / 2 - 1;
            chunk::run_chunked(tuples, |tasks| {
                let mut t = tasks.start;
                while t < tasks.end {
                    let u = t & mask;
                    let cnt = (bt / 2 - u).min(tasks.end - t);
                    let a0 = ((t >> shift) << (shift + 2)) | (2 * u);
                    // SAFETY: tuple t owns the odd pair (a0 + 2k + 1,
                    // a0 + bt + 2k + 1); disjoint task ranges cover
                    // disjoint tuples, and the two blocks are `bt` apart.
                    unsafe { simd::swap_odd_between(amps.at(a0), amps.at(a0 + bt), 2 * cnt) };
                    t += cnt;
                }
            });
        } else {
            chunk::run_chunked(tuples, |tasks| {
                for_tuple_runs(lo, hi, tasks, |base, run| {
                    // SAFETY: disjoint tuple tasks; the swapped runs are
                    // `bt >= lo >= run` apart, so they never overlap.
                    unsafe { simd::swap_run(amps.at(base | bc), amps.at(base | bc | bt), run) };
                });
            });
        }
    }

    /// SWAP as an index permutation: exchanges the `|01>` and `|10>`
    /// amplitudes of every 4-tuple.
    fn apply_swap(&mut self, a: usize, b: usize) {
        self.assert_pair(a, b);
        let ba = 1usize << a;
        let bb = 1usize << b;
        let (lo, hi) = if ba < bb { (ba, bb) } else { (bb, ba) };
        let tuples = self.amps.len() / 4;
        let amps = SharedAmps::new(&mut self.amps);
        chunk::run_chunked(tuples, |tasks| {
            for_tuple_runs(lo, hi, tasks, |base, run| {
                // SAFETY: disjoint tuple tasks; the swapped runs are
                // `hi - lo >= lo >= run` apart, so they never overlap.
                unsafe { simd::swap_run(amps.at(base | ba), amps.at(base | bb), run) };
            });
        });
    }

    /// Controlled phase `diag(1, 1, 1, phase)`: multiplies only the `|11>`
    /// amplitudes (CZ and CP land here).
    fn apply_controlled_phase(&mut self, a: usize, b: usize, phase: C64) {
        self.assert_pair(a, b);
        let both = (1usize << a) | (1usize << b);
        let (lo, hi) = sorted_strides(a, b);
        let tuples = self.amps.len() / 4;
        let amps = SharedAmps::new(&mut self.amps);
        chunk::run_chunked(tuples, |tasks| {
            for_tuple_runs(lo, hi, tasks, |base, run| {
                // SAFETY: disjoint tuple tasks; only the |11> member is written.
                unsafe { simd::cmul_run(amps.at(base | both), run, phase) };
            });
        });
    }

    /// `Rzz(theta)` as a parity-conditioned phase multiply:
    /// `even = e^{-i theta/2}` on even-parity (`|00>`, `|11>`) amplitudes
    /// and `odd = e^{+i theta/2}` on odd-parity ones.
    fn apply_rzz(&mut self, a: usize, b: usize, even: C64, odd: C64) {
        self.assert_pair(a, b);
        let (lo, hi) = sorted_strides(a, b);
        let tuples = self.amps.len() / 4;
        let amps = SharedAmps::new(&mut self.amps);
        chunk::run_chunked(tuples, |tasks| {
            for_tuple_runs(lo, hi, tasks, |base, run| {
                // SAFETY: disjoint tuple tasks; all four tuple members are
                // written exactly once.
                unsafe {
                    simd::cmul_run(amps.at(base), run, even);
                    simd::cmul_run(amps.at(base | lo), run, odd);
                    simd::cmul_run(amps.at(base | hi), run, odd);
                    simd::cmul_run(amps.at(base | lo | hi), run, even);
                }
            });
        });
    }

    /// Applies the affine GF(2) index permutation `i -> (xor of cols[k]
    /// for each set bit k of i) xor offset` in one out-of-place pass: a
    /// [`Kernel::Permutation`], which `crate::fusion` composes from
    /// X/CX/SWAP index maps, so the map is a bijection.
    ///
    /// The pass walks the *output* sequentially and gathers through the
    /// inverse map (`out[j] = amps[inv(j)]`): scattered reads beat
    /// scattered writes (no read-for-ownership traffic), and for ladder
    /// circuits like a GHZ CX chain the inverse is the Gray code, whose
    /// consecutive reads differ by one mostly-low bit — near-sequential
    /// locality.
    ///
    /// Bit-exact at any thread count: amplitudes move, nothing is
    /// recomputed, and the source of each output index is
    /// partition-independent.
    fn permute_amps(&mut self, cols: &[u64], offset: u64) {
        assert_eq!(cols.len(), self.num_qubits, "column count mismatch");
        let len = self.amps.len();
        let (icols, ioffset) = invert_affine(cols, offset);
        // Table of inverse-map images over the low `b` bits of the output
        // index; the high bits are folded once per task, so the inner loop
        // is one table lookup + xor per amplitude.
        let b = self.num_qubits.min(8);
        let low_size = 1usize << b;
        let mut low = vec![0u64; low_size];
        for l in 1..low_size {
            low[l] = low[l & (l - 1)] ^ icols[l.trailing_zeros() as usize];
        }
        let mut out: Vec<C64> = pool::take(len);
        // SAFETY: the capacity-`len` buffer is fully written below (every
        // output index `j` exactly once), then set_len marks it
        // initialized.
        let out_shared = unsafe { SharedAmps::from_raw(out.as_mut_ptr(), len) };
        let in_shared = SharedAmps::new(&mut self.amps);
        chunk::run_chunked(len >> b, |tasks| {
            for h in tasks {
                let j_hi = h << b;
                let mut i_hi = ioffset;
                let mut bits = j_hi as u64;
                while bits != 0 {
                    i_hi ^= icols[bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                }
                for (l, &low_l) in low.iter().enumerate() {
                    // SAFETY: writes are disjoint per task (contiguous
                    // output ranges); reads only alias other tasks' reads.
                    unsafe {
                        *out_shared.at(j_hi | l) = *in_shared.at((i_hi ^ low_l) as usize);
                    }
                }
            }
        });
        // SAFETY: every index of `out` was initialized above.
        unsafe { out.set_len(len) };
        pool::recycle(std::mem::replace(&mut self.amps, out));
    }

    fn assert_pair(&self, a: usize, b: usize) {
        assert!(
            a < self.num_qubits && b < self.num_qubits && a != b,
            "bad qubit pair"
        );
    }

    /// Applies a unitary instruction.
    pub fn apply_instruction(&mut self, instr: &Instruction) {
        self.apply_gate(&instr.gate, &instr.qubits);
    }

    /// Probability that measuring `qubit` yields 1.
    pub fn probability_of_one(&self, qubit: usize) -> f64 {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let stride = 1usize << qubit;
        let len = self.amps.len();
        let mut p = 0.0;
        let mut base = stride;
        while base < len {
            for a in &self.amps[base..base + stride] {
                p += a.norm_sqr();
            }
            base += stride << 1;
        }
        p
    }

    /// Projectively measures `qubit`, collapsing the state, and returns the
    /// observed bit: the per-shot trajectory oracle's measurement.
    #[cfg(test)]
    pub(crate) fn measure_qubit<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> bool {
        let p1 = self.probability_of_one(qubit);
        let outcome = rng.gen::<f64>() < p1;
        self.project_qubit(qubit, outcome);
        outcome
    }

    /// Projects `qubit` onto `value` and renormalizes.
    ///
    /// # Panics
    ///
    /// Panics if the projection has zero probability.
    pub(crate) fn project_qubit(&mut self, qubit: usize, value: bool) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let stride = 1usize << qubit;
        let len = self.amps.len();
        // Zero the half that contradicts `value`, walking only those blocks.
        let mut base = if value { 0 } else { stride };
        while base < len {
            self.amps[base..base + stride].fill(C64::ZERO);
            base += stride << 1;
        }
        self.renormalize();
    }

    /// Resets `qubit` to `|0>`: measures it and applies X if the result was
    /// 1. The per-shot trajectory oracle's reset.
    #[cfg(test)]
    pub(crate) fn reset_qubit<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) {
        if self.measure_qubit(qubit, rng) {
            let m = Gate::X.matrix1().expect("X has a matrix");
            self.apply_matrix1(&m, qubit);
        }
    }

    /// Samples a full computational-basis measurement without collapsing the
    /// state by an O(2^n) linear scan: the reference [`CumulativeSampler`]
    /// is checked against.
    ///
    /// When float rounding leaves the cumulative probability just below the
    /// drawn uniform variate, the fallback is the last basis state with
    /// *nonzero* probability — never a physically impossible outcome.
    #[cfg(test)]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        let mut last_nonzero = 0u64;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p > 0.0 {
                last_nonzero = i as u64;
            }
            acc += p;
            if r < acc {
                return i as u64;
            }
        }
        last_nonzero
    }

    /// Expectation value `<self| P |self>` of a Pauli string (Y carries its
    /// usual `[[0,-i],[i,0]]` matrix). Always real for Hermitian `P`; the
    /// real part is returned. Read from the amplitudes in place, with no
    /// copy of the state.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch.
    pub fn expectation_pauli(&self, p: &PauliString) -> f64 {
        assert_eq!(p.num_qubits(), self.num_qubits, "size mismatch");
        self.masked_expectation(PauliMasks::of(p))
    }

    /// Expectation value of a weighted Pauli sum.
    pub fn expectation(&self, h: &PauliSum) -> f64 {
        self.expectation_prepared(&PreparedPauliSum::new(h))
    }

    /// Expectation value of the weighted Pauli sum `h` was prepared from,
    /// term by term in the sum's order; for evaluating one sum on many
    /// states.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch.
    pub fn expectation_prepared(&self, h: &PreparedPauliSum) -> f64 {
        assert_eq!(h.num_qubits, self.num_qubits, "size mismatch");
        h.terms
            .iter()
            .map(|&(c, masks)| c * self.masked_expectation(masks))
            .sum()
    }

    /// `<self| P |self>` for the string `masks` describes:
    /// `(P psi)_i = (-i)^y (-1)^{|i & z|} psi_{i ^ x}`. Each index adds
    /// the real part of `conj(psi_i) (P psi)_i` as the complex product
    /// forms it, in index order from zero, so the value equals `<psi|P psi>`
    /// with `P` applied site by site as one-qubit matrices, bit for bit
    /// wherever it is nonzero.
    fn masked_expectation(&self, PauliMasks { x, z, ys }: PauliMasks) -> f64 {
        let amps = &self.amps;
        let mut sum = 0.0;
        if z == 0 {
            // X sites only: no phase.
            for (i, a) in amps.iter().enumerate() {
                let b = amps[i ^ x];
                sum += a.re * b.re + a.im * b.im;
            }
            return sum;
        }
        for (i, a) in amps.iter().enumerate() {
            let b = amps[i ^ x];
            // (-i)^y = (-1)^(y/2) (-i)^(y%2), and -i b = (b.im, -b.re).
            let re = if ys % 2 == 0 {
                a.re * b.re + a.im * b.im
            } else {
                a.re * b.im - a.im * b.re
            };
            let odd = ((i & z).count_ones() + ys / 2) % 2 == 1;
            sum += if odd { -re } else { re };
        }
        sum
    }

    /// The full probability distribution over basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }
}

/// A Pauli string as [`StateVector`] reads it in place: the mask `x` of
/// its X and Y sites, the mask `z` of its Z and Y sites, and its number of
/// Ys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PauliMasks {
    pub(crate) x: usize,
    pub(crate) z: usize,
    pub(crate) ys: u32,
}

impl PauliMasks {
    fn of(p: &PauliString) -> Self {
        let mut masks = PauliMasks { x: 0, z: 0, ys: 0 };
        for (q, pauli) in p.paulis().iter().enumerate() {
            let (x, z) = pauli.xz_bits();
            masks.x |= usize::from(x) << q;
            masks.z |= usize::from(z) << q;
            masks.ys += u32::from(x && z);
        }
        masks
    }
}

/// A weighted Pauli sum prepared once for many expectation values
/// ([`StateVector::expectation_prepared`]): per term, in the sum's order,
/// its coefficient and the masks a state reads the string through, so no
/// evaluation walks the strings again.
#[derive(Debug, Clone)]
pub struct PreparedPauliSum {
    pub(crate) num_qubits: usize,
    pub(crate) terms: Vec<(f64, PauliMasks)>,
}

impl PreparedPauliSum {
    /// Prepares `h`.
    pub fn new(h: &PauliSum) -> Self {
        PreparedPauliSum {
            num_qubits: h.num_qubits(),
            terms: h.iter().map(|(c, p)| (c, PauliMasks::of(p))).collect(),
        }
    }
}

/// A unitary gate on its operands, resolved to the kernel
/// [`StateVector::apply_gate`] runs for it and that kernel's constants
/// (phases, dense matrices), so a gate applied many times computes them
/// once; or a run of gates `crate::fusion` fused into one kernel: a
/// one-qubit run as one [`Kernel::Matrix1`], an X/CX/SWAP run as one
/// [`Kernel::Permutation`].
#[derive(Debug)]
pub(crate) enum Kernel {
    Identity(usize),
    X(usize),
    Phase(usize, C64),
    Diagonal(usize, C64, C64),
    Cx(usize, usize),
    ControlledPhase(usize, usize, C64),
    Swap(usize, usize),
    Rzz(usize, usize, C64, C64),
    Matrix1(usize, [[C64; 2]; 2]),
    Matrix2(usize, usize, [[C64; 4]; 4]),
    /// The affine index map `i -> (xor of cols[k] for set bits k of i)
    /// xor offset` (see [`StateVector::permute_amps`]).
    Permutation(Vec<u64>, u64),
}

impl Kernel {
    /// Resolves `gate` on `qubits`.
    ///
    /// # Panics
    ///
    /// Panics if the gate is not unitary or the operand count mismatches.
    pub(crate) fn of(gate: &Gate, qubits: &[usize]) -> Kernel {
        use std::f64::consts::FRAC_PI_4;
        let one_operand = || {
            assert_eq!(qubits.len(), 1, "one-qubit gate takes one operand");
            qubits[0]
        };
        let two_operands = || {
            assert_eq!(qubits.len(), 2, "two-qubit gate takes two operands");
            (qubits[0], qubits[1])
        };
        match *gate {
            Gate::I => Kernel::Identity(one_operand()),
            Gate::X => Kernel::X(one_operand()),
            Gate::Z => Kernel::Phase(one_operand(), -C64::ONE),
            Gate::S => Kernel::Phase(one_operand(), C64::I),
            Gate::Sdg => Kernel::Phase(one_operand(), -C64::I),
            Gate::T => Kernel::Phase(one_operand(), C64::cis(FRAC_PI_4)),
            Gate::Tdg => Kernel::Phase(one_operand(), C64::cis(-FRAC_PI_4)),
            Gate::P(t) => Kernel::Phase(one_operand(), C64::cis(t)),
            Gate::Rz(t) => Kernel::Diagonal(one_operand(), C64::cis(-t / 2.0), C64::cis(t / 2.0)),
            Gate::Cx => {
                let (c, t) = two_operands();
                Kernel::Cx(c, t)
            }
            Gate::Cz => {
                let (a, b) = two_operands();
                Kernel::ControlledPhase(a, b, -C64::ONE)
            }
            Gate::Cp(t) => {
                let (a, b) = two_operands();
                Kernel::ControlledPhase(a, b, C64::cis(t))
            }
            Gate::Swap => {
                let (a, b) = two_operands();
                Kernel::Swap(a, b)
            }
            Gate::Rzz(t) => {
                let (a, b) = two_operands();
                Kernel::Rzz(a, b, C64::cis(-t / 2.0), C64::cis(t / 2.0))
            }
            _ => {
                if let Some(m) = gate.matrix1() {
                    Kernel::Matrix1(one_operand(), m)
                } else if let Some(m) = gate.matrix2() {
                    let (a, b) = two_operands();
                    Kernel::Matrix2(a, b, m)
                } else {
                    panic!("apply_gate called with non-unitary gate {gate:?}");
                }
            }
        }
    }
}

/// Retired amplitude buffers go back to the thread-local `pool` so the
/// next state (or permutation pass) reuses the allocation instead of
/// bouncing multi-megabyte blocks through the system allocator — see the
/// pool module docs for why that matters.
impl Drop for StateVector {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.amps));
    }
}

/// Inverts the affine GF(2) map `i -> A·i xor c` (`A` given as columns),
/// returning the inverse's columns and offset (`inv(j) = A⁻¹·j xor
/// A⁻¹·c`). Column-operation Gaussian elimination: the same elementary
/// column ops that reduce `A` to the identity, applied to the identity,
/// accumulate `A⁻¹`.
///
/// # Panics
///
/// Panics if the map is singular (cannot happen for compositions of
/// X/CX/SWAP index maps, which are invertible by construction).
fn invert_affine(cols: &[u64], offset: u64) -> (Vec<u64>, u64) {
    let n = cols.len();
    let mut m = cols.to_vec();
    let mut inv: Vec<u64> = (0..n).map(|k| 1u64 << k).collect();
    for p in 0..n {
        let pivot = (p..n)
            .find(|&k| (m[k] >> p) & 1 == 1)
            .expect("permutation map is singular");
        m.swap(p, pivot);
        inv.swap(p, pivot);
        for k in 0..n {
            if k != p && (m[k] >> p) & 1 == 1 {
                m[k] ^= m[p];
                inv[k] ^= inv[p];
            }
        }
    }
    let mut ioffset = 0u64;
    let mut bits = offset;
    while bits != 0 {
        ioffset ^= inv[bits.trailing_zeros() as usize];
        bits &= bits - 1;
    }
    (inv, ioffset)
}

/// Strides of qubits `a` and `b` sorted ascending.
#[inline(always)]
fn sorted_strides(a: usize, b: usize) -> (usize, usize) {
    let ba = 1usize << a;
    let bb = 1usize << b;
    if ba < bb {
        (ba, bb)
    } else {
        (bb, ba)
    }
}

// ---------------------------------------------------------------------------
// Range kernels.
//
// One-qubit gates act on `len/2` disjoint index pairs `(i0, i0 | stride)`;
// two-qubit gates on `len/4` disjoint 4-tuples. The kernels enumerate a
// *task space* — pair index `p in 0..len/2`, tuple index `t in 0..len/4` —
// and map tasks to amplitude indices by inserting zero bits at the operand
// strides. The mapping is monotone, so a contiguous task range covers
// contiguous index runs (maximal runs of `stride` tasks for 1q, `lo` tasks
// for 2q), which is what lets the inner loops use SIMD lanes and
// `swap_nonoverlapping` instead of per-element index arithmetic.
//
// Disjointness (the safety argument for every `SharedAmps` access): the
// task-to-index mapping is injective, each task reads and writes only its
// own pair/tuple, and `run_chunked` hands out non-overlapping task ranges.

/// Calls `f(i0, run)` for each maximal contiguous run of pair tasks in
/// `range`: `i0` is the first pair's low amplitude index (qubit bit clear),
/// the partner of `i0 + j` is `i0 + j + stride` for `j < run`.
#[inline(always)]
fn for_pair_runs(stride: usize, range: Range<usize>, mut f: impl FnMut(usize, usize)) {
    let mask = stride - 1;
    let mut p = range.start;
    while p < range.end {
        let offset = p & mask;
        let run = (stride - offset).min(range.end - p);
        let i0 = ((p & !mask) << 1) | offset;
        f(i0, run);
        p += run;
    }
}

/// Calls `f(base, run)` for each maximal contiguous run of 4-tuple tasks in
/// `range`, where `lo < hi` are the operand strides: `base` has both
/// operand bits clear, and the tuple of `base + j` (`j < run <= lo`) is
/// `{base+j, base+j|lo, base+j|hi, base+j|lo|hi}`.
#[inline(always)]
fn for_tuple_runs(lo: usize, hi: usize, range: Range<usize>, mut f: impl FnMut(usize, usize)) {
    let lo_mask = lo - 1;
    let hi_mask = hi - 1;
    let mut t = range.start;
    while t < range.end {
        let offset = t & lo_mask;
        let run = (lo - offset).min(range.end - t);
        let partial = ((t & !lo_mask) << 1) | offset;
        let base = ((partial & !hi_mask) << 1) | (partial & hi_mask);
        f(base, run);
        t += run;
    }
}

/// Dense one-qubit kernel over a pair-task range. The SIMD body and the
/// scalar tail compute the same operation tree (see `crate::simd`), so a
/// pair produces bit-identical amplitudes whichever path handles it.
fn matrix1_range(amps: &SharedAmps, m: &[[C64; 2]; 2], stride: usize, tasks: Range<usize>) {
    for_pair_runs(stride, tasks, |i0, run| {
        // SAFETY: disjoint pair tasks touch disjoint (i0, i0 + stride)
        // amplitude pairs; both runs stay in bounds.
        unsafe { simd::matrix1_run(amps.at(i0), amps.at(i0 + stride), run, m) };
    });
}

/// Dense two-qubit kernel over a tuple-task range. `bits = [b0, b1]` are
/// the operand strides in matrix basis order (`q0` = MSB, matching
/// [`Gate::matrix2`]); `sorted = [lo, hi]` are the same strides ascending.
fn matrix2_range(
    amps: &SharedAmps,
    m: &[[C64; 4]; 4],
    mask: [u8; 4],
    bits: [usize; 2],
    sorted: [usize; 2],
    tasks: Range<usize>,
) {
    let [b0, b1] = bits;
    let [lo, hi] = sorted;
    for_tuple_runs(lo, hi, tasks, |base, run| {
        // SAFETY: disjoint tuple tasks touch disjoint 4-tuples; all four
        // runs stay in bounds. Pointer order is the matrix basis order
        // (q0 = MSB).
        unsafe {
            let p = [
                amps.at(base),
                amps.at(base | b1),
                amps.at(base | b0),
                amps.at(base | b0 | b1),
            ];
            simd::matrix2_run(&p, run, m, &mask);
        }
    });
}

/// Precomputed cumulative-probability table for repeated basis-state
/// sampling from a fixed state: O(2^n) once, then O(n) binary search per
/// draw instead of an O(2^n) linear scan per shot.
///
/// Zero-probability outcomes occupy zero-width intervals in the table and
/// can never be drawn; when float rounding leaves the final cumulative sum
/// below the drawn variate, the fallback is the last basis state with
/// nonzero probability.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeSampler {
    /// `cumulative[i]` = probability of drawing a basis index `<= i`.
    cumulative: Vec<f64>,
    /// Largest basis index with nonzero probability (rounding fallback).
    last_nonzero: u64,
}

impl CumulativeSampler {
    /// Builds the table from a state's probability distribution.
    pub(crate) fn new(state: &StateVector) -> Self {
        let mut cumulative = Vec::with_capacity(state.amps.len());
        let mut acc = 0.0;
        let mut last_nonzero = 0u64;
        for (i, a) in state.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p > 0.0 {
                last_nonzero = i as u64;
            }
            acc += p;
            cumulative.push(acc);
        }
        CumulativeSampler {
            cumulative,
            last_nonzero,
        }
    }

    /// Draws one basis index by binary search over the cumulative table.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let r: f64 = rng.gen();
        // First index whose cumulative probability exceeds r; ties on a
        // zero-width interval are impossible because `cumulative` is flat
        // across zero-probability outcomes.
        let idx = self.cumulative.partition_point(|&c| c <= r);
        if idx < self.cumulative.len() {
            idx as u64
        } else {
            self.last_nonzero
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use supermarq_pauli::Pauli;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn zero_state_has_unit_amplitude_at_origin() {
        let psi = StateVector::zero_state(3);
        assert_eq!(psi.num_qubits(), 3);
        assert!((psi.probability(0) - 1.0).abs() < 1e-12);
        assert!((psi.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_gate_flips_bit() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::X, &[1]);
        assert!((psi.probability(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::H, &[0]);
        psi.apply_gate(&Gate::Cx, &[0, 1]);
        assert!((psi.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((psi.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(psi.probability(0b01) < 1e-12);
    }

    #[test]
    fn cx_respects_operand_order() {
        // Control = qubit 1, target = qubit 0.
        let mut psi = StateVector::basis_state(2, 0b10);
        psi.apply_gate(&Gate::Cx, &[1, 0]);
        assert!((psi.probability(0b11) - 1.0).abs() < 1e-12);
        // Control = qubit 0 in |0>: nothing happens.
        let mut psi = StateVector::basis_state(2, 0b10);
        psi.apply_gate(&Gate::Cx, &[0, 1]);
        assert!((psi.probability(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_bits() {
        let mut psi = StateVector::basis_state(3, 0b001);
        psi.apply_gate(&Gate::Swap, &[0, 2]);
        assert!((psi.probability(0b100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_state_on_five_qubits() {
        let n = 5;
        let mut psi = StateVector::zero_state(n);
        psi.apply_gate(&Gate::H, &[0]);
        for q in 0..n - 1 {
            psi.apply_gate(&Gate::Cx, &[q, q + 1]);
        }
        assert!((psi.probability(0) - 0.5).abs() < 1e-12);
        assert!((psi.probability((1 << n) - 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rz_phases_do_not_change_populations() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Gate::H, &[0]);
        let p_before = psi.probabilities();
        psi.apply_gate(&Gate::Rz(1.234), &[0]);
        let p_after = psi.probabilities();
        for (a, b) in p_before.iter().zip(&p_after) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn measurement_collapses_state() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::H, &[0]);
        psi.apply_gate(&Gate::Cx, &[0, 1]);
        let mut r = rng();
        let outcome = psi.measure_qubit(0, &mut r);
        // After measuring one half of a Bell pair the other is determined.
        let expected = if outcome { 0b11 } else { 0b00 };
        assert!((psi.probability(expected) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Gate::X, &[0]);
        let mut r = rng();
        psi.reset_qubit(0, &mut r);
        assert!((psi.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Gate::Ry(2.0 * (0.3f64.sqrt()).asin()), &[0]);
        // P(1) = 0.3.
        let mut r = rng();
        let shots = 20000;
        let ones: usize = (0..shots).filter(|_| psi.sample(&mut r) == 1).count();
        let freq = ones as f64 / shots as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn expectation_of_z_on_zero_is_one() {
        let psi = StateVector::zero_state(1);
        let z: PauliString = "Z".parse().unwrap();
        assert!((psi.expectation_pauli(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_mermin_on_ghz_i_state() {
        use supermarq_pauli::mermin_operator;
        // |phi> = (|000> + i|111>)/sqrt(2) should give <M> = 2^{n-1} = 4.
        let n = 3;
        let mut amps = vec![C64::ZERO; 8];
        amps[0] = C64::real(1.0 / 2f64.sqrt());
        amps[7] = C64::new(0.0, 1.0 / 2f64.sqrt());
        let psi = StateVector::from_amplitudes(amps);
        let m = mermin_operator(n);
        assert!((psi.expectation(&m) - 4.0).abs() < 1e-10);
    }

    #[test]
    fn tfim_expectation_on_all_plus_state() {
        use supermarq_pauli::tfim_hamiltonian;
        // |+++>: <ZZ> = 0, <X> = 1 per site, so <H> = -h_x * n.
        let n = 3;
        let mut psi = StateVector::zero_state(n);
        for q in 0..n {
            psi.apply_gate(&Gate::H, &[q]);
        }
        let h = tfim_hamiltonian(n, 1.0, 0.5);
        assert!((psi.expectation(&h) + 1.5).abs() < 1e-12);
    }

    /// `P|psi>` with `P` applied site by site as one-qubit matrices: the
    /// reference `expectation_pauli` is checked against.
    fn pauli_applied(psi: &StateVector, p: &PauliString) -> StateVector {
        let mut out = psi.clone();
        for (q, &pauli) in p.paulis().iter().enumerate() {
            let gate = match pauli {
                Pauli::I => continue,
                Pauli::X => Gate::X,
                Pauli::Y => Gate::Y,
                Pauli::Z => Gate::Z,
            };
            out.apply_matrix1(&gate.matrix1().unwrap(), q);
        }
        out
    }

    /// Bit for bit, up to the sign of an exact zero.
    fn assert_same_value(got: f64, want: f64, what: &str) {
        assert!(
            got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0),
            "{what}: {got:?} vs {want:?}"
        );
    }

    #[test]
    fn in_place_pauli_expectation_matches_applied_string() {
        use supermarq_pauli::{mermin_operator, tfim_hamiltonian};
        let mut ghz = StateVector::zero_state(4);
        ghz.apply_gate(&Gate::H, &[0]);
        ghz.apply_gate(&Gate::S, &[0]);
        for q in 0..3 {
            ghz.apply_gate(&Gate::Cx, &[q, q + 1]);
        }
        let states = (1..=5).map(scrambled_state_n).chain([
            scrambled_state(),
            ghz,
            StateVector::basis_state(3, 0b101),
        ]);
        for psi in states {
            let n = psi.num_qubits();
            for code in 0..1usize << (2 * n) {
                let p =
                    PauliString::new((0..n).map(|q| Pauli::ALL[(code >> (2 * q)) & 3]).collect());
                let want = psi.inner_product(&pauli_applied(&psi, &p)).re;
                assert_same_value(psi.expectation_pauli(&p), want, &format!("{p} on {n}"));
            }
            for h in [mermin_operator(n), tfim_hamiltonian(n, 0.7, 1.3)] {
                let want: f64 = h
                    .iter()
                    .map(|(c, p)| c * psi.inner_product(&pauli_applied(&psi, p)).re)
                    .sum();
                let what = format!("{h} on {n}");
                assert_same_value(psi.expectation(&h), want, &what);
                let prepared = PreparedPauliSum::new(&h);
                assert_same_value(psi.expectation_prepared(&prepared), want, &what);
            }
        }
    }

    #[test]
    fn inner_product_and_fidelity() {
        let a = StateVector::zero_state(2);
        let mut b = StateVector::zero_state(2);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        b.apply_gate(&Gate::X, &[0]);
        assert!(a.fidelity(&b) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not normalized")]
    fn from_amplitudes_rejects_unnormalized() {
        StateVector::from_amplitudes(vec![C64::ONE, C64::ONE]);
    }

    #[test]
    #[should_panic(expected = "register too large")]
    fn rejects_oversized_register() {
        StateVector::zero_state(MAX_QUBITS + 1);
    }

    /// An RNG pinned at its maximum output: `gen::<f64>()` yields the
    /// largest representable value below 1, forcing cumulative-sum
    /// fallback paths.
    struct MaxRng;

    impl rand::RngCore for MaxRng {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    /// Builds a state whose norm is just under 1 (within the constructor's
    /// tolerance) with all weight on the low indices, so a max-value draw
    /// overruns the cumulative sum.
    fn underweight_low_state() -> StateVector {
        let s = C64::real(0.4999997f64.sqrt());
        StateVector::from_amplitudes(vec![s, s, C64::ZERO, C64::ZERO])
    }

    #[test]
    fn sample_rounding_fallback_never_emits_zero_probability_outcome() {
        // Regression: the old fallback returned `amps.len() - 1` (here the
        // zero-amplitude |11>) when rounding left the cumulative sum below
        // the drawn variate; it must return the last *nonzero* outcome.
        let psi = underweight_low_state();
        let mut rng = MaxRng;
        assert_eq!(psi.sample(&mut rng), 1);
        let sampler = CumulativeSampler::new(&psi);
        assert_eq!(sampler.sample(&mut rng), 1);
    }

    #[test]
    fn cumulative_sampler_matches_linear_scan() {
        let mut psi = StateVector::zero_state(3);
        psi.apply_gate(&Gate::H, &[0]);
        psi.apply_gate(&Gate::Cx, &[0, 1]);
        psi.apply_gate(&Gate::Ry(0.7), &[2]);
        let sampler = CumulativeSampler::new(&psi);
        // Identical draws consume one variate each, so parallel streams
        // stay in lockstep.
        let mut ra = rng();
        let mut rb = rng();
        for _ in 0..2000 {
            assert_eq!(psi.sample(&mut ra), sampler.sample(&mut rb));
        }
    }

    /// A fixed non-trivial `n`-qubit state (distinct amplitude at every
    /// index) to pin amplitude-movement tests against.
    fn scrambled_state_n(n: usize) -> StateVector {
        let mut psi = StateVector::zero_state(n);
        for q in 0..n {
            psi.apply_gate(&Gate::H, &[q]);
            psi.apply_gate(&Gate::Ry(0.3 + 0.2 * q as f64), &[q]);
        }
        for q in 0..n - 1 {
            psi.apply_gate(&Gate::Cp(0.4 + 0.1 * q as f64), &[q, q + 1]);
        }
        psi
    }

    /// A fixed non-trivial 4-qubit state to exercise the kernels on.
    fn scrambled_state() -> StateVector {
        let mut psi = StateVector::zero_state(4);
        for q in 0..4 {
            psi.apply_matrix1(&Gate::H.matrix1().unwrap(), q);
            psi.apply_matrix1(&Gate::Ry(0.3 + q as f64).matrix1().unwrap(), q);
        }
        psi.apply_matrix2(&Gate::Cx.matrix2().unwrap(), 0, 2);
        psi.apply_matrix1(&Gate::Rz(1.1).matrix1().unwrap(), 3);
        psi
    }

    #[test]
    fn specialized_kernels_match_dense_matrix_path() {
        use Gate::*;
        let one_q: &[Gate] = &[X, Z, S, Sdg, T, Tdg, P(0.37), Rz(-1.9), I];
        for gate in one_q {
            for q in 0..4 {
                let mut fast = scrambled_state();
                fast.apply_gate(gate, &[q]);
                let mut dense = scrambled_state();
                dense.apply_matrix1(&gate.matrix1().unwrap(), q);
                assert!(fast.fidelity(&dense) > 1.0 - 1e-12, "{gate:?} on qubit {q}");
                // Phases matter too, not just populations.
                assert!(
                    fast.inner_product(&dense).re > 1.0 - 1e-12,
                    "{gate:?} on qubit {q} differs by phase"
                );
            }
        }
        let two_q: &[Gate] = &[Cx, Cz, Cp(0.9), Swap, Rzz(2.3)];
        for gate in two_q {
            for (a, b) in [(0, 1), (1, 0), (0, 3), (3, 1), (2, 3)] {
                let mut fast = scrambled_state();
                fast.apply_gate(gate, &[a, b]);
                let mut dense = scrambled_state();
                dense.apply_matrix2(&gate.matrix2().unwrap(), a, b);
                assert!(
                    fast.inner_product(&dense).re > 1.0 - 1e-12,
                    "{gate:?} on qubits ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn stride_probability_and_projection_match_definitions() {
        let psi = scrambled_state();
        for q in 0..4 {
            let bit = 1usize << q;
            let reference: f64 = psi
                .amplitudes()
                .iter()
                .enumerate()
                .filter(|(i, _)| i & bit != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            assert!((psi.probability_of_one(q) - reference).abs() < 1e-12);
            for value in [false, true] {
                let mut projected = psi.clone();
                projected.project_qubit(q, value);
                for (i, a) in projected.amplitudes().iter().enumerate() {
                    if ((i & bit) != 0) != value {
                        assert_eq!(a.norm_sqr(), 0.0, "qubit {q} value {value} index {i}");
                    }
                }
                assert!((projected.norm_sqr() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fused_no_jump_equals_k0_then_renormalize() {
        let mut with_zeros = scrambled_state_n(7);
        with_zeros.project_qubit(2, true);
        let states = [
            scrambled_state_n(7),
            with_zeros,
            StateVector::basis_state(7, 0b101),
        ];
        for psi in &states {
            for q in 0..7 {
                for gamma in [1e-9, 0.013, 0.5, 0.97] {
                    let mut fused = psi.clone();
                    fused.damp_no_jump(q, gamma);
                    let mut reference = psi.clone();
                    let s = C64::real((1.0 - gamma).sqrt());
                    reference.apply_matrix1(&[[C64::ONE, C64::ZERO], [C64::ZERO, s]], q);
                    reference.renormalize();
                    // Value for value: `==` holds between zeros of either sign.
                    for (a, b) in fused.amplitudes().iter().zip(reference.amplitudes()) {
                        assert!(
                            a.re == b.re && a.im == b.im,
                            "q {q} gamma {gamma}: {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_qubit_gate_on_noncontiguous_qubits() {
        // rzz on qubits (0, 2) of a 3-qubit register.
        let mut psi = StateVector::zero_state(3);
        for q in 0..3 {
            psi.apply_gate(&Gate::H, &[q]);
        }
        psi.apply_gate(&Gate::Rzz(std::f64::consts::PI), &[0, 2]);
        // <Z0 Z2> after rzz(pi) on |+++>: rzz(pi) = -i Z0 Z2 up to phase,
        // state populations unchanged.
        let p = psi.probabilities();
        for v in p {
            assert!((v - 0.125).abs() < 1e-12);
        }
        // But X expectation on qubit 1 unchanged = 1.
        let x1: PauliString = "IXI".parse().unwrap();
        assert!((psi.expectation_pauli(&x1) - 1.0).abs() < 1e-12);
        // Rzz(pi) = -i Z0 Z2 up to phase, so qubit 0 is now in |->: <X0> = -1.
        let x0: PauliString = "XII".parse().unwrap();
        assert!((psi.expectation_pauli(&x0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn renormalize_accepts_norm_just_above_threshold() {
        // norm = 2e-12 => norm^2 = 4e-24, above MIN_NORM_SQR = 1e-24: the
        // state is tiny but still renormalizable.
        let mut psi = StateVector {
            num_qubits: 0,
            amps: vec![C64::real(2e-12)],
        };
        psi.renormalize();
        assert!((psi.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot renormalize")]
    fn renormalize_rejects_norm_below_threshold() {
        // norm = 0.5e-12 => norm^2 = 2.5e-25, at/below MIN_NORM_SQR. The
        // old check compared the plain norm against 1e-12; the squared-norm
        // threshold must reject the same states (0.5e-12 < 1e-12).
        let mut psi = StateVector {
            num_qubits: 0,
            amps: vec![C64::real(0.5e-12)],
        };
        psi.renormalize();
    }

    /// The pre-refactor dense two-qubit kernel: scan all `2^n` indices and
    /// process the quarter with both operand bits clear, with the same
    /// `C64::ZERO`-seeded accumulation the range kernel uses.
    fn matrix2_full_scan(psi: &StateVector, m: &[[C64; 4]; 4], q0: usize, q1: usize) -> Vec<C64> {
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let mut amps = psi.amps.clone();
        for base in 0..amps.len() {
            if base & (b0 | b1) != 0 {
                continue;
            }
            let idx = [base, base | b1, base | b0, base | b0 | b1];
            let a = idx.map(|k| amps[k]);
            for (row, &k) in idx.iter().enumerate() {
                let mut v = C64::ZERO;
                for (&mc, &ac) in m[row].iter().zip(&a) {
                    v += mc * ac;
                }
                amps[k] = v;
            }
        }
        amps
    }

    #[test]
    fn dense_two_qubit_walk_matches_full_scan_bitwise() {
        // The tuple-base stride walk must reproduce the old full-scan
        // enumeration *bitwise* (satellite of the O(4*2^n) fix): same
        // tuples, same accumulation tree, only the iteration shape changed.
        for gate in [
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Rzz(0.83),
            Gate::Cp(-1.2),
        ] {
            let m = gate.matrix2().unwrap();
            for (q0, q1) in [(0, 1), (1, 0), (0, 3), (3, 1), (2, 3)] {
                let mut psi = scrambled_state();
                let expect = matrix2_full_scan(&psi, &m, q0, q1);
                psi.apply_matrix2(&m, q0, q1);
                for (i, (a, b)) in psi.amps.iter().zip(&expect).enumerate() {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "{gate:?} on ({q0}, {q1}): amplitude {i} is {a:?}, full scan got {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_bit_identical_when_forced_to_chunk() {
        // Drive every specialized kernel plus both dense kernels over an
        // 8-qubit state, serial vs forced-chunked under pools of 2/4/8
        // threads, and require bitwise-equal amplitudes — chunk boundaries
        // (and the SIMD/scalar-tail split they move) must not perturb a
        // single ULP.
        let evolve = |psi: &mut StateVector| {
            for q in 0..8 {
                psi.apply_gate(&Gate::H, &[q]);
            }
            psi.apply_gate(&Gate::Ry(0.37), &[3]);
            psi.apply_gate(&Gate::X, &[1]);
            psi.apply_gate(&Gate::S, &[6]);
            psi.apply_gate(&Gate::Rz(-1.1), &[0]);
            // Qubit-0 operands exercise the adjacent/odd-lane fast paths.
            psi.apply_gate(&Gate::S, &[0]);
            psi.apply_gate(&Gate::X, &[0]);
            psi.apply_gate(&Gate::Cx, &[0, 3]);
            psi.apply_gate(&Gate::Cx, &[0, 1]);
            psi.apply_gate(&Gate::Cx, &[2, 5]);
            psi.apply_gate(&Gate::Cz, &[7, 0]);
            psi.apply_gate(&Gate::Swap, &[4, 1]);
            psi.apply_gate(&Gate::Rzz(2.3), &[6, 3]);
            psi.apply_gate(&Gate::Cp(0.9), &[5, 7]);
            psi.apply_matrix2(&Gate::Cx.matrix2().unwrap(), 0, 4);
        };
        let mut serial = StateVector::zero_state(8);
        evolve(&mut serial);
        let _force_lock = chunk::FORCE_PARALLEL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = chunk::set_force_parallel(true);
        for threads in [2usize, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut chunked = StateVector::zero_state(8);
            pool.install(|| evolve(&mut chunked));
            for (i, (a, b)) in serial.amps.iter().zip(&chunked.amps).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "amplitude {i} differs at {threads} forced threads: {a:?} vs {b:?}"
                );
            }
        }
        chunk::set_force_parallel(prev);
    }

    /// Composes the index maps of a gate list into affine (cols, offset)
    /// form — the same algebra as the fusion pass, rebuilt independently.
    fn compose_map(n: usize, gates: &[(Gate, [usize; 2])]) -> (Vec<u64>, u64) {
        let mut cols: Vec<u64> = (0..n).map(|k| 1u64 << k).collect();
        let mut offset = 0u64;
        for (gate, qs) in gates {
            for v in cols.iter_mut().chain(std::iter::once(&mut offset)) {
                match gate {
                    Gate::X => {}
                    Gate::Cx => *v ^= ((*v >> qs[0]) & 1) << qs[1],
                    Gate::Swap => {
                        let x = ((*v >> qs[0]) ^ (*v >> qs[1])) & 1;
                        *v ^= (x << qs[0]) | (x << qs[1]);
                    }
                    _ => unreachable!(),
                }
            }
            if *gate == Gate::X {
                offset ^= 1 << qs[0];
            }
        }
        (cols, offset)
    }

    #[test]
    fn permute_amps_matches_gate_by_gate_application() {
        // A 10-qubit scrambled state pushed through a mixed X/CX/SWAP
        // sequence: applying the gates individually and applying their
        // composed affine map in one pass must agree bit-for-bit —
        // permutations only move amplitudes, so there is no rounding.
        let gates: [(Gate, [usize; 2]); 7] = [
            (Gate::X, [4, 0]),
            (Gate::Cx, [0, 1]),
            (Gate::Cx, [7, 2]),
            (Gate::Swap, [3, 9]),
            (Gate::Cx, [2, 0]),
            (Gate::X, [9, 0]),
            (Gate::Swap, [0, 5]),
        ];
        let mut reference = scrambled_state_n(10);
        let mut permuted = reference.clone();
        for (gate, qs) in &gates {
            let operands: &[usize] = if *gate == Gate::X { &qs[..1] } else { qs };
            reference.apply_gate(gate, operands);
        }
        let (cols, offset) = compose_map(10, &gates);
        permuted.permute_amps(&cols, offset);
        for (i, (a, b)) in reference.amps.iter().zip(&permuted.amps).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "amplitude {i}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn permute_amps_bit_identical_when_forced_to_chunk() {
        let gates: [(Gate, [usize; 2]); 3] =
            [(Gate::Cx, [0, 1]), (Gate::Swap, [2, 8]), (Gate::X, [5, 0])];
        let (cols, offset) = compose_map(9, &gates);
        let mut serial = scrambled_state_n(9);
        let mut chunked = serial.clone();
        serial.permute_amps(&cols, offset);
        let _force_lock = chunk::FORCE_PARALLEL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = chunk::set_force_parallel(true);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| chunked.permute_amps(&cols, offset));
        chunk::set_force_parallel(prev);
        for (i, (a, b)) in serial.amps.iter().zip(&chunked.amps).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "amplitude {i} differs under forced chunking: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn invert_affine_round_trips() {
        // inv ∘ map = identity on every index for a nontrivial map.
        let gates: [(Gate, [usize; 2]); 5] = [
            (Gate::Cx, [0, 3]),
            (Gate::Swap, [1, 4]),
            (Gate::X, [2, 0]),
            (Gate::Cx, [4, 2]),
            (Gate::Cx, [2, 1]),
        ];
        let (cols, offset) = compose_map(5, &gates);
        let (icols, ioffset) = invert_affine(&cols, offset);
        let eval = |cols: &[u64], off: u64, i: u64| {
            let mut out = off;
            let mut bits = i;
            while bits != 0 {
                out ^= cols[bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
            out
        };
        for i in 0u64..32 {
            let j = eval(&cols, offset, i);
            assert_eq!(eval(&icols, ioffset, j), i, "inverse fails at {i}");
        }
    }
}
