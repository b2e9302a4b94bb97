//! Gate fusion for the executor's unitary evaluator
//! (`Executor::final_state`): turns a circuit's unitary gates into the
//! [`Kernel`]s it applies, in fewer passes over the amplitudes.
//! Trajectory simulation attaches noise channels to individual gates, so
//! it never fuses.
//!
//! A run of `k` adjacent one-qubit unitaries on the same qubit costs `k`
//! full passes over half the amplitude array; multiplying their 2x2
//! matrices first collapses that to one [`Kernel::Matrix1`] pass.
//!
//! "Adjacent" is per qubit, not per program position: a one-qubit run on
//! qubit `a` stays fusable across interleaved operations on other qubits,
//! and is flushed by anything sharing qubit `a` (a two-qubit gate,
//! measurement, reset, or barrier). Operations on disjoint qubits commute
//! exactly as operators, so the reordering this implies does not change
//! the resulting unitary.
//!
//! A run of length 1 becomes its gate's own kernel ([`Kernel::of`]), so
//! diagonal/permutation gates keep their specialized kernels; only runs of
//! two or more pay the dense-matrix path.
//!
//! A second stage collapses adjacent runs of the *classical permutation*
//! kernels X, CX and SWAP: each maps basis index `i` to `A·i xor c` for an
//! invertible GF(2) matrix `A` (stored as columns) and offset `c`, so a run
//! of `k` of them composes into one [`Kernel::Permutation`], applied in a
//! single pass over the amplitudes instead of `k` memory-bound sweeps. A
//! GHZ ladder's whole CX chain becomes one pass. Measurements, resets and
//! barriers emit no kernel, so they do not split a permutation run; index
//! moves are exact, so the amplitudes are those of the gates one by one.

use supermarq_circuit::{Circuit, GateKind, Instruction, C64};

use crate::state::Kernel;

/// Fuses `circuit`'s unitary gates into kernels (one-qubit runs, then
/// permutation runs). Returns the kernels in application order and the
/// number of gate applications eliminated (`sum over runs of (len - 1)`).
pub(crate) fn fuse(circuit: &Circuit) -> (Vec<Kernel>, usize) {
    let (kernels, fused_1q) = fuse_1q_runs(circuit);
    let (kernels, fused_perm) = fuse_permutation_runs(kernels, circuit.num_qubits());
    (kernels, fused_1q + fused_perm)
}

/// A one-qubit run still accumulating.
struct Pending<'c> {
    matrix: [[C64; 2]; 2],
    count: usize,
    first: &'c Instruction,
}

/// 2x2 complex matrix product `a * b` (same accumulation order as the
/// transpiler's gate-fusion pass).
fn matmul2(a: &[[C64; 2]; 2], b: &[[C64; 2]; 2]) -> [[C64; 2]; 2] {
    let mut out = [[C64::ZERO; 2]; 2];
    for (row, out_row) in out.iter_mut().enumerate() {
        for (col, out_cell) in out_row.iter_mut().enumerate() {
            *out_cell = a[row][0] * b[0][col] + a[row][1] * b[1][col];
        }
    }
    out
}

fn flush(pending: &mut Option<Pending<'_>>, kernels: &mut Vec<Kernel>, fused_away: &mut usize) {
    if let Some(p) = pending.take() {
        if p.count == 1 {
            kernels.push(Kernel::of(&p.first.gate, &p.first.qubits));
        } else {
            *fused_away += p.count - 1;
            kernels.push(Kernel::Matrix1(p.first.qubits[0], p.matrix));
        }
    }
}

/// Fuses per-qubit runs of adjacent one-qubit unitaries and resolves every
/// two-qubit unitary to its kernel. Returns the kernels and the number of
/// gate applications eliminated.
fn fuse_1q_runs(circuit: &Circuit) -> (Vec<Kernel>, usize) {
    let mut pending: Vec<Option<Pending<'_>>> = (0..circuit.num_qubits()).map(|_| None).collect();
    let mut kernels = Vec::with_capacity(circuit.instructions().len());
    let mut fused_away = 0usize;
    for instr in circuit.iter() {
        let kind = instr.gate.kind();
        if kind == GateKind::OneQubitUnitary {
            let q = instr.qubits[0];
            let m = instr.gate.matrix1().expect("1q unitary has a matrix");
            match &mut pending[q] {
                Some(p) => {
                    // Later gates left-multiply: overall = m_new * m_acc.
                    p.matrix = matmul2(&m, &p.matrix);
                    p.count += 1;
                }
                None => {
                    pending[q] = Some(Pending {
                        matrix: m,
                        count: 1,
                        first: instr,
                    });
                }
            }
            continue;
        }
        for &q in &instr.qubits {
            flush(&mut pending[q], &mut kernels, &mut fused_away);
        }
        if kind == GateKind::TwoQubitUnitary {
            kernels.push(Kernel::of(&instr.gate, &instr.qubits));
        }
    }
    for slot in &mut pending {
        flush(slot, &mut kernels, &mut fused_away);
    }
    (kernels, fused_away)
}

/// An affine GF(2) index map accumulating a run of permutation kernels.
struct PermutationRun {
    /// `cols[k]` = image of basis vector `e_k` under the linear part.
    cols: Vec<u64>,
    offset: u64,
    count: usize,
    /// The run's first kernel, applied as it is if the run stays alone.
    first: Option<Kernel>,
}

impl PermutationRun {
    fn identity(num_qubits: usize) -> Self {
        PermutationRun {
            cols: (0..num_qubits).map(|k| 1u64 << k).collect(),
            offset: 0,
            count: 0,
            first: None,
        }
    }

    /// Left-composes one permutation kernel: the new map is `kernel ∘ self`.
    fn push(&mut self, kernel: Kernel) {
        match kernel {
            Kernel::X(q) => self.offset ^= 1 << q,
            Kernel::Cx(c, t) => {
                for v in self.cols.iter_mut().chain([&mut self.offset]) {
                    *v ^= ((*v >> c) & 1) << t;
                }
            }
            Kernel::Swap(a, b) => {
                for v in self.cols.iter_mut().chain([&mut self.offset]) {
                    let x = ((*v >> a) ^ (*v >> b)) & 1;
                    *v ^= (x << a) | (x << b);
                }
            }
            _ => unreachable!("not a permutation kernel: {kernel:?}"),
        }
        self.count += 1;
        self.first.get_or_insert(kernel);
    }
}

fn flush_perm(run: &mut Option<PermutationRun>, out: &mut Vec<Kernel>, fused_away: &mut usize) {
    if let Some(run) = run.take() {
        if run.count == 1 {
            // A run of one keeps its specialized swap kernel.
            out.extend(run.first);
        } else {
            *fused_away += run.count - 1;
            out.push(Kernel::Permutation(run.cols, run.offset));
        }
    }
}

/// Collapses adjacent runs of X/CX/SWAP kernels into single
/// [`Kernel::Permutation`]s. Returns the rewritten kernels and the number
/// of gate applications eliminated.
fn fuse_permutation_runs(kernels: Vec<Kernel>, num_qubits: usize) -> (Vec<Kernel>, usize) {
    let mut out = Vec::with_capacity(kernels.len());
    let mut run = None;
    let mut fused_away = 0usize;
    for kernel in kernels {
        if matches!(kernel, Kernel::X(_) | Kernel::Cx(..) | Kernel::Swap(..)) {
            run.get_or_insert_with(|| PermutationRun::identity(num_qubits))
                .push(kernel);
        } else {
            flush_perm(&mut run, &mut out, &mut fused_away);
            out.push(kernel);
        }
    }
    flush_perm(&mut run, &mut out, &mut fused_away);
    (out, fused_away)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_circuit::Gate;

    #[test]
    fn adjacent_runs_collapse_and_singletons_survive() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).s(0); // run of 3 on qubit 0
        c.x(1); // singleton on qubit 1
        let (ops, fused_away) = fuse_1q_runs(&c);
        assert_eq!(fused_away, 2);
        // The fused run is one dense matrix; the singleton keeps its
        // specialized kernel.
        assert!(matches!(ops[..], [Kernel::Matrix1(0, _), Kernel::X(1)]));
    }

    #[test]
    fn two_qubit_gates_flush_their_operands_only() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        c.cx(0, 1); // flushes qubits 0 and 1, not 2
        c.t(2); // still fusable with the earlier H on 2
        let (ops, fused_away) = fuse_1q_runs(&c);
        // Only the (H, T) run on qubit 2 fuses: the lone Hs on 0 and 1,
        // the CX, then the fused run on 2.
        assert_eq!(fused_away, 1);
        assert!(matches!(
            ops[..],
            [
                Kernel::Matrix1(0, _),
                Kernel::Matrix1(1, _),
                Kernel::Cx(0, 1),
                Kernel::Matrix1(2, _)
            ]
        ));
    }

    #[test]
    fn fused_matrix_matches_gate_product() {
        let mut c = Circuit::new(1);
        c.h(0).t(0);
        let (ops, _) = fuse_1q_runs(&c);
        assert_eq!(ops.len(), 1);
        let Kernel::Matrix1(qubit, matrix) = &ops[0] else {
            panic!("expected fused run");
        };
        assert_eq!(*qubit, 0);
        let h = Gate::H.matrix1().unwrap();
        let t = Gate::T.matrix1().unwrap();
        let expect = matmul2(&t, &h); // T after H => T * H
        for r in 0..2 {
            for col in 0..2 {
                assert!((matrix[r][col] - expect[r][col]).norm_sqr() < 1e-24);
            }
        }
    }

    /// Classical reference: the basis-index image of one permutation gate.
    fn apply_perm_gate(instr: &Instruction, i: u64) -> u64 {
        match instr.gate {
            Gate::X => i ^ (1 << instr.qubits[0]),
            Gate::Cx => {
                let (c, t) = (instr.qubits[0], instr.qubits[1]);
                i ^ (((i >> c) & 1) << t)
            }
            Gate::Swap => {
                let (a, b) = (instr.qubits[0], instr.qubits[1]);
                let x = ((i >> a) ^ (i >> b)) & 1;
                i ^ ((x << a) | (x << b))
            }
            _ => i,
        }
    }

    /// Evaluates an affine map at index `i`.
    fn eval_affine(cols: &[u64], offset: u64, i: u64) -> u64 {
        let mut out = offset;
        let mut bits = i;
        while bits != 0 {
            out ^= cols[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        out
    }

    /// `c` fuses to one permutation that agrees with applying its gates
    /// one by one on every basis index.
    fn assert_one_exact_permutation(c: &Circuit) {
        let (ops, _) = fuse(c);
        let [Kernel::Permutation(cols, offset)] = &ops[..] else {
            panic!("expected one fused permutation, got {ops:?}");
        };
        for i in 0u64..1 << c.num_qubits() {
            let expect = c.iter().fold(i, |j, instr| apply_perm_gate(instr, j));
            assert_eq!(
                eval_affine(cols, *offset, i),
                expect,
                "index {i} maps incorrectly"
            );
        }
    }

    #[test]
    fn permutation_run_collapses_to_one_exact_affine_map() {
        let mut c = Circuit::new(4);
        c.x(2).cx(0, 1).swap(1, 3).cx(3, 0).x(0).cx(1, 2);
        assert_eq!(fuse(&c).1, 5);
        assert_one_exact_permutation(&c);
    }

    #[test]
    fn permutation_singletons_keep_their_kernel() {
        let mut c = Circuit::new(2);
        c.x(0).h(1).cx(0, 1); // H splits the X and CX into singletons
        let (ops, fused_away) = fuse(&c);
        assert_eq!(fused_away, 0);
        assert!(matches!(
            ops[..],
            [Kernel::X(0), Kernel::Matrix1(1, _), Kernel::Cx(0, 1)]
        ));
    }

    #[test]
    fn non_permutation_gates_split_runs() {
        let mut c = Circuit::new(3);
        c.x(0).cx(0, 1); // run of 2
        c.cz(0, 1); // CZ is not a basis permutation: flushes
        c.swap(1, 2).x(2).cx(2, 0); // run of 3
        let (ops, fused_away) = fuse(&c);
        assert_eq!(fused_away, 1 + 2);
        assert!(matches!(
            ops[..],
            [
                Kernel::Permutation(..),
                Kernel::ControlledPhase(0, 1, _),
                Kernel::Permutation(..)
            ]
        ));
    }

    #[test]
    fn measurements_and_barriers_do_not_split_a_permutation_run() {
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1);
        c.measure(0).barrier_all();
        c.x(1).cx(1, 0);
        assert_eq!(fuse(&c).1, 3);
        assert_one_exact_permutation(&c);
    }

    #[test]
    fn collapses_flush_one_qubit_runs_and_emit_no_kernel() {
        for collapse in [Gate::Reset, Gate::Measure] {
            let mut c = Circuit::new(1);
            c.h(0);
            c.append(collapse, &[0]);
            c.h(0).h(0);
            let (ops, fused_away) = fuse_1q_runs(&c);
            // The lone H, then the fused (H, H) run after the collapse.
            assert_eq!(fused_away, 1, "{collapse:?}");
            assert_eq!(ops.len(), 2, "{collapse:?}");
        }
    }
}
