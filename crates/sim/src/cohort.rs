//! Cohort trajectories: noisy shots share one state until their draws
//! differ.
//!
//! A shot's trajectory is fixed by its RNG stream ([`shot_rng`]) and the
//! draws that stream makes at each [`NoisyOp`]. The shots of one batch
//! start as one cohort on one [`StateVector`]. At each noise op, every
//! shot of a cohort makes exactly the draws a lone trajectory makes, in
//! the same order, against the cohort's state: no op's draws depend on
//! the state change that op makes, so the shared state gives each shot
//! the thresholds its own state would. The cohort then splits by what
//! was drawn. Each minority class continues on a clone of the pre-op
//! state, and the largest class keeps the state in place. A cohort of
//! one finishes as a plain trajectory. Counts are those of per-shot
//! trajectories, bit for bit; only the work is shared.
//!
//! Work goes on an explicit stack. The states alive at once are capped
//! by [`LIVE_AMPLITUDES`]; past the cap, a split sets its minority shots
//! aside, and once the batch's tree is done each is rerun from the start
//! of its stream, one at a time, as a plain trajectory.

use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;
use supermarq_circuit::{Gate, Instruction};
use supermarq_pauli::Pauli;

use crate::counts::Counts;
use crate::executor::shot_rng;
use crate::noise::{coin, NoisyOp};
use crate::state::{Kernel, StateVector};

/// Amplitudes the live cohort states of one run may hold together:
/// 64 MiB of `C64`. Each batch gets an equal share, or room for one
/// state if that is larger.
const LIVE_AMPLITUDES: usize = 1 << 22;

/// What one shot drew at one op, as the state change it selects (see
/// [`draw`] for the bits). A readout flip is not part of it: the
/// classical register is each shot's own.
type Draw = u32;

/// One shot of a batch: its RNG stream and classical register.
struct Shot {
    rng: StdRng,
    classical: u64,
}

impl Shot {
    fn new(seed: u64, index: usize) -> Self {
        Shot {
            rng: shot_rng(seed, index as u64),
            classical: 0,
        }
    }
}

/// Shots (indices into the batch) that have drawn the same events so
/// far, their shared state, and the next op they run.
struct Cohort {
    next: usize,
    state: StateVector,
    members: Vec<usize>,
}

/// What one batch's cohort tree did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreeStats {
    /// States the batch evolved: the root, one per split-off class, and
    /// one per rerun shot.
    pub(crate) cohorts: usize,
    /// Shots set aside past the cap and rerun from the start.
    pub(crate) reruns: usize,
}

/// The kernel of each unitary instruction of a circuit, by instruction
/// index (`None` for measurements, resets and barriers): resolved once
/// per run, applied by every cohort.
pub(crate) fn prepare(instrs: &[Instruction]) -> Vec<Option<Kernel>> {
    instrs
        .iter()
        .map(|i| i.gate.is_unitary().then(|| Kernel::of(&i.gate, &i.qubits)))
        .collect()
}

/// Runs shots `shots` of `ops` (lowered from a circuit on `num_qubits`
/// qubits whose instructions [`prepare`] resolved to `gates`), seeded
/// `seed`, as one cohort tree, and records each shot's classical
/// register into `acc`. `batches` is the number of batches sharing the
/// run's cap on live states.
pub(crate) fn run_batch(
    gates: &[Option<Kernel>],
    num_qubits: usize,
    ops: &[NoisyOp],
    seed: u64,
    shots: Range<usize>,
    batches: usize,
    acc: &mut Counts,
) -> TreeStats {
    let len = 1usize << num_qubits;
    let max_live = (LIVE_AMPLITUDES / batches.max(1) / len).max(1);
    let mut batch: Vec<Shot> = shots.clone().map(|i| Shot::new(seed, i)).collect();
    let mut stats = TreeStats {
        cohorts: 1,
        reruns: 0,
    };
    let mut stack = vec![Cohort {
        next: 0,
        state: StateVector::zero_state(num_qubits),
        members: (0..batch.len()).collect(),
    }];
    let mut set_aside = Vec::new();
    let mut draws: Vec<Draw> = Vec::new();
    let mut classes: Vec<(Draw, usize)> = Vec::new();
    while let Some(Cohort {
        mut next,
        mut state,
        mut members,
    }) = stack.pop()
    {
        while members.len() > 1 && next < ops.len() {
            let op = &ops[next];
            next += 1;
            if let NoisyOp::Gate(i) = *op {
                apply_gate(&mut state, gates, i);
                continue;
            }
            let mut p1 = None;
            draws.clear();
            draws.extend(
                members
                    .iter()
                    .map(|&m| draw(op, &state, &mut p1, &mut batch[m])),
            );
            classes.clear();
            for &d in &draws {
                match classes.iter_mut().find(|(c, _)| *c == d) {
                    Some((_, size)) => *size += 1,
                    None => classes.push((d, 1)),
                }
            }
            let keep = classes
                .iter()
                .max_by_key(|&&(_, size)| size)
                .expect("a member")
                .0;
            for &(d, _) in classes.iter().filter(|&&(d, _)| d != keep) {
                let class = members.iter().zip(&draws).filter(|&(_, &e)| e == d);
                let class: Vec<usize> = class.map(|(&m, _)| m).collect();
                // Live after a clone: the stack, this cohort and the clone.
                if stack.len() + 2 <= max_live {
                    let mut split = state.clone();
                    apply(&mut split, gates, op, d);
                    stack.push(Cohort {
                        next,
                        state: split,
                        members: class,
                    });
                    stats.cohorts += 1;
                } else {
                    set_aside.extend(class);
                }
            }
            let mut kept = draws.iter();
            members.retain(|_| kept.next() == Some(&keep));
            apply(&mut state, gates, op, keep);
        }
        if let [m] = members[..] {
            run_alone(&mut state, gates, &ops[next..], &mut batch[m]);
        }
        for &m in &members {
            acc.record(batch[m].classical);
        }
    }
    for m in set_aside {
        let mut shot = Shot::new(seed, shots.start + m);
        run_alone(
            &mut StateVector::zero_state(num_qubits),
            gates,
            ops,
            &mut shot,
        );
        acc.record(shot.classical);
        stats.cohorts += 1;
        stats.reruns += 1;
    }
    stats
}

/// Runs `ops` for one shot on its own state: a plain trajectory.
fn run_alone(state: &mut StateVector, gates: &[Option<Kernel>], ops: &[NoisyOp], shot: &mut Shot) {
    for op in ops {
        let d = match op {
            NoisyOp::Gate(_) => 0,
            _ => draw(op, state, &mut None, shot),
        };
        apply(state, gates, op, d);
    }
}

/// Applies instruction `i`'s prepared kernel.
fn apply_gate(state: &mut StateVector, gates: &[Option<Kernel>], i: usize) {
    state.apply_kernel(
        gates[i]
            .as_ref()
            .expect("Gate ops name unitary instructions"),
    );
}

/// Makes one shot's draws for noise op `op`, in the order a lone
/// trajectory makes them, against `state`, and updates the shot's
/// classical register. `p1` holds `state`'s probability of reading 1 on
/// the op's qubit once a draw of the cohort has read it. Returns the
/// state change drawn:
/// * `Measure`: the outcome.
/// * `Reset`: the outcome in bit 0, the reset-error flip in bit 1.
/// * `Idle`: a jump in bit 0 (drawn only when `gamma > 0`), a phase flip
///   in bit 1.
/// * `Depolarize` and `Pauli`: the Pauli on operand `j` in bits `2j` and
///   `2j + 1` (`I, X, Y, Z` as 0-3).
fn draw(op: &NoisyOp, state: &StateVector, p1: &mut Option<f64>, shot: &mut Shot) -> Draw {
    let mut p_one = |q| *p1.get_or_insert_with(|| state.probability_of_one(q));
    let rng = &mut shot.rng;
    match *op {
        NoisyOp::Gate(_) => 0,
        NoisyOp::Measure { q, flip } => {
            let one = rng.gen::<f64>() < p_one(q);
            let bit = one ^ coin(flip, rng);
            shot.classical = shot.classical & !(1 << q) | (bit as u64) << q;
            Draw::from(one)
        }
        NoisyOp::Reset { q, flip } => {
            let one = rng.gen::<f64>() < p_one(q);
            Draw::from(one) | Draw::from(coin(flip, rng)) << 1
        }
        NoisyOp::Idle { q, gamma, p_phi } => {
            // A jump needs u < gamma * p1. The state stays normalized up
            // to rounding (each collapse renormalizes, each gate is
            // unitary), so p1 < 2 and u >= 2 gamma rules the jump out
            // without reading p1.
            let jump = gamma > 0.0 && {
                let u = rng.gen::<f64>();
                u < 2.0 * gamma && u < gamma * p_one(q)
            };
            Draw::from(jump) | Draw::from(coin(p_phi, rng)) << 1
        }
        NoisyOp::Depolarize { .. } | NoisyOp::Pauli { .. } => {
            let operands = pauli_operands(op);
            let mut d = 0;
            op.sample_pauli(rng, |q, p| {
                let j = operands.iter().position(|&o| o == q).expect("an operand");
                d |= (p as Draw) << (2 * j);
            });
            d
        }
    }
}

/// The qubits a `Depolarize` or `Pauli` op acts on, in operand order.
fn pauli_operands(op: &NoisyOp) -> &[usize] {
    match op {
        NoisyOp::Depolarize { qubits, .. } => qubits,
        NoisyOp::Pauli { q, .. } => std::slice::from_ref(q),
        _ => &[],
    }
}

/// Applies to `state` the change `op` makes when draw `d` was drawn,
/// with the kernels a lone trajectory uses (the no-jump branch of
/// amplitude damping through the fused [`StateVector::damp_no_jump`]).
fn apply(state: &mut StateVector, gates: &[Option<Kernel>], op: &NoisyOp, d: Draw) {
    let pauli = |state: &mut StateVector, q: usize, p: Pauli| {
        let gate = [Gate::I, Gate::X, Gate::Y, Gate::Z][p as usize];
        state.apply_matrix1(&gate.matrix1().expect("Pauli matrix"), q);
    };
    match *op {
        NoisyOp::Gate(i) => apply_gate(state, gates, i),
        NoisyOp::Measure { q, .. } => state.project_qubit(q, d == 1),
        NoisyOp::Reset { q, .. } => {
            let one = d & 1 == 1;
            state.project_qubit(q, one);
            if one {
                pauli(state, q, Pauli::X);
            }
            if d & 2 != 0 {
                pauli(state, q, Pauli::X);
            }
        }
        NoisyOp::Idle { q, gamma, .. } => {
            if d & 1 == 1 {
                state.project_qubit(q, true);
                pauli(state, q, Pauli::X);
            } else if gamma > 0.0 {
                state.damp_no_jump(q, gamma);
            }
            if d & 2 != 0 {
                pauli(state, q, Pauli::Z);
            }
        }
        NoisyOp::Depolarize { .. } | NoisyOp::Pauli { .. } => {
            for (j, &q) in pauli_operands(op).iter().enumerate() {
                let p = Pauli::ALL[(d >> (2 * j)) as usize & 3];
                if p != Pauli::I {
                    pauli(state, q, p);
                }
            }
        }
    }
}
