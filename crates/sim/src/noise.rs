//! The noise model and its single lowering.
//!
//! The noise model mirrors what the paper's Table II calibration data
//! describes: per-gate depolarizing error, readout error, and thermal
//! relaxation (`T1` amplitude damping plus `T2` dephasing) accumulated while
//! qubits idle. Gate and measurement durations determine how long idle
//! qubits decohere, which is exactly the mechanism behind the paper's
//! headline error-correction result: superconducting measurement + reset is
//! long relative to `T1`/`T2`, so the data qubits of the bit/phase-code
//! benchmarks decay while ancillas are read out, while trapped-ion qubits
//! idle essentially for free.
//!
//! What those numbers mean for a circuit is stated once, in
//! [`NoisyProgram::lower`]: the crosstalk factor, per-edge and per-qubit
//! rates, idle windows and the `T1`/`T2` conversion all resolve into a
//! flat list of [`NoisyOp`]s. Every backend interprets that list — the
//! statevector executor samples it as quantum trajectories, the density
//! matrix applies it exactly, and the stabilizer executor samples its
//! [`NoisyProgram::twirled`] form — so the three cannot drift apart.

use std::collections::BTreeMap;

use rand::Rng;

use supermarq_circuit::{Circuit, CircuitLayers, Gate, GateKind};
use supermarq_pauli::Pauli;

/// Durations (in microseconds) of the primitive operations, used to compute
/// how long idle qubits decohere each layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDurations {
    /// One-qubit gate time.
    pub one_qubit: f64,
    /// Two-qubit gate time.
    pub two_qubit: f64,
    /// Measurement (readout) time.
    pub measurement: f64,
    /// Reset time.
    pub reset: f64,
}

impl Default for GateDurations {
    /// Typical superconducting-scale durations (microseconds).
    fn default() -> Self {
        GateDurations {
            one_qubit: 0.035,
            two_qubit: 0.43,
            measurement: 5.0,
            reset: 5.0,
        }
    }
}

/// A device noise model; [`NoisyProgram::lower`] turns it into the
/// channels a circuit incurs.
///
/// All probabilities are per-application; set any field to zero to disable
/// that channel. `t1`/`t2` of `f64::INFINITY` disable relaxation.
///
/// # Example
///
/// ```
/// use supermarq_sim::NoiseModel;
///
/// let ideal = NoiseModel::ideal();
/// assert!(ideal.is_ideal());
/// let noisy = NoiseModel::uniform_depolarizing(0.01);
/// assert!(!noisy.is_ideal());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after each one-qubit gate.
    pub depolarizing_1q: f64,
    /// Depolarizing probability after each two-qubit gate (applied to the
    /// pair: a uniformly random non-identity two-qubit Pauli).
    pub depolarizing_2q: f64,
    /// Probability that a measurement records the flipped bit.
    pub readout_error: f64,
    /// Probability that a reset leaves the qubit in `|1>`.
    pub reset_error: f64,
    /// Energy-relaxation time constant (microseconds).
    pub t1: f64,
    /// Dephasing time constant (microseconds). Physical devices satisfy
    /// `t2 <= 2 t1`; values above that bound are clamped when deriving the
    /// pure-dephasing rate.
    pub t2: f64,
    /// Operation durations used to convert idle time into decay.
    pub durations: GateDurations,
    /// Extra multiplicative depolarizing strength per *additional*
    /// simultaneous two-qubit gate in the same layer (cross-talk, paper
    /// Sec. III-B-4). Effective 2q error for a layer with `k` two-qubit
    /// gates: `depolarizing_2q * (1 + crosstalk * (k - 1))`, clamped to 1.
    pub crosstalk: f64,
    /// Optional per-coupler two-qubit error rates (key `(min, max)`),
    /// overriding `depolarizing_2q` on listed edges. Real devices have
    /// large coupler-to-coupler variation — this is what noise-aware
    /// placement exploits.
    pub edge_depolarizing: Option<BTreeMap<(usize, usize), f64>>,
    /// Optional per-qubit readout error rates, overriding `readout_error`
    /// on listed qubits.
    pub qubit_readout: Option<Vec<f64>>,
}

impl NoiseModel {
    /// The noiseless model.
    pub fn ideal() -> Self {
        NoiseModel {
            depolarizing_1q: 0.0,
            depolarizing_2q: 0.0,
            readout_error: 0.0,
            reset_error: 0.0,
            t1: f64::INFINITY,
            t2: f64::INFINITY,
            durations: GateDurations::default(),
            crosstalk: 0.0,
            edge_depolarizing: None,
            qubit_readout: None,
        }
    }

    /// A simple model with the same depolarizing probability after every
    /// gate and no other channels — handy for quick experiments and tests.
    pub fn uniform_depolarizing(p: f64) -> Self {
        NoiseModel {
            depolarizing_1q: p,
            depolarizing_2q: p,
            ..NoiseModel::ideal()
        }
    }

    /// `true` if every channel is disabled.
    pub fn is_ideal(&self) -> bool {
        self.depolarizing_1q == 0.0
            && self.depolarizing_2q == 0.0
            && self.readout_error == 0.0
            && self.reset_error == 0.0
            && self.t1.is_infinite()
            && self.t2.is_infinite()
            && self
                .edge_depolarizing
                .as_ref()
                .is_none_or(|m| m.values().all(|&p| p == 0.0))
            && self
                .qubit_readout
                .as_ref()
                .is_none_or(|v| v.iter().all(|&p| p == 0.0))
    }

    /// Duration of a primitive operation under this model.
    pub(crate) fn duration_of(&self, gate: &Gate) -> f64 {
        use supermarq_circuit::GateKind::*;
        match gate.kind() {
            OneQubitUnitary => self.durations.one_qubit,
            TwoQubitUnitary => self.durations.two_qubit,
            Measurement => self.durations.measurement,
            Reset => self.durations.reset,
            Barrier => 0.0,
        }
    }

    /// The base two-qubit error rate for a specific coupler, honoring
    /// per-edge calibration data when present.
    pub fn depolarizing_2q_for(&self, a: usize, b: usize) -> f64 {
        let key = (a.min(b), a.max(b));
        self.edge_depolarizing
            .as_ref()
            .and_then(|m| m.get(&key).copied())
            .unwrap_or(self.depolarizing_2q)
    }

    /// The readout error for a specific qubit, honoring per-qubit
    /// calibration data when present.
    pub fn readout_error_for(&self, q: usize) -> f64 {
        self.qubit_readout
            .as_ref()
            .and_then(|v| v.get(q).copied())
            .unwrap_or(self.readout_error)
    }

    /// How idle windows decay under this model, or `None` when no idle
    /// window can: T1 is unusable and there is no pure dephasing.
    fn relaxation(&self) -> Option<Relaxation> {
        let usable = |time: f64| time.is_finite() && time > 0.0;
        let rate_t1 = if self.t1.is_finite() {
            1.0 / (2.0 * self.t1)
        } else {
            0.0
        };
        let rate_phi = if usable(self.t2) {
            (1.0 / self.t2 - rate_t1).max(0.0)
        } else {
            0.0
        };
        let t1 = usable(self.t1).then_some(self.t1);
        (t1.is_some() || rate_phi > 0.0).then_some(Relaxation { t1, rate_phi })
    }
}

/// The two rates an idle window decays at, computed once per lowering.
struct Relaxation {
    /// T1, when it is finite and positive.
    t1: Option<f64>,
    /// The pure-dephasing rate `1/T_phi = 1/T2 - 1/(2 T1)`, clamped at 0.
    rate_phi: f64,
}

impl Relaxation {
    /// Amplitude-damping and phase-flip probabilities of idling for `t`
    /// microseconds: `gamma = 1 - exp(-t/T1)` (0 without a usable T1) and
    /// `p_phi = (1 - exp(-t/T_phi))/2`.
    fn probabilities(&self, t: f64) -> (f64, f64) {
        let gamma = self.t1.map_or(0.0, |t1| 1.0 - (-t / t1).exp());
        (gamma, 0.5 * (1.0 - (-t * self.rate_phi).exp()))
    }
}

/// One step of a [`NoisyProgram`]: a circuit instruction, or a noise
/// channel whose probabilities are fully resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum NoisyOp {
    /// Apply the circuit's unitary instruction at this index.
    Gate(usize),
    /// With probability `p`, a uniformly random non-identity Pauli on
    /// `qubits`, the one or two operands of the gate it follows; `p`
    /// already includes the per-edge rate and the crosstalk factor.
    Depolarize { qubits: Vec<usize>, p: f64 },
    /// Measure `q` into classical bit `q`, recording the flipped bit with
    /// probability `flip` (readout error).
    Measure { q: usize, flip: f64 },
    /// Reset `q` to `|0>`, then apply X with probability `flip` (reset
    /// error).
    Reset { q: usize, flip: f64 },
    /// One idle window of `q`: amplitude damping with decay probability
    /// `gamma`, then a phase flip with probability `p_phi`.
    Idle { q: usize, gamma: f64, p_phi: f64 },
    /// The Pauli channel applying X, Y or Z to `q` with probabilities
    /// `probs = [p_x, p_y, p_z]`; only [`NoisyProgram::twirled`] emits it.
    Pauli { q: usize, probs: [f64; 3] },
}

impl NoisyOp {
    /// Samples the Pauli error of a `Depolarize` or `Pauli` op for one
    /// shot, calling `apply` on each non-identity factor; other ops draw
    /// nothing. The one Pauli sampler every trajectory backend shares.
    pub fn sample_pauli<R: Rng + ?Sized>(&self, rng: &mut R, mut apply: impl FnMut(usize, Pauli)) {
        match self {
            NoisyOp::Depolarize { qubits, p } => {
                if !coin(*p, rng) {
                    return;
                }
                // One base-4 digit (I, X, Y, Z) per qubit, never all I.
                let mut choice = rng.gen_range(1..=4usize.pow(qubits.len() as u32) - 1);
                for &q in qubits {
                    let pauli = Pauli::ALL[choice % 4];
                    choice /= 4;
                    if pauli != Pauli::I {
                        apply(q, pauli);
                    }
                }
            }
            NoisyOp::Pauli { q, probs } => {
                let r: f64 = rng.gen();
                let mut below = 0.0;
                for (p, pauli) in probs.iter().zip([Pauli::X, Pauli::Y, Pauli::Z]) {
                    below += p;
                    if r < below {
                        return apply(*q, pauli);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Draws one uniform number iff `p > 0` and reports whether it fell
/// below `p`: how every trajectory backend decides a readout, reset or
/// dephasing flip.
pub fn coin<R: Rng + ?Sized>(p: f64, rng: &mut R) -> bool {
    p > 0.0 && rng.gen::<f64>() < p
}

/// A circuit lowered against a [`NoiseModel`]: its instructions in ASAP
/// layer order, interleaved with the noise each one incurs.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyProgram {
    /// The steps, in execution order.
    pub ops: Vec<NoisyOp>,
}

impl NoisyProgram {
    /// Lowers `circuit` under `noise`, layer by layer: each instruction
    /// in layer order, each unitary followed by its `Depolarize` (the
    /// two-qubit rate is the coupler's, times `1 + crosstalk * (k - 1)`
    /// for `k` two-qubit gates in the layer, clamped to 1), then one
    /// `Idle` per qubit for the part of the layer it spent waiting (layer
    /// duration minus its own busy time). Channels of probability 0 emit
    /// no op.
    pub fn lower(circuit: &Circuit, noise: &NoiseModel) -> Self {
        let instrs = circuit.instructions();
        let relaxation = noise.relaxation();
        let mut busy = vec![0.0f64; circuit.num_qubits()];
        let mut ops = Vec::new();
        for layer in CircuitLayers::of(circuit).layers() {
            let two_qubit = layer.iter().filter(|&&i| instrs[i].is_two_qubit()).count();
            let crosstalk = 1.0 + noise.crosstalk * two_qubit.saturating_sub(1) as f64;
            for &i in layer {
                let (gate, qubits) = (&instrs[i].gate, &instrs[i].qubits);
                let q = qubits[0];
                let (op, p) = match gate.kind() {
                    GateKind::OneQubitUnitary => (NoisyOp::Gate(i), noise.depolarizing_1q),
                    GateKind::TwoQubitUnitary => {
                        let base = noise.depolarizing_2q_for(q, qubits[1]);
                        (NoisyOp::Gate(i), (base * crosstalk).min(1.0))
                    }
                    GateKind::Measurement => {
                        let flip = noise.readout_error_for(q);
                        (NoisyOp::Measure { q, flip }, 0.0)
                    }
                    GateKind::Reset => {
                        let flip = noise.reset_error;
                        (NoisyOp::Reset { q, flip }, 0.0)
                    }
                    GateKind::Barrier => unreachable!("CircuitLayers never schedules barriers"),
                };
                ops.push(op);
                if p > 0.0 {
                    let qubits = qubits.clone();
                    ops.push(NoisyOp::Depolarize { qubits, p });
                }
            }
            // Without relaxation no idle window can emit an op.
            let Some(relaxation) = &relaxation else {
                continue;
            };
            busy.fill(0.0);
            for &i in layer {
                for &q in &instrs[i].qubits {
                    busy[q] = busy[q].max(noise.duration_of(&instrs[i].gate));
                }
            }
            let duration = busy.iter().copied().fold(0.0, f64::max);
            for (q, &b) in busy.iter().enumerate().filter(|(_, &b)| b < duration) {
                let (gamma, p_phi) = relaxation.probabilities(duration - b);
                if gamma > 0.0 || p_phi > 0.0 {
                    ops.push(NoisyOp::Idle { q, gamma, p_phi });
                }
            }
        }
        NoisyProgram { ops }
    }

    /// The program for Pauli-only (stabilizer) backends: each `Idle`
    /// becomes the Pauli channel with the same Pauli-transfer diagonal,
    /// `p_x = p_y = gamma/4` and
    /// `p_z = (1 - sqrt(1 - gamma) (1 - 2 p_phi))/2 - gamma/4`, so
    /// populations relax and coherences decay at the exact channel's
    /// rates. Every other op is kept.
    pub fn twirled(&self) -> NoisyProgram {
        let twirl = |op: &NoisyOp| match *op {
            NoisyOp::Idle { q, gamma, p_phi } => {
                let coherence = (1.0 - gamma).sqrt() * (1.0 - 2.0 * p_phi);
                let p_z = ((1.0 - coherence) / 2.0 - gamma / 4.0).max(0.0);
                NoisyOp::Pauli {
                    q,
                    probs: [gamma / 4.0, gamma / 4.0, p_z],
                }
            }
            _ => op.clone(),
        };
        NoisyProgram {
            ops: self.ops.iter().map(twirl).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DensityMatrix;
    use NoisyOp::{Depolarize, Idle, Measure, Reset};

    #[test]
    fn ideal_model_is_ideal() {
        assert!(NoiseModel::ideal().is_ideal());
        assert!(!NoiseModel::uniform_depolarizing(0.1).is_ideal());
    }

    #[test]
    fn per_edge_rates_override_global() {
        let mut model = NoiseModel::ideal();
        model.depolarizing_2q = 0.01;
        let mut edges = BTreeMap::new();
        edges.insert((0usize, 1usize), 0.2);
        model.edge_depolarizing = Some(edges);
        assert!((model.depolarizing_2q_for(1, 0) - 0.2).abs() < 1e-12);
        assert!((model.depolarizing_2q_for(1, 2) - 0.01).abs() < 1e-12);
        assert!(!model.is_ideal());
    }

    #[test]
    fn per_qubit_readout_rates_override_global() {
        let mut model = NoiseModel::ideal();
        model.readout_error = 0.02;
        model.qubit_readout = Some(vec![0.0, 0.3]);
        assert_eq!(model.readout_error_for(0), 0.0);
        assert!((model.readout_error_for(1) - 0.3).abs() < 1e-12);
        // Out-of-range falls back to the average.
        assert!((model.readout_error_for(5) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn durations_map_to_gate_kinds() {
        let model = NoiseModel::ideal();
        assert_eq!(model.duration_of(&Gate::H), model.durations.one_qubit);
        assert_eq!(model.duration_of(&Gate::Cx), model.durations.two_qubit);
        assert_eq!(
            model.duration_of(&Gate::Measure),
            model.durations.measurement
        );
        assert_eq!(model.duration_of(&Gate::Reset), model.durations.reset);
        assert_eq!(model.duration_of(&Gate::Barrier), 0.0);
    }

    #[test]
    fn simultaneous_two_qubit_gates_pay_crosstalk() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).h(0).cx(1, 2);
        let noise = NoiseModel {
            depolarizing_1q: 0.001,
            depolarizing_2q: 0.01,
            crosstalk: 0.5,
            ..NoiseModel::ideal()
        };
        // Layer 0 holds both CXs (k = 2); layer 1 holds h(0) and cx(1, 2)
        // (k = 1, no penalty).
        assert_eq!(
            NoisyProgram::lower(&c, &noise).ops,
            vec![
                NoisyOp::Gate(0),
                Depolarize {
                    qubits: vec![0, 1],
                    p: 0.01 * 1.5
                },
                NoisyOp::Gate(1),
                Depolarize {
                    qubits: vec![2, 3],
                    p: 0.01 * 1.5
                },
                NoisyOp::Gate(2),
                Depolarize {
                    qubits: vec![0],
                    p: 0.001
                },
                NoisyOp::Gate(3),
                Depolarize {
                    qubits: vec![1, 2],
                    p: 0.01
                },
            ]
        );
        // The product clamps to a probability.
        let saturated = NoiseModel {
            depolarizing_2q: 0.8,
            crosstalk: 1.0,
            ..NoiseModel::ideal()
        };
        let ops = NoisyProgram::lower(&c, &saturated).ops;
        assert_eq!(
            ops[1],
            Depolarize {
                qubits: vec![0, 1],
                p: 1.0
            }
        );
    }

    #[test]
    fn per_edge_and_per_qubit_rates_resolve_in_the_lowering() {
        let mut c = Circuit::new(3);
        c.cx(1, 0).barrier_all().cx(1, 2).measure(0).measure(1);
        let noise = NoiseModel {
            depolarizing_2q: 0.01,
            readout_error: 0.02,
            edge_depolarizing: Some(BTreeMap::from([((0, 1), 0.2)])),
            qubit_readout: Some(vec![0.0, 0.3]),
            ..NoiseModel::ideal()
        };
        assert_eq!(
            NoisyProgram::lower(&c, &noise).ops,
            vec![
                NoisyOp::Gate(0),
                Depolarize {
                    qubits: vec![1, 0],
                    p: 0.2
                },
                NoisyOp::Gate(2),
                Depolarize {
                    qubits: vec![1, 2],
                    p: 0.01
                },
                Measure { q: 0, flip: 0.0 },
                Measure { q: 1, flip: 0.3 },
            ]
        );
    }

    #[test]
    fn idle_window_is_layer_duration_minus_busy_time() {
        let mut c = Circuit::new(3);
        c.h(0).measure(1);
        let noise = NoiseModel {
            t1: 100.0,
            t2: 80.0,
            ..NoiseModel::ideal()
        };
        let d = noise.durations;
        let wait = |q, t: f64| Idle {
            q,
            gamma: 1.0 - (-t / 100.0).exp(),
            p_phi: 0.5 * (1.0 - (-t * (1.0 / 80.0 - 1.0 / 200.0)).exp()),
        };
        // One layer as long as the readout: h(0) finishes early, qubit 1
        // is busy throughout, qubit 2 waits the whole layer.
        assert_eq!(
            NoisyProgram::lower(&c, &noise).ops,
            vec![
                NoisyOp::Gate(0),
                Measure { q: 1, flip: 0.0 },
                wait(0, d.measurement - d.one_qubit),
                wait(2, d.measurement),
            ]
        );
    }

    #[test]
    fn zero_probability_channels_emit_no_op() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).reset(1).barrier_all().x(0).measure_all();
        let plain = vec![
            NoisyOp::Gate(0),
            NoisyOp::Gate(1),
            Reset { q: 1, flip: 0.0 },
            NoisyOp::Gate(4),
            Measure { q: 1, flip: 0.0 },
            Measure { q: 0, flip: 0.0 },
        ];
        assert_eq!(NoisyProgram::lower(&c, &NoiseModel::ideal()).ops, plain);
        // Equal durations leave no qubit idle: no Idle op at all.
        let flat = GateDurations {
            one_qubit: 1.0,
            two_qubit: 1.0,
            measurement: 1.0,
            reset: 1.0,
        };
        let relaxing = NoiseModel {
            t1: 10.0,
            t2: 20.0,
            durations: flat,
            ..NoiseModel::ideal()
        };
        let mut both = Circuit::new(2);
        both.h(0).h(1).cx(0, 1).measure_all();
        assert!(NoisyProgram::lower(&both, &relaxing)
            .ops
            .iter()
            .all(|op| matches!(op, NoisyOp::Gate(_) | Measure { .. })));
        // T2 = 2 T1 leaves no pure dephasing on top of T1.
        let t1_limited = NoiseModel {
            durations: GateDurations::default(),
            ..relaxing
        };
        let ops = NoisyProgram::lower(&c, &t1_limited).ops;
        let idles: Vec<(f64, f64)> = ops
            .iter()
            .filter_map(|op| match *op {
                Idle { gamma, p_phi, .. } => Some((gamma, p_phi)),
                _ => None,
            })
            .collect();
        assert!(!idles.is_empty());
        assert!(idles
            .iter()
            .all(|&(gamma, p_phi)| gamma > 0.0 && p_phi == 0.0));
    }

    #[test]
    fn either_relaxation_time_alone_emits_idle_ops() {
        let mut c = Circuit::new(3);
        c.h(0).measure(1);
        let d = GateDurations::default();
        let (early, whole) = (d.measurement - d.one_qubit, d.measurement);
        // T2 alone: pure dephasing at 1/T2, no amplitude damping.
        let dephasing = NoiseModel {
            t2: 80.0,
            ..NoiseModel::ideal()
        };
        let phi = |t: f64| 0.5 * (1.0 - (-t * (1.0 / 80.0)).exp());
        assert_eq!(
            NoisyProgram::lower(&c, &dephasing).ops,
            vec![
                NoisyOp::Gate(0),
                Measure { q: 1, flip: 0.0 },
                Idle {
                    q: 0,
                    gamma: 0.0,
                    p_phi: phi(early)
                },
                Idle {
                    q: 2,
                    gamma: 0.0,
                    p_phi: phi(whole)
                },
            ]
        );
        // T1 alone: amplitude damping, and no dephasing beyond it.
        let damping = NoiseModel {
            t1: 100.0,
            ..NoiseModel::ideal()
        };
        let gamma = |t: f64| 1.0 - (-t / 100.0).exp();
        assert_eq!(
            NoisyProgram::lower(&c, &damping).ops,
            vec![
                NoisyOp::Gate(0),
                Measure { q: 1, flip: 0.0 },
                Idle {
                    q: 0,
                    gamma: gamma(early),
                    p_phi: 0.0
                },
                Idle {
                    q: 2,
                    gamma: gamma(whole),
                    p_phi: 0.0
                },
            ]
        );
    }

    /// The diagonal of the Pauli transfer matrix, `(R_XX, R_YY, R_ZZ)`, of
    /// a one-qubit program, read off the exact density matrix: `R_PP` is
    /// half the difference of `<P>` after the channel acts on the `+1` and
    /// `-1` eigenstates of `P`.
    fn ptm_diagonal(program: &NoisyProgram) -> [f64; 3] {
        let circuit = Circuit::new(1);
        let prep: [&[Gate]; 3] = [&[Gate::H], &[Gate::H, Gate::S], &[]];
        let unprep: [&[Gate]; 3] = [&[Gate::H], &[Gate::Sdg, Gate::H], &[]];
        let expectation = |flip: bool, basis: usize| {
            let mut rho = DensityMatrix::zero_state(1);
            let gates = flip
                .then_some(Gate::X)
                .into_iter()
                .chain(prep[basis].iter().copied());
            gates.for_each(|g| rho.apply_gate(&g, &[0]));
            rho.run_program(&circuit, program);
            unprep[basis].iter().for_each(|g| rho.apply_gate(g, &[0]));
            rho.probability_of_basis(0) - rho.probability_of_basis(1)
        };
        [0, 1, 2].map(|b| (expectation(false, b) - expectation(true, b)) / 2.0)
    }

    #[test]
    fn twirl_preserves_the_pauli_transfer_diagonal() {
        for gamma in [0.0, 0.01, 0.3, 0.632, 0.9, 1.0] {
            for p_phi in [0.0, 0.02, 0.2, 0.5] {
                let exact = NoisyProgram {
                    ops: vec![Idle { q: 0, gamma, p_phi }],
                };
                let twirled = exact.twirled();
                let [NoisyOp::Pauli { probs, .. }] = twirled.ops[..] else {
                    panic!("Idle must twirl to one Pauli channel: {twirled:?}");
                };
                assert!(probs.iter().all(|&p| p >= 0.0) && probs.iter().sum::<f64>() <= 1.0);
                let (want, got) = (ptm_diagonal(&exact), ptm_diagonal(&twirled));
                for (w, g) in want.iter().zip(got) {
                    assert!(
                        (w - g).abs() < 1e-12,
                        "gamma={gamma} p_phi={p_phi}: {want:?} vs {got:?}"
                    );
                }
            }
        }
    }
}
