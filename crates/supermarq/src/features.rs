//! The six application feature vectors of paper Sec. III-B.

use supermarq_circuit::{
    Circuit, CircuitLayers, CriticalPathInfo, InteractionGraph, LivenessMatrix,
};

/// The hardware-agnostic feature vector describing how an application
/// stresses a QPU. Every component lies in `[0, 1]`.
///
/// # Example
///
/// ```
/// use supermarq::FeatureVector;
/// use supermarq_circuit::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1).measure_all();
/// let f = FeatureVector::of(&bell);
/// assert!((f.program_communication - 1.0).abs() < 1e-12); // 2 qubits, 1 edge
/// assert_eq!(f.measurement, 0.0); // terminal measurement only
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector {
    /// Eq. 1: normalized average degree of the qubit interaction graph.
    pub program_communication: f64,
    /// Eq. 2: fraction of two-qubit interactions on the critical path.
    pub critical_depth: f64,
    /// Eq. 3: fraction of all gates that are two-qubit interactions.
    pub entanglement_ratio: f64,
    /// Eq. 4: `(n_g / d - 1) / (n - 1)`.
    pub parallelism: f64,
    /// Eq. 5: mean qubit activity across the liveness matrix.
    pub liveness: f64,
    /// Eq. 6: fraction of layers containing mid-circuit measurement/reset.
    pub measurement: f64,
}

/// Human-readable names, in the canonical component order of
/// [`FeatureVector::as_array`].
pub const FEATURE_NAMES: [&str; 6] = [
    "Program Communication",
    "Critical Depth",
    "Entanglement Ratio",
    "Parallelism",
    "Liveness",
    "Measurement",
];

impl FeatureVector {
    /// Computes all six features of a circuit. The ASAP layering is built
    /// once and feeds depth, liveness and the measurement feature.
    ///
    /// Empty circuits produce the all-zero vector.
    pub fn of(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits();
        let layers = CircuitLayers::of(circuit);
        let d = layers.depth();
        if d == 0 || n == 0 {
            return FeatureVector {
                program_communication: 0.0,
                critical_depth: 0.0,
                entanglement_ratio: 0.0,
                parallelism: 0.0,
                liveness: 0.0,
                measurement: 0.0,
            };
        }

        let program_communication = InteractionGraph::of(circuit).normalized_average_degree();

        let cp = CriticalPathInfo::of(circuit);
        let critical_depth = if cp.two_qubit_total == 0 {
            0.0
        } else {
            cp.two_qubit_on_path as f64 / cp.two_qubit_total as f64
        };

        // Gate counts exclude barriers but include measure/reset (they
        // occupy hardware time exactly like gates do).
        let n_g = circuit.gate_count();
        let n_e = circuit.two_qubit_gate_count();
        let entanglement_ratio = if n_g == 0 {
            0.0
        } else {
            n_e as f64 / n_g as f64
        };

        let parallelism = if n <= 1 {
            0.0
        } else {
            (((n_g as f64 / d as f64) - 1.0) / (n as f64 - 1.0)).clamp(0.0, 1.0)
        };

        let liveness = LivenessMatrix::from_layers(circuit, &layers).fraction();

        let measurement = layers.mid_circuit_measurement_layers(circuit) as f64 / d as f64;

        FeatureVector {
            program_communication,
            critical_depth,
            entanglement_ratio,
            parallelism,
            liveness,
            measurement,
        }
    }

    /// Component-wise mean of several feature vectors, used to describe a
    /// multi-circuit benchmark by *all* of its circuits. Returns `None`
    /// for an empty slice.
    pub(crate) fn mean(vectors: &[FeatureVector]) -> Option<FeatureVector> {
        if vectors.is_empty() {
            return None;
        }
        let mut sum = [0.0; 6];
        for v in vectors {
            for (acc, x) in sum.iter_mut().zip(v.as_array()) {
                *acc += x;
            }
        }
        let n = vectors.len() as f64;
        Some(FeatureVector {
            program_communication: sum[0] / n,
            critical_depth: sum[1] / n,
            entanglement_ratio: sum[2] / n,
            parallelism: sum[3] / n,
            liveness: sum[4] / n,
            measurement: sum[5] / n,
        })
    }

    /// The features as a fixed-order array (matching [`FEATURE_NAMES`]),
    /// for coverage geometry and regression.
    pub fn as_array(&self) -> [f64; 6] {
        [
            self.program_communication,
            self.critical_depth,
            self.entanglement_ratio,
            self.parallelism,
            self.liveness,
            self.measurement,
        ]
    }

    /// The features as a vector (for geometry APIs).
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_array().to_vec()
    }
}

impl std::fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PC={:.3} CD={:.3} Ent={:.3} Par={:.3} Liv={:.3} Mea={:.3}",
            self.program_communication,
            self.critical_depth,
            self.entanglement_ratio,
            self.parallelism,
            self.liveness,
            self.measurement
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        c
    }

    #[test]
    fn all_features_in_unit_interval() {
        let circuits = [ghz(3), ghz(6), {
            let mut c = Circuit::new(4);
            c.h(0)
                .measure(0)
                .reset(0)
                .cx(0, 1)
                .cz(1, 2)
                .rzz(0.3, 2, 3)
                .measure_all();
            c
        }];
        for c in &circuits {
            let f = FeatureVector::of(c);
            for v in f.as_array() {
                assert!((0.0..=1.0).contains(&v), "{f}");
            }
        }
    }

    #[test]
    fn ghz_feature_shape_matches_paper_fig1a() {
        // GHZ: chain communication (2/n), fully serial CNOT ladder
        // (critical depth 1), no mid-circuit measurement.
        let n = 5;
        let f = FeatureVector::of(&ghz(n));
        assert!((f.program_communication - 2.0 / n as f64).abs() < 1e-12);
        assert!((f.critical_depth - 1.0).abs() < 1e-12);
        assert_eq!(f.measurement, 0.0);
        // 1 H + 4 CX + 5 measure = 10 gates; entanglement ratio 0.4.
        assert!((f.entanglement_ratio - 0.4).abs() < 1e-12);
        // Serial circuit: low parallelism.
        assert!(f.parallelism < 0.25, "{}", f.parallelism);
    }

    #[test]
    fn complete_graph_circuit_has_unit_communication() {
        let n = 4;
        let mut c = Circuit::new(n);
        for a in 0..n {
            for b in a + 1..n {
                c.cz(a, b);
            }
        }
        let f = FeatureVector::of(&c);
        assert!((f.program_communication - 1.0).abs() < 1e-12);
        assert!((f.entanglement_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_layer_maximizes_parallelism() {
        // n gates in one layer: P = (n/1 - 1)/(n - 1) = 1.
        let n = 5;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        let f = FeatureVector::of(&c);
        assert!((f.parallelism - 1.0).abs() < 1e-12);
        assert!((f.liveness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serial_single_qubit_circuit_minimizes_parallelism() {
        let mut c = Circuit::new(3);
        c.h(0).h(0).h(0);
        let f = FeatureVector::of(&c);
        assert_eq!(f.parallelism, 0.0);
        assert!((f.liveness - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn error_correction_style_circuit_has_nonzero_measurement() {
        let mut c = Circuit::new(3);
        c.cx(0, 1)
            .cx(2, 1)
            .measure(1)
            .reset(1)
            .cx(0, 1)
            .cx(2, 1)
            .measure_all();
        let f = FeatureVector::of(&c);
        assert!(f.measurement > 0.0, "{f}");
        let mut terminal_only = Circuit::new(3);
        terminal_only.cx(0, 1).cx(2, 1).measure_all();
        assert_eq!(FeatureVector::of(&terminal_only).measurement, 0.0);
    }

    #[test]
    fn mean_averages_componentwise() {
        let a = FeatureVector::of(&ghz(3));
        let b = FeatureVector::of(&Circuit::new(3));
        let m = FeatureVector::mean(&[a, b]).unwrap();
        for (avg, x) in m.as_array().iter().zip(a.as_array()) {
            assert!((avg - x / 2.0).abs() < 1e-12);
        }
        assert_eq!(FeatureVector::mean(&[a]), Some(a));
        assert_eq!(FeatureVector::mean(&[]), None);
    }

    #[test]
    fn empty_circuit_is_all_zero() {
        let f = FeatureVector::of(&Circuit::new(4));
        assert_eq!(f.as_array(), [0.0; 6]);
    }

    #[test]
    fn array_order_matches_names() {
        assert_eq!(FEATURE_NAMES.len(), 6);
        let f = FeatureVector::of(&ghz(3));
        let arr = f.as_array();
        assert_eq!(arr[0], f.program_communication);
        assert_eq!(arr[5], f.measurement);
    }
}
