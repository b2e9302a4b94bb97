//! The machine catalog: every QPU from the paper's evaluation as a model.

use crate::calibration::Calibration;
use crate::topology::Topology;
use supermarq_sim::noise::GateDurations;
use supermarq_sim::NoiseModel;

/// The native gate set a device's compiler must target (paper Sec. V: the
/// Closed Division allows "transpilation of OpenQASM to native gates").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeGateSet {
    /// IBM superconducting basis: `{rz, sx, x, cx}`.
    IbmLike,
    /// Trapped-ion basis: arbitrary single-qubit rotations plus the
    /// Mølmer–Sørensen `rxx` interaction.
    IonLike,
    /// AQT@LBNL superconducting basis: `{rz, sx, cz}`.
    AqtLike,
}

/// A modeled quantum processing unit: topology + calibration + gate set.
///
/// # Example
///
/// ```
/// use supermarq_device::Device;
///
/// let all = Device::all_paper_devices();
/// assert!(all.iter().any(|d| d.name() == "IBM-Montreal"));
/// assert!(all.iter().all(|d| d.num_qubits() >= 4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: String,
    topology: Topology,
    calibration: Calibration,
    gate_set: NativeGateSet,
    /// Cross-talk penalty coefficient passed to the noise model (see
    /// [`NoiseModel::crosstalk`]). Superconducting devices suffer from
    /// simultaneous-gate cross-talk; ion traps less so.
    crosstalk: f64,
    /// Optional per-coupler two-qubit error rates (calibration scatter).
    edge_errors: Option<std::collections::BTreeMap<(usize, usize), f64>>,
    /// Optional per-qubit readout error rates.
    qubit_readout_errors: Option<Vec<f64>>,
}

impl Device {
    /// Builds a custom device model.
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        calibration: Calibration,
        gate_set: NativeGateSet,
        crosstalk: f64,
    ) -> Self {
        Device {
            name: name.into(),
            topology,
            calibration,
            gate_set,
            crosstalk,
            edge_errors: None,
            qubit_readout_errors: None,
        }
    }

    /// Adds deterministic calibration scatter: every coupler's two-qubit
    /// error and every qubit's readout error is scaled by a factor drawn
    /// log-uniformly from `[1/(1+spread), 1+spread]` using `seed`. Real
    /// devices show 2-5x coupler-to-coupler variation ("not all qubits are
    /// created equal"); this is the signal noise-aware placement exploits.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is negative.
    pub fn with_error_variation(mut self, seed: u64, spread: f64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        assert!(spread >= 0.0, "spread must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        let span = (1.0 + spread).ln();
        let mut edges = std::collections::BTreeMap::new();
        for (a, b) in self.topology.graph().edges() {
            let factor = (rng.gen_range(-span..=span)).exp();
            edges.insert((a, b), (self.calibration.err_2q * factor).min(0.9));
        }
        let readout: Vec<f64> = (0..self.topology.num_qubits())
            .map(|_| {
                let factor = (rng.gen_range(-span..=span)).exp();
                (self.calibration.err_meas * factor).min(0.45)
            })
            .collect();
        self.edge_errors = Some(edges);
        self.qubit_readout_errors = Some(readout);
        self
    }

    /// The two-qubit error rate of a specific coupler (the device average
    /// when no per-edge calibration is attached).
    pub fn edge_error(&self, a: usize, b: usize) -> f64 {
        let key = (a.min(b), a.max(b));
        self.edge_errors
            .as_ref()
            .and_then(|m| m.get(&key).copied())
            .unwrap_or(self.calibration.err_2q)
    }

    /// The readout error of a specific qubit (device average when no
    /// per-qubit calibration is attached).
    pub fn qubit_readout_error(&self, q: usize) -> f64 {
        self.qubit_readout_errors
            .as_ref()
            .and_then(|v| v.get(q).copied())
            .unwrap_or(self.calibration.err_meas)
    }

    /// Device name as shown in the paper's figures.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The qubit topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits()
    }

    /// The calibration record.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The native gate set.
    pub fn gate_set(&self) -> NativeGateSet {
        self.gate_set
    }

    /// Derives the trajectory noise model used to "execute" benchmarks on
    /// this device.
    pub fn noise_model(&self) -> NoiseModel {
        let c = &self.calibration;
        NoiseModel {
            depolarizing_1q: c.err_1q,
            depolarizing_2q: c.err_2q,
            readout_error: c.err_meas,
            // Reset on current hardware is measurement-based; model its
            // failure rate like a readout error.
            reset_error: c.err_meas,
            t1: c.t1_us,
            t2: c.t2_us,
            durations: GateDurations {
                one_qubit: c.time_1q_us,
                two_qubit: c.time_2q_us,
                measurement: c.time_meas_us,
                reset: c.time_meas_us,
            },
            crosstalk: self.crosstalk,
            edge_depolarizing: self.edge_errors.clone(),
            qubit_readout: self.qubit_readout_errors.clone(),
        }
    }

    // --- Table II machines -------------------------------------------------

    /// IBM-Casablanca: 7 qubits, Falcon "H" layout.
    pub fn ibm_casablanca() -> Self {
        Device::new(
            "IBM-Casablanca",
            Topology::ibm_falcon_7q(),
            Calibration::from_table_row(91.21, 125.23, 0.035, 0.443, 5.9, 0.028, 0.83, 2.09),
            NativeGateSet::IbmLike,
            0.2,
        )
    }

    /// IBM-Montreal: 27 qubits.
    pub fn ibm_montreal() -> Self {
        Device::new(
            "IBM-Montreal",
            Topology::ibm_falcon_27q(),
            Calibration::from_table_row(104.14, 86.88, 0.035, 0.423, 5.2, 0.052, 1.76, 1.96),
            NativeGateSet::IbmLike,
            0.2,
        )
    }

    /// IBM-Guadalupe: 16 qubits.
    pub fn ibm_guadalupe() -> Self {
        Device::new(
            "IBM-Guadalupe",
            Topology::ibm_falcon_16q(),
            Calibration::from_table_row(99.52, 104.99, 0.035, 0.416, 5.4, 0.043, 1.03, 2.79),
            NativeGateSet::IbmLike,
            0.2,
        )
    }

    /// IBM-Lagos: 7 qubits. The paper references this device in Fig. 2/3;
    /// its Table II row points to IBM's online documentation, so
    /// representative Falcon r5.11H values are used here.
    pub(crate) fn ibm_lagos() -> Self {
        Device::new(
            "IBM-Lagos",
            Topology::ibm_falcon_7q(),
            Calibration::from_table_row(120.0, 90.0, 0.035, 0.33, 5.2, 0.02, 0.7, 1.2),
            NativeGateSet::IbmLike,
            0.2,
        )
    }

    /// IBM-Mumbai: 27 qubits (representative Falcon values; see
    /// [`Device::ibm_lagos`] note).
    pub(crate) fn ibm_mumbai() -> Self {
        Device::new(
            "IBM-Mumbai",
            Topology::ibm_falcon_27q(),
            Calibration::from_table_row(110.0, 95.0, 0.035, 0.43, 5.3, 0.04, 1.1, 2.3),
            NativeGateSet::IbmLike,
            0.2,
        )
    }

    /// IBM-Toronto: 27 qubits (representative Falcon values).
    pub fn ibm_toronto() -> Self {
        Device::new(
            "IBM-Toronto",
            Topology::ibm_falcon_27q(),
            Calibration::from_table_row(95.0, 80.0, 0.035, 0.5, 5.6, 0.06, 1.9, 3.5),
            NativeGateSet::IbmLike,
            0.2,
        )
    }

    /// IonQ: 11 fully connected trapped-ion qubits. Long coherence, slow
    /// gates, higher 2q error than IBM but no routing overhead.
    pub fn ionq() -> Self {
        Device::new(
            "IonQ",
            Topology::all_to_all(11),
            Calibration::from_table_row(1.0e7, 2.0e5, 10.0, 210.0, 100.0, 0.28, 3.04, 0.39),
            NativeGateSet::IonLike,
            0.05,
        )
    }

    /// AQT@LBNL: 4 qubits in a line.
    pub fn aqt() -> Self {
        Device::new(
            "AQT",
            Topology::line(4),
            Calibration::from_table_row(62.0, 37.0, 0.03, 0.152, 1.02, 0.083, 2.1, 1.25),
            NativeGateSet::AqtLike,
            0.2,
        )
    }

    /// Every device used in the paper's evaluation (Figs. 2–4).
    pub fn all_paper_devices() -> Vec<Device> {
        vec![
            Device::ibm_casablanca(),
            Device::ibm_lagos(),
            Device::ibm_guadalupe(),
            Device::ibm_montreal(),
            Device::ibm_mumbai(),
            Device::ibm_toronto(),
            Device::ionq(),
            Device::aqt(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_qubit_counts() {
        assert_eq!(Device::ibm_casablanca().num_qubits(), 7);
        assert_eq!(Device::ibm_montreal().num_qubits(), 27);
        assert_eq!(Device::ibm_guadalupe().num_qubits(), 16);
        assert_eq!(Device::ionq().num_qubits(), 11);
        assert_eq!(Device::aqt().num_qubits(), 4);
    }

    #[test]
    fn ionq_is_all_to_all_ibm_is_not() {
        let all_to_all = |d: Device| {
            let n = d.num_qubits();
            (0..n).all(|q| d.topology().degree(q) == n - 1)
        };
        assert!(all_to_all(Device::ionq()));
        assert!(!all_to_all(Device::ibm_montreal()));
    }

    #[test]
    fn noise_model_reflects_calibration() {
        let d = Device::ibm_casablanca();
        let nm = d.noise_model();
        assert!((nm.depolarizing_2q - 0.0083).abs() < 1e-12);
        assert!((nm.readout_error - 0.0209).abs() < 1e-12);
        assert!((nm.t1 - 91.21).abs() < 1e-9);
        assert!((nm.durations.measurement - 5.9).abs() < 1e-9);
        assert!(!nm.is_ideal());
    }

    #[test]
    fn architectural_contrast_readout_vs_t1() {
        // The Table II story: superconducting readout is a significant
        // fraction of T1; trapped-ion readout is negligible.
        for d in [
            Device::ibm_casablanca(),
            Device::ibm_montreal(),
            Device::aqt(),
        ] {
            assert!(d.calibration().readout_to_t1_ratio() > 0.01, "{}", d.name());
        }
        assert!(Device::ionq().calibration().readout_to_t1_ratio() < 1e-4);
    }

    #[test]
    fn catalog_is_complete_and_named_uniquely() {
        let all = Device::all_paper_devices();
        assert_eq!(all.len(), 8);
        let names: std::collections::BTreeSet<&str> = all.iter().map(Device::name).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn error_variation_scatters_but_preserves_scale() {
        let d = Device::ibm_guadalupe().with_error_variation(5, 1.0);
        let avg = d.calibration().err_2q;
        let mut seen_different = false;
        let mut previous: Option<f64> = None;
        for (a, b) in d.topology().graph().edges() {
            let e = d.edge_error(a, b);
            assert!(e > avg / 2.5 && e < avg * 2.5, "edge ({a},{b}) error {e}");
            if let Some(p) = previous {
                if (e - p).abs() > 1e-12 {
                    seen_different = true;
                }
            }
            previous = Some(e);
        }
        assert!(seen_different, "variation must actually vary");
        // Noise model carries the per-edge data through.
        let nm = d.noise_model();
        let (a, b) = d.topology().graph().edges().next().unwrap();
        assert!((nm.depolarizing_2q_for(a, b) - d.edge_error(a, b)).abs() < 1e-12);
        assert!((nm.readout_error_for(0) - d.qubit_readout_error(0)).abs() < 1e-12);
    }

    #[test]
    fn without_variation_edge_error_is_average() {
        let d = Device::ibm_guadalupe();
        assert_eq!(d.edge_error(0, 1), d.calibration().err_2q);
        assert_eq!(d.qubit_readout_error(3), d.calibration().err_meas);
    }

    #[test]
    fn gate_sets_by_architecture() {
        assert_eq!(Device::ibm_lagos().gate_set(), NativeGateSet::IbmLike);
        assert_eq!(Device::ionq().gate_set(), NativeGateSet::IonLike);
        assert_eq!(Device::aqt().gate_set(), NativeGateSet::AqtLike);
    }
}
