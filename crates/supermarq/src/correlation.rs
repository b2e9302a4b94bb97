//! Feature-vs-performance correlation analysis (paper Figs. 3 and 4).
//!
//! For every (feature, device) pair, a linear regression of benchmark
//! scores against the feature value yields an `R^2` "proportion of the
//! variance in that QPU's performance attributable to that feature".
//! Besides the six SupermarQ features, the paper also regresses against
//! three conventional metrics: circuit depth, qubit count and two-qubit
//! gate count.

use std::collections::BTreeMap;

use supermarq_circuit::Circuit;
use supermarq_classical::stats::linear_regression;

use crate::features::FeatureVector;

/// One benchmark execution record feeding the regression.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRecord {
    /// Device the benchmark ran on.
    pub device: String,
    /// Benchmark name.
    pub benchmark: String,
    /// The application's feature vector.
    pub features: FeatureVector,
    /// Conventional metrics: logical circuit depth.
    pub depth: usize,
    /// Conventional metrics: number of qubits.
    pub num_qubits: usize,
    /// Conventional metrics: two-qubit gate count of the logical circuit.
    pub two_qubit_gates: usize,
    /// Mean benchmark score.
    pub score: f64,
    /// Whether this record comes from an error-correction proxy (the
    /// bit/phase codes), which Fig. 3b excludes.
    pub is_error_correction: bool,
}

impl ScoreRecord {
    /// Builds a record from a benchmark's logical circuit and its score.
    pub fn from_circuit(
        device: impl Into<String>,
        benchmark: impl Into<String>,
        circuit: &Circuit,
        score: f64,
        is_error_correction: bool,
    ) -> Self {
        ScoreRecord {
            device: device.into(),
            benchmark: benchmark.into(),
            features: FeatureVector::of(circuit),
            depth: circuit.depth(),
            num_qubits: circuit.num_qubits(),
            two_qubit_gates: circuit.two_qubit_gate_count(),
            score,
            is_error_correction,
        }
    }
}

/// Names of all regressors, in row order of [`CorrelationTable::r_squared`].
pub const REGRESSOR_NAMES: [&str; 9] = [
    "Program Communication",
    "Critical Depth",
    "Entanglement Ratio",
    "Parallelism",
    "Liveness",
    "Measurement",
    "Depth",
    "# of Qubits",
    "# of 2Q Gates",
];

/// The Fig. 3 heatmap: `R^2` per (regressor, device).
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationTable {
    /// Device names, column order.
    pub devices: Vec<String>,
    /// `r_squared[regressor][device]`, rows ordered by
    /// [`REGRESSOR_NAMES`]. `None` when the regression is degenerate
    /// (fewer than two points or zero feature variance).
    pub r_squared: Vec<Vec<Option<f64>>>,
}

impl CorrelationTable {
    /// Looks up a single cell by names.
    #[cfg(test)]
    pub(crate) fn get(&self, regressor: &str, device: &str) -> Option<f64> {
        let row = REGRESSOR_NAMES.iter().position(|&n| n == regressor)?;
        let col = self.devices.iter().position(|d| d == device)?;
        self.r_squared[row][col]
    }
}

fn regressor_values(record: &ScoreRecord) -> [f64; 9] {
    let f = record.features.as_array();
    [
        f[0],
        f[1],
        f[2],
        f[3],
        f[4],
        f[5],
        record.depth as f64,
        record.num_qubits as f64,
        record.two_qubit_gates as f64,
    ]
}

/// Builds the correlation table from execution records, optionally
/// excluding the error-correction benchmarks (Fig. 3a vs Fig. 3b).
pub fn correlation_table(
    records: &[ScoreRecord],
    exclude_error_correction: bool,
) -> CorrelationTable {
    let mut by_device: BTreeMap<&str, Vec<&ScoreRecord>> = BTreeMap::new();
    for r in records {
        if exclude_error_correction && r.is_error_correction {
            continue;
        }
        by_device.entry(&r.device).or_default().push(r);
    }
    let devices: Vec<String> = by_device.keys().map(|s| s.to_string()).collect();
    let mut r_squared = vec![vec![None; devices.len()]; REGRESSOR_NAMES.len()];
    for (col, (_, recs)) in by_device.iter().enumerate() {
        for (row, r_row) in r_squared.iter_mut().enumerate() {
            let xs: Vec<f64> = recs.iter().map(|r| regressor_values(r)[row]).collect();
            let ys: Vec<f64> = recs.iter().map(|r| r.score).collect();
            r_row[col] = linear_regression(&xs, &ys).map(|fit| fit.r_squared);
        }
    }
    CorrelationTable { devices, r_squared }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(device: &str, feature_val: f64, score: f64, ec: bool) -> ScoreRecord {
        ScoreRecord {
            device: device.into(),
            benchmark: "test".into(),
            features: FeatureVector {
                program_communication: feature_val,
                critical_depth: 0.5,
                entanglement_ratio: feature_val * 0.5,
                parallelism: 0.1,
                liveness: 0.9,
                measurement: if ec { 0.4 } else { 0.0 },
            },
            depth: (10.0 * feature_val) as usize,
            num_qubits: 4,
            two_qubit_gates: (8.0 * feature_val) as usize,
            score,
            is_error_correction: ec,
        }
    }

    #[test]
    fn perfect_linear_relation_gives_r2_of_one() {
        let records: Vec<ScoreRecord> = (0..6)
            .map(|i| {
                let x = i as f64 / 5.0;
                record("dev", x, 1.0 - 0.5 * x, false)
            })
            .collect();
        let table = correlation_table(&records, false);
        let r2 = table.get("Program Communication", "dev").unwrap();
        assert!((r2 - 1.0).abs() < 1e-9, "r2={r2}");
    }

    #[test]
    fn constant_feature_regression_is_degenerate() {
        let records: Vec<ScoreRecord> = (0..5)
            .map(|i| record("dev", 0.5, 0.1 * i as f64, false))
            .collect();
        let table = correlation_table(&records, false);
        assert_eq!(table.get("Program Communication", "dev"), None);
        // Qubit count is also constant here.
        assert_eq!(table.get("# of Qubits", "dev"), None);
    }

    #[test]
    fn excluding_ec_changes_the_fit() {
        // EC records break the clean linear relation; excluding them
        // restores R^2 ~ 1.
        let mut records: Vec<ScoreRecord> = (0..6)
            .map(|i| {
                let x = i as f64 / 5.0;
                record("dev", x, 1.0 - 0.5 * x, false)
            })
            .collect();
        records.push(record("dev", 0.5, 0.05, true)); // EC outlier
        records.push(record("dev", 0.6, 0.02, true));
        let with_ec = correlation_table(&records, false);
        let without_ec = correlation_table(&records, true);
        let r_with = with_ec.get("Program Communication", "dev").unwrap();
        let r_without = without_ec.get("Program Communication", "dev").unwrap();
        assert!(r_without > r_with, "with={r_with} without={r_without}");
        assert!((r_without - 1.0).abs() < 1e-9);
    }

    #[test]
    fn devices_become_columns() {
        let records = vec![
            record("a", 0.1, 0.9, false),
            record("a", 0.9, 0.2, false),
            record("b", 0.3, 0.8, false),
            record("b", 0.7, 0.5, false),
        ];
        let table = correlation_table(&records, false);
        assert_eq!(table.devices, vec!["a".to_string(), "b".to_string()]);
        assert!(table.get("Program Communication", "a").is_some());
        assert!(table.get("Program Communication", "c").is_none());
    }

    #[test]
    fn from_circuit_extracts_conventional_metrics() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let r = ScoreRecord::from_circuit("d", "b", &c, 0.8, false);
        assert_eq!(r.num_qubits, 3);
        assert_eq!(r.two_qubit_gates, 2);
        assert_eq!(r.depth, c.depth());
        assert!(!r.is_error_correction);
    }
}
